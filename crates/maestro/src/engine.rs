//! Cost-evaluation engine: a fixed layer table in front of the batch
//! pricing kernel.
//!
//! Every optimizer in the workspace — RL rollouts, the classical baselines,
//! the local fine-tuning GA, and the table/figure binaries — prices
//! `(layer, dataflow, design point)` queries through the [`CostOracle`]
//! trait. [`EvalEngine`] answers a batch with one
//! [`CostModel::evaluate_batch_into`] call against the [`LayerInvariants`]
//! it builds once at construction, and a singleton with the scalar
//! [`CostModel::evaluate`]. The kernel is `to_bits`-identical to the scalar
//! model and keeps no state between calls, so every answer is a pure
//! function of its query and the engine holds nothing but its table and
//! two counters.
//!
//! Within one batch the kernel prices each distinct key once: a report is
//! a pure function of `(dataflow, layer, clamped tile, num_pes)`, so
//! duplicates — and queries that differ only in a tile above the layer's
//! `K` — collapse to a copy. The counters record exactly that work; see
//! [`EvalStats`].

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::{BatchQueries, CostModel, CostReport, Dataflow, DesignPoint, Layer, LayerInvariants};

/// Environment variable read by [`threads_from_env`].
const THREADS_ENV: &str = "CONFX_THREADS";

/// One cost query: a layer (by index into the engine's layer table), a
/// dataflow style, and a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EvalQuery {
    /// Index into the layer table the engine was built with.
    pub layer: usize,
    /// Dataflow style to evaluate under.
    pub dataflow: Dataflow,
    /// Hardware design point.
    pub point: DesignPoint,
}

/// Evaluation counters.
///
/// `misses` counts the reports the cost model actually computed: one per
/// singleton query, and one per distinct key the kernel priced in a batch.
/// `hits` counts the rest of each batch — queries answered with a copy of
/// a report priced earlier in the same batch. `hits + misses` therefore
/// always equals the number of queries issued, and both are pure functions
/// of the queries, never of what ran before them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Queries answered with a copy of a report priced in the same batch.
    pub hits: u64,
    /// Reports the cost model computed.
    pub misses: u64,
}

impl EvalStats {
    /// Total queries issued.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of queries answered without a fresh computation (0 when
    /// no queries ran).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Field-wise sum of two counter deltas (merging the segments of a
    /// checkpointed-and-resumed run into one per-run total).
    pub fn plus(&self, other: EvalStats) -> EvalStats {
        EvalStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }

    /// Counter delta since an earlier snapshot (for per-run reporting).
    pub fn since(&self, earlier: EvalStats) -> EvalStats {
        EvalStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// A source of cost reports for `(layer, dataflow, design point)` queries.
///
/// The trait is the seam between search code and the evaluation substrate:
/// optimizers talk to a `CostOracle`, and how answers are produced is the
/// oracle's business. A memoizing decorator for an expensive oracle would
/// go here.
pub trait CostOracle {
    /// Evaluates a single query.
    ///
    /// # Panics
    ///
    /// Panics if `query.layer` is out of range for the oracle's layer table.
    fn evaluate_query(&self, query: EvalQuery) -> CostReport;

    /// Evaluates a batch; entry `i` of the result answers `queries[i]`.
    ///
    /// The default implementation is the serial reference semantics every
    /// implementation must match bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if any query's layer index is out of range.
    fn evaluate_batch(&self, queries: &[EvalQuery]) -> Vec<CostReport> {
        queries.iter().map(|&q| self.evaluate_query(q)).collect()
    }

    /// Cumulative hit/miss counters.
    fn stats(&self) -> EvalStats;
}

/// The workspace's evaluation engine: one [`CostModel`], the
/// [`LayerInvariants`] of a fixed layer table, and the counters.
#[derive(Debug)]
pub struct EvalEngine {
    model: CostModel,
    /// The layer table with its per-layer kernel constants, built once so
    /// no batch repeats the per-layer arithmetic.
    invariants: LayerInvariants,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalEngine {
    /// Creates an engine over `layers`; queries index into this table.
    pub fn new(model: CostModel, layers: Vec<Layer>) -> Self {
        EvalEngine {
            invariants: LayerInvariants::new(&layers),
            model,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cost model queries are priced with.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// The layer table queries index into.
    pub fn layers(&self) -> &[Layer] {
        self.invariants.layers()
    }
}

impl CostOracle for EvalEngine {
    fn evaluate_query(&self, query: EvalQuery) -> CostReport {
        let layer = &self.layers()[query.layer];
        let report = self.model.evaluate(layer, query.dataflow, query.point);
        self.misses.fetch_add(1, Ordering::Relaxed);
        report
    }

    fn evaluate_batch(&self, queries: &[EvalQuery]) -> Vec<CostReport> {
        let layers: Vec<usize> = queries.iter().map(|q| q.layer).collect();
        let dataflows: Vec<Dataflow> = queries.iter().map(|q| q.dataflow).collect();
        let points: Vec<DesignPoint> = queries.iter().map(|q| q.point).collect();
        let mut out = vec![CostReport::default(); queries.len()];
        let priced = self.model.evaluate_batch_into(
            &self.invariants,
            &BatchQueries {
                layers: &layers,
                dataflows: &dataflows,
                points: &points,
            },
            &mut out,
        );
        self.misses.fetch_add(priced as u64, Ordering::Relaxed);
        self.hits
            .fetch_add((queries.len() - priced) as u64, Ordering::Relaxed);
        out
    }

    fn stats(&self) -> EvalStats {
        EvalStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// `CONFX_THREADS` if set and positive, else the machine's available
/// parallelism capped at 8. The engine runs on the calling thread; this
/// only resolves the value for callers that record it.
pub fn threads_from_env() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers() -> Vec<Layer> {
        vec![
            Layer::conv2d("c", 64, 32, 28, 28, 3, 3, 1).unwrap(),
            Layer::depthwise("d", 96, 28, 28, 3, 3, 1).unwrap(),
            Layer::gemm("g", 256, 16, 512).unwrap(),
        ]
    }

    fn q(layer: usize, df: Dataflow, p: u64, t: u64) -> EvalQuery {
        EvalQuery {
            layer,
            dataflow: df,
            point: DesignPoint::new(p, t).unwrap(),
        }
    }

    fn stats(hits: u64, misses: u64) -> EvalStats {
        EvalStats { hits, misses }
    }

    #[test]
    fn batch_matches_direct_model_evaluation() {
        let engine = EvalEngine::new(CostModel::default(), layers());
        let queries = vec![
            q(0, Dataflow::NvdlaStyle, 16, 4),
            q(1, Dataflow::EyerissStyle, 64, 2),
            q(2, Dataflow::ShiDianNaoStyle, 128, 8),
            q(0, Dataflow::NvdlaStyle, 16, 4), // duplicate
        ];
        let reports = engine.evaluate_batch(&queries);
        let model = CostModel::default();
        let table = layers();
        for (query, report) in queries.iter().zip(&reports) {
            let fresh = model.evaluate(&table[query.layer], query.dataflow, query.point);
            assert_eq!(report, &fresh);
        }
        assert_eq!(reports[0], reports[3]);
    }

    #[test]
    fn stats_account_for_every_query() {
        let engine = EvalEngine::new(CostModel::default(), layers());
        let a = q(0, Dataflow::NvdlaStyle, 8, 2);
        let b = q(2, Dataflow::EyerissStyle, 8, 2);
        // a is priced once and copied for its in-batch duplicate; b priced.
        engine.evaluate_batch(&[a, a, b]);
        assert_eq!(engine.stats(), stats(1, 2));
        // Nothing carries over between batches: a repeat prices both again.
        engine.evaluate_batch(&[a, b, a]);
        assert_eq!(engine.stats(), stats(2, 4));
        assert_eq!(engine.stats().total(), 6);
        assert!((engine.stats().hit_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn counters_pin_duplicates_clamped_tiles_and_singletons() {
        let engine = EvalEngine::new(CostModel::default(), layers());
        // Layer 0 has K = 64, so tiles 64, 100 and 4096 all clamp to 64 and
        // price as one key.
        let queries = [
            q(0, Dataflow::NvdlaStyle, 16, 64),
            q(0, Dataflow::NvdlaStyle, 16, 100),
            q(0, Dataflow::NvdlaStyle, 16, 4096),
            q(0, Dataflow::NvdlaStyle, 16, 4),
            q(0, Dataflow::EyerissStyle, 16, 100),
            q(0, Dataflow::NvdlaStyle, 16, 4),
        ];
        let reports = engine.evaluate_batch(&queries);
        assert_eq!(engine.stats(), stats(3, 3));
        assert_eq!(engine.stats().total(), queries.len() as u64);
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
        // A singleton is one miss, whatever ran before it, and agrees with
        // the batch path.
        assert_eq!(engine.evaluate_query(queries[1]), reports[1]);
        assert_eq!(engine.stats(), stats(3, 4));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine = EvalEngine::new(CostModel::default(), layers());
        assert!(engine.evaluate_batch(&[]).is_empty());
        assert_eq!(engine.stats(), EvalStats::default());
    }

    #[test]
    #[should_panic]
    fn out_of_range_layer_panics() {
        let engine = EvalEngine::new(CostModel::default(), layers());
        engine.evaluate_query(q(99, Dataflow::NvdlaStyle, 1, 1));
    }

    #[test]
    fn stats_from_older_checkpoints_still_load() {
        // Checkpoints written while the engine kept a memo cache carry a
        // third counter; fields are looked up by name, so extra ones are
        // ignored.
        let old: EvalStats = serde_json::from_str(r#"{"hits":5,"misses":3,"dropped":0}"#).unwrap();
        assert_eq!(old, stats(5, 3));
    }
}
