//! The one result summary every search path reduces to.
//!
//! [`RlSearchResult`], [`FineTuneResult`], and [`TwoStageResult`] each
//! re-derived "the best cost" with their own logic; [`SearchOutcome`] is
//! the shared summary (best point, best cost under [`f64::total_cmp`],
//! eval stats, wall time) and the exact payload the server's `Done`
//! protocol event embeds verbatim.
//!
//! Possibly-infinite floats (the `inf` trace sentinel) are bit-encoded as
//! `u64` so the vendored JSON layer — which writes non-finite floats as
//! `null` — round-trips the summary exactly.

use std::time::Duration;

use maestro::EvalStats;
use serde::{Deserialize, Serialize};

use crate::digest::Fnv;
use crate::search::{FineTuneResult, RlSearchResult, TwoStageResult};
use crate::Assignment;

/// Uniform summary of one finished search, shared by every search-result
/// type and serialized verbatim into the server protocol's `Done` event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Method name (e.g. `Con'X (global)` or `Con'X + LocalGA`).
    pub algorithm: String,
    /// Best feasible assignment, if any stage found one.
    pub best: Option<Assignment>,
    /// Bit-encoded best cost (`f64::to_bits`), chosen across stages with
    /// [`f64::total_cmp`]. `None` iff `best` is `None`.
    pub best_cost_bits: Option<u64>,
    /// Stage-1 epochs actually spent.
    pub epochs: usize,
    /// Stage-2 evaluations actually spent (0 when no fine stage ran).
    pub evaluations: usize,
    /// FNV-1a digest over the bit-exact best-so-far traces of every stage,
    /// in stage order — the determinism fingerprint of the run.
    pub trace_fnv: u64,
    /// Evaluation-engine counters consumed by the run.
    pub eval_stats: EvalStats,
    /// Wall-clock time in nanoseconds.
    pub wall_nanos: u64,
    /// `Some(reason)` when the search was stopped early (its deadline
    /// expired) and this is the best-so-far answer rather than the
    /// full-budget result. A degraded outcome is a *partial answer, not an
    /// error*: `best` is still the true best found under the budget
    /// actually spent. Excluded from [`Self::digest`] — a degraded run
    /// legitimately stops at a different point than an uninterrupted one.
    pub degraded: Option<String>,
}

impl SearchOutcome {
    /// Best cost as a float, if a feasible point was found.
    pub fn best_cost(&self) -> Option<f64> {
        self.best_cost_bits.map(f64::from_bits)
    }

    /// Wall-clock time.
    pub fn wall_time(&self) -> Duration {
        Duration::from_nanos(self.wall_nanos)
    }

    /// Engine hit rate of the run, in `[0, 1]` (see [`EvalStats`]).
    pub fn hit_rate(&self) -> f64 {
        self.eval_stats.hit_rate()
    }

    /// True when the run stopped early and carries a partial answer.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Marks the outcome as stopped-early with `reason`; the summary data
    /// itself is untouched.
    pub fn into_degraded(mut self, reason: impl Into<String>) -> Self {
        self.degraded = Some(reason.into());
        self
    }

    /// Digest over every *seed-determined* field: best point, best cost,
    /// budgets spent, and the trace digest — but **not** eval stats or
    /// wall time, which are observability rather than results. Two runs
    /// of the same [`JobSpec`](crate::JobSpec) must produce equal digests
    /// no matter how often they were interrupted or resumed.
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.push(self.best_cost_bits.unwrap_or(0));
        fnv.push(self.epochs as u64);
        fnv.push(self.evaluations as u64);
        fnv.push(self.trace_fnv);
        if let Some(best) = &self.best {
            fnv.push(best.layers.len() as u64);
            for la in &best.layers {
                fnv.push(la.dataflow as u64);
                fnv.push(la.point.num_pes());
                fnv.push(la.point.tile());
            }
            fnv.push(best.cost.to_bits());
            fnv.push(best.constraint_used.to_bits());
        }
        fnv.finish()
    }
}

/// Folds one stage's best-so-far trace into a digest accumulator.
fn push_trace(fnv: &mut Fnv, trace: &[f64]) {
    fnv.push(trace.len() as u64);
    for c in trace {
        fnv.push(c.to_bits());
    }
}

impl RlSearchResult {
    /// Reduces this global-stage result to the shared summary.
    pub fn outcome(&self) -> SearchOutcome {
        let mut fnv = Fnv::new();
        push_trace(&mut fnv, &self.trace);
        SearchOutcome {
            algorithm: self.algorithm.clone(),
            best: self.best.clone(),
            best_cost_bits: self.best.as_ref().map(|a| a.cost.to_bits()),
            epochs: self.trace.len(),
            evaluations: 0,
            trace_fnv: fnv.finish(),
            eval_stats: self.eval_stats,
            wall_nanos: self.wall_time.as_nanos() as u64,
            degraded: None,
        }
    }
}

impl FineTuneResult {
    /// Reduces this fine-stage result to the shared summary.
    pub fn outcome(&self) -> SearchOutcome {
        let mut fnv = Fnv::new();
        push_trace(&mut fnv, &self.trace);
        SearchOutcome {
            algorithm: "LocalGA (fine)".to_string(),
            best: self.best.clone(),
            best_cost_bits: self.best.as_ref().map(|a| a.cost.to_bits()),
            epochs: 0,
            evaluations: self.evaluations,
            trace_fnv: fnv.finish(),
            eval_stats: self.eval_stats,
            wall_nanos: self.wall_time.as_nanos() as u64,
            degraded: None,
        }
    }
}

impl TwoStageResult {
    /// Reduces the full pipeline result to the shared summary: the best
    /// point across both stages under [`f64::total_cmp`], combined eval
    /// stats and wall time, and a trace digest over stage 1 then stage 2.
    pub fn outcome(&self) -> SearchOutcome {
        let mut fnv = Fnv::new();
        push_trace(&mut fnv, &self.global.trace);
        if let Some(fine) = &self.fine {
            push_trace(&mut fnv, &fine.trace);
        }
        let best = self.final_best().cloned();
        let wall =
            self.global.wall_time + self.fine.as_ref().map_or(Duration::ZERO, |f| f.wall_time);
        let stats = self.fine.as_ref().map_or(self.global.eval_stats, |f| {
            self.global.eval_stats.plus(f.eval_stats)
        });
        SearchOutcome {
            algorithm: format!("{} + LocalGA", self.global.algorithm),
            best_cost_bits: best.as_ref().map(|a| a.cost.to_bits()),
            best,
            epochs: self.global.trace.len(),
            evaluations: self.fine.as_ref().map_or(0, |f| f.evaluations),
            trace_fnv: fnv.finish(),
            eval_stats: stats,
            wall_nanos: wall.as_nanos() as u64,
            degraded: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{two_stage_search, HwProblem, TwoStageConfig};

    fn tiny_result() -> TwoStageResult {
        let p = HwProblem::builder(dnn_models::tiny_cnn()).build();
        let cfg = TwoStageConfig {
            global_epochs: 30,
            fine_evaluations: 120,
            ..TwoStageConfig::default()
        };
        two_stage_search(&p, &cfg, 19)
    }

    #[test]
    fn outcome_agrees_with_final_cost() {
        let r = tiny_result();
        let o = r.outcome();
        assert_eq!(o.best_cost(), r.final_cost());
        assert_eq!(o.epochs, r.global.trace.len());
        assert_eq!(o.best.as_ref().map(|a| a.cost), r.final_cost());
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let o = tiny_result().outcome();
        let text = serde_json::to_string(&o).unwrap();
        let back: SearchOutcome = serde_json::from_str(&text).unwrap();
        assert_eq!(back, o);
        assert_eq!(back.digest(), o.digest());
    }

    #[test]
    fn digest_ignores_cache_temperature() {
        let r = tiny_result();
        let mut other = r.outcome();
        // Same search, different counters and wall time.
        other.eval_stats.hits += 1_000;
        other.eval_stats.misses = 1;
        other.wall_nanos /= 2;
        assert_eq!(other.digest(), r.outcome().digest());
    }

    #[test]
    fn stage_outcomes_expose_their_own_bests() {
        let r = tiny_result();
        let g = r.global.outcome();
        assert_eq!(g.best_cost(), r.global.best_cost());
        assert_eq!(g.evaluations, 0);
        if let Some(fine) = &r.fine {
            let f = fine.outcome();
            assert_eq!(f.best_cost(), fine.best.as_ref().map(|a| a.cost));
            assert_eq!(f.epochs, 0);
        }
    }
}
