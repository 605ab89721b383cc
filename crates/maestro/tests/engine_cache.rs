//! Batch correctness for [`EvalEngine`]: whatever mix of duplicate and
//! permuted queries a batch contains, the answers must be bit-identical to
//! evaluating each query directly on a fresh [`CostModel`] — and the
//! hit/miss counters must account for every query exactly.

use std::collections::HashSet;

use maestro::{
    CostModel, CostOracle, Dataflow, DesignPoint, EvalEngine, EvalQuery, EvalStats, Layer,
};
use proptest::prelude::*;

fn layer_table() -> Vec<Layer> {
    vec![
        Layer::conv2d("c0", 64, 32, 28, 28, 3, 3, 1).unwrap(),
        Layer::conv2d("c1", 96, 24, 56, 56, 5, 5, 2).unwrap(),
        Layer::depthwise("dw", 96, 28, 28, 3, 3, 1).unwrap(),
        Layer::gemm("fc", 256, 16, 512).unwrap(),
    ]
}

fn arb_query() -> impl Strategy<Value = EvalQuery> {
    // Small ranges on purpose: batches drawn from them collide often, so
    // the duplicate-handling path is exercised on nearly every case.
    (0usize..4, 0usize..3, 1u64..64, 1u64..12).prop_map(|(layer, df, pes, tile)| EvalQuery {
        layer,
        dataflow: Dataflow::from_index(df).expect("index < 3"),
        point: DesignPoint::new(pes, tile).expect("positive"),
    })
}

/// The key the batch kernel prices a query under: its tile is clamped to
/// the layer's `K`, the same clamp the scalar model applies.
fn kernel_key(table: &[Layer], q: &EvalQuery) -> (Dataflow, usize, u64, u64) {
    let kt = q.point.tile().min(table[q.layer].k().max(1));
    (q.dataflow, q.layer, kt, q.point.num_pes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `evaluate_batch` equals a fresh serial evaluation of every query —
    /// including duplicates within the batch and a permuted re-submission.
    #[test]
    fn cached_batch_equals_fresh_serial_evaluation(
        queries in proptest::collection::vec(arb_query(), 1..48),
    ) {
        let engine = EvalEngine::new(CostModel::default(), layer_table());
        let fresh_model = CostModel::default();
        let table = layer_table();
        let fresh = |q: &EvalQuery| fresh_model.evaluate(&table[q.layer], q.dataflow, q.point);

        let batch = engine.evaluate_batch(&queries);
        prop_assert_eq!(batch.len(), queries.len());
        for (q, report) in queries.iter().zip(&batch) {
            prop_assert_eq!(report, &fresh(q));
        }

        // Permuted re-submission: the same answers, and the same pricing
        // work, since a batch's key set does not depend on its order.
        let permuted: Vec<EvalQuery> = queries.iter().rev().copied().collect();
        let first = engine.stats();
        let again = engine.evaluate_batch(&permuted);
        prop_assert_eq!(engine.stats().since(first), first);
        for (q, report) in permuted.iter().zip(&again) {
            prop_assert_eq!(report, &fresh(q));
        }
    }

    /// Counters are exact for arbitrary batches: misses equal the number
    /// of distinct kernel keys, hits cover everything else, and the totals
    /// add up to the number of queries issued.
    #[test]
    fn counters_account_for_every_query(
        queries in proptest::collection::vec(arb_query(), 1..48),
    ) {
        let table = layer_table();
        let engine = EvalEngine::new(CostModel::default(), table.clone());
        let keys: HashSet<_> = queries.iter().map(|q| kernel_key(&table, q)).collect();
        engine.evaluate_batch(&queries);
        let stats = engine.stats();
        prop_assert_eq!(stats.misses, keys.len() as u64);
        prop_assert_eq!(stats.total(), queries.len() as u64);

        // A full repeat prices the same keys again.
        engine.evaluate_batch(&queries);
        let stats = engine.stats();
        prop_assert_eq!(stats.misses, 2 * keys.len() as u64);
        prop_assert_eq!(stats.total(), 2 * queries.len() as u64);
    }
}

/// Deterministic spot-check that the counters are *exact*, not just
/// consistent: in-batch duplicates, two tiles above the layer's `K`, a
/// singleton, and a repeat batch.
#[test]
fn hit_miss_counters_are_exact() {
    let engine = EvalEngine::new(CostModel::default(), layer_table());
    let a = EvalQuery {
        layer: 0,
        dataflow: Dataflow::NvdlaStyle,
        point: DesignPoint::new(16, 4).unwrap(),
    };
    let b = EvalQuery {
        layer: 3,
        dataflow: Dataflow::ShiDianNaoStyle,
        point: DesignPoint::new(128, 8).unwrap(),
    };
    let stats = |hits, misses| EvalStats { hits, misses };
    // a: priced; a again in-batch: copied; b: priced.
    engine.evaluate_batch(&[a, a, b]);
    assert_eq!(engine.stats(), stats(1, 2));
    // A singleton always prices its query.
    engine.evaluate_query(a);
    assert_eq!(engine.stats(), stats(1, 3));
    // The repeat batch prices a and b again; its second a is a copy.
    engine.evaluate_batch(&[b, a, a]);
    assert_eq!(engine.stats(), stats(2, 5));
    assert_eq!(engine.stats().total(), 7);

    // Layer 0 has K = 64: tiles 65 and 500 both clamp to 64, so the two
    // queries are one key and price once.
    let tiles: Vec<EvalQuery> = [65, 500]
        .iter()
        .map(|&tile| EvalQuery {
            point: DesignPoint::new(16, tile).unwrap(),
            ..a
        })
        .collect();
    let reports = engine.evaluate_batch(&tiles);
    assert_eq!(reports[0], reports[1]);
    assert_eq!(engine.stats(), stats(3, 6));
}
