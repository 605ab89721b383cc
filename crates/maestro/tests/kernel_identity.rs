//! Bit-identity property suite for the batch pricing kernel.
//!
//! The kernel ([`CostModel::evaluate_batch_into`]) promises `to_bits`
//! equality with the scalar oracle ([`CostModel::evaluate`]) on every field
//! of every [`CostReport`] — not "close", *identical*. These properties
//! drive random layer zoos through every dataflow at random design points,
//! with duplicated and permuted query streams, and compare every field.
//! The companion end-to-end check is the frozen two-stage search digest in
//! the workspace's `seeded_determinism` suite: if the kernel moved any
//! number anywhere, that digest would shift.

use maestro::{
    BatchQueries, CostModel, CostOracle, CostReport, Dataflow, DesignPoint, EvalEngine, EvalQuery,
    Layer, LayerInvariants,
};
use proptest::prelude::*;

/// Every f64 in a report, flattened for field-by-field bit comparison.
fn fields(r: &CostReport) -> [(&'static str, f64); 22] {
    [
        ("latency_cycles", r.latency_cycles),
        ("compute_cycles", r.compute_cycles),
        ("stall_cycles", r.stall_cycles),
        ("energy_nj", r.energy_nj),
        ("mac_nj", r.energy.mac_nj),
        ("l1_nj", r.energy.l1_nj),
        ("l2_nj", r.energy.l2_nj),
        ("dram_nj", r.energy.dram_nj),
        ("noc_nj", r.energy.noc_nj),
        ("area_um2", r.area_um2),
        ("pe_um2", r.area.pe_um2),
        ("l1_um2", r.area.l1_um2),
        ("l2_um2", r.area.l2_um2),
        ("noc_um2", r.area.noc_um2),
        ("power_mw", r.power_mw),
        ("utilization", r.utilization),
        ("l1_bytes_per_pe", r.l1_bytes_per_pe),
        ("l2_bytes", r.l2_bytes),
        ("macs", r.macs),
        ("dram_bytes", r.dram_bytes),
        ("l2_traffic_bytes", r.l2_traffic_bytes),
        ("noc_bw_bytes_per_cycle", r.noc_bw_bytes_per_cycle),
    ]
}

fn assert_bit_identical(scalar: &CostReport, batch: &CostReport, ctx: &str) {
    for ((name, a), (_, b)) in fields(scalar).into_iter().zip(fields(batch)) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: field {name} diverged (scalar {a} vs batch {b})"
        );
    }
}

/// A random layer of any kind. Spatial extents are built as `r + dy` so the
/// output dimensions are always positive, and shapes deliberately include
/// degenerate corners (1x1 filters, stride 2, single channels).
fn layer_zoo() -> BoxedStrategy<Layer> {
    let conv = (
        1u64..=96,
        1u64..=48,
        0u64..=40,
        0u64..=40,
        1u64..=5,
        1u64..=5,
        1u64..=2,
    )
        .prop_map(|(k, c, dy, dx, r, s, stride)| {
            Layer::conv2d("p_conv", k, c, r + dy, s + dx, r, s, stride).unwrap()
        });
    let dw = (
        1u64..=128,
        0u64..=40,
        0u64..=40,
        1u64..=5,
        1u64..=5,
        1u64..=2,
    )
        .prop_map(|(ch, dy, dx, r, s, stride)| {
            Layer::depthwise("p_dw", ch, r + dy, s + dx, r, s, stride).unwrap()
        });
    let gemm = (1u64..=512, 1u64..=128, 1u64..=1024)
        .prop_map(|(m, n, k)| Layer::gemm("p_fc", m, n, k).unwrap());
    prop_oneof![conv, dw, gemm].boxed()
}

/// `(layer index offset, dataflow index, num_pes, tile)` — one raw query.
/// The layer offset is reduced modulo the zoo size at use.
fn raw_queries() -> impl Strategy<Value = Vec<(usize, usize, u64, u64)>> {
    proptest::collection::vec((0usize..64, 0usize..3, 1u64..=4096, 1u64..=128), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Core property: every field of every report is bit-identical between
    /// the batch kernel and a scalar loop over the same queries.
    #[test]
    fn batch_kernel_is_bit_identical_to_scalar(
        zoo in proptest::collection::vec(layer_zoo(), 1..6),
        raw in raw_queries(),
    ) {
        let model = CostModel::default();
        let inv = LayerInvariants::new(&zoo);
        let layers: Vec<usize> = raw.iter().map(|q| q.0 % zoo.len()).collect();
        let dataflows: Vec<Dataflow> = raw.iter().map(|q| Dataflow::ALL[q.1]).collect();
        let points: Vec<DesignPoint> =
            raw.iter().map(|q| DesignPoint::new(q.2, q.3).unwrap()).collect();
        let batch = model.evaluate_batch(&inv, &BatchQueries {
            layers: &layers,
            dataflows: &dataflows,
            points: &points,
        });
        prop_assert_eq!(batch.len(), raw.len());
        for i in 0..raw.len() {
            let scalar = model.evaluate(&zoo[layers[i]], dataflows[i], points[i]);
            assert_bit_identical(
                &scalar,
                &batch[i],
                &format!("query {i} ({} {:?})", dataflows[i], points[i]),
            );
        }
    }

    /// Duplicates and permutations: repeating the stream (forcing memo
    /// hits) and rotating it (changing which query warms each memo entry)
    /// must leave every report untouched at its original index.
    #[test]
    fn duplicated_and_permuted_batches_agree(
        zoo in proptest::collection::vec(layer_zoo(), 1..4),
        raw in raw_queries(),
        rot in 0usize..199,
    ) {
        let model = CostModel::default();
        let inv = LayerInvariants::new(&zoo);
        let n = raw.len();
        let layers: Vec<usize> = raw.iter().map(|q| q.0 % zoo.len()).collect();
        let dataflows: Vec<Dataflow> = raw.iter().map(|q| Dataflow::ALL[q.1]).collect();
        let points: Vec<DesignPoint> =
            raw.iter().map(|q| DesignPoint::new(q.2, q.3).unwrap()).collect();
        let base = model.evaluate_batch(&inv, &BatchQueries {
            layers: &layers,
            dataflows: &dataflows,
            points: &points,
        });

        // Doubled stream: second copy hits warm memos everywhere.
        let layers2: Vec<usize> = layers.iter().chain(&layers).copied().collect();
        let dataflows2: Vec<Dataflow> = dataflows.iter().chain(&dataflows).copied().collect();
        let points2: Vec<DesignPoint> = points.iter().chain(&points).copied().collect();
        let doubled = model.evaluate_batch(&inv, &BatchQueries {
            layers: &layers2,
            dataflows: &dataflows2,
            points: &points2,
        });
        for i in 0..n {
            assert_bit_identical(&base[i], &doubled[i], &format!("doubled, first copy {i}"));
            assert_bit_identical(&base[i], &doubled[n + i], &format!("doubled, second copy {i}"));
        }

        // Rotated stream: a different query populates each memo entry first.
        let rot = rot % n;
        let perm: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        let layers_p: Vec<usize> = perm.iter().map(|&i| layers[i]).collect();
        let dataflows_p: Vec<Dataflow> = perm.iter().map(|&i| dataflows[i]).collect();
        let points_p: Vec<DesignPoint> = perm.iter().map(|&i| points[i]).collect();
        let rotated = model.evaluate_batch(&inv, &BatchQueries {
            layers: &layers_p,
            dataflows: &dataflows_p,
            points: &points_p,
        });
        for i in 0..n {
            assert_bit_identical(&base[perm[i]], &rotated[i], &format!("rotated {i}"));
        }
    }

    /// The engine's batch path (one kernel call over the whole batch) must
    /// agree with the scalar oracle too.
    #[test]
    fn engine_batches_match_scalar_through_the_kernel(
        zoo in proptest::collection::vec(layer_zoo(), 1..4),
        raw in raw_queries(),
    ) {
        let model = CostModel::default();
        let queries: Vec<EvalQuery> = raw
            .iter()
            .map(|q| EvalQuery {
                layer: q.0 % zoo.len(),
                dataflow: Dataflow::ALL[q.1],
                point: DesignPoint::new(q.2, q.3).unwrap(),
            })
            .collect();
        let engine = EvalEngine::new(model.clone(), zoo.clone());
        let batch = engine.evaluate_batch(&queries);
        for (i, q) in queries.iter().enumerate() {
            let scalar = model.evaluate(&zoo[q.layer], q.dataflow, q.point);
            assert_bit_identical(&scalar, &batch[i], &format!("engine query {i}"));
        }
    }
}
