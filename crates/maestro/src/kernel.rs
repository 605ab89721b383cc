//! Data-oriented batch pricing kernel.
//!
//! The scalar [`CostModel::evaluate`] recomputes everything per call:
//! layer element counts (a dozen integer→f64 conversions and multiplies),
//! the `ceil(K/kt)` tile split, the three-candidate
//! [`SpatialMapping::factor`] search, a `log2` for the L1 access premium
//! and a `sqrt` for the NoC hop count. Search workloads price the *same*
//! layers under the *same* handful of tiles and array sizes thousands of
//! times per epoch, so almost all of that work is redundant.
//!
//! [`CostModel::evaluate_batch_into`] prices a whole batch through the same
//! stage functions the scalar path uses, but hoists the redundancy:
//!
//! * **Per-layer invariants** ([`LayerInvariants`]) — element counts, MAC
//!   totals, output extents — are computed once per layer, not per query.
//! * Queries are grouped by dataflow, so the dispatch branch inside the
//!   stage functions is perfectly predicted within each group and the memo
//!   key can drop the dataflow.
//! * Within a group, a report is a pure function of `(layer, kt, num_pes)`
//!   — so the kernel keeps a flat open-addressed memo on exactly that key,
//!   and *duplicate queries collapse to a report copy*. GA populations and
//!   RL replica steps are full of such duplicates. Misses run the shared
//!   stage functions, reusing tile state (`ceil(K/kt)`, parallel extents,
//!   L1 bytes, the `log2` access premium) from the previous miss when the
//!   `(layer, kt)` prefix repeats, and the [`SpatialMapping::factor`]
//!   search — integer fast path included — once per distinct key, never
//!   per query. The table hashes its 20-byte key with two multiplies
//!   (`std`'s SipHash or a byte-serial FNV would cost more than the stage
//!   math they save).
//!
//! **Bit-identity guarantee:** the kernel never reassociates a floating
//! point expression — it only caches values the scalar path computes from
//! the same inputs with the same operations, and f64 results of
//! deterministic operations are bit-stable. Every `CostReport` field is
//! therefore `to_bits`-equal to the scalar oracle's, which the
//! `kernel_identity` proptest suite and the frozen two-stage search digest
//! both enforce.
//!
//! Memo tables live on the stack of each call (no locks, no shared state),
//! so a batch's answers depend on nothing but its own queries.

use crate::estimate::{compute_cycles_from, l1_access_factor, LayerNums, MappingNums};
use crate::{CostModel, CostReport, Dataflow, DesignPoint, Layer, SpatialMapping};

/// Precomputed per-layer constants for a fixed layer table.
///
/// Build once next to the model (the [`crate::EvalEngine`] does this in its
/// constructor) and reuse across every batch; construction is cheap but
/// per-query recomputation is exactly the waste the kernel exists to avoid.
#[derive(Debug, Clone)]
pub struct LayerInvariants {
    layers: Vec<Layer>,
    nums: Vec<LayerNums>,
}

impl LayerInvariants {
    /// Precomputes invariants for `layers`; batch queries index into this
    /// table in the same order.
    pub fn new(layers: &[Layer]) -> Self {
        LayerInvariants {
            layers: layers.to_vec(),
            nums: layers.iter().map(LayerNums::new).collect(),
        }
    }

    /// Number of layers in the table.
    pub fn len(&self) -> usize {
        self.nums.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.nums.is_empty()
    }

    /// The layer table the invariants were built from.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }
}

/// A batch of cost queries in struct-of-arrays form: three parallel slices,
/// one element per query. Callers that already keep their queries columnar
/// borrow straight into this with no per-query repacking.
#[derive(Debug, Clone, Copy)]
pub struct BatchQueries<'a> {
    /// Per-query index into the [`LayerInvariants`] table.
    pub layers: &'a [usize],
    /// Per-query dataflow style.
    pub dataflows: &'a [Dataflow],
    /// Per-query design point.
    pub points: &'a [DesignPoint],
}

impl BatchQueries<'_> {
    /// Number of queries (all three slices must agree; enforced at
    /// evaluation time).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

/// Per-`(layer, dataflow, kt)` tile state, carried across a sorted run. All
/// fields are exactly what the scalar path computes from the same inputs.
#[derive(Clone, Copy, Default)]
struct TileEntry {
    /// `kt as f64`
    ktf: f64,
    /// `layer.k().div_ceil(kt) as f64`
    k_groups: f64,
    /// `dataflow.parallel_extents(layer, kt)`
    d_outer: u64,
    d_inner: u64,
    /// `dataflow.l1_bytes(layer, kt)`
    l1_bytes: f64,
    /// `l1_access_factor(l1_bytes)`
    l1_factor: f64,
}

impl CostModel {
    /// Prices `queries` into `out`, one [`CostReport`] per query, written at
    /// the query's own index, and returns how many distinct keys it priced
    /// (queries that share a `(dataflow, layer, clamped tile, num_pes)` key
    /// are priced once and copied).
    ///
    /// Bit-identical to calling [`CostModel::evaluate`] per query (see the
    /// module docs for why), just much faster on batches that revisit
    /// layers, tiles or array sizes.
    ///
    /// # Panics
    ///
    /// If the three query slices and `out` disagree in length, or a query's
    /// layer index is out of range for `invariants`.
    pub fn evaluate_batch_into(
        &self,
        invariants: &LayerInvariants,
        queries: &BatchQueries<'_>,
        out: &mut [CostReport],
    ) -> usize {
        let n = queries.layers.len();
        assert_eq!(n, queries.dataflows.len(), "SoA slices must be parallel");
        assert_eq!(n, queries.points.len(), "SoA slices must be parallel");
        assert_eq!(n, out.len(), "output slice must match the batch");

        // Bucket query indices by dataflow. Only the 4-byte index is
        // materialized — the drain loop below re-reads the SoA columns
        // (ascending indices, so the reads stay near-sequential). Layer
        // indices are bounds-checked on this pass.
        let mut rows: [Vec<u32>; 3] = [
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        ];
        for i in 0..n {
            assert!(
                invariants.nums.len() > queries.layers[i],
                "layer index out of range"
            );
            rows[queries.dataflows[i].index()].push(i as u32);
        }

        let mut priced = 0;
        for (df_idx, rows) in rows.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let dataflow = Dataflow::ALL[df_idx];
            // Flat open-addressed memo: `slots` holds indices into the
            // parallel `keys`/`reports` arrays (first-miss order). Keys are
            // kept apart from the fat reports so probe compares only touch
            // 24-byte entries. Capacity is the next power of two above 2x
            // the row count, so the load factor stays below 0.5 and linear
            // probes are short.
            let cap = (rows.len() * 2).next_power_of_two();
            let mask = (cap - 1) as u64;
            const EMPTY: u32 = u32::MAX;
            let mut slots = vec![EMPTY; cap];
            let mut keys: Vec<(u32, u64, u64)> = Vec::new();
            let mut reports: Vec<CostReport> = Vec::new();
            // Tile state from the previous miss; GA individuals iterate
            // layers in order, so consecutive misses often share it.
            let mut cur_tile = (u32::MAX, u64::MAX);
            let mut tile = TileEntry::default();
            for &qi in rows {
                let qi = qi as usize;
                let li = queries.layers[qi] as u32;
                let nums = &invariants.nums[li as usize];
                let point = queries.points[qi];
                // The kt clamp is the scalar path's
                // `point.tile().min(layer.k().max(1))`, hoisted into the
                // memo key so queries that only differ in an over-large
                // requested tile share an entry.
                let kt = point.tile().min(nums.k.max(1));
                let pes = point.num_pes();
                let key = (li, kt, pes);
                // Two-multiply mix; collisions are resolved by the key
                // compare below, so quality only affects probe length.
                let mut h = (li as u64)
                    ^ kt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ pes.wrapping_mul(0xD6E8_FEB8_6659_FD93);
                h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
                h ^= h >> 32;
                let mut idx = (h & mask) as usize;
                loop {
                    let slot = slots[idx];
                    if slot == EMPTY {
                        if (li, kt) != cur_tile {
                            let layer = &invariants.layers[li as usize];
                            let (d_outer, d_inner) = dataflow.parallel_extents(layer, kt);
                            let l1_bytes = dataflow.l1_bytes(layer, kt);
                            tile = TileEntry {
                                ktf: kt as f64,
                                k_groups: nums.k.div_ceil(kt) as f64,
                                d_outer,
                                d_inner,
                                l1_bytes,
                                l1_factor: l1_access_factor(l1_bytes),
                            };
                            cur_tile = (li, kt);
                        }
                        let mapping = MappingNums::new(&SpatialMapping::factor(
                            pes,
                            tile.d_outer,
                            tile.d_inner,
                        ));
                        let compute_cycles =
                            compute_cycles_from(nums, dataflow, tile.ktf, tile.k_groups, &mapping);
                        let traffic =
                            self.traffic_from(nums, dataflow, tile.ktf, tile.k_groups, &mapping);
                        let report = self.account_from(
                            nums,
                            pes as f64,
                            tile.l1_bytes,
                            tile.l1_factor,
                            mapping.noc_hops,
                            compute_cycles,
                            traffic,
                        );
                        slots[idx] = keys.len() as u32;
                        out[qi] = report.clone();
                        keys.push(key);
                        reports.push(report);
                        break;
                    }
                    if keys[slot as usize] == key {
                        out[qi] = reports[slot as usize].clone();
                        break;
                    }
                    idx = (idx + 1) & mask as usize;
                }
            }
            priced += keys.len();
        }
        priced
    }

    /// Allocating convenience wrapper around
    /// [`CostModel::evaluate_batch_into`].
    pub fn evaluate_batch(
        &self,
        invariants: &LayerInvariants,
        queries: &BatchQueries<'_>,
    ) -> Vec<CostReport> {
        let mut out = vec![CostReport::default(); queries.len()];
        self.evaluate_batch_into(invariants, queries, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers() -> Vec<Layer> {
        vec![
            Layer::conv2d("conv", 64, 32, 28, 28, 3, 3, 1).unwrap(),
            Layer::depthwise("dw", 96, 28, 28, 3, 3, 1).unwrap(),
            Layer::gemm("fc", 512, 64, 1024).unwrap(),
        ]
    }

    fn assert_reports_bit_equal(a: &CostReport, b: &CostReport, ctx: &str) {
        let pairs = [
            ("latency_cycles", a.latency_cycles, b.latency_cycles),
            ("compute_cycles", a.compute_cycles, b.compute_cycles),
            ("stall_cycles", a.stall_cycles, b.stall_cycles),
            ("energy_nj", a.energy_nj, b.energy_nj),
            ("mac_nj", a.energy.mac_nj, b.energy.mac_nj),
            ("l1_nj", a.energy.l1_nj, b.energy.l1_nj),
            ("l2_nj", a.energy.l2_nj, b.energy.l2_nj),
            ("dram_nj", a.energy.dram_nj, b.energy.dram_nj),
            ("noc_nj", a.energy.noc_nj, b.energy.noc_nj),
            ("area_um2", a.area_um2, b.area_um2),
            ("pe_um2", a.area.pe_um2, b.area.pe_um2),
            ("l1_um2", a.area.l1_um2, b.area.l1_um2),
            ("l2_um2", a.area.l2_um2, b.area.l2_um2),
            ("noc_um2", a.area.noc_um2, b.area.noc_um2),
            ("power_mw", a.power_mw, b.power_mw),
            ("utilization", a.utilization, b.utilization),
            ("l1_bytes_per_pe", a.l1_bytes_per_pe, b.l1_bytes_per_pe),
            ("l2_bytes", a.l2_bytes, b.l2_bytes),
            ("macs", a.macs, b.macs),
            ("dram_bytes", a.dram_bytes, b.dram_bytes),
            ("l2_traffic_bytes", a.l2_traffic_bytes, b.l2_traffic_bytes),
            (
                "noc_bw_bytes_per_cycle",
                a.noc_bw_bytes_per_cycle,
                b.noc_bw_bytes_per_cycle,
            ),
        ];
        for (field, x, y) in pairs {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: field {field} diverged ({x} vs {y})"
            );
        }
    }

    #[test]
    fn batch_is_bit_identical_to_scalar_oracle() {
        let model = CostModel::default();
        let layers = layers();
        let inv = LayerInvariants::new(&layers);
        let mut ls = Vec::new();
        let mut dfs = Vec::new();
        let mut pts = Vec::new();
        for li in 0..layers.len() {
            for df in Dataflow::ALL {
                for p in [1u64, 7, 64, 300, 4096] {
                    for kt in [1u64, 3, 12, 100] {
                        ls.push(li);
                        dfs.push(df);
                        pts.push(DesignPoint::new(p, kt).unwrap());
                    }
                }
            }
        }
        let batch = model.evaluate_batch(
            &inv,
            &BatchQueries {
                layers: &ls,
                dataflows: &dfs,
                points: &pts,
            },
        );
        for i in 0..ls.len() {
            let scalar = model.evaluate(&layers[ls[i]], dfs[i], pts[i]);
            assert_reports_bit_equal(
                &scalar,
                &batch[i],
                &format!("layer {} {} {:?}", ls[i], dfs[i], pts[i]),
            );
        }
    }

    #[test]
    fn duplicate_queries_share_memo_entries_and_results() {
        let model = CostModel::default();
        let layers = layers();
        let inv = LayerInvariants::new(&layers);
        let ls = vec![0usize; 64];
        let dfs = vec![Dataflow::EyerissStyle; 64];
        let pts = vec![DesignPoint::new(64, 4).unwrap(); 64];
        let mut batch = vec![CostReport::default(); 64];
        let priced = model.evaluate_batch_into(
            &inv,
            &BatchQueries {
                layers: &ls,
                dataflows: &dfs,
                points: &pts,
            },
            &mut batch,
        );
        assert_eq!(priced, 1, "64 copies of one query are one key");
        let scalar = model.evaluate(&layers[0], Dataflow::EyerissStyle, pts[0]);
        for (i, r) in batch.iter().enumerate() {
            assert_reports_bit_equal(&scalar, r, &format!("duplicate {i}"));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_layer_panics() {
        let model = CostModel::default();
        let inv = LayerInvariants::new(&layers());
        let ls = [99usize];
        let dfs = [Dataflow::NvdlaStyle];
        let pts = [DesignPoint::new(8, 2).unwrap()];
        model.evaluate_batch(
            &inv,
            &BatchQueries {
                layers: &ls,
                dataflows: &dfs,
                points: &pts,
            },
        );
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_soa_slices_panic() {
        let model = CostModel::default();
        let inv = LayerInvariants::new(&layers());
        let ls = [0usize, 1];
        let dfs = [Dataflow::NvdlaStyle];
        let pts = [
            DesignPoint::new(8, 2).unwrap(),
            DesignPoint::new(4, 1).unwrap(),
        ];
        model.evaluate_batch(
            &inv,
            &BatchQueries {
                layers: &ls,
                dataflows: &dfs,
                points: &pts,
            },
        );
    }
}
