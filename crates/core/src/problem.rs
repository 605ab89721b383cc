use std::sync::Arc;

use dnn_models::Model;
use maestro::{
    CostModel, CostOracle, CostReport, Dataflow, DesignPoint, EvalEngine, EvalQuery, EvalStats,
};

use crate::{
    ActionSpace, Assignment, ConstraintKind, Deployment, LayerAssignment, Objective, PlatformClass,
};

/// Queries per fused engine batch: big enough for the SoA kernel to pay
/// off, small enough to keep a batch's buffers cache-resident (see
/// [`HwProblem::evaluate_lp_batch`]).
pub(crate) const TARGET_QUERIES_PER_CHUNK: usize = 512;

/// The immutable body of a problem, shared by every [`HwProblem`] handle
/// cloned from the same build.
#[derive(Debug)]
struct ProblemCore {
    model: Model,
    /// Fixed dataflow; `None` = MIX mode (per-layer dataflow is part of the
    /// action space, §IV-D).
    dataflow: Option<Dataflow>,
    objective: Objective,
    constraint: ConstraintKind,
    platform: PlatformClass,
    deployment: Deployment,
    actions: ActionSpace,
    budget: f64,
    engine: EvalEngine,
}

/// A fully-specified HW resource-assignment problem instance: the inputs of
/// Fig. 3 (model, dataflow, objective, constraint, deployment scenario)
/// plus the cost model and coarse action space.
///
/// Construction goes through [`HwProblem::builder`]. All layer evaluations
/// flow through the problem's [`EvalEngine`]: batch entry points price
/// through its SoA kernel, singletons through the scalar model, and its
/// counters record the work.
///
/// `HwProblem` is a cheap-to-clone handle over an immutable, atomically
/// reference-counted body: clones share the model, budget, and engine
/// counters, so environments and runners can *own* a problem (no lifetime
/// ties to the stack frame that built it) while a long-lived registry —
/// the `confuciux-server` job table — holds another handle to the same
/// instance.
#[derive(Debug, Clone)]
pub struct HwProblem {
    core: Arc<ProblemCore>,
}

impl HwProblem {
    /// Starts building a problem for `model`.
    pub fn builder(model: Model) -> HwProblemBuilder {
        HwProblemBuilder {
            model,
            dataflow: Some(Dataflow::NvdlaStyle),
            objective: Objective::Latency,
            constraint: ConstraintKind::Area,
            platform: PlatformClass::Iot,
            deployment: Deployment::LayerPipelined,
            actions: ActionSpace::paper_default(),
            cost_model: CostModel::default(),
            budget_override: None,
        }
    }

    /// The target model.
    pub fn model(&self) -> &Model {
        &self.core.model
    }

    /// Fixed dataflow, or `None` in MIX mode.
    pub fn dataflow(&self) -> Option<Dataflow> {
        self.core.dataflow
    }

    /// Whether per-layer dataflow selection is part of the action space.
    pub fn is_mix(&self) -> bool {
        self.core.dataflow.is_none()
    }

    /// Optimization objective.
    pub fn objective(&self) -> Objective {
        self.core.objective
    }

    /// Constraint kind.
    pub fn constraint(&self) -> ConstraintKind {
        self.core.constraint
    }

    /// Platform class.
    pub fn platform(&self) -> PlatformClass {
        self.core.platform
    }

    /// Deployment scenario.
    pub fn deployment(&self) -> Deployment {
        self.core.deployment
    }

    /// Coarse action space.
    pub fn actions(&self) -> &ActionSpace {
        &self.core.actions
    }

    /// The constraint budget in the constraint's units (µm² or mW).
    pub fn budget(&self) -> f64 {
        self.core.budget
    }

    /// The evaluation engine every query of this problem goes through.
    pub fn engine(&self) -> &EvalEngine {
        &self.core.engine
    }

    /// Evaluates one layer on one design point.
    ///
    /// # Panics
    ///
    /// Panics if `layer_idx` is out of range.
    pub fn evaluate_layer(
        &self,
        layer_idx: usize,
        dataflow: Dataflow,
        point: DesignPoint,
    ) -> CostReport {
        self.core.engine.evaluate_query(EvalQuery {
            layer: layer_idx,
            dataflow,
            point,
        })
    }

    /// Evaluates a batch of `(layer, dataflow, point)` triples through the
    /// engine in one shot; entry `i` answers `queries[i]`. The batch is
    /// priced by the engine's SoA kernel (`CostModel::evaluate_batch_into`)
    /// — bit-identical to scalar evaluation, just much faster on batches
    /// that revisit layers, tiles or array sizes.
    ///
    /// # Panics
    ///
    /// Panics if any layer index is out of range.
    pub fn evaluate_layer_batch(
        &self,
        queries: &[(usize, Dataflow, DesignPoint)],
    ) -> Vec<CostReport> {
        let queries: Vec<EvalQuery> = queries
            .iter()
            .map(|&(layer, dataflow, point)| EvalQuery {
                layer,
                dataflow,
                point,
            })
            .collect();
        self.core.engine.evaluate_batch(&queries)
    }

    /// Evaluates a complete LP assignment: objective = Σ per-layer
    /// objective, constraint = Σ per-layer constraint (each pipeline stage
    /// owns its silicon). Returns `None` if the budget is violated.
    ///
    /// This singleton path is lazy: it stops issuing queries at the first
    /// layer that blows the budget. The search drivers call it to decode a
    /// recorded best. The RL environment never calls it: [`HwEnv`] keeps
    /// the same sums step by step, so a completed episode prices no layer
    /// twice.
    ///
    /// [`HwEnv`]: crate::HwEnv
    pub fn evaluate_lp(&self, layers: &[LayerAssignment]) -> Option<Assignment> {
        assert_eq!(
            layers.len(),
            self.core.model.len(),
            "LP assignments cover every layer"
        );
        let (cost, used) =
            self.lp_sum(layers.iter().enumerate().map(|(idx, la)| {
                self.layer_terms(&self.evaluate_layer(idx, la.dataflow, la.point))
            }))?;
        Some(Assignment {
            layers: layers.to_vec(),
            cost,
            constraint_used: used,
        })
    }

    /// One layer's `(objective, constraint)` terms from its cost report.
    pub(crate) fn layer_terms(&self, report: &CostReport) -> (f64, f64) {
        (
            self.core.objective.of(report),
            self.core.constraint.of(report),
        )
    }

    /// The LP sum over per-layer `(objective, constraint)` terms in layer
    /// order: `Some((objective, constraint used))`, or `None` as soon as
    /// the running constraint exceeds the budget. Every LP entry point
    /// sums through here, and the RL environment adds the same terms in
    /// the same order as it steps, so their costs agree bit for bit; a lazy
    /// `terms` iterator stops pricing at that layer.
    pub(crate) fn lp_sum(&self, terms: impl IntoIterator<Item = (f64, f64)>) -> Option<(f64, f64)> {
        let mut cost = 0.0;
        let mut used = 0.0;
        for (objective, constraint) in terms {
            cost += objective;
            used += constraint;
            if used > self.core.budget {
                return None;
            }
        }
        Some((cost, used))
    }

    /// Candidates per fused engine batch in the `*_batch` entry points.
    /// Chunking keeps each batch's transient buffers (query list, report
    /// list, the kernel's memo table) cache-resident: a fused batch over
    /// hundreds of candidates otherwise streams megabytes through memory
    /// and costs more per query than the serial path it replaces. A chunk
    /// carries at least [`TARGET_QUERIES_PER_CHUNK`] queries; the kernel
    /// dedups within a chunk, so the size also fixes how the engine's
    /// counters split a batch.
    fn batch_chunk_candidates(&self) -> usize {
        TARGET_QUERIES_PER_CHUNK
            .div_ceil(self.core.model.len().max(1))
            .max(1)
    }

    /// Batch form of [`Self::evaluate_lp`]: every candidate's per-layer
    /// queries are fused into cache-sized engine batches (a GA population
    /// of `P` candidates over an `n`-layer model becomes `P·n` queries,
    /// priced by the SoA batch kernel a few hundred at a time), then
    /// reassembled per candidate. Results are bit-identical to calling
    /// [`Self::evaluate_lp`] in a loop; the only difference is that
    /// infeasible candidates still price all their layers (the cost of
    /// dispatching a batch before any budget sum is known).
    ///
    /// The coarse baselines price through here. The fine stage does not:
    /// its children differ from their parents in a few layers, so it
    /// prices only those and re-sums the rest (see [`crate::fine_tune`]).
    ///
    /// # Panics
    ///
    /// Panics if any candidate does not cover every layer.
    pub fn evaluate_lp_batch(
        &self,
        candidates: &[Vec<LayerAssignment>],
    ) -> Vec<Option<Assignment>> {
        candidates
            .chunks(self.batch_chunk_candidates())
            .flat_map(|chunk| self.evaluate_lp_chunk(chunk))
            .collect()
    }

    fn evaluate_lp_chunk(&self, candidates: &[Vec<LayerAssignment>]) -> Vec<Option<Assignment>> {
        let mut queries = Vec::with_capacity(candidates.len() * self.core.model.len());
        for layers in candidates {
            assert_eq!(
                layers.len(),
                self.core.model.len(),
                "LP assignments cover every layer"
            );
            for (idx, la) in layers.iter().enumerate() {
                queries.push(EvalQuery {
                    layer: idx,
                    dataflow: la.dataflow,
                    point: la.point,
                });
            }
        }
        let reports = self.core.engine.evaluate_batch(&queries);
        candidates
            .iter()
            .zip(reports.chunks(self.core.model.len()))
            .map(|(layers, reports)| {
                let (cost, used) = self.lp_sum(reports.iter().map(|r| self.layer_terms(r)))?;
                Some(Assignment {
                    layers: layers.to_vec(),
                    cost,
                    constraint_used: used,
                })
            })
            .collect()
    }

    /// Evaluates an LS configuration: one design point shared by every
    /// layer; objective sums over layers, constraint is the worst-case
    /// single-layer consumption (the same silicon is reused). Returns
    /// `None` if the budget is violated.
    pub fn evaluate_ls(&self, dataflow: Dataflow, point: DesignPoint) -> Option<Assignment> {
        let mut cost = 0.0;
        let mut used: f64 = 0.0;
        for idx in 0..self.core.model.len() {
            let report = self.evaluate_layer(idx, dataflow, point);
            cost += self.core.objective.of(&report);
            used = used.max(self.core.constraint.of(&report));
        }
        if used > self.core.budget {
            return None;
        }
        Some(Assignment {
            layers: vec![LayerAssignment { dataflow, point }],
            cost,
            constraint_used: used,
        })
    }

    /// Batch form of [`Self::evaluate_ls`]: all configurations' per-layer
    /// queries run as fused, cache-sized engine batches priced by the SoA
    /// batch kernel. Results are bit-identical to calling
    /// [`Self::evaluate_ls`] in a loop.
    pub fn evaluate_ls_batch(
        &self,
        configs: &[(Dataflow, DesignPoint)],
    ) -> Vec<Option<Assignment>> {
        configs
            .chunks(self.batch_chunk_candidates())
            .flat_map(|chunk| self.evaluate_ls_chunk(chunk))
            .collect()
    }

    fn evaluate_ls_chunk(&self, configs: &[(Dataflow, DesignPoint)]) -> Vec<Option<Assignment>> {
        let n = self.core.model.len();
        let mut queries = Vec::with_capacity(configs.len() * n);
        for &(dataflow, point) in configs {
            for idx in 0..n {
                queries.push(EvalQuery {
                    layer: idx,
                    dataflow,
                    point,
                });
            }
        }
        let reports = self.core.engine.evaluate_batch(&queries);
        configs
            .iter()
            .zip(reports.chunks(n))
            .map(|(&(dataflow, point), reports)| {
                let mut cost = 0.0;
                let mut used: f64 = 0.0;
                for report in reports {
                    cost += self.core.objective.of(report);
                    used = used.max(self.core.constraint.of(report));
                }
                if used > self.core.budget {
                    return None;
                }
                Some(Assignment {
                    layers: vec![LayerAssignment { dataflow, point }],
                    cost,
                    constraint_used: used,
                })
            })
            .collect()
    }

    /// Per-layer constraint consumption for one assignment.
    pub fn layer_constraint(&self, layer_idx: usize, la: LayerAssignment) -> f64 {
        self.core
            .constraint
            .of(&self.evaluate_layer(layer_idx, la.dataflow, la.point))
    }

    /// Per-layer objective cost for one assignment.
    pub fn layer_cost(&self, layer_idx: usize, la: LayerAssignment) -> f64 {
        self.core
            .objective
            .of(&self.evaluate_layer(layer_idx, la.dataflow, la.point))
    }

    /// Measures `C_max` per Table II: the constraint consumption of the
    /// whole model at the uniform maximum action pair, as one engine batch.
    fn measure_c_max(
        engine: &EvalEngine,
        dataflow: Option<Dataflow>,
        constraint: ConstraintKind,
        deployment: Deployment,
        actions: &ActionSpace,
    ) -> f64 {
        let (max_pe, max_tile) = actions.max_pair();
        let point = DesignPoint::new(max_pe, max_tile).expect("max pair is valid");
        let df = dataflow.unwrap_or(Dataflow::NvdlaStyle);
        let queries: Vec<EvalQuery> = (0..engine.layers().len())
            .map(|layer| EvalQuery {
                layer,
                dataflow: df,
                point,
            })
            .collect();
        let reports = engine.evaluate_batch(&queries);
        let per_layer = reports.iter().map(|r| constraint.of(r));
        match deployment {
            Deployment::LayerPipelined => per_layer.sum(),
            Deployment::LayerSequential => per_layer.fold(0.0, f64::max),
        }
    }

    /// Observation-normalization bounds: max of each layer-shape dimension
    /// across the model.
    pub fn shape_maxima(&self) -> [f64; 6] {
        let mut m = [1.0f64; 6];
        for l in self.core.model.layers() {
            m[0] = m[0].max(l.k() as f64);
            m[1] = m[1].max(l.c() as f64);
            m[2] = m[2].max(l.y() as f64);
            m[3] = m[3].max(l.x() as f64);
            m[4] = m[4].max(l.r() as f64);
            m[5] = m[5].max(l.s() as f64);
        }
        m
    }

    /// Cumulative engine hit/miss counters (observability; snapshot with
    /// [`EvalStats::since`] to report per-run deltas).
    pub fn eval_stats(&self) -> EvalStats {
        self.core.engine.stats()
    }
}

/// Builder for [`HwProblem`] (see [`HwProblem::builder`]).
#[derive(Debug, Clone)]
pub struct HwProblemBuilder {
    model: Model,
    dataflow: Option<Dataflow>,
    objective: Objective,
    constraint: ConstraintKind,
    platform: PlatformClass,
    deployment: Deployment,
    actions: ActionSpace,
    cost_model: CostModel,
    budget_override: Option<f64>,
}

impl HwProblemBuilder {
    /// Fixes the dataflow style (default NVDLA-style).
    pub fn dataflow(mut self, df: Dataflow) -> Self {
        self.dataflow = Some(df);
        self
    }

    /// Enables MIX mode: the agent picks a dataflow per layer (§IV-D).
    pub fn mix_dataflow(mut self) -> Self {
        self.dataflow = None;
        self
    }

    /// Sets the objective (default latency).
    pub fn objective(mut self, o: Objective) -> Self {
        self.objective = o;
        self
    }

    /// Sets the constraint kind and platform class (default area / IoT).
    pub fn constraint(mut self, kind: ConstraintKind, platform: PlatformClass) -> Self {
        self.constraint = kind;
        self.platform = platform;
        self
    }

    /// Sets the deployment scenario (default LP).
    pub fn deployment(mut self, d: Deployment) -> Self {
        self.deployment = d;
        self
    }

    /// Sets the coarse action space (default Table I's 12 levels).
    pub fn actions(mut self, a: ActionSpace) -> Self {
        self.actions = a;
        self
    }

    /// Sets the cost model (default technology constants).
    pub fn cost_model(mut self, m: CostModel) -> Self {
        self.cost_model = m;
        self
    }

    /// Overrides the constraint budget with an absolute value (Table VIII's
    /// FPGA device limits).
    pub fn budget_override(mut self, budget: f64) -> Self {
        self.budget_override = Some(budget);
        self
    }

    /// Finalizes the problem, measuring `C_max` and deriving the budget.
    pub fn build(self) -> HwProblem {
        let engine = EvalEngine::new(self.cost_model, self.model.layers().to_vec());
        let c_max = HwProblem::measure_c_max(
            &engine,
            self.dataflow,
            self.constraint,
            self.deployment,
            &self.actions,
        );
        let budget = self
            .budget_override
            .unwrap_or(c_max * self.platform.fraction());
        HwProblem {
            core: Arc::new(ProblemCore {
                model: self.model,
                dataflow: self.dataflow,
                objective: self.objective,
                constraint: self.constraint,
                platform: self.platform,
                deployment: self.deployment,
                actions: self.actions,
                budget,
                engine,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_problem(platform: PlatformClass) -> HwProblem {
        HwProblem::builder(dnn_models::tiny_cnn())
            .dataflow(Dataflow::NvdlaStyle)
            .objective(Objective::Latency)
            .constraint(ConstraintKind::Area, platform)
            .deployment(Deployment::LayerPipelined)
            .build()
    }

    #[test]
    fn budgets_scale_with_platform_class() {
        let unlimited = tiny_problem(PlatformClass::Unlimited).budget();
        let cloud = tiny_problem(PlatformClass::Cloud).budget();
        let iot = tiny_problem(PlatformClass::Iot).budget();
        let iotx = tiny_problem(PlatformClass::IotX).budget();
        assert!((cloud / unlimited - 0.5).abs() < 1e-9);
        assert!((iot / unlimited - 0.1).abs() < 1e-9);
        assert!((iotx / unlimited - 0.05).abs() < 1e-9);
    }

    #[test]
    fn unlimited_accepts_the_max_pair() {
        let p = tiny_problem(PlatformClass::Unlimited);
        let (pe, tile) = p.actions().max_pair();
        let point = DesignPoint::new(pe, tile).unwrap();
        let layers: Vec<LayerAssignment> = (0..p.model().len())
            .map(|_| LayerAssignment {
                dataflow: Dataflow::NvdlaStyle,
                point,
            })
            .collect();
        assert!(p.evaluate_lp(&layers).is_some(), "C_max must be feasible");
    }

    #[test]
    fn iotx_rejects_the_max_pair() {
        let p = tiny_problem(PlatformClass::IotX);
        let (pe, tile) = p.actions().max_pair();
        let point = DesignPoint::new(pe, tile).unwrap();
        let layers: Vec<LayerAssignment> = (0..p.model().len())
            .map(|_| LayerAssignment {
                dataflow: Dataflow::NvdlaStyle,
                point,
            })
            .collect();
        assert!(p.evaluate_lp(&layers).is_none());
    }

    #[test]
    fn minimum_pair_is_feasible_even_on_iotx() {
        // One PE and one tile per layer must fit every platform class,
        // otherwise the search problem would be vacuous.
        let p = tiny_problem(PlatformClass::IotX);
        let point = DesignPoint::new(1, 1).unwrap();
        let layers: Vec<LayerAssignment> = (0..p.model().len())
            .map(|_| LayerAssignment {
                dataflow: Dataflow::NvdlaStyle,
                point,
            })
            .collect();
        assert!(p.evaluate_lp(&layers).is_some());
    }

    #[test]
    fn ls_constraint_is_worst_layer_not_sum() {
        let p = HwProblem::builder(dnn_models::tiny_cnn())
            .deployment(Deployment::LayerSequential)
            .constraint(ConstraintKind::Area, PlatformClass::Unlimited)
            .build();
        let point = DesignPoint::new(8, 2).unwrap();
        let a = p.evaluate_ls(Dataflow::NvdlaStyle, point).unwrap();
        let per_layer_max = (0..p.model().len())
            .map(|i| {
                p.layer_constraint(
                    i,
                    LayerAssignment {
                        dataflow: Dataflow::NvdlaStyle,
                        point,
                    },
                )
            })
            .fold(0.0, f64::max);
        assert!((a.constraint_used - per_layer_max).abs() < 1e-9);
    }

    #[test]
    fn budget_override_wins() {
        let p = HwProblem::builder(dnn_models::tiny_cnn())
            .budget_override(123.0)
            .build();
        assert_eq!(p.budget(), 123.0);
    }

    #[test]
    fn repeated_evaluation_is_priced_afresh() {
        let p = tiny_problem(PlatformClass::Unlimited);
        let point = DesignPoint::new(4, 2).unwrap();
        let before = p.eval_stats();
        let a = p.evaluate_layer(0, Dataflow::NvdlaStyle, point);
        let b = p.evaluate_layer(0, Dataflow::NvdlaStyle, point);
        assert_eq!(a, b);
        // No memo: each singleton is one kernel evaluation, one miss.
        let delta = p.eval_stats().since(before);
        assert_eq!((delta.hits, delta.misses), (0, 2));
    }

    #[test]
    fn clones_share_one_engine() {
        let p = tiny_problem(PlatformClass::Iot);
        let q = p.clone();
        let before = p.eval_stats();
        let point = DesignPoint::new(5, 3).unwrap();
        let a = q.evaluate_layer(0, Dataflow::EyerissStyle, point);
        // The clone's query is counted on the original's engine.
        let delta = p.eval_stats().since(before);
        assert_eq!((delta.hits, delta.misses), (0, 1));
        let b = p.evaluate_layer(0, Dataflow::EyerissStyle, point);
        assert_eq!(a, b);
        assert_eq!(q.eval_stats(), p.eval_stats());
    }
}
