use std::time::{Duration, Instant};

use maestro::{CostOracle, Dataflow, DesignPoint, EvalQuery, EvalStats};
use opt_methods::{
    BatchEval, BayesianOpt, FineCursor, FineCursorState, FineSpace, GeneticAlgorithm, GridSearch,
    LocalGa, LocalGaConfig, Optimizer, RandomSearch, SearchSpace, SimulatedAnnealing,
};
use rl_core::{
    A2c, A2cConfig, Acktr, AcktrConfig, Agent, Ddpg, DdpgConfig, Env, PolicyBackboneKind, Ppo,
    PpoConfig, Reinforce, ReinforceConfig, Sac, SacConfig, Td3, Td3Config,
};
use serde::{Deserialize, Serialize};
use tinynn::{Rng, SeedableRng};

use crate::problem::TARGET_QUERIES_PER_CHUNK;
use crate::{
    Assignment, Deployment, HwEnv, HwProblem, LayerAssignment, RewardConfig, SearchError, VecHwEnv,
};

/// The RL algorithms compared in Table V, plus the MLP-backbone variant of
/// the paper's agent (Table IX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// ConfuciuX's agent: REINFORCE with an RNN policy.
    Reinforce,
    /// REINFORCE with an MLP policy (Table IX ablation).
    ReinforceMlp,
    /// Advantage actor-critic.
    A2c,
    /// ACKTR-style natural-gradient actor-critic.
    Acktr,
    /// PPO2 (clipped surrogate).
    Ppo2,
    /// DDPG (continuous, binned actions).
    Ddpg,
    /// SAC (continuous, binned actions).
    Sac,
    /// TD3 (continuous, binned actions).
    Td3,
}

impl AlgorithmKind {
    /// All algorithms in Table V order (Con'X last).
    pub const TABLE5: [AlgorithmKind; 7] = [
        AlgorithmKind::A2c,
        AlgorithmKind::Acktr,
        AlgorithmKind::Ppo2,
        AlgorithmKind::Ddpg,
        AlgorithmKind::Sac,
        AlgorithmKind::Td3,
        AlgorithmKind::Reinforce,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::Reinforce => "Con'X (global)",
            AlgorithmKind::ReinforceMlp => "Con'X-MLP (global)",
            AlgorithmKind::A2c => "A2C",
            AlgorithmKind::Acktr => "ACKTR",
            AlgorithmKind::Ppo2 => "PPO2",
            AlgorithmKind::Ddpg => "DDPG",
            AlgorithmKind::Sac => "SAC",
            AlgorithmKind::Td3 => "TD3",
        }
    }
}

/// The classical baselines of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Coarse-stride lattice enumeration.
    Grid,
    /// Uniform random sampling.
    Random,
    /// Simulated annealing.
    SimulatedAnnealing,
    /// Generic genetic algorithm.
    Genetic,
    /// GP-surrogate Bayesian optimization.
    Bayesian,
}

impl BaselineKind {
    /// All baselines in Table IV column order.
    pub const TABLE4: [BaselineKind; 5] = [
        BaselineKind::Grid,
        BaselineKind::Random,
        BaselineKind::SimulatedAnnealing,
        BaselineKind::Genetic,
        BaselineKind::Bayesian,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineKind::Grid => "Grid",
            BaselineKind::Random => "Random",
            BaselineKind::SimulatedAnnealing => "SA",
            BaselineKind::Genetic => "GA",
            BaselineKind::Bayesian => "Bayes.Opt.",
        }
    }
}

/// Search budget, in epochs (one full-model evaluation per epoch for both
/// RL agents and classical baselines, keeping comparisons fair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchBudget {
    /// Number of epochs (the paper uses 5,000; harness defaults are
    /// smaller for runtime, see DESIGN.md).
    pub epochs: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget { epochs: 500 }
    }
}

/// Result of one global-search run (RL agent or classical baseline).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlSearchResult {
    /// Method name.
    pub algorithm: String,
    /// Best feasible assignment found.
    pub best: Option<Assignment>,
    /// Best-so-far objective per epoch (`inf` until first feasible).
    pub trace: Vec<f64>,
    /// First feasible cost encountered (Table VII's "initial valid value").
    pub initial_valid_cost: Option<f64>,
    /// Epochs until the best-so-far came within 10% of the final best.
    pub epochs_to_converge: Option<usize>,
    /// Wall-clock time spent in the search's own calls. For an RL search
    /// these are its rollout rounds: time between rounds is not counted.
    pub wall_time: Duration,
    /// Trainable scalar parameters (0 for classical baselines).
    pub param_count: usize,
    /// Evaluation-engine counters for this run (in-batch copies vs.
    /// computed reports), so pricing work is measurable per method.
    pub eval_stats: EvalStats,
}

impl RlSearchResult {
    /// Best cost if a feasible solution was found.
    pub fn best_cost(&self) -> Option<f64> {
        self.best.as_ref().map(|a| a.cost)
    }

    fn finish(mut self) -> Self {
        self.epochs_to_converge = self.best_cost().and_then(|best| {
            let target = best * 1.1;
            self.trace.iter().position(|&c| c <= target).map(|i| i + 1)
        });
        self
    }
}

/// Constructs an agent of the given kind sized for `env`.
pub fn make_agent(kind: AlgorithmKind, env: &HwEnv, rng: &mut Rng) -> Box<dyn Agent> {
    let obs = env.obs_dim();
    let dims = env.action_dims();
    match kind {
        AlgorithmKind::Reinforce => {
            Box::new(Reinforce::new(obs, dims, ReinforceConfig::default(), rng))
        }
        AlgorithmKind::ReinforceMlp => Box::new(Reinforce::new(
            obs,
            dims,
            ReinforceConfig {
                backbone: PolicyBackboneKind::Mlp,
                ..ReinforceConfig::default()
            },
            rng,
        )),
        AlgorithmKind::A2c => Box::new(A2c::new(obs, dims, A2cConfig::default(), rng)),
        AlgorithmKind::Acktr => Box::new(Acktr::new(obs, dims, AcktrConfig::default(), rng)),
        AlgorithmKind::Ppo2 => Box::new(Ppo::new(obs, dims, PpoConfig::default(), rng)),
        AlgorithmKind::Ddpg => Box::new(Ddpg::new(obs, dims, DdpgConfig::default(), rng)),
        AlgorithmKind::Sac => Box::new(Sac::new(obs, dims, SacConfig::default(), rng)),
        AlgorithmKind::Td3 => Box::new(Td3::new(obs, dims, Td3Config::default(), rng)),
    }
}

/// Runs one RL global search (§III stage 1) and reports the best feasible
/// assignment with its convergence trace: [`run_rl_search_vec`] with one
/// replica.
pub fn run_rl_search(
    problem: &HwProblem,
    kind: AlgorithmKind,
    budget: SearchBudget,
    seed: u64,
) -> RlSearchResult {
    run_rl_search_vec(problem, kind, budget, seed, 1)
}

/// [`run_rl_search`] with vectorized rollouts: `n_envs` replicas of the
/// environment run in lockstep so every synchronized step prices its
/// cost queries as one engine batch (see [`VecHwEnv`]).
///
/// Determinism contract: replica `i` is driven by its own RNG stream
/// derived from `seed`, so the result is a pure function of
/// `(seed, n_envs)`. The epoch budget is spent exactly: a final partial
/// round runs with fewer live replicas if `epochs` is not a multiple of
/// `n_envs`.
pub fn run_rl_search_vec(
    problem: &HwProblem,
    kind: AlgorithmKind,
    budget: SearchBudget,
    seed: u64,
    n_envs: usize,
) -> RlSearchResult {
    run_rl_search_vec_with_reward(problem, kind, budget, seed, RewardConfig::default(), n_envs)
}

/// [`run_rl_search_vec`] with custom reward shaping.
pub fn run_rl_search_vec_with_reward(
    problem: &HwProblem,
    kind: AlgorithmKind,
    budget: SearchBudget,
    seed: u64,
    reward: RewardConfig,
    n_envs: usize,
) -> RlSearchResult {
    let mut run = RlVecRun::new(problem, kind, budget, seed, reward, n_envs);
    while run.step_round() {}
    run.finish()
}

/// In-flight state of a vectorized RL search: [`run_rl_search_vec`]
/// re-expressed as a resumable stepper. One [`RlVecRun::step_round`] call
/// runs one synchronized rollout round (`min(n_envs, remaining)` epochs),
/// which is also the checkpoint granularity of the global stage.
///
/// A run interrupted with [`RlVecRun::checkpoint`] and rebuilt with
/// [`RlVecRun::resume`] continues the exact RNG streams and agent weights,
/// so best/trace/initial-valid are bit-identical to the uninterrupted run;
/// wall time and engine counters are accumulated across segments.
/// Wall time counts only the rounds themselves, so a run left waiting
/// between rounds does not count the wait.
struct RlVecRun {
    n_envs: usize,
    venv: VecHwEnv,
    agent: Box<dyn Agent>,
    rngs: Vec<Rng>,
    result: RlSearchResult,
    remaining: usize,
    /// Engine counters at the start of the current process segment.
    stats_base: EvalStats,
    /// Engine counters carried over from pre-resume segments.
    stats_accum: EvalStats,
    /// Time spent inside `step_round`, summed across segments.
    wall: Duration,
}

impl RlVecRun {
    fn new(
        problem: &HwProblem,
        kind: AlgorithmKind,
        budget: SearchBudget,
        seed: u64,
        reward: RewardConfig,
        n_envs: usize,
    ) -> Self {
        let n_envs = n_envs.max(1);
        let mut rng = Rng::seed_from_u64(seed);
        let venv = VecHwEnv::with_reward(problem, reward, n_envs);
        let agent = make_agent(kind, venv.env(0), &mut rng);
        // One RNG stream per replica. Replica 0 continues the construction
        // stream. Higher replicas get independent SplitMix-salted streams
        // derived from the same seed (never drawn from the main stream,
        // which would perturb replica 0).
        let mut rngs: Vec<Rng> = Vec::with_capacity(n_envs);
        rngs.push(rng);
        for i in 1..n_envs as u64 {
            rngs.push(Rng::seed_from_u64(
                seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ));
        }
        let stats_base = problem.eval_stats();
        let result = RlSearchResult {
            algorithm: kind.name().to_string(),
            best: None,
            trace: Vec::with_capacity(budget.epochs),
            initial_valid_cost: None,
            epochs_to_converge: None,
            wall_time: Duration::ZERO,
            param_count: agent.param_count(),
            eval_stats: EvalStats::default(),
        };
        RlVecRun {
            n_envs,
            venv,
            agent,
            rngs,
            result,
            remaining: budget.epochs,
            stats_base,
            stats_accum: EvalStats::default(),
            wall: Duration::ZERO,
        }
    }

    /// Rebuilds a run from a [`GlobalStageState`], positioned exactly where
    /// [`RlVecRun::checkpoint`] left off: a fresh [`RlVecRun::new`] (same
    /// architecture, same construction-RNG draws) overlaid with the
    /// checkpointed reward states, agent, streams, best, trace, counters
    /// and wall time. A state that does not fit the run is a
    /// [`SearchError::Format`].
    fn resume(
        problem: &HwProblem,
        kind: AlgorithmKind,
        budget: SearchBudget,
        seed: u64,
        reward: RewardConfig,
        n_envs: usize,
        state: &GlobalStageState,
    ) -> Result<Self, SearchError> {
        let n_envs = n_envs.max(1);
        if state.rng_states.len() != n_envs {
            return Err(SearchError::Format(format!(
                "checkpoint has {} RNG streams but n_envs is {n_envs}",
                state.rng_states.len()
            )));
        }
        if state.trace_bits.len() > budget.epochs {
            return Err(SearchError::Format(format!(
                "checkpoint already spent {} epochs of a {}-epoch budget",
                state.trace_bits.len(),
                budget.epochs
            )));
        }
        if state.env_reward_state_bits.len() != n_envs {
            return Err(SearchError::Format(format!(
                "checkpoint has {} replica reward states but n_envs is {n_envs}",
                state.env_reward_state_bits.len()
            )));
        }
        if let Some(best) = &state.best {
            check_fits(problem, best, "best")?;
        }
        let mut run = Self::new(problem, kind, budget, seed, reward, n_envs);
        let reward_states: Vec<f64> = state
            .env_reward_state_bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect();
        run.venv.restore_reward_states(&reward_states);
        run.agent
            .load_state(&state.agent)
            .map_err(SearchError::Format)?;
        run.rngs = state
            .rng_states
            .iter()
            .map(|&s| Rng::from_state(s))
            .collect();
        run.result.best = state.best.clone();
        run.result.trace = state
            .trace_bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect();
        run.result.initial_valid_cost = state.initial_valid_cost_bits.map(f64::from_bits);
        run.remaining = budget.epochs - run.result.trace.len();
        run.stats_accum = state.eval_stats;
        run.wall = Duration::from_nanos(state.wall_nanos);
        Ok(run)
    }

    /// Runs one vectorized rollout round. Returns `true` while epochs
    /// remain after the round.
    fn step_round(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let start = Instant::now();
        let k = self.n_envs.min(self.remaining);
        let reports = self
            .agent
            .train_epochs_vec(&mut self.venv, &mut self.rngs[..k]);
        for (i, report) in reports.iter().enumerate() {
            // A NaN cost is treated as infeasible: it can neither seed the
            // initial-valid metric nor become `best`.
            if let Some(cost) = report.feasible_cost.filter(|c| !c.is_nan()) {
                if self.result.initial_valid_cost.is_none() {
                    self.result.initial_valid_cost = Some(cost);
                }
                let improved = self.result.best.as_ref().is_none_or(|b| cost < b.cost);
                if improved {
                    self.result.best = self.venv.last_outcome(i).cloned();
                }
            }
            self.result
                .trace
                .push(self.result.best.as_ref().map_or(f64::INFINITY, |b| b.cost));
        }
        self.remaining -= k;
        self.wall += start.elapsed();
        self.remaining > 0
    }

    fn epochs_done(&self) -> usize {
        self.result.trace.len()
    }

    /// Engine counters for the whole run so far, across all segments.
    fn stats_so_far(&self) -> EvalStats {
        self.stats_accum
            .plus(self.venv.problem().eval_stats().since(self.stats_base))
    }

    /// Captures everything needed to continue this run bit-identically.
    /// Errors for agents without [`Agent::save_state`] support.
    fn checkpoint(&self) -> Result<GlobalStageState, SearchError> {
        let agent = self.agent.save_state().ok_or_else(|| {
            SearchError::Unsupported(format!(
                "{} does not support checkpointing",
                self.result.algorithm
            ))
        })?;
        Ok(GlobalStageState {
            rng_states: self.rngs.iter().map(|r| r.state()).collect(),
            env_reward_state_bits: self
                .venv
                .reward_states()
                .iter()
                .map(|s| s.to_bits())
                .collect(),
            agent,
            best: self.result.best.clone(),
            trace_bits: self.result.trace.iter().map(|c| c.to_bits()).collect(),
            initial_valid_cost_bits: self.result.initial_valid_cost.map(f64::to_bits),
            wall_nanos: self.wall.as_nanos() as u64,
            eval_stats: self.stats_so_far(),
        })
    }

    fn finish(mut self) -> RlSearchResult {
        self.result.wall_time = self.wall;
        self.result.eval_stats = self.stats_so_far();
        self.result.finish()
    }

    /// Best-so-far snapshot of the stage without consuming the run — what
    /// a deadline-stopped job reports. Same bookkeeping as
    /// [`RlVecRun::finish`], applied to a clone of the state so far.
    fn partial_result(&self) -> RlSearchResult {
        let mut result = self.result.clone();
        result.wall_time = self.wall;
        result.eval_stats = self.stats_so_far();
        result.finish()
    }
}

/// Decodes a coarse LP genome into per-layer assignments (no evaluation).
fn decode_lp_layers(problem: &HwProblem, genome: &[usize]) -> Vec<LayerAssignment> {
    let space = problem.actions();
    let per_layer = if problem.is_mix() { 3 } else { 2 };
    genome
        .chunks(per_layer)
        .map(|chunk| {
            let dataflow = if problem.is_mix() {
                Dataflow::from_index(chunk[2]).expect("df gene in range")
            } else {
                problem.dataflow().expect("fixed dataflow")
            };
            LayerAssignment {
                dataflow,
                point: DesignPoint::new(space.pe(chunk[0]), space.tile(chunk[1]))
                    .expect("levels positive"),
            }
        })
        .collect()
}

/// Decodes a coarse LS genome into its uniform configuration.
fn decode_ls_config(problem: &HwProblem, genome: &[usize]) -> (Dataflow, DesignPoint) {
    let space = problem.actions();
    let dataflow = if problem.is_mix() {
        Dataflow::from_index(genome[2]).expect("df gene in range")
    } else {
        problem.dataflow().expect("fixed dataflow")
    };
    let point = DesignPoint::new(space.pe(genome[0]), space.tile(genome[1])).expect("positive");
    (dataflow, point)
}

/// Batched coarse-genome objective: decodes a whole population and prices
/// it through the problem's evaluation engine in one fused batch.
struct CoarseBatchObjective<'a> {
    problem: &'a HwProblem,
}

impl BatchEval<usize> for CoarseBatchObjective<'_> {
    fn eval_batch(&mut self, genomes: &[Vec<usize>]) -> Vec<Option<f64>> {
        match self.problem.deployment() {
            Deployment::LayerPipelined => {
                let candidates: Vec<Vec<LayerAssignment>> = genomes
                    .iter()
                    .map(|g| decode_lp_layers(self.problem, g))
                    .collect();
                self.problem
                    .evaluate_lp_batch(&candidates)
                    .into_iter()
                    .map(|a| a.map(|a| a.cost))
                    .collect()
            }
            Deployment::LayerSequential => {
                let configs: Vec<(Dataflow, DesignPoint)> = genomes
                    .iter()
                    .map(|g| decode_ls_config(self.problem, g))
                    .collect();
                self.problem
                    .evaluate_ls_batch(&configs)
                    .into_iter()
                    .map(|a| a.map(|a| a.cost))
                    .collect()
            }
        }
    }
}

/// Runs one classical baseline over the same design space and budget.
pub fn run_baseline(
    problem: &HwProblem,
    kind: BaselineKind,
    budget: SearchBudget,
    seed: u64,
) -> RlSearchResult {
    let mut rng = Rng::seed_from_u64(seed);
    let levels = problem.actions().levels();
    let n = problem.model().len();
    let genes = match problem.deployment() {
        Deployment::LayerPipelined => {
            if problem.is_mix() {
                3 * n
            } else {
                2 * n
            }
        }
        Deployment::LayerSequential => {
            if problem.is_mix() {
                3
            } else {
                2
            }
        }
    };
    let mut dims = Vec::with_capacity(genes);
    let per_layer = if problem.is_mix() { 3 } else { 2 };
    for g in 0..genes {
        dims.push(if g % per_layer == 2 { 3 } else { levels });
    }
    let space = SearchSpace::new(dims);
    let mut eval = CoarseBatchObjective { problem };
    let stats_at_start = problem.eval_stats();
    let start = Instant::now();
    let outcome = match kind {
        BaselineKind::Grid => {
            GridSearch::default().run_batch(&space, budget.epochs, &mut eval, &mut rng)
        }
        BaselineKind::Random => RandomSearch.run_batch(&space, budget.epochs, &mut eval, &mut rng),
        BaselineKind::SimulatedAnnealing => {
            SimulatedAnnealing::default().run_batch(&space, budget.epochs, &mut eval, &mut rng)
        }
        BaselineKind::Genetic => {
            GeneticAlgorithm::default().run_batch(&space, budget.epochs, &mut eval, &mut rng)
        }
        BaselineKind::Bayesian => {
            // Cap the GP budget: its per-iteration cost is cubic, and the
            // paper's own runs show BO spending far longer per sample.
            let bo_budget = budget.epochs.min(400);
            BayesianOpt::default().run_batch(&space, bo_budget, &mut eval, &mut rng)
        }
    };
    let wall_time = start.elapsed();
    let best = outcome
        .best
        .as_ref()
        .and_then(|(genome, _)| decode_coarse(problem, genome));
    let initial_valid_cost = outcome.trace.iter().find(|c| c.is_finite()).copied();
    RlSearchResult {
        algorithm: kind.name().to_string(),
        best,
        trace: outcome.trace,
        initial_valid_cost,
        epochs_to_converge: None,
        wall_time,
        param_count: 0,
        eval_stats: problem.eval_stats().since(stats_at_start),
    }
    .finish()
}

/// Decodes a coarse genome (level indices) into an evaluated assignment.
fn decode_coarse(problem: &HwProblem, genome: &[usize]) -> Option<Assignment> {
    match problem.deployment() {
        Deployment::LayerPipelined => problem.evaluate_lp(&decode_lp_layers(problem, genome)),
        Deployment::LayerSequential => {
            let (dataflow, point) = decode_ls_config(problem, genome);
            problem.evaluate_ls(dataflow, point)
        }
    }
}

/// Result of the second-stage fine-tuning (§III-G).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FineTuneResult {
    /// Best assignment after fine-tuning.
    pub best: Option<Assignment>,
    /// Best-so-far trace per evaluation.
    pub trace: Vec<f64>,
    /// Evaluations spent.
    pub evaluations: usize,
    /// Wall-clock time spent inside the stage's own calls: the initial
    /// population's pricing and each GA generation.
    pub wall_time: Duration,
    /// Evaluation-engine counters for the fine stage.
    pub eval_stats: EvalStats,
}

/// Decodes a fine genome (interleaved PE count / tile pairs) into
/// per-layer assignments under the fixed per-layer dataflows.
fn decode_fine_layers(genome: &[i64], dataflows: &[Dataflow]) -> Vec<LayerAssignment> {
    genome
        .chunks(2)
        .zip(dataflows)
        .map(|(chunk, &dataflow)| LayerAssignment {
            dataflow,
            point: DesignPoint::new(chunk[0] as u64, chunk[1] as u64).expect("bounds start at 1"),
        })
        .collect()
}

/// Batched fine-genome objective for the local GA.
///
/// Under LP, the terms of an individual are its per-layer `(objective,
/// constraint)` pairs, interleaved. A child starts from a copy of its
/// parent's terms and reprices only the layers whose two genes differ from
/// the parent's; the changed layers of a whole generation go to the engine
/// together, [`TARGET_QUERIES_PER_CHUNK`] queries at a time. Every term is
/// filled, also past the layer where an infeasible sum stops, because the
/// children of an infeasible parent need them. The cost is then the LP sum
/// of all `n` terms in layer order ([`HwProblem::lp_sum`]): the same f64
/// terms and additions as [`HwProblem::evaluate_lp`], so the same bits.
///
/// LS genomes are one shared design point, so each is priced whole by
/// [`HwProblem::evaluate_ls_batch`] and carries no terms.
struct FineBatchObjective {
    problem: HwProblem,
    dataflows: Vec<Dataflow>,
}

impl FineBatchObjective {
    fn price_lp(
        &self,
        children: &[Vec<i64>],
        parents: &[(&[i64], &[f64])],
    ) -> Vec<(Option<f64>, Vec<f64>)> {
        let n = self.dataflows.len();
        let mut terms: Vec<Vec<f64>> = Vec::with_capacity(children.len());
        // (child, layer) of every layer to price.
        let mut changed: Vec<(usize, usize)> = Vec::new();
        for (c, (child, &(parent, parent_terms))) in children.iter().zip(parents).enumerate() {
            assert_eq!(child.len(), 2 * n, "fine genomes carry two genes per layer");
            if parent_terms.is_empty() {
                terms.push(vec![0.0; 2 * n]);
                changed.extend((0..n).map(|layer| (c, layer)));
            } else {
                assert_eq!(parent_terms.len(), 2 * n, "two terms per layer");
                terms.push(parent_terms.to_vec());
                changed.extend(
                    (0..n)
                        .filter(|&l| child[2 * l..2 * l + 2] != parent[2 * l..2 * l + 2])
                        .map(|layer| (c, layer)),
                );
            }
        }
        for chunk in changed.chunks(TARGET_QUERIES_PER_CHUNK) {
            let queries: Vec<EvalQuery> = chunk
                .iter()
                .map(|&(c, layer)| EvalQuery {
                    layer,
                    dataflow: self.dataflows[layer],
                    point: DesignPoint::new(
                        children[c][2 * layer] as u64,
                        children[c][2 * layer + 1] as u64,
                    )
                    .expect("bounds start at 1"),
                })
                .collect();
            let reports = self.problem.engine().evaluate_batch(&queries);
            for (&(c, layer), report) in chunk.iter().zip(&reports) {
                let (objective, constraint) = self.problem.layer_terms(report);
                terms[c][2 * layer] = objective;
                terms[c][2 * layer + 1] = constraint;
            }
        }
        terms
            .into_iter()
            .map(|t| {
                let sum = self.problem.lp_sum(t.chunks(2).map(|p| (p[0], p[1])));
                (sum.map(|(cost, _)| cost), t)
            })
            .collect()
    }
}

impl BatchEval<i64> for FineBatchObjective {
    fn eval_batch(&mut self, genomes: &[Vec<i64>]) -> Vec<Option<f64>> {
        let parents: Vec<(&[i64], &[f64])> =
            genomes.iter().map(|g| (g.as_slice(), &[][..])).collect();
        self.eval_children(genomes, &parents)
            .into_iter()
            .map(|(cost, _)| cost)
            .collect()
    }

    fn eval_children(
        &mut self,
        children: &[Vec<i64>],
        parents: &[(&[i64], &[f64])],
    ) -> Vec<(Option<f64>, Vec<f64>)> {
        match self.problem.deployment() {
            Deployment::LayerPipelined => self.price_lp(children, parents),
            Deployment::LayerSequential => {
                let configs: Vec<(Dataflow, DesignPoint)> = children
                    .iter()
                    .map(|g| {
                        let la = &decode_fine_layers(g, &self.dataflows)[0];
                        (la.dataflow, la.point)
                    })
                    .collect();
                self.problem
                    .evaluate_ls_batch(&configs)
                    .into_iter()
                    .map(|a| (a.map(|a| a.cost), Vec::new()))
                    .collect()
            }
        }
    }
}

/// Fine-tunes a coarse assignment with the local GA on the fine-grained
/// integer space (PE counts up to the action-space maximum, tiles up to
/// 4× the coarse maximum). The dataflow per layer stays fixed.
///
/// Under LP, a child is priced from its parent's per-layer terms: only
/// the layers whose genes changed go to the engine, and the cost is the
/// same LP sum as [`HwProblem::evaluate_lp`]'s, bit for bit.
pub fn fine_tune(
    problem: &HwProblem,
    coarse: &Assignment,
    evaluations: usize,
    seed: u64,
) -> FineTuneResult {
    let mut run = FineRun::new(problem, coarse, evaluations, seed);
    while run.step_generation() {}
    run.finish()
}

/// Builds the fine-stage search space, initial genome, and per-layer
/// dataflows from a coarse assignment (shared by fresh and resumed runs,
/// which must agree exactly).
fn fine_setup(problem: &HwProblem, coarse: &Assignment) -> (FineSpace, Vec<i64>, Vec<Dataflow>) {
    let n = coarse.layers.len();
    let (max_pe, max_tile) = problem.actions().max_pair();
    let mut lo = Vec::with_capacity(2 * n);
    let mut hi = Vec::with_capacity(2 * n);
    let mut init = Vec::with_capacity(2 * n);
    for la in &coarse.layers {
        lo.push(1);
        hi.push(max_pe as i64);
        init.push(la.point.num_pes() as i64);
        lo.push(1);
        hi.push((max_tile * 4) as i64);
        init.push(la.point.tile() as i64);
    }
    let space = FineSpace::new(lo, hi);
    let dataflows = coarse.layers.iter().map(|l| l.dataflow).collect();
    (space, init, dataflows)
}

/// Checks that a checkpointed assignment (the `what` of the message) fits
/// `problem`: an LP assignment covers every layer, an LS one is a single
/// configuration. A checkpoint of another model fails here, at resume,
/// instead of panicking when the assignment is priced.
fn check_fits(problem: &HwProblem, assignment: &Assignment, what: &str) -> Result<(), SearchError> {
    let layers = match problem.deployment() {
        Deployment::LayerPipelined => problem.model().len(),
        Deployment::LayerSequential => 1,
    };
    if assignment.layers.len() != layers {
        return Err(SearchError::Format(format!(
            "checkpoint's {what} assigns {} layers but the problem needs {layers}",
            assignment.layers.len()
        )));
    }
    Ok(())
}

/// In-flight state of one fine-tuning run: [`fine_tune`] re-expressed as a
/// resumable stepper whose checkpoint granularity is one GA generation.
/// Like [`RlVecRun`], it counts as wall time only its own calls.
struct FineRun {
    problem: HwProblem,
    ga: LocalGa,
    space: FineSpace,
    eval: FineBatchObjective,
    cursor: FineCursor,
    rng: Rng,
    budget: usize,
    /// Engine counters at the start of the current process segment, moved
    /// past the queries of every `partial_result` since.
    stats_base: EvalStats,
    /// Engine counters carried over from pre-resume segments.
    stats_accum: EvalStats,
    /// Time spent inside `start_batch` and `step_generation`, summed
    /// across segments.
    wall: Duration,
}

impl FineRun {
    fn new(problem: &HwProblem, coarse: &Assignment, evaluations: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let (space, init, dataflows) = fine_setup(problem, coarse);
        let mut eval = FineBatchObjective {
            problem: problem.clone(),
            dataflows,
        };
        let stats_base = problem.eval_stats();
        let start = Instant::now();
        let ga = LocalGa::new(LocalGaConfig::default());
        let cursor = ga.start_batch(&space, &init, evaluations, &mut eval, &mut rng);
        let wall = start.elapsed();
        FineRun {
            problem: problem.clone(),
            ga,
            space,
            eval,
            cursor,
            rng,
            budget: evaluations,
            stats_base,
            stats_accum: EvalStats::default(),
            wall,
        }
    }

    /// Rebuilds a run from a [`FineStageState`]. The space and dataflows
    /// are re-derived from the same coarse assignment; population, trace,
    /// and RNG position come from the snapshot. A coarse best or a
    /// population that does not fit `problem`, or a snapshot over
    /// `evaluations`, is a [`SearchError::Format`].
    ///
    /// The population's evaluator terms are not in the snapshot. They are
    /// rebuilt here by pricing the population, before the segment's
    /// counters start, so the resumed run counts exactly the queries of
    /// the uninterrupted one.
    fn resume(
        problem: &HwProblem,
        coarse: &Assignment,
        evaluations: usize,
        state: &FineStageState,
    ) -> Result<Self, SearchError> {
        check_fits(problem, coarse, "coarse best")?;
        let (space, _init, dataflows) = fine_setup(problem, coarse);
        let mut cursor = FineCursor::restore(&state.cursor);
        if cursor.genomes().next().is_none() {
            return Err(SearchError::Format(
                "checkpoint has an empty fine-stage population".to_string(),
            ));
        }
        if let Some(genome) = cursor.genomes().find(|g| !space.contains(g)) {
            return Err(SearchError::Format(format!(
                "checkpoint genome of {} genes lies outside the {}-gene fine space",
                genome.len(),
                space.len()
            )));
        }
        let spent = cursor.outcome().evaluations;
        if spent > evaluations {
            return Err(SearchError::Format(format!(
                "checkpoint already spent {spent} evaluations of a {evaluations}-evaluation budget"
            )));
        }
        let mut eval = FineBatchObjective {
            problem: problem.clone(),
            dataflows,
        };
        cursor.rebuild_terms(&mut eval);
        Ok(FineRun {
            problem: problem.clone(),
            ga: LocalGa::new(LocalGaConfig::default()),
            space,
            eval,
            cursor,
            rng: Rng::from_state(state.rng_state),
            budget: evaluations,
            stats_base: problem.eval_stats(),
            stats_accum: state.eval_stats,
            wall: Duration::from_nanos(state.wall_nanos),
        })
    }

    /// Runs one GA generation; `false` once the budget is exhausted.
    fn step_generation(&mut self) -> bool {
        let start = Instant::now();
        let more = self.ga.step_generation(
            &self.space,
            self.budget,
            &mut self.cursor,
            &mut self.eval,
            &mut self.rng,
        );
        self.wall += start.elapsed();
        more
    }

    fn evaluations_done(&self) -> usize {
        self.cursor.outcome().evaluations
    }

    /// Engine counters for the whole run so far, across all segments.
    fn stats_so_far(&self) -> EvalStats {
        self.stats_accum
            .plus(self.problem.eval_stats().since(self.stats_base))
    }

    /// Captures everything needed to continue this run bit-identically.
    fn checkpoint(&self) -> FineStageState {
        FineStageState {
            rng_state: self.rng.state(),
            cursor: self.cursor.snapshot(),
            wall_nanos: self.wall.as_nanos() as u64,
            eval_stats: self.stats_so_far(),
        }
    }

    /// Best-so-far snapshot without consuming the run. Decodes the
    /// recorded best like [`FineRun::finish`], but tolerantly: a best
    /// that fails to re-evaluate is dropped rather than panicking inside
    /// a degraded-outcome path.
    ///
    /// The snapshot's counters include the queries of that re-pricing;
    /// the run's do not, since `stats_base` moves past them, so a run
    /// continued afterwards counts exactly the uninterrupted run's.
    fn partial_result(&mut self) -> FineTuneResult {
        let before = self.problem.eval_stats();
        let outcome = self.cursor.outcome().clone();
        let best = outcome.best.as_ref().and_then(|(genome, _)| {
            let layers = decode_fine_layers(genome, &self.eval.dataflows);
            match self.problem.deployment() {
                Deployment::LayerPipelined => self.problem.evaluate_lp(&layers),
                Deployment::LayerSequential => self
                    .problem
                    .evaluate_ls(layers[0].dataflow, layers[0].point),
            }
        });
        let eval_stats = self.stats_so_far();
        self.stats_base = self
            .stats_base
            .plus(self.problem.eval_stats().since(before));
        FineTuneResult {
            best,
            trace: outcome.trace,
            evaluations: outcome.evaluations,
            wall_time: self.wall,
            eval_stats,
        }
    }

    fn finish(self) -> FineTuneResult {
        let outcome = self.cursor.into_outcome();
        let best = outcome.best.as_ref().map(|(genome, _)| {
            let layers = decode_fine_layers(genome, &self.eval.dataflows);
            match self.problem.deployment() {
                Deployment::LayerPipelined => self.problem.evaluate_lp(&layers),
                Deployment::LayerSequential => self
                    .problem
                    .evaluate_ls(layers[0].dataflow, layers[0].point),
            }
            .expect("best genome was feasible when recorded")
        });
        FineTuneResult {
            best,
            trace: outcome.trace,
            evaluations: outcome.evaluations,
            wall_time: self.wall,
            eval_stats: self
                .stats_accum
                .plus(self.problem.eval_stats().since(self.stats_base)),
        }
    }
}

/// Configuration of the full two-stage pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoStageConfig {
    /// Stage-1 RL algorithm.
    pub algorithm: AlgorithmKind,
    /// Stage-1 epochs.
    pub global_epochs: usize,
    /// Stage-2 local-GA evaluations.
    pub fine_evaluations: usize,
    /// Stage-1 environment replicas rolled out in lockstep (see
    /// [`run_rl_search_vec`]). `1` (the default) is the one-replica case
    /// of the same rollout; any value is deterministic for a fixed seed.
    pub n_envs: usize,
}

impl Default for TwoStageConfig {
    fn default() -> Self {
        TwoStageConfig {
            algorithm: AlgorithmKind::Reinforce,
            global_epochs: 500,
            fine_evaluations: 1_000,
            n_envs: 1,
        }
    }
}

/// Result of the full ConfuciuX pipeline (Fig. 3): global RL search plus
/// local GA fine-tuning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TwoStageResult {
    /// Stage-1 outcome.
    pub global: RlSearchResult,
    /// Stage-2 outcome (absent if stage 1 found nothing feasible).
    pub fine: Option<FineTuneResult>,
}

impl TwoStageResult {
    /// The best assignment across both stages, compared with
    /// [`f64::total_cmp`] (the fine stage wins ties, matching the paper's
    /// pipeline where stage 2 refines stage 1's winner).
    pub fn final_best(&self) -> Option<&Assignment> {
        let fine = self.fine.as_ref().and_then(|f| f.best.as_ref());
        match (fine, self.global.best.as_ref()) {
            (Some(f), Some(g)) => Some(if g.cost.total_cmp(&f.cost).is_lt() {
                g
            } else {
                f
            }),
            (a, b) => a.or(b),
        }
    }

    /// The final best cost across both stages (total order — see
    /// [`TwoStageResult::final_best`]).
    pub fn final_cost(&self) -> Option<f64> {
        self.final_best().map(|a| a.cost)
    }
}

/// Runs the complete ConfuciuX pipeline.
pub fn two_stage_search(problem: &HwProblem, config: &TwoStageConfig, seed: u64) -> TwoStageResult {
    TwoStageRunner::new(problem, config, seed).into_result()
}

/// Checkpoint format version; bumped whenever the on-disk layout changes
/// incompatibly. [`TwoStageRunner::resume`] reads this version and
/// version 1 and rejects others.
///
/// Version 2 stores an Adam moment that has never left `+0.0` as an empty
/// matrix (see [`tinynn::Param`]), so an LS checkpoint no longer carries
/// the resting `Wh`'s zero moments; a version-1 reader would take the
/// empty moments at face value and never step those parameters. Version 1
/// stores every moment, which reads as the same values, so version-1
/// files resume exactly.
pub const SEARCH_CHECKPOINT_VERSION: u32 = 2;

/// Serializable mid-stage state of the global RL search. Floats that may
/// be non-finite (the `inf` trace sentinel) are stored bit-for-bit as
/// `u64`, so a JSON round trip is exact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalStageState {
    /// Post-round xoshiro states, one per environment replica.
    pub rng_states: Vec<[u64; 4]>,
    /// Bit-encoded per-replica cross-episode reward state
    /// ([`HwEnv::reward_state`]), which scales the shaped rewards and
    /// must survive a resume for rollouts to continue identically.
    ///
    /// [`HwEnv::reward_state`]: crate::HwEnv::reward_state
    pub env_reward_state_bits: Vec<u64>,
    /// Agent weights and optimizer state from [`Agent::save_state`].
    pub agent: serde::Value,
    /// Best feasible assignment so far.
    pub best: Option<Assignment>,
    /// Bit-encoded best-so-far trace (also encodes epochs done).
    pub trace_bits: Vec<u64>,
    /// Bit-encoded first feasible cost.
    pub initial_valid_cost_bits: Option<u64>,
    /// Wall time spent in the stage so far, summed across segments.
    pub wall_nanos: u64,
    /// Engine counters consumed by the stage so far, summed across
    /// segments.
    pub eval_stats: EvalStats,
}

/// Serializable mid-stage state of the fine-tuning GA.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FineStageState {
    /// Post-generation xoshiro state of the fine-stage RNG.
    pub rng_state: [u64; 4],
    /// GA population and accumulated outcome.
    pub cursor: FineCursorState,
    /// Wall time spent in the stage so far, summed across segments.
    pub wall_nanos: u64,
    /// Engine counters consumed by the stage so far, summed across
    /// segments.
    pub eval_stats: EvalStats,
}

/// Serializable form of a completed [`RlSearchResult`] (stored in a
/// checkpoint once the fine stage has begun). Traces are bit-encoded
/// because they legitimately contain `f64::INFINITY`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlResultState {
    /// Method name.
    pub algorithm: String,
    /// Best feasible assignment found.
    pub best: Option<Assignment>,
    /// Bit-encoded best-so-far trace.
    pub trace_bits: Vec<u64>,
    /// Bit-encoded first feasible cost.
    pub initial_valid_cost_bits: Option<u64>,
    /// Epochs until within 10% of the final best.
    pub epochs_to_converge: Option<usize>,
    /// Wall-clock time, in nanoseconds.
    pub wall_nanos: u64,
    /// Trainable scalar parameters.
    pub param_count: usize,
    /// Engine counters for the stage.
    pub eval_stats: EvalStats,
}

impl RlResultState {
    fn of(result: &RlSearchResult) -> Self {
        RlResultState {
            algorithm: result.algorithm.clone(),
            best: result.best.clone(),
            trace_bits: result.trace.iter().map(|c| c.to_bits()).collect(),
            initial_valid_cost_bits: result.initial_valid_cost.map(f64::to_bits),
            epochs_to_converge: result.epochs_to_converge,
            wall_nanos: result.wall_time.as_nanos() as u64,
            param_count: result.param_count,
            eval_stats: result.eval_stats,
        }
    }

    fn to_result(&self) -> RlSearchResult {
        RlSearchResult {
            algorithm: self.algorithm.clone(),
            best: self.best.clone(),
            trace: self.trace_bits.iter().map(|&b| f64::from_bits(b)).collect(),
            initial_valid_cost: self.initial_valid_cost_bits.map(f64::from_bits),
            epochs_to_converge: self.epochs_to_converge,
            wall_time: Duration::from_nanos(self.wall_nanos),
            param_count: self.param_count,
            eval_stats: self.eval_stats,
        }
    }
}

/// A saved position inside a two-stage search, produced by
/// [`TwoStageRunner::checkpoint`] and consumed by
/// [`TwoStageRunner::resume`]. Exactly one stage is in flight: either
/// `global` is set (stage 1 running), or `global_result` + `fine` are set
/// (stage 1 done, stage 2 running).
///
/// The checkpoint records the search configuration and seed, but *not* the
/// problem: the caller must rebuild the same [`HwProblem`] (same model,
/// objective, constraint, deployment) before resuming — the checkpoint
/// only stores genome-space state, which is meaningless against a
/// different problem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// Format version ([`SEARCH_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Seed of the run being checkpointed.
    pub seed: u64,
    /// Configuration of the run being checkpointed; resume re-uses it.
    pub config: TwoStageConfig,
    /// Stage-1 in-flight state, if stage 1 was running.
    pub global: Option<GlobalStageState>,
    /// Completed stage-1 result, once stage 2 has started.
    pub global_result: Option<RlResultState>,
    /// Stage-2 in-flight state, if stage 2 was running.
    pub fine: Option<FineStageState>,
}

impl SearchCheckpoint {
    /// Pretty-printed JSON form of the checkpoint.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("checkpoint state is always serializable")
    }

    /// Parses a checkpoint written by [`SearchCheckpoint::to_json`].
    pub fn from_json(text: &str) -> Result<Self, SearchError> {
        serde_json::from_str(text)
            .map_err(|e| SearchError::Format(format!("bad checkpoint: {e:?}")))
    }

    /// Writes the checkpoint to `path` as JSON, creating parent
    /// directories as needed.
    pub fn save(&self, path: &std::path::Path) -> Result<(), SearchError> {
        let write = || -> std::io::Result<()> {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(path, self.to_json())
        };
        write().map_err(|e| SearchError::io(path, e))
    }

    /// Reads a checkpoint previously written by [`SearchCheckpoint::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, SearchError> {
        let text = std::fs::read_to_string(path).map_err(|e| SearchError::io(path, e))?;
        Self::from_json(&text)
    }
}

enum RunnerStage {
    Global(RlVecRun),
    Fine {
        global: RlSearchResult,
        run: FineRun,
    },
    Done(TwoStageResult),
}

/// The complete ConfuciuX pipeline as a resumable stepper.
/// [`two_stage_search`] is exactly `TwoStageRunner::new(..).into_result()`;
/// interleaving [`TwoStageRunner::checkpoint`] calls between steps (and
/// resuming from the saved state, even in a new process) does not change
/// the result: best assignments, traces, and the determinism digest are
/// bit-identical to the uninterrupted run. Wall time and evaluation-engine
/// counters are accumulated across the segments of a resumed run; the
/// counters of each step depend only on that step's queries, so a resumed
/// run reproduces them too, on the same problem or a fresh one.
///
/// One [`TwoStageRunner::step`] is one unit of stage work: a vectorized
/// rollout round (`min(n_envs, epochs remaining)` epochs) during stage 1,
/// one GA generation during stage 2, including the stage transition when
/// the budget of the current stage runs out.
pub struct TwoStageRunner {
    problem: HwProblem,
    config: TwoStageConfig,
    seed: u64,
    // `None` only transiently inside `step`.
    stage: Option<RunnerStage>,
}

impl TwoStageRunner {
    /// Starts a fresh two-stage search. The runner owns a handle to the
    /// problem ([`HwProblem`] clones share one body), so it is `'static`
    /// and can be moved into a worker thread or held by a job registry.
    pub fn new(problem: &HwProblem, config: &TwoStageConfig, seed: u64) -> Self {
        let run = RlVecRun::new(
            problem,
            config.algorithm,
            SearchBudget {
                epochs: config.global_epochs,
            },
            seed,
            RewardConfig::default(),
            config.n_envs,
        );
        TwoStageRunner {
            problem: problem.clone(),
            config: config.clone(),
            seed,
            stage: Some(RunnerStage::Global(run)),
        }
    }

    /// Continues a search from a saved checkpoint. The seed and
    /// configuration come from the checkpoint; `problem` must be rebuilt
    /// identically to the checkpointed run's.
    pub fn resume(problem: &HwProblem, checkpoint: &SearchCheckpoint) -> Result<Self, SearchError> {
        if !(1..=SEARCH_CHECKPOINT_VERSION).contains(&checkpoint.version) {
            return Err(SearchError::Format(format!(
                "checkpoint version {} unsupported (expected 1 to {SEARCH_CHECKPOINT_VERSION})",
                checkpoint.version
            )));
        }
        let config = checkpoint.config.clone();
        let seed = checkpoint.seed;
        let stage = if let Some(global) = &checkpoint.global {
            RunnerStage::Global(RlVecRun::resume(
                problem,
                config.algorithm,
                SearchBudget {
                    epochs: config.global_epochs,
                },
                seed,
                RewardConfig::default(),
                config.n_envs,
                global,
            )?)
        } else if let (Some(global_result), Some(fine)) =
            (&checkpoint.global_result, &checkpoint.fine)
        {
            let global = global_result.to_result();
            let coarse = global.best.clone().ok_or_else(|| {
                SearchError::Format("checkpoint has a fine stage but no coarse best".to_string())
            })?;
            let run = FineRun::resume(problem, &coarse, config.fine_evaluations, fine)?;
            RunnerStage::Fine { global, run }
        } else {
            return Err(SearchError::Format(
                "malformed checkpoint: no stage state".to_string(),
            ));
        };
        Ok(TwoStageRunner {
            problem: problem.clone(),
            config,
            seed,
            stage: Some(stage),
        })
    }

    /// The problem this runner searches (a handle to the shared body).
    pub fn problem(&self) -> &HwProblem {
        &self.problem
    }

    /// Advances the search by one unit of work. Returns `true` while work
    /// remains.
    pub fn step(&mut self) -> bool {
        let stage = self.stage.take().expect("runner stage present");
        let (next, more) = match stage {
            RunnerStage::Global(mut run) => {
                if run.step_round() {
                    (RunnerStage::Global(run), true)
                } else {
                    let global = run.finish();
                    match global.best.clone() {
                        Some(coarse) => {
                            let run = FineRun::new(
                                &self.problem,
                                &coarse,
                                self.config.fine_evaluations,
                                self.seed ^ 0x5eed,
                            );
                            (RunnerStage::Fine { global, run }, true)
                        }
                        None => (
                            RunnerStage::Done(TwoStageResult { global, fine: None }),
                            false,
                        ),
                    }
                }
            }
            RunnerStage::Fine { global, mut run } => {
                if run.step_generation() {
                    (RunnerStage::Fine { global, run }, true)
                } else {
                    let fine = run.finish();
                    (
                        RunnerStage::Done(TwoStageResult {
                            global,
                            fine: Some(fine),
                        }),
                        false,
                    )
                }
            }
            RunnerStage::Done(result) => (RunnerStage::Done(result), false),
        };
        self.stage = Some(next);
        more
    }

    /// Saves the current position. Errors once the search is complete
    /// (there is nothing left to resume) and for stage-1 agents without
    /// [`Agent::save_state`] support.
    pub fn checkpoint(&self) -> Result<SearchCheckpoint, SearchError> {
        let base = SearchCheckpoint {
            version: SEARCH_CHECKPOINT_VERSION,
            seed: self.seed,
            config: self.config.clone(),
            global: None,
            global_result: None,
            fine: None,
        };
        match self.stage.as_ref().expect("runner stage present") {
            RunnerStage::Global(run) => Ok(SearchCheckpoint {
                global: Some(run.checkpoint()?),
                ..base
            }),
            RunnerStage::Fine { global, run } => Ok(SearchCheckpoint {
                global_result: Some(RlResultState::of(global)),
                fine: Some(run.checkpoint()),
                ..base
            }),
            RunnerStage::Done(_) => Err(SearchError::Unsupported(
                "search already complete; nothing to checkpoint".to_string(),
            )),
        }
    }

    /// True once both stages have finished.
    pub fn is_done(&self) -> bool {
        matches!(
            self.stage.as_ref().expect("runner stage present"),
            RunnerStage::Done(_)
        )
    }

    /// Stage-1 epochs completed so far.
    pub fn global_epochs_done(&self) -> usize {
        match self.stage.as_ref().expect("runner stage present") {
            RunnerStage::Global(run) => run.epochs_done(),
            RunnerStage::Fine { global, .. } => global.trace.len(),
            RunnerStage::Done(result) => result.global.trace.len(),
        }
    }

    /// Stage-2 evaluations completed so far.
    pub fn fine_evaluations_done(&self) -> usize {
        match self.stage.as_ref().expect("runner stage present") {
            RunnerStage::Global(_) => 0,
            RunnerStage::Fine { run, .. } => run.evaluations_done(),
            RunnerStage::Done(result) => result.fine.as_ref().map_or(0, |f| f.evaluations),
        }
    }

    /// Best feasible cost found so far across whatever stages have run
    /// (compared with [`f64::total_cmp`]), for progress reporting.
    pub fn best_cost_so_far(&self) -> Option<f64> {
        match self.stage.as_ref().expect("runner stage present") {
            RunnerStage::Global(run) => run.result.best_cost(),
            RunnerStage::Fine { global, run } => {
                let fine = run.cursor.outcome().best.as_ref().map(|(_, cost)| *cost);
                match (global.best_cost(), fine) {
                    (Some(g), Some(f)) => Some(if g.total_cmp(&f).is_lt() { g } else { f }),
                    (a, b) => a.or(b),
                }
            }
            RunnerStage::Done(result) => result.final_cost(),
        }
    }

    /// Evaluation-engine counters consumed so far, summed over both stages
    /// and every resumed segment: the counters the outcome will report.
    pub fn eval_stats(&self) -> EvalStats {
        match self.stage.as_ref().expect("runner stage present") {
            RunnerStage::Global(run) => run.stats_so_far(),
            RunnerStage::Fine { global, run } => global.eval_stats.plus(run.stats_so_far()),
            RunnerStage::Done(result) => result.outcome().eval_stats,
        }
    }

    /// The best-so-far result across whatever stages have run — a valid
    /// [`TwoStageResult`] even mid-flight. This is the degraded-outcome
    /// path: a deadline-stopped job reduces this to a
    /// [`SearchOutcome`](crate::SearchOutcome) marked degraded instead of
    /// erroring. On a finished runner it is exactly the final result.
    ///
    /// Mid-fine, the result re-prices the fine stage's best and counts
    /// those queries; the runner does not, so stepping on afterwards
    /// reproduces the uninterrupted run's counters.
    pub fn partial_result(&mut self) -> TwoStageResult {
        match self.stage.as_mut().expect("runner stage present") {
            RunnerStage::Global(run) => TwoStageResult {
                global: run.partial_result(),
                fine: None,
            },
            RunnerStage::Fine { global, run } => TwoStageResult {
                global: global.clone(),
                fine: Some(run.partial_result()),
            },
            RunnerStage::Done(result) => result.clone(),
        }
    }

    /// The finished result, if [`TwoStageRunner::is_done`].
    pub fn result(&self) -> Option<&TwoStageResult> {
        match self.stage.as_ref().expect("runner stage present") {
            RunnerStage::Done(result) => Some(result),
            _ => None,
        }
    }

    /// Runs the search to completion and returns the result.
    pub fn into_result(mut self) -> TwoStageResult {
        while self.step() {}
        match self.stage.take().expect("runner stage present") {
            RunnerStage::Done(result) => result,
            _ => unreachable!("step() returned false before reaching Done"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintKind, Objective, PlatformClass};

    fn tiny_problem() -> HwProblem {
        HwProblem::builder(dnn_models::tiny_cnn())
            .objective(Objective::Latency)
            .constraint(ConstraintKind::Area, PlatformClass::Iot)
            .deployment(Deployment::LayerPipelined)
            .build()
    }

    #[test]
    fn reinforce_finds_feasible_solutions_on_tiny_model() {
        let p = tiny_problem();
        let r = run_rl_search(&p, AlgorithmKind::Reinforce, SearchBudget { epochs: 60 }, 3);
        assert!(r.best.is_some(), "no feasible solution in 60 epochs");
        let best = r.best.unwrap();
        assert!(best.constraint_used <= p.budget());
        assert_eq!(best.layers.len(), p.model().len());
        assert_eq!(r.trace.len(), 60);
    }

    #[test]
    fn baselines_run_and_trace() {
        let p = tiny_problem();
        for kind in [BaselineKind::Random, BaselineKind::Genetic] {
            let r = run_baseline(&p, kind, SearchBudget { epochs: 120 }, 5);
            assert_eq!(r.trace.len(), 120, "{}", r.algorithm);
            if let Some(best) = &r.best {
                assert!(best.constraint_used <= p.budget());
            }
        }
    }

    #[test]
    fn fine_tune_never_worsens_a_feasible_seed() {
        let p = tiny_problem();
        let r = run_rl_search(
            &p,
            AlgorithmKind::Reinforce,
            SearchBudget { epochs: 40 },
            11,
        );
        let coarse = r.best.expect("feasible coarse solution");
        let fine = fine_tune(&p, &coarse, 300, 7);
        let fine_best = fine.best.expect("fine stage keeps feasibility");
        assert!(
            fine_best.cost <= coarse.cost + 1e-9,
            "fine {} vs coarse {}",
            fine_best.cost,
            coarse.cost
        );
        assert!(fine_best.constraint_used <= p.budget());
    }

    #[test]
    fn two_stage_reports_both_stages() {
        let p = tiny_problem();
        let cfg = TwoStageConfig {
            global_epochs: 40,
            fine_evaluations: 200,
            ..TwoStageConfig::default()
        };
        let r = two_stage_search(&p, &cfg, 19);
        assert!(r.global.trace.len() == 40);
        if r.global.best.is_some() {
            let fine = r.fine.as_ref().expect("fine stage runs after success");
            assert!(r.final_cost().unwrap() <= r.global.best_cost().unwrap() + 1e-9);
            assert!(fine.evaluations <= 200);
        }
    }

    /// Bit-level equality of two search results, ignoring wall time.
    /// `Debug` for `f64` prints the shortest round-trip form, so equal
    /// debug strings mean equal bits for every finite/infinite cost.
    fn assert_results_equal(a: &TwoStageResult, b: &TwoStageResult) {
        assert_eq!(a.global.algorithm, b.global.algorithm);
        assert_eq!(
            format!("{:?}", a.global.best),
            format!("{:?}", b.global.best)
        );
        let bits = |t: &[f64]| t.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.global.trace), bits(&b.global.trace));
        assert_eq!(
            a.global.initial_valid_cost.map(f64::to_bits),
            b.global.initial_valid_cost.map(f64::to_bits)
        );
        assert_eq!(a.global.epochs_to_converge, b.global.epochs_to_converge);
        assert_eq!(a.global.param_count, b.global.param_count);
        assert_eq!(a.global.eval_stats, b.global.eval_stats);
        assert_eq!(a.fine.is_some(), b.fine.is_some());
        if let (Some(fa), Some(fb)) = (&a.fine, &b.fine) {
            assert_eq!(format!("{:?}", fa.best), format!("{:?}", fb.best));
            assert_eq!(bits(&fa.trace), bits(&fb.trace));
            assert_eq!(fa.evaluations, fb.evaluations);
            assert_eq!(fa.eval_stats, fb.eval_stats);
        }
    }

    fn small_config() -> TwoStageConfig {
        TwoStageConfig {
            global_epochs: 30,
            fine_evaluations: 150,
            ..TwoStageConfig::default()
        }
    }

    #[test]
    fn runner_matches_two_stage_search_step_for_step() {
        let cfg = small_config();
        let direct = two_stage_search(&tiny_problem(), &cfg, 19);
        let problem = tiny_problem();
        let mut runner = TwoStageRunner::new(&problem, &cfg, 19);
        while runner.step() {}
        assert!(runner.is_done());
        assert_results_equal(runner.result().unwrap(), &direct);
    }

    #[test]
    fn checkpoint_resume_mid_global_is_bit_identical() {
        let cfg = small_config();
        let uninterrupted = two_stage_search(&tiny_problem(), &cfg, 19);

        // Same search, killed after 5 global epochs. The checkpoint goes
        // through JSON text (as a file would) and the resumed runner picks
        // up on the same problem instance.
        let problem = tiny_problem();
        let mut runner = TwoStageRunner::new(&problem, &cfg, 19);
        for _ in 0..5 {
            assert!(runner.step());
        }
        assert_eq!(runner.global_epochs_done(), 5);
        let checkpoint = SearchCheckpoint::from_json(&runner.checkpoint().unwrap().to_json())
            .expect("checkpoint round-trips through JSON");
        drop(runner);

        let resumed = TwoStageRunner::resume(&problem, &checkpoint)
            .expect("resume from mid-global checkpoint")
            .into_result();
        assert_results_equal(&resumed, &uninterrupted);
    }

    #[test]
    fn checkpoint_resume_mid_fine_is_bit_identical() {
        let cfg = small_config();
        let uninterrupted = two_stage_search(&tiny_problem(), &cfg, 19);
        assert!(
            uninterrupted.fine.is_some(),
            "seed 19 must reach the fine stage for this test to bite"
        );

        let problem = tiny_problem();
        let mut runner = TwoStageRunner::new(&problem, &cfg, 19);
        while runner.fine_evaluations_done() == 0 {
            assert!(runner.step(), "search ended before the fine stage");
        }
        assert!(runner.step(), "fine stage over before a checkpoint fit");
        let checkpoint = SearchCheckpoint::from_json(&runner.checkpoint().unwrap().to_json())
            .expect("checkpoint round-trips through JSON");
        assert!(checkpoint.global.is_none());
        assert!(checkpoint.global_result.is_some() && checkpoint.fine.is_some());
        drop(runner);

        let resumed = TwoStageRunner::resume(&problem, &checkpoint)
            .expect("resume from mid-fine checkpoint")
            .into_result();
        assert_results_equal(&resumed, &uninterrupted);
    }

    #[test]
    fn eval_stats_count_the_whole_run_across_stages_and_resumes() {
        let cfg = small_config();
        let problem = tiny_problem();
        let mut runner = TwoStageRunner::new(&problem, &cfg, 19);
        let mut last = runner.eval_stats();
        let mut mid_fine = None;
        while runner.step() {
            let now = runner.eval_stats();
            assert!(now.hits >= last.hits && now.misses >= last.misses);
            last = now;
            if runner.fine_evaluations_done() > 0 && mid_fine.is_none() {
                mid_fine = Some((runner.checkpoint().unwrap(), now));
            }
        }
        let done = runner.result().unwrap().outcome().eval_stats;
        assert_eq!(runner.eval_stats(), done);

        // A runner resumed on a fresh problem continues the count.
        let (checkpoint, at) = mid_fine.expect("seed 19 reaches the fine stage");
        let resumed = TwoStageRunner::resume(&tiny_problem(), &checkpoint).unwrap();
        assert_eq!(resumed.eval_stats(), at);
        assert_eq!(resumed.into_result().outcome().eval_stats, done);
    }

    #[test]
    fn partial_result_mid_fine_leaves_the_run_counters_alone() {
        let cfg = small_config();
        let uninterrupted = two_stage_search(&tiny_problem(), &cfg, 19).outcome();
        let mut runner = TwoStageRunner::new(&tiny_problem(), &cfg, 19);
        while runner.fine_evaluations_done() == 0 {
            assert!(runner.step(), "search ended before the fine stage");
        }
        let before = runner.eval_stats();
        let partial = runner.partial_result().outcome();
        assert!(
            partial.eval_stats.misses > before.misses,
            "the snapshot counts the queries that re-price its best"
        );
        assert_eq!(runner.eval_stats(), before);
        while runner.step() {}
        let done = runner.result().unwrap().outcome();
        assert_eq!(done.eval_stats, uninterrupted.eval_stats);
    }

    #[test]
    fn wall_time_leaves_out_the_time_between_steps() {
        let pause = Duration::from_millis(50);
        let start = Instant::now();
        let mut runner = TwoStageRunner::new(&tiny_problem(), &small_config(), 19);
        while runner.fine_evaluations_done() == 0 {
            assert!(runner.step(), "search ended before the fine stage");
        }
        std::thread::sleep(pause);
        assert!(runner.step(), "fine stage over before the pause");
        while runner.step() {}
        let total = start.elapsed();
        let wall = runner.result().unwrap().outcome().wall_time();
        assert!(
            wall <= total - pause,
            "wall time {wall:?} of {total:?} counts the {pause:?} pause"
        );
    }

    /// A `tiny_problem` search at seed 19 stopped once it has spent at
    /// least `fine_evaluations` fine-stage evaluations.
    fn mid_fine_checkpoint(fine_evaluations: usize) -> SearchCheckpoint {
        let mut runner = TwoStageRunner::new(&tiny_problem(), &small_config(), 19);
        while runner.fine_evaluations_done() < fine_evaluations {
            assert!(runner.step(), "search ended before the checkpoint");
        }
        runner.checkpoint().unwrap()
    }

    fn assert_format_error(resumed: Result<TwoStageRunner, SearchError>, what: &str) {
        match resumed {
            Err(SearchError::Format(_)) => {}
            Err(e) => panic!("{what}: expected a format error, got {e}"),
            Ok(_) => panic!("{what}: resume accepted the checkpoint"),
        }
    }

    fn mobilenet_v2_iot() -> HwProblem {
        HwProblem::builder(dnn_models::mobilenet_v2())
            .objective(Objective::Latency)
            .constraint(ConstraintKind::Area, PlatformClass::Iot)
            .deployment(Deployment::LayerPipelined)
            .build()
    }

    #[test]
    fn resume_rejects_a_fine_checkpoint_of_another_model() {
        let checkpoint = mid_fine_checkpoint(1);
        assert_format_error(
            TwoStageRunner::resume(&mobilenet_v2_iot(), &checkpoint),
            "tiny_cnn checkpoint on mobilenet_v2",
        );
    }

    #[test]
    fn resume_rejects_a_global_checkpoint_of_another_model() {
        // Ten rounds into a tiny_cnn search on Cloud there is a 6-layer
        // best. The agent alone would load on mobilenet_v2: both problems
        // have 10-wide observations and two 12-level heads.
        let cloud = HwProblem::builder(dnn_models::tiny_cnn())
            .objective(Objective::Latency)
            .constraint(ConstraintKind::Area, PlatformClass::Cloud)
            .deployment(Deployment::LayerPipelined)
            .build();
        let cfg = TwoStageConfig {
            global_epochs: 40,
            fine_evaluations: 60,
            ..TwoStageConfig::default()
        };
        let mut runner = TwoStageRunner::new(&cloud, &cfg, 5);
        for _ in 0..10 {
            assert!(runner.step());
        }
        let checkpoint = runner.checkpoint().unwrap();
        let global = checkpoint.global.as_ref().expect("mid-global checkpoint");
        assert!(global.best.is_some(), "no best to check yet");
        assert_format_error(
            TwoStageRunner::resume(&mobilenet_v2_iot(), &checkpoint),
            "tiny_cnn global checkpoint on mobilenet_v2",
        );
    }

    #[test]
    fn resume_rejects_a_fine_checkpoint_over_its_budget() {
        let mut checkpoint = mid_fine_checkpoint(110);
        checkpoint.config.fine_evaluations = 50;
        assert_format_error(
            TwoStageRunner::resume(&tiny_problem(), &checkpoint),
            "110 evaluations spent of a 50-evaluation budget",
        );
    }

    #[test]
    fn resume_rejects_a_malformed_fine_population() {
        use serde::Value;
        /// The population of a serialized `FineCursorState`: one
        /// `[genome, cost bits]` array per individual.
        fn population(cursor: &mut Value) -> &mut Vec<Value> {
            match cursor {
                Value::Object(fields) => match fields.iter_mut().find(|(k, _)| k == "population") {
                    Some((_, Value::Array(population))) => population,
                    _ => panic!("no population array"),
                },
                _ => panic!("cursor is not an object"),
            }
        }
        fn first_genome(population: &mut [Value]) -> &mut Vec<Value> {
            match &mut population[0] {
                Value::Array(individual) => match &mut individual[0] {
                    Value::Array(genome) => genome,
                    _ => panic!("genome is not an array"),
                },
                _ => panic!("individual is not an array"),
            }
        }
        type Edit = fn(&mut Vec<Value>);
        let edits: [(&str, Edit); 3] = [
            ("empty population", |p| p.clear()),
            ("a PE count of 0", |p| first_genome(p)[0] = Value::Int(0)),
            ("a genome one gene short", |p| {
                first_genome(p).pop();
            }),
        ];
        let checkpoint = mid_fine_checkpoint(1);
        for (what, edit) in edits {
            let mut checkpoint = checkpoint.clone();
            let fine = checkpoint.fine.as_mut().unwrap();
            let mut cursor = serde_json::to_value(&fine.cursor).unwrap();
            edit(population(&mut cursor));
            fine.cursor = serde_json::from_value(cursor).unwrap();
            assert_format_error(TwoStageRunner::resume(&tiny_problem(), &checkpoint), what);
        }
    }

    /// Prices each `(parent, child, parent keeps its terms)` pair the way
    /// the fine stage does, then checks every cost (by bits) against
    /// [`HwProblem::evaluate_lp`] and every term against the layer's fresh
    /// report. Returns how many infeasible parents had a feasible child.
    fn check_fine_children(
        problem: &HwProblem,
        dataflows: &[Dataflow],
        pairs: &[(Vec<i64>, Vec<i64>, bool)],
    ) -> usize {
        let mut eval = FineBatchObjective {
            problem: problem.clone(),
            dataflows: dataflows.to_vec(),
        };
        let parents: Vec<Vec<i64>> = pairs.iter().map(|(p, _, _)| p.clone()).collect();
        let fresh: Vec<(&[i64], &[f64])> =
            parents.iter().map(|g| (g.as_slice(), &[][..])).collect();
        let priced_parents = eval.eval_children(&parents, &fresh);
        let children: Vec<Vec<i64>> = pairs.iter().map(|(_, c, _)| c.clone()).collect();
        let with_parents: Vec<(&[i64], &[f64])> = pairs
            .iter()
            .zip(&priced_parents)
            .map(|((parent, _, keeps), (_, terms))| {
                (
                    parent.as_slice(),
                    if *keeps { terms.as_slice() } else { &[][..] },
                )
            })
            .collect();
        let priced_children = eval.eval_children(&children, &with_parents);
        let genomes = parents.iter().chain(&children);
        for (genome, (cost, terms)) in genomes.zip(priced_parents.iter().chain(&priced_children)) {
            let layers = decode_fine_layers(genome, dataflows);
            let fresh = problem.evaluate_lp(&layers).map(|a| a.cost.to_bits());
            assert_eq!(cost.map(f64::to_bits), fresh, "cost of {genome:?}");
            assert_eq!(terms.len(), 2 * layers.len());
            for (l, la) in layers.iter().enumerate() {
                let report = problem.evaluate_layer(l, la.dataflow, la.point);
                let want = [
                    problem.objective().of(&report),
                    problem.constraint().of(&report),
                ];
                assert_eq!(
                    terms[2 * l].to_bits(),
                    want[0].to_bits(),
                    "layer {l} of {genome:?}"
                );
                assert_eq!(
                    terms[2 * l + 1].to_bits(),
                    want[1].to_bits(),
                    "layer {l} of {genome:?}"
                );
            }
        }
        priced_parents
            .iter()
            .zip(&priced_children)
            .filter(|((p, _), (c, _))| p.is_none() && c.is_some())
            .count()
    }

    #[test]
    fn fine_children_price_like_fresh_genomes_to_the_bit() {
        use rand::Rng as _;
        for problem in [mobilenet_v2_iot(), tiny_problem()] {
            let n = problem.model().len();
            let coarse = Assignment {
                layers: vec![
                    LayerAssignment {
                        dataflow: Dataflow::NvdlaStyle,
                        point: DesignPoint::new(1, 1).unwrap(),
                    };
                    n
                ],
                cost: 0.0,
                constraint_used: 0.0,
            };
            let (space, lowest, dataflows) = fine_setup(&problem, &coarse);
            let (max_pe, max_tile) = problem.actions().max_pair();
            let hi = [max_pe as i64, 4 * max_tile as i64];
            let ks: Vec<i64> = problem
                .model()
                .layers()
                .iter()
                .map(|l| l.k() as i64)
                .collect();
            let small_k: Vec<usize> = (0..n).filter(|&l| ks[l] < hi[1]).collect();
            let mut rng = Rng::seed_from_u64(53);
            let (mut swaps, mut tiles_above_k, mut fresh) = (0, 0, 0);
            let mut pairs = Vec::new();
            for _ in 0..64 {
                let cap = [2, 8, 32, hi[0]][rng.gen_range(0..4usize)];
                let parent: Vec<i64> = (0..2 * n)
                    .map(|g| rng.gen_range(1..=cap.min(hi[g % 2])))
                    .collect();
                let mut child = parent.clone();
                if rng.gen_bool(0.5) {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a != b {
                        child.swap(2 * a, 2 * b);
                        child.swap(2 * a + 1, 2 * b + 1);
                        swaps += 1;
                    }
                }
                for gene in child.iter_mut() {
                    if rng.gen_bool(0.1) {
                        *gene += rng.gen_range(-4..=4i64);
                    }
                }
                space.clamp(&mut child);
                if !small_k.is_empty() && rng.gen_bool(0.3) {
                    let l = small_k[rng.gen_range(0..small_k.len())];
                    child[2 * l + 1] = rng.gen_range(ks[l] + 1..=hi[1]);
                    tiles_above_k += 1;
                }
                let keeps_terms = rng.gen_bool(0.75);
                fresh += usize::from(!keeps_terms);
                pairs.push((parent, child, keeps_terms));
            }
            // An infeasible parent whose later layers its feasible child
            // keeps: the parent's sum stops early, its terms must not.
            let mut parent = lowest.clone();
            for l in 0..n {
                if problem
                    .evaluate_lp(&decode_fine_layers(&parent, &dataflows))
                    .is_none()
                {
                    break;
                }
                parent[2 * l] = hi[0];
                parent[2 * l + 1] = hi[1];
            }
            pairs.push((parent, lowest, true));
            let revived = check_fine_children(&problem, &dataflows, &pairs);
            assert!(
                swaps > 0 && tiles_above_k > 0 && fresh > 0,
                "{swaps} {tiles_above_k} {fresh}"
            );
            assert!(revived > 0, "no infeasible parent had a feasible child");
        }
    }

    #[test]
    fn checkpoint_after_completion_errors() {
        let cfg = TwoStageConfig {
            global_epochs: 5,
            fine_evaluations: 30,
            ..TwoStageConfig::default()
        };
        let problem = tiny_problem();
        let mut runner = TwoStageRunner::new(&problem, &cfg, 3);
        while runner.step() {}
        assert!(runner.checkpoint().is_err());
    }

    #[test]
    fn resume_rejects_unknown_checkpoint_version() {
        let problem = tiny_problem();
        let cfg = small_config();
        let mut runner = TwoStageRunner::new(&problem, &cfg, 19);
        runner.step();
        let checkpoint = runner.checkpoint().unwrap();
        for version in [0, SEARCH_CHECKPOINT_VERSION + 1] {
            let checkpoint = SearchCheckpoint {
                version,
                ..checkpoint.clone()
            };
            assert!(TwoStageRunner::resume(&problem, &checkpoint).is_err());
        }
    }

    /// Rewrites every empty Adam moment in a saved agent state as
    /// explicit `+0.0` of its weight's shape, as version 1 stored it, and
    /// returns how many it rewrote.
    fn store_every_moment(state: &mut serde::Value) -> usize {
        match state {
            serde::Value::Object(fields)
                if fields
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .eq(["w", "g", "m", "v"]) =>
            {
                let mut param: tinynn::Param = Deserialize::from_value(state).unwrap();
                let (r, c) = param.w.shape();
                let mut rewritten = 0;
                for moment in [&mut param.m, &mut param.v] {
                    if moment.data().is_empty() {
                        *moment = tinynn::Matrix::zeros(r, c);
                        rewritten += 1;
                    }
                }
                *state = param.to_value();
                rewritten
            }
            serde::Value::Object(fields) => {
                fields.iter_mut().map(|(_, v)| store_every_moment(v)).sum()
            }
            serde::Value::Array(items) => items.iter_mut().map(store_every_moment).sum(),
            _ => 0,
        }
    }

    /// A version-1 file stores every Adam moment, the resting `Wh`'s as
    /// explicit zeros: an LS search resumed from one mid-global matches
    /// the uninterrupted run's digest and engine counters.
    #[test]
    fn version_1_checkpoint_resumes_exactly() {
        let problem = HwProblem::builder(dnn_models::tiny_cnn())
            .deployment(Deployment::LayerSequential)
            .constraint(ConstraintKind::Area, PlatformClass::Iot)
            .build();
        let cfg = small_config();
        let uninterrupted = two_stage_search(&problem, &cfg, 19).outcome();
        let mut runner = TwoStageRunner::new(&problem, &cfg, 19);
        for _ in 0..5 {
            assert!(runner.step());
        }
        let mut checkpoint = runner.checkpoint().unwrap();
        drop(runner);
        let agent = &mut checkpoint.global.as_mut().unwrap().agent;
        assert!(store_every_moment(agent) >= 2, "Wh's moments were stored");
        checkpoint.version = 1;
        let path = std::env::temp_dir()
            .join(format!("confuciux_v1_resume_{}", std::process::id()))
            .join("v1.ckpt.json");
        checkpoint.save(&path).unwrap();
        let loaded = SearchCheckpoint::load(&path).unwrap();
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        assert_eq!(loaded.version, 1);

        let resumed = TwoStageRunner::resume(&problem, &loaded)
            .expect("a version-1 checkpoint resumes")
            .into_result()
            .outcome();
        assert_eq!(resumed.digest(), uninterrupted.digest());
        assert_eq!(resumed.eval_stats, uninterrupted.eval_stats);
    }

    #[test]
    fn partial_result_is_valid_at_every_stage() {
        let cfg = small_config();
        let problem = tiny_problem();
        let mut runner = TwoStageRunner::new(&problem, &cfg, 19);

        // Mid-global: a degraded answer exists from the very first step.
        for _ in 0..5 {
            assert!(runner.step());
        }
        let partial = runner.partial_result();
        assert_eq!(partial.global.trace.len(), 5);
        assert!(partial.fine.is_none());
        let outcome = partial.outcome().into_degraded("deadline 1ms expired");
        assert!(outcome.is_degraded());
        assert_eq!(outcome.epochs, 5);

        // Mid-fine: the frozen global result rides along unchanged.
        while runner.fine_evaluations_done() == 0 {
            assert!(runner.step(), "search ended before the fine stage");
        }
        let partial = runner.partial_result();
        assert_eq!(partial.global.trace.len(), cfg.global_epochs);
        let fine = partial.fine.as_ref().expect("fine stage has started");
        assert!(fine.evaluations > 0);
        // The fine stage never worsens the feasible seed, even mid-flight.
        if let (Some(g), Some(f)) = (partial.global.best_cost(), partial.final_cost()) {
            assert!(f <= g + 1e-9, "partial fine {f} worse than global {g}");
        }

        // Done: partial and final results coincide.
        while runner.step() {}
        let done = runner.result().unwrap().clone();
        assert_results_equal(&runner.partial_result(), &done);
    }

    #[test]
    fn ls_deployment_uses_two_gene_space() {
        let p = HwProblem::builder(dnn_models::tiny_cnn())
            .deployment(Deployment::LayerSequential)
            .constraint(ConstraintKind::Area, PlatformClass::Cloud)
            .build();
        let r = run_baseline(&p, BaselineKind::Random, SearchBudget { epochs: 80 }, 23);
        let best = r.best.expect("LS random search finds something on Cloud");
        assert_eq!(best.layers.len(), 1, "LS solutions are a single config");
    }

    #[test]
    fn mix_problem_searches_dataflow_too() {
        let p = HwProblem::builder(dnn_models::tiny_cnn())
            .mix_dataflow()
            .constraint(ConstraintKind::Area, PlatformClass::Iot)
            .build();
        let r = run_rl_search(
            &p,
            AlgorithmKind::Reinforce,
            SearchBudget { epochs: 60 },
            31,
        );
        if let Some(best) = &r.best {
            // At least the assignment is well-formed with per-layer dataflows.
            assert_eq!(best.layers.len(), p.model().len());
        }
    }
}
