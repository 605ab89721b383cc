use maestro::{Dataflow, DesignPoint};
use rl_core::{Env, Step};
use serde::{Deserialize, Serialize};

use crate::{Assignment, HwProblem, LayerAssignment};

/// Reward-shaping options (Eq. 2 and §III-E). The defaults reproduce the
/// paper; the flags exist for the reward ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Subtract the running `P_min` baseline (keeps rewards positive and
    /// magnifies relative differences). Disabling reverts to raw `-cost`
    /// rewards.
    pub use_pmin_baseline: bool,
    /// On constraint violation, penalize with the negated accumulated
    /// episode reward (the paper's scale-aware penalty). Disabling uses a
    /// constant penalty instead (the threshold-penalty strawman of §III-E).
    pub accumulated_penalty: bool,
    /// Constant penalty used when `accumulated_penalty` is off.
    pub constant_penalty: f32,
}

impl Default for RewardConfig {
    fn default() -> Self {
        RewardConfig {
            use_pmin_baseline: true,
            accumulated_penalty: true,
            constant_penalty: -1.0,
        }
    }
}

/// The ConfuciuX MDP (§III-A/B/C): one step per layer; the agent picks a
/// (PE level, buffer level) pair — plus a dataflow in MIX mode — and the
/// environment returns the shaped reward from the cost model, terminating
/// early on budget violation.
///
/// Observations follow Eq. 1: `(K, C, Y, X, R, S, T, A^PE, A^Buf, t)`
/// normalized to `[-1, 1]`.
///
/// For Layer-Sequential problems the episode collapses to a single step:
/// the action pair selects the one uniform configuration shared by every
/// layer, and the reward reflects the whole-model cost under LS accounting
/// (worst-layer constraint, summed objective).
///
/// The environment owns a handle to its problem ([`HwProblem`] is a
/// cheap `Arc`-backed clone), so an `HwEnv` is `'static` and can live in
/// a worker thread or server registry independent of the stack frame
/// that built the problem.
#[derive(Debug)]
pub struct HwEnv {
    problem: HwProblem,
    reward_cfg: RewardConfig,
    shape_max: [f64; 6],
    // Episode state. `cost` and `consumed` are the LP sums of the layers
    // assigned so far, added in layer order.
    t: usize,
    cost: f64,
    consumed: f64,
    episode_rewards: Vec<f32>,
    partial: Vec<LayerAssignment>,
    prev_action: (usize, usize),
    done: bool,
    outcome: Option<Assignment>,
    // Cross-episode reward state: the worst (largest) layer cost ever seen,
    // i.e. `-P_min` in the paper's notation.
    worst_layer_cost: f64,
}

impl HwEnv {
    /// Creates an environment over `problem`.
    pub fn new(problem: &HwProblem) -> Self {
        Self::with_reward(problem, RewardConfig::default())
    }

    /// Creates an environment with custom reward shaping.
    pub fn with_reward(problem: &HwProblem, reward_cfg: RewardConfig) -> Self {
        HwEnv {
            shape_max: problem.shape_maxima(),
            problem: problem.clone(),
            reward_cfg,
            t: 0,
            cost: 0.0,
            consumed: 0.0,
            episode_rewards: Vec::new(),
            partial: Vec::new(),
            prev_action: (0, 0),
            done: true,
            outcome: None,
            worst_layer_cost: 0.0,
        }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &HwProblem {
        &self.problem
    }

    /// The last completed episode's feasible assignment, if any.
    pub fn last_outcome(&self) -> Option<&Assignment> {
        self.outcome.as_ref()
    }

    /// The environment's cross-episode reward state: the worst (largest)
    /// per-layer cost observed so far (`-P_min` in the paper's notation),
    /// which scales the shaped rewards. Everything else in the
    /// environment resets at each episode; this is the one value a search
    /// checkpoint must persist for resumed rollouts to see identical
    /// rewards.
    pub fn reward_state(&self) -> f64 {
        self.worst_layer_cost
    }

    /// Restores cross-episode reward state captured by
    /// [`HwEnv::reward_state`].
    pub fn restore_reward_state(&mut self, worst_layer_cost: f64) {
        self.worst_layer_cost = worst_layer_cost;
    }

    /// Whether the current episode has ended (also true before the first
    /// [`Env::reset`]).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Index of the layer the next [`Env::step`] will assign (equals the
    /// number of steps taken this episode).
    pub fn step_index(&self) -> usize {
        self.t
    }

    /// Decodes one sub-action tuple into the layer assignment the next
    /// step would evaluate (no evaluation happens here; [`VecHwEnv`]
    /// uses this to pre-batch the cost queries of a synchronized step).
    ///
    /// [`VecHwEnv`]: crate::VecHwEnv
    ///
    /// # Panics
    ///
    /// Panics if the tuple arity or an index is out of range.
    pub fn decode_action(&self, actions: &[usize]) -> LayerAssignment {
        let expected = if self.problem.is_mix() { 3 } else { 2 };
        assert_eq!(actions.len(), expected, "wrong number of sub-actions");
        let space = self.problem.actions();
        let dataflow = if self.problem.is_mix() {
            Dataflow::from_index(actions[2]).expect("dataflow index in range")
        } else {
            self.problem.dataflow().expect("fixed dataflow")
        };
        LayerAssignment {
            dataflow,
            point: DesignPoint::new(space.pe(actions[0]), space.tile(actions[1]))
                .expect("levels are positive"),
        }
    }

    fn observation(&self) -> Vec<f32> {
        let n = self.problem.model().len();
        let layer = &self.problem.model().layers()[self.t.min(n - 1)];
        let levels = self.problem.actions().levels() as f64;
        let norm = |v: f64, max: f64| -> f32 { (2.0 * (v / max) - 1.0) as f32 };
        let mut obs = vec![
            norm(layer.k() as f64, self.shape_max[0]),
            norm(layer.c() as f64, self.shape_max[1]),
            norm(layer.y() as f64, self.shape_max[2]),
            norm(layer.x() as f64, self.shape_max[3]),
            norm(layer.r() as f64, self.shape_max[4]),
            norm(layer.s() as f64, self.shape_max[5]),
            norm(layer.kind().type_id() as f64, 2.0),
            norm(self.prev_action.0 as f64, (levels - 1.0).max(1.0)),
            norm(self.prev_action.1 as f64, (levels - 1.0).max(1.0)),
            norm(self.t as f64, (n as f64 - 1.0).max(1.0)),
        ];
        if self.problem.is_mix() {
            // Remaining-budget fraction helps the MIX agent arbitrate the
            // larger joint space.
            let remaining = 1.0 - self.consumed / self.problem.budget();
            obs.push(norm(remaining.clamp(0.0, 1.0), 1.0));
        }
        obs
    }

    /// Single-step LS episode: the chosen pair is the uniform whole-model
    /// configuration. `evaluated` must be exactly
    /// `problem.evaluate_ls(la.dataflow, la.point)`; the vectorized
    /// environment passes results straight out of a fused
    /// [`HwProblem::evaluate_ls_batch`] (bit-identical by that method's
    /// contract) so a synchronized step never prices them twice.
    pub(crate) fn step_ls_with(
        &mut self,
        la: LayerAssignment,
        evaluated: Option<Assignment>,
    ) -> rl_core::Step {
        debug_assert!(!self.done, "step on a finished episode");
        self.done = true;
        self.t = 1;
        self.partial.push(la);
        match evaluated {
            Some(assignment) => {
                let cost = assignment.cost;
                self.consumed = assignment.constraint_used;
                self.outcome = Some(assignment);
                self.worst_layer_cost = self.worst_layer_cost.max(cost);
                let reward = if self.reward_cfg.use_pmin_baseline {
                    (self.worst_layer_cost - cost) as f32
                } else {
                    -cost as f32
                };
                self.episode_rewards.push(reward);
                rl_core::Step {
                    obs: self.observation(),
                    reward,
                    done: true,
                }
            }
            None => {
                let penalty = if self.reward_cfg.accumulated_penalty {
                    // No prior rewards in a one-step episode: fall back to
                    // a fixed fraction of the worst cost scale seen.
                    -(self.worst_layer_cost.max(1.0) as f32)
                } else {
                    self.reward_cfg.constant_penalty
                };
                self.episode_rewards.push(penalty);
                rl_core::Step {
                    obs: self.observation(),
                    reward: penalty,
                    done: true,
                }
            }
        }
    }
}

impl Env for HwEnv {
    fn obs_dim(&self) -> usize {
        if self.problem.is_mix() {
            11
        } else {
            10
        }
    }

    fn action_dims(&self) -> Vec<usize> {
        let l = self.problem.actions().levels();
        if self.problem.is_mix() {
            vec![l, l, Dataflow::ALL.len()]
        } else {
            vec![l, l]
        }
    }

    fn horizon(&self) -> usize {
        match self.problem.deployment() {
            crate::Deployment::LayerPipelined => self.problem.model().len(),
            crate::Deployment::LayerSequential => 1,
        }
    }

    fn reset(&mut self) -> Vec<f32> {
        self.t = 0;
        self.cost = 0.0;
        self.consumed = 0.0;
        self.episode_rewards.clear();
        self.partial.clear();
        self.prev_action = (0, 0);
        self.done = false;
        self.outcome = None;
        self.observation()
    }

    /// Prices the step once: one layer query under LP, one whole-model
    /// configuration under LS.
    fn step(&mut self, actions: &[usize]) -> Step {
        assert!(!self.done, "step called after episode end");
        let la = self.decode_action(actions);
        match self.problem.deployment() {
            crate::Deployment::LayerPipelined => {
                let report = self.problem.evaluate_layer(self.t, la.dataflow, la.point);
                self.step_lp_with(actions, la, &report)
            }
            crate::Deployment::LayerSequential => {
                let evaluated = self.problem.evaluate_ls(la.dataflow, la.point);
                self.step_ls_with(la, evaluated)
            }
        }
    }

    fn outcome_cost(&self) -> Option<f64> {
        self.outcome.as_ref().map(|a| a.cost)
    }
}

impl HwEnv {
    /// LP step with an already-evaluated cost report for
    /// `(self.step_index(), decode_action(actions))`. The vectorized
    /// environment passes reports straight out of a fused
    /// [`HwProblem::evaluate_layer_batch`] so a synchronized step prices
    /// all replicas in one engine batch instead of pricing each report
    /// again.
    pub(crate) fn step_lp_with(
        &mut self,
        actions: &[usize],
        la: LayerAssignment,
        report: &maestro::CostReport,
    ) -> Step {
        debug_assert!(!self.done, "step on a finished episode");
        let (layer_cost, layer_constraint) = self.problem.layer_terms(report);
        self.cost += layer_cost;
        self.consumed += layer_constraint;
        self.partial.push(la);
        self.prev_action = (actions[0], actions[1]);

        if self.consumed > self.problem.budget() {
            // Constraint violated: terminate with the scale-aware penalty.
            self.done = true;
            let penalty = if self.reward_cfg.accumulated_penalty {
                -self.episode_rewards.iter().sum::<f32>()
            } else {
                self.reward_cfg.constant_penalty
            };
            self.episode_rewards.push(penalty);
            return Step {
                obs: self.observation(),
                reward: penalty,
                done: true,
            };
        }

        // Feasible step: reward per Eq. 2 with P_t = -cost.
        self.worst_layer_cost = self.worst_layer_cost.max(layer_cost);
        let reward = if self.reward_cfg.use_pmin_baseline {
            (self.worst_layer_cost - layer_cost) as f32
        } else {
            -layer_cost as f32
        };
        self.episode_rewards.push(reward);
        self.t += 1;
        if self.t >= self.problem.model().len() {
            // The episode's sums are `HwProblem::evaluate_lp`'s, term for
            // term and in the same order, and a completed episode never
            // exceeded the budget: the outcome is its assignment, with no
            // layer priced again.
            self.done = true;
            self.outcome = Some(Assignment {
                layers: self.partial.clone(),
                cost: self.cost,
                constraint_used: self.consumed,
            });
        }
        Step {
            obs: self.observation(),
            reward,
            done: self.done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintKind, Deployment, Objective, PlatformClass};

    fn problem(platform: PlatformClass) -> HwProblem {
        HwProblem::builder(dnn_models::tiny_cnn())
            .dataflow(Dataflow::NvdlaStyle)
            .objective(Objective::Latency)
            .constraint(ConstraintKind::Area, platform)
            .deployment(Deployment::LayerPipelined)
            .build()
    }

    #[test]
    fn observations_are_normalized() {
        let p = problem(PlatformClass::Unlimited);
        let mut env = HwEnv::new(&p);
        let obs = env.reset();
        assert_eq!(obs.len(), 10);
        assert!(obs.iter().all(|v| (-1.0..=1.0).contains(v)), "{obs:?}");
    }

    #[test]
    fn full_episode_with_min_actions_is_feasible() {
        let p = problem(PlatformClass::IotX);
        let mut env = HwEnv::new(&p);
        env.reset();
        let mut steps = 0;
        loop {
            let s = env.step(&[0, 0]);
            steps += 1;
            if s.done {
                break;
            }
        }
        assert_eq!(steps, p.model().len());
        assert!(env.outcome_cost().is_some());
        let outcome = env.last_outcome().unwrap();
        assert!(outcome.constraint_used <= p.budget());
    }

    #[test]
    fn violation_terminates_early_with_negative_penalty() {
        let p = problem(PlatformClass::IotX);
        let mut env = HwEnv::new(&p);
        env.reset();
        let top = p.actions().levels() - 1;
        let mut last = None;
        for _ in 0..p.model().len() {
            let s = env.step(&[top, top]);
            let done = s.done;
            last = Some(s);
            if done {
                break;
            }
        }
        let last = last.unwrap();
        assert!(last.done);
        assert!(
            env.outcome_cost().is_none(),
            "violated episode has no outcome"
        );
        assert!(last.reward <= 0.0, "penalty must not be positive");
    }

    #[test]
    fn rewards_are_nonnegative_while_feasible() {
        let p = problem(PlatformClass::Unlimited);
        let mut env = HwEnv::new(&p);
        env.reset();
        loop {
            let s = env.step(&[3, 3]);
            if !s.done {
                assert!(s.reward >= 0.0);
            }
            if s.done {
                break;
            }
        }
    }

    #[test]
    fn pmin_baseline_rewards_cheaper_layers_more() {
        // With the baseline, a layer whose cost equals the worst ever seen
        // earns 0; cheaper layers earn positive reward.
        let p = problem(PlatformClass::Unlimited);
        let mut env = HwEnv::new(&p);
        env.reset();
        let first = env.step(&[0, 0]).reward; // establishes the baseline
        assert_eq!(first, 0.0);
        let second = env.step(&[5, 3]).reward;
        assert!(second >= 0.0);
    }

    #[test]
    fn mix_mode_exposes_three_heads_and_extra_obs() {
        let p = HwProblem::builder(dnn_models::tiny_cnn())
            .mix_dataflow()
            .build();
        let mut env = HwEnv::new(&p);
        assert_eq!(env.action_dims(), vec![12, 12, 3]);
        let obs = env.reset();
        assert_eq!(obs.len(), 11);
        let s = env.step(&[0, 0, 1]); // Eyeriss-style on layer 0
        assert!(!s.done);
    }

    #[test]
    fn constant_penalty_mode_applies_configured_value() {
        let p = problem(PlatformClass::IotX);
        let mut env = HwEnv::with_reward(
            &p,
            RewardConfig {
                accumulated_penalty: false,
                constant_penalty: -42.0,
                ..RewardConfig::default()
            },
        );
        env.reset();
        let top = p.actions().levels() - 1;
        let mut last_reward = 0.0;
        for _ in 0..p.model().len() {
            let s = env.step(&[top, top]);
            last_reward = s.reward;
            if s.done {
                break;
            }
        }
        assert_eq!(last_reward, -42.0);
    }
}
