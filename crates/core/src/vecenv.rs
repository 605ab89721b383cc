//! Vectorized ConfuciuX environment: N replicas of [`HwEnv`] stepped in
//! lockstep, with each synchronized step's N cost queries fused into one
//! [`EvalEngine`](maestro) batch.
//!
//! This is what lets the paper's *main loop* — the Stage-1 RL search —
//! price its queries the way the batched GA/grid/random baselines already
//! do: a synchronized step of N replicas prices its queries through
//! [`HwProblem::evaluate_layer_batch`] (Layer-Pipelined) or
//! [`HwProblem::evaluate_ls_batch`] (Layer-Sequential), one kernel call in
//! which queries shared across replicas are priced once.
//!
//! Determinism: the batch kernel is bit-identical to the scalar model, so
//! every replica steps with exactly the reports a lone [`HwEnv::step`]
//! would have computed. Either way each query is priced once: the engine
//! counts one query per LP step and one per model layer per LS step, and
//! nothing when an episode ends.

use rl_core::{Step, VecEnv};

use crate::{Assignment, Deployment, HwEnv, HwProblem, RewardConfig};

/// N synchronized replicas of [`HwEnv`] over one shared [`HwProblem`].
///
/// Each replica keeps its own episode state *and* its own cross-episode
/// reward baseline (`P_min` in the paper's notation), so replicas are
/// fully independent MDP instances; only the problem is shared.
///
/// Like [`HwEnv`], the vectorized environment owns problem handles, so it
/// is `'static` and can be moved into server worker threads.
#[derive(Debug)]
pub struct VecHwEnv {
    problem: HwProblem,
    envs: Vec<HwEnv>,
}

impl VecHwEnv {
    /// Creates `n_envs` replicas with the paper's default reward shaping.
    ///
    /// # Panics
    ///
    /// Panics if `n_envs == 0`.
    pub fn new(problem: &HwProblem, n_envs: usize) -> Self {
        Self::with_reward(problem, RewardConfig::default(), n_envs)
    }

    /// Creates `n_envs` replicas with custom reward shaping.
    ///
    /// # Panics
    ///
    /// Panics if `n_envs == 0`.
    pub fn with_reward(problem: &HwProblem, reward: RewardConfig, n_envs: usize) -> Self {
        assert!(n_envs >= 1, "need at least one replica");
        VecHwEnv {
            problem: problem.clone(),
            envs: (0..n_envs)
                .map(|_| HwEnv::with_reward(problem, reward))
                .collect(),
        }
    }

    /// The shared problem.
    pub fn problem(&self) -> &HwProblem {
        &self.problem
    }

    /// Immutable access to replica `i`.
    pub fn env(&self, i: usize) -> &HwEnv {
        &self.envs[i]
    }

    /// Replica `i`'s last completed feasible assignment, if any.
    pub fn last_outcome(&self, i: usize) -> Option<&Assignment> {
        self.envs[i].last_outcome()
    }

    /// Per-replica cross-episode reward state (see
    /// [`HwEnv::reward_state`]), in replica order.
    pub fn reward_states(&self) -> Vec<f64> {
        self.envs.iter().map(HwEnv::reward_state).collect()
    }

    /// Restores per-replica reward state captured by
    /// [`VecHwEnv::reward_states`].
    ///
    /// # Panics
    ///
    /// Panics if `states` is not one value per replica.
    pub fn restore_reward_states(&mut self, states: &[f64]) {
        assert_eq!(states.len(), self.envs.len(), "one state per replica");
        for (env, &s) in self.envs.iter_mut().zip(states) {
            env.restore_reward_state(s);
        }
    }

    /// Steps the live replicas through one fused engine batch: decode
    /// every live replica's action, price all the resulting cost queries
    /// at once (duplicates across replicas are priced once), then hand
    /// each replica its own report.
    /// Returns one `(replica, Step)` per live replica, in replica order.
    fn step_live_batched(&mut self, live: &[usize], actions: &[Vec<usize>]) -> Vec<(usize, Step)> {
        let las: Vec<_> = live
            .iter()
            .map(|&i| self.envs[i].decode_action(&actions[i]))
            .collect();
        match self.problem.deployment() {
            Deployment::LayerPipelined => {
                let queries: Vec<_> = live
                    .iter()
                    .zip(&las)
                    .map(|(&i, la)| (self.envs[i].step_index(), la.dataflow, la.point))
                    .collect();
                let reports = self.problem.evaluate_layer_batch(&queries);
                live.iter()
                    .zip(las)
                    .zip(&reports)
                    .map(|((&i, la), report)| {
                        (i, self.envs[i].step_lp_with(&actions[i], la, report))
                    })
                    .collect()
            }
            Deployment::LayerSequential => {
                let configs: Vec<_> = las.iter().map(|la| (la.dataflow, la.point)).collect();
                let results = self.problem.evaluate_ls_batch(&configs);
                live.iter()
                    .zip(las)
                    .zip(results)
                    .map(|((&i, la), result)| (i, self.envs[i].step_ls_with(la, result)))
                    .collect()
            }
        }
    }
}

impl VecEnv for VecHwEnv {
    fn n_envs(&self) -> usize {
        self.envs.len()
    }

    fn obs_dim(&self) -> usize {
        rl_core::Env::obs_dim(&self.envs[0])
    }

    fn action_dims(&self) -> Vec<usize> {
        rl_core::Env::action_dims(&self.envs[0])
    }

    fn horizon(&self) -> usize {
        rl_core::Env::horizon(&self.envs[0])
    }

    fn reset_first(&mut self, k: usize) -> Vec<Vec<f32>> {
        assert!(k >= 1 && k <= self.envs.len(), "bad replica count {k}");
        self.envs[..k].iter_mut().map(rl_core::Env::reset).collect()
    }

    fn step_all(&mut self, actions: &[Vec<usize>]) -> Vec<Step> {
        assert!(actions.len() <= self.envs.len(), "too many action tuples");
        let live: Vec<usize> = (0..actions.len())
            .filter(|&i| !self.envs[i].is_done())
            .collect();
        let mut out: Vec<Step> = vec![
            // Finished replicas report a terminal no-op step.
            Step {
                obs: Vec::new(),
                reward: 0.0,
                done: true,
            };
            actions.len()
        ];
        if live.len() == 1 {
            // A lone live replica steps through `HwEnv::step`, because a
            // singleton batch costs more than the scalar call. Medians of
            // 5 passes on a 2-vCPU x86-64 VM over random levels: one LP
            // query took 122 ns through `evaluate_layer` and 400 ns as a
            // 1-query `evaluate_layer_batch` (MobileNet-V2); one LS
            // configuration (MobileNet-V2, MIX, 52 layers) took 5.8 µs
            // through `evaluate_ls` and 8.5 µs as a 1-config
            // `evaluate_ls_batch`. Every step at `n_envs = 1` takes this
            // branch; wider runs take it once one replica is left alive.
            let i = live[0];
            out[i] = rl_core::Env::step(&mut self.envs[i], &actions[i]);
        } else {
            for (i, step) in self.step_live_batched(&live, actions) {
                out[i] = step;
            }
        }
        out
    }

    fn reset_one(&mut self, i: usize) -> Vec<f32> {
        rl_core::Env::reset(&mut self.envs[i])
    }

    fn step_one(&mut self, i: usize, actions: &[usize]) -> Step {
        rl_core::Env::step(&mut self.envs[i], actions)
    }

    fn is_done(&self, i: usize) -> bool {
        self.envs[i].is_done()
    }

    fn outcome_cost(&self, i: usize) -> Option<f64> {
        rl_core::Env::outcome_cost(&self.envs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintKind, Objective, PlatformClass};
    use rl_core::{Env, EnvVec};

    fn problem(deployment: Deployment) -> HwProblem {
        HwProblem::builder(dnn_models::tiny_cnn())
            .objective(Objective::Latency)
            .constraint(ConstraintKind::Area, PlatformClass::Iot)
            .deployment(deployment)
            .build()
    }

    /// Step bits of a serial episode under a fixed action sequence.
    fn serial_episode(p: &HwProblem, actions: &[usize]) -> Vec<(Vec<f32>, u32, bool)> {
        let mut env = HwEnv::new(p);
        env.reset();
        let mut out = Vec::new();
        loop {
            let s = env.step(actions);
            let done = s.done;
            out.push((s.obs, s.reward.to_bits(), s.done));
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn synchronized_steps_match_serial_replicas_exactly() {
        for deployment in [Deployment::LayerPipelined, Deployment::LayerSequential] {
            let p = problem(deployment);
            // Three replicas playing three different constant policies,
            // including one that violates the budget (top actions on IoT).
            let plays: [Vec<usize>; 3] = [vec![0, 0], vec![3, 2], vec![11, 11]];
            let mut venv = VecHwEnv::new(&p, 3);
            venv.reset_all();
            let mut vec_steps: Vec<Vec<(Vec<f32>, u32, bool)>> = vec![Vec::new(); 3];
            while (0..3).any(|i| !venv.is_done(i)) {
                let actions: Vec<Vec<usize>> = (0..3)
                    .map(|i| {
                        if venv.is_done(i) {
                            Vec::new()
                        } else {
                            plays[i].clone()
                        }
                    })
                    .collect();
                for (i, s) in venv.step_all(&actions).into_iter().enumerate() {
                    if !vec_steps[i].last().is_some_and(|(_, _, done)| *done) {
                        vec_steps[i].push((s.obs, s.reward.to_bits(), s.done));
                    }
                }
            }
            for (i, play) in plays.iter().enumerate() {
                // A fresh problem for the serial reference, which prices
                // every step on its own.
                let fresh = problem(deployment);
                assert_eq!(
                    vec_steps[i],
                    serial_episode(&fresh, play),
                    "replica {i} diverged ({deployment:?})"
                );
            }
        }
    }

    #[test]
    fn single_replica_issues_identical_eval_stats_to_serial() {
        let p_vec = problem(Deployment::LayerPipelined);
        let p_ser = problem(Deployment::LayerPipelined);
        let mut venv = VecHwEnv::new(&p_vec, 1);
        let mut env = HwEnv::new(&p_ser);
        venv.reset_all();
        env.reset();
        loop {
            let a = vec![2, 1];
            let vs = venv.step_all(std::slice::from_ref(&a));
            let ss = env.step(&a);
            assert_eq!(vs[0], ss);
            if ss.done {
                break;
            }
        }
        assert_eq!(
            p_vec.eval_stats(),
            p_ser.eval_stats(),
            "n_envs=1 must not issue extra queries"
        );
    }

    /// Plays 24 episodes of capped random actions through `venv` over `p`
    /// (tiny_cnn on IoT: some episodes blow the budget, others complete)
    /// and checks what each step costs the engine and what each episode
    /// leaves as its outcome.
    fn assert_priced_once<V: VecEnv>(p: &HwProblem, mut venv: V, replica: fn(&V, usize) -> &HwEnv) {
        use rand::Rng as _;
        use tinynn::{Rng, SeedableRng};
        let n = venv.n_envs();
        let what = format!("{:?} with {n} replicas", p.deployment());
        let per_step = match p.deployment() {
            Deployment::LayerPipelined => 1,
            Deployment::LayerSequential => p.model().len() as u64,
        };
        let reference = problem(p.deployment());
        let mut rng = Rng::seed_from_u64(17);
        let (mut completed, mut cut_short) = (0, 0);
        for episode in 0..24 {
            let cap = [3, 6, 12][episode % 3];
            venv.reset_all();
            let mut layers = vec![Vec::new(); n];
            while (0..n).any(|i| !venv.is_done(i)) {
                let mut actions = vec![Vec::new(); n];
                for i in (0..n).filter(|&i| !venv.is_done(i)) {
                    actions[i] = vec![rng.gen_range(0..cap), rng.gen_range(0..cap)];
                    layers[i].push(replica(&venv, i).decode_action(&actions[i]));
                }
                let live = actions.iter().filter(|a| !a.is_empty()).count() as u64;
                let before = p.eval_stats();
                venv.step_all(&actions);
                let queries = p.eval_stats().since(before).total();
                assert_eq!(queries, per_step * live, "{what}: queries of one step");
            }
            for (i, layers) in layers.iter().enumerate() {
                let outcome = replica(&venv, i).last_outcome();
                let want = match p.deployment() {
                    Deployment::LayerPipelined if layers.len() < p.model().len() => {
                        cut_short += 1;
                        assert!(
                            outcome.is_none(),
                            "{what}: a cut-short episode has no outcome"
                        );
                        continue;
                    }
                    Deployment::LayerPipelined => reference.evaluate_lp(layers),
                    Deployment::LayerSequential => {
                        reference.evaluate_ls(layers[0].dataflow, layers[0].point)
                    }
                };
                completed += usize::from(want.is_some());
                let bits = |a: Option<&Assignment>| {
                    a.map(|a| (a.cost.to_bits(), a.constraint_used.to_bits()))
                };
                assert_eq!(bits(outcome), bits(want.as_ref()), "{what}");
            }
        }
        assert!(completed > 0, "{what}: no feasible episode");
        if p.deployment() == Deployment::LayerPipelined {
            assert!(cut_short > 0, "{what}: no episode blew the budget");
        }
    }

    #[test]
    fn each_layer_is_priced_once_per_episode() {
        for deployment in [Deployment::LayerPipelined, Deployment::LayerSequential] {
            // A plain `HwEnv`, stepped through the trivial vectorizer.
            let p = problem(deployment);
            assert_priced_once(&p, EnvVec::new(vec![HwEnv::new(&p)]), EnvVec::env);
            for n_envs in [1, 3] {
                let p = problem(deployment);
                assert_priced_once(&p, VecHwEnv::new(&p, n_envs), VecHwEnv::env);
            }
        }
    }

    #[test]
    fn replicas_keep_independent_pmin_baselines() {
        // Each replica establishes its own `P_min` baseline on layer 0
        // (one expensive, one cheap config); the step-2 rewards for a
        // *shared* action must then match each replica's own baseline
        // exactly, proving no cross-replica reward state.
        let p = HwProblem::builder(dnn_models::tiny_cnn())
            .objective(Objective::Latency)
            .constraint(ConstraintKind::Area, PlatformClass::Unlimited)
            .deployment(Deployment::LayerPipelined)
            .build();
        let mut venv = VecHwEnv::new(&p, 2);
        venv.reset_all();
        let plays = [vec![0usize, 0], vec![7, 5]];
        let first = venv.step_all(&plays);
        assert_eq!(first[0].reward, 0.0, "first step establishes baseline");
        assert_eq!(first[1].reward, 0.0, "first step establishes baseline");
        let b: Vec<f64> = plays
            .iter()
            .map(|a| p.layer_cost(0, venv.env(0).decode_action(a)))
            .collect();
        assert_ne!(b[0], b[1], "baselines must actually diverge");
        let common = vec![3usize, 2];
        let c1 = p.layer_cost(1, venv.env(0).decode_action(&common));
        let second = venv.step_all(&[common.clone(), common]);
        for i in 0..2 {
            assert_eq!(
                second[i].reward,
                (b[i].max(c1) - c1) as f32,
                "replica {i} must reward against its own baseline"
            );
        }
    }

    #[test]
    fn outcome_and_dims_delegate_to_replicas() {
        let p = problem(Deployment::LayerSequential);
        let mut venv = VecHwEnv::new(&p, 2);
        assert_eq!(VecEnv::obs_dim(&venv), 10);
        assert_eq!(VecEnv::horizon(&venv), 1);
        venv.reset_all();
        venv.step_all(&[vec![0, 0], vec![11, 11]]);
        assert!(venv.is_done(0) && venv.is_done(1), "LS episodes are 1 step");
        assert!(venv.outcome_cost(0).is_some(), "min pair fits IoT");
        assert_eq!(
            venv.outcome_cost(0),
            venv.last_outcome(0).map(|a| a.cost),
            "cost accessor and assignment agree"
        );
    }
}
