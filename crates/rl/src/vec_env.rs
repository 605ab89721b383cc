//! Vectorized environments: N synchronized replicas of an [`Env`] stepped
//! in lockstep, so each synchronized step can price its N cost queries as
//! one batch (the same lever batched GA generations already pull).
//!
//! This is the only rollout path: a single environment is the one-replica
//! case (see [`Agent::train_epoch`]).
//!
//! The determinism contract is **one RNG stream per replica**: replica `i`
//! is driven exclusively by `rngs[i]`, so any `n_envs` is a pure function
//! of the seed set (independent of thread count, scheduling, or which
//! replicas finish first).
//!
//! [`Agent::train_epoch`]: crate::Agent::train_epoch

use tinynn::{LstmState, Rng};

use crate::{Env, PolicyNet, PolicyScratch, PolicyStep, Step};

/// N replicas of an episodic MDP stepped in lockstep.
///
/// Implementations may fuse the per-replica cost queries of one
/// synchronized [`VecEnv::step_all`] into a single batched evaluation; the
/// per-replica *results* must stay bit-identical to stepping each replica
/// alone (batching is a scheduling detail, never a semantic one).
///
/// Two access styles coexist:
///
/// * **Synchronized** — [`VecEnv::reset_first`] + [`VecEnv::step_all`],
///   used by batched rollout collection.
/// * **Per-replica** — [`VecEnv::reset_one`] + [`VecEnv::step_one`], used
///   through [`EnvSlot`] by agents that update between episodes (the
///   off-policy DDPG/SAC/TD3 family).
pub trait VecEnv {
    /// Number of replicas.
    fn n_envs(&self) -> usize;

    /// Width of the observation vector (identical across replicas).
    fn obs_dim(&self) -> usize;

    /// Cardinality of each discrete sub-action (identical across replicas).
    fn action_dims(&self) -> Vec<usize>;

    /// Maximum episode length.
    fn horizon(&self) -> usize;

    /// Starts a new episode in replicas `0..k` and returns their initial
    /// observations. Replicas `k..` are left untouched (a partial final
    /// round of a fixed epoch budget uses `k < n_envs`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > n_envs()`.
    fn reset_first(&mut self, k: usize) -> Vec<Vec<f32>>;

    /// Starts a new episode in every replica.
    fn reset_all(&mut self) -> Vec<Vec<f32>> {
        self.reset_first(self.n_envs())
    }

    /// Applies one synchronized step: `actions[i]` is replica `i`'s
    /// sub-action tuple. Replicas whose episode already ended are skipped
    /// (their `actions` entry is ignored — by convention the caller passes
    /// an empty tuple) and report `Step { obs: vec![], reward: 0.0,
    /// done: true }`.
    ///
    /// # Panics
    ///
    /// Panics if `actions.len() > n_envs()` or a live replica's tuple is
    /// malformed.
    fn step_all(&mut self, actions: &[Vec<usize>]) -> Vec<Step>;

    /// Starts a new episode in replica `i` only (per-replica access).
    fn reset_one(&mut self, i: usize) -> Vec<f32>;

    /// Steps replica `i` only (per-replica access, no batching).
    fn step_one(&mut self, i: usize, actions: &[usize]) -> Step;

    /// Whether replica `i`'s current episode has ended.
    fn is_done(&self, i: usize) -> bool;

    /// Replica `i`'s feasible full-model cost after its episode ended (see
    /// [`Env::outcome_cost`]).
    fn outcome_cost(&self, i: usize) -> Option<f64>;
}

/// Adapter exposing one replica of a [`VecEnv`] as a plain [`Env`], so an
/// agent can step the replicas one at a time.
pub struct EnvSlot<'a> {
    venv: &'a mut (dyn VecEnv + 'a),
    index: usize,
}

impl<'a> EnvSlot<'a> {
    /// Wraps replica `index` of `venv`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn new(venv: &'a mut (dyn VecEnv + 'a), index: usize) -> Self {
        assert!(index < venv.n_envs(), "replica index out of range");
        EnvSlot { venv, index }
    }
}

impl Env for EnvSlot<'_> {
    fn obs_dim(&self) -> usize {
        self.venv.obs_dim()
    }

    fn action_dims(&self) -> Vec<usize> {
        self.venv.action_dims()
    }

    fn horizon(&self) -> usize {
        self.venv.horizon()
    }

    fn reset(&mut self) -> Vec<f32> {
        self.venv.reset_one(self.index)
    }

    fn step(&mut self, actions: &[usize]) -> Step {
        self.venv.step_one(self.index, actions)
    }

    fn outcome_cost(&self) -> Option<f64> {
        self.venv.outcome_cost(self.index)
    }
}

/// The trivial vectorizer: N independent copies of any [`Env`], stepped in
/// a loop with no batching. The reference implementation of the [`VecEnv`]
/// semantics (and the test double for agent-side rollout code).
#[derive(Debug, Clone)]
pub struct EnvVec<E: Env> {
    envs: Vec<E>,
    done: Vec<bool>,
}

impl<E: Env> EnvVec<E> {
    /// Wraps the given replicas. All must agree on `obs_dim` and
    /// `action_dims` (horizons may differ; `horizon()` reports the max).
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty or the replicas disagree on dimensions.
    pub fn new(envs: Vec<E>) -> Self {
        assert!(!envs.is_empty(), "need at least one replica");
        let dims = envs[0].action_dims();
        let obs = envs[0].obs_dim();
        for e in &envs[1..] {
            assert_eq!(e.action_dims(), dims, "replica action spaces differ");
            assert_eq!(e.obs_dim(), obs, "replica observation widths differ");
        }
        let done = vec![true; envs.len()];
        EnvVec { envs, done }
    }

    /// Immutable access to replica `i`.
    pub fn env(&self, i: usize) -> &E {
        &self.envs[i]
    }
}

impl<E: Env> VecEnv for EnvVec<E> {
    fn n_envs(&self) -> usize {
        self.envs.len()
    }

    fn obs_dim(&self) -> usize {
        self.envs[0].obs_dim()
    }

    fn action_dims(&self) -> Vec<usize> {
        self.envs[0].action_dims()
    }

    fn horizon(&self) -> usize {
        self.envs.iter().map(Env::horizon).max().unwrap_or(0)
    }

    fn reset_first(&mut self, k: usize) -> Vec<Vec<f32>> {
        assert!(k >= 1 && k <= self.envs.len(), "bad replica count {k}");
        (0..k)
            .map(|i| {
                self.done[i] = false;
                self.envs[i].reset()
            })
            .collect()
    }

    fn step_all(&mut self, actions: &[Vec<usize>]) -> Vec<Step> {
        assert!(actions.len() <= self.envs.len(), "too many action tuples");
        actions
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if self.done[i] {
                    Step {
                        obs: Vec::new(),
                        reward: 0.0,
                        done: true,
                    }
                } else {
                    let step = self.envs[i].step(a);
                    self.done[i] = step.done;
                    step
                }
            })
            .collect()
    }

    fn reset_one(&mut self, i: usize) -> Vec<f32> {
        self.done[i] = false;
        self.envs[i].reset()
    }

    fn step_one(&mut self, i: usize, actions: &[usize]) -> Step {
        let step = self.envs[i].step(actions);
        self.done[i] = step.done;
        step
    }

    fn is_done(&self, i: usize) -> bool {
        self.done[i]
    }

    fn outcome_cost(&self, i: usize) -> Option<f64> {
        self.envs[i].outcome_cost()
    }
}

/// One batch of synchronized episodes collected by
/// [`collect_vec_rollout`]: index `i` of every field belongs to replica
/// `i`, and per-replica lengths equal that replica's episode length.
pub struct VecRollout {
    /// Observation seen before each action.
    pub observations: Vec<Vec<Vec<f32>>>,
    /// Policy decisions (actions, probabilities, backprop caches).
    pub steps: Vec<Vec<PolicyStep>>,
    /// Shaped reward per step.
    pub rewards: Vec<Vec<f32>>,
}

/// Collects one episode per entry of `rngs` by stepping replicas `0..k`
/// of `venv` in lockstep under `policy` (replica `i` sampled from
/// `rngs[i]`). Episodes that terminate early (constraint violation) drop
/// out of the synchronized loop; the rest keep stepping until every
/// episode ends.
///
/// This is every on-policy agent's only rollout. Each synchronized step
/// runs **one** batched backbone+head forward over the live replicas
/// ([`PolicyNet::act_batch`]): policy weights stream through cache once
/// per step instead of once per replica, and replica `i` samples from
/// `rngs[i]` alone, so its episode does not depend on the other replicas.
pub fn collect_vec_rollout(
    policy: &PolicyNet,
    venv: &mut dyn VecEnv,
    rngs: &mut [Rng],
) -> VecRollout {
    let k = rngs.len();
    assert!(k >= 1, "need at least one RNG stream");
    assert!(k <= venv.n_envs(), "more RNG streams than replicas");
    let mut obs = venv.reset_first(k);
    let mut states: Vec<LstmState> = (0..k).map(|_| policy.initial_state()).collect();
    let mut alive = vec![true; k];
    let horizon = venv.horizon();
    let mut rollout = VecRollout {
        observations: (0..k).map(|_| Vec::with_capacity(horizon)).collect(),
        steps: (0..k).map(|_| Vec::with_capacity(horizon)).collect(),
        rewards: (0..k).map(|_| Vec::with_capacity(horizon)).collect(),
    };
    let mut scratch = PolicyScratch::new();
    let mut live: Vec<usize> = Vec::with_capacity(k);
    while alive.iter().any(|&a| a) {
        live.clear();
        live.extend((0..k).filter(|&i| alive[i]));
        let obs_refs: Vec<&[f32]> = live.iter().map(|&i| obs[i].as_slice()).collect();
        let mut state_refs: Vec<&mut LstmState> = states
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| alive[*i])
            .map(|(_, s)| s)
            .collect();
        let mut rng_refs: Vec<&mut Rng> = rngs
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| alive[*i])
            .map(|(_, r)| r)
            .collect();
        let steps = policy.act_batch(&obs_refs, &mut state_refs, &mut rng_refs, &mut scratch);
        let mut actions: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (&i, step) in live.iter().zip(steps) {
            rollout.observations[i].push(obs[i].clone());
            actions[i] = step.actions.clone();
            rollout.steps[i].push(step);
        }
        let results = venv.step_all(&actions);
        for (i, result) in results.into_iter().enumerate() {
            if !alive[i] {
                continue;
            }
            rollout.rewards[i].push(result.reward);
            if result.done {
                alive[i] = false;
            } else {
                obs[i] = result.obs;
            }
        }
    }
    rollout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::PatternEnv;
    use crate::PolicyBackboneKind;
    use tinynn::SeedableRng;

    fn small_policy(env: &PatternEnv, seed: u64) -> PolicyNet {
        let mut rng = Rng::seed_from_u64(seed);
        PolicyNet::new(
            env.obs_dim(),
            &env.action_dims(),
            PolicyBackboneKind::Mlp,
            8,
            &mut rng,
        )
    }

    #[test]
    fn env_vec_steps_replicas_independently() {
        let mut venv = EnvVec::new(vec![
            PatternEnv::new(3, vec![2]),
            PatternEnv::new(3, vec![2]),
        ]);
        let obs = venv.reset_all();
        assert_eq!(obs.len(), 2);
        // Replica 0 plays the target action, replica 1 plays the wrong one.
        let steps = venv.step_all(&[vec![0], vec![1]]);
        assert_eq!(steps[0].reward, 1.0);
        assert_eq!(steps[1].reward, 0.0);
        assert!(!venv.is_done(0));
    }

    #[test]
    fn step_all_skips_finished_replicas() {
        // Different horizons: replica 0 ends after 1 step, replica 1 after 3.
        let mut venv = EnvVec::new(vec![
            PatternEnv::new(1, vec![2]),
            PatternEnv::new(3, vec![2]),
        ]);
        venv.reset_all();
        let first = venv.step_all(&[vec![0], vec![0]]);
        assert!(first[0].done);
        assert!(!first[1].done);
        // Replica 0 is done: its (empty) action entry must be ignored.
        let second = venv.step_all(&[Vec::new(), vec![1]]);
        assert!(second[0].done);
        assert_eq!(second[0].reward, 0.0);
        assert!(!second[1].done);
    }

    #[test]
    fn partial_reset_leaves_trailing_replicas_untouched() {
        let mut venv = EnvVec::new(vec![PatternEnv::new(2, vec![2]); 3]);
        venv.reset_all();
        // Finish every episode.
        while (0..3).any(|i| !venv.is_done(i)) {
            venv.step_all(&[vec![0], vec![0], vec![0]]);
        }
        let obs = venv.reset_first(2);
        assert_eq!(obs.len(), 2);
        assert!(!venv.is_done(0));
        assert!(!venv.is_done(1));
        assert!(venv.is_done(2), "replica 2 was not reset");
    }

    #[test]
    fn env_slot_behaves_like_the_plain_env() {
        let mut plain = PatternEnv::new(4, vec![3]);
        let mut venv = EnvVec::new(vec![PatternEnv::new(4, vec![3]); 2]);
        let mut slot = EnvSlot::new(&mut venv, 1);
        assert_eq!(slot.obs_dim(), plain.obs_dim());
        assert_eq!(slot.action_dims(), plain.action_dims());
        let a = plain.reset();
        let b = slot.reset();
        assert_eq!(a, b);
        for t in 0..4 {
            let sa = plain.step(&[t % 3]);
            let sb = slot.step(&[t % 3]);
            assert_eq!(sa, sb);
        }
        assert_eq!(slot.outcome_cost(), plain.outcome_cost());
    }

    #[test]
    fn single_replica_rollout_matches_serial_episode() {
        // One replica through the collector is an episode stepped by hand
        // with `act`: same policy, same RNG stream, same episode.
        let env = PatternEnv::new(5, vec![3, 2]);
        let policy = small_policy(&env, 11);

        let mut serial_rng = Rng::seed_from_u64(77);
        let mut serial_env = env.clone();
        let mut state = policy.initial_state();
        let mut obs = serial_env.reset();
        let mut serial_actions = Vec::new();
        let mut serial_rewards = Vec::new();
        loop {
            let step = policy.act(&obs, &mut state, &mut serial_rng);
            let result = serial_env.step(&step.actions);
            serial_actions.push(step.actions.clone());
            serial_rewards.push(result.reward);
            if result.done {
                break;
            }
            obs = result.obs;
        }

        let mut venv = EnvVec::new(vec![env]);
        let mut rngs = [Rng::seed_from_u64(77)];
        let rollout = collect_vec_rollout(&policy, &mut venv, &mut rngs);
        let vec_actions: Vec<Vec<usize>> =
            rollout.steps[0].iter().map(|s| s.actions.clone()).collect();
        assert_eq!(vec_actions, serial_actions);
        assert_eq!(rollout.rewards[0], serial_rewards);
    }

    #[test]
    fn multi_replica_rollout_is_deterministic() {
        let mk = || EnvVec::new(vec![PatternEnv::new(4, vec![3, 3]); 3]);
        let policy = small_policy(&PatternEnv::new(4, vec![3, 3]), 5);
        let mut rngs_a: Vec<Rng> = (0..3).map(|i| Rng::seed_from_u64(100 + i)).collect();
        let mut rngs_b: Vec<Rng> = (0..3).map(|i| Rng::seed_from_u64(100 + i)).collect();
        let a = collect_vec_rollout(&policy, &mut mk(), &mut rngs_a);
        let b = collect_vec_rollout(&policy, &mut mk(), &mut rngs_b);
        for i in 0..3 {
            assert_eq!(a.rewards[i], b.rewards[i]);
            let acts = |r: &VecRollout| -> Vec<Vec<usize>> {
                r.steps[i].iter().map(|s| s.actions.clone()).collect()
            };
            assert_eq!(acts(&a), acts(&b));
        }
    }
}
