use serde::{Deserialize, Serialize};
use tinynn::{Adam, Matrix, Rng};

use crate::{
    collect_vec_rollout, discounted_returns, standardize, Agent, Env, EpochReport,
    PolicyBackboneKind, PolicyNet, PolicyStep, VecEnv,
};

/// Hyper-parameters for [`Reinforce`], the paper's chosen algorithm
/// (actor-only policy gradient, §III-A1).
#[derive(Debug, Clone, PartialEq)]
pub struct ReinforceConfig {
    /// Discount factor `d` (paper default 0.9).
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Entropy-bonus coefficient.
    pub entropy_beta: f32,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Policy backbone (the paper's default is the RNN).
    pub backbone: PolicyBackboneKind,
    /// Hidden width (paper: one LSTM layer of size 128).
    pub hidden: usize,
}

impl Default for ReinforceConfig {
    fn default() -> Self {
        ReinforceConfig {
            gamma: 0.9,
            lr: 3e-3,
            entropy_beta: 1e-2,
            max_grad_norm: 5.0,
            backbone: PolicyBackboneKind::Rnn,
            hidden: 128,
        }
    }
}

/// REINFORCE (Sutton et al., 2000): Monte-Carlo policy gradient with no
/// critic. Returns are discounted and standardized per episode, exactly the
/// reward treatment described in §III-E of the paper.
#[derive(Debug, Clone)]
pub struct Reinforce {
    policy: PolicyNet,
    opt: Adam,
    config: ReinforceConfig,
    /// Running return baseline for one-step episodes (LS mode), where
    /// per-episode standardization degenerates.
    ema_return: Option<f32>,
}

impl Reinforce {
    /// Creates an agent for an environment with the given observation width
    /// and per-head action cardinalities.
    pub fn new(
        obs_dim: usize,
        action_dims: Vec<usize>,
        config: ReinforceConfig,
        rng: &mut Rng,
    ) -> Self {
        let policy = PolicyNet::new(obs_dim, &action_dims, config.backbone, config.hidden, rng);
        Reinforce {
            policy,
            opt: Adam::new(config.lr),
            config,
            ema_return: None,
        }
    }

    /// The underlying policy (e.g. for greedy evaluation after training).
    pub fn policy(&self) -> &PolicyNet {
        &self.policy
    }

    /// Runs one greedy (argmax) episode and returns the action sequence.
    pub fn greedy_episode(&self, env: &mut dyn Env) -> Vec<Vec<usize>> {
        let mut state = self.policy.initial_state();
        let mut obs = env.reset();
        let mut actions = Vec::new();
        loop {
            let step = self.policy.act_greedy(&obs, &mut state);
            actions.push(step.actions.clone());
            let result = env.step(&step.actions);
            if result.done {
                break;
            }
            obs = result.obs;
        }
        actions
    }

    /// The policy-gradient update for one collected episode.
    fn update_episode(
        &mut self,
        steps: &[PolicyStep],
        rewards: &[f32],
        feasible_cost: Option<f64>,
    ) -> EpochReport {
        let returns = discounted_returns(rewards, self.config.gamma);
        let coefs = if returns.len() == 1 {
            // One-step episode: use an EMA baseline instead of per-episode
            // standardization (which would zero the gradient).
            let baseline = self.ema_return.unwrap_or(returns[0]);
            self.ema_return = Some(0.9 * baseline + 0.1 * returns[0]);
            let scale = baseline.abs().max(1.0);
            vec![(returns[0] - baseline) / scale]
        } else {
            standardize(&returns)
        };
        if coefs.iter().any(|c| c.abs() > 0.0) {
            self.policy
                .backward_episode(steps, &coefs, self.config.entropy_beta, None, None);
            self.policy
                .apply_update(&mut self.opt, self.config.max_grad_norm);
        }
        EpochReport {
            episode_reward: rewards.iter().sum(),
            feasible_cost,
            steps: steps.len(),
        }
    }
}

/// The serializable training state of a [`Reinforce`] agent: everything
/// [`Agent::train_epochs_vec`] mutates. Weights and Adam moments are finite in
/// any run that hasn't already diverged (gradients are norm-clipped), so
/// the f32 ⇄ f64 JSON round trip is exact; the EMA baseline is stored as
/// raw bits anyway since it feeds the next update directly.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ReinforceState {
    policy: PolicyNet,
    opt: Adam,
    ema_return_bits: Option<u32>,
}

impl Agent for Reinforce {
    fn train_epochs_vec(&mut self, venv: &mut dyn VecEnv, rngs: &mut [Rng]) -> Vec<EpochReport> {
        let rollout = collect_vec_rollout(&self.policy, venv, rngs);
        rollout
            .steps
            .iter()
            .zip(&rollout.rewards)
            .enumerate()
            .map(|(i, (steps, rewards))| self.update_episode(steps, rewards, venv.outcome_cost(i)))
            .collect()
    }

    fn save_state(&self) -> Option<serde::Value> {
        let state = ReinforceState {
            policy: self.policy.clone(),
            opt: self.opt.clone(),
            ema_return_bits: self.ema_return.map(f32::to_bits),
        };
        Some(serde::Serialize::to_value(&state))
    }

    fn load_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let mut state: ReinforceState =
            serde::Deserialize::from_value(state).map_err(|e| format!("bad snapshot: {e:?}"))?;
        if state.policy.obs_dim() != self.policy.obs_dim()
            || state.policy.action_dims() != self.policy.action_dims()
        {
            return Err(format!(
                "snapshot architecture mismatch: obs {} heads {:?} vs obs {} heads {:?}",
                state.policy.obs_dim(),
                state.policy.action_dims(),
                self.policy.obs_dim(),
                self.policy.action_dims(),
            ));
        }
        check_param_shapes(&mut state.policy, &mut self.policy)?;
        self.policy = state.policy;
        self.opt = state.opt;
        self.ema_return = state.ema_return_bits.map(f32::from_bits);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "REINFORCE"
    }

    fn param_count(&self) -> usize {
        self.policy.param_count()
    }
}

/// Checks a snapshot's policy parameters against the agent's own: the same
/// count, every weight and gradient of the agent's shape, and every Adam
/// moment 0×0 or of its weight's shape. A snapshot of another hidden width
/// or with a stray moment shape would otherwise load, and panic in the
/// first update.
fn check_param_shapes(snapshot: &mut PolicyNet, own: &mut PolicyNet) -> Result<(), String> {
    let (theirs, ours) = (snapshot.params_mut(), own.params_mut());
    if theirs.len() != ours.len() {
        return Err(format!(
            "snapshot parameter mismatch: {} parameters vs the agent's {}",
            theirs.len(),
            ours.len()
        ));
    }
    for (i, (p, q)) in theirs.iter().zip(&ours).enumerate() {
        let shape = q.w.shape();
        let moment = |m: &Matrix| m.shape() == (0, 0) || m.shape() == shape;
        if p.w.shape() != shape || p.g.shape() != shape || !moment(&p.m) || !moment(&p.v) {
            return Err(format!(
                "snapshot parameter mismatch: parameter {i} has w {:?} g {:?} m {:?} v {:?} \
                 vs the agent's {shape:?}",
                p.w.shape(),
                p.g.shape(),
                p.m.shape(),
                p.v.shape(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{final_quarter_reward, PatternEnv};
    use tinynn::SeedableRng;

    #[test]
    fn learns_the_pattern_task() {
        let mut rng = Rng::seed_from_u64(7);
        let mut env = PatternEnv::new(4, vec![3, 3]);
        let config = ReinforceConfig {
            hidden: 32,
            lr: 1e-2,
            ..ReinforceConfig::default()
        };
        let mut agent = Reinforce::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let final_reward = final_quarter_reward(&mut agent, &mut env, 400, &mut rng);
        // Random play earns 4/9 ≈ 0.44; require clear learning.
        assert!(final_reward > 1.6, "final reward {final_reward}");
    }

    #[test]
    fn mlp_backbone_also_learns() {
        let mut rng = Rng::seed_from_u64(8);
        let mut env = PatternEnv::new(3, vec![4]);
        let config = ReinforceConfig {
            backbone: PolicyBackboneKind::Mlp,
            hidden: 32,
            lr: 1e-2,
            ..ReinforceConfig::default()
        };
        let mut agent = Reinforce::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let final_reward = final_quarter_reward(&mut agent, &mut env, 400, &mut rng);
        assert!(final_reward > 1.5, "final reward {final_reward}");
    }

    #[test]
    fn saved_state_resumes_training_bit_identically() {
        let mut rng = Rng::seed_from_u64(11);
        let mut env = PatternEnv::new(4, vec![3, 3]);
        let config = ReinforceConfig {
            hidden: 16,
            ..ReinforceConfig::default()
        };
        let mut agent = Reinforce::new(env.obs_dim(), env.action_dims(), config.clone(), &mut rng);
        for _ in 0..20 {
            agent.train_epoch(&mut env, &mut rng);
        }
        let snapshot = agent.save_state().expect("REINFORCE checkpoints");
        // Round-trip the snapshot through JSON text, as a checkpoint file
        // would, then load it into a differently-initialized agent.
        let text = serde_json::to_string(&snapshot).unwrap();
        let parsed: serde::Value = serde_json::from_str(&text).unwrap();
        let mut other_rng = Rng::seed_from_u64(999);
        let mut restored = Reinforce::new(env.obs_dim(), env.action_dims(), config, &mut other_rng);
        restored.load_state(&parsed).unwrap();

        // Both agents must now train identically from identical RNG states.
        let mut rng_a = Rng::seed_from_u64(5);
        let mut rng_b = Rng::seed_from_u64(5);
        let mut env_b = PatternEnv::new(4, vec![3, 3]);
        for _ in 0..10 {
            let a = agent.train_epoch(&mut env, &mut rng_a);
            let b = restored.train_epoch(&mut env_b, &mut rng_b);
            assert_eq!(a, b);
        }
        assert_eq!(
            agent.greedy_episode(&mut env),
            restored.greedy_episode(&mut env_b)
        );
    }

    /// A snapshot that stores every moment, the resting `Wh`'s as explicit
    /// `+0.0` (as version-1 checkpoints do), trains exactly as the agent it
    /// was taken from, and the first update finds `Wh` at rest and drops
    /// those zeros.
    #[test]
    fn snapshot_with_every_moment_stored_resumes_bit_identically() {
        let mut rng = Rng::seed_from_u64(14);
        let mut env = PatternEnv::new(1, vec![3, 3]);
        let config = ReinforceConfig {
            hidden: 16,
            ..ReinforceConfig::default()
        };
        let mut agent = Reinforce::new(env.obs_dim(), env.action_dims(), config.clone(), &mut rng);
        for _ in 0..20 {
            agent.train_epoch(&mut env, &mut rng);
        }
        let mut restored = Reinforce::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        restored.load_state(&agent.save_state().unwrap()).unwrap();
        let mut params = restored.policy.params_mut();
        assert!(params[1].m.data().is_empty(), "Wh holds moments already");
        for p in params.iter_mut() {
            let (r, c) = p.w.shape();
            for moment in [&mut p.m, &mut p.v] {
                if moment.data().is_empty() {
                    *moment = tinynn::Matrix::zeros(r, c);
                }
            }
        }

        let steps = restored.opt.steps();
        let mut rng_a = Rng::seed_from_u64(5);
        let mut rng_b = Rng::seed_from_u64(5);
        let mut env_b = PatternEnv::new(1, vec![3, 3]);
        for _ in 0..10 {
            let a = agent.train_epoch(&mut env, &mut rng_a);
            let b = restored.train_epoch(&mut env_b, &mut rng_b);
            assert_eq!(a, b);
            if restored.opt.steps() > steps {
                let wh = &restored.policy.params_mut()[1];
                assert!(
                    wh.m.data().is_empty() && wh.v.data().is_empty(),
                    "Wh kept its zeros"
                );
            }
        }
        assert!(restored.opt.steps() > steps, "no update ran");
        let bits = |p: &mut PolicyNet| -> Vec<Vec<u32>> {
            p.params_mut()
                .iter()
                .flat_map(|p| [&p.w, &p.m, &p.v])
                .map(|m| m.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&mut agent.policy), bits(&mut restored.policy));
    }

    /// A snapshot is refused when its action heads differ, when one of its
    /// Adam moments is neither 0×0 nor its weight's shape (`Wx.m` is 1×1),
    /// or when its hidden width differs (8 into a hidden-16 agent).
    #[test]
    fn load_state_rejects_mismatched_architecture() {
        let mut rng = Rng::seed_from_u64(12);
        let env = PatternEnv::new(4, vec![3, 3]);
        let other_env = PatternEnv::new(4, vec![5]);
        let mut agent = |env: &PatternEnv, hidden| {
            let config = ReinforceConfig {
                hidden,
                ..ReinforceConfig::default()
            };
            Reinforce::new(env.obs_dim(), env.action_dims(), config, &mut rng)
        };
        let mut stray_moment = agent(&env, 8);
        stray_moment.policy.params_mut()[0].m = Matrix::zeros(1, 1);
        let cases = [
            (agent(&env, 8), agent(&other_env, 8)),
            (stray_moment, agent(&env, 8)),
            (agent(&env, 8), agent(&env, 16)),
        ];
        for (source, mut target) in cases {
            let snapshot = source.save_state().unwrap();
            assert!(target.load_state(&snapshot).is_err());
        }
    }

    /// With one-step episodes every decision starts from the zero state,
    /// so the recurrent weights `Wh` get an all-zero gradient and Adam's
    /// step leaves them alone: after 50 updates `Wh` still holds its
    /// initial bits and no Adam moments, while `Wx`'s moments were
    /// allocated. The LSTM's zero-state skips rely on this; a change to the
    /// initial state fails here.
    #[test]
    fn one_step_episodes_leave_the_recurrent_weights_at_rest() {
        let mut rng = Rng::seed_from_u64(13);
        let mut env = PatternEnv::new(1, vec![3, 3]);
        let config = ReinforceConfig {
            hidden: 16,
            ..ReinforceConfig::default()
        };
        let mut agent = Reinforce::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let mut initial = agent.policy.clone();
        for _ in 0..1000 {
            if agent.opt.steps() == 50 {
                break;
            }
            agent.train_epoch(&mut env, &mut rng);
        }
        assert_eq!(agent.opt.steps(), 50, "50 updates within 1000 episodes");
        let mut trained = agent.policy.clone();
        // `LstmCell::params_mut` lists `[Wx, Wh, b]` first.
        let (initial, trained) = (initial.params_mut(), trained.params_mut());
        let bits = |m: &tinynn::Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&trained[1].w), bits(&initial[1].w), "Wh moved");
        assert_eq!(trained[1].m.data().len(), 0, "Wh holds an m");
        assert_eq!(trained[1].v.data().len(), 0, "Wh holds a v");
        let wx = trained[0].w.shape();
        assert_eq!((trained[0].m.shape(), trained[0].v.shape()), (wx, wx));
        assert_ne!(bits(&trained[0].w), bits(&initial[0].w), "Wx never moved");
    }

    #[test]
    fn greedy_episode_has_horizon_steps() {
        let mut rng = Rng::seed_from_u64(9);
        let mut env = PatternEnv::new(5, vec![2, 2]);
        let agent = Reinforce::new(
            env.obs_dim(),
            env.action_dims(),
            ReinforceConfig {
                hidden: 8,
                ..ReinforceConfig::default()
            },
            &mut rng,
        );
        let actions = agent.greedy_episode(&mut env);
        assert_eq!(actions.len(), 5);
    }
}
