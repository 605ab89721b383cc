use tinynn::{Activation, Adam, Matrix, Mlp, Param, Rng};

use crate::{
    collect_vec_rollout, discounted_returns, stack_rows, standardize, Agent, EpochReport,
    PolicyBackboneKind, PolicyNet, PolicyStep, VecEnv,
};

/// Hyper-parameters for [`Acktr`].
#[derive(Debug, Clone, PartialEq)]
pub struct AcktrConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Natural-gradient step size.
    pub lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Entropy-bonus coefficient.
    pub entropy_beta: f32,
    /// Decay of the running Fisher-diagonal estimate.
    pub fisher_decay: f32,
    /// Damping added to the Fisher diagonal before inversion.
    pub damping: f32,
    /// Trust-region style cap on the per-step update norm.
    pub max_update_norm: f32,
    /// Policy backbone.
    pub backbone: PolicyBackboneKind,
    /// Actor hidden width.
    pub hidden: usize,
    /// Critic hidden width.
    pub critic_hidden: usize,
}

impl Default for AcktrConfig {
    fn default() -> Self {
        AcktrConfig {
            gamma: 0.9,
            lr: 5e-2,
            critic_lr: 3e-3,
            entropy_beta: 1e-2,
            fisher_decay: 0.95,
            damping: 1e-3,
            max_update_norm: 1.0,
            backbone: PolicyBackboneKind::Rnn,
            hidden: 128,
            critic_hidden: 64,
        }
    }
}

/// ACKTR-style actor-critic (Wu et al., 2017).
///
/// True ACKTR preconditions the policy gradient with a Kronecker-factored
/// Fisher approximation; this implementation uses the *diagonal* Fisher
/// (running mean of squared score-function gradients) with damping and a
/// trust-region cap on the update norm. The substitution is documented in
/// DESIGN.md — the algorithm keeps ACKTR's defining traits (natural-gradient
/// scaling + trust region) at the fidelity our from-scratch substrate
/// supports.
#[derive(Debug, Clone)]
pub struct Acktr {
    policy: PolicyNet,
    critic: Mlp,
    critic_opt: Adam,
    /// Running diagonal Fisher, one entry per policy parameter tensor.
    fisher: Vec<Matrix>,
    config: AcktrConfig,
}

impl Acktr {
    /// Creates the agent.
    pub fn new(
        obs_dim: usize,
        action_dims: Vec<usize>,
        config: AcktrConfig,
        rng: &mut Rng,
    ) -> Self {
        let mut policy = PolicyNet::new(obs_dim, &action_dims, config.backbone, config.hidden, rng);
        let critic = Mlp::new(
            &[obs_dim, config.critic_hidden, config.critic_hidden, 1],
            Activation::Tanh,
            rng,
        );
        let fisher = policy
            .params_mut()
            .iter()
            .map(|p| {
                let (r, c) = p.w.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        Acktr {
            policy,
            critic,
            critic_opt: Adam::new(config.critic_lr),
            fisher,
            config,
        }
    }

    /// Natural-gradient update: divide grads by the damped Fisher diagonal,
    /// cap the update norm, and descend.
    fn natural_step(fisher: &mut [Matrix], params: &mut [&mut Param], cfg: &AcktrConfig) {
        // Update the running Fisher estimate from the fresh gradients.
        for (f, p) in fisher.iter_mut().zip(params.iter()) {
            for (fv, gv) in f.data_mut().iter_mut().zip(p.g.data()) {
                *fv = cfg.fisher_decay * *fv + (1.0 - cfg.fisher_decay) * gv * gv;
            }
        }
        // Precondition and measure the update norm.
        let mut updates: Vec<Matrix> = Vec::with_capacity(params.len());
        let mut norm_sq = 0.0f32;
        for (f, p) in fisher.iter().zip(params.iter()) {
            let mut u = p.g.clone();
            for (uv, fv) in u.data_mut().iter_mut().zip(f.data()) {
                *uv /= fv.sqrt() + cfg.damping;
            }
            norm_sq += u.data().iter().map(|v| v * v).sum::<f32>();
            updates.push(u);
        }
        let norm = norm_sq.sqrt();
        let scale = if norm > cfg.max_update_norm {
            cfg.max_update_norm / norm
        } else {
            1.0
        };
        for (p, u) in params.iter_mut().zip(&updates) {
            p.w.add_scaled(u, -cfg.lr * scale);
            p.zero_grad();
        }
    }

    /// Natural-gradient actor + critic update for one collected episode.
    fn update_episode(
        &mut self,
        steps: &[PolicyStep],
        observations: &[Vec<f32>],
        rewards: &[f32],
        feasible_cost: Option<f64>,
    ) -> EpochReport {
        let returns = discounted_returns(rewards, self.config.gamma);
        // One batched critic forward over the episode (bit-identical to
        // T single-row calls).
        let stacked_obs = stack_rows(observations);
        let values = self.critic.infer(&stacked_obs);
        let mut advantages = Vec::with_capacity(returns.len());
        for (t, &g) in returns.iter().enumerate() {
            advantages.push(g - values.get(t, 0));
        }
        let coefs = if advantages.len() == 1 {
            // One-step episode (LS mode): the critic baseline already
            // centers the signal; use it raw but bounded.
            vec![advantages[0].clamp(-10.0, 10.0)]
        } else {
            standardize(&advantages)
        };
        if coefs.iter().any(|c| c.abs() > 0.0) {
            self.policy
                .backward_episode(steps, &coefs, self.config.entropy_beta, None, None);
            let mut params = self.policy.params_mut();
            Self::natural_step(&mut self.fisher, &mut params, &self.config);
        }
        // Critic MC regression, batched: the gradient sum over timesteps
        // accumulates in the same ascending-t order as the per-step loop.
        self.critic.zero_grad();
        let (v, cache) = self.critic.forward(&stacked_obs);
        let mut dout = Matrix::zeros(returns.len(), 1);
        for (t, &g) in returns.iter().enumerate() {
            let err = v.get(t, 0) - g;
            dout.row_mut(t)[0] = 2.0 * err / returns.len() as f32;
        }
        self.critic.backward(&cache, &dout);
        self.critic_opt.update(&mut self.critic.params_mut(), 5.0);

        EpochReport {
            episode_reward: rewards.iter().sum(),
            feasible_cost,
            steps: steps.len(),
        }
    }
}

impl Agent for Acktr {
    fn train_epochs_vec(&mut self, venv: &mut dyn VecEnv, rngs: &mut [Rng]) -> Vec<EpochReport> {
        let rollout = collect_vec_rollout(&self.policy, venv, rngs);
        (0..rngs.len())
            .map(|i| {
                self.update_episode(
                    &rollout.steps[i],
                    &rollout.observations[i],
                    &rollout.rewards[i],
                    venv.outcome_cost(i),
                )
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "ACKTR"
    }

    fn param_count(&self) -> usize {
        self.policy.param_count() + self.critic.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{final_quarter_reward, PatternEnv};
    use crate::Env;
    use tinynn::SeedableRng;

    #[test]
    fn learns_the_pattern_task() {
        let mut rng = Rng::seed_from_u64(27);
        let mut env = PatternEnv::new(4, vec![3, 3]);
        let config = AcktrConfig {
            hidden: 32,
            critic_hidden: 32,
            lr: 0.1,
            ..AcktrConfig::default()
        };
        let mut agent = Acktr::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let final_reward = final_quarter_reward(&mut agent, &mut env, 500, &mut rng);
        assert!(final_reward > 1.2, "final reward {final_reward}");
    }

    #[test]
    fn update_norm_is_capped() {
        let cfg = AcktrConfig {
            max_update_norm: 0.1,
            lr: 1.0,
            ..AcktrConfig::default()
        };
        let mut fisher = vec![Matrix::zeros(1, 2)];
        let mut p = Param::new(Matrix::zeros(1, 2));
        p.g = Matrix::from_vec(1, 2, vec![100.0, 100.0]);
        let before = p.w.clone();
        Acktr::natural_step(&mut fisher, &mut [&mut p], &cfg);
        let moved: f32 =
            p.w.data()
                .iter()
                .zip(before.data())
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
                .sqrt();
        assert!(
            moved <= cfg.max_update_norm * cfg.lr + 1e-4,
            "moved {moved}"
        );
    }
}
