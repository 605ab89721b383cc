use tinynn::{Activation, Adam, Matrix, Mlp, Rng};

use crate::{
    collect_vec_rollout, discounted_returns, stack_rows, standardize, Agent, EpochReport,
    PolicyBackboneKind, PolicyNet, PolicyStep, VecEnv,
};

/// Hyper-parameters for [`A2c`].
#[derive(Debug, Clone, PartialEq)]
pub struct A2cConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Actor learning rate.
    pub lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Entropy-bonus coefficient.
    pub entropy_beta: f32,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Policy backbone.
    pub backbone: PolicyBackboneKind,
    /// Hidden width of the actor.
    pub hidden: usize,
    /// Hidden width of the critic MLP.
    pub critic_hidden: usize,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            gamma: 0.9,
            lr: 3e-3,
            critic_lr: 3e-3,
            entropy_beta: 1e-2,
            max_grad_norm: 5.0,
            backbone: PolicyBackboneKind::Rnn,
            hidden: 128,
            critic_hidden: 64,
        }
    }
}

/// Advantage actor-critic (Mnih et al., 2016), synchronous single-worker
/// variant: Monte-Carlo returns with a learned state-value baseline.
#[derive(Debug, Clone)]
pub struct A2c {
    policy: PolicyNet,
    critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    config: A2cConfig,
}

impl A2c {
    /// Creates the agent.
    pub fn new(obs_dim: usize, action_dims: Vec<usize>, config: A2cConfig, rng: &mut Rng) -> Self {
        let policy = PolicyNet::new(obs_dim, &action_dims, config.backbone, config.hidden, rng);
        let critic = Mlp::new(
            &[obs_dim, config.critic_hidden, config.critic_hidden, 1],
            Activation::Tanh,
            rng,
        );
        A2c {
            policy,
            critic,
            actor_opt: Adam::new(config.lr),
            critic_opt: Adam::new(config.critic_lr),
            config,
        }
    }

    /// Immutable access to the critic (used by the Fig. 6 study harness).
    pub fn critic(&self) -> &Mlp {
        &self.critic
    }

    /// Actor + critic update for one collected episode.
    fn update_episode(
        &mut self,
        steps: &[PolicyStep],
        observations: &[Vec<f32>],
        rewards: &[f32],
        feasible_cost: Option<f64>,
    ) -> EpochReport {
        let returns = discounted_returns(rewards, self.config.gamma);
        // Critic values and advantage baseline: one batched forward over
        // the whole episode (bit-identical to T single-row calls).
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
            self.policy
                .apply_update(&mut self.actor_opt, self.config.max_grad_norm);
        }
        // Critic regression toward the Monte-Carlo returns: one batched
        // forward + backward. The gradient is a sum over timesteps, and
        // the batched GEMMs accumulate it in the same ascending-t order
        // the per-step loop did, so the update is bit-identical.
        self.critic.zero_grad();
        let (v, cache) = self.critic.forward(&stacked_obs);
        let mut dout = Matrix::zeros(returns.len(), 1);
        for (t, &g) in returns.iter().enumerate() {
            let err = v.get(t, 0) - g;
            dout.row_mut(t)[0] = 2.0 * err / returns.len() as f32;
        }
        self.critic.backward(&cache, &dout);
        self.critic_opt
            .update(&mut self.critic.params_mut(), self.config.max_grad_norm);

        EpochReport {
            episode_reward: rewards.iter().sum(),
            feasible_cost,
            steps: steps.len(),
        }
    }
}

impl Agent for A2c {
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
        "A2C"
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
        let mut rng = Rng::seed_from_u64(17);
        let mut env = PatternEnv::new(4, vec![3, 3]);
        let config = A2cConfig {
            hidden: 32,
            critic_hidden: 32,
            lr: 1e-2,
            ..A2cConfig::default()
        };
        let mut agent = A2c::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let final_reward = final_quarter_reward(&mut agent, &mut env, 400, &mut rng);
        assert!(final_reward > 1.6, "final reward {final_reward}");
    }

    #[test]
    fn critic_tracks_returns() {
        // After training on a constant-reward environment, V(s0) should
        // approach the episode return.
        let mut rng = Rng::seed_from_u64(18);
        let mut env = PatternEnv::new(2, vec![1]); // only one action: always correct
        let config = A2cConfig {
            hidden: 8,
            critic_hidden: 16,
            critic_lr: 1e-2,
            ..A2cConfig::default()
        };
        let mut agent = A2c::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        for _ in 0..300 {
            agent.train_epoch(&mut env, &mut rng);
        }
        let obs = env.reset();
        let v = agent
            .critic()
            .infer(&Matrix::row_from_slice(&obs))
            .get(0, 0);
        // G_0 = 1 + 0.9*1 = 1.9 for horizon 2, gamma 0.9.
        assert!((v - 1.9).abs() < 0.4, "critic value {v}");
    }
}
