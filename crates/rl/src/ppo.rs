use tinynn::{Activation, Adam, Matrix, Mlp, Rng};

use crate::{
    collect_vec_rollout, discounted_returns, stack_rows, standardize, Agent, EpochReport,
    PolicyBackboneKind, PolicyNet, PolicyStep, VecEnv,
};

/// Hyper-parameters for [`Ppo`].
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Actor learning rate.
    pub lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Clipping radius ε of the surrogate objective.
    pub clip_eps: f32,
    /// Entropy-bonus coefficient.
    pub entropy_beta: f32,
    /// Episodes collected per update batch.
    pub episodes_per_update: usize,
    /// Optimization passes over the batch.
    pub update_epochs: usize,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Policy backbone.
    pub backbone: PolicyBackboneKind,
    /// Actor hidden width.
    pub hidden: usize,
    /// Critic hidden width.
    pub critic_hidden: usize,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            gamma: 0.9,
            lr: 3e-3,
            critic_lr: 3e-3,
            clip_eps: 0.2,
            entropy_beta: 1e-2,
            episodes_per_update: 4,
            update_epochs: 4,
            max_grad_norm: 5.0,
            backbone: PolicyBackboneKind::Rnn,
            hidden: 128,
            critic_hidden: 64,
        }
    }
}

struct BufferedEpisode {
    steps: Vec<PolicyStep>,
    observations: Vec<Vec<f32>>,
    returns: Vec<f32>,
    old_log_probs: Vec<f32>,
}

/// PPO2 (Schulman et al., 2017): clipped-surrogate policy optimization with
/// a learned value baseline, batched over several episodes.
pub struct Ppo {
    policy: PolicyNet,
    critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    buffer: Vec<BufferedEpisode>,
    config: PpoConfig,
}

impl Ppo {
    /// Creates the agent.
    pub fn new(obs_dim: usize, action_dims: Vec<usize>, config: PpoConfig, rng: &mut Rng) -> Self {
        let policy = PolicyNet::new(obs_dim, &action_dims, config.backbone, config.hidden, rng);
        let critic = Mlp::new(
            &[obs_dim, config.critic_hidden, config.critic_hidden, 1],
            Activation::Tanh,
            rng,
        );
        Ppo {
            policy,
            critic,
            actor_opt: Adam::new(config.lr),
            critic_opt: Adam::new(config.critic_lr),
            buffer: Vec::new(),
            config,
        }
    }

    fn update_from_buffer(&mut self) {
        for _pass in 0..self.config.update_epochs {
            for ep in &self.buffer {
                // Advantages under the current critic: one batched forward
                // over the episode (bit-identical to T single-row calls).
                let stacked_obs = stack_rows(&ep.observations);
                let values = self.critic.infer(&stacked_obs);
                let mut advantages = Vec::with_capacity(ep.returns.len());
                for (t, &g) in ep.returns.iter().enumerate() {
                    advantages.push(g - values.get(t, 0));
                }
                let advantages = if advantages.len() == 1 {
                    vec![advantages[0].clamp(-10.0, 10.0)]
                } else {
                    standardize(&advantages)
                };
                if advantages.iter().all(|a| a.abs() == 0.0) {
                    continue;
                }
                // Fresh log-probs/probabilities under the current policy.
                let replayed = self.policy.replay_log_probs(&ep.steps);
                let mut coefs = Vec::with_capacity(ep.steps.len());
                let mut ratio_scale = Vec::with_capacity(ep.steps.len());
                let mut new_probs: Vec<Vec<Vec<f32>>> = Vec::with_capacity(ep.steps.len());
                for (t, (new_lp, probs)) in replayed.into_iter().enumerate() {
                    let ratio = (new_lp - ep.old_log_probs[t]).exp();
                    let adv = advantages[t];
                    // Clipped surrogate: zero gradient when the ratio is
                    // outside the trust region *and* clipping is active
                    // (i.e. the clipped branch achieves the min).
                    let clipped_active = (adv > 0.0 && ratio > 1.0 + self.config.clip_eps)
                        || (adv < 0.0 && ratio < 1.0 - self.config.clip_eps);
                    if clipped_active {
                        coefs.push(0.0);
                        ratio_scale.push(0.0);
                    } else {
                        coefs.push(adv);
                        ratio_scale.push(ratio);
                    }
                    new_probs.push(probs);
                }
                self.policy.backward_episode(
                    &ep.steps,
                    &coefs,
                    self.config.entropy_beta,
                    Some(&new_probs),
                    Some(&ratio_scale),
                );
                self.policy
                    .apply_update(&mut self.actor_opt, self.config.max_grad_norm);

                // Critic regression to Monte-Carlo returns, batched: the
                // gradient sum over timesteps accumulates in the same
                // ascending-t order as the per-step loop.
                self.critic.zero_grad();
                let (v, cache) = self.critic.forward(&stacked_obs);
                let mut dout = Matrix::zeros(ep.returns.len(), 1);
                for (t, &g) in ep.returns.iter().enumerate() {
                    let err = v.get(t, 0) - g;
                    dout.row_mut(t)[0] = 2.0 * err / ep.returns.len() as f32;
                }
                self.critic.backward(&cache, &dout);
                self.critic_opt
                    .update(&mut self.critic.params_mut(), self.config.max_grad_norm);
            }
        }
        self.buffer.clear();
    }

    /// Buffers one collected episode and flushes an update batch when full.
    fn buffer_episode(
        &mut self,
        steps: Vec<PolicyStep>,
        observations: Vec<Vec<f32>>,
        rewards: &[f32],
        feasible_cost: Option<f64>,
    ) -> EpochReport {
        let report = EpochReport {
            episode_reward: rewards.iter().sum(),
            feasible_cost,
            steps: steps.len(),
        };
        let returns = discounted_returns(rewards, self.config.gamma);
        let old_log_probs = steps.iter().map(|s| s.log_prob).collect();
        self.buffer.push(BufferedEpisode {
            steps,
            observations,
            returns,
            old_log_probs,
        });
        if self.buffer.len() >= self.config.episodes_per_update {
            self.update_from_buffer();
        }
        report
    }
}

impl Agent for Ppo {
    fn train_epochs_vec(&mut self, venv: &mut dyn VecEnv, rngs: &mut [Rng]) -> Vec<EpochReport> {
        // Episodes are collected under one policy snapshot, then buffered
        // in replica order; a mid-round flush only touches buffered data.
        let rollout = collect_vec_rollout(&self.policy, venv, rngs);
        rollout
            .steps
            .into_iter()
            .zip(rollout.observations)
            .zip(rollout.rewards)
            .enumerate()
            .map(|(i, ((steps, observations), rewards))| {
                let feasible_cost = venv.outcome_cost(i);
                self.buffer_episode(steps, observations, &rewards, feasible_cost)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "PPO2"
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
        let mut rng = Rng::seed_from_u64(37);
        let mut env = PatternEnv::new(4, vec![3, 3]);
        let config = PpoConfig {
            hidden: 32,
            critic_hidden: 32,
            lr: 1e-2,
            ..PpoConfig::default()
        };
        let mut agent = Ppo::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let final_reward = final_quarter_reward(&mut agent, &mut env, 600, &mut rng);
        assert!(final_reward > 1.6, "final reward {final_reward}");
    }

    #[test]
    fn buffer_flushes_at_batch_size() {
        let mut rng = Rng::seed_from_u64(38);
        let mut env = PatternEnv::new(3, vec![2]);
        let config = PpoConfig {
            hidden: 8,
            critic_hidden: 8,
            episodes_per_update: 3,
            ..PpoConfig::default()
        };
        let mut agent = Ppo::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        agent.train_epoch(&mut env, &mut rng);
        agent.train_epoch(&mut env, &mut rng);
        assert_eq!(agent.buffer.len(), 2);
        agent.train_epoch(&mut env, &mut rng);
        assert_eq!(
            agent.buffer.len(),
            0,
            "buffer must flush on the 3rd episode"
        );
    }
}
