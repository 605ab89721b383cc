use rand::Rng as _;
use tinynn::{Activation, Adam, Matrix, Mlp, Rng};

use crate::ddpg::{noisy_action, q_and_grad_wrt_action, run_continuous_episode};
use crate::{serial_epochs, Agent, EpochReport, ReplayBuffer, Transition, VecEnv};

/// Hyper-parameters for [`Td3`].
#[derive(Debug, Clone, PartialEq)]
pub struct Td3Config {
    /// Discount factor.
    pub gamma: f32,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Polyak averaging rate.
    pub tau: f32,
    /// Exploration noise std.
    pub noise_std: f32,
    /// Target-policy smoothing noise std.
    pub target_noise_std: f32,
    /// Clip radius of the smoothing noise.
    pub target_noise_clip: f32,
    /// Actor (and target) update period in critic updates.
    pub policy_delay: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Gradient updates per episode.
    pub updates_per_epoch: usize,
    /// Hidden width.
    pub hidden: usize,
}

impl Default for Td3Config {
    fn default() -> Self {
        Td3Config {
            gamma: 0.9,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            tau: 0.02,
            noise_std: 0.2,
            target_noise_std: 0.1,
            target_noise_clip: 0.3,
            policy_delay: 2,
            replay_capacity: 50_000,
            batch_size: 32,
            updates_per_epoch: 16,
            hidden: 64,
        }
    }
}

/// TD3 (Fujimoto et al., 2018): DDPG plus clipped double-Q learning,
/// target-policy smoothing, and delayed policy updates.
pub struct Td3 {
    actor: Mlp,
    actor_target: Mlp,
    q1: Mlp,
    q2: Mlp,
    q1_target: Mlp,
    q2_target: Mlp,
    actor_opt: Adam,
    q1_opt: Adam,
    q2_opt: Adam,
    buffer: ReplayBuffer,
    config: Td3Config,
    action_dim: usize,
    update_count: usize,
}

impl Td3 {
    /// Creates the agent.
    pub fn new(obs_dim: usize, action_dims: Vec<usize>, config: Td3Config, rng: &mut Rng) -> Self {
        let action_dim = action_dims.len();
        let actor = Mlp::new(
            &[obs_dim, config.hidden, config.hidden, action_dim],
            Activation::Relu,
            rng,
        );
        let mk_q = |rng: &mut Rng| {
            Mlp::new(
                &[obs_dim + action_dim, config.hidden, config.hidden, 1],
                Activation::Relu,
                rng,
            )
        };
        let q1 = mk_q(rng);
        let q2 = mk_q(rng);
        Td3 {
            actor_target: actor.clone(),
            q1_target: q1.clone(),
            q2_target: q2.clone(),
            actor,
            q1,
            q2,
            actor_opt: Adam::new(config.actor_lr),
            q1_opt: Adam::new(config.critic_lr),
            q2_opt: Adam::new(config.critic_lr),
            buffer: ReplayBuffer::new(config.replay_capacity),
            config,
            action_dim,
            update_count: 0,
        }
    }

    fn gaussian(rng: &mut Rng) -> f32 {
        let u1: f32 = rng.gen_range(1e-6..1.0f32);
        let u2: f32 = rng.gen::<f32>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    fn update(&mut self, rng: &mut Rng) {
        let cfg = self.config.clone();
        let batch: Vec<Transition> = self
            .buffer
            .sample(cfg.batch_size, rng)
            .into_iter()
            .cloned()
            .collect();
        // --- Twin critics: regression toward min of smoothed targets. ---
        self.q1.zero_grad();
        self.q2.zero_grad();
        for t in &batch {
            let next_raw = self
                .actor_target
                .infer(&Matrix::row_from_slice(&t.next_obs));
            let next_action: Vec<f32> = next_raw
                .data()
                .iter()
                .map(|v| {
                    let noise = (Self::gaussian(rng) * cfg.target_noise_std)
                        .clamp(-cfg.target_noise_clip, cfg.target_noise_clip);
                    (tinynn::tanh(*v) + noise).clamp(-1.0, 1.0)
                })
                .collect();
            let mut next_in = t.next_obs.clone();
            next_in.extend_from_slice(&next_action);
            let x_next = Matrix::row_from_slice(&next_in);
            let q_next = self
                .q1_target
                .infer(&x_next)
                .get(0, 0)
                .min(self.q2_target.infer(&x_next).get(0, 0));
            let y = t.reward + cfg.gamma * if t.done { 0.0 } else { q_next };
            let mut q_in = t.obs.clone();
            q_in.extend_from_slice(&t.action);
            let x = Matrix::row_from_slice(&q_in);
            for q in [&mut self.q1, &mut self.q2] {
                let (qv, cache) = q.forward(&x);
                let err = qv.get(0, 0) - y;
                let dout = Matrix::from_vec(1, 1, vec![2.0 * err / cfg.batch_size as f32]);
                q.backward(&cache, &dout);
            }
        }
        for (q, opt) in [
            (&mut self.q1, &mut self.q1_opt),
            (&mut self.q2, &mut self.q2_opt),
        ] {
            opt.update(&mut q.params_mut(), 5.0);
        }

        self.update_count += 1;
        // `is_multiple_of(0)` is false for every count, which would skip the
        // actor update forever instead of failing like `% 0` does.
        assert!(cfg.policy_delay > 0, "policy_delay must be >= 1");
        if !self.update_count.is_multiple_of(cfg.policy_delay) {
            return;
        }
        // --- Delayed actor update through Q1. ---
        self.actor.zero_grad();
        for t in &batch {
            let x = Matrix::row_from_slice(&t.obs);
            let (raw, cache) = self.actor.forward(&x);
            let action: Vec<f32> = raw.data().iter().map(|&v| tinynn::tanh(v)).collect();
            let (_q, dq_da) = q_and_grad_wrt_action(&mut self.q1, &t.obs, &action);
            let draw: Vec<f32> = dq_da
                .iter()
                .zip(&action)
                .map(|(&dq, &a)| -dq * (1.0 - a * a) / cfg.batch_size as f32)
                .collect();
            let dout = Matrix::from_vec(1, self.action_dim, draw);
            self.actor.backward(&cache, &dout);
        }
        self.q1.zero_grad();
        self.actor_opt.update(&mut self.actor.params_mut(), 5.0);

        self.actor_target.soft_update_from(&self.actor, cfg.tau);
        self.q1_target.soft_update_from(&self.q1, cfg.tau);
        self.q2_target.soft_update_from(&self.q2, cfg.tau);
    }
}

impl Agent for Td3 {
    fn train_epochs_vec(&mut self, venv: &mut dyn VecEnv, rngs: &mut [Rng]) -> Vec<EpochReport> {
        serial_epochs(venv, rngs, |env, rng| {
            let (actor, noise_std) = (&self.actor, self.config.noise_std);
            let report = run_continuous_episode(env, &mut self.buffer, rng, |obs, rng| {
                noisy_action(actor, obs, noise_std, rng)
            });
            if self.buffer.len() >= self.config.batch_size * 4 {
                for _ in 0..self.config.updates_per_epoch {
                    self.update(rng);
                }
            }
            report
        })
    }

    fn name(&self) -> &'static str {
        "TD3"
    }

    fn param_count(&self) -> usize {
        2 * (self.actor.param_count() + 2 * self.q1.param_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::PatternEnv;
    use crate::Env;
    use tinynn::SeedableRng;

    #[test]
    fn improves_over_random_on_short_task() {
        let mut rng = Rng::seed_from_u64(57);
        let mut env = PatternEnv::new(2, vec![3]);
        let config = Td3Config {
            hidden: 32,
            updates_per_epoch: 8,
            noise_std: 0.3,
            ..Td3Config::default()
        };
        let mut agent = Td3::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let mut rewards = Vec::new();
        for _ in 0..300 {
            rewards.push(agent.train_epoch(&mut env, &mut rng).episode_reward);
        }
        let early: f32 = rewards[..50].iter().sum::<f32>() / 50.0;
        let late: f32 = rewards[250..].iter().sum::<f32>() / 50.0;
        assert!(
            late > early + 0.2 || late > 1.5,
            "early {early:.2}, late {late:.2}"
        );
    }

    #[test]
    fn actor_updates_are_delayed() {
        let mut rng = Rng::seed_from_u64(58);
        let mut env = PatternEnv::new(2, vec![2]);
        let config = Td3Config {
            hidden: 8,
            policy_delay: 1_000_000, // actor effectively frozen
            updates_per_epoch: 4,
            ..Td3Config::default()
        };
        let mut agent = Td3::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let before = agent.actor.infer(&Matrix::row_from_slice(&env.reset()));
        for _ in 0..30 {
            agent.train_epoch(&mut env, &mut rng);
        }
        let after = agent.actor.infer(&Matrix::row_from_slice(&env.reset()));
        assert_eq!(before, after, "frozen actor must not move");
    }
}
