use rand::Rng as _;
use tinynn::{Activation, Adam, Matrix, Mlp, Rng};

use crate::ddpg::{q_and_grad_wrt_action, run_continuous_episode};
use crate::{serial_epochs, Agent, EpochReport, ReplayBuffer, Transition, VecEnv};

/// Hyper-parameters for [`Sac`].
#[derive(Debug, Clone, PartialEq)]
pub struct SacConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Polyak averaging rate.
    pub tau: f32,
    /// Entropy temperature α (fixed; the auto-tuned variant is out of
    /// scope for this substrate).
    pub alpha: f32,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Gradient updates per episode.
    pub updates_per_epoch: usize,
    /// Hidden width.
    pub hidden: usize,
}

impl Default for SacConfig {
    fn default() -> Self {
        SacConfig {
            gamma: 0.9,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            tau: 0.02,
            alpha: 0.1,
            replay_capacity: 50_000,
            batch_size: 32,
            updates_per_epoch: 16,
            hidden: 64,
        }
    }
}

const LOG_STD_MIN: f32 = -5.0;
const LOG_STD_MAX: f32 = 2.0;
const TANH_EPS: f32 = 1e-6;

/// A tanh-squashed Gaussian sample with the intermediates needed for the
/// reparameterized actor gradient.
struct SquashedSample {
    /// Squashed action `a = tanh(u)`.
    action: Vec<f32>,
    /// Pre-squash deviation `w = u − mean = std·ε`.
    deviation: Vec<f32>,
    /// Total `log π(a|s)` including the tanh correction.
    log_prob: f32,
}

/// SAC (Haarnoja et al., 2018): maximum-entropy off-policy actor-critic
/// with a tanh-squashed Gaussian policy and twin Q critics. The entropy
/// temperature is fixed (see [`SacConfig::alpha`]).
pub struct Sac {
    /// Actor head outputs `[mean..., log_std...]`.
    actor: Mlp,
    q1: Mlp,
    q2: Mlp,
    q1_target: Mlp,
    q2_target: Mlp,
    actor_opt: Adam,
    q1_opt: Adam,
    q2_opt: Adam,
    buffer: ReplayBuffer,
    config: SacConfig,
    action_dim: usize,
}

impl Sac {
    /// Creates the agent.
    pub fn new(obs_dim: usize, action_dims: Vec<usize>, config: SacConfig, rng: &mut Rng) -> Self {
        let action_dim = action_dims.len();
        let actor = Mlp::new(
            &[obs_dim, config.hidden, config.hidden, 2 * action_dim],
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
        Sac {
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
        }
    }

    fn gaussian(rng: &mut Rng) -> f32 {
        let u1: f32 = rng.gen_range(1e-6..1.0f32);
        let u2: f32 = rng.gen::<f32>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Samples a squashed action from the actor's raw head output.
    fn sample_squashed(raw: &Matrix, action_dim: usize, rng: &mut Rng) -> SquashedSample {
        let mut action = Vec::with_capacity(action_dim);
        let mut deviation = Vec::with_capacity(action_dim);
        let mut log_prob = 0.0;
        for i in 0..action_dim {
            let mean = raw.get(0, i);
            let log_std = raw.get(0, action_dim + i).clamp(LOG_STD_MIN, LOG_STD_MAX);
            let std = log_std.exp();
            let eps = Self::gaussian(rng);
            let u = mean + std * eps;
            let a = tinynn::tanh(u);
            // log N(u; mean, std) − log(1 − a²).
            log_prob += -0.5 * eps * eps
                - log_std
                - 0.5 * (2.0 * std::f32::consts::PI).ln()
                - (1.0 - a * a + TANH_EPS).ln();
            action.push(a);
            deviation.push(std * eps);
        }
        SquashedSample {
            action,
            deviation,
            log_prob,
        }
    }

    fn update(&mut self, rng: &mut Rng) {
        let cfg = self.config.clone();
        let batch: Vec<Transition> = self
            .buffer
            .sample(cfg.batch_size, rng)
            .into_iter()
            .cloned()
            .collect();
        // --- Twin critics toward the entropy-regularized target. ---
        self.q1.zero_grad();
        self.q2.zero_grad();
        for t in &batch {
            let raw = self.actor.infer(&Matrix::row_from_slice(&t.next_obs));
            let next = Self::sample_squashed(&raw, self.action_dim, rng);
            let mut next_in = t.next_obs.clone();
            next_in.extend_from_slice(&next.action);
            let x_next = Matrix::row_from_slice(&next_in);
            let q_next = self
                .q1_target
                .infer(&x_next)
                .get(0, 0)
                .min(self.q2_target.infer(&x_next).get(0, 0));
            let soft_v = q_next - cfg.alpha * next.log_prob;
            let y = t.reward + cfg.gamma * if t.done { 0.0 } else { soft_v };
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

        // --- Actor: minimize α·logπ − min(Q1, Q2) via reparameterization. ---
        self.actor.zero_grad();
        for t in &batch {
            let x = Matrix::row_from_slice(&t.obs);
            let (raw, cache) = self.actor.forward(&x);
            let sample = Self::sample_squashed(&raw, self.action_dim, rng);
            let (q1v, dq1) = q_and_grad_wrt_action(&mut self.q1, &t.obs, &sample.action);
            let (q2v, dq2) = q_and_grad_wrt_action(&mut self.q2, &t.obs, &sample.action);
            let dq_da = if q1v <= q2v { dq1 } else { dq2 };
            let mut dout = Matrix::zeros(1, 2 * self.action_dim);
            let per_dim = sample.action.iter().zip(&sample.deviation).zip(&dq_da);
            for (i, ((&a, &w), &dq)) in per_dim.enumerate() {
                let one_minus_a2 = 1.0 - a * a;
                // d(α·logπ)/dmean ≈ α·2a (tanh-correction path);
                // d(−Q)/dmean = −dQ/da · (1−a²).
                let dmean = cfg.alpha * 2.0 * a - dq * one_minus_a2;
                // d(α·logπ)/dlog_std = α(−1 + 2a·w); d(−Q)/dlog_std through
                // a = tanh(mean + std·ε) with d(std·ε)/dlog_std = w.
                let dlog_std = cfg.alpha * (-1.0 + 2.0 * a * w) - dq * one_minus_a2 * w;
                dout.set(0, i, dmean / cfg.batch_size as f32);
                dout.set(0, self.action_dim + i, dlog_std / cfg.batch_size as f32);
            }
            self.actor.backward(&cache, &dout);
        }
        self.q1.zero_grad();
        self.q2.zero_grad();
        self.actor_opt.update(&mut self.actor.params_mut(), 5.0);

        self.q1_target.soft_update_from(&self.q1, cfg.tau);
        self.q2_target.soft_update_from(&self.q2, cfg.tau);
    }
}

impl Agent for Sac {
    fn train_epochs_vec(&mut self, venv: &mut dyn VecEnv, rngs: &mut [Rng]) -> Vec<EpochReport> {
        serial_epochs(venv, rngs, |env, rng| {
            let (actor, action_dim) = (&self.actor, self.action_dim);
            let report = run_continuous_episode(env, &mut self.buffer, rng, |obs, rng| {
                let raw = actor.infer(&Matrix::row_from_slice(obs));
                Self::sample_squashed(&raw, action_dim, rng).action
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
        "SAC"
    }

    fn param_count(&self) -> usize {
        self.actor.param_count() + 2 * self.q1.param_count() + 2 * self.q2.param_count()
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
        let mut rng = Rng::seed_from_u64(67);
        let mut env = PatternEnv::new(2, vec![3]);
        let config = SacConfig {
            hidden: 32,
            updates_per_epoch: 8,
            alpha: 0.05,
            ..SacConfig::default()
        };
        let mut agent = Sac::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let mut rewards = Vec::new();
        for _ in 0..300 {
            rewards.push(agent.train_epoch(&mut env, &mut rng).episode_reward);
        }
        let early: f32 = rewards[..50].iter().sum::<f32>() / 50.0;
        let late: f32 = rewards[250..].iter().sum::<f32>() / 50.0;
        assert!(
            late > early + 0.2 || late > 1.4,
            "early {early:.2}, late {late:.2}"
        );
    }

    #[test]
    fn squashed_sample_is_bounded_and_log_prob_finite() {
        let mut rng = Rng::seed_from_u64(68);
        let raw = Matrix::row_from_slice(&[0.5, -0.5, 1.0, -3.0]); // 2 actions
        for _ in 0..100 {
            let s = Sac::sample_squashed(&raw, 2, &mut rng);
            assert!(s.action.iter().all(|a| a.abs() <= 1.0));
            assert!(s.log_prob.is_finite());
        }
    }

    #[test]
    fn log_std_is_clamped() {
        let mut rng = Rng::seed_from_u64(69);
        // Absurd log_std values must not produce NaNs.
        let raw = Matrix::row_from_slice(&[0.0, 100.0]);
        let s = Sac::sample_squashed(&raw, 1, &mut rng);
        assert!(s.log_prob.is_finite());
        assert!(s.action[0].is_finite());
    }
}
