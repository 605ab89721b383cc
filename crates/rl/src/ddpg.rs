use rand::Rng as _;
use tinynn::{Activation, Adam, Matrix, Mlp, Rng};

use crate::{
    continuous_to_discrete, serial_epochs, Agent, Env, EpochReport, ReplayBuffer, Transition,
    VecEnv,
};

/// Hyper-parameters for [`Ddpg`].
#[derive(Debug, Clone, PartialEq)]
pub struct DdpgConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Polyak averaging rate for target networks.
    pub tau: f32,
    /// Exploration noise std-dev (Gaussian, added to the tanh action).
    pub noise_std: f32,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Gradient updates performed per episode.
    pub updates_per_epoch: usize,
    /// Hidden width of actor and critics.
    pub hidden: usize,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            gamma: 0.9,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            tau: 0.02,
            noise_std: 0.2,
            replay_capacity: 50_000,
            batch_size: 32,
            updates_per_epoch: 16,
            hidden: 64,
        }
    }
}

/// Runs one episode, binning continuous actions onto the discrete design
/// space. `act` turns an observation into the continuous action, drawing
/// any noise from the stream it is handed. Shared by DDPG, TD3 and SAC.
pub(crate) fn run_continuous_episode(
    env: &mut dyn Env,
    buffer: &mut ReplayBuffer,
    rng: &mut Rng,
    mut act: impl FnMut(&[f32], &mut Rng) -> Vec<f32>,
) -> EpochReport {
    let dims = env.action_dims();
    let mut obs = env.reset();
    let mut total = 0.0;
    let mut steps = 0;
    loop {
        let action = act(&obs, rng);
        let discrete: Vec<usize> = action
            .iter()
            .zip(&dims)
            .map(|(&a, &n)| continuous_to_discrete(a, n))
            .collect();
        let result = env.step(&discrete);
        buffer.push(Transition {
            obs: obs.clone(),
            action,
            reward: result.reward,
            next_obs: result.obs.clone(),
            done: result.done,
        });
        total += result.reward;
        steps += 1;
        if result.done {
            break;
        }
        obs = result.obs;
    }
    EpochReport {
        episode_reward: total,
        feasible_cost: env.outcome_cost(),
        steps,
    }
}

/// The deterministic actor's tanh action plus clipped Gaussian exploration
/// noise, one Box-Muller draw per action dimension. Shared by DDPG and TD3.
pub(crate) fn noisy_action(actor: &Mlp, obs: &[f32], noise_std: f32, rng: &mut Rng) -> Vec<f32> {
    let raw = actor.infer(&Matrix::row_from_slice(obs));
    let mut action: Vec<f32> = raw.data().iter().map(|&v| tinynn::tanh(v)).collect();
    for a in &mut action {
        let noise: f32 = {
            // Box-Muller Gaussian.
            let u1: f32 = rng.gen_range(1e-6..1.0f32);
            let u2: f32 = rng.gen::<f32>();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        };
        *a = (*a + noise * noise_std).clamp(-1.0, 1.0);
    }
    action
}

/// Evaluates `Q(s, a)` for a batch row and returns `(q, dq_da)` where the
/// gradient is taken with respect to the action slice of the input. The
/// critic's parameter gradients accumulated during this call must be
/// discarded by the caller (`zero_grad`). Shared by DDPG/TD3/SAC actors.
pub(crate) fn q_and_grad_wrt_action(
    critic: &mut Mlp,
    obs: &[f32],
    action: &[f32],
) -> (f32, Vec<f32>) {
    let mut input = obs.to_vec();
    input.extend_from_slice(action);
    let x = Matrix::row_from_slice(&input);
    let (q, cache) = critic.forward(&x);
    let dout = Matrix::from_vec(1, 1, vec![1.0]);
    let dx = critic.backward(&cache, &dout);
    let dq_da = dx.row(0)[obs.len()..].to_vec();
    (q.get(0, 0), dq_da)
}

/// DDPG (Lillicrap et al., 2015): deterministic continuous-action
/// actor-critic with replay and target networks, applied to the discrete
/// design space through action binning.
pub struct Ddpg {
    actor: Mlp,
    actor_target: Mlp,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    buffer: ReplayBuffer,
    config: DdpgConfig,
    action_dim: usize,
}

impl Ddpg {
    /// Creates the agent for `obs_dim` observations and one continuous
    /// action per entry of `action_dims`.
    pub fn new(obs_dim: usize, action_dims: Vec<usize>, config: DdpgConfig, rng: &mut Rng) -> Self {
        let action_dim = action_dims.len();
        let actor = Mlp::new(
            &[obs_dim, config.hidden, config.hidden, action_dim],
            Activation::Relu,
            rng,
        );
        let critic = Mlp::new(
            &[obs_dim + action_dim, config.hidden, config.hidden, 1],
            Activation::Relu,
            rng,
        );
        Ddpg {
            actor_target: actor.clone(),
            critic_target: critic.clone(),
            actor,
            critic,
            actor_opt: Adam::new(config.actor_lr),
            critic_opt: Adam::new(config.critic_lr),
            buffer: ReplayBuffer::new(config.replay_capacity),
            config,
            action_dim,
        }
    }

    fn update(&mut self, rng: &mut Rng) {
        let cfg = &self.config;
        let batch: Vec<Transition> = self
            .buffer
            .sample(cfg.batch_size, rng)
            .into_iter()
            .cloned()
            .collect();
        // --- Critic: TD regression toward the target network. ---
        self.critic.zero_grad();
        for t in &batch {
            let next_raw = self
                .actor_target
                .infer(&Matrix::row_from_slice(&t.next_obs));
            let next_action: Vec<f32> = next_raw.data().iter().map(|&v| tinynn::tanh(v)).collect();
            let mut next_in = t.next_obs.clone();
            next_in.extend_from_slice(&next_action);
            let q_next = self
                .critic_target
                .infer(&Matrix::row_from_slice(&next_in))
                .get(0, 0);
            let y = t.reward + cfg.gamma * if t.done { 0.0 } else { q_next };
            let mut q_in = t.obs.clone();
            q_in.extend_from_slice(&t.action);
            let x = Matrix::row_from_slice(&q_in);
            let (q, cache) = self.critic.forward(&x);
            let err = q.get(0, 0) - y;
            let dout = Matrix::from_vec(1, 1, vec![2.0 * err / cfg.batch_size as f32]);
            self.critic.backward(&cache, &dout);
        }
        self.critic_opt.update(&mut self.critic.params_mut(), 5.0);

        // --- Actor: ascend Q(s, µ(s)). ---
        self.actor.zero_grad();
        for t in &batch {
            let x = Matrix::row_from_slice(&t.obs);
            let (raw, cache) = self.actor.forward(&x);
            let action: Vec<f32> = raw.data().iter().map(|&v| tinynn::tanh(v)).collect();
            let (_q, dq_da) = q_and_grad_wrt_action(&mut self.critic, &t.obs, &action);
            // Minimize -Q: dL/da = -dQ/da, chained through tanh.
            let draw: Vec<f32> = dq_da
                .iter()
                .zip(&action)
                .map(|(&dq, &a)| -dq * (1.0 - a * a) / cfg.batch_size as f32)
                .collect();
            let dout = Matrix::from_vec(1, self.action_dim, draw);
            self.actor.backward(&cache, &dout);
        }
        // Discard the parameter gradients the actor pass accumulated in the
        // critic.
        self.critic.zero_grad();
        self.actor_opt.update(&mut self.actor.params_mut(), 5.0);

        // --- Target Polyak updates. ---
        self.actor_target.soft_update_from(&self.actor, cfg.tau);
        self.critic_target.soft_update_from(&self.critic, cfg.tau);
    }
}

impl Agent for Ddpg {
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
        "DDPG"
    }

    fn param_count(&self) -> usize {
        // Actor + critic + both targets (targets are real memory overhead,
        // which is why the paper reports DDPG/SAC/TD3 as heavier agents).
        2 * (self.actor.param_count() + self.critic.param_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::PatternEnv;
    use tinynn::SeedableRng;

    #[test]
    fn improves_over_random_on_short_task() {
        let mut rng = Rng::seed_from_u64(47);
        let mut env = PatternEnv::new(2, vec![3]);
        let config = DdpgConfig {
            hidden: 32,
            updates_per_epoch: 8,
            noise_std: 0.3,
            ..DdpgConfig::default()
        };
        let mut agent = Ddpg::new(env.obs_dim(), env.action_dims(), config, &mut rng);
        let mut rewards = Vec::new();
        for _ in 0..300 {
            rewards.push(agent.train_epoch(&mut env, &mut rng).episode_reward);
        }
        let early: f32 = rewards[..50].iter().sum::<f32>() / 50.0;
        let late: f32 = rewards[250..].iter().sum::<f32>() / 50.0;
        // Random play earns 2/3 in expectation; learning should beat early
        // exploration meaningfully.
        assert!(
            late > early + 0.2 || late > 1.5,
            "early {early:.2}, late {late:.2}"
        );
    }

    #[test]
    fn q_grad_matches_finite_difference() {
        let mut rng = Rng::seed_from_u64(48);
        let mut critic = Mlp::new(&[3 + 2, 16, 1], Activation::Tanh, &mut rng);
        let obs = [0.1f32, -0.3, 0.5];
        let action = [0.2f32, -0.7];
        let (_q, grad) = q_and_grad_wrt_action(&mut critic, &obs, &action);
        critic.zero_grad();
        let eps = 1e-3;
        for i in 0..2 {
            let mut ap = action;
            ap[i] += eps;
            let mut input = obs.to_vec();
            input.extend_from_slice(&ap);
            let qp = critic.infer(&Matrix::row_from_slice(&input)).get(0, 0);
            let mut am = action;
            am[i] -= eps;
            let mut input = obs.to_vec();
            input.extend_from_slice(&am);
            let qm = critic.infer(&Matrix::row_from_slice(&input)).get(0, 0);
            let num = (qp - qm) / (2.0 * eps);
            assert!(
                (num - grad[i]).abs() < 1e-2,
                "da[{i}]: {num} vs {}",
                grad[i]
            );
        }
    }
}
