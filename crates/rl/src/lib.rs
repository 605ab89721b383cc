//! # rl-core — reinforcement learning for discrete design-space exploration
//!
//! The algorithm suite ConfuciuX evaluates (§IV-A3): the paper's own agent
//! (**REINFORCE** with an LSTM-128 policy) plus the actor-critic baselines
//! **A2C**, **ACKTR-style**, **PPO2**, and the continuous-control baselines
//! **DDPG**, **TD3**, **SAC** (acting through a continuous→discrete action
//! binning, as in the paper's "discrete vs continuous" comparison).
//!
//! Every agent implements [`Agent`] and interacts with an [`Env`]: an
//! episodic MDP with a fixed-length horizon, one observation vector per
//! step, and a *tuple* of discrete sub-actions per step (PEs, buffers, and
//! optionally dataflow style).
//!
//! ```
//! use rl_core::{Agent, Reinforce, ReinforceConfig, Env, toy::PatternEnv};
//! use tinynn::{Rng, SeedableRng};
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let mut env = PatternEnv::new(4, vec![3, 3]);
//! let mut agent = Reinforce::new(env.obs_dim(), env.action_dims(),
//!                                ReinforceConfig::default(), &mut rng);
//! let report = agent.train_epoch(&mut env, &mut rng);
//! assert_eq!(report.steps, 4);
//! ```

mod a2c;
mod acktr;
mod agent;
mod ddpg;
mod env;
mod policy;
mod ppo;
mod reinforce;
mod replay;
mod sac;
mod td3;
pub mod toy;
mod vec_env;

pub use a2c::{A2c, A2cConfig};
pub use acktr::{Acktr, AcktrConfig};
pub(crate) use agent::serial_epochs;
pub use agent::{Agent, EpochReport};
pub use ddpg::{Ddpg, DdpgConfig};
pub use env::{continuous_to_discrete, Env, Step};
pub use policy::{PolicyBackboneKind, PolicyNet, PolicyScratch, PolicyStep};
pub use ppo::{Ppo, PpoConfig};
pub use reinforce::{Reinforce, ReinforceConfig};
pub use replay::{ReplayBuffer, Transition};
pub use sac::{Sac, SacConfig};
pub use td3::{Td3, Td3Config};
pub use vec_env::{collect_vec_rollout, EnvSlot, EnvVec, VecEnv, VecRollout};

/// Discounted returns `G_t = Σ_{t'≥t} γ^{t'-t} r_{t'}` for one episode.
pub fn discounted_returns(rewards: &[f32], gamma: f32) -> Vec<f32> {
    let mut returns = vec![0.0; rewards.len()];
    let mut acc = 0.0;
    for (i, &r) in rewards.iter().enumerate().rev() {
        acc = r + gamma * acc;
        returns[i] = acc;
    }
    returns
}

/// Stacks per-step observation vectors into a `T × obs_dim` matrix so the
/// critic can run one batched forward/backward over a whole episode
/// instead of `T` single-row passes. Every row must have the same length.
pub(crate) fn stack_rows(rows: &[Vec<f32>]) -> tinynn::Matrix {
    let dim = rows.first().map_or(0, Vec::len);
    let mut out = tinynn::Matrix::zeros(rows.len(), dim);
    for (t, row) in rows.iter().enumerate() {
        out.row_mut(t).copy_from_slice(row);
    }
    out
}

/// Standardizes values to zero mean / unit variance (the paper's
/// "normalize rewards in each time step to standard distribution").
/// Degenerate (constant or single-element) inputs return all zeros.
pub fn standardize(values: &[f32]) -> Vec<f32> {
    if values.len() < 2 {
        return vec![0.0; values.len()];
    }
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
    let std = var.sqrt();
    if std < 1e-8 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - mean) / std).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_discount_geometrically() {
        let g = discounted_returns(&[1.0, 1.0, 1.0], 0.5);
        assert!((g[2] - 1.0).abs() < 1e-6);
        assert!((g[1] - 1.5).abs() < 1e-6);
        assert!((g[0] - 1.75).abs() < 1e-6);
    }

    #[test]
    fn returns_with_gamma_one_are_suffix_sums() {
        let g = discounted_returns(&[1.0, 2.0, 3.0], 1.0);
        assert_eq!(g, vec![6.0, 5.0, 3.0]);
    }

    #[test]
    fn standardize_zero_mean_unit_var() {
        let s = standardize(&[1.0, 2.0, 3.0, 4.0]);
        let mean: f32 = s.iter().sum::<f32>() / 4.0;
        let var: f32 = s.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-5);
    }

    #[test]
    fn standardize_handles_degenerate_input() {
        assert_eq!(standardize(&[5.0]), vec![0.0]);
        assert_eq!(standardize(&[2.0, 2.0, 2.0]), vec![0.0, 0.0, 0.0]);
        assert_eq!(standardize(&[]), Vec::<f32>::new());
    }
}
