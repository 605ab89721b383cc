use tinynn::Rng;

use crate::{Env, EnvSlot, EnvVec, VecEnv};

/// Summary of one training epoch (= one environment episode, the paper's
/// unit of search budget).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Sum of shaped rewards over the episode.
    pub episode_reward: f32,
    /// Objective cost of the episode's assignment if it was feasible.
    pub feasible_cost: Option<f64>,
    /// Steps taken before the episode ended.
    pub steps: usize,
}

/// A reinforcement-learning agent that can be trained one episode at a time.
///
/// All seven algorithms in this crate implement this trait, which is what
/// lets the experiment harness compare them under identical epoch budgets.
/// Agents are `Send`, so a search that owns one can move between threads
/// or wait, stopped, in a job registry.
pub trait Agent: Send {
    /// Runs one episode per entry of `rngs` through a vectorized
    /// environment — replica `i` driven exclusively by `rngs[i]` — and
    /// updates the agent's parameters (possibly buffered across episodes,
    /// as in PPO/DDPG) in replica order. Returns one report per episode,
    /// in replica order.
    ///
    /// For any replica count the outcome is a pure function of the RNG
    /// states: batching cost queries across replicas is a scheduling
    /// detail, never a semantic one. The on-policy agents collect all
    /// episodes in lockstep (one synchronized [`VecEnv::step_all`] per
    /// time step) before updating, which lets a [`VecEnv`] batch the cost
    /// evaluations; the off-policy ones step replica by replica, each
    /// through an [`EnvSlot`].
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len() > venv.n_envs()` or `rngs` is empty.
    fn train_epochs_vec(&mut self, venv: &mut dyn VecEnv, rngs: &mut [Rng]) -> Vec<EpochReport>;

    /// Runs one episode in `env`: [`Agent::train_epochs_vec`] over a
    /// one-replica [`EnvVec`] of the borrowed environment.
    fn train_epoch(&mut self, env: &mut dyn Env, rng: &mut Rng) -> EpochReport {
        let mut venv = EnvVec::new(vec![env]);
        self.train_epochs_vec(&mut venv, std::slice::from_mut(rng))
            .pop()
            .expect("one report per replica")
    }

    /// Captures the agent's mutable training state (network weights,
    /// optimizer moments, running baselines) as a serializable [`Value`]
    /// tree, or `None` for agents that don't support checkpointing.
    ///
    /// An agent restored via [`Agent::load_state`] must continue training
    /// bit-identically to the original instance (given identical RNG
    /// states and environments). Off-policy agents with large in-flight
    /// buffers (PPO's episode buffer, replay buffers) keep the default
    /// `None` — their state is not worth persisting mid-epoch — so only
    /// checkpoint-aware search drivers should rely on this returning
    /// `Some`.
    ///
    /// [`Value`]: serde::Value
    fn save_state(&self) -> Option<serde::Value> {
        None
    }

    /// Restores training state captured by [`Agent::save_state`] on an
    /// agent built with the same architecture and configuration. Errors on
    /// agents without checkpoint support or on a mismatched snapshot.
    fn load_state(&mut self, _state: &serde::Value) -> Result<(), String> {
        Err(format!("{} does not support checkpointing", self.name()))
    }

    /// Algorithm name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Total scalar parameters across all networks (Table V's memory
    /// overhead proxy).
    fn param_count(&self) -> usize;
}

/// Runs `episode` on replicas `0..rngs.len()` of `venv` one after the
/// other, each through an [`EnvSlot`] with its own stream. Agents whose
/// updates run between episodes and draw from the acting replica's stream
/// (the replay-based DDPG, TD3 and SAC) roll out this way: replica `i + 1`
/// must act on the parameters replica `i`'s update left behind.
///
/// # Panics
///
/// Panics if `rngs.len() > venv.n_envs()` or `rngs` is empty.
pub(crate) fn serial_epochs(
    venv: &mut dyn VecEnv,
    rngs: &mut [Rng],
    mut episode: impl FnMut(&mut dyn Env, &mut Rng) -> EpochReport,
) -> Vec<EpochReport> {
    assert!(!rngs.is_empty(), "need at least one RNG stream");
    assert!(
        rngs.len() <= venv.n_envs(),
        "more RNG streams than replicas"
    );
    rngs.iter_mut()
        .enumerate()
        .map(|(i, rng)| episode(&mut EnvSlot::new(&mut *venv, i), rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_report_is_cloneable_and_comparable() {
        let r = EpochReport {
            episode_reward: 1.0,
            feasible_cost: Some(2.0),
            steps: 3,
        };
        assert_eq!(r.clone(), r);
    }
}
