/// One environment transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Observation after the transition (meaningless when `done`).
    pub obs: Vec<f32>,
    /// Shaped reward for the action just taken.
    pub reward: f32,
    /// Whether the episode ended (horizon reached or constraint violated).
    pub done: bool,
}

/// An episodic MDP with a tuple of discrete sub-actions per step.
///
/// The design-space environments built on top of this trait have a fixed
/// horizon (one step per DNN layer) and end early on constraint violation.
pub trait Env {
    /// Width of the observation vector.
    fn obs_dim(&self) -> usize;

    /// Cardinality of each discrete sub-action (e.g. `[12, 12]` for the
    /// PE/buffer pair, `[12, 12, 3]` with the MIX dataflow action).
    fn action_dims(&self) -> Vec<usize>;

    /// Maximum episode length.
    fn horizon(&self) -> usize;

    /// Starts a new episode and returns the initial observation.
    fn reset(&mut self) -> Vec<f32>;

    /// Applies one tuple of sub-actions.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `actions.len() != action_dims().len()`
    /// or an index is out of range.
    fn step(&mut self, actions: &[usize]) -> Step;

    /// After an episode ends: the full-model objective cost if the episode
    /// produced a *feasible* (constraint-satisfying) complete assignment,
    /// else `None`.
    fn outcome_cost(&self) -> Option<f64>;
}

/// A borrowed environment is an environment, so an [`EnvVec`] can wrap
/// one it does not own (the one-replica case behind
/// [`Agent::train_epoch`]).
///
/// [`EnvVec`]: crate::EnvVec
/// [`Agent::train_epoch`]: crate::Agent::train_epoch
impl<E: Env + ?Sized> Env for &mut E {
    fn obs_dim(&self) -> usize {
        (**self).obs_dim()
    }

    fn action_dims(&self) -> Vec<usize> {
        (**self).action_dims()
    }

    fn horizon(&self) -> usize {
        (**self).horizon()
    }

    fn reset(&mut self) -> Vec<f32> {
        (**self).reset()
    }

    fn step(&mut self, actions: &[usize]) -> Step {
        (**self).step(actions)
    }

    fn outcome_cost(&self) -> Option<f64> {
        (**self).outcome_cost()
    }
}

/// Maps a continuous action in `[-1, 1]` to a discrete level index in
/// `0..levels`, the binning used to run DDPG/TD3/SAC on the discrete
/// design space.
pub fn continuous_to_discrete(a: f32, levels: usize) -> usize {
    assert!(levels >= 1);
    let clamped = a.clamp(-1.0, 1.0);
    let scaled = (clamped + 1.0) / 2.0 * (levels as f32 - 1.0);
    (scaled.round() as usize).min(levels - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_covers_all_levels() {
        let mut seen = vec![false; 12];
        let mut a = -1.0;
        while a <= 1.0 {
            seen[continuous_to_discrete(a, 12)] = true;
            a += 0.01;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn binning_endpoints() {
        assert_eq!(continuous_to_discrete(-1.0, 12), 0);
        assert_eq!(continuous_to_discrete(1.0, 12), 11);
        assert_eq!(continuous_to_discrete(0.0, 3), 1);
    }

    #[test]
    fn binning_clamps_out_of_range() {
        assert_eq!(continuous_to_discrete(-5.0, 4), 0);
        assert_eq!(continuous_to_discrete(5.0, 4), 3);
    }

    #[test]
    fn single_level_always_zero() {
        assert_eq!(continuous_to_discrete(0.7, 1), 0);
    }
}
