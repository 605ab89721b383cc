//! # tinynn — minimal neural-network substrate with explicit backprop
//!
//! The RL agents in ConfuciuX need small policy/critic networks (the paper
//! uses an LSTM-128 policy and MLP critics). This crate provides exactly
//! that: a dense [`Matrix`] type, [`Linear`] and [`LstmCell`] layers with
//! hand-written forward/backward passes, the [`Adam`] optimizer, and
//! categorical/Gaussian distribution heads for discrete and continuous
//! action spaces.
//!
//! There is no autograd tape: every layer's backward pass takes the cached
//! forward inputs explicitly. The caller owns the per-step caches and hands
//! a whole recorded episode to [`LstmCell::backward_sequence`] for
//! backpropagation through time.
//!
//! ```
//! use tinynn::{Linear, Matrix, Rng, SeedableRng};
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let layer = Linear::new(4, 2, &mut rng);
//! let x = Matrix::from_vec(1, 4, vec![0.1, -0.2, 0.3, 0.4]);
//! let y = layer.forward(&x);
//! assert_eq!(y.shape(), (1, 2));
//! ```

mod adam;
mod dist;
mod linear;
mod lstm;
mod matrix;
mod mlp;
mod tanh;

pub use adam::Adam;
pub use dist::{
    categorical_entropy, gaussian_log_prob, log_softmax, sample_categorical, softmax, softmax_into,
    GaussianGrad,
};
pub use linear::Linear;
pub use lstm::{LstmBatchScratch, LstmCache, LstmCell, LstmState};
pub use matrix::{MatRef, Matrix};
pub use mlp::{Activation, Mlp, MlpCache, MlpScratch};
pub use tanh::{tanh, tanh_in_place};

/// The RNG used throughout the crate (re-exported so callers don't need a
/// direct `rand` dependency for seeding).
pub type Rng = rand::rngs::StdRng;

pub use rand::SeedableRng;

/// A trainable parameter: value, gradient accumulator, and Adam moments.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Param {
    /// Current value.
    pub w: Matrix,
    /// Accumulated gradient (reset by [`Param::zero_grad`]).
    pub g: Matrix,
    /// Adam first moment. Empty (0×0) stands for `+0.0` in every element
    /// of `w`'s shape: only [`Adam::update`] allocates it, at the
    /// parameter's first step that is not at rest, and it drops it again
    /// when it finds the parameter at rest with moments all `+0.0`.
    pub m: Matrix,
    /// Adam second moment; empty means `+0.0` and is allocated and
    /// dropped the same way as `m`.
    pub v: Matrix,
}

impl Param {
    /// Wraps a value matrix as a parameter with a zeroed gradient and no
    /// Adam moments yet (read as `+0.0`).
    pub fn new(w: Matrix) -> Self {
        let (r, c) = w.shape();
        Param {
            w,
            g: Matrix::zeros(r, c),
            m: Matrix::default(),
            v: Matrix::default(),
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.g.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_zero_grad_clears() {
        let mut p = Param::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        p.g = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.g.data(), &[0.0, 0.0]);
    }

    /// After one update from zero moments, `m = (1−β₁)·g` for the gradient
    /// Adam actually consumed, so `m / (1−β₁)` recovers the clipped one.
    fn consumed_grad(p: &Param, opt: &Adam) -> Vec<f32> {
        p.m.data().iter().map(|m| m / (1.0 - opt.beta1)).collect()
    }

    #[test]
    fn global_clip_rescales() {
        let mut p = Param::new(Matrix::zeros(1, 2));
        p.g = Matrix::from_vec(1, 2, vec![3.0, 4.0]); // norm 5
        let mut opt = Adam::new(0.1);
        opt.update(&mut [&mut p], 1.0);
        let g = consumed_grad(&p, &opt);
        assert!(
            (g[0] - 0.6).abs() < 1e-5 && (g[1] - 0.8).abs() < 1e-5,
            "{g:?}"
        );
    }

    #[test]
    fn global_clip_leaves_small_grads_alone() {
        let mut p = Param::new(Matrix::zeros(1, 2));
        p.g = Matrix::from_vec(1, 2, vec![0.3, 0.4]);
        let mut opt = Adam::new(0.1);
        opt.update(&mut [&mut p], 1.0);
        let beta = 1.0 - opt.beta1;
        assert_eq!(p.m.data(), &[beta * 0.3, beta * 0.4]);
    }
}
