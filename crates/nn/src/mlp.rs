use serde::{Deserialize, Serialize};

use crate::{Linear, MatRef, Matrix, Param, Rng};

/// Hidden-layer activation for [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    fn apply(self, m: &Matrix) -> Matrix {
        let mut y = m.clone();
        self.apply_assign(&mut y);
        y
    }

    /// In-place variant of `apply` for scratch-reuse paths.
    fn apply_assign(self, m: &mut Matrix) {
        match self {
            Activation::Tanh => crate::tanh_in_place(m.data_mut()),
            Activation::Relu => m.map_assign(|v| v.max(0.0)),
        }
    }

    /// Derivative expressed in terms of the *activated* output.
    fn derivative_from_output(self, y: &Matrix) -> Matrix {
        match self {
            Activation::Tanh => y.map(|v| 1.0 - v * v),
            Activation::Relu => y.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
        }
    }
}

/// Reusable ping-pong buffers for [`Mlp::infer_batch_into`].
#[derive(Debug, Default)]
pub struct MlpScratch {
    a: Matrix,
    b: Matrix,
}

impl MlpScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-forward cache for [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// Input plus each hidden layer's activated output.
    activations: Vec<Matrix>,
}

/// A multi-layer perceptron with a linear output layer: activations apply
/// to every layer except the last.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[10, 64, 64, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], activation: Activation, rng: &mut Rng) -> Self {
        assert!(widths.len() >= 2, "an MLP needs input and output widths");
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").output_dim()
    }

    /// Forward pass returning the output and the cache for backward. Rows
    /// are independent: an `N`-row batch is bit-identical to `N` separate
    /// 1-row calls.
    pub fn forward(&self, x: &Matrix) -> (Matrix, MlpCache) {
        self.forward_batch(x.view())
    }

    /// Borrowed-input forward over `N` stacked rows (e.g. a whole episode's
    /// observations for one batched critic update). The cache stores an
    /// owned copy of `x` for backward.
    pub fn forward_batch(&self, x: MatRef<'_>) -> (Matrix, MlpCache) {
        let mut activations = vec![x.to_matrix()];
        let mut cur = self.layers[0].forward_batch(x);
        if self.layers.len() > 1 {
            cur = self.activation.apply(&cur);
            activations.push(cur.clone());
        }
        for (idx, layer) in self.layers.iter().enumerate().skip(1) {
            cur = layer.forward(&cur);
            if idx + 1 < self.layers.len() {
                cur = self.activation.apply(&cur);
                activations.push(cur.clone());
            }
        }
        (cur, MlpCache { activations })
    }

    /// Forward pass without keeping a cache (inference only).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        self.forward(x).0
    }

    /// Cache-free batched forward writing through reusable ping-pong
    /// buffers — zero allocations once the scratch has warmed up. Returns a
    /// reference to the output rows inside the scratch.
    pub fn infer_batch_into<'s>(&self, x: MatRef<'_>, scratch: &'s mut MlpScratch) -> &'s Matrix {
        let n = self.layers.len();
        let MlpScratch { a, b } = scratch;
        let (mut src, mut dst) = (a, b);
        self.layers[0].forward_batch_into(x, src);
        if n > 1 {
            self.activation.apply_assign(src);
        }
        for (idx, layer) in self.layers.iter().enumerate().skip(1) {
            layer.forward_batch_into(src.view(), dst);
            if idx + 1 < n {
                self.activation.apply_assign(dst);
            }
            std::mem::swap(&mut src, &mut dst);
        }
        &*src
    }

    /// Backward pass from `dout` (gradient w.r.t. the linear output),
    /// accumulating parameter gradients and returning `dx`.
    pub fn backward(&mut self, cache: &MlpCache, dout: &Matrix) -> Matrix {
        let mut grad = dout.clone();
        for idx in (0..self.layers.len()).rev() {
            let input = &cache.activations[idx];
            grad = self.layers[idx].backward(input, &grad);
            if idx > 0 {
                let deriv = self
                    .activation
                    .derivative_from_output(&cache.activations[idx]);
                grad = grad.hadamard(&deriv);
            }
        }
        grad
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Mutable references to all parameters (for optimizers).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(Linear::params_mut)
            .collect()
    }

    /// Polyak-averages all weights toward `source` (target networks).
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f32) {
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            dst.soft_update_from(src, tau);
        }
    }

    /// Number of scalar parameters (reported as the "memory overhead" of
    /// RL agents in Table V).
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                let (wr, wc) = l.w.w.shape();
                let (_, bc) = l.b.w.shape();
                wr * wc + bc
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from_u64(21);
        let mlp = Mlp::new(&[6, 16, 3], Activation::Tanh, &mut rng);
        let x = Matrix::xavier(4, 6, &mut rng);
        let (y, _) = mlp.forward(&x);
        assert_eq!(y.shape(), (4, 3));
    }

    #[test]
    fn gradient_check_two_hidden_layers() {
        let mut rng = Rng::seed_from_u64(22);
        let mut mlp = Mlp::new(&[3, 8, 8, 2], Activation::Tanh, &mut rng);
        let x = Matrix::xavier(2, 3, &mut rng);
        let loss = |m: &Mlp, x: &Matrix| -> f32 { m.infer(x).data().iter().sum() };

        mlp.zero_grad();
        let (y, cache) = mlp.forward(&x);
        let dout = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        mlp.backward(&cache, &dout);

        let eps = 1e-2;
        // Probe one weight in each layer.
        for layer_idx in 0..3 {
            let mut pert = mlp.clone();
            let orig = pert.layers[layer_idx].w.w.get(0, 0);
            pert.layers[layer_idx].w.w.set(0, 0, orig + eps);
            let lp = loss(&pert, &x);
            pert.layers[layer_idx].w.w.set(0, 0, orig - eps);
            let lm = loss(&pert, &x);
            let num = (lp - lm) / (2.0 * eps);
            let ana = mlp.layers[layer_idx].w.g.get(0, 0);
            assert!(
                (num - ana).abs() < 0.02 * (1.0 + num.abs()),
                "layer {layer_idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn relu_zeroes_negative_gradients() {
        let mut rng = Rng::seed_from_u64(23);
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Relu, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let (y, cache) = mlp.forward(&x);
        let dout = Matrix::from_vec(1, 1, vec![1.0]);
        let dx = mlp.backward(&cache, &dout);
        assert!(y.is_finite());
        assert!(dx.is_finite());
    }

    #[test]
    fn param_count_matches_shape_arithmetic() {
        let mut rng = Rng::seed_from_u64(24);
        let mlp = Mlp::new(&[10, 32, 5], Activation::Tanh, &mut rng);
        assert_eq!(mlp.param_count(), 10 * 32 + 32 + 32 * 5 + 5);
    }

    #[test]
    #[should_panic(expected = "input and output")]
    fn single_width_panics() {
        let mut rng = Rng::seed_from_u64(25);
        let _ = Mlp::new(&[4], Activation::Tanh, &mut rng);
    }
}
