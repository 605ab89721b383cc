//! The critic-regression study of Fig. 6 (§IV-C3): can a critic network
//! learn the map from environment state to per-layer reward (latency)?
//!
//! The paper extracts the critic from its actor-critic baselines, trains it
//! standalone on `(state, per-layer latency)` pairs with MSE, and shows the
//! RMSE plateaus at a level far above useful accuracy — the HW cost surface
//! is too discrete/irregular. This module reproduces that experiment.

use maestro::DesignPoint;
use rand::Rng as _;
use serde::{Deserialize, Serialize};
use tinynn::{Activation, Adam, Matrix, Mlp, Rng, SeedableRng};

use crate::{HwProblem, LayerAssignment};

/// Configuration for [`critic_study`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticStudyConfig {
    /// Dataset sizes to sweep (the paper uses 1e4 … 2.6e5).
    pub dataset_sizes: Vec<usize>,
    /// Training epochs (full passes, batched).
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Fraction of samples held out for testing.
    pub test_fraction: f64,
    /// Critic hidden width (matches the A2C/PPO critics).
    pub hidden: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CriticStudyConfig {
    fn default() -> Self {
        CriticStudyConfig {
            dataset_sizes: vec![10_000, 50_000, 100_000],
            epochs: 40,
            batch: 256,
            lr: 1e-3,
            test_fraction: 0.2,
            hidden: 64,
            seed: 1234,
        }
    }
}

/// One learning curve of the study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticStudyResult {
    /// Dataset size this curve belongs to.
    pub dataset_size: usize,
    /// Training RMSE per epoch (in the objective's units, e.g. cycles).
    pub train_rmse: Vec<f64>,
    /// Test RMSE per epoch.
    pub test_rmse: Vec<f64>,
}

impl CriticStudyResult {
    /// Final training RMSE.
    pub fn final_train_rmse(&self) -> f64 {
        *self.train_rmse.last().expect("at least one epoch")
    }

    /// Final test RMSE.
    pub fn final_test_rmse(&self) -> f64 {
        *self.test_rmse.last().expect("at least one epoch")
    }
}

/// Builds the `(state, per-layer cost)` dataset by sampling random layers
/// and random coarse actions, mirroring the data a critic would see during
/// RL training.
fn sample_dataset(problem: &HwProblem, n: usize, rng: &mut Rng) -> (Vec<Vec<f32>>, Vec<f64>) {
    let model = problem.model();
    let space = problem.actions();
    let maxima = problem.shape_maxima();
    let levels = space.levels();
    let df = problem.dataflow().unwrap_or(maestro::Dataflow::NvdlaStyle);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let li = rng.gen_range(0..model.len());
        let pe_level = rng.gen_range(0..levels);
        let buf_level = rng.gen_range(0..levels);
        let layer = &model.layers()[li];
        let la = LayerAssignment {
            dataflow: df,
            point: DesignPoint::new(space.pe(pe_level), space.tile(buf_level))
                .expect("levels positive"),
        };
        let cost = problem.layer_cost(li, la);
        let norm = |v: f64, m: f64| (2.0 * v / m - 1.0) as f32;
        xs.push(vec![
            norm(layer.k() as f64, maxima[0]),
            norm(layer.c() as f64, maxima[1]),
            norm(layer.y() as f64, maxima[2]),
            norm(layer.x() as f64, maxima[3]),
            norm(layer.r() as f64, maxima[4]),
            norm(layer.s() as f64, maxima[5]),
            norm(layer.kind().type_id() as f64, 2.0),
            norm(pe_level as f64, (levels - 1) as f64),
            norm(buf_level as f64, (levels - 1) as f64),
            norm(li as f64, (model.len() - 1).max(1) as f64),
        ]);
        ys.push(cost);
    }
    (xs, ys)
}

fn rmse(critic: &Mlp, xs: &[Vec<f32>], ys: &[f64], scale: f64) -> f64 {
    let mut sum = 0.0;
    for (x, &y) in xs.iter().zip(ys) {
        let pred = critic.infer(&Matrix::row_from_slice(x)).get(0, 0) as f64 * scale;
        sum += (pred - y).powi(2);
    }
    (sum / xs.len() as f64).sqrt()
}

/// Runs the Fig. 6 experiment: one learning curve per dataset size.
pub fn critic_study(problem: &HwProblem, config: &CriticStudyConfig) -> Vec<CriticStudyResult> {
    let mut results = Vec::with_capacity(config.dataset_sizes.len());
    for &size in &config.dataset_sizes {
        let mut rng = Rng::seed_from_u64(config.seed ^ size as u64);
        let (xs, ys) = sample_dataset(problem, size, &mut rng);
        let split = ((1.0 - config.test_fraction) * size as f64) as usize;
        // Scale targets so the network trains on O(1) values; RMSE is
        // reported back in original units.
        let scale = ys[..split]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(1.0);
        let mut critic = Mlp::new(
            &[10, config.hidden, config.hidden, 1],
            Activation::Tanh,
            &mut rng,
        );
        let mut opt = Adam::new(config.lr);
        let mut train_rmse = Vec::with_capacity(config.epochs);
        let mut test_rmse = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            // One pass of minibatch SGD over a shuffled index stream.
            let mut order: Vec<usize> = (0..split).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(config.batch) {
                critic.zero_grad();
                for &i in chunk {
                    let x = Matrix::row_from_slice(&xs[i]);
                    let (pred, cache) = critic.forward(&x);
                    let err = pred.get(0, 0) - (ys[i] / scale) as f32;
                    let dout = Matrix::from_vec(1, 1, vec![2.0 * err / chunk.len() as f32]);
                    critic.backward(&cache, &dout);
                }
                opt.update(&mut critic.params_mut(), 5.0);
            }
            train_rmse.push(rmse(&critic, &xs[..split], &ys[..split], scale));
            test_rmse.push(rmse(&critic, &xs[split..], &ys[split..], scale));
        }
        results.push(CriticStudyResult {
            dataset_size: size,
            train_rmse,
            test_rmse,
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintKind, Deployment, Objective, PlatformClass};

    fn problem() -> HwProblem {
        HwProblem::builder(dnn_models::tiny_cnn())
            .objective(Objective::Latency)
            .constraint(ConstraintKind::Area, PlatformClass::Unlimited)
            .deployment(Deployment::LayerPipelined)
            .build()
    }

    #[test]
    fn study_produces_curves_of_requested_length() {
        let p = problem();
        let cfg = CriticStudyConfig {
            dataset_sizes: vec![500],
            epochs: 5,
            ..CriticStudyConfig::default()
        };
        let results = critic_study(&p, &cfg);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].train_rmse.len(), 5);
        assert_eq!(results[0].test_rmse.len(), 5);
        assert!(results[0].final_train_rmse().is_finite());
    }

    #[test]
    fn training_reduces_train_rmse() {
        let p = problem();
        let cfg = CriticStudyConfig {
            dataset_sizes: vec![2_000],
            epochs: 15,
            ..CriticStudyConfig::default()
        };
        let r = &critic_study(&p, &cfg)[0];
        assert!(
            r.final_train_rmse() < r.train_rmse[0],
            "train RMSE went {} -> {}",
            r.train_rmse[0],
            r.final_train_rmse()
        );
    }

    #[test]
    fn residual_error_remains_significant() {
        // The paper's point: the critic cannot regress the irregular cost
        // surface to precision. The final RMSE should stay a noticeable
        // fraction of the cost scale.
        let p = problem();
        let cfg = CriticStudyConfig {
            dataset_sizes: vec![2_000],
            epochs: 15,
            ..CriticStudyConfig::default()
        };
        let r = &critic_study(&p, &cfg)[0];
        assert!(r.final_test_rmse() > 0.0);
    }
}
