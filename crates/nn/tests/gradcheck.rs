//! Finite-difference gradient checks for every tinynn layer.
//!
//! The RL results upstream are meaningless if backprop is wrong, so each
//! hand-written backward pass is verified against central differences:
//! for a scalar loss `L = Σ out∘T` (T a fixed random target matrix, so
//! `∂L/∂out = T`), every parameter gradient, and every input gradient a
//! backward returns, must match `(L(θ+ε) − L(θ−ε)) / 2ε`. The LSTM's
//! whole-sequence BPTT returns no input gradient; its recurrent terms are
//! checked through the parameter gradients of the earlier steps they feed.
//!
//! Tolerances are set for `f32`: central differencing leaves ~`ε²`
//! truncation plus ~`ulp(L)/ε` rounding, so with `ε = 1e-2` a 2% relative
//! gate (with a small absolute floor for near-zero gradients) is tight
//! enough to catch a wrong term and loose enough to never flake.

use rand::Rng as _;
use tinynn::{Activation, Linear, LstmCache, LstmCell, LstmState, Matrix, Mlp, Rng, SeedableRng};

const EPS: f32 = 1e-2;
const REL_TOL: f32 = 2e-2;
const ABS_FLOOR: f32 = 1e-3;

fn rand_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-1.0..1.0f32))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn weighted_sum(out: &Matrix, t: &Matrix) -> f32 {
    out.data().iter().zip(t.data()).map(|(o, w)| o * w).sum()
}

fn assert_grad_close(analytic: f32, numeric: f32, ctx: &str) {
    let denom = analytic.abs().max(numeric.abs()).max(ABS_FLOOR);
    let rel = (analytic - numeric).abs() / denom;
    assert!(
        rel < REL_TOL || (analytic - numeric).abs() < ABS_FLOOR,
        "{ctx}: analytic {analytic:.6} vs numeric {numeric:.6} (rel err {rel:.4})"
    );
}

// ---- Linear ----------------------------------------------------------------

#[test]
fn linear_param_and_input_gradients_match_finite_differences() {
    let mut rng = Rng::seed_from_u64(11);
    let mut layer = Linear::new(4, 3, &mut rng);
    let mut x = rand_matrix(2, 4, &mut rng);
    let t = rand_matrix(2, 3, &mut rng);

    layer.zero_grad();
    let dx = layer.backward(&x, &t);

    // Weight gradients.
    let analytic_w = layer.w.g.clone();
    for k in 0..analytic_w.data().len() {
        let num = {
            let orig = layer.w.w.data()[k];
            layer.w.w.data_mut()[k] = orig + EPS;
            let plus = weighted_sum(&layer.forward(&x), &t);
            layer.w.w.data_mut()[k] = orig - EPS;
            let minus = weighted_sum(&layer.forward(&x), &t);
            layer.w.w.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(analytic_w.data()[k], num, &format!("Linear w[{k}]"));
    }

    // Bias gradients.
    let analytic_b = layer.b.g.clone();
    for k in 0..analytic_b.data().len() {
        let num = {
            let orig = layer.b.w.data()[k];
            layer.b.w.data_mut()[k] = orig + EPS;
            let plus = weighted_sum(&layer.forward(&x), &t);
            layer.b.w.data_mut()[k] = orig - EPS;
            let minus = weighted_sum(&layer.forward(&x), &t);
            layer.b.w.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(analytic_b.data()[k], num, &format!("Linear b[{k}]"));
    }

    // Input gradients.
    for k in 0..x.data().len() {
        let num = {
            let orig = x.data()[k];
            x.data_mut()[k] = orig + EPS;
            let plus = weighted_sum(&layer.forward(&x), &t);
            x.data_mut()[k] = orig - EPS;
            let minus = weighted_sum(&layer.forward(&x), &t);
            x.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(dx.data()[k], num, &format!("Linear dx[{k}]"));
    }
}

#[test]
fn linear_backward_accumulates_across_calls() {
    // The documented contract: backward *accumulates* into `g` until
    // `zero_grad`. Optimizer steps rely on this for multi-episode batches.
    let mut rng = Rng::seed_from_u64(12);
    let mut layer = Linear::new(3, 2, &mut rng);
    let x = rand_matrix(1, 3, &mut rng);
    let t = rand_matrix(1, 2, &mut rng);

    layer.zero_grad();
    layer.backward(&x, &t);
    let once = layer.w.g.clone();
    layer.backward(&x, &t);
    for k in 0..once.data().len() {
        assert!(
            (layer.w.g.data()[k] - 2.0 * once.data()[k]).abs() <= 1e-5,
            "gradient did not accumulate at slot {k}"
        );
    }
}

// ---- Mlp -------------------------------------------------------------------

#[test]
fn mlp_gradients_match_finite_differences() {
    // Tanh keeps the loss surface smooth; ReLU kinks would poison the
    // finite-difference estimate near activation boundaries.
    let mut rng = Rng::seed_from_u64(21);
    let mut mlp = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut rng);
    let mut x = rand_matrix(2, 4, &mut rng);
    let t = rand_matrix(2, 3, &mut rng);

    mlp.zero_grad();
    let (_, cache) = mlp.forward(&x);
    let dx = mlp.backward(&cache, &t);

    let analytic: Vec<Matrix> = mlp.params_mut().iter().map(|p| p.g.clone()).collect();
    for (pi, grads) in analytic.iter().enumerate() {
        for k in 0..grads.data().len() {
            let num = {
                let orig = mlp.params_mut()[pi].w.data()[k];
                mlp.params_mut()[pi].w.data_mut()[k] = orig + EPS;
                let plus = weighted_sum(&mlp.infer(&x), &t);
                mlp.params_mut()[pi].w.data_mut()[k] = orig - EPS;
                let minus = weighted_sum(&mlp.infer(&x), &t);
                mlp.params_mut()[pi].w.data_mut()[k] = orig;
                (plus - minus) / (2.0 * EPS)
            };
            assert_grad_close(grads.data()[k], num, &format!("Mlp param {pi}[{k}]"));
        }
    }

    for k in 0..x.data().len() {
        let num = {
            let orig = x.data()[k];
            x.data_mut()[k] = orig + EPS;
            let plus = weighted_sum(&mlp.infer(&x), &t);
            x.data_mut()[k] = orig - EPS;
            let minus = weighted_sum(&mlp.infer(&x), &t);
            x.data_mut()[k] = orig;
            (plus - minus) / (2.0 * EPS)
        };
        assert_grad_close(dx.data()[k], num, &format!("Mlp dx[{k}]"));
    }
}

// ---- LstmCell --------------------------------------------------------------

/// Runs `xs` forward from `state` and returns each step's cache.
fn lstm_caches(cell: &LstmCell, xs: &[Matrix], mut state: LstmState) -> Vec<LstmCache> {
    xs.iter()
        .map(|x| {
            let (next, cache) = cell.forward(x, &state);
            state = next;
            cache
        })
        .collect()
}

/// Loss over a sequence touching every step's output: `Σ_t h_t∘T_t`.
fn lstm_sequence_loss(cell: &LstmCell, xs: &[Matrix], state: &LstmState, t: &Matrix) -> f32 {
    let mut state = state.clone();
    let mut total = 0.0;
    for (step, x) in xs.iter().enumerate() {
        let (next, _) = cell.forward(x, &state);
        total += weighted_sum(&next.h, &Matrix::row_from_slice(t.row(step)));
        state = next;
    }
    total
}

/// Every parameter gradient of `cell` (already filled by BPTT) against
/// central differences of `loss`.
fn check_lstm_params(cell: &mut LstmCell, loss: impl Fn(&LstmCell) -> f32, what: &str) {
    macro_rules! check_param {
        ($field:ident) => {
            let analytic = cell.$field.g.clone();
            for k in 0..analytic.data().len() {
                let num = {
                    let orig = cell.$field.w.data()[k];
                    cell.$field.w.data_mut()[k] = orig + EPS;
                    let plus = loss(cell);
                    cell.$field.w.data_mut()[k] = orig - EPS;
                    let minus = loss(cell);
                    cell.$field.w.data_mut()[k] = orig;
                    (plus - minus) / (2.0 * EPS)
                };
                assert_grad_close(
                    analytic.data()[k],
                    num,
                    &format!("{what} {}[{k}]", stringify!($field)),
                );
            }
        };
    }
    check_param!(wx);
    check_param!(wh);
    check_param!(b);
}

#[test]
fn lstm_cell_gradients_match_finite_differences() {
    // A 3-step sequence from a random (non-zero) initial state, with the
    // loss reading every step's h. The carried (dh, dc) of the later steps
    // feed the earlier steps' share of every parameter gradient, so a wrong
    // recurrent term fails the parameter checks below. (BPTT forms no input
    // gradient, and no state gradient for the earliest step.)
    let mut rng = Rng::seed_from_u64(31);
    let (input, hidden, steps) = (3, 4, 3);
    let mut cell = LstmCell::new(input, hidden, &mut rng);
    let xs: Vec<Matrix> = (0..steps)
        .map(|_| rand_matrix(1, input, &mut rng))
        .collect();
    let state = LstmState {
        h: rand_matrix(1, hidden, &mut rng),
        c: rand_matrix(1, hidden, &mut rng),
    };
    let t = rand_matrix(steps, hidden, &mut rng);

    cell.zero_grad();
    let caches = lstm_caches(&cell, &xs, state.clone());
    let seq: Vec<(&[f32], &LstmCache)> =
        xs.iter().zip(&caches).map(|(x, c)| (x.row(0), c)).collect();
    cell.backward_sequence(&seq, t.view());

    check_lstm_params(
        &mut cell,
        |c| lstm_sequence_loss(c, &xs, &state, &t),
        "LstmCell",
    );
}

#[test]
fn lstm_bptt_over_two_steps_matches_finite_differences() {
    // Only the last step's h enters the loss, so every gradient of the
    // first step arrives through the carried (dh, dc) alone.
    let mut rng = Rng::seed_from_u64(41);
    let (input, hidden) = (3, 4);
    let mut cell = LstmCell::new(input, hidden, &mut rng);
    let xs = vec![
        rand_matrix(1, input, &mut rng),
        rand_matrix(1, input, &mut rng),
    ];
    let mut t = rand_matrix(2, hidden, &mut rng);
    t.row_mut(0).fill(0.0);
    let s0 = LstmState::zeros(1, hidden);

    cell.zero_grad();
    let caches = lstm_caches(&cell, &xs, s0.clone());
    let seq: Vec<(&[f32], &LstmCache)> =
        xs.iter().zip(&caches).map(|(x, c)| (x.row(0), c)).collect();
    cell.backward_sequence(&seq, t.view());

    check_lstm_params(&mut cell, |c| lstm_sequence_loss(c, &xs, &s0, &t), "BPTT");
}
