use serde::{Deserialize, Serialize};

use crate::matrix::all_pos_zero;
use crate::{Matrix, Param};

/// The Adam optimizer (Kingma & Ba, 2015) with bias correction.
///
/// One `Adam` instance owns a shared step counter; call [`Adam::update`]
/// once per update with every parameter of the network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
}

/// Everything one element's update reads besides its own `w`, `g`, `m`,
/// `v`: the step's bias corrections and the optional clip factor.
#[derive(Debug)]
struct StepConsts {
    lr: f32,
    beta1: f32,
    beta2: f32,
    one_minus_beta1: f32,
    one_minus_beta2: f32,
    bc1: f32,
    bc2: f32,
    eps: f32,
    /// `max_norm / total` when the global norm clips, else `None`.
    clip: Option<f32>,
    /// Whether the step maps an element at rest to itself (see
    /// [`StepConsts::fixes_rest`]).
    rest_is_fixed: bool,
}

impl StepConsts {
    /// Whether [`adam_step`] leaves an element whose gradient is `±0.0`
    /// and whose moments are `+0.0` exactly as it was. The probe weight
    /// `-0.0` survives only a subtracted `+0.0` (`-0.0 - -0.0` is `+0.0`),
    /// and subtracting `+0.0` returns every weight unchanged.
    fn fixes_rest(&self) -> bool {
        [0.0f32, -0.0].into_iter().all(|g| {
            let (w, m, v) = adam_step(-0.0, g, 0.0, 0.0, self);
            w.to_bits() == (-0.0f32).to_bits() && m.to_bits() == 0 && v.to_bits() == 0
        })
    }
}

impl Adam {
    /// Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Number of updates performed so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// One Adam update of every parameter from its accumulated gradient,
    /// after clipping the global gradient norm to `max_grad_norm`; the
    /// gradients are left at `+0.0`, ready for the next accumulation.
    ///
    /// Two passes: the global norm (each parameter's sum of squares in
    /// element order, then their sum in parameter order), then one fused
    /// scale → Adam → zero pass per parameter. Every element sees the
    /// same IEEE operations in the same order as a clip pass, an Adam pass
    /// and a zeroing pass would apply. The fused pass runs in SIMD lanes
    /// (AVX when the CPU has it, picked at runtime like the GEMMs); `/` and
    /// `sqrt` are correctly rounded, so the lane width never changes a bit.
    ///
    /// Moments are lazy: an empty `m` or `v` stands for `+0.0` in every
    /// element, and is allocated as such just before a parameter's first
    /// fused pass, so the pass computes what it would from stored zeros.
    ///
    /// A parameter at rest is skipped whole: its gradient is all `±0.0`
    /// and its `m` and `v` are empty or all `+0.0` bit patterns, as the
    /// LSTM's `Wh` stays when every episode is one step from the zero
    /// state. The norm pass reports which gradients are all `±0.0`, so
    /// proving rest re-reads no gradient, and moments that are empty cost
    /// nothing to read. A skipped parameter has at most its gradient
    /// written, to `+0.0`, and is left with no moments (all-`+0.0` ones
    /// are dropped: empty means the same). The skip needs this step to map
    /// such an element to itself, which a check decides once per update by
    /// running the fused pass's own expressions on one: `m` and `v` must
    /// come out `+0.0` and the step subtracted from `w` exactly `+0.0`,
    /// which leaves every `w` as it was (a signalling NaN weight, which no
    /// arithmetic produces, would not be quieted). The check fails for
    /// `eps = 0`, `β₂ = 1` or a NaN `lr`, which turn the step into NaN;
    /// then every parameter takes the full pass. This is one of three
    /// call-site skips; the other two spare the LSTM's `h·Wh` and `dWh`
    /// from the zero state (see [`crate::Matrix::matmul`]). No kernel
    /// skips a zero term.
    ///
    /// # Panics
    ///
    /// Panics if a parameter's `m` or `v` is neither empty nor of `w`'s
    /// shape.
    pub fn update(&mut self, params: &mut [&mut Param], max_grad_norm: f32) {
        self.update_with(params, max_grad_norm, adam_param);
    }

    fn update_with(
        &mut self,
        params: &mut [&mut Param],
        max_grad_norm: f32,
        body: impl Fn(&mut Param, &StepConsts),
    ) {
        let scans: Vec<(f32, Grad)> = params.iter().map(|p| scan_grad(p.g.data())).collect();
        let total: f32 = scans.iter().map(|&(sq, _)| sq).sum::<f32>().sqrt();
        self.t += 1;
        let mut consts = StepConsts {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            one_minus_beta1: 1.0 - self.beta1,
            one_minus_beta2: 1.0 - self.beta2,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            eps: self.eps,
            clip: (total > max_grad_norm && total > 0.0).then(|| max_grad_norm / total),
            rest_is_fixed: false,
        };
        consts.rest_is_fixed = consts.fixes_rest();
        for (p, &(_, grad)) in params.iter_mut().zip(&scans) {
            let Param { w, g, m, v } = &mut **p;
            if consts.rest_is_fixed
                && grad != Grad::Nonzero
                && all_pos_zero(m.data())
                && all_pos_zero(v.data())
            {
                // At rest the step leaves `w`, `m` and `v` as they are, so
                // only a `-0.0` in the gradient needs writing.
                if grad == Grad::SignedZero {
                    g.fill(0.0);
                }
                *m = Matrix::default();
                *v = Matrix::default();
                continue;
            }
            let (rows, cols) = w.shape();
            for moment in [m, v] {
                if moment.data().is_empty() {
                    *moment = Matrix::zeros(rows, cols);
                }
                assert_eq!(moment.shape(), (rows, cols), "Adam moment shape");
            }
            body(p, &consts);
        }
    }
}

/// What the norm pass found in one parameter's gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grad {
    /// Every element is `+0.0`.
    PosZero,
    /// Every element is `±0.0`, and at least one is `-0.0`.
    SignedZero,
    /// Some element is neither.
    Nonzero,
}

/// One gradient's squared L2 norm (for clipping), the squares added one
/// by one in element order from `+0.0`, and what the gradient holds.
///
/// Blocks of 64 elements that are exactly `±0.0` are skipped whole. Their
/// squares are `+0.0`, and adding `+0.0` to a sum that started at `+0.0`
/// leaves it unchanged, so the skip returns the same bits as the plain
/// element-order sum. Such blocks are common: after a one-step episode the
/// recurrent weights' gradient is all zero, since the state they multiply
/// is the zero initial state. The skipped blocks' sign bits tell `+0.0`
/// from `-0.0`.
fn scan_grad(g: &[f32]) -> (f32, Grad) {
    let mut sum = 0.0f32;
    let mut nonzero = false;
    let mut zero_signs = 0u32;
    let mut scan = |block: &[f32]| {
        let bits = block.iter().fold(0, |any, v| any | v.to_bits());
        // Shifting out the sign bit leaves 0 exactly for ±0.0.
        if bits << 1 == 0 {
            zero_signs |= bits;
        } else {
            nonzero = true;
            for v in block {
                sum += v * v;
            }
        }
    };
    // Fixed-size blocks let the compiler unroll and vectorize the ORs.
    let (blocks, tail) = g.as_chunks::<64>();
    for block in blocks {
        scan(block);
    }
    scan(tail);
    let grad = if nonzero {
        Grad::Nonzero
    } else if zero_signs != 0 {
        Grad::SignedZero
    } else {
        Grad::PosZero
    };
    (sum, grad)
}

/// The fused per-parameter pass, on the widest lanes this CPU has.
fn adam_param(p: &mut Param, k: &StepConsts) {
    #[cfg(target_arch = "x86_64")]
    if crate::matrix::avx_available() {
        // SAFETY: AVX support was verified at runtime above.
        return unsafe { adam_param_avx(p, k) };
    }
    adam_param_impl(p, k)
}

/// [`adam_param_impl`] compiled for AVX lanes.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn adam_param_avx(p: &mut Param, k: &StepConsts) {
    adam_param_impl(p, k)
}

/// One parameter's scale → Adam → zero pass; its moments are allocated.
#[inline(always)]
fn adam_param_impl(p: &mut Param, k: &StepConsts) {
    let Param { w, g, m, v } = p;
    let elems = w
        .data_mut()
        .iter_mut()
        .zip(g.data_mut())
        .zip(m.data_mut())
        .zip(v.data_mut());
    for (((w, g), m), v) in elems {
        (*w, *m, *v) = adam_step(*w, *g, *m, *v, k);
        *g = 0.0;
    }
}

/// One element's scale → Adam step: its new `(w, m, v)`.
#[inline(always)]
fn adam_step(w: f32, g: f32, m: f32, v: f32, k: &StepConsts) -> (f32, f32, f32) {
    let grad = match k.clip {
        Some(factor) => g * factor,
        None => g,
    };
    let m_new = k.beta1 * m + k.one_minus_beta1 * grad;
    let v_new = k.beta2 * v + k.one_minus_beta2 * grad * grad;
    let m_hat = m_new / k.bc1;
    let v_hat = v_new / k.bc2;
    (w - k.lr * m_hat / (v_hat.sqrt() + k.eps), m_new, v_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tests::same_bits_or_both_nan;
    use crate::{Rng, SeedableRng};
    use proptest::prelude::*;
    use rand::Rng as _;

    /// Adam on a 1-D quadratic must converge to the minimum.
    #[test]
    fn minimizes_quadratic() {
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![5.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.w.get(0, 0);
            p.g.set(0, 0, 2.0 * (x - 3.0)); // d/dx (x-3)^2
            opt.update(&mut [&mut p], f32::INFINITY);
        }
        assert!((p.w.get(0, 0) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn first_step_moves_by_roughly_lr() {
        // With bias correction, the first Adam step has magnitude ~lr.
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Adam::new(0.01);
        p.g.set(0, 0, 123.0);
        opt.update(&mut [&mut p], f32::INFINITY);
        assert!((p.w.get(0, 0).abs() - 0.01).abs() < 1e-4);
        assert_eq!(p.g.get(0, 0).to_bits(), 0, "update consumes the gradient");
    }

    #[test]
    fn zero_grad_means_no_movement_after_warmup() {
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![1.0]));
        let mut opt = Adam::new(0.1);
        // No gradient at all: moments stay zero, update is exactly zero.
        opt.update(&mut [&mut p], 1.0);
        assert_eq!(p.w.get(0, 0), 1.0);
    }

    #[test]
    fn step_counter_advances() {
        let mut p = Param::new(Matrix::zeros(1, 1));
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.steps(), 0);
        opt.update(&mut [&mut p], 1.0);
        opt.update(&mut [&mut p], 1.0);
        assert_eq!(opt.steps(), 2);
    }

    /// Moments stay empty while a parameter is at rest, are allocated at
    /// its first step off rest, and stay once they hold nonzero values.
    #[test]
    fn moments_are_allocated_at_the_first_step_off_rest() {
        let mut p = Param::new(Matrix::from_vec(1, 2, vec![1.0, -2.0]));
        let mut opt = Adam::new(0.1);
        assert!(p.m.data().is_empty() && p.v.data().is_empty());
        p.g.set(0, 1, -0.0);
        opt.update(&mut [&mut p], 1.0);
        assert!(p.m.data().is_empty() && p.v.data().is_empty(), "at rest");
        assert_eq!(p.g.get(0, 1).to_bits(), 0, "update consumes the -0.0");
        p.g.set(0, 0, 0.5);
        opt.update(&mut [&mut p], 1.0);
        assert_eq!((p.m.shape(), p.v.shape()), ((1, 2), (1, 2)));
        opt.update(&mut [&mut p], 1.0);
        assert_eq!((p.m.shape(), p.v.shape()), ((1, 2), (1, 2)));
    }

    #[test]
    #[should_panic(expected = "Adam moment shape")]
    fn a_moment_of_another_shape_panics() {
        let mut p = Param::new(Matrix::zeros(2, 3));
        p.m = Matrix::zeros(3, 2);
        p.g.set(0, 0, 1.0);
        Adam::new(0.1).update(&mut [&mut p], 1.0);
    }

    /// The three passes [`Adam::update`] fuses, kept as its bit-identity
    /// oracle: clip the global norm, take an Adam step, zero the gradients.
    fn three_call_update(opt: &mut Adam, params: &mut [&mut Param], max_norm: f32) {
        let total: f32 = params
            .iter()
            .map(|p| p.g.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt();
        if total > max_norm && total > 0.0 {
            let factor = max_norm / total;
            for p in params.iter_mut() {
                for v in p.g.data_mut() {
                    *v *= factor;
                }
            }
        }
        opt.t += 1;
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        for p in params.iter_mut() {
            let n = p.w.data().len();
            for i in 0..n {
                let g = p.g.data()[i];
                let m = opt.beta1 * p.m.data()[i] + (1.0 - opt.beta1) * g;
                let v = opt.beta2 * p.v.data()[i] + (1.0 - opt.beta2) * g * g;
                p.m.data_mut()[i] = m;
                p.v.data_mut()[i] = v;
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                p.w.data_mut()[i] -= opt.lr * m_hat / (v_hat.sqrt() + opt.eps);
            }
        }
        for p in params.iter_mut() {
            p.zero_grad();
        }
    }

    /// The values `p`'s moment stands for: `+0.0` in `w`'s shape when it
    /// is empty, else itself, which must then have `w`'s shape.
    fn moment_values(p: &Param, moment: &Matrix) -> Matrix {
        let (r, c) = p.w.shape();
        if moment.data().is_empty() {
            return Matrix::zeros(r, c);
        }
        assert_eq!(moment.shape(), (r, c), "moment of another shape");
        moment.clone()
    }

    /// `p` with both moments allocated, as [`three_call_update`] reads
    /// them.
    fn with_moments(p: &Param) -> Param {
        Param {
            m: moment_values(p, &p.m),
            v: moment_values(p, &p.v),
            ..p.clone()
        }
    }

    /// Asserts `same` of every element of `w`, `g`, `m` and `v`, reading
    /// the fused side's moments through [`moment_values`], and that every
    /// pair of matrices has one shape, so nothing passes by zipping over
    /// an empty side.
    fn assert_params_agree(
        label: &str,
        fused: &[Param],
        oracle: &[Param],
        same: fn(f32, f32) -> bool,
    ) {
        assert_eq!(fused.len(), oracle.len());
        for (i, (pf, po)) in fused.iter().zip(oracle).enumerate() {
            let (m, v) = (moment_values(pf, &pf.m), moment_values(pf, &pf.v));
            for (name, x, y) in [
                ("w", &pf.w, &po.w),
                ("g", &pf.g, &po.g),
                ("m", &m, &po.m),
                ("v", &v, &po.v),
            ] {
                assert_eq!(x.shape(), y.shape(), "{label} param {i} {name} shape");
                for (k, (x, y)) in x.data().iter().zip(y.data()).enumerate() {
                    assert!(same(*x, *y), "{label} param {i} {name}[{k}]: {x} vs {y}");
                }
            }
        }
    }

    /// One compiled copy of the fused per-parameter pass.
    type Body = fn(&mut Param, &StepConsts);

    /// A change to Adam's constants.
    type Tweak = fn(&mut Adam);

    /// The baseline body, the AVX body where the CPU has it, and the
    /// runtime dispatch between them.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies: Vec<(&str, Body)> = vec![("baseline", adam_param_impl)];
        #[cfg(target_arch = "x86_64")]
        if crate::matrix::avx_available() {
            // SAFETY: AVX support was verified at runtime above.
            bodies.push(("avx", |p, k| unsafe { adam_param_avx(p, k) }));
        }
        bodies.push(("dispatched", adam_param));
        bodies
    }

    /// Adam's defaults, under which an element at rest stays as it is, and
    /// five constant sets that break that fixed point. `eps = 0`, `β₂ = 1`
    /// and a NaN `lr` turn the step into NaN, so the oracle writes NaN into
    /// every resting weight and the fused pass must write NaN in the same
    /// places. Two more break it for some elements only. `lr < 0` subtracts
    /// `-0.0`, which turns a `-0.0` weight into `+0.0`. `β₁ < 0` turns one
    /// sign of zero gradient into `m = -0.0`: `-0.0`, or `+0.0` when a
    /// negative `max_norm` clips with a negative factor.
    fn constant_sets() -> [(&'static str, Tweak); 6] {
        [
            ("defaults", |_| {}),
            ("eps = 0", |o| o.eps = 0.0),
            ("beta2 = 1", |o| o.beta2 = 1.0),
            ("NaN lr", |o| o.lr = f32::NAN),
            ("lr < 0", |o| o.lr = -3e-3),
            ("beta1 < 0", |o| o.beta1 = -0.5),
        ]
    }

    /// Writes one step's gradients into the fused side's parameters.
    type Grads = fn(&mut [Param], &mut Rng);

    /// Checks the fused side's parameters after a step; the flag says
    /// whether the constants keep an element at rest as it is.
    type Check = fn(&str, bool, &[Param]);

    /// Three updates of `start` on every body under every constant set,
    /// each beside [`three_call_update`] on a copy with allocated moments.
    /// The same seed draws the gradients for every run. After each step
    /// the two sides agree to the bit (NaN where the oracle has NaN) and
    /// `check` holds.
    fn agree_with_oracle(start: &[Param], max_norm: f32, seed: u64, grads: Grads, check: Check) {
        for (name, set) in constant_sets() {
            for (body, run) in bodies() {
                let label = format!("{body} ({name})");
                let mut fused = start.to_vec();
                let mut oracle: Vec<Param> = start.iter().map(with_moments).collect();
                let mut fused_opt = Adam::new(3e-3);
                let mut oracle_opt = Adam::new(3e-3);
                set(&mut fused_opt);
                set(&mut oracle_opt);
                let mut grad_rng = Rng::seed_from_u64(seed ^ 0x9e37);
                for _ in 0..3 {
                    grads(&mut fused, &mut grad_rng);
                    for (po, pf) in oracle.iter_mut().zip(&fused) {
                        po.g = pf.g.clone();
                    }
                    let mut refs: Vec<&mut Param> = fused.iter_mut().collect();
                    fused_opt.update_with(&mut refs, max_norm, run);
                    let mut refs: Vec<&mut Param> = oracle.iter_mut().collect();
                    three_call_update(&mut oracle_opt, &mut refs, max_norm);
                    assert_params_agree(&label, &fused, &oracle, same_bits_or_both_nan);
                    check(&label, name == "defaults", &fused);
                }
            }
        }
    }

    /// Parameters of assorted widths (SIMD blocks plus tails) with random
    /// weights: each shape once with random moments and once with none,
    /// then one more with explicit `+0.0` moments.
    fn random_params(rng: &mut Rng) -> Vec<Param> {
        let shapes = [
            (1usize, 1usize),
            (1, 7),
            (3, 8),
            (10, 13),
            (16, 33),
            (40, 20),
        ];
        let mut params = Vec::new();
        for &(r, c) in &shapes {
            let fresh = Param::new(Matrix::xavier(r, c, rng));
            let mut moved = Param::new(Matrix::xavier(r, c, rng));
            moved.m = Matrix::xavier(r, c, rng).scale(0.1);
            moved.v = Matrix::xavier(r, c, rng).map(|x| x * x);
            params.extend([moved, fresh]);
        }
        let explicit = with_moments(&Param::new(Matrix::xavier(5, 9, rng)));
        params.push(explicit);
        params
    }

    /// Random gradients: per parameter, scattered signed zeros, all
    /// `+0.0`, all `-0.0`, or 100-element zero runs, which cover whole
    /// blocks of the norm pass in the larger parameters. Norms span
    /// ~0.01..400 for the scales drawn, so about half the steps clip.
    fn random_grads(params: &mut [Param], rng: &mut Rng) {
        let scale = 10f32.powf(rng.gen_range(-3.0f32..1.5));
        for p in params {
            let layout = rng.gen_range(0..4);
            for (k, g) in p.g.data_mut().iter_mut().enumerate() {
                *g = match (layout, rng.gen_range(0..6)) {
                    (1, _) => 0.0,
                    (2, _) => -0.0,
                    (3, _) if (k / 100) % 2 == 0 => [0.0, -0.0][k % 2],
                    (_, 0) => 0.0,
                    (_, 1) => -0.0,
                    _ => rng.gen_range(-1.0f32..1.0) * scale,
                };
            }
        }
    }

    /// Per shape, three parameters with the same weights (the last one
    /// `-0.0`): at rest with no moments, at rest with explicit `+0.0`
    /// moments, and a near miss with explicit moments that must not skip.
    /// A near miss leaves rest at element 0 only: `m = -0.0`, `v = -0.0`, a
    /// subnormal `m`, a subnormal `v`, and (last) a nonzero gradient, which
    /// [`rest_grads`] plants.
    fn resting_params(rng: &mut Rng) -> Vec<Param> {
        let shapes = [(1usize, 1usize), (1, 7), (3, 8), (10, 13), (40, 20)];
        let mut params = Vec::new();
        for (miss, &(r, c)) in shapes.iter().enumerate() {
            let mut fresh = Param::new(Matrix::xavier(r, c, rng));
            fresh.w.data_mut()[r * c - 1] = -0.0;
            let explicit = with_moments(&fresh);
            let mut near = explicit.clone();
            let subnormal = f32::from_bits(rng.gen_range(0x0010_0000..0x0080_0000));
            match miss {
                0 => near.m.data_mut()[0] = -0.0,
                1 => near.v.data_mut()[0] = -0.0,
                2 => near.m.data_mut()[0] = -subnormal,
                3 => near.v.data_mut()[0] = subnormal,
                _ => {}
            }
            params.extend([fresh, explicit, near]);
        }
        params
    }

    /// One step's gradients for [`resting_params`]: random signed zeros,
    /// except element 0, which is `+0.0` (so a `-0.0` moment there must
    /// change) or, in the last parameter, nonzero.
    fn rest_grads(params: &mut [Param], rng: &mut Rng) {
        let last = params.len() - 1;
        for (i, p) in params.iter_mut().enumerate() {
            for (k, g) in p.g.data_mut().iter_mut().enumerate() {
                *g = match k {
                    0 if i == last => rng.gen_range(-1.0f32..1.0),
                    0 => 0.0,
                    _ => [0.0f32, -0.0][rng.gen_range(0..2usize)],
                };
            }
        }
    }

    /// The parameters of [`resting_params`] that are at rest hold no
    /// moments after a step that keeps them at rest, those that had
    /// explicit ones included, and hold allocated ones after any other.
    fn rested_without_moments(label: &str, rest_is_fixed: bool, params: &[Param]) {
        for (i, p) in params.iter().enumerate().filter(|(i, _)| i % 3 != 2) {
            for (name, moment) in [("m", &p.m), ("v", &p.v)] {
                assert_eq!(
                    moment.data().is_empty(),
                    rest_is_fixed,
                    "{label} resting param {i} {name} is {:?}",
                    moment.shape()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused update equals clip → step → zero (with the norm as a
        /// plain element-order sum) on every bit of `w`, `g`, `m` and `v`,
        /// over several consecutive steps, with and without clipping, with
        /// gradients that are random, `+0.0`, `-0.0` or zero runs, and with
        /// moments that are random, empty or explicit zeros.
        #[test]
        fn fused_update_matches_clip_step_zero_to_the_bit(
            seed in 0u64..1_000_000,
            max_norm in 0.5f32..10.0,
        ) {
            let start = random_params(&mut Rng::seed_from_u64(seed));
            agree_with_oracle(&start, max_norm, seed, random_grads, |_, _, _| {});
        }

        /// Skipping a parameter at rest changes no bit: the fused update
        /// equals clip → step → zero on [`resting_params`], whose near
        /// misses must take the full pass, and a skipped parameter is left
        /// with no moments, even one that started with explicit zeros.
        #[test]
        fn resting_parameters_skip_without_changing_a_bit(
            seed in 0u64..1_000_000,
            max_norm in -2.0f32..2.0,
        ) {
            let start = resting_params(&mut Rng::seed_from_u64(seed));
            agree_with_oracle(&start, max_norm, seed, rest_grads, rested_without_moments);
        }
    }
}
