use crate::matrix::{all_finite, all_zero, gemm_nn};
use crate::{MatRef, Matrix, Param, Rng};

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Hidden and cell state of an LSTM, each `batch × hidden`.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LstmState {
    /// Hidden state `h`.
    pub h: Matrix,
    /// Cell state `c`.
    pub c: Matrix,
}

impl LstmState {
    /// All-zero initial state for `batch` sequences.
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        LstmState {
            h: Matrix::zeros(batch, hidden),
            c: Matrix::zeros(batch, hidden),
        }
    }
}

/// Everything the backward pass needs from one forward step *except* the
/// input `x`, which the caller already owns (episode buffers store the
/// observation anyway) and passes back to [`LstmCell::backward_sequence`] —
/// keeping a second copy here would double the rollout's per-step storage.
#[derive(Debug, Clone)]
pub struct LstmCache {
    h_prev: Matrix,
    c_prev: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    tanh_c_new: Matrix,
}

/// Reusable scratch for [`LstmCell::forward_batch_into`]: every intermediate
/// of a batched forward step lives here, so the rollout hot loop performs no
/// per-step allocations. After a forward step, [`LstmBatchScratch::h_new`] /
/// [`LstmBatchScratch::c_new`] hold the new `batch × hidden` state and
/// [`LstmBatchScratch::row_cache`] extracts a per-replica 1-row cache for
/// later BPTT.
#[derive(Debug, Default)]
pub struct LstmBatchScratch {
    gates: Matrix,
    hh: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    c_new: Matrix,
    tanh_c_new: Matrix,
    h_new: Matrix,
}

impl LstmBatchScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// New hidden state rows from the last forward step.
    pub fn h_new(&self) -> &Matrix {
        &self.h_new
    }

    /// New cell state rows from the last forward step.
    pub fn c_new(&self) -> &Matrix {
        &self.c_new
    }

    /// Extracts the 1-row BPTT cache for batch row `r`, given the pre-step
    /// state the forward ran from. Bit-identical to the cache a serial
    /// [`LstmCell::forward`] on that row alone would have produced.
    pub fn row_cache(&self, r: usize, prev: &LstmState) -> LstmCache {
        LstmCache {
            h_prev: Matrix::row_from_slice(prev.h.row(r)),
            c_prev: Matrix::row_from_slice(prev.c.row(r)),
            i: Matrix::row_from_slice(self.i.row(r)),
            f: Matrix::row_from_slice(self.f.row(r)),
            g: Matrix::row_from_slice(self.g.row(r)),
            o: Matrix::row_from_slice(self.o.row(r)),
            tanh_c_new: Matrix::row_from_slice(self.tanh_c_new.row(r)),
        }
    }
}

/// A single-layer LSTM cell with gate order `[i, f, g, o]` packed into one
/// `4H`-wide affine transform, matching the classic formulation:
///
/// ```text
/// i = σ(x·Wxi + h·Whi + bi)      f = σ(x·Wxf + h·Whf + bf)
/// g = tanh(x·Wxg + h·Whg + bg)   o = σ(x·Wxo + h·Who + bo)
/// c' = f∘c + i∘g                 h' = o∘tanh(c')
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LstmCell {
    /// Input weights, `input × 4H`.
    pub wx: Param,
    /// Recurrent weights, `hidden × 4H`.
    pub wh: Param,
    /// Gate biases, `1 × 4H` (forget-gate bias initialized to 1).
    pub b: Param,
    hidden: usize,
}

impl LstmCell {
    /// Xavier-initialized cell; forget-gate bias starts at 1.0 for gradient
    /// flow early in training.
    pub fn new(input: usize, hidden: usize, rng: &mut Rng) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b.set(0, j, 1.0);
        }
        LstmCell {
            wx: Param::new(Matrix::xavier(input, 4 * hidden, rng)),
            wh: Param::new(Matrix::xavier(hidden, 4 * hidden, rng)),
            b: Param::new(b),
            hidden,
        }
    }

    /// Hidden width `H`.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.wx.w.rows()
    }

    /// One forward step. Returns the new state and the cache needed by
    /// [`LstmCell::backward_sequence`]. Rows are independent: an `N`-row `x`
    /// gives bit-identical results to `N` separate 1-row calls.
    pub fn forward(&self, x: &Matrix, state: &LstmState) -> (LstmState, LstmCache) {
        self.forward_batch(x.view(), state)
    }

    /// Borrowed-input forward over `N` stacked rows (the batched rollout
    /// entry point). Allocates fresh outputs; the rollout hot loop uses
    /// [`LstmCell::forward_batch_into`] instead.
    pub fn forward_batch(&self, x: MatRef<'_>, state: &LstmState) -> (LstmState, LstmCache) {
        let mut scratch = LstmBatchScratch::new();
        self.forward_batch_into(x, state, &mut scratch);
        let cache = LstmCache {
            h_prev: state.h.clone(),
            c_prev: state.c.clone(),
            i: scratch.i,
            f: scratch.f,
            g: scratch.g,
            o: scratch.o,
            tanh_c_new: scratch.tanh_c_new,
        };
        (
            LstmState {
                h: scratch.h_new,
                c: scratch.c_new,
            },
            cache,
        )
    }

    /// Batched forward step writing every intermediate into `scratch` —
    /// zero allocations once the scratch has warmed up. The arithmetic is
    /// the serial forward's, element for element: gates accumulate as
    /// `(x·Wx + h·Wh) + b` in that order, so results are bit-identical to
    /// per-row serial calls. One pass per row forms the gate pre-activations
    /// and writes the `i/f/g/o/c'/tanh(c')/h'` rows; `tanh` runs lane-wide
    /// over whole rows through [`crate::tanh_in_place`].
    ///
    /// From the all-zero state (every element of `state.h` is `±0.0`) with
    /// every `Wh` weight finite, `h·Wh` is not multiplied: each of its
    /// terms is `±0.0`, so the GEMM would return `+0.0` everywhere, and
    /// that is what it is left at. A NaN or infinite weight takes the full
    /// GEMM and poisons its column. The GEMM itself never skips a zero
    /// term (see [`crate::Matrix::matmul`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `input_dim()` wide, or `state.h` or `state.c`
    /// is not `N×H`, whether or not the state is zero.
    pub fn forward_batch_into(
        &self,
        x: MatRef<'_>,
        state: &LstmState,
        scratch: &mut LstmBatchScratch,
    ) {
        let batch = x.rows();
        let h = self.hidden;
        assert_eq!(state.h.rows(), batch, "state batch mismatch");
        // The skip below bypasses the GEMM's inner-dims check, so both
        // state matrices are checked here.
        assert_eq!(state.h.cols(), h, "state width mismatch");
        assert_eq!(
            (state.c.rows(), state.c.cols()),
            (batch, h),
            "cell state shape mismatch"
        );
        x.matmul_into(&self.wx.w, &mut scratch.gates);
        if all_zero(state.h.data()) && all_finite(self.wh.w.data()) {
            scratch.hh.reset_to(batch, 4 * h);
        } else {
            state.h.matmul_into(&self.wh.w, &mut scratch.hh);
        }
        scratch.i.reset_to(batch, h);
        scratch.f.reset_to(batch, h);
        scratch.g.reset_to(batch, h);
        scratch.o.reset_to(batch, h);
        scratch.c_new.reset_to(batch, h);
        scratch.tanh_c_new.reset_to(batch, h);
        scratch.h_new.reset_to(batch, h);
        let LstmBatchScratch {
            gates,
            hh,
            i,
            f,
            g,
            o,
            c_new,
            tanh_c_new,
            h_new,
        } = scratch;
        for r in 0..batch {
            let pre = gates.row_mut(r);
            for ((z, hz), bz) in pre.iter_mut().zip(hh.row(r)).zip(self.b.w.data()) {
                *z = (*z + hz) + bz;
            }
            let pre: &[f32] = pre;
            let [pi, pf, pg, po] = [0, 1, 2, 3].map(|q| &pre[q * h..(q + 1) * h]);
            let (ir, fr, gr, or) = (i.row_mut(r), f.row_mut(r), g.row_mut(r), o.row_mut(r));
            for (out, p) in [(&mut *ir, pi), (&mut *fr, pf), (&mut *or, po)] {
                for (y, &v) in out.iter_mut().zip(p) {
                    *y = sigmoid(v);
                }
            }
            gr.copy_from_slice(pg);
            crate::tanh_in_place(gr);
            let cr = c_new.row_mut(r);
            for ((((c, &fv), &cv), &iv), &gv) in cr
                .iter_mut()
                .zip(&*fr)
                .zip(state.c.row(r))
                .zip(&*ir)
                .zip(&*gr)
            {
                *c = fv * cv + iv * gv;
            }
            let tr = tanh_c_new.row_mut(r);
            tr.copy_from_slice(cr);
            crate::tanh_in_place(tr);
            for ((hv, &ov), &tv) in h_new.row_mut(r).iter_mut().zip(&*or).zip(&*tr) {
                *hv = ov * tv;
            }
        }
    }

    /// Backpropagation through time over one recorded sequence of 1-row
    /// steps, earliest first. `steps[t]` is the input row step `t`'s forward
    /// consumed and the cache it returned; row `t` of `dh` (`T×H`) is the
    /// loss gradient reaching that step's output `h` from outside the
    /// recurrence.
    ///
    /// The recurrence walks `t` downward and computes only what it must
    /// per step: the step's `dgates` row, the carried `dc`, and the carried
    /// `dh = dgates·Whᵀ`, skipped for the earliest step since nothing reads
    /// it. No input gradient `dx` is formed. The carried `dh` is a 1-row
    /// GEMM against `Whᵀ`, which is written once per call, when `T > 1`,
    /// into `Wh`'s gradient: that has `Wh`'s element count, is `+0.0` on
    /// entry, and nothing reads it before `dWh` overwrites it (a skipped
    /// `dWh` zeroes it instead). The inputs and `h_prev` rows are stacked
    /// as columns in descending-t order, so `dWx` and `dWh` are one GEMM
    /// each over the `dgates` rows stacked the same way, and `db` one
    /// column sum over them: the order a per-step loop adds them in.
    ///
    /// The parameter gradients must be `+0.0` on entry (as
    /// [`LstmCell::zero_grad`] leaves them): the sums are written into them
    /// rather than added, which is what makes the result bit-identical to
    /// per-step accumulation into zeroed gradients.
    ///
    /// When every `h_prev` row is `±0.0` (a one-step episode from the zero
    /// initial state) and every `dgates` value is finite, `dWh` is not
    /// formed: each of its terms is `±0.0`, so the GEMM would write `+0.0`,
    /// and that is what `dWh` is left at. A NaN or infinite `dgates` value
    /// takes the full GEMM and poisons `dWh` as the per-step loop does. The
    /// forward's `h·Wh` is skipped the same way, and Adam then finds `Wh`
    /// at rest from its all-zero gradient, skips its step and keeps no
    /// moments for it (see [`crate::Matrix::matmul`]); the GEMM itself
    /// never skips a zero term.
    ///
    /// # Panics
    ///
    /// Panics if `dh` is not `T×H`, a step's input is not `input_dim()`
    /// wide, or a cache holds more than one row.
    pub fn backward_sequence(&mut self, steps: &[(&[f32], &LstmCache)], dh: MatRef<'_>) {
        let t_len = steps.len();
        let h = self.hidden;
        let input = self.input_dim();
        assert_eq!((dh.rows(), dh.cols()), (t_len, h), "dh must be T×H");
        // Checked before `Whᵀ` lands in `Wh.g`, so a panic leaves the
        // gradients zeroed.
        for &(x, cache) in steps {
            assert_eq!(x.len(), input, "input width mismatch");
            assert_eq!(cache.i.rows(), 1, "backward_sequence takes 1-row steps");
        }
        let zeroed = |p: &Param| p.g.data().iter().all(|v| v.to_bits() == 0);
        debug_assert!(
            zeroed(&self.wx) && zeroed(&self.wh) && zeroed(&self.b),
            "backward_sequence needs zeroed gradients"
        );
        if t_len > 1 {
            self.wh.w.transpose_into(self.wh.g.data_mut());
        }
        // Column `s` of each stack and row `s` of `dgates` hold step
        // `t_len - 1 - s`.
        let mut xs = vec![0.0f32; input * t_len];
        let mut h_prev = vec![0.0f32; h * t_len];
        let mut dgates = Matrix::zeros(t_len, 4 * h);
        let mut dh_carry = vec![0.0f32; h];
        let mut dc_carry = vec![0.0f32; h];
        for (s, (t, &(x, cache))) in steps.iter().enumerate().rev().enumerate() {
            for (i, &v) in x.iter().enumerate() {
                xs[i * t_len + s] = v;
            }
            for (j, &v) in cache.h_prev.row(0).iter().enumerate() {
                h_prev[j * t_len + s] = v;
            }
            let up = &dh.data()[t * h..(t + 1) * h];
            let (d_i, rest) = dgates.row_mut(s).split_at_mut(h);
            let (d_f, rest) = rest.split_at_mut(h);
            let (d_g, d_o) = rest.split_at_mut(h);
            for j in 0..h {
                let (iv, fv, gv, ov) = (
                    cache.i.data()[j],
                    cache.f.data()[j],
                    cache.g.data()[j],
                    cache.o.data()[j],
                );
                let tc = cache.tanh_c_new.data()[j];
                let dh_t = dh_carry[j] + up[j];
                // dL/dc' includes the path through h' = o ∘ tanh(c').
                let dc_t = dh_t * ov * (1.0 - tc * tc) + dc_carry[j];
                d_i[j] = dc_t * gv * iv * (1.0 - iv);
                d_f[j] = dc_t * cache.c_prev.data()[j] * fv * (1.0 - fv);
                d_g[j] = dc_t * iv * (1.0 - gv * gv);
                d_o[j] = dh_t * tc * ov * (1.0 - ov);
                dc_carry[j] = dc_t * fv;
            }
            if t > 0 {
                gemm_nn(dgates.row(s), 1, 4 * h, self.wh.g.data(), h, &mut dh_carry);
            }
        }
        gemm_nn(
            &xs,
            input,
            t_len,
            dgates.data(),
            4 * h,
            self.wx.g.data_mut(),
        );
        if !(all_zero(&h_prev) && all_finite(dgates.data())) {
            gemm_nn(
                &h_prev,
                h,
                t_len,
                dgates.data(),
                4 * h,
                self.wh.g.data_mut(),
            );
        } else if t_len > 1 {
            // `Whᵀ` is spent, and the skipped `dWh` is `+0.0`.
            self.wh.g.fill(0.0);
        }
        let db = self.b.g.data_mut();
        for row in dgates.data().chunks_exact(4 * h) {
            for (acc, v) in db.iter_mut().zip(row) {
                *acc += v;
            }
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.wx.zero_grad();
        self.wh.zero_grad();
        self.b.zero_grad();
    }

    /// Mutable references to the cell's parameters (for optimizers).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tests::{naive_nn, same_bits_or_both_nan};
    use crate::tanh::tests::oracle_tanhf;
    use crate::SeedableRng;
    use proptest::prelude::*;
    use rand::Rng as _;

    fn scalar_loss(cell: &LstmCell, xs: &[Matrix]) -> f32 {
        // Sum of all hidden outputs over a short unrolled sequence.
        let mut state = LstmState::zeros(1, cell.hidden_dim());
        let mut total = 0.0;
        for x in xs {
            let (next, _) = cell.forward(x, &state);
            total += next.h.data().iter().sum::<f32>();
            state = next;
        }
        total
    }

    /// Full BPTT finite-difference gradient check over a 3-step sequence —
    /// validates the recurrent path through both h and c.
    #[test]
    fn bptt_gradient_check() {
        let mut rng = Rng::seed_from_u64(11);
        let mut cell = LstmCell::new(3, 4, &mut rng);
        let xs: Vec<Matrix> = (0..3).map(|_| Matrix::xavier(1, 3, &mut rng)).collect();

        // Analytical grads via BPTT.
        cell.zero_grad();
        let mut state = LstmState::zeros(1, 4);
        let mut caches = Vec::new();
        for x in &xs {
            let (next, cache) = cell.forward(x, &state);
            caches.push(cache);
            state = next;
        }
        let steps: Vec<(&[f32], &LstmCache)> =
            xs.iter().zip(&caches).map(|(x, c)| (x.row(0), c)).collect();
        // Every step's h contributes 1.0 to the loss.
        let ones = Matrix::from_vec(3, 4, vec![1.0; 12]);
        cell.backward_sequence(&steps, ones.view());
        let eps = 1e-2;
        let checks = [(0usize, 0usize), (1, 5), (2, 11)];
        for &(r, c) in &checks {
            let mut pert = cell.clone();
            let orig = pert.wx.w.get(r, c);
            pert.wx.w.set(r, c, orig + eps);
            let lp = scalar_loss(&pert, &xs);
            pert.wx.w.set(r, c, orig - eps);
            let lm = scalar_loss(&pert, &xs);
            let num = (lp - lm) / (2.0 * eps);
            let ana = cell.wx.g.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "dWx[{r},{c}]: numeric {num} vs analytic {ana}"
            );
        }
        for &(r, c) in &[(0usize, 0usize), (3, 7)] {
            let mut pert = cell.clone();
            let orig = pert.wh.w.get(r, c);
            pert.wh.w.set(r, c, orig + eps);
            let lp = scalar_loss(&pert, &xs);
            pert.wh.w.set(r, c, orig - eps);
            let lm = scalar_loss(&pert, &xs);
            let num = (lp - lm) / (2.0 * eps);
            let ana = cell.wh.g.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "dWh[{r},{c}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let mut rng = Rng::seed_from_u64(12);
        let cell = LstmCell::new(5, 8, &mut rng);
        let x = Matrix::xavier(2, 5, &mut rng);
        let (state, _) = cell.forward(&x, &LstmState::zeros(2, 8));
        assert_eq!(state.h.shape(), (2, 8));
        assert_eq!(state.c.shape(), (2, 8));
        // h = o * tanh(c) is bounded by (-1, 1).
        assert!(state.h.data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn forget_bias_is_one() {
        let mut rng = Rng::seed_from_u64(13);
        let cell = LstmCell::new(2, 3, &mut rng);
        for j in 3..6 {
            assert_eq!(cell.b.w.get(0, j), 1.0);
        }
        assert_eq!(cell.b.w.get(0, 0), 0.0);
    }

    #[test]
    fn state_persists_information() {
        // Feeding the same input twice from different states must give
        // different outputs (the recurrence actually matters).
        let mut rng = Rng::seed_from_u64(14);
        let cell = LstmCell::new(2, 4, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let (s1, _) = cell.forward(&x, &LstmState::zeros(1, 4));
        let (s2, _) = cell.forward(&x, &s1);
        assert_ne!(s1.h, s2.h);
    }

    /// The per-step backward `backward_sequence` replaced, kept as the
    /// bit-identity oracle: one step's gradients accumulated into the
    /// parameters, returning `(dh_prev, dc_prev)`.
    fn per_step_backward(
        cell: &mut LstmCell,
        x: &Matrix,
        cache: &LstmCache,
        dh: &Matrix,
        dc: &Matrix,
    ) -> (Matrix, Matrix) {
        let h = cell.hidden;
        let dc_total = {
            let via_h = dh
                .hadamard(&cache.o)
                .hadamard(&cache.tanh_c_new.map(|t| 1.0 - t * t));
            via_h.add(dc)
        };
        let di = dc_total.hadamard(&cache.g);
        let df = dc_total.hadamard(&cache.c_prev);
        let dg = dc_total.hadamard(&cache.i);
        let do_ = dh.hadamard(&cache.tanh_c_new);
        let mut dgates = Matrix::zeros(1, 4 * h);
        for j in 0..h {
            let iv = cache.i.get(0, j);
            let fv = cache.f.get(0, j);
            let gv = cache.g.get(0, j);
            let ov = cache.o.get(0, j);
            dgates.set(0, j, di.get(0, j) * iv * (1.0 - iv));
            dgates.set(0, h + j, df.get(0, j) * fv * (1.0 - fv));
            dgates.set(0, 2 * h + j, dg.get(0, j) * (1.0 - gv * gv));
            dgates.set(0, 3 * h + j, do_.get(0, j) * ov * (1.0 - ov));
        }
        cell.wx.g.add_scaled(&x.matmul_tn(&dgates), 1.0);
        cell.wh.g.add_scaled(&cache.h_prev.matmul_tn(&dgates), 1.0);
        cell.b.g.add_scaled(&dgates.sum_rows(), 1.0);
        (dgates.matmul_nt(&cell.wh.w), dc_total.hadamard(&cache.f))
    }

    /// A value drawn from `lo..hi`, or (one time in six) a signed zero.
    fn value_or_zero(rng: &mut Rng, lo: f32, hi: f32) -> f32 {
        match rng.gen_range(0..12) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(lo..hi),
        }
    }

    fn random_row(rng: &mut Rng, n: usize, lo: f32, hi: f32) -> Matrix {
        Matrix::from_vec(1, n, (0..n).map(|_| value_or_zero(rng, lo, hi)).collect())
    }

    /// `rows` stacked [`random_row`]s.
    fn random_rows(rng: &mut Rng, rows: usize, n: usize, lo: f32, hi: f32) -> Matrix {
        let data = (0..rows)
            .flat_map(|_| random_row(rng, n, lo, hi).data().to_vec())
            .collect();
        Matrix::from_vec(rows, n, data)
    }

    /// A cell whose biases include `±0.0` and magnitudes ≥ 22.
    fn cell_with_planted_biases(rng: &mut Rng, input: usize, hidden: usize) -> LstmCell {
        let mut cell = LstmCell::new(input, hidden, rng);
        for (q, b) in cell.b.w.data_mut().iter_mut().enumerate() {
            match q % 7 {
                0 => *b = -0.0,
                1 => *b = 0.0,
                2 => *b = 25.0,
                3 => *b = -30.0,
                _ => {}
            }
        }
        cell
    }

    /// Runs the batched forward into `scratch` and asserts `same` of every
    /// output and an element-wise reference built from the naive GEMM,
    /// `sigmoid` and the fdlibm oracle `tanh`. Returns how many gate
    /// pre-activations and cell states reached `|v| >= 22`.
    fn assert_matches_elementwise_reference(
        cell: &LstmCell,
        x: &Matrix,
        state: &LstmState,
        scratch: &mut LstmBatchScratch,
        same: fn(f32, f32) -> bool,
    ) -> usize {
        cell.forward_batch_into(x.view(), state, scratch);
        let (batch, hidden) = state.h.shape();
        let xw = naive_nn(x, &cell.wx.w);
        let hh = naive_nn(&state.h, &cell.wh.w);
        let mut saturated = 0;
        for r in 0..batch {
            for j in 0..hidden {
                let pre = |gate: usize| {
                    let q = gate * hidden + j;
                    (xw.get(r, q) + hh.get(r, q)) + cell.b.w.get(0, q)
                };
                let (iv, fv, ov) = (sigmoid(pre(0)), sigmoid(pre(1)), sigmoid(pre(3)));
                let gv = oracle_tanhf(pre(2));
                let cv = fv * state.c.get(r, j) + iv * gv;
                let tv = oracle_tanhf(cv);
                saturated += usize::from(pre(2).abs() >= 22.0) + usize::from(cv.abs() >= 22.0);
                for (name, got, want) in [
                    ("i", &scratch.i, iv),
                    ("f", &scratch.f, fv),
                    ("g", &scratch.g, gv),
                    ("o", &scratch.o, ov),
                    ("c'", &scratch.c_new, cv),
                    ("tanh c'", &scratch.tanh_c_new, tv),
                    ("h'", &scratch.h_new, ov * tv),
                ] {
                    assert!(
                        same(got.get(r, j), want),
                        "{name}[{r},{j}] at batch {batch}: {} vs {want}",
                        got.get(r, j)
                    );
                }
            }
        }
        saturated
    }

    /// The gate pass equals, to the bit, an element-wise reference built
    /// from the naive GEMM, `sigmoid` and the fdlibm oracle `tanh`, at
    /// batch 1, 4, 5 and 64 through one reused scratch. Signed zeros are
    /// planted in the inputs, states and biases; an all-`-0.0` input and
    /// state row leaves the gates equal to the biases, some of which are
    /// set to ±0.0 and to magnitudes ≥ 22, and the cell states reach ±40.
    ///
    /// Zero-state batches of 1, 4 and 64 rows, whose `h·Wh` is skipped,
    /// match the reference too. With an infinity planted in `Wh` the
    /// naive GEMM gives `0·inf = NaN` down that column, so the skip must
    /// not fire, and every row's `h'` in that column must be NaN.
    #[test]
    fn forward_batch_into_matches_elementwise_reference() {
        let exact = |x: f32, y: f32| x.to_bits() == y.to_bits();
        let mut rng = Rng::seed_from_u64(15);
        let mut scratch = LstmBatchScratch::new();
        let input = 10;
        for (batch, hidden) in [(1, 13), (4, 128), (5, 13), (64, 128)] {
            let cell = cell_with_planted_biases(&mut rng, input, hidden);
            let mut x = random_rows(&mut rng, batch, input, -3.0, 3.0);
            let mut state = LstmState {
                h: random_rows(&mut rng, batch, hidden, -1.0, 1.0),
                c: random_rows(&mut rng, batch, hidden, -40.0, 40.0),
            };
            x.row_mut(0).fill(-0.0);
            state.h.row_mut(0).fill(-0.0);
            let saturated =
                assert_matches_elementwise_reference(&cell, &x, &state, &mut scratch, exact);
            assert!(saturated > 0, "no gate reached |v| >= 22 at batch {batch}");
        }
        for batch in [1, 4, 64] {
            let hidden = 128;
            let mut cell = cell_with_planted_biases(&mut rng, input, hidden);
            let x = random_rows(&mut rng, batch, input, -3.0, 3.0);
            let mut state = LstmState {
                h: Matrix::zeros(batch, hidden),
                c: random_rows(&mut rng, batch, hidden, -40.0, 40.0),
            };
            for v in state.h.data_mut() {
                *v = [0.0f32, -0.0][rng.gen_range(0..2usize)];
            }
            assert_matches_elementwise_reference(&cell, &x, &state, &mut scratch, exact);
            let (k, q) = (rng.gen_range(0..hidden), rng.gen_range(0..4 * hidden));
            let inf = [f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..2usize)];
            cell.wh.w.set(k, q, inf);
            assert_matches_elementwise_reference(
                &cell,
                &x,
                &state,
                &mut scratch,
                same_bits_or_both_nan,
            );
            let j = q % hidden;
            assert!(
                (0..batch).all(|r| scratch.h_new.get(r, j).is_nan()),
                "an infinite Wh[{k},{q}] must poison h' column {j} at batch {batch}"
            );
        }
    }

    /// A zero state of the wrong width panics like a nonzero one, although
    /// the zero state's `h·Wh` is never multiplied.
    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn forward_rejects_a_zero_state_of_the_wrong_width() {
        let cell = LstmCell::new(3, 4, &mut Rng::seed_from_u64(16));
        let state = LstmState::zeros(2, 5);
        cell.forward_batch(Matrix::zeros(2, 3).view(), &state);
    }

    #[test]
    #[should_panic(expected = "cell state shape mismatch")]
    fn forward_rejects_a_cell_state_of_the_wrong_width() {
        let cell = LstmCell::new(3, 4, &mut Rng::seed_from_u64(16));
        let state = LstmState {
            h: Matrix::zeros(2, 4),
            c: Matrix::zeros(2, 5),
        };
        cell.forward_batch(Matrix::zeros(2, 3).view(), &state);
    }

    /// `t_len` caches of random 1-row steps with planted signed zeros.
    fn random_caches(rng: &mut Rng, t_len: usize, h: usize) -> Vec<LstmCache> {
        (0..t_len)
            .map(|_| LstmCache {
                h_prev: random_row(rng, h, -1.0, 1.0),
                c_prev: random_row(rng, h, -2.0, 2.0),
                i: random_row(rng, h, 0.0, 1.0),
                f: random_row(rng, h, 0.0, 1.0),
                g: random_row(rng, h, -1.0, 1.0),
                o: random_row(rng, h, 0.0, 1.0),
                tanh_c_new: random_row(rng, h, -1.0, 1.0),
            })
            .collect()
    }

    /// Runs `backward_sequence` and the per-step loop it replaced (upstream
    /// `dh` threaded as `dh_prev + dh[t]`) on copies of `cell`, and asserts
    /// `same` of every gradient element.
    fn assert_matches_per_step_loop(
        cell: &LstmCell,
        xs: &[Matrix],
        caches: &[LstmCache],
        dh: &Matrix,
        same: fn(f32, f32) -> bool,
    ) {
        let mut fast = cell.clone();
        let mut oracle = cell.clone();
        let steps: Vec<(&[f32], &LstmCache)> =
            xs.iter().zip(caches).map(|(x, c)| (x.row(0), c)).collect();
        fast.backward_sequence(&steps, dh.view());

        let h = cell.hidden;
        let mut dh_carry = Matrix::zeros(1, h);
        let mut dc_carry = Matrix::zeros(1, h);
        for t in (0..xs.len()).rev() {
            let dh_total = dh_carry.add(&Matrix::row_from_slice(dh.row(t)));
            let (dh_prev, dc_prev) =
                per_step_backward(&mut oracle, &xs[t], &caches[t], &dh_total, &dc_carry);
            dh_carry = dh_prev;
            dc_carry = dc_prev;
        }

        for (name, a, b) in [
            ("wx", &fast.wx.g, &oracle.wx.g),
            ("wh", &fast.wh.g, &oracle.wh.g),
            ("b", &fast.b.g, &oracle.b.g),
        ] {
            for (k, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                assert!(same(*x, *y), "{name}[{k}]: {x} vs {y}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The whole-sequence BPTT equals the per-step loop it replaced on
        /// every gradient bit, for T ∈ {1, 2, 52}, random caches with
        /// planted signed zeros, and upstream rows that are random, all
        /// `+0.0`, all `-0.0`, or mixed. At H = 80 the carried `dh`, 80
        /// wide, runs a 64-column block and a tail.
        #[test]
        fn backward_sequence_matches_per_step_loop_to_the_bit(
            seed in 0u64..1_000_000,
            t_pick in 0usize..3,
            h_pick in 0usize..4,
        ) {
            let t_len = [1usize, 2, 52][t_pick];
            let h = [3usize, 8, 80, 128][h_pick];
            let input = 10;
            let mut rng = Rng::seed_from_u64(seed);
            let cell = LstmCell::new(input, h, &mut rng);
            let xs: Vec<Matrix> = (0..t_len).map(|_| random_row(&mut rng, input, -3.0, 3.0)).collect();
            let caches = random_caches(&mut rng, t_len, h);
            let mut dh = Matrix::zeros(t_len, h);
            for t in 0..t_len {
                let row: Vec<f32> = match rng.gen_range(0..4) {
                    0 => vec![0.0; h],
                    1 => vec![-0.0; h],
                    2 => (0..h).map(|j| if j % 2 == 0 { 0.0 } else { -0.0 }).collect(),
                    _ => random_row(&mut rng, h, -1.0, 1.0).data().to_vec(),
                };
                dh.row_mut(t).copy_from_slice(&row);
            }
            assert_matches_per_step_loop(&cell, &xs, &caches, &dh, |x, y| x.to_bits() == y.to_bits());
        }

        /// From the zero state `backward_sequence` skips `dWh`, and the skip
        /// changes no bit: with every `h_prev` row `±0.0`, at T ∈ {1, 2}, it
        /// equals the per-step loop on every gradient bit. Each case runs
        /// again with a NaN or an infinity planted in `dh`; its `dgates` are
        /// then not finite, `dWh` must take the GEMM, and the fast path must
        /// give NaN wherever the per-step loop does.
        #[test]
        fn backward_sequence_from_the_zero_state_matches_per_step_loop(
            seed in 0u64..1_000_000,
            t_len in 1usize..3,
            h_pick in 0usize..3,
        ) {
            let h = [3usize, 8, 128][h_pick];
            let input = 10;
            let mut rng = Rng::seed_from_u64(seed);
            let cell = LstmCell::new(input, h, &mut rng);
            let xs: Vec<Matrix> = (0..t_len).map(|_| random_row(&mut rng, input, -3.0, 3.0)).collect();
            let mut caches = random_caches(&mut rng, t_len, h);
            for cache in &mut caches {
                for v in cache.h_prev.data_mut() {
                    *v = [0.0f32, -0.0][rng.gen_range(0..2usize)];
                }
            }
            let mut dh = random_rows(&mut rng, t_len, h, -1.0, 1.0);
            assert_matches_per_step_loop(&cell, &xs, &caches, &dh, |x, y| x.to_bits() == y.to_bits());
            let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
            let (t, j) = (rng.gen_range(0..t_len), rng.gen_range(0..h));
            dh.row_mut(t)[j] = bad;
            assert_matches_per_step_loop(&cell, &xs, &caches, &dh, same_bits_or_both_nan);
        }
    }
}
