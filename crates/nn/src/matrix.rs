use rand::Rng as _;
use serde::{Deserialize, Serialize};

/// A dense row-major `f32` matrix. Small and allocation-friendly — policy
/// networks here are at most a few hundred units wide.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Register tile height shared by the GEMM kernels below.
const MR: usize = 4;
/// Register tile width shared by the GEMM kernels below; [`gemm_nn_impl`]
/// also runs tiles twice as wide.
const NR: usize = 8;
/// Columns of `b` that [`gemm_nn_impl`] takes at a time: a row outside a
/// full row panel keeps this many outputs in registers, and row panels
/// share one packed stretch of `b` this wide.
const NC: usize = 64;

// --- SIMD multiversioning -------------------------------------------------
//
// Each GEMM kernel below exists once as an `#[inline(always)]` `*_impl`
// body and is compiled twice on x86_64: once for the baseline target
// (SSE2) and once inside an `#[target_feature(enable = "avx")]` wrapper,
// picked once at runtime. Wider lanes change neither the operations nor
// their per-element order — every output element still accumulates its
// `k` terms in ascending order from `+0.0`, with a separate IEEE mul and
// add (rustc does not contract to FMA under any target feature) — so both
// copies produce bit-identical results; the tiled-vs-naive `to_bits`
// proptests pin this.

/// Whether this CPU supports AVX, probed once and cached.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = absent, 1 = present, 2 = not probed yet.
    static AVX: AtomicU8 = AtomicU8::new(2);
    match AVX.load(Ordering::Relaxed) {
        2 => {
            let has = std::is_x86_feature_detected!("avx");
            AVX.store(has as u8, Ordering::Relaxed);
            has
        }
        v => v == 1,
    }
}

// --- Zero-state scans -----------------------------------------------------
//
// The GEMMs never skip a zero operand (see `Matrix::matmul`). Three call
// sites instead skip a whole product when an input property fixes its
// result to the bit: the LSTM's `h·Wh` and `dWh` from an all-zero
// recurrent state, and Adam's step of a parameter at rest. These scans
// decide those properties (Adam's norm pass reports a gradient's zeros
// itself, so it scans only the moments here).

/// Whether every element is `+0.0` or `-0.0`.
pub(crate) fn all_zero(xs: &[f32]) -> bool {
    !any_bits(xs, |b| b & 0x7fff_ffff)
}

/// Whether every element has the bit pattern of `+0.0`.
pub(crate) fn all_pos_zero(xs: &[f32]) -> bool {
    !any_bits(xs, |b| b)
}

/// Whether no element is infinite or NaN.
pub(crate) fn all_finite(xs: &[f32]) -> bool {
    // Only an all-ones exponent field carries into the sign bit.
    !any_bits(xs, |b| ((b & 0x7f80_0000) + 0x0080_0000) & 0x8000_0000)
}

/// Whether `f` of some element's bits is nonzero. The results are ORed 64
/// elements at a time, and the scan stops after the first block where one
/// is.
#[inline(always)]
fn any_bits(xs: &[f32], f: impl Fn(u32) -> u32) -> bool {
    let any = |block: &[f32]| block.iter().fold(0, |any, v| any | f(v.to_bits())) != 0;
    let (blocks, tail) = xs.as_chunks::<64>();
    blocks.iter().any(|b| any(b)) || any(tail)
}

macro_rules! multiversioned {
    ($($entry:ident => $avx:ident / $impl_fn:ident;)+) => {
        $(
            pub(crate) fn $entry(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
                #[cfg(target_arch = "x86_64")]
                if avx_available() {
                    // SAFETY: AVX support was verified at runtime above.
                    return unsafe { $avx(a, ar, ac, b, bc, out) };
                }
                $impl_fn(a, ar, ac, b, bc, out)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx")]
            unsafe fn $avx(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
                $impl_fn(a, ar, ac, b, bc, out)
            }
        )+
    };
}

multiversioned! {
    gemm_nn => gemm_nn_avx / gemm_nn_impl;
    gemm_nt => gemm_nt_avx / gemm_nt_impl;
}

/// `out = a · b` where `a` is `ar×ac`, `b` is `ac×bc`, all row-major;
/// every element of `out` is overwritten.
/// - Every full `MR`-row panel runs register tiles across `b`: `MR×2NR`
///   while 16 columns remain, then one `MR×NR`, then one `MR×NR` over the
///   column tail padded with `+0.0`. When two or more panels read `b`, it
///   is packed into dense column blocks `NC` columns at a time and every
///   panel runs over each stretch, so batched rows stream `b` through
///   cache once per stretch; a single panel reads each whole block once,
///   in place.
/// - Each row outside a full panel (the 1-row serial case included) keeps
///   `NC` outputs in registers while `k` runs, and leaves only the column
///   tail to an axpy loop.
///
/// Every output element accumulates its `k` terms in ascending order from
/// `+0.0` with a separate mul and add (rustc does not contract to FMA), so
/// the result is bit-identical to the naive triple loop no matter how many
/// rows are batched — the invariant the batched-vs-serial `to_bits` tests
/// lock in. There is deliberately no zero-skip: `0.0 * NaN` and
/// `0.0 * inf` propagate as NaN in every GEMM variant (see
/// `Matrix::matmul`).
#[inline(always)]
fn gemm_nn_impl(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
    let panels = ar / MR * MR;
    if panels > 0 {
        let j0 = gemm_nn_panels::<{ 2 * NR }>(a, ac, panels, b, bc, 0, out);
        let j0 = gemm_nn_panels::<NR>(a, ac, panels, b, bc, j0, out);
        gemm_nn_panel_tail(a, ac, panels, b, bc, j0, out);
    }
    let row_cols = bc / NC * NC;
    for i in panels..ar {
        let arow = &a[i * ac..(i + 1) * ac];
        for j0 in (0..row_cols).step_by(NC) {
            let mut acc = [0.0f32; NC];
            for (k, &av) in arow.iter().enumerate() {
                let brow: &[f32; NC] = b[k * bc + j0..][..NC]
                    .try_into()
                    .expect("row blocks are NC wide");
                for j in 0..NC {
                    acc[j] += av * brow[j];
                }
            }
            out[i * bc + j0..i * bc + j0 + NC].copy_from_slice(&acc);
        }
        if row_cols < bc {
            // The column tail in axpy order: the same ascending-k sums
            // from `+0.0`, accumulated in memory.
            let tail = &mut out[i * bc + row_cols..(i + 1) * bc];
            tail.fill(0.0);
            for (k, &av) in arow.iter().enumerate() {
                for (o, bv) in tail.iter_mut().zip(&b[k * bc + row_cols..(k + 1) * bc]) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// The `MR×W` tiles of [`gemm_nn_impl`]'s first `panels` rows over every
/// whole `W`-column block of `b` from column `j0`. Returns the first column
/// they leave. Each panel runs all of a packed stretch's tiles before the
/// next panel starts, so it writes its rows `NC` columns at a time.
#[inline(always)]
fn gemm_nn_panels<const W: usize>(
    a: &[f32],
    ac: usize,
    panels: usize,
    b: &[f32],
    bc: usize,
    j0: usize,
    out: &mut [f32],
) -> usize {
    let wide = |row: &[f32]| -> [f32; W] { row.try_into().expect("block rows are W wide") };
    let end = j0 + (bc - j0) / W * W;
    if panels > MR {
        let mut bpack = vec![0.0f32; ac * NC.min(end - j0)];
        for c0 in (j0..end).step_by(NC) {
            let blocks = NC.min(end - c0) / W;
            // Pack each `ac×W` column block of the stretch contiguous once;
            // every row panel below then reads them as dense rows.
            for n in 0..blocks {
                let jb = c0 + n * W;
                for (k, row) in bpack[n * ac * W..(n + 1) * ac * W]
                    .chunks_exact_mut(W)
                    .enumerate()
                {
                    row.copy_from_slice(&b[k * bc + jb..k * bc + jb + W]);
                }
            }
            for i0 in (0..panels).step_by(MR) {
                for n in 0..blocks {
                    let block = bpack[n * ac * W..(n + 1) * ac * W]
                        .chunks_exact(W)
                        .map(wide);
                    let jb = c0 + n * W;
                    gemm_nn_tile(a, ac, i0, block, out, bc, jb..jb + W);
                }
            }
        }
    } else {
        // A single panel reads each block once: read it in place.
        for jb in (j0..end).step_by(W) {
            let block = b.chunks_exact(bc).map(|row| wide(&row[jb..jb + W]));
            gemm_nn_tile(a, ac, 0, block, out, bc, jb..jb + W);
        }
    }
    end
}

/// The column tail, the fewer than `NR` columns of `b` from `j0`, of
/// [`gemm_nn_impl`]'s first `panels` rows: packed with `+0.0` padding to
/// `NR` wide, so each panel runs one `MR×NR` tile and stores only the
/// tail's columns.
#[inline(always)]
fn gemm_nn_panel_tail(
    a: &[f32],
    ac: usize,
    panels: usize,
    b: &[f32],
    bc: usize,
    j0: usize,
    out: &mut [f32],
) {
    if j0 == bc {
        return;
    }
    let mut bpack = vec![0.0f32; ac * NR];
    for (k, row) in bpack.chunks_exact_mut(NR).enumerate() {
        row[..bc - j0].copy_from_slice(&b[k * bc + j0..(k + 1) * bc]);
    }
    let wide = |row: &[f32]| -> [f32; NR] { row.try_into().expect("block rows are NR wide") };
    for i0 in (0..panels).step_by(MR) {
        let block = bpack.chunks_exact(NR).map(wide);
        gemm_nn_tile(a, ac, i0, block, out, bc, j0..bc);
    }
}

/// One `MR×W` tile of [`gemm_nn_impl`]: rows `i0..i0 + MR` of `a` times
/// a `W`-wide column block of `b`, whose rows `block` yields in ascending
/// `k`. Its first `cols.len()` columns are written to `out`'s `cols`.
#[inline(always)]
fn gemm_nn_tile<const W: usize>(
    a: &[f32],
    ac: usize,
    i0: usize,
    block: impl Iterator<Item = [f32; W]>,
    out: &mut [f32],
    bc: usize,
    cols: std::ops::Range<usize>,
) {
    let a0 = &a[i0 * ac..(i0 + 1) * ac];
    let a1 = &a[(i0 + 1) * ac..(i0 + 2) * ac];
    let a2 = &a[(i0 + 2) * ac..(i0 + 3) * ac];
    let a3 = &a[(i0 + 3) * ac..(i0 + 4) * ac];
    let mut acc0 = [0.0f32; W];
    let mut acc1 = [0.0f32; W];
    let mut acc2 = [0.0f32; W];
    let mut acc3 = [0.0f32; W];
    for (k, brow) in block.enumerate() {
        let (v0, v1, v2, v3) = (a0[k], a1[k], a2[k], a3[k]);
        for j in 0..W {
            acc0[j] += v0 * brow[j];
            acc1[j] += v1 * brow[j];
            acc2[j] += v2 * brow[j];
            acc3[j] += v3 * brow[j];
        }
    }
    let w = cols.len();
    for (r, acc) in [acc0, acc1, acc2, acc3].iter().enumerate() {
        let row = (i0 + r) * bc;
        out[row + cols.start..row + cols.end].copy_from_slice(&acc[..w]);
    }
}

/// `out = a · bᵀ` where `a` is `ar×ac`, `b` is `br×ac`, `out` is `ar×br`
/// and overwritten. Same tiling and same ascending-k per-element accumulation
/// contract as [`gemm_nn_impl`]. The row and column tails fold from `+0.0`
/// like the tiles do (`Iterator::sum` would start at `-0.0`), so a row's
/// zero signs do not depend on whether it lands in a panel or a tail.
#[inline(always)]
fn gemm_nt_impl(a: &[f32], ar: usize, ac: usize, b: &[f32], br: usize, out: &mut [f32]) {
    let mut i0 = 0;
    while i0 + MR <= ar {
        let mut j0 = 0;
        while j0 + NR <= br {
            let mut acc = [[0.0f32; NR]; MR];
            for k in 0..ac {
                let mut bv = [0.0f32; NR];
                for (c, v) in bv.iter_mut().enumerate() {
                    *v = b[(j0 + c) * ac + k];
                }
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = a[(i0 + r) * ac + k];
                    for (slot, b) in accr.iter_mut().zip(&bv) {
                        *slot += av * b;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i0 + r) * br + j0..(i0 + r) * br + j0 + NR].copy_from_slice(accr);
            }
            j0 += NR;
        }
        for j in j0..br {
            for r in 0..MR {
                let arow = &a[(i0 + r) * ac..(i0 + r + 1) * ac];
                let brow = &b[j * ac..(j + 1) * ac];
                out[(i0 + r) * br + j] = dot_from_zero(arow, brow);
            }
        }
        i0 += MR;
    }
    for i in i0..ar {
        let arow = &a[i * ac..(i + 1) * ac];
        for j in 0..br {
            let brow = &b[j * ac..(j + 1) * ac];
            out[i * br + j] = dot_from_zero(arow, brow);
        }
    }
}

/// `Σ a[k]·b[k]` in ascending `k`, seeded at `+0.0` like every GEMM tile.
#[inline(always)]
fn dot_from_zero(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(0.0, |s, (x, y)| s + x * y)
}

/// A borrowed row-major matrix view over caller-owned storage. The GEMM
/// entry points accept views so hot loops (policy forwards over stacked
/// observation buffers) can run without first copying rows into a `Matrix`.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatRef<'a> {
    /// A `rows × cols` view of a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "view shape/data mismatch");
        MatRef { rows, cols, data }
    }

    /// A 1×n view of a slice.
    pub fn row(data: &'a [f32]) -> Self {
        MatRef::new(data, 1, data.len())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Owned copy.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.to_vec())
    }

    /// `self · other` (m×k by k×n). Same kernel and same bit-level results
    /// as [`Matrix::matmul`].
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other` written into `out`, reusing `out`'s allocation.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        out.reset_to(self.rows, other.cols);
        gemm_nn(
            self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// A 1×n row vector from a slice.
    pub fn row_from_slice(data: &[f32]) -> Self {
        Matrix::from_vec(1, data.len(), data.to_vec())
    }

    /// Xavier/Glorot-uniform initialization for a `rows × cols` weight.
    pub fn xavier(rows: usize, cols: usize, rng: &mut crate::Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// View of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols` reusing the existing allocation; contents
    /// are reset to zero. This is the scratch-arena primitive: hot loops
    /// call it instead of `Matrix::zeros` to avoid per-step allocations.
    pub fn reset_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Fills every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Borrowed view of the whole matrix.
    pub fn view(&self) -> MatRef<'_> {
        MatRef::new(&self.data, self.rows, self.cols)
    }

    /// `self · other` (m×k by k×n), on the register-tiled `gemm_nn`
    /// kernel that [`Matrix::matmul_tn`] and the LSTM's forward and BPTT
    /// also run. Each output element sums its `k` terms in ascending order
    /// from `+0.0`, bit-identical to the naive triple loop.
    ///
    /// Non-finite contract: there is no zero-skip anywhere in the GEMM
    /// family — `0.0 * NaN` and `0.0 * inf` contribute NaN, so a poisoned
    /// operand poisons the product in `matmul`, `matmul_tn` and `matmul_nt`
    /// alike (the repo-wide NaN-poisoning policy: bad numbers surface, they
    /// are never silently zeroed).
    ///
    /// The kernels themselves never skip. Three call sites skip a whole
    /// product when an input property fixes its result to the bit: every
    /// term is then `±0.0`, and a sum of such terms from `+0.0` is `+0.0`.
    /// - [`crate::LstmCell::forward_batch_into`] leaves `h·Wh` at `+0.0`
    ///   when every element of `h` is `±0.0` and every `Wh` weight is
    ///   finite.
    /// - [`crate::LstmCell::backward_sequence`] leaves `dWh` at its `+0.0`
    ///   entry value when every `h_prev` row is `±0.0` and every `dgates`
    ///   value is finite.
    /// - [`crate::Adam::update`] leaves a parameter whose gradient is `±0.0`
    ///   and whose moments are empty or `+0.0` untouched when the step's
    ///   constants map such an element to itself, and keeps no moments for
    ///   it (an empty moment reads as `+0.0`).
    ///
    /// A NaN or an infinity where a skip would drop it fails these guards,
    /// so it still takes the full path and poisons the result.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.view().matmul(other)
    }

    /// `self · other` written into `out`, reusing `out`'s allocation.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.view().matmul_into(other, out);
    }

    /// `selfᵀ · other`: a transposed copy of `self` times `other` on the
    /// `gemm_nn` kernel, which sums each output element's terms in
    /// ascending row order from `+0.0`, as the naive loop over `self`'s
    /// rows does. Same non-finite contract as [`Matrix::matmul`].
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn outer dims");
        self.transpose().matmul(other)
    }

    /// `self · otherᵀ` without materializing the transpose. Same non-finite
    /// contract as [`Matrix::matmul`].
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dims");
        let mut out = Matrix::zeros(self.rows, other.rows);
        gemm_nt(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out.data);
        out
    }

    /// Writes the transpose, `cols × rows` row-major, into `out`. Rows are
    /// read in bands of eight, so each column of a band lands in `out` as
    /// one contiguous 8-element write.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly as many elements as `self`.
    pub(crate) fn transpose_into(&self, out: &mut [f32]) {
        const BAND: usize = 8;
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(out.len(), rows * cols, "transpose shape");
        let band_rows = rows / BAND * BAND;
        let bands = self.data[..band_rows * cols].chunks_exact(BAND * cols);
        for (i0, band) in (0..).step_by(BAND).zip(bands) {
            let band: [&[f32]; BAND] = std::array::from_fn(|r| &band[r * cols..(r + 1) * cols]);
            for j in 0..cols {
                let column: [f32; BAND] = std::array::from_fn(|r| band[r][j]);
                out[j * rows + i0..][..BAND].copy_from_slice(&column);
            }
        }
        for i in band_rows..rows {
            for j in 0..cols {
                out[j * rows + i] = self.data[i * cols + j];
            }
        }
    }

    /// Elementwise sum. Shapes must match.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shapes");
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference. Shapes must match.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shapes");
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product. Shapes must match.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shapes");
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += alpha * other`.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place elementwise `self += other`. Shapes must match.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds a 1×cols row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_assign(row);
        out
    }

    /// In-place variant of [`Matrix::add_row_broadcast`] (bias add without
    /// allocating).
    pub fn add_row_broadcast_assign(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast row must be 1×n");
        assert_eq!(row.cols, self.cols, "broadcast width");
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.data[r * self.cols + c] += row.data[c];
            }
        }
    }

    /// Column-sum collapsed to a 1×cols row (bias-gradient reduction).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` elementwise in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::SeedableRng;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let mut rng = crate::Rng::seed_from_u64(1);
        let a = Matrix::xavier(3, 4, &mut rng);
        let b = Matrix::xavier(3, 5, &mut rng);
        let via_t = a.transpose().matmul(&b);
        let direct = a.matmul_tn(&b);
        for (x, y) in via_t.data().iter().zip(direct.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        let c = Matrix::xavier(5, 4, &mut rng);
        let via_t2 = a.matmul(&c.transpose());
        let direct2 = a.matmul_nt(&c);
        for (x, y) in via_t2.data().iter().zip(direct2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn broadcast_and_sum_rows_are_inverse_in_shape() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::row_from_slice(&[10.0, 20.0, 30.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.get(1, 2), 36.0);
        let s = x.sum_rows();
        assert_eq!(s.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Naive reference GEMMs the tiled kernels must match to the bit.
    pub(crate) fn naive_nn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f32;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn naive_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                let mut s = 0.0f32;
                for r in 0..a.rows() {
                    s += a.get(r, i) * b.get(r, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn naive_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut s = 0.0f32;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(j, k);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    /// The exactness rule of the zero-state skip tests: a value equals its
    /// oracle's on every bit, or both are NaN.
    pub(crate) fn same_bits_or_both_nan(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// A Xavier `rows × cols` matrix with signed zeros planted: every third
    /// row is all `-0.0`, the next all `+0.0`, the rest keep random values.
    fn with_zero_rows(rows: usize, cols: usize, rng: &mut crate::Rng) -> Matrix {
        let mut m = Matrix::xavier(rows, cols, rng);
        for r in 0..rows {
            match r % 3 {
                0 => m.row_mut(r).fill(-0.0),
                1 => m.row_mut(r).fill(0.0),
                _ => {}
            }
        }
        m
    }

    /// Random operands, then operands whose products are all `±0.0`, must
    /// hit every tile/tail path without changing bits — the tiled kernels'
    /// accumulation order is the naive ascending-k order from `+0.0`. With
    /// `-0.0` rows against all-positive weights every product is `-0.0`,
    /// so a path seeded at `-0.0` would return `-0.0` where the rest
    /// return `+0.0`.
    #[test]
    fn tiled_kernels_match_naive_reference_to_the_bit() {
        let mut rng = crate::Rng::seed_from_u64(7);
        // Shapes chosen to exercise full tiles, column tails, and row tails,
        // plus the policy's gate GEMMs: one row panel reads `b` in place,
        // two or more pack it. Rows outside a panel run a 64-column block,
        // a block and a tail, or the tail alone; panels run the 16-wide
        // tile, the 8-wide one and the tail in place (4 rows) and packed
        // (8 rows).
        let mut shapes = vec![
            (1usize, 5usize, 3usize),
            (4, 8, 8),
            (5, 8, 9),
            (7, 13, 17),
            (12, 32, 24),
            (64, 10, 12),
            (4, 10, 512),
            (4, 128, 512),
            (8, 128, 512),
        ];
        for m in [1, 2, 3, 5, 7] {
            shapes.extend([64, 128, 100, 12].map(|n| (m, 33, n)));
        }
        for m in [4, 8] {
            shapes.extend([16, 24, 20, 12].map(|n| (m, 33, n)));
        }
        for &(m, k, n) in &shapes {
            for zeros in [false, true] {
                let lhs = |rows, cols, rng: &mut crate::Rng| {
                    if zeros {
                        with_zero_rows(rows, cols, rng)
                    } else {
                        Matrix::xavier(rows, cols, rng)
                    }
                };
                let rhs = |rows, cols, rng: &mut crate::Rng| {
                    let m = Matrix::xavier(rows, cols, rng);
                    if zeros {
                        m.map(f32::abs)
                    } else {
                        m
                    }
                };
                let a = lhs(m, k, &mut rng);
                let b = rhs(k, n, &mut rng);
                assert_bits_eq(&a.matmul(&b), &naive_nn(&a, &b));
                let mut into = Matrix::zeros(1, 1);
                a.matmul_into(&b, &mut into);
                assert_bits_eq(&into, &naive_nn(&a, &b));

                // For aᵀ·b the zero rows of `a` zero whole k-terms; zero
                // columns make whole outputs ±0 products.
                let at = lhs(m, k, &mut rng).transpose();
                let bt = rhs(k, n, &mut rng);
                assert_bits_eq(&at.matmul_tn(&bt), &naive_tn(&at, &bt));

                let an = lhs(m, k, &mut rng);
                let bn = rhs(n, k, &mut rng);
                assert_bits_eq(&an.matmul_nt(&bn), &naive_nt(&an, &bn));
            }
        }
    }

    /// The zero-skip hazard fix: `0.0 * NaN` / `0.0 * inf` must poison the
    /// product in every GEMM variant — no variant silently zeroes them.
    #[test]
    fn non_finite_operands_poison_all_gemm_variants() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // Row of zeros against a poisoned operand: the old `a == 0.0`
            // skip used to return exact zeros here.
            let zero_row = Matrix::zeros(1, 3);
            let mut poisoned = Matrix::zeros(3, 2);
            poisoned.set(1, 0, bad);
            let out = zero_row.matmul(&poisoned);
            assert!(out.get(0, 0).is_nan(), "matmul must propagate {bad}");
            // The same through the row accumulator's 64-column block, the
            // 4×16 panel tile and the padded panel tail.
            for (rows, cols) in [(1, 64), (4, 16), (4, 12)] {
                let zeros = Matrix::zeros(rows, 3);
                let mut poisoned = Matrix::zeros(3, cols);
                poisoned.set(2, 9, bad);
                let out = zeros.matmul(&poisoned);
                assert!(
                    (0..rows).all(|r| out.get(r, 9).is_nan()),
                    "{rows}-row matmul must propagate {bad}"
                );
            }

            let zero_col = Matrix::zeros(3, 1);
            let mut poisoned_tn = Matrix::zeros(3, 2);
            poisoned_tn.set(1, 0, bad);
            let out_tn = zero_col.matmul_tn(&poisoned_tn);
            assert!(out_tn.get(0, 0).is_nan(), "matmul_tn must propagate {bad}");

            let zero_row_nt = Matrix::zeros(1, 3);
            let mut poisoned_nt = Matrix::zeros(2, 3);
            poisoned_nt.set(0, 1, bad);
            let out_nt = zero_row_nt.matmul_nt(&poisoned_nt);
            assert!(out_nt.get(0, 0).is_nan(), "matmul_nt must propagate {bad}");
        }
    }

    #[test]
    fn matref_row_matmul_matches_owned_row() {
        let mut rng = crate::Rng::seed_from_u64(11);
        let w = Matrix::xavier(6, 5, &mut rng);
        let x: Vec<f32> = (0..6).map(|i| i as f32 * 0.25 - 0.5).collect();
        let owned = Matrix::row_from_slice(&x).matmul(&w);
        let viewed = MatRef::row(&x).matmul(&w);
        assert_bits_eq(&owned, &viewed);
    }

    #[test]
    fn reset_to_reuses_allocation_and_zeroes() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0; 6]);
        m.reset_to(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn xavier_is_bounded() {
        let mut rng = crate::Rng::seed_from_u64(2);
        let m = Matrix::xavier(16, 16, &mut rng);
        let bound = (6.0 / 32.0f32).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= bound));
    }

    proptest! {
        #[test]
        fn add_is_commutative(v1 in proptest::collection::vec(-10.0f32..10.0, 6),
                              v2 in proptest::collection::vec(-10.0f32..10.0, 6)) {
            let a = Matrix::from_vec(2, 3, v1);
            let b = Matrix::from_vec(2, 3, v2);
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn transpose_is_involutive(v in proptest::collection::vec(-10.0f32..10.0, 12)) {
            let a = Matrix::from_vec(3, 4, v);
            prop_assert_eq!(a.transpose().transpose(), a);
        }

        #[test]
        fn matmul_distributes_over_add(
            v1 in proptest::collection::vec(-2.0f32..2.0, 4),
            v2 in proptest::collection::vec(-2.0f32..2.0, 4),
            v3 in proptest::collection::vec(-2.0f32..2.0, 4),
        ) {
            let a = Matrix::from_vec(2, 2, v1);
            let b = Matrix::from_vec(2, 2, v2);
            let c = Matrix::from_vec(2, 2, v3);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }
}
