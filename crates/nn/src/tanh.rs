//! `tanh` for `f32`, bit-identical to glibc 2.36's `tanhf`.
//!
//! glibc's `tanhf` is fdlibm's (`sysdeps/ieee754/flt-32/s_tanhf.c`, built
//! on `s_expm1f.c` with its 5-term polynomial). Its bits do not depend on
//! CPU features, so a port can return them everywhere. Owning it means no
//! result of this crate depends on the host's libm `tanhf`, which newer
//! libc releases are free to replace, and the port runs eight lanes at a
//! time where the libm call runs one value per call.
//!
//! The port is branch-free: every case of `tanhf` and of the `expm1f` it
//! calls is computed for every lane and the lane's case is then selected.
//! The differences from the C source change no bit:
//! - fdlibm adds `k` to an exponent field; here the value is multiplied
//!   by an exact `2^k`, which is the same operation for the normal values
//!   every reachable case scales;
//! - `expm1f`'s `k = 0` and `k = ±1` reductions are its general reduction
//!   with `k` as a float (`x − k·ln2_hi` with `k·ln2_hi` exact);
//! - there is no float-to-int cast and no variable shift, so the lane
//!   body vectorizes and has no lane that can panic.
//!
//! `exp` is not ported: glibc picks its `expf` build by CPU features, so
//! no single port matches the host's on every CPU.

/// `ln2` split so that `k·LN2_HI` is exact for every `|k| < 2^8`.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `expm1f`'s scaled polynomial coefficients.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `tanhf`'s `tiny`: `1 − TINY` rounds to 1 (in C it also raises inexact).
const TINY: f32 = 1.0e-30;

/// `tanh(x)`, bit for bit the value glibc 2.36's `tanhf` returns,
/// including the bits of a NaN result.
pub fn tanh(x: f32) -> f32 {
    tanh_lane(x)
}

/// Replaces every element of `xs` with its [`tanh`], eight lanes at a time
/// (AVX when the CPU has it). Bit-identical to calling [`tanh`] on each.
pub fn tanh_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::matrix::avx_available() {
        // SAFETY: AVX support was verified at runtime above.
        return unsafe { tanh_in_place_avx(xs) };
    }
    tanh_in_place_impl(xs)
}

/// The AVX build of [`tanh_in_place_impl`].
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn tanh_in_place_avx(xs: &mut [f32]) {
    tanh_in_place_impl(xs)
}

/// The lane loop, compiled once per target in the crate's multiversioning
/// style (see `matrix.rs`): eight independent lanes the vectorizer turns
/// into one SIMD pass, then a scalar tail.
#[inline(always)]
fn tanh_in_place_impl(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(8);
    for chunk in &mut chunks {
        for v in chunk {
            *v = tanh_lane(*v);
        }
    }
    for v in chunks.into_remainder() {
        *v = tanh_lane(*v);
    }
}

/// `tanhf` with every case computed and the lane's one selected.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ax = x.abs();
    let neg = x.is_sign_negative();
    // |x| in [1, 22): 1 − 2/(expm1(2|x|) + 2); below 1: −t/(t + 2) with
    // t = expm1(−2|x|). Doubling is exact, so one expm1 serves both. The
    // argument's sign comes from `|x| − 1` rather than a select on `big`:
    // from a select, the optimizer splits all of expm1 into one copy per
    // sign and the lanes run both.
    let big = ax >= 1.0;
    let t = expm1_lane((2.0 * ax) * 1.0f32.copysign(ax - 1.0));
    let z = if big {
        1.0 - 2.0 / (t + 2.0)
    } else {
        -t / (t + 2.0)
    };
    let z = if ax < 22.0 { z } else { 1.0 - TINY };
    let r = if neg { -z } else { z };
    // |x| < 2^-55 (±0 included): x·(1 + x), which is x.
    let r = if ax < f32::from_bits(0x2400_0000) {
        x * (1.0 + x)
    } else {
        r
    };
    // inf and NaN: fdlibm's own 1/x ± 1, which keeps a NaN's payload.
    let special = if neg { 1.0 / x - 1.0 } else { 1.0 / x + 1.0 };
    if ax.is_finite() {
        r
    } else {
        special
    }
}

/// `expm1f` for every argument `tanh_lane` passes: `|y| < 44`. Larger
/// arguments would take the C source's overflow and `−1` filters, which
/// this lane body does not have.
#[inline(always)]
fn expm1_lane(y: f32) -> f32 {
    let ay = y.abs();
    let neg = y.is_sign_negative();
    // k = 0 up to ½·ln2, ±1 below 1.5·ln2, else y/ln2 rounded half away
    // from zero: C's `(int)(invln2·y ± 0.5)`.
    let far = trunc_small(INVLN2 * y + if neg { -0.5 } else { 0.5 });
    let k = if ay <= f32::from_bits(0x3eb1_7218) {
        0.0
    } else if ay < f32::from_bits(0x3f85_1592) {
        if neg {
            -1.0
        } else {
            1.0
        }
    } else {
        far
    };
    let hi = y - k * LN2_HI;
    let lo = k * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e0 = hxs * ((r1 - t) / (6.0 - x * t));
    let k_zero = x - (x * e0 - hxs);
    let e = (x * (e0 - c) - c) - hxs;
    let k_minus_one = 0.5 * (x - e) - 0.5;
    let k_one = if x < -0.25 {
        -2.0 * (e - (x + 0.5))
    } else {
        1.0 + 2.0 * (x - e)
    };
    let two_k = pow2(k);
    let two_minus_k = pow2(-k);
    let k_outer = (1.0 - (e - x)) * two_k - 1.0;
    let k_2_to_22 = ((1.0 - two_minus_k) - (e - x)) * two_k;
    let k_23_to_56 = ((x - (e + two_minus_k)) + 1.0) * two_k;
    let r = if k == 0.0 {
        k_zero
    } else if k == -1.0 {
        k_minus_one
    } else if k == 1.0 {
        k_one
    } else if k <= -2.0 || k > 56.0 {
        k_outer
    } else if k < 23.0 {
        k_2_to_22
    } else {
        k_23_to_56
    };
    // |y| < 2^-25: y itself.
    if ay < f32::from_bits(0x3300_0000) {
        y
    } else {
        r
    }
}

/// `v` truncated toward zero, for `|v| < 2^23`: adding and removing 2^23
/// rounds `|v|` to an integer, and one step down undoes a round-up.
#[inline(always)]
fn trunc_small(v: f32) -> f32 {
    let a = v.abs();
    let n = (a + 8_388_608.0) - 8_388_608.0;
    let n = if n > a { n - 1.0 } else { n };
    n.copysign(v)
}

/// `2^k` for an integer-valued `k` in `[-126, 127]`: `k + 127 + 2^23` holds
/// `k + 127` in its mantissa bits, which become the exponent field.
#[inline(always)]
fn pow2(k: f32) -> f32 {
    f32::from_bits(((k + (127.0 + 8_388_608.0)).to_bits() & 0x7f_ffff) << 23)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// glibc 2.36's `s_expm1f.c`, branch for branch: the oracle the lane
    /// body must match.
    fn oracle_expm1f(x: f32) -> f32 {
        const HUGE: f32 = 1.0e30;
        const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
        let mut x = x;
        let mut hx = x.to_bits();
        let xsb = hx & 0x8000_0000;
        hx &= 0x7fff_ffff;
        if hx >= 0x4195_b844 {
            if hx >= 0x42b1_7218 {
                if hx > 0x7f80_0000 {
                    return x + x;
                }
                if hx == 0x7f80_0000 {
                    return if xsb == 0 { x } else { -1.0 };
                }
                if x > O_THRESHOLD {
                    return HUGE * HUGE;
                }
            }
            if xsb != 0 {
                return TINY - 1.0;
            }
        }
        let k: i32;
        let mut c = 0.0;
        if hx > 0x3eb1_7218 {
            let (hi, lo);
            if hx < 0x3f85_1592 {
                if xsb == 0 {
                    (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
                } else {
                    (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
                }
            } else {
                k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
                let t = k as f32;
                hi = x - t * LN2_HI;
                lo = t * LN2_LO;
            }
            x = hi - lo;
            c = (hi - x) - lo;
        } else if hx < 0x3300_0000 {
            let t = HUGE + x;
            return x - (t - (HUGE + x));
        } else {
            k = 0;
        }
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        let mut e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs);
        }
        e = x * (e - c) - c;
        e -= hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        if k == 1 {
            return if x < -0.25 {
                -2.0 * (e - (x + 0.5))
            } else {
                1.0 + 2.0 * (x - e)
            };
        }
        let add_k = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
        if k <= -2 || k > 56 {
            return add_k(1.0 - (e - x)) - 1.0;
        }
        if k < 23 {
            let t = f32::from_bits(0x3f80_0000 - (0x100_0000 >> k));
            add_k(t - (e - x))
        } else {
            let t = f32::from_bits(((0x7f - k) << 23) as u32);
            add_k((x - (e + t)) + 1.0)
        }
    }

    /// glibc 2.36's `s_tanhf.c`, branch for branch, on [`oracle_expm1f`].
    pub(crate) fn oracle_tanhf(x: f32) -> f32 {
        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;
        if ix >= 0x7f80_0000 {
            return if jx >= 0 {
                1.0 / x + 1.0
            } else {
                1.0 / x - 1.0
            };
        }
        let z;
        if ix < 0x41b0_0000 {
            if ix == 0 {
                return x;
            }
            if ix < 0x2400_0000 {
                return x * (1.0 + x);
            }
            if ix >= 0x3f80_0000 {
                let t = oracle_expm1f(2.0 * x.abs());
                z = 1.0 - 2.0 / (t + 2.0);
            } else {
                let t = oracle_expm1f(-2.0 * x.abs());
                z = -t / (t + 2.0);
            }
        } else {
            z = 1.0 - TINY;
        }
        if jx >= 0 {
            z
        } else {
            -z
        }
    }

    /// `xs` through the baseline lane loop and, when the CPU has AVX, the
    /// AVX build of it.
    fn lane_bodies(xs: &[f32]) -> Vec<(&'static str, Vec<f32>)> {
        let mut bodies = vec![("baseline body", applied(xs, tanh_in_place_impl))];
        #[cfg(target_arch = "x86_64")]
        if crate::matrix::avx_available() {
            // SAFETY: AVX support was verified at runtime above.
            let avx = applied(xs, |ys| unsafe { tanh_in_place_avx(ys) });
            bodies.push(("avx body", avx));
        }
        bodies
    }

    /// A copy of `xs` with `f` applied in place.
    fn applied(xs: &[f32], f: impl Fn(&mut [f32])) -> Vec<f32> {
        let mut ys = xs.to_vec();
        f(&mut ys);
        ys
    }

    /// The first input one of `paths` maps to other bits than the oracle
    /// does, with the path's name.
    fn first_mismatch(
        xs: &[f32],
        paths: &[(&'static str, Vec<f32>)],
    ) -> Option<(u32, &'static str)> {
        xs.iter().enumerate().find_map(|(i, &x)| {
            let want = oracle_tanhf(x).to_bits();
            paths
                .iter()
                .find(|(_, ys)| ys[i].to_bits() != want)
                .map(|&(name, _)| (x.to_bits(), name))
        })
    }

    /// The smallest `|y|` whose `expm1f` reduction picks `k ≥ n` for a
    /// positive `y` (`n > 0`) or `k ≤ n` for a negative one (`n < 0`): a
    /// point where the lane body's case selection flips.
    fn k_boundary(n: i32) -> u32 {
        let sign = if n < 0 { 0x8000_0000 } else { 0 };
        let past = |abs_bits: u32| {
            let y = f32::from_bits(abs_bits | sign);
            let k = (INVLN2 * y + if n < 0 { -0.5 } else { 0.5 }) as i32;
            if n < 0 {
                k <= n
            } else {
                k >= n
            }
        };
        // From 1.5·ln2, where the rounded reduction starts, to 44.
        let (mut lo, mut hi) = (0x3f85_1592u32, 0x4230_0000u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if past(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// The sampled check, cheap enough for every debug test run: every
    /// 4099th bit pattern, then with both signs: infinities, NaN payloads,
    /// subnormals, and ±2 ulps around every threshold of both C functions
    /// (tanh's on `|x|`, expm1's on `2|x|`, including the points where its
    /// reduction's `k` changes case).
    #[test]
    fn tanh_matches_fdlibm_oracle_on_sampled_inputs() {
        let mut special: Vec<u32> = vec![
            0x7f80_0001,
            0x7fa0_0000,
            0x7fbf_ffff,
            0x7fc0_0000,
            0x7fc0_1234,
            0x7fff_ffff,
        ];
        special.extend((1..=256).chain(0x007f_ff00..=0x007f_ffff));
        let half = |b: u32| (f32::from_bits(b) / 2.0).to_bits();
        let mut thresholds = vec![
            0,
            0x2400_0000,
            0x3f80_0000,
            0x41b0_0000,
            0x7f80_0000,
            half(0x3300_0000),
            half(0x3eb1_7218),
            half(0x3f85_1592),
            half(0x4195_b844),
        ];
        thresholds.extend([-2, 23, 57].map(|n| half(k_boundary(n))));
        for t in thresholds {
            special.extend(t.saturating_sub(2)..=t + 2);
        }
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(4099).collect();
        bits.extend(special.iter().flat_map(|&b| [b, b | 0x8000_0000]));
        // An odd length, so the scalar tail runs as well as the lanes.
        bits.push(0.5f32.to_bits());
        let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let paths = [
            ("tanh", xs.iter().map(|&x| tanh(x)).collect()),
            ("tanh_in_place", applied(&xs, tanh_in_place)),
            ("baseline body", applied(&xs, tanh_in_place_impl)),
        ];
        assert_eq!(first_mismatch(&xs, &paths), None);
    }

    /// Every one of the 2^32 inputs through both lane bodies. Release only
    /// (one to two minutes on two cores); CI runs it with `--ignored`.
    #[test]
    #[ignore = "exhaustive: run in release with --ignored"]
    fn tanh_matches_fdlibm_oracle_on_every_input() {
        const BLOCK: u32 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        let blocks = u32::MAX / BLOCK + 1;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    s.spawn(move || {
                        (w..blocks).step_by(threads as usize).find_map(|block| {
                            let xs: Vec<f32> = (0..BLOCK)
                                .map(|i| f32::from_bits(block * BLOCK + i))
                                .collect();
                            first_mismatch(&xs, &lane_bodies(&xs))
                        })
                    })
                })
                .collect();
            for worker in workers {
                let bad = worker.join().expect("worker panicked");
                assert_eq!(bad, None, "input bits and the path that missed");
            }
        });
    }
}
