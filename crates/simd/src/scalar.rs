//! Scalar reference kernels.
//!
//! Two families live here:
//!
//! * the **scalar-mode** kernels — plain Rust loops that reproduce the
//!   pre-SIMD code bitwise (`std` transcendentals, mul+add GEMM), and
//! * the **polynomial** transcendentals ([`exp_fma`] / [`exp_nofma`] and
//!   friends) that evaluate the exact per-lane operation sequence of the
//!   vector backends, so ragged tails are bitwise identical to lanes.

/// Cephes `expf` range-reduction and polynomial constants. The polynomial
/// approximates `exp(r)` as `1 + r + r²·P(r)` for `r ∈ [-½ln2, ½ln2]`.
pub(crate) mod poly {
    /// `log2(e)`.
    pub const LOG2E: f32 = std::f32::consts::LOG2_E;
    /// High part of `ln 2` (exact in 11 bits, so `n·LN2_HI` is exact).
    #[allow(clippy::excessive_precision)] // written as the exact 11-bit value
    pub const LN2_HI: f32 = 0.693_359_375;
    /// Low correction part of `ln 2`.
    pub const LN2_LO: f32 = -2.121_944_4e-4;
    /// Inputs above this overflow `f32` (`ln(f32::MAX)` rounded down).
    pub const EXP_HI: f32 = 88.722_83;
    /// Inputs below this underflow to the smallest normal.
    pub const EXP_LO: f32 = -87.336_55;
    /// Polynomial coefficients, highest degree first.
    pub const C: [f32; 6] = [
        1.987_569_2e-4,
        1.398_2e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        5.000_000_3e-1,
    ];
    /// Below this |x|, `tanh` uses a direct minimax polynomial — the
    /// `1 - 2/(exp(2|x|)+1)` identity cancels catastrophically near 0.
    pub const TANH_SMALL: f32 = 0.625;
    /// Cephes `tanhf` small-argument coefficients, highest degree first:
    /// `tanh(x) = x + x·z·P(z)` with `z = x²` for `|x| < TANH_SMALL`.
    #[allow(clippy::excessive_precision)] // Cephes coefficients verbatim
    pub const TANH_C: [f32; 5] = [
        -5.704_988_7e-3,
        2.063_908_9e-2,
        -5.373_971_6e-2,
        1.333_144_2e-1,
        -3.333_328_2e-1,
    ];
}

use poly::*;

/// Scale `y` by `2^n` via exponent-bit arithmetic; `n ∈ [-126, 127]`.
#[inline(always)]
fn ldexp(y: f32, n: f32) -> f32 {
    y * f32::from_bits((((n as i32) + 127) << 23) as u32)
}

/// Polynomial `exp` with fused multiply-adds: the per-lane operation
/// sequence of the AVX2 backend. ≤ 4 ulp on `[-87.3, 88.0]`;
/// saturates to `+inf` above [`poly::EXP_HI`] and to `exp(EXP_LO)`
/// (≈ 1.2e-38) below [`poly::EXP_LO`]; NaN propagates.
#[inline]
pub fn exp_fma(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if x > EXP_HI {
        return f32::INFINITY;
    }
    let xc = x.clamp(EXP_LO, EXP_HI);
    let n = (xc * LOG2E).round_ties_even().min(127.0);
    let r = (-n).mul_add(LN2_HI, xc);
    let r = (-n).mul_add(LN2_LO, r);
    let p = C[0];
    let p = p.mul_add(r, C[1]);
    let p = p.mul_add(r, C[2]);
    let p = p.mul_add(r, C[3]);
    let p = p.mul_add(r, C[4]);
    let p = p.mul_add(r, C[5]);
    let y = p.mul_add(r * r, r) + 1.0;
    ldexp(y, n)
}

/// Polynomial `exp` without FMA: the per-lane operation sequence of the
/// SSE backend (mul + add, two roundings per step). Same bounds as
/// [`exp_fma`].
#[inline]
pub fn exp_nofma(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if x > EXP_HI {
        return f32::INFINITY;
    }
    let xc = x.clamp(EXP_LO, EXP_HI);
    let n = (xc * LOG2E).round_ties_even().min(127.0);
    let r = xc - n * LN2_HI;
    let r = r - n * LN2_LO;
    let p = C[0];
    let p = p * r + C[1];
    let p = p * r + C[2];
    let p = p * r + C[3];
    let p = p * r + C[4];
    let p = p * r + C[5];
    let y = (p * (r * r) + r) + 1.0;
    ldexp(y, n)
}

/// `1 / (1 + exp(-x))` built on [`exp_fma`].
#[inline]
pub fn sigmoid_fma(x: f32) -> f32 {
    1.0 / (1.0 + exp_fma(-x))
}

/// `1 / (1 + exp(-x))` built on [`exp_nofma`].
#[inline]
pub fn sigmoid_nofma(x: f32) -> f32 {
    1.0 / (1.0 + exp_nofma(-x))
}

/// Polynomial `tanh` built on [`exp_fma`]: the small-argument minimax
/// polynomial below [`poly::TANH_SMALL`] (the exp identity cancels near
/// 0), `sign(x) · (1 - 2 / (exp(2|x|) + 1))` above. Exact at 0
/// (±0 → ±0) and saturates to ±1.
#[inline]
pub fn tanh_fma(x: f32) -> f32 {
    let ax = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    // Both branches compute the magnitude from |x| and restore the sign
    // bit at the end, so ±0 and odd symmetry are exact.
    let m = if ax < TANH_SMALL {
        let z = x * x;
        let mut p = TANH_C[0];
        for &c in &TANH_C[1..] {
            p = p.mul_add(z, c);
        }
        (p * z).mul_add(ax, ax)
    } else {
        let e = exp_fma(2.0 * ax);
        1.0 - 2.0 / (e + 1.0)
    };
    f32::from_bits(m.to_bits() | (x.to_bits() & 0x8000_0000))
}

/// [`tanh_fma`] without FMA (SSE lane sequence).
#[inline]
pub fn tanh_nofma(x: f32) -> f32 {
    let ax = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    let m = if ax < TANH_SMALL {
        let z = x * x;
        let mut p = TANH_C[0];
        for &c in &TANH_C[1..] {
            p = p * z + c;
        }
        (p * z) * ax + ax
    } else {
        let e = exp_nofma(2.0 * ax);
        1.0 - 2.0 / (e + 1.0)
    };
    f32::from_bits(m.to_bits() | (x.to_bits() & 0x8000_0000))
}

/// `x · sigmoid(x)` built on [`sigmoid_fma`].
#[inline]
pub fn silu_fma(x: f32) -> f32 {
    x * sigmoid_fma(x)
}

/// `x · sigmoid(x)` built on [`sigmoid_nofma`].
#[inline]
pub fn silu_nofma(x: f32) -> f32 {
    x * sigmoid_nofma(x)
}

/// Scalar-mode `sigmoid`: the pre-SIMD definition, bitwise.
#[inline]
pub fn sigmoid_std(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Scalar-mode `silu`.
#[inline]
pub fn silu_std(x: f32) -> f32 {
    x * sigmoid_std(x)
}

/// Scalar 4×8 microkernel: `acc += apᵀ · bp` over one k-block, mul+add
/// per element (two roundings) — the pre-SIMD accumulation, bitwise.
pub fn gemm_ukr(ap: &[f32], bp: &[f32], acc: &mut [[f32; crate::NR]; crate::MR]) {
    for (a_col, b_row) in ap.chunks_exact(crate::MR).zip(bp.chunks_exact(crate::NR)) {
        for (row, &aik) in acc.iter_mut().zip(a_col.iter()) {
            for (d, &bv) in row.iter_mut().zip(b_row.iter()) {
                *d += aik * bv;
            }
        }
    }
}

/// Scalar axpy: `dst += a · x`, mul+add per element.
pub fn madd(dst: &mut [f32], a: f32, x: &[f32]) {
    for (d, &v) in dst.iter_mut().zip(x) {
        *d += a * v;
    }
}

/// Scalar i-k-j small product: `c += a @ b` over row-major slices, with
/// the pre-SIMD zero-skip (an `a` zero contributes nothing, even against
/// non-finite `b`).
pub fn small_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ulp distance between `x` and the correctly rounded `f64` oracle.
    fn ulp_err(x: f32, oracle: f64) -> f64 {
        let exact = oracle as f32;
        if x == exact {
            return 0.0;
        }
        (exact.to_bits() as i64 - x.to_bits() as i64).unsigned_abs() as f64
    }

    #[test]
    fn exp_poly_ulp_bound() {
        // Dense sweep of the documented range: both polynomial variants
        // stay within 4 ulp of the f64-evaluated reference.
        let mut worst: f64 = 0.0;
        let mut x = -87.3f32;
        while x < 88.0 {
            let oracle = (x as f64).exp();
            worst = worst.max(ulp_err(exp_fma(x), oracle));
            worst = worst.max(ulp_err(exp_nofma(x), oracle));
            x += 0.0173;
        }
        assert!(worst <= 4.0, "exp poly worst error {worst} ulp");
    }

    #[test]
    fn sigmoid_tanh_ulp_bound() {
        let mut worst_sig: f64 = 0.0;
        let mut worst_th: f64 = 0.0;
        let mut arg_sig = 0.0f32;
        let mut arg_th = 0.0f32;
        let mut x = -30.0f32;
        while x < 30.0 {
            let sig = 1.0 / (1.0 + (-(x as f64)).exp());
            let th = (x as f64).tanh();
            for v in [sigmoid_fma(x), sigmoid_nofma(x)] {
                let e = ulp_err(v, sig);
                if e > worst_sig {
                    worst_sig = e;
                    arg_sig = x;
                }
            }
            for v in [tanh_fma(x), tanh_nofma(x)] {
                let e = ulp_err(v, th);
                if e > worst_th {
                    worst_th = e;
                    arg_th = x;
                }
            }
            x += 0.00917;
        }
        eprintln!(
            "worst sigmoid {worst_sig} ulp at {arg_sig}; worst tanh {worst_th} ulp at {arg_th}"
        );
        assert!(
            worst_sig <= 8.0 && worst_th <= 8.0,
            "sigmoid worst {worst_sig} ulp at {arg_sig}, tanh worst {worst_th} ulp at {arg_th}"
        );
    }

    #[test]
    fn exp_edge_cases() {
        for f in [exp_fma, exp_nofma] {
            assert_eq!(f(0.0), 1.0);
            assert_eq!(f(f32::INFINITY), f32::INFINITY);
            assert_eq!(f(200.0), f32::INFINITY);
            assert_eq!(f(f32::NEG_INFINITY), f(poly::EXP_LO));
            assert!(f(f32::NAN).is_nan());
            assert!(f(-200.0) > 0.0 && f(-200.0) < 1.3e-38);
        }
    }

    #[test]
    fn tanh_edge_cases() {
        for f in [tanh_fma, tanh_nofma] {
            assert_eq!(f(0.0).to_bits(), 0.0f32.to_bits());
            assert_eq!(f(-0.0).to_bits(), (-0.0f32).to_bits());
            assert_eq!(f(50.0), 1.0);
            assert_eq!(f(-50.0), -1.0);
            assert!(f(f32::NAN).is_nan());
        }
    }

    #[test]
    fn sigmoid_saturates() {
        for f in [sigmoid_fma, sigmoid_nofma, sigmoid_std] {
            assert_eq!(f(100.0), 1.0);
            assert_eq!(f(-100.0), 0.0);
            assert!((f(0.0) - 0.5).abs() < 1e-7);
        }
    }
}
