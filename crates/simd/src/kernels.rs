//! Safe, mode-dispatched kernel entry points.
//!
//! Every function takes the [`Mode`](crate::Mode) explicitly — call sites
//! hoist one [`mode()`](crate::mode) load per operation batch, and the
//! parity suite can exercise every backend without mutating process
//! state. A mode the CPU cannot execute silently degrades to the scalar
//! fallback, so a forged `Mode` can never fault.

use crate::epi::{apply_epi, leaf_operands, operand_count, MAX_EPI_OPERANDS};
use crate::{scalar, EpiOp, Mode, Run, MR, NR};

#[cfg(target_arch = "x86_64")]
use crate::x86;

// ---------------------------------------------------------------------------
// Exact elementwise kernels: bitwise identical in every mode.
// ---------------------------------------------------------------------------

macro_rules! binary_into {
    ($name:ident, $avx2:ident, $op:expr, $doc:literal) => {
        #[doc = $doc]
        #[doc = " Bitwise identical in every mode."]
        pub fn $name(mode: Mode, dst: &mut [f32], a: &[f32], b: &[f32]) {
            assert!(dst.len() == a.len() && dst.len() == b.len());
            match mode {
                #[cfg(target_arch = "x86_64")]
                Mode::Avx2 if Mode::Avx2.supported() => unsafe { x86::$avx2(dst, a, b) },
                _ => {
                    let f = $op;
                    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *d = f(x, y);
                    }
                }
            }
        }
    };
}

binary_into!(
    add_into,
    add_into_avx2,
    |x: f32, y: f32| x + y,
    "`dst = a + b`."
);
binary_into!(
    sub_into,
    sub_into_avx2,
    |x: f32, y: f32| x - y,
    "`dst = a - b`."
);
binary_into!(
    mul_into,
    mul_into_avx2,
    |x: f32, y: f32| x * y,
    "`dst = a * b`."
);
binary_into!(
    div_into,
    div_into_avx2,
    |x: f32, y: f32| x / y,
    "`dst = a / b`."
);
binary_into!(max_into, max_into_avx2, f32::max, "`dst = max(a, b)`.");

macro_rules! binary_assign {
    ($name:ident, $avx2:ident, $op:expr, $doc:literal) => {
        #[doc = $doc]
        #[doc = " Bitwise identical in every mode."]
        pub fn $name(mode: Mode, dst: &mut [f32], rhs: &[f32]) {
            assert_eq!(dst.len(), rhs.len());
            match mode {
                #[cfg(target_arch = "x86_64")]
                Mode::Avx2 if Mode::Avx2.supported() => unsafe { x86::$avx2(dst, rhs) },
                _ => {
                    let f = $op;
                    for (d, &y) in dst.iter_mut().zip(rhs) {
                        *d = f(*d, y);
                    }
                }
            }
        }
    };
}

binary_assign!(
    add_assign,
    add_assign_avx2,
    |x: f32, y: f32| x + y,
    "`dst += rhs`."
);
binary_assign!(
    sub_assign,
    sub_assign_avx2,
    |x: f32, y: f32| x - y,
    "`dst -= rhs`."
);
binary_assign!(
    rsub_assign,
    rsub_assign_avx2,
    |x: f32, y: f32| y - x,
    "`dst = rhs - dst`."
);
binary_assign!(
    mul_assign,
    mul_assign_avx2,
    |x: f32, y: f32| x * y,
    "`dst *= rhs`."
);
binary_assign!(
    div_assign,
    div_assign_avx2,
    |x: f32, y: f32| x / y,
    "`dst /= rhs`."
);
binary_assign!(
    rdiv_assign,
    rdiv_assign_avx2,
    |x: f32, y: f32| y / x,
    "`dst = rhs / dst`."
);
binary_assign!(
    max_assign,
    max_assign_avx2,
    f32::max,
    "`dst = max(dst, rhs)`."
);

/// `dst *= c`. Bitwise identical in every mode.
pub fn scale_ip(mode: Mode, dst: &mut [f32], c: f32) {
    match mode {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 if Mode::Avx2.supported() => unsafe { x86::scale_ip_avx2(dst, c) },
        _ => {
            for d in dst.iter_mut() {
                *d *= c;
            }
        }
    }
}

/// `dst += c`. Bitwise identical in every mode.
pub fn add_scalar_ip(mode: Mode, dst: &mut [f32], c: f32) {
    match mode {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 if Mode::Avx2.supported() => unsafe { x86::add_scalar_ip_avx2(dst, c) },
        _ => {
            for d in dst.iter_mut() {
                *d += c;
            }
        }
    }
}

/// `dst = -dst`. Bitwise identical in every mode.
pub fn neg_ip(mode: Mode, dst: &mut [f32]) {
    match mode {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 if Mode::Avx2.supported() => unsafe { x86::neg_ip_avx2(dst) },
        _ => {
            for d in dst.iter_mut() {
                *d = -*d;
            }
        }
    }
}

/// `dst = max(dst, 0)`. Bitwise identical in every mode.
pub fn relu_ip(mode: Mode, dst: &mut [f32]) {
    match mode {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 if Mode::Avx2.supported() => unsafe { x86::relu_ip_avx2(dst) },
        _ => {
            for d in dst.iter_mut() {
                *d = d.max(0.0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Transcendentals: vector polynomial per mode, std in scalar mode.
// ---------------------------------------------------------------------------

macro_rules! transcendental_ip {
    ($name:ident, $avx2:ident, $sse:ident, $std:expr, $doc:literal) => {
        #[doc = $doc]
        #[doc = " Scalar mode applies the `std` definition bitwise; vector"]
        #[doc = " modes apply the documented polynomial (see crate docs)."]
        pub fn $name(mode: Mode, dst: &mut [f32]) {
            match mode {
                #[cfg(target_arch = "x86_64")]
                Mode::Avx2 if Mode::Avx2.supported() => unsafe { x86::$avx2(dst) },
                #[cfg(target_arch = "x86_64")]
                Mode::Sse if Mode::Sse.supported() => unsafe { x86::$sse(dst) },
                _ => {
                    let f = $std;
                    for d in dst.iter_mut() {
                        *d = f(*d);
                    }
                }
            }
        }
    };
}

transcendental_ip!(exp_ip, exp_ip_avx2, exp_ip_sse, f32::exp, "In-place `exp`.");
transcendental_ip!(
    sigmoid_ip,
    sigmoid_ip_avx2,
    sigmoid_ip_sse,
    scalar::sigmoid_std,
    "In-place logistic sigmoid."
);
transcendental_ip!(
    tanh_ip,
    tanh_ip_avx2,
    tanh_ip_sse,
    f32::tanh,
    "In-place `tanh`."
);
transcendental_ip!(
    silu_ip,
    silu_ip_avx2,
    silu_ip_sse,
    scalar::silu_std,
    "In-place SiLU (`x * sigmoid(x)`)."
);

/// Scalar `exp` under `mode`'s numeric contract: `std` in scalar mode,
/// the polynomial (FMA or not) elsewhere — bitwise identical to the
/// vector lanes of the same mode.
pub fn exp32(mode: Mode, x: f32) -> f32 {
    match mode {
        Mode::Scalar => x.exp(),
        #[cfg(target_arch = "x86_64")]
        Mode::Sse => scalar::exp_nofma(x),
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => scalar::exp_fma(x),
    }
}

/// Scalar sigmoid under `mode`'s numeric contract (see [`exp32`]).
pub fn sigmoid32(mode: Mode, x: f32) -> f32 {
    match mode {
        Mode::Scalar => scalar::sigmoid_std(x),
        #[cfg(target_arch = "x86_64")]
        Mode::Sse => scalar::sigmoid_nofma(x),
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => scalar::sigmoid_fma(x),
    }
}

/// Scalar `tanh` under `mode`'s numeric contract (see [`exp32`]).
pub fn tanh32(mode: Mode, x: f32) -> f32 {
    match mode {
        Mode::Scalar => x.tanh(),
        #[cfg(target_arch = "x86_64")]
        Mode::Sse => scalar::tanh_nofma(x),
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => scalar::tanh_fma(x),
    }
}

/// Scalar SiLU under `mode`'s numeric contract (see [`exp32`]).
pub fn silu32(mode: Mode, x: f32) -> f32 {
    match mode {
        Mode::Scalar => scalar::silu_std(x),
        #[cfg(target_arch = "x86_64")]
        Mode::Sse => scalar::silu_nofma(x),
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 => scalar::silu_fma(x),
    }
}

/// Row-wise softmax of an `[m, n]` matrix into `out`. The row max and
/// the denominator sum stay strictly sequential in every mode (no
/// reassociation); only the `exp` and the exact subtract/divide are
/// vectorized, so scalar mode reproduces `Tensor::softmax_rows` bitwise
/// and vector modes differ only by the documented `exp` polynomial.
pub fn softmax_rows(mode: Mode, a: &[f32], m: usize, n: usize, out: &mut [f32]) {
    assert!(a.len() >= m * n && out.len() >= m * n);
    for i in 0..m {
        let row = &a[i * n..(i + 1) * n];
        let o = &mut out[i * n..(i + 1) * n];
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if mode == Mode::Scalar {
            for (d, &v) in o.iter_mut().zip(row) {
                *d = (v - mx).exp();
            }
        } else {
            for (d, &v) in o.iter_mut().zip(row) {
                *d = v - mx;
            }
            exp_ip(mode, o);
        }
        let denom: f32 = o.iter().sum();
        for d in o.iter_mut() {
            *d /= denom;
        }
    }
}

// ---------------------------------------------------------------------------
// GEMM primitives.
// ---------------------------------------------------------------------------

/// 4×8 register-tile microkernel: `acc += apᵀ · bp` over one k-block.
/// Scalar/SSE modes accumulate with mul+add (bitwise == pre-SIMD code);
/// AVX2 fuses the multiply-add (single rounding), same k order.
pub fn gemm_ukr(mode: Mode, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert_eq!(ap.len() / MR, bp.len() / NR);
    match mode {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 if Mode::Avx2.supported() => unsafe { x86::gemm_ukr_avx2(ap, bp, acc) },
        _ => scalar::gemm_ukr(ap, bp, acc),
    }
}

/// Axpy `dst += a · x`. Same FMA contract as [`gemm_ukr`].
pub fn madd(mode: Mode, dst: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(dst.len(), x.len());
    match mode {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 if Mode::Avx2.supported() => unsafe { x86::madd_avx2(dst, a, x) },
        _ => scalar::madd(dst, a, x),
    }
}

/// Small (unpacked) product `c += a @ b` over row-major slices, keeping
/// the pre-SIMD zero-skip semantics. Same FMA contract as [`gemm_ukr`].
pub fn small_gemm(mode: Mode, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    small_gemm_epi(mode, a, b, m, k, n, c, &[], &[]);
}

/// [`small_gemm`] with a fused epilogue: the one-leaf case of
/// [`small_gemm_epi_rows`]. `c` must be zero-initialized; `extras` are
/// full `[m, n]` operand buffers consumed in `ops` order.
#[allow(clippy::too_many_arguments)]
pub fn small_gemm_epi(
    mode: Mode,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    ops: &[EpiOp],
    extras: &[&[f32]],
) {
    assert!(a.len() >= m * k && extras.len() <= MAX_EPI_OPERANDS);
    let mut runs = [Run::single(&[]); MAX_EPI_OPERANDS];
    for (r, e) in runs.iter_mut().zip(extras) {
        *r = Run::new(e, 0, 0, m * n, 1);
    }
    let a = Run::new(a, 0, 0, m * k, 1);
    small_gemm_epi_rows(mode, a, b, m, k, n, c, ops, &runs[..extras.len()]);
}

/// The rows-batched leaf product: every `[m, k]` leaf of the run `a`
/// against one shared `[k, n]` `b`, leaf `i`'s `[m, n]` result at
/// `c[i·m·n..]`, then `ops` applied to it with leaf `i` of each run in
/// `extras` as operands. `c` must be zero-initialized.
///
/// The AVX2 body treats the run as one `len·m`-row product and holds a
/// register tile of 2 rows × up to 4 column blocks (4 × 2 when `n` is
/// narrow), so `b` is loaded once per `k` for all rows of the tile and
/// eight independent FMA chains hide the FMA latency; the epilogue runs
/// on each tile right after its stores. Other modes loop over the leaves
/// with the scalar product. Either way every output element accumulates
/// over `k` ascending, skipping `a` elements equal to zero, exactly as one
/// [`small_gemm_epi`] call per leaf would: the results are bitwise equal.
#[allow(clippy::too_many_arguments)]
pub fn small_gemm_epi_rows(
    mode: Mode,
    a: Run<'_>,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    ops: &[EpiOp],
    extras: &[Run<'_>],
) {
    let len = a.len();
    assert!(a.leaf_len() == m * k && b.len() >= k * n && c.len() >= len * m * n);
    assert_eq!(operand_count(ops), extras.len());
    for e in extras {
        assert!(e.leaf_len() == m * n && e.len() == len);
    }
    match mode {
        #[cfg(target_arch = "x86_64")]
        Mode::Avx2 if Mode::Avx2.supported() => unsafe {
            // SAFETY: AVX2+FMA support was just verified; the asserts above
            // give the shape preconditions the kernel documents.
            x86::small_gemm_epi_rows_avx2(a, b, m, k, n, c, ops, extras)
        },
        _ => {
            let mut buf = [&[][..]; MAX_EPI_OPERANDS];
            for i in 0..len {
                let c_leaf = &mut c[i * m * n..(i + 1) * m * n];
                scalar::small_gemm(a.leaf(i), b, m, k, n, c_leaf);
                if !ops.is_empty() {
                    apply_epi(mode, c_leaf, ops, leaf_operands(extras, i, &mut buf));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modes() -> Vec<Mode> {
        let mut m = vec![Mode::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if Mode::Sse.supported() {
                m.push(Mode::Sse);
            }
            if Mode::Avx2.supported() {
                m.push(Mode::Avx2);
            }
        }
        m
    }

    #[test]
    fn exact_ops_bitwise_across_modes() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
        let b: Vec<f32> = (0..37)
            .map(|i| (i as f32 * 1.3).cos() * 2.0 + 0.1)
            .collect();
        for mode in modes() {
            type Ref = fn(f32, f32) -> f32;
            for (f, g) in [
                (
                    add_into as fn(Mode, &mut [f32], &[f32], &[f32]),
                    (|x, y| x + y) as Ref,
                ),
                (sub_into, (|x, y| x - y) as Ref),
                (mul_into, (|x, y| x * y) as Ref),
                (div_into, (|x, y| x / y) as Ref),
                (max_into, f32::max as Ref),
            ] {
                let mut got = vec![0.0f32; 37];
                f(mode, &mut got, &a, &b);
                for i in 0..37 {
                    assert_eq!(got[i].to_bits(), g(a[i], b[i]).to_bits(), "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn transcendental_tail_equals_lane() {
        // A length straddling every lane width: elements in lanes and in
        // ragged tails must produce identical bits for the same input.
        for mode in modes() {
            for len in [1usize, 3, 7, 8, 9, 16, 33] {
                let xs: Vec<f32> = (0..len).map(|i| (i as f32 - 8.0) * 0.9).collect();
                let mut whole = xs.clone();
                tanh_ip(mode, &mut whole);
                for (i, &x) in xs.iter().enumerate() {
                    let mut one = [x];
                    tanh_ip(mode, &mut one);
                    assert_eq!(
                        whole[i].to_bits(),
                        one[0].to_bits(),
                        "{mode:?} len={len} i={i}"
                    );
                    assert_eq!(one[0].to_bits(), tanh32(mode, x).to_bits());
                }
            }
        }
    }

    #[test]
    fn small_gemm_epi_matches_unfused_per_mode() {
        for mode in modes() {
            let (m, k, n) = (3usize, 5usize, 11usize);
            let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.31).sin()).collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.17).cos()).collect();
            let extra: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.05 - 0.7).collect();

            let mut fused = vec![0.0f32; m * n];
            small_gemm_epi(
                mode,
                &a,
                &b,
                m,
                k,
                n,
                &mut fused,
                &[EpiOp::Add, EpiOp::Tanh],
                &[&extra],
            );

            let mut unfused = vec![0.0f32; m * n];
            small_gemm(mode, &a, &b, m, k, n, &mut unfused);
            add_assign(mode, &mut unfused, &extra);
            tanh_ip(mode, &mut unfused);

            for i in 0..m * n {
                assert_eq!(fused[i].to_bits(), unfused[i].to_bits(), "{mode:?} i={i}");
            }
        }
    }

    #[test]
    fn gemm_ukr_scalar_and_sse_bitwise_equal() {
        let kc = 9;
        let ap: Vec<f32> = (0..kc * MR).map(|i| (i as f32 * 0.7).sin()).collect();
        let bp: Vec<f32> = (0..kc * NR).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut sc = [[0.0f32; NR]; MR];
        gemm_ukr(Mode::Scalar, &ap, &bp, &mut sc);
        #[cfg(target_arch = "x86_64")]
        if Mode::Sse.supported() {
            let mut ss = [[0.0f32; NR]; MR];
            gemm_ukr(Mode::Sse, &ap, &bp, &mut ss);
            assert_eq!(sc, ss);
        }
    }

    #[test]
    fn softmax_rows_scalar_matches_reference() {
        let a: Vec<f32> = (0..15).map(|i| (i as f32 * 0.9).sin() * 4.0).collect();
        for mode in modes() {
            let mut out = vec![0.0f32; 15];
            softmax_rows(mode, &a, 3, 5, &mut out);
            for r in 0..3 {
                let s: f32 = out[r * 5..(r + 1) * 5].iter().sum();
                assert!((s - 1.0).abs() < 1e-6, "{mode:?} row {r} sums to {s}");
            }
        }
    }
}
