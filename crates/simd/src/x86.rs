//! x86_64 backends: AVX2+FMA (256-bit) and SSE4.1 (128-bit, no FMA).
//!
//! Every function here is `unsafe` with a `#[target_feature]` contract;
//! the safe dispatch wrappers in [`crate::kernels`] verify CPU support
//! before calling in. Exact elementwise kernels are written as plain
//! loops inside a `target_feature` function — the autovectorizer emits
//! full-width IEEE lane ops, so results are bitwise identical to the
//! scalar fallback. Transcendentals and GEMM use explicit intrinsics;
//! their ragged tails call the matching polynomial variants in
//! [`crate::scalar`], which are bitwise identical to the lanes.

#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::scalar::{self, poly::*};
use crate::{EpiOp, Run};

// ---------------------------------------------------------------------------
// Exact elementwise kernels (AVX2 autovectorized; bitwise == scalar).
// ---------------------------------------------------------------------------

macro_rules! binary_into {
    ($name:ident, $op:expr) => {
        /// `dst[i] = op(a[i], b[i])` with AVX2 lanes; bitwise == scalar.
        #[target_feature(enable = "avx2")]
        pub unsafe fn $name(dst: &mut [f32], a: &[f32], b: &[f32]) {
            let f = $op;
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = f(x, y);
            }
        }
    };
}

binary_into!(add_into_avx2, |x: f32, y: f32| x + y);
binary_into!(sub_into_avx2, |x: f32, y: f32| x - y);
binary_into!(mul_into_avx2, |x: f32, y: f32| x * y);
binary_into!(div_into_avx2, |x: f32, y: f32| x / y);
binary_into!(max_into_avx2, f32::max);

macro_rules! binary_assign {
    ($name:ident, $op:expr) => {
        /// `dst[i] = op(dst[i], rhs[i])` with AVX2 lanes; bitwise == scalar.
        #[target_feature(enable = "avx2")]
        pub unsafe fn $name(dst: &mut [f32], rhs: &[f32]) {
            let f = $op;
            for (d, &y) in dst.iter_mut().zip(rhs) {
                *d = f(*d, y);
            }
        }
    };
}

binary_assign!(add_assign_avx2, |x: f32, y: f32| x + y);
binary_assign!(sub_assign_avx2, |x: f32, y: f32| x - y);
binary_assign!(rsub_assign_avx2, |x: f32, y: f32| y - x);
binary_assign!(mul_assign_avx2, |x: f32, y: f32| x * y);
binary_assign!(div_assign_avx2, |x: f32, y: f32| x / y);
binary_assign!(rdiv_assign_avx2, |x: f32, y: f32| y / x);
binary_assign!(max_assign_avx2, f32::max);

macro_rules! unary_ip {
    ($name:ident, $op:expr) => {
        /// `dst[i] = op(dst[i])` with AVX2 lanes; bitwise == scalar.
        #[target_feature(enable = "avx2")]
        pub unsafe fn $name(dst: &mut [f32]) {
            let f = $op;
            for d in dst.iter_mut() {
                *d = f(*d);
            }
        }
    };
}

unary_ip!(neg_ip_avx2, |x: f32| -x);
unary_ip!(relu_ip_avx2, |x: f32| x.max(0.0));

/// `dst[i] *= c` with AVX2 lanes; bitwise == scalar.
#[target_feature(enable = "avx2")]
pub unsafe fn scale_ip_avx2(dst: &mut [f32], c: f32) {
    for d in dst.iter_mut() {
        *d *= c;
    }
}

/// `dst[i] += c` with AVX2 lanes; bitwise == scalar.
#[target_feature(enable = "avx2")]
pub unsafe fn add_scalar_ip_avx2(dst: &mut [f32], c: f32) {
    for d in dst.iter_mut() {
        *d += c;
    }
}

// ---------------------------------------------------------------------------
// AVX2 transcendental cores.
// ---------------------------------------------------------------------------

/// Polynomial `exp` over one 256-bit vector: the lane-parallel version of
/// [`scalar::exp_fma`], operation for operation.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn vexp256(x: __m256) -> __m256 {
    let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    let hi_mask = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(EXP_HI));
    let xc = _mm256_min_ps(
        _mm256_max_ps(x, _mm256_set1_ps(EXP_LO)),
        _mm256_set1_ps(EXP_HI),
    );
    let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(_mm256_mul_ps(
        xc,
        _mm256_set1_ps(LOG2E),
    ));
    let n = _mm256_min_ps(n, _mm256_set1_ps(127.0));
    let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), xc);
    let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);
    let mut p = _mm256_set1_ps(C[0]);
    for &c in &C[1..] {
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(c));
    }
    let rr = _mm256_mul_ps(r, r);
    let y = _mm256_add_ps(_mm256_fmadd_ps(p, rr, r), _mm256_set1_ps(1.0));
    let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        _mm256_cvtps_epi32(n),
        _mm256_set1_epi32(127),
    )));
    let y = _mm256_mul_ps(y, scale);
    let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), hi_mask);
    _mm256_blendv_ps(y, x, nan_mask)
}

/// Lane-parallel [`scalar::sigmoid_fma`].
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn vsigmoid256(x: __m256) -> __m256 {
    let neg = _mm256_xor_ps(x, _mm256_set1_ps(-0.0));
    let one = _mm256_set1_ps(1.0);
    _mm256_div_ps(one, _mm256_add_ps(one, vexp256(neg)))
}

/// Lane-parallel [`scalar::tanh_fma`]: small-argument polynomial lanes
/// blended with the exp-identity lanes on `|x| < TANH_SMALL`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn vtanh256(x: __m256) -> __m256 {
    let sign = _mm256_set1_ps(-0.0);
    let ax = _mm256_andnot_ps(sign, x);
    let two = _mm256_set1_ps(2.0);
    let one = _mm256_set1_ps(1.0);
    let e = vexp256(_mm256_mul_ps(two, ax));
    let big = _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one)));
    let z = _mm256_mul_ps(x, x);
    let mut p = _mm256_set1_ps(TANH_C[0]);
    for &c in &TANH_C[1..] {
        p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(c));
    }
    let small = _mm256_fmadd_ps(_mm256_mul_ps(p, z), ax, ax);
    let small_mask = _mm256_cmp_ps::<_CMP_LT_OQ>(ax, _mm256_set1_ps(TANH_SMALL));
    let m = _mm256_blendv_ps(big, small, small_mask);
    _mm256_or_ps(m, _mm256_and_ps(sign, x))
}

/// Lane-parallel [`scalar::silu_fma`].
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn vsilu256(x: __m256) -> __m256 {
    _mm256_mul_ps(x, vsigmoid256(x))
}

macro_rules! transcendental_ip_avx2 {
    ($name:ident, $vec:ident, $tail:path) => {
        /// In-place transcendental: AVX2 lanes + bitwise-identical tail.
        #[target_feature(enable = "avx2", enable = "fma")]
        pub unsafe fn $name(dst: &mut [f32]) {
            let mut chunks = dst.chunks_exact_mut(8);
            for c in &mut chunks {
                let v = _mm256_loadu_ps(c.as_ptr());
                _mm256_storeu_ps(c.as_mut_ptr(), $vec(v));
            }
            for d in chunks.into_remainder() {
                *d = $tail(*d);
            }
        }
    };
}

transcendental_ip_avx2!(exp_ip_avx2, vexp256, scalar::exp_fma);
transcendental_ip_avx2!(sigmoid_ip_avx2, vsigmoid256, scalar::sigmoid_fma);
transcendental_ip_avx2!(tanh_ip_avx2, vtanh256, scalar::tanh_fma);
transcendental_ip_avx2!(silu_ip_avx2, vsilu256, scalar::silu_fma);

// ---------------------------------------------------------------------------
// SSE4.1 transcendental cores (no FMA: mul + add, two roundings).
// ---------------------------------------------------------------------------

/// Polynomial `exp` over one 128-bit vector: the lane-parallel version of
/// [`scalar::exp_nofma`], operation for operation.
#[inline]
#[target_feature(enable = "sse4.1")]
unsafe fn vexp128(x: __m128) -> __m128 {
    let nan_mask = _mm_cmpunord_ps(x, x);
    let hi_mask = _mm_cmpgt_ps(x, _mm_set1_ps(EXP_HI));
    let xc = _mm_min_ps(_mm_max_ps(x, _mm_set1_ps(EXP_LO)), _mm_set1_ps(EXP_HI));
    let n = _mm_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(_mm_mul_ps(
        xc,
        _mm_set1_ps(LOG2E),
    ));
    let n = _mm_min_ps(n, _mm_set1_ps(127.0));
    let r = _mm_sub_ps(xc, _mm_mul_ps(n, _mm_set1_ps(LN2_HI)));
    let r = _mm_sub_ps(r, _mm_mul_ps(n, _mm_set1_ps(LN2_LO)));
    let mut p = _mm_set1_ps(C[0]);
    for &c in &C[1..] {
        p = _mm_add_ps(_mm_mul_ps(p, r), _mm_set1_ps(c));
    }
    let rr = _mm_mul_ps(r, r);
    let y = _mm_add_ps(_mm_add_ps(_mm_mul_ps(p, rr), r), _mm_set1_ps(1.0));
    let scale = _mm_castsi128_ps(_mm_slli_epi32::<23>(_mm_add_epi32(
        _mm_cvtps_epi32(n),
        _mm_set1_epi32(127),
    )));
    let y = _mm_mul_ps(y, scale);
    let y = _mm_blendv_ps(y, _mm_set1_ps(f32::INFINITY), hi_mask);
    _mm_blendv_ps(y, x, nan_mask)
}

/// Lane-parallel [`scalar::sigmoid_nofma`].
#[inline]
#[target_feature(enable = "sse4.1")]
unsafe fn vsigmoid128(x: __m128) -> __m128 {
    let neg = _mm_xor_ps(x, _mm_set1_ps(-0.0));
    let one = _mm_set1_ps(1.0);
    _mm_div_ps(one, _mm_add_ps(one, vexp128(neg)))
}

/// Lane-parallel [`scalar::tanh_nofma`]: small-argument polynomial lanes
/// blended with the exp-identity lanes on `|x| < TANH_SMALL`.
#[inline]
#[target_feature(enable = "sse4.1")]
unsafe fn vtanh128(x: __m128) -> __m128 {
    let sign = _mm_set1_ps(-0.0);
    let ax = _mm_andnot_ps(sign, x);
    let two = _mm_set1_ps(2.0);
    let one = _mm_set1_ps(1.0);
    let e = vexp128(_mm_mul_ps(two, ax));
    let big = _mm_sub_ps(one, _mm_div_ps(two, _mm_add_ps(e, one)));
    let z = _mm_mul_ps(x, x);
    let mut p = _mm_set1_ps(TANH_C[0]);
    for &c in &TANH_C[1..] {
        p = _mm_add_ps(_mm_mul_ps(p, z), _mm_set1_ps(c));
    }
    let small = _mm_add_ps(_mm_mul_ps(_mm_mul_ps(p, z), ax), ax);
    let small_mask = _mm_cmplt_ps(ax, _mm_set1_ps(TANH_SMALL));
    let m = _mm_blendv_ps(big, small, small_mask);
    _mm_or_ps(m, _mm_and_ps(sign, x))
}

/// Lane-parallel [`scalar::silu_nofma`].
#[inline]
#[target_feature(enable = "sse4.1")]
unsafe fn vsilu128(x: __m128) -> __m128 {
    _mm_mul_ps(x, vsigmoid128(x))
}

macro_rules! transcendental_ip_sse {
    ($name:ident, $vec:ident, $tail:path) => {
        /// In-place transcendental: SSE4.1 lanes + bitwise-identical tail.
        #[target_feature(enable = "sse4.1")]
        pub unsafe fn $name(dst: &mut [f32]) {
            let mut chunks = dst.chunks_exact_mut(4);
            for c in &mut chunks {
                let v = _mm_loadu_ps(c.as_ptr());
                _mm_storeu_ps(c.as_mut_ptr(), $vec(v));
            }
            for d in chunks.into_remainder() {
                *d = $tail(*d);
            }
        }
    };
}

transcendental_ip_sse!(exp_ip_sse, vexp128, scalar::exp_nofma);
transcendental_ip_sse!(sigmoid_ip_sse, vsigmoid128, scalar::sigmoid_nofma);
transcendental_ip_sse!(tanh_ip_sse, vtanh128, scalar::tanh_nofma);
transcendental_ip_sse!(silu_ip_sse, vsilu128, scalar::silu_nofma);

// ---------------------------------------------------------------------------
// GEMM primitives (AVX2 + FMA).
// ---------------------------------------------------------------------------

/// 4×8 register-tile microkernel: `acc += apᵀ · bp` over one k-block with
/// one FMA (single rounding) per element per k. k order matches scalar.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gemm_ukr_avx2(ap: &[f32], bp: &[f32], acc: &mut [[f32; crate::NR]; crate::MR]) {
    let mut c0 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut c1 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut c2 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut c3 = _mm256_loadu_ps(acc[3].as_ptr());
    for (a_col, b_row) in ap.chunks_exact(crate::MR).zip(bp.chunks_exact(crate::NR)) {
        let bv = _mm256_loadu_ps(b_row.as_ptr());
        c0 = _mm256_fmadd_ps(_mm256_set1_ps(a_col[0]), bv, c0);
        c1 = _mm256_fmadd_ps(_mm256_set1_ps(a_col[1]), bv, c1);
        c2 = _mm256_fmadd_ps(_mm256_set1_ps(a_col[2]), bv, c2);
        c3 = _mm256_fmadd_ps(_mm256_set1_ps(a_col[3]), bv, c3);
    }
    _mm256_storeu_ps(acc[0].as_mut_ptr(), c0);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), c1);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), c2);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), c3);
}

/// Axpy `dst += a · x`: FMA lanes, `mul_add` tail (bitwise == lanes).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn madd_avx2(dst: &mut [f32], a: f32, x: &[f32]) {
    let av = _mm256_set1_ps(a);
    let mut dc = dst.chunks_exact_mut(8);
    let mut xc = x.chunks_exact(8);
    for (d, s) in (&mut dc).zip(&mut xc) {
        let v = _mm256_fmadd_ps(av, _mm256_loadu_ps(s.as_ptr()), _mm256_loadu_ps(d.as_ptr()));
        _mm256_storeu_ps(d.as_mut_ptr(), v);
    }
    for (d, &v) in dc.into_remainder().iter_mut().zip(xc.remainder()) {
        *d = a.mul_add(v, *d);
    }
}

/// Applies one epilogue micro-op to a 256-bit register. Binary ops read
/// their eight operand elements at `extra`; other ops ignore it.
///
/// # Safety
/// AVX2+FMA must be available, and `extra` must be readable for eight
/// `f32`s whenever `op.takes_operand()`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn epi_vec256(v: __m256, op: EpiOp, extra: *const f32) -> __m256 {
    match op {
        EpiOp::Add => _mm256_add_ps(v, _mm256_loadu_ps(extra)),
        EpiOp::Sub => _mm256_sub_ps(v, _mm256_loadu_ps(extra)),
        EpiOp::RSub => _mm256_sub_ps(_mm256_loadu_ps(extra), v),
        EpiOp::Mul => _mm256_mul_ps(v, _mm256_loadu_ps(extra)),
        EpiOp::Div => _mm256_div_ps(v, _mm256_loadu_ps(extra)),
        EpiOp::RDiv => _mm256_div_ps(_mm256_loadu_ps(extra), v),
        EpiOp::Max => {
            // Matches `f32::max` when at most one operand is NaN.
            let e = _mm256_loadu_ps(extra);
            let m = _mm256_max_ps(v, e);
            let v_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
            let e_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(e, e);
            let m = _mm256_blendv_ps(m, e, v_nan);
            _mm256_blendv_ps(m, v, e_nan)
        }
        EpiOp::Scale(c) => _mm256_mul_ps(v, _mm256_set1_ps(c)),
        EpiOp::AddScalar(c) => _mm256_add_ps(v, _mm256_set1_ps(c)),
        EpiOp::Neg => _mm256_xor_ps(v, _mm256_set1_ps(-0.0)),
        EpiOp::Relu => _mm256_max_ps(v, _mm256_setzero_ps()),
        EpiOp::Exp => vexp256(v),
        EpiOp::Sigmoid => vsigmoid256(v),
        EpiOp::Tanh => vtanh256(v),
        EpiOp::Silu => vsilu256(v),
    }
}

/// One rows-batched product, viewed as a single `rows × n` output whose
/// row `r` belongs to leaf `r / m` of the run.
struct RowsCtx<'a> {
    a: Run<'a>,
    b: *const f32,
    c: *mut f32,
    m: usize,
    k: usize,
    n: usize,
    ops: &'a [EpiOp],
    extras: &'a [Run<'a>],
}

impl RowsCtx<'_> {
    /// Start of row `r` of the merged A.
    ///
    /// # Safety
    /// `r < a.len() * m` and `a.leaf_len() == m * k`.
    #[inline]
    unsafe fn a_row(&self, r: usize) -> *const f32 {
        let off = self.a.offset(r / self.m) + (r % self.m) * self.k;
        // SAFETY: `Run` guarantees leaf `r / m` lies inside its buffer, and
        // row `r % m` of an `m × k` leaf starts inside that leaf.
        self.a.data().as_ptr().add(off)
    }

    /// Runs the epilogue over columns `j0..j1` (a whole number of 8-wide
    /// blocks) of output row `r`, in place.
    ///
    /// # Safety
    /// AVX2+FMA available; `r` and the columns inside the output; every
    /// extra a run of `a.len()` leaves of `m * n` elements.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn epi_row(&self, r: usize, j0: usize, j1: usize) {
        if self.ops.is_empty() {
            return;
        }
        let (leaf, row) = (r / self.m, r % self.m);
        let crow = self.c.add(r * self.n);
        for j in (j0..j1).step_by(8) {
            let mut v = _mm256_loadu_ps(crow.add(j));
            let mut ei = 0usize;
            for &op in self.ops {
                let extra = if op.takes_operand() {
                    let e = &self.extras[ei];
                    ei += 1;
                    // SAFETY: leaf `leaf` of `e` holds `m * n` elements and
                    // `row * n + j + 8 <= m * n`.
                    e.data().as_ptr().add(e.offset(leaf) + row * self.n + j)
                } else {
                    core::ptr::null()
                };
                v = epi_vec256(v, op, extra);
            }
            _mm256_storeu_ps(crow.add(j), v);
        }
    }

    /// One `R`-row × `NB`-column-block register tile at `(r0, j)`:
    /// accumulate over `k` (each `b` vector loaded once for all `R` rows,
    /// zero `a` elements skipped), store, then run the epilogue.
    ///
    /// # Safety
    /// AVX2+FMA available; rows `r0..r0 + R` and columns `j..j + 8·NB`
    /// inside the output; `b` holds `k × n` elements.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile<const R: usize, const NB: usize>(&self, r0: usize, j: usize) {
        let n = self.n;
        let mut ap = [core::ptr::null::<f32>(); R];
        let mut acc = [[_mm256_setzero_ps(); NB]; R];
        for (i, (a, row)) in ap.iter_mut().zip(&mut acc).enumerate() {
            *a = self.a_row(r0 + i);
            for (jb, v) in row.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(self.c.add((r0 + i) * n + j + jb * 8));
            }
        }
        for kk in 0..self.k {
            let brow = self.b.add(kk * n + j);
            let mut bv = [_mm256_setzero_ps(); NB];
            for (jb, v) in bv.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(brow.add(jb * 8));
            }
            for (a, row) in ap.iter().zip(&mut acc) {
                let aik = *a.add(kk);
                if aik == 0.0 {
                    continue;
                }
                let av = _mm256_set1_ps(aik);
                for (v, b) in row.iter_mut().zip(&bv) {
                    *v = _mm256_fmadd_ps(av, *b, *v);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (jb, v) in row.iter().enumerate() {
                _mm256_storeu_ps(self.c.add((r0 + i) * n + j + jb * 8), *v);
            }
            self.epi_row(r0 + i, j, j + 8 * NB);
        }
    }

    /// All rows of the `NB`-block column panel at `j`. Wide panels tile two
    /// rows (8 accumulators + 4 `b` vectors fit the 16 registers); narrow
    /// ones tile four so there are still enough independent FMA chains.
    ///
    /// # Safety
    /// As [`tile`](Self::tile), for every row.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn col_panel<const NB: usize>(&self, rows: usize, j: usize) {
        let mut r = 0usize;
        if NB <= 2 {
            while r + 4 <= rows {
                self.tile::<4, NB>(r, j);
                r += 4;
            }
        }
        while r + 2 <= rows {
            self.tile::<2, NB>(r, j);
            r += 2;
        }
        if r < rows {
            self.tile::<1, NB>(r, j);
        }
    }
}

/// The rows-batched small product (see [`crate::small_gemm_epi_rows`]):
/// full 8-wide column blocks go through the register tiles, the ragged
/// column tail through `mul_add` and the scalar polynomial tails, bitwise
/// identical to the lanes.
///
/// # Safety
/// AVX2+FMA must be available. `a.leaf_len() == m * k`, `b.len() >= k * n`,
/// `c.len() >= a.len() * m * n`, and `extras` holds one run per binary op
/// of `ops`, each of `a.len()` leaves of `m * n` elements.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn small_gemm_epi_rows_avx2(
    a: Run<'_>,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    ops: &[EpiOp],
    extras: &[Run<'_>],
) {
    let rows = a.len() * m;
    let cx = RowsCtx {
        a,
        b: b.as_ptr(),
        c: c.as_mut_ptr(),
        m,
        k,
        n,
        ops,
        extras,
    };
    let mut j = 0usize;
    while j + 32 <= n {
        cx.col_panel::<4>(rows, j);
        j += 32;
    }
    match (n - j) / 8 {
        3 => cx.col_panel::<3>(rows, j),
        2 => cx.col_panel::<2>(rows, j),
        1 => cx.col_panel::<1>(rows, j),
        _ => {}
    }
    j = n - n % 8;
    if j == n {
        return;
    }
    let mut buf = [&[][..]; crate::MAX_EPI_OPERANDS];
    for r in 0..rows {
        let (leaf, row) = (r / m, r % m);
        let a_row = &a.leaf(leaf)[row * k..(row + 1) * k];
        let tail = &mut c[r * n + j..(r + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n + j..kk * n + n];
            for (d, &bv) in tail.iter_mut().zip(b_row) {
                *d = aik.mul_add(bv, *d);
            }
        }
        let ex = crate::leaf_operands(extras, leaf, &mut buf);
        crate::epi::apply_epi_range(crate::Mode::Avx2, tail, ops, ex, row * n + j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avx2() -> bool {
        crate::Mode::Avx2.supported()
    }
    fn sse() -> bool {
        crate::Mode::Sse.supported()
    }

    #[test]
    fn vexp_lanes_match_scalar_poly_bitwise() {
        if !avx2() {
            return;
        }
        let xs: Vec<f32> = (-400..400).map(|i| i as f32 * 0.25).collect();
        let mut got = xs.clone();
        unsafe { exp_ip_avx2(&mut got) };
        for (x, g) in xs.iter().zip(&got) {
            assert_eq!(
                g.to_bits(),
                scalar::exp_fma(*x).to_bits(),
                "lane/tail divergence at x={x}"
            );
        }
    }

    #[test]
    fn vexp_sse_lanes_match_scalar_poly_bitwise() {
        if !sse() {
            return;
        }
        let xs: Vec<f32> = (-400..400).map(|i| i as f32 * 0.25).collect();
        let mut got = xs.clone();
        unsafe { exp_ip_sse(&mut got) };
        for (x, g) in xs.iter().zip(&got) {
            assert_eq!(g.to_bits(), scalar::exp_nofma(*x).to_bits());
        }
    }

    #[test]
    fn gemm_ukr_avx2_matches_fma_order() {
        if !avx2() {
            return;
        }
        let kc = 7;
        let ap: Vec<f32> = (0..kc * 4).map(|i| (i as f32 * 0.37).sin()).collect();
        let bp: Vec<f32> = (0..kc * 8).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut acc = [[0.1f32; 8]; 4];
        let mut want = acc;
        unsafe { gemm_ukr_avx2(&ap, &bp, &mut acc) };
        // FMA oracle: same k order, single rounding per step.
        for (a_col, b_row) in ap.chunks_exact(4).zip(bp.chunks_exact(8)) {
            for (row, &aik) in want.iter_mut().zip(a_col.iter()) {
                for (d, &bv) in row.iter_mut().zip(b_row.iter()) {
                    *d = aik.mul_add(bv, *d);
                }
            }
        }
        assert_eq!(acc, want);
    }
}
