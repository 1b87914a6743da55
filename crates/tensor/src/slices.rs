//! Slice-level kernels for the zero-copy executor path.
//!
//! The arena executor evaluates UDFs over borrowed `&[f32]` windows instead
//! of `Tensor` values. Every kernel here is **bit-identical** to the
//! corresponding `Tensor` method *in the same SIMD mode*: matmul goes
//! through the same packed / small-product entry points as
//! [`Tensor::matmul`](crate::Tensor::matmul), the elementwise and
//! transcendental kernels dispatch through the same [`ft_simd`] entry
//! points as `ops.rs`, and the reductions replicate the exact sequential
//! accumulation order of `reduce.rs`. The workspace's bitwise parity
//! suites (executor vs. interpreter vs. reference) depend on that.
//!
//! The `*_epi` variants run a fused [`EpiOp`] epilogue on the output while
//! it is hot (in the GEMM register tile on the small path) — bitwise
//! identical to the unfused kernel sequence of the same mode, which is the
//! legality contract the plan-time fusion pass relies on.
//!
//! All output windows are fully overwritten, so callers may reuse scratch
//! buffers across iteration points without clearing them.

use ft_simd::{EpiOp, Run};

use crate::linalg;

/// `c = a @ b`, `[m, k] @ [k, n] -> [m, n]`. Shares the packed-GEMM entry
/// with `Tensor::matmul`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    c.fill(0.0);
    linalg::matmul_into(ft_simd::mode(), a, b, m, k, n, c);
}

/// `c = a @ b.T` with `b` stored `[n, k]`. Shares the entry with
/// `Tensor::matmul_transb`.
pub fn matmul_transb(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    c.fill(0.0);
    linalg::matmul_transb_into(ft_simd::mode(), a, b, m, k, n, c);
}

/// [`matmul`] with a fused epilogue applied while the output block is hot
/// (inside the register tile on the small path). `extras` are full
/// `[m, n]` operand slices consumed in `ops` order.
#[allow(clippy::too_many_arguments)]
pub fn matmul_epi(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    ops: &[EpiOp],
    extras: &[&[f32]],
) {
    c.fill(0.0);
    linalg::matmul_epi_into(ft_simd::mode(), a, b, m, k, n, c, ops, extras);
}

/// [`matmul_epi`] for a whole run of wavefront points that share `b`:
/// leaf `i` of `a` (`[m, k]`) times `b` (`[k, n]`) lands at `c[i·m·n..]`,
/// with leaf `i` of every run in `extras` as its epilogue operands.
///
/// Small-versus-packed is decided from the *leaf* shape, never from the
/// merged `len·m` rows, so each leaf takes the kernel (and every element
/// the FMA sequence) a per-leaf [`matmul_epi`] would: the results are
/// bitwise equal. Small leaves go to [`ft_simd::small_gemm_epi_rows`] in
/// one call; packed ones loop.
#[allow(clippy::too_many_arguments)]
pub fn matmul_epi_rows(
    a: Run<'_>,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    ops: &[EpiOp],
    extras: &[Run<'_>],
) {
    let mode = ft_simd::mode();
    let c = &mut c[..a.len() * m * n];
    c.fill(0.0);
    if linalg::use_packed(m, k, n) {
        let mut buf = [&[][..]; ft_simd::MAX_EPI_OPERANDS];
        for (i, c_leaf) in c.chunks_exact_mut(m * n).enumerate() {
            let ex = ft_simd::leaf_operands(extras, i, &mut buf);
            linalg::matmul_epi_into(mode, a.leaf(i), b, m, k, n, c_leaf, ops, ex);
        }
    } else {
        ft_simd::small_gemm_epi_rows(mode, a, b, m, k, n, c, ops, extras);
    }
}

/// [`matmul_transb`] with a fused epilogue.
#[allow(clippy::too_many_arguments)]
pub fn matmul_transb_epi(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    ops: &[EpiOp],
    extras: &[&[f32]],
) {
    c.fill(0.0);
    linalg::matmul_transb_epi_into(ft_simd::mode(), a, b, m, k, n, c, ops, extras);
}

/// Collapsed elementwise chain: `c = ops(x)`, consuming one extra operand
/// slice per binary op. Bitwise identical to materializing every
/// intermediate of the chain in the same mode.
pub fn ew_chain(x: &[f32], c: &mut [f32], ops: &[EpiOp], extras: &[&[f32]]) {
    c.copy_from_slice(x);
    ft_simd::apply_epi(ft_simd::mode(), c, ops, extras);
}

/// `c = a + b`, routed through ft-simd (bitwise identical in every mode).
pub fn add_into(a: &[f32], b: &[f32], c: &mut [f32]) {
    ft_simd::add_into(ft_simd::mode(), c, a, b);
}

/// `c = a - b`, routed through ft-simd (bitwise identical in every mode).
pub fn sub_into(a: &[f32], b: &[f32], c: &mut [f32]) {
    ft_simd::sub_into(ft_simd::mode(), c, a, b);
}

/// `c = a * b`, routed through ft-simd (bitwise identical in every mode).
pub fn mul_into(a: &[f32], b: &[f32], c: &mut [f32]) {
    ft_simd::mul_into(ft_simd::mode(), c, a, b);
}

/// `c = a / b`, routed through ft-simd (bitwise identical in every mode).
pub fn div_into(a: &[f32], b: &[f32], c: &mut [f32]) {
    ft_simd::div_into(ft_simd::mode(), c, a, b);
}

/// `c = max(a, b)`, routed through ft-simd (bitwise identical in every
/// mode).
pub fn max_into(a: &[f32], b: &[f32], c: &mut [f32]) {
    ft_simd::max_into(ft_simd::mode(), c, a, b);
}

macro_rules! unary_routed {
    ($name:ident, $kernel:ident, $doc:literal) => {
        #[doc = $doc]
        #[doc = " Routed through the same ft-simd kernel as the `Tensor`"]
        #[doc = " method, so executor and interpreter agree bitwise in"]
        #[doc = " every mode."]
        pub fn $name(a: &[f32], c: &mut [f32]) {
            c.copy_from_slice(a);
            ft_simd::$kernel(ft_simd::mode(), c);
        }
    };
}

unary_routed!(exp_into, exp_ip, "`c = exp(a)`.");
unary_routed!(sigmoid_into, sigmoid_ip, "`c = sigmoid(a)`.");
unary_routed!(tanh_into, tanh_ip, "`c = tanh(a)`.");
unary_routed!(silu_into, silu_ip, "`c = a * sigmoid(a)` (SiLU).");
unary_routed!(neg_into, neg_ip, "`c = -a`.");
unary_routed!(relu_into, relu_ip, "`c = max(a, 0)`.");

/// `c = a * s`, routed through ft-simd (bitwise identical in every mode).
pub fn scale_into(a: &[f32], s: f32, c: &mut [f32]) {
    c.copy_from_slice(a);
    ft_simd::scale_ip(ft_simd::mode(), c, s);
}

/// `c = a + s`, routed through ft-simd (bitwise identical in every mode).
pub fn add_scalar_into(a: &[f32], s: f32, c: &mut [f32]) {
    c.copy_from_slice(a);
    ft_simd::add_scalar_ip(ft_simd::mode(), c, s);
}

/// Elementwise `c[i] = f(a[i], b[i])`.
pub fn zip_into(a: &[f32], b: &[f32], c: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    for ((cv, &av), &bv) in c.iter_mut().zip(a).zip(b) {
        *cv = f(av, bv);
    }
}

/// Elementwise `c[i] = f(a[i])`.
pub fn map_into(a: &[f32], c: &mut [f32], f: impl Fn(f32) -> f32) {
    for (cv, &av) in c.iter_mut().zip(a) {
        *cv = f(av);
    }
}

/// Logistic sigmoid, the exact expression `Tensor::sigmoid` applies.
pub fn sigmoid_scalar(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Column broadcast: `a` is `[m, n]`, `b` is `[m, 1]`;
/// `c[i, j] = f(a[i, j], b[i, 0])`. Mirrors `ft-core`'s `col_broadcast`
/// loop order (rows outer, columns inner).
pub fn col_broadcast(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    c: &mut [f32],
    f: impl Fn(f32, f32) -> f32,
) {
    for i in 0..m {
        let bv = b[i];
        let row = &a[i * n..(i + 1) * n];
        for (cv, &av) in c[i * n..(i + 1) * n].iter_mut().zip(row) {
            *cv = f(av, bv);
        }
    }
}

/// Row reduction of a `[m, n]` matrix to `[m, 1]`:
/// `c[i] = fold(init, f, a[i, ..])` with columns accumulated ascending —
/// the order `ft-core`'s `row_reduce` uses.
pub fn row_reduce(
    a: &[f32],
    m: usize,
    n: usize,
    init: f32,
    c: &mut [f32],
    f: impl Fn(f32, f32) -> f32,
) {
    for i in 0..m {
        let mut acc = init;
        for &v in &a[i * n..(i + 1) * n] {
            acc = f(acc, v);
        }
        c[i] = acc;
    }
}

/// Row-wise softmax of a `[m, n]` matrix, replicating
/// `Tensor::softmax_rows` exactly: both route through the same
/// [`ft_simd::softmax_rows`] kernel (row max and denominator sum stay
/// sequential in every mode).
pub fn softmax_rows(a: &[f32], m: usize, n: usize, c: &mut [f32]) {
    ft_simd::softmax_rows(ft_simd::mode(), a, m, n, c);
}

/// Copies the `start..end` range of one axis of a row-major tensor with
/// extents `dims` into `c` — the contiguous materialization
/// `Tensor::slice(axis, start, end).to_contiguous()` produces.
pub fn slice_axis(a: &[f32], dims: &[usize], axis: usize, start: usize, end: usize, c: &mut [f32]) {
    let outer: usize = dims[..axis].iter().product();
    let mid = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    let width = (end - start) * inner;
    for o in 0..outer {
        let src = o * mid * inner + start * inner;
        c[o * width..(o + 1) * width].copy_from_slice(&a[src..src + width]);
    }
}

/// Concatenates row-major parts along an axis into `c`. Each part is
/// `(data, axis_extent)`; `outer` is the product of extents before the
/// axis and `inner` the product after (shared by all parts). Pure copy —
/// values are bitwise those of `Tensor::concat`.
pub fn concat_axis(parts: &[(&[f32], usize)], outer: usize, inner: usize, c: &mut [f32]) {
    let total: usize = parts.iter().map(|&(_, e)| e * inner).sum();
    for o in 0..outer {
        let mut dst = o * total;
        for &(data, extent) in parts {
            let width = extent * inner;
            c[dst..dst + width].copy_from_slice(&data[o * width..(o + 1) * width]);
            dst += width;
        }
    }
}

/// Transpose of a `[m, n]` matrix into `[n, m]`.
pub fn transpose(a: &[f32], m: usize, n: usize, c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            c[j * m + i] = a[i * n + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    fn slice_bits(s: &[f32]) -> Vec<u32> {
        s.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matmul_matches_tensor_bitwise_small_and_packed() {
        // One shape under the packing threshold, one over it.
        for &(m, k, n, seed) in &[(3, 5, 4, 1u64), (65, 70, 40, 2u64)] {
            let a = Tensor::randn(&[m, k], seed);
            let b = Tensor::randn(&[k, n], seed + 10);
            let mut c = vec![7.0f32; m * n]; // Dirty scratch must not leak.
            matmul(
                a.contiguous_slice().unwrap(),
                b.contiguous_slice().unwrap(),
                m,
                k,
                n,
                &mut c,
            );
            assert_eq!(slice_bits(&c), bits(&a.matmul(&b).unwrap()));

            let bt = Tensor::randn(&[n, k], seed + 20);
            let mut ct = vec![7.0f32; m * n];
            matmul_transb(
                a.contiguous_slice().unwrap(),
                bt.contiguous_slice().unwrap(),
                m,
                k,
                n,
                &mut ct,
            );
            assert_eq!(slice_bits(&ct), bits(&a.matmul_transb(&bt).unwrap()));
        }
    }

    #[test]
    fn matmul_epi_rows_equals_per_leaf_calls_small_and_packed() {
        // One leaf shape under the packing threshold, one over it; `a`
        // leaves reversed and gapped, one operand per leaf, one shared.
        for &(m, k, n, seed) in &[(1, 32, 40, 3u64), (16, 48, 64, 4u64)] {
            let len = 3usize;
            let gap = m * k + 7;
            let a_buf = Tensor::randn(&[len * gap], seed).to_vec();
            let b = Tensor::randn(&[k, n], seed + 1).to_vec();
            let per_leaf = Tensor::randn(&[len * m * n], seed + 2).to_vec();
            let shared = Tensor::randn(&[m * n], seed + 3).to_vec();
            let a = Run::new(&a_buf, (len - 1) * gap, -(gap as isize), m * k, len);
            let extras = [
                Run::new(&per_leaf, 0, (m * n) as isize, m * n, len),
                Run::new(&shared, 0, 0, m * n, len),
            ];
            let ops = [EpiOp::Add, EpiOp::Tanh, EpiOp::Mul];
            let mut rows = vec![7.0f32; len * m * n]; // Dirty scratch must not leak.
            matmul_epi_rows(a, &b, m, k, n, &mut rows, &ops, &extras);
            for i in 0..len {
                let mut one = vec![7.0f32; m * n];
                let ex = [extras[0].leaf(i), extras[1].leaf(i)];
                matmul_epi(a.leaf(i), &b, m, k, n, &mut one, &ops, &ex);
                assert_eq!(
                    slice_bits(&rows[i * m * n..(i + 1) * m * n]),
                    slice_bits(&one),
                    "{m}x{k}x{n} leaf {i}"
                );
            }
        }
    }

    #[test]
    fn softmax_matches_tensor_bitwise() {
        let a = Tensor::randn(&[5, 9], 3);
        let mut c = vec![0.0f32; 45];
        softmax_rows(a.contiguous_slice().unwrap(), 5, 9, &mut c);
        assert_eq!(slice_bits(&c), bits(&a.softmax_rows().unwrap()));
    }

    #[test]
    fn reductions_and_broadcast_match_tensor_bitwise() {
        let a = Tensor::randn(&[4, 7], 4);
        let s = a.contiguous_slice().unwrap();
        let mut mx = vec![0.0f32; 4];
        row_reduce(s, 4, 7, f32::NEG_INFINITY, &mut mx, f32::max);
        let mut sm = vec![0.0f32; 4];
        row_reduce(s, 4, 7, 0.0, &mut sm, |acc, v| acc + v);
        // Oracle: ascending-column fold, as ft-core's row_reduce performs.
        for i in 0..4 {
            let mut accm = f32::NEG_INFINITY;
            let mut accs = 0.0f32;
            for j in 0..7 {
                let v = a.get(&[i, j]).unwrap();
                accm = accm.max(v);
                accs += v;
            }
            assert_eq!(mx[i].to_bits(), accm.to_bits());
            assert_eq!(sm[i].to_bits(), accs.to_bits());
        }

        let b = Tensor::randn(&[4, 1], 5);
        let mut c = vec![0.0f32; 28];
        col_broadcast(s, b.contiguous_slice().unwrap(), 4, 7, &mut c, |x, y| x - y);
        for i in 0..4 {
            for j in 0..7 {
                let want = a.get(&[i, j]).unwrap() - b.get(&[i, 0]).unwrap();
                assert_eq!(c[i * 7 + j].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn transpose_and_maps_match_tensor() {
        let a = Tensor::randn(&[3, 5], 6);
        let mut c = vec![0.0f32; 15];
        transpose(a.contiguous_slice().unwrap(), 3, 5, &mut c);
        assert_eq!(slice_bits(&c), bits(&a.t().unwrap().to_contiguous()));

        let mut sg = vec![0.0f32; 15];
        map_into(a.contiguous_slice().unwrap(), &mut sg, sigmoid_scalar);
        assert_eq!(slice_bits(&sg), bits(&a.sigmoid()));
    }
}
