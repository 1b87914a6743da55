//! Matrix multiplication kernels.
//!
//! Two regimes share one entry point:
//!
//! * **Small products** (per-point UDF shapes like `[1, h] @ [h, h]`) run a
//!   direct i-k-j loop over *borrowed* contiguous slices — no packing, and
//!   crucially no operand copies, so the executor's inner loop stays off
//!   the allocator.
//! * **Large products** run a packed, register-blocked GEMM: A is packed
//!   into `MR`-row k-major panels, B into `NR`-column panels (zero-padded
//!   at the edges), and an `MR`×`NR` microkernel accumulates over a
//!   `KC`-deep k-block with all bounds checks hoisted via `chunks_exact`.
//!
//! `matmul_transb` reuses the same kernels — packing B from rows instead
//! of columns is the only difference — and [`Tensor::matmul_mt`] fans the
//! row panels of the packed path out over an [`ft_pool::WorkerPool`],
//! writing each row block directly into its disjoint window of the output
//! buffer (an [`ft_simd::OwnedBlocks`] partition — no lock, no staging
//! copy), bit-identical to the single-threaded result because every
//! element sees the same accumulation order.
//!
//! All inner loops dispatch through [`ft_simd`] on a [`Mode`] hoisted once
//! per operation: scalar mode reproduces the pre-SIMD arithmetic bitwise,
//! vector modes change only the documented FMA contraction (see the
//! ft-simd crate docs). The `*_epi_into` variants run a fused epilogue
//! ([`EpiOp`] chain) on each output block while it is still hot — in the
//! register tile on the small path, per row block on the packed path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ft_pool::WorkerPool;
use ft_simd::{EpiOp, Mode, OwnedBlocks};

use crate::{Result, Tensor, TensorError};

/// Microkernel register-block height (rows of A per panel).
const MR: usize = ft_simd::MR;
/// Microkernel register-block width (columns of B per panel).
const NR: usize = ft_simd::NR;
/// k-dimension cache-block depth: one packed A panel (`MR * KC` floats)
/// and one packed B panel (`NR * KC`) stay resident in L1/L2.
const KC: usize = 256;
/// Row-block granularity for the multi-threaded row-panel fan-out.
const MC: usize = 64;
/// Flop threshold below which packing costs more than it saves.
const PACK_MIN_FLOPS: usize = 32 * 1024;

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] @ [k, n] -> [m, n]`.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k, n) = check_mm("matmul", self, rhs, false)?;
        let a_owned;
        let a: &[f32] = match self.contiguous_slice() {
            Some(s) => s,
            None => {
                a_owned = self.to_vec();
                &a_owned
            }
        };
        let b_owned;
        let b: &[f32] = match rhs.contiguous_slice() {
            Some(s) => s,
            None => {
                b_owned = rhs.to_vec();
                &b_owned
            }
        };
        let mut c = vec![0.0f32; m * n];
        matmul_into(ft_simd::mode(), a, b, m, k, n, &mut c);
        Tensor::from_vec(c, &[m, n])
    }

    /// `self @ rhs.T` without materializing the transpose:
    /// `[m, k] @ ([n, k]).T -> [m, n]`.
    ///
    /// Large shapes go through the same packed kernel as [`Tensor::matmul`]
    /// — packing B's panels from contiguous rows of `rhs` instead of
    /// strided columns, which is the cache-friendly direction here.
    pub fn matmul_transb(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k, n) = check_mm("matmul_transb", self, rhs, true)?;
        let a_owned;
        let a: &[f32] = match self.contiguous_slice() {
            Some(s) => s,
            None => {
                a_owned = self.to_vec();
                &a_owned
            }
        };
        let b_owned;
        let b: &[f32] = match rhs.contiguous_slice() {
            Some(s) => s,
            None => {
                b_owned = rhs.to_vec();
                &b_owned
            }
        };
        let mut c = vec![0.0f32; m * n];
        matmul_transb_into(ft_simd::mode(), a, b, m, k, n, &mut c);
        Tensor::from_vec(c, &[m, n])
    }

    /// [`Tensor::matmul`] with the row panels of the packed kernel fanned
    /// out over `pool`. Bit-identical to the single-threaded product: row
    /// blocks are independent and every element accumulates in the same
    /// order, so only the wall-clock changes.
    pub fn matmul_mt(&self, rhs: &Tensor, pool: &WorkerPool) -> Result<Tensor> {
        let (m, k, n) = check_mm("matmul", self, rhs, false)?;
        if pool.threads() == 1 || !use_packed(m, k, n) || m <= MC {
            return self.matmul(rhs);
        }
        let (a_buf, a_off) = self.shared_contiguous();
        let b_owned;
        let b: &[f32] = match rhs.contiguous_slice() {
            Some(s) => s,
            None => {
                b_owned = rhs.to_vec();
                &b_owned
            }
        };
        let mode = ft_simd::mode();
        let bp = Arc::new(pack_b_all(b, k, n, false));
        let nblocks = m.div_ceil(MC);
        // Workers write each row block straight into its disjoint window
        // of the final buffer — no per-block staging vector, no lock, no
        // gather copy after the barrier.
        let blocks = OwnedBlocks::new(m * n, MC * n);
        let cursor = Arc::new(AtomicUsize::new(0));
        let job = {
            let (a_buf, bp, blocks, cursor) = (
                Arc::clone(&a_buf),
                Arc::clone(&bp),
                Arc::clone(&blocks),
                Arc::clone(&cursor),
            );
            move |_worker: usize| {
                let a = &a_buf[a_off..a_off + m * k];
                let mut ap = Vec::new();
                loop {
                    let blk = cursor.fetch_add(1, Ordering::Relaxed);
                    if blk >= nblocks {
                        break;
                    }
                    let Some(mut win) = blocks.claim(blk) else {
                        continue;
                    };
                    let i0 = blk * MC;
                    let mc = MC.min(m - i0);
                    row_block(mode, a, k, i0, mc, n, &bp, &mut ap, &mut win);
                }
            }
        };
        pool.run(Arc::new(job));
        // `pool.run` is a barrier, so every claim guard has been dropped.
        let c = blocks.take().expect("matmul_mt: output still claimed");
        Tensor::from_vec(c, &[m, n])
    }

    /// Inner product of two equal-length rank-1 tensors.
    pub fn dot(&self, rhs: &Tensor) -> Result<f32> {
        if self.rank() != 1 || rhs.rank() != 1 || self.numel() != rhs.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        if let (Some(a), Some(b)) = (self.contiguous_slice(), rhs.contiguous_slice()) {
            return Ok(a.iter().zip(b).map(|(x, y)| x * y).sum());
        }
        Ok(self.iter().zip(rhs.iter()).map(|(a, b)| a * b).sum())
    }
}

/// Validates ranks/shapes and returns `(m, k, n)`. When `transb` is set,
/// `rhs` is `[n, k]` instead of `[k, n]`.
fn check_mm(
    op: &'static str,
    lhs: &Tensor,
    rhs: &Tensor,
    transb: bool,
) -> Result<(usize, usize, usize)> {
    if lhs.rank() != 2 || rhs.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: if lhs.rank() != 2 {
                lhs.rank()
            } else {
                rhs.rank()
            },
        });
    }
    let (m, k) = (lhs.dims()[0], lhs.dims()[1]);
    let (k2, n) = if transb {
        (rhs.dims()[1], rhs.dims()[0])
    } else {
        (rhs.dims()[0], rhs.dims()[1])
    };
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: lhs.dims().to_vec(),
            rhs: rhs.dims().to_vec(),
        });
    }
    Ok((m, k, n))
}

pub(crate) fn use_packed(m: usize, k: usize, n: usize) -> bool {
    m >= MR && n >= NR && m * k * n >= PACK_MIN_FLOPS
}

/// `c = a @ b` over borrowed row-major slices (`c` must be zeroed, `m * n`
/// long). This is the single entry both [`Tensor::matmul`] and the
/// arena executor's zero-copy slice path go through, so the accumulation
/// order — and therefore the bit pattern of every result — is identical
/// regardless of whether operands arrive as tensors or arena views.
pub(crate) fn matmul_into(
    mode: Mode,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    matmul_epi_into(mode, a, b, m, k, n, c, &[], &[]);
}

/// `c = a @ b.T` with `b` stored `[n, k]`; same sharing contract as
/// [`matmul_into`].
pub(crate) fn matmul_transb_into(
    mode: Mode,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    matmul_transb_epi_into(mode, a, b, m, k, n, c, &[], &[]);
}

/// [`matmul_into`] with a fused epilogue: `ops` run on each output block
/// while it is still hot — inside the register tile on the small path,
/// per `MC` row block on the packed path. Elementwise epilogues are
/// position-independent bitwise (ft-simd contract), so the result equals
/// running the unfused kernel sequence of the same mode. `extras` are
/// full `[m, n]` operand buffers consumed in `ops` order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_epi_into(
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
    if use_packed(m, k, n) {
        let bp = pack_b_all(b, k, n, false);
        let mut ap = Vec::new();
        for i0 in (0..m).step_by(MC) {
            let mc = MC.min(m - i0);
            let cblk = &mut c[i0 * n..(i0 + mc) * n];
            row_block(mode, a, k, i0, mc, n, &bp, &mut ap, cblk);
            apply_epi_block(mode, cblk, i0 * n, ops, extras);
        }
    } else {
        ft_simd::small_gemm_epi(mode, a, b, m, k, n, c, ops, extras);
    }
}

/// [`matmul_transb_epi_into`]: `c = a @ b.T` (`b` stored `[n, k]`) with a
/// fused epilogue per output block.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_transb_epi_into(
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
    if use_packed(m, k, n) {
        let bp = pack_b_all(b, k, n, true);
        let mut ap = Vec::new();
        for i0 in (0..m).step_by(MC) {
            let mc = MC.min(m - i0);
            let cblk = &mut c[i0 * n..(i0 + mc) * n];
            row_block(mode, a, k, i0, mc, n, &bp, &mut ap, cblk);
            apply_epi_block(mode, cblk, i0 * n, ops, extras);
        }
    } else {
        // Per-element dot products: reductions stay strictly sequential
        // in every mode (no reassociation), so this path is bitwise
        // identical to the pre-SIMD code everywhere.
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (j, cv) in c_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                *cv = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
            }
            apply_epi_block(mode, &mut c[i * n..(i + 1) * n], i * n, ops, extras);
        }
    }
}

/// Runs an epilogue over one output window at logical offset `base`,
/// slicing each full-size extra operand down to the window.
fn apply_epi_block(mode: Mode, cblk: &mut [f32], base: usize, ops: &[EpiOp], extras: &[&[f32]]) {
    if ops.is_empty() {
        return;
    }
    let len = cblk.len();
    let ex: Vec<&[f32]> = extras.iter().map(|e| &e[base..base + len]).collect();
    ft_simd::apply_epi(mode, cblk, ops, &ex);
}

/// Packs every k-block of B up front. Block `kb` holds `n.div_ceil(NR)`
/// column panels; panel `p` stores `bp[p * kc * NR + kk * NR + jr] =
/// B[k0 + kk, p * NR + jr]`, zero-padded past column `n`. With `transb`,
/// B is `[n, k]` and the same layout is filled from its rows.
fn pack_b_all(b: &[f32], k: usize, n: usize, transb: bool) -> Vec<Vec<f32>> {
    let npanels = n.div_ceil(NR);
    let mut blocks = Vec::with_capacity(k.div_ceil(KC));
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let mut buf = vec![0.0f32; npanels * kc * NR];
        for p in 0..npanels {
            let j0 = p * NR;
            let nr = NR.min(n - j0);
            let panel = &mut buf[p * kc * NR..(p + 1) * kc * NR];
            for kk in 0..kc {
                let dst = &mut panel[kk * NR..kk * NR + nr];
                if transb {
                    for (jr, d) in dst.iter_mut().enumerate() {
                        *d = b[(j0 + jr) * k + k0 + kk];
                    }
                } else {
                    dst.copy_from_slice(&b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + nr]);
                }
            }
        }
        blocks.push(buf);
    }
    blocks
}

/// Packs rows `i0 .. i0 + mc` of A for one k-block into `MR`-row panels:
/// `ap[p * kc * MR + kk * MR + ir] = A[i0 + p * MR + ir, k0 + kk]`,
/// zero-padded past row `mc`.
fn pack_a(a: &[f32], lda: usize, i0: usize, mc: usize, k0: usize, kc: usize, buf: &mut Vec<f32>) {
    let npanels = mc.div_ceil(MR);
    buf.clear();
    buf.resize(npanels * kc * MR, 0.0);
    for p in 0..npanels {
        let mr = MR.min(mc - p * MR);
        let panel = &mut buf[p * kc * MR..(p + 1) * kc * MR];
        for ir in 0..mr {
            let row = &a[(i0 + p * MR + ir) * lda + k0..][..kc];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * MR + ir] = v;
            }
        }
    }
}

/// Computes one `mc`-row block of C (`cblk`, `mc * n`, zero-initialized)
/// against the prepacked B blocks, packing A per k-block into the caller's
/// reusable `ap` buffer. The `MR`×`NR` register tile is
/// [`ft_simd::gemm_ukr`] — broadcast-FMA lanes in fused modes, the
/// pre-SIMD mul+add bitwise in scalar/SSE. Accumulation order per element
/// is fixed (k-blocks ascending, k ascending within a block) regardless of
/// how row blocks are distributed, which is what makes `matmul_mt`
/// bit-identical.
#[allow(clippy::too_many_arguments)]
fn row_block(
    mode: Mode,
    a: &[f32],
    k: usize,
    i0: usize,
    mc: usize,
    n: usize,
    b_blocks: &[Vec<f32>],
    ap: &mut Vec<f32>,
    cblk: &mut [f32],
) {
    let row_panels = mc.div_ceil(MR);
    let col_panels = n.div_ceil(NR);
    for (kb, bp) in b_blocks.iter().enumerate() {
        let k0 = kb * KC;
        let kc = KC.min(k - k0);
        pack_a(a, k, i0, mc, k0, kc, ap);
        for rp in 0..row_panels {
            let a_panel = &ap[rp * kc * MR..(rp + 1) * kc * MR];
            let mr = MR.min(mc - rp * MR);
            for cp in 0..col_panels {
                let b_panel = &bp[cp * kc * NR..(cp + 1) * kc * NR];
                let mut acc = [[0.0f32; NR]; MR];
                ft_simd::gemm_ukr(mode, a_panel, b_panel, &mut acc);
                let j0 = cp * NR;
                let nr = NR.min(n - j0);
                for (ir, row) in acc.iter().enumerate().take(mr) {
                    let dst = &mut cblk[(rp * MR + ir) * n + j0..][..nr];
                    for (d, &v) in dst.iter_mut().zip(row.iter()) {
                        *d += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_allclose;
    use proptest::prelude::*;

    /// Naive triple loop used as the oracle for the packed kernel.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.get(&[i, kk]).unwrap() * b.get(&[kk, j]).unwrap();
                }
                c.set(&[i, j], acc).unwrap();
            }
        }
        c
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::randn(&[7, 7], 5);
        let mut eye = Tensor::zeros(&[7, 7]);
        for i in 0..7 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        assert_allclose(&a.matmul(&eye).unwrap(), &a, 1e-6);
        assert_allclose(&eye.matmul(&a).unwrap(), &a, 1e-6);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let a = Tensor::randn(&[5, 9], 1);
        let b = Tensor::randn(&[4, 9], 2);
        let via_t = a.matmul(&b.t().unwrap().to_contiguous()).unwrap();
        let direct = a.matmul_transb(&b).unwrap();
        assert_allclose(&via_t, &direct, 1e-5);
    }

    #[test]
    fn packed_kernel_crosses_panel_boundaries() {
        // Sizes straddling the MR/NR register blocks and the MC row block.
        let a = Tensor::randn(&[65, 130], 11);
        let b = Tensor::randn(&[130, 67], 12);
        assert!(use_packed(65, 130, 67));
        assert_allclose(&a.matmul(&b).unwrap(), &matmul_naive(&a, &b), 1e-3);
    }

    #[test]
    fn packed_kernel_crosses_kc_boundary() {
        // k > KC exercises multi-block accumulation.
        let a = Tensor::randn(&[17, KC + 3], 21);
        let b = Tensor::randn(&[KC + 3, 11], 22);
        assert!(use_packed(17, KC + 3, 11));
        assert_allclose(&a.matmul(&b).unwrap(), &matmul_naive(&a, &b), 1e-3);
    }

    #[test]
    fn packed_transb_crosses_panel_boundaries() {
        let a = Tensor::randn(&[37, 70], 31);
        let b = Tensor::randn(&[43, 70], 32);
        assert!(use_packed(37, 70, 43));
        let via_t = a.matmul(&b.t().unwrap().to_contiguous()).unwrap();
        assert_allclose(&a.matmul_transb(&b).unwrap(), &via_t, 1e-3);
    }

    #[test]
    fn matmul_on_strided_view() {
        let a = Tensor::randn(&[6, 6], 3);
        let sub = a.slice(0, 1, 4).unwrap(); // Non-zero offset view.
        let b = Tensor::randn(&[6, 2], 4);
        assert_allclose(
            &sub.matmul(&b).unwrap(),
            &matmul_naive(&sub.to_contiguous(), &b),
            1e-5,
        );
    }

    #[test]
    fn packed_matmul_on_strided_views() {
        // Both operands are offset/strided views large enough for the
        // packed path, so the borrow-or-materialize fallback is exercised.
        let a = Tensor::randn(&[80, 96], 41).slice(0, 8, 73).unwrap();
        let bt = Tensor::randn(&[40, 96], 42).t().unwrap();
        assert!(use_packed(a.dims()[0], a.dims()[1], bt.dims()[1]));
        assert_allclose(
            &a.matmul(&bt).unwrap(),
            &matmul_naive(&a.to_contiguous(), &bt.to_contiguous()),
            1e-3,
        );
    }

    #[test]
    fn matmul_mt_bitwise_matches_single_threaded() {
        let pool = WorkerPool::new(4);
        for &(m, k, n) in &[(200, 130, 67), (129, KC + 5, 40)] {
            let a = Tensor::randn(&[m, k], 51);
            let b = Tensor::randn(&[k, n], 52);
            let st = a.matmul(&b).unwrap();
            let mt = a.matmul_mt(&b, &pool).unwrap();
            assert_eq!(st.to_vec(), mt.to_vec(), "{m}x{k}x{n} diverged");
        }
    }

    #[test]
    fn matmul_mt_small_falls_back() {
        let pool = WorkerPool::new(2);
        let a = Tensor::randn(&[3, 5], 61);
        let b = Tensor::randn(&[5, 4], 62);
        assert_eq!(
            a.matmul(&b).unwrap().to_vec(),
            a.matmul_mt(&b, &pool).unwrap().to_vec()
        );
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Tensor::zeros(&[4])).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_small_matches_naive(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..100
        ) {
            let a = Tensor::randn(&[m, k], seed);
            let b = Tensor::randn(&[k, n], seed + 1);
            assert_allclose(&a.matmul(&b).unwrap(), &matmul_naive(&a, &b), 1e-4);
        }

        #[test]
        fn prop_packed_matches_naive(
            m in 4usize..80, k in 8usize..90, n in 8usize..80, seed in 0u64..100
        ) {
            // Shapes biased to straddle MR/NR/MC panel edges; only some
            // clear the flop threshold, so both paths get coverage.
            let a = Tensor::randn(&[m, k], seed);
            let b = Tensor::randn(&[k, n], seed + 1);
            assert_allclose(&a.matmul(&b).unwrap(), &matmul_naive(&a, &b), 1e-3);
        }

        #[test]
        fn prop_transb_matches_naive_oracle(
            m in 1usize..70, k in 1usize..90, n in 1usize..70, seed in 0u64..100
        ) {
            let a = Tensor::randn(&[m, k], seed);
            let b = Tensor::randn(&[n, k], seed + 1);
            let oracle = matmul_naive(&a, &b.t().unwrap().to_contiguous());
            assert_allclose(&a.matmul_transb(&b).unwrap(), &oracle, 1e-3);
        }

        #[test]
        fn prop_matmul_distributes_over_add(seed in 0u64..100) {
            let a = Tensor::randn(&[4, 6], seed);
            let b = Tensor::randn(&[6, 3], seed + 1);
            let c = Tensor::randn(&[6, 3], seed + 2);
            let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
            let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
            assert_allclose(&lhs, &rhs, 1e-4);
        }
    }
}
