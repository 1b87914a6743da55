//! SIMD ↔ scalar parity suite (the numeric contract, enforced).
//!
//! * Exact ops (`add/sub/mul/div/max/scale/neg/relu`): **bitwise** equal
//!   to the scalar fallback in every mode, at every length.
//! * SSE GEMM: bitwise equal to scalar (mul+add, same order); AVX2
//!   GEMM differs only by documented FMA contraction (single rounding).
//! * Transcendentals: within the documented ulp bounds of the
//!   `f64`-evaluated reference in every mode, and ragged-tail elements
//!   are bitwise identical to vector-lane elements.
//! * Fused epilogues: `small_gemm_epi` is bitwise identical to running
//!   the unfused kernel sequence of the same mode.
//! * Rows-batched product: `small_gemm_epi_rows` over a run of leaves is
//!   bitwise identical to one `small_gemm_epi` call per leaf in every
//!   mode, whatever the strides of `a` and of the epilogue operands.

use ft_simd::{EpiOp, Mode, Run};
use proptest::prelude::*;

/// Every mode the host CPU can execute.
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

fn to_f32(raw: &[i32]) -> Vec<f32> {
    raw.iter().map(|&v| v as f32 / 512.0).collect()
}

fn ulp_err(x: f32, oracle: f64) -> u32 {
    let exact = oracle as f32;
    if x == exact || (x.is_nan() && exact.is_nan()) {
        return 0;
    }
    (exact.to_bits() as i64 - x.to_bits() as i64).unsigned_abs() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    // Exact elementwise kernels are bitwise identical in every mode,
    // including ragged lengths that straddle every lane width.
    fn exact_ops_bitwise(raw_a in proptest::collection::vec(-4096i32..4096, 1..67),
                         raw_b in proptest::collection::vec(-4096i32..4096, 1..67)) {
        let n = raw_a.len().min(raw_b.len());
        let a = to_f32(&raw_a[..n]);
        let b = to_f32(&raw_b[..n]);
        for mode in modes() {
            let mut want = vec![0.0f32; n];
            let mut got = vec![0.0f32; n];
            type Into2 = fn(Mode, &mut [f32], &[f32], &[f32]);
            for f in [
                ft_simd::add_into as Into2,
                ft_simd::sub_into,
                ft_simd::mul_into,
                ft_simd::div_into,
                ft_simd::max_into,
            ] {
                f(Mode::Scalar, &mut want, &a, &b);
                f(mode, &mut got, &a, &b);
                for i in 0..n {
                    prop_assert_eq!(want[i].to_bits(), got[i].to_bits());
                }
            }
            let mut want = a.clone();
            let mut got = a.clone();
            ft_simd::scale_ip(Mode::Scalar, &mut want, 1.7);
            ft_simd::scale_ip(mode, &mut got, 1.7);
            ft_simd::relu_ip(Mode::Scalar, &mut want);
            ft_simd::relu_ip(mode, &mut got);
            ft_simd::neg_ip(Mode::Scalar, &mut want);
            ft_simd::neg_ip(mode, &mut got);
            ft_simd::add_scalar_ip(Mode::Scalar, &mut want, -0.3);
            ft_simd::add_scalar_ip(mode, &mut got, -0.3);
            for i in 0..n {
                prop_assert_eq!(want[i].to_bits(), got[i].to_bits());
            }
        }
    }

    #[test]
    // Transcendentals: documented ulp bounds per mode, and a ragged-tail
    // element is bitwise what the same input produces in a full lane.
    fn transcendental_ulp_and_tails(raw in proptest::collection::vec(-15_000i32..15_000, 1..67)) {
        let xs = to_f32(&raw);
        for mode in modes() {
            for (name, ip, bound) in [
                ("exp", ft_simd::exp_ip as fn(Mode, &mut [f32]), 4u32),
                ("sigmoid", ft_simd::sigmoid_ip, 8),
                ("tanh", ft_simd::tanh_ip, 8),
                ("silu", ft_simd::silu_ip, 8),
            ] {
                let mut got = xs.clone();
                ip(mode, &mut got);
                for (i, (&x, &y)) in xs.iter().zip(&got).enumerate() {
                    let oracle = match name {
                        "exp" => (x as f64).exp(),
                        "sigmoid" => 1.0 / (1.0 + (-(x as f64)).exp()),
                        "tanh" => (x as f64).tanh(),
                        _ => x as f64 / (1.0 + (-(x as f64)).exp()),
                    };
                    let err = ulp_err(y, oracle);
                    prop_assert!(
                        err <= bound,
                        "{} {:?} x={} got={} err={} ulp", name, mode, x, y, err
                    );
                    // Tail policy: position independence.
                    let mut one = [x];
                    ip(mode, &mut one);
                    prop_assert!(
                        y.to_bits() == one[0].to_bits(),
                        "{} {:?} tail/lane split at {}", name, mode, i
                    );
                }
            }
        }
    }

    #[test]
    // small_gemm: SSE bitwise == scalar; fused modes within FMA-contraction
    // distance of the scalar result.
    fn small_gemm_parity(raw_a in proptest::collection::vec(-1024i32..1024, 1..37),
                         raw_b in proptest::collection::vec(-1024i32..1024, 1..37),
                         m in 1usize..6, k in 1usize..6, n in 1usize..12) {
        let mut a = to_f32(&raw_a);
        let mut b = to_f32(&raw_b);
        a.resize(m * k, 0.5);
        b.resize(k * n, -0.25);
        let mut want = vec![0.0f32; m * n];
        ft_simd::small_gemm(Mode::Scalar, &a, &b, m, k, n, &mut want);
        for mode in modes() {
            let mut got = vec![0.0f32; m * n];
            ft_simd::small_gemm(mode, &a, &b, m, k, n, &mut got);
            for i in 0..m * n {
                if mode.fused() {
                    let tol = 1e-5 * (1.0 + want[i].abs()) * k as f32;
                    prop_assert!((got[i] - want[i]).abs() <= tol,
                        "{:?} i={} got={} want={}", mode, i, got[i], want[i]);
                } else {
                    prop_assert!(got[i].to_bits() == want[i].to_bits(), "{:?} i={}", mode, i);
                }
            }
        }
    }

    #[test]
    // Fused epilogue == unfused kernel sequence, bitwise, in every mode.
    fn fused_epilogue_bitwise(raw_a in proptest::collection::vec(-1024i32..1024, 1..25),
                              raw_e in proptest::collection::vec(-1024i32..1024, 1..61),
                              m in 1usize..5, k in 1usize..5, n in 1usize..12,
                              pick in 0usize..6) {
        let mut a = to_f32(&raw_a);
        let mut b = to_f32(&raw_e);
        let mut extra = to_f32(&raw_e);
        a.resize(m * k, 0.3);
        b.resize(k * n, 0.7);
        extra.resize(m * n, -0.4);
        let chains: [&[EpiOp]; 6] = [
            &[EpiOp::Add],
            &[EpiOp::Add, EpiOp::Tanh],
            &[EpiOp::Sigmoid],
            &[EpiOp::Mul, EpiOp::Relu],
            &[EpiOp::Scale(1.5), EpiOp::Silu],
            &[EpiOp::RSub, EpiOp::Exp],
        ];
        let ops = chains[pick];
        let extras: Vec<&[f32]> = (0..ft_simd::operand_count(ops)).map(|_| extra.as_slice()).collect();
        for mode in modes() {
            let mut fused = vec![0.0f32; m * n];
            ft_simd::small_gemm_epi(mode, &a, &b, m, k, n, &mut fused, ops, &extras);
            let mut unfused = vec![0.0f32; m * n];
            ft_simd::small_gemm(mode, &a, &b, m, k, n, &mut unfused);
            ft_simd::apply_epi(mode, &mut unfused, ops, &extras);
            for i in 0..m * n {
                prop_assert!(fused[i].to_bits() == unfused[i].to_bits(),
                    "{:?} ops={:?} i={}", mode, ops, i);
            }
        }
    }

    #[test]
    // The rows-batched kernel == one small_gemm_epi per leaf, bitwise, in
    // every mode: contiguous, gapped, reversed and broadcast `a`; epilogue
    // operands contiguous or broadcast; every register-tile shape (1-5
    // column blocks with and without a ragged tail, 1-9 merged rows);
    // exact zeros in `a` against non-finite `b`.
    fn rows_kernel_equals_per_leaf_calls(
        raw in proptest::collection::vec(-1024i32..1024, 8..64),
        len in 1usize..6, m in 1usize..3, k in 1usize..7, n in 1usize..45,
        a_layout in 0usize..4, shared_extra in 0usize..2, pick in 0usize..5,
    ) {
        let fill = |count: usize, salt: usize| -> Vec<f32> {
            (0..count).map(|i| raw[(i * 7 + salt) % raw.len()] as f32 / 512.0).collect()
        };
        // Leaf spacing of `a`: packed, gapped, reversed, or one shared leaf.
        let (a_start, a_stride) = match a_layout {
            0 => (0usize, (m * k) as isize),
            1 => (3, (m * k + 5) as isize),
            2 => ((len - 1) * (m * k + 2), -((m * k + 2) as isize)),
            _ => (1, 0),
        };
        let mut a_buf = fill(len * (m * k + 5) + 3, 1);
        // Plant signed zeros so the skip meets the non-finite column below.
        a_buf[a_start] = 0.0;
        if m * k > 1 {
            a_buf[a_start + 1] = -0.0;
        }
        let mut b = fill(k * n, 2);
        b[0] = f32::INFINITY;
        if n > 1 {
            b[1] = f32::NEG_INFINITY;
        }
        let e_buf = fill(len * m * n, 3);
        let e_stride = if shared_extra == 1 { 0 } else { (m * n) as isize };
        let chains: [&[EpiOp]; 5] = [
            &[],
            &[EpiOp::Add],
            &[EpiOp::Add, EpiOp::Tanh],
            &[EpiOp::Mul, EpiOp::Sigmoid, EpiOp::RSub],
            &[EpiOp::Scale(1.5), EpiOp::Max],
        ];
        let ops = chains[pick];
        let a = Run::new(&a_buf, a_start, a_stride, m * k, len);
        let extras: Vec<Run> = (0..ft_simd::operand_count(ops))
            .map(|_| Run::new(&e_buf, 0, e_stride, m * n, len))
            .collect();
        for mode in modes() {
            let mut batched = vec![0.0f32; len * m * n];
            ft_simd::small_gemm_epi_rows(mode, a, &b, m, k, n, &mut batched, ops, &extras);
            for i in 0..len {
                let ex: Vec<&[f32]> = extras.iter().map(|e| e.leaf(i)).collect();
                let mut one = vec![0.0f32; m * n];
                ft_simd::small_gemm_epi(mode, a.leaf(i), &b, m, k, n, &mut one, ops, &ex);
                // The contract spelled out element by element: k ascending,
                // zeros of `a` skipped, one rounding per step where fused.
                let mut oracle = vec![0.0f32; m * n];
                for (r, row) in oracle.chunks_mut(n).enumerate() {
                    for (kk, &aik) in a.leaf(i)[r * k..(r + 1) * k].iter().enumerate() {
                        if aik == 0.0 {
                            continue;
                        }
                        for (d, &bv) in row.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
                            // Only AVX2 has a fused small product.
                            *d = if cfg!(target_arch = "x86_64") && mode.fused() {
                                aik.mul_add(bv, *d)
                            } else {
                                *d + aik * bv
                            };
                        }
                    }
                }
                ft_simd::apply_epi(mode, &mut oracle, ops, &ex);
                for (j, g) in batched[i * m * n..(i + 1) * m * n].iter().enumerate() {
                    prop_assert!(g.to_bits() == one[j].to_bits() && g.to_bits() == oracle[j].to_bits(),
                        "{:?} ops={:?} leaf {} elem {}: rows {} per-leaf {} oracle {}",
                        mode, ops, i, j, g, one[j], oracle[j]);
                }
            }
        }
    }

    #[test]
    // Softmax rows sum to 1 and scalar mode matches the sequential
    // reference literally.
    fn softmax_parity(raw in proptest::collection::vec(-4096i32..4096, 1..49),
                      n in 1usize..9) {
        let m = (raw.len() / n).max(1);
        let mut a = to_f32(&raw);
        a.resize(m * n, 0.1);
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &a[i * n..(i + 1) * n];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let o = &mut want[i * n..(i + 1) * n];
            for (d, &v) in o.iter_mut().zip(row) {
                *d = (v - mx).exp();
            }
            let denom: f32 = o.iter().sum();
            for d in o.iter_mut() {
                *d /= denom;
            }
        }
        let mut got = vec![0.0f32; m * n];
        ft_simd::softmax_rows(Mode::Scalar, &a, m, n, &mut got);
        for i in 0..m * n {
            prop_assert_eq!(got[i].to_bits(), want[i].to_bits());
        }
        for mode in modes() {
            let mut got = vec![0.0f32; m * n];
            ft_simd::softmax_rows(mode, &a, m, n, &mut got);
            for r in 0..m {
                let s: f32 = got[r * n..(r + 1) * n].iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-5, "{:?} row {} sums to {}", mode, r, s);
            }
        }
    }
}

/// `gemm_ukr` across modes: SSE bitwise == scalar, AVX2 within FMA
/// distance — on a k span crossing the packed kernel's KC boundary.
#[test]
fn gemm_ukr_cross_mode() {
    for kc in [1usize, 7, 256, 301] {
        let ap: Vec<f32> = (0..kc * ft_simd::MR)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let bp: Vec<f32> = (0..kc * ft_simd::NR)
            .map(|i| (i as f32 * 0.73).cos())
            .collect();
        let mut want = [[0.0f32; ft_simd::NR]; ft_simd::MR];
        ft_simd::gemm_ukr(Mode::Scalar, &ap, &bp, &mut want);
        for mode in modes() {
            let mut got = [[0.0f32; ft_simd::NR]; ft_simd::MR];
            ft_simd::gemm_ukr(mode, &ap, &bp, &mut got);
            for r in 0..ft_simd::MR {
                for c in 0..ft_simd::NR {
                    if mode.fused() {
                        let tol = 1e-5 * (1.0 + want[r][c].abs()) * kc as f32;
                        assert!((got[r][c] - want[r][c]).abs() <= tol, "{mode:?} kc={kc}");
                    } else {
                        assert_eq!(
                            got[r][c].to_bits(),
                            want[r][c].to_bits(),
                            "{mode:?} kc={kc}"
                        );
                    }
                }
            }
        }
    }
}

/// NaN / signed-zero / saturation edges hold in every mode.
#[test]
fn transcendental_edges_every_mode() {
    for mode in modes() {
        let mut v = [0.0f32, -0.0, 50.0, -50.0, f32::NAN];
        ft_simd::tanh_ip(mode, &mut v);
        assert_eq!(v[0].to_bits(), 0.0f32.to_bits(), "{mode:?}");
        assert_eq!(v[1].to_bits(), (-0.0f32).to_bits(), "{mode:?}");
        assert_eq!(v[2], 1.0, "{mode:?}");
        assert_eq!(v[3], -1.0, "{mode:?}");
        assert!(v[4].is_nan(), "{mode:?}");

        let mut v = [0.0f32, 100.0, -100.0, f32::NAN, 200.0];
        ft_simd::exp_ip(mode, &mut v);
        assert_eq!(v[0], 1.0, "{mode:?}");
        assert_eq!(v[1], f32::INFINITY, "{mode:?}");
        assert!(v[2] >= 0.0 && v[2] < 1.3e-38, "{mode:?}");
        assert!(v[3].is_nan(), "{mode:?}");
        assert_eq!(v[4], f32::INFINITY, "{mode:?}");

        let mut v = [100.0f32, -100.0];
        ft_simd::sigmoid_ip(mode, &mut v);
        assert_eq!(v[0], 1.0, "{mode:?}");
        assert_eq!(v[1], 0.0, "{mode:?}");
    }
}

/// The zero-skip sparsity contract: a zero in `a` contributes nothing,
/// even against non-finite `b`, in every mode.
#[test]
fn small_gemm_zero_skip_every_mode() {
    let a = [0.0f32, 1.0];
    let b = [f32::NAN, f32::INFINITY, 2.0, 3.0];
    for mode in modes() {
        let mut c = vec![0.0f32; 2];
        ft_simd::small_gemm(mode, &a, &b, 1, 2, 2, &mut c);
        assert_eq!(c, vec![2.0, 3.0], "{mode:?}");
    }
}
