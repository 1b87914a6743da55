//! Thread-count determinism and pool-vs-interpreter parity for the
//! persistent worker-pool executor.
//!
//! The executor's wavefront points are single-assignment, so the order the
//! pool's workers claim chunks — and the order their write batches are
//! applied — must not leak into the numbers. Every workload here is run at
//! several thread counts (including 7, which never divides the step sizes
//! evenly, and 8, which oversubscribes this host) and the outputs compared
//! *bit for bit* against the single-threaded run. The proptest then wires
//! random RNN-family programs through both the pool executor and the naive
//! `ft_core` interpreter.
//!
//! The executor walks each step as runs of consecutive points along the
//! batch dimension and hands a run's leaf GEMMs to one rows-batched kernel
//! call, so `run_shapes_match_interpreter_bitwise` sweeps the shapes that
//! path distinguishes — run length, column blocks and ragged tails of the
//! register tile, chunk splits, the zero-skip — against the interpreter,
//! bit for bit.

use std::collections::HashMap;

use ft_backend::{execute, execute_reference, Executor};
use ft_core::adt::FractalTensor;
use ft_core::builders::stacked_rnn_program;
use ft_core::expr::UdfBuilder;
use ft_core::interp::run_program;
use ft_core::program::{CarriedInit, Nest, OpKind, Program, Read, Write};
use ft_core::{AccessSpec, AxisExpr, BufferId};
use ft_integration_tests::assert_fractal_close;
use ft_passes::{compile, CompiledProgram};
use ft_tensor::Tensor;
use ft_workloads::{attention, bigbird, lstm};
use proptest::prelude::*;

/// Asserts two output maps are bitwise identical (not just close).
fn assert_bitwise_equal(
    a: &HashMap<BufferId, FractalTensor>,
    b: &HashMap<BufferId, FractalTensor>,
    ctx: &str,
) {
    assert_eq!(a.len(), b.len(), "{ctx}: output buffer sets differ");
    for (id, fa) in a {
        let fb = &b[id];
        let va = fa.to_flat().expect("flatten lhs").to_vec();
        let vb = fb.to_flat().expect("flatten rhs").to_vec();
        assert_eq!(
            va.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{ctx}: buffer {id:?} diverged"
        );
    }
}

fn check_thread_determinism(
    compiled: &CompiledProgram,
    inputs: &HashMap<BufferId, FractalTensor>,
    name: &str,
) {
    let baseline = execute(compiled, inputs, 1).unwrap();
    for threads in [2usize, 7, 8] {
        let got = execute(compiled, inputs, threads).unwrap();
        assert_bitwise_equal(&baseline, &got, &format!("{name} threads={threads}"));
    }
    // The reference executor shares the same single-assignment argument.
    let reference = execute_reference(compiled, inputs, 7).unwrap();
    assert_bitwise_equal(&baseline, &reference, &format!("{name} reference"));
}

#[test]
fn stacked_rnn_deterministic_across_thread_counts() {
    let p = stacked_rnn_program(3, 4, 9, 8);
    let xss = FractalTensor::from_flat(&Tensor::randn(&[3, 9, 1, 8], 5), 2).unwrap();
    let ws = FractalTensor::from_flat(&Tensor::randn(&[4, 8, 8], 6).mul_scalar(0.2), 1).unwrap();
    let mut inputs = HashMap::new();
    inputs.insert(BufferId(0), xss);
    inputs.insert(BufferId(1), ws);
    check_thread_determinism(&compile(&p).unwrap(), &inputs, "stacked_rnn");
}

#[test]
fn attention_deterministic_across_thread_counts() {
    let s = attention::AttnShape::tiny();
    let p = attention::program(s);
    let inputs = attention::inputs(s, 17);
    check_thread_determinism(&compile(&p).unwrap(), &inputs, "attention");
}

#[test]
fn bigbird_deterministic_across_thread_counts() {
    let s = bigbird::BigBirdShape::tiny();
    let p = bigbird::program(s);
    let inputs = bigbird::inputs(s, 19);
    check_thread_determinism(&compile(&p).unwrap(), &inputs, "bigbird");
}

/// Rebuilds `ft` with its flat elements edited in place by `f`, which also
/// gets the flat dims (programmable dims, then leaf dims).
fn edited(ft: &FractalTensor, f: impl Fn(&mut [f32], &[usize])) -> FractalTensor {
    let flat = ft.to_flat().unwrap();
    let mut v = flat.to_vec();
    f(&mut v, flat.dims());
    FractalTensor::from_flat(&Tensor::from_vec(v, flat.dims()).unwrap(), ft.depth()).unwrap()
}

/// Plants the zero-skip case in inputs whose buffer 0 is `x` (`[n, l]` of
/// `[1, h]`) and buffer 1 the per-layer weights (`[d]` of `[h, cols]`):
/// every `x` row gets an exact `0.0` and a `-0.0`, and layer 0's weight
/// rows they multiply are `+inf` / `-inf`. A product that skips zero `a`
/// elements stays finite; one that does not turns every output NaN.
fn plant_zero_skip(ins: &mut HashMap<BufferId, FractalTensor>, h: usize) {
    let x = edited(&ins[&BufferId(0)], |v, _| {
        for row in v.chunks_mut(h) {
            row[1] = 0.0;
            row[h - 2] = -0.0;
        }
    });
    let w = edited(&ins[&BufferId(1)], |v, dims| {
        let cols = dims[2];
        v[cols..2 * cols].fill(f32::INFINITY);
        v[(h - 2) * cols..(h - 1) * cols].fill(f32::NEG_INFINITY);
    });
    ins.insert(BufferId(0), x);
    ins.insert(BufferId(1), w);
}

/// Every output of the executor equals the interpreter's bit for bit, at
/// 1, 2 and 8 threads, with and without guard mode.
fn check_against_interpreter(p: &Program, ins: &HashMap<BufferId, FractalTensor>, ctx: &str) {
    let expected = run_program(p, ins).unwrap();
    let compiled = compile(p).unwrap();
    for threads in [1usize, 2, 8] {
        for guard in [false, true] {
            let got = Executor::new()
                .threads(threads)
                .guard(guard)
                .run(&compiled, ins)
                .unwrap_or_else(|e| panic!("{ctx} threads={threads} guard={guard}: {e}"));
            let want: HashMap<_, _> = got.keys().map(|id| (*id, expected[id].clone())).collect();
            assert_bitwise_equal(
                &want,
                &got,
                &format!("{ctx} threads={threads} guard={guard}"),
            );
        }
    }
}

#[test]
fn run_shapes_match_interpreter_bitwise() {
    let (d, l) = (2usize, 3usize);
    // The batch is the run: length 1, odd, one tile, tile + 1, many tiles.
    for n in [1usize, 3, 4, 5, 16] {
        // RNN leaf GEMMs are h wide (1 block + tail, 2, 4, 4 + 1 blocks),
        // LSTM ones 4h wide (up to 20 blocks).
        for h in [12usize, 16, 32, 40] {
            let mut ins = rnn_inputs(n, d, l, h, (n * 100 + h) as u64);
            plant_zero_skip(&mut ins, h);
            let p = stacked_rnn_program(n, d, l, h);
            check_against_interpreter(&p, &ins, &format!("rnn n={n} h={h}"));

            let s = lstm::LstmShape {
                batch: n,
                hidden: h,
                depth: d,
                seq: l,
            };
            let mut ins = lstm::inputs(s, (n * 100 + h + 1) as u64);
            plant_zero_skip(&mut ins, h);
            check_against_interpreter(&lstm::program(s), &ins, &format!("lstm n={n} h={h}"));
        }
    }
}

#[test]
fn runs_are_cut_where_extern_storage_is_not_one_buffer() {
    // A fused serving batch concatenates requests, so the batch rows of
    // `xss` live in different buffers (and here one row is a strided
    // view): a run along the batch cannot address them by one stride.
    let (n, d, l, h) = (5usize, 2usize, 4usize, 16usize);
    let rows: Vec<FractalTensor> = (0..n)
        .map(|i| {
            let t = Tensor::randn(&[l, 1, 2 * h], 40 + i as u64);
            let row = if i == 2 {
                t.slice(2, h, 2 * h).unwrap()
            } else {
                t.slice(2, 0, h).unwrap().to_contiguous()
            };
            FractalTensor::from_flat(&row, 1).unwrap()
        })
        .collect();
    let mut ins = rnn_inputs(n, d, l, h, 77);
    ins.insert(BufferId(0), FractalTensor::nested(rows).unwrap());
    let p = stacked_rnn_program(n, d, l, h);
    check_against_interpreter(&p, &ins, "rnn over per-request storage");
}

/// Randomized RNN-family program: random extents, carried-read stride, and
/// boundary initializer (same family as `randomized_parity.rs`).
fn random_rnn_program(
    n: usize,
    d: usize,
    l: usize,
    h: usize,
    time_stride: usize,
    zero_init_x: bool,
) -> Program {
    let mut p = Program::new("random_rnn_pool");
    let xss = p.input("xss", &[n, l], &[1, h]);
    let ws = p.input("ws", &[d], &[h, h]);
    let ysss = p.output("ysss", &[n, d, l], &[1, h]);

    let mut b = UdfBuilder::new("cell", 3);
    let (x, w, s) = (b.input(0), b.input(1), b.input(2));
    let xw = b.matmul(x, w);
    let sum = b.add(xw, s);
    let y = b.tanh(sum);
    let udf = b.build(&[y]);

    let x_init = if zero_init_x {
        CarriedInit::Zero
    } else {
        CarriedInit::Buffer(
            xss,
            AccessSpec::new(vec![AxisExpr::var(0), AxisExpr::var(2)]),
        )
    };
    p.add_nest(Nest {
        name: "random_rnn_pool".into(),
        ops: vec![OpKind::Map, OpKind::ScanL, OpKind::ScanL],
        extents: vec![n, d, l],
        reads: vec![
            Read::carried(
                ysss,
                AccessSpec::new(vec![
                    AxisExpr::var(0),
                    AxisExpr::shifted(1, -1),
                    AxisExpr::var(2),
                ]),
                x_init,
            ),
            Read::plain(ws, AccessSpec::new(vec![AxisExpr::var(1)])),
            Read::carried(
                ysss,
                AccessSpec::new(vec![
                    AxisExpr::var(0),
                    AxisExpr::var(1),
                    AxisExpr::shifted(2, -(time_stride as i64)),
                ]),
                CarriedInit::Zero,
            ),
        ],
        writes: vec![Write {
            buffer: ysss,
            access: AccessSpec::identity(3),
        }],
        udf,
    })
    .expect("random nest is well-formed");
    p
}

fn rnn_inputs(
    n: usize,
    d: usize,
    l: usize,
    h: usize,
    seed: u64,
) -> HashMap<BufferId, FractalTensor> {
    let mut m = HashMap::new();
    m.insert(
        BufferId(0),
        FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], seed), 2).unwrap(),
    );
    m.insert(
        BufferId(1),
        FractalTensor::from_flat(&Tensor::randn(&[d, h, h], seed + 1).mul_scalar(0.3), 1).unwrap(),
    );
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pool executor agrees with the interpreter at every thread
    /// count, and the thread counts agree with each other bit for bit.
    #[test]
    fn prop_pool_matches_interpreter_across_threads(
        n in 1usize..4,
        d in 1usize..5,
        l in 1usize..7,
        stride in 1usize..4,
        zero_init in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        prop_assume!(stride <= l);
        let h = 4usize;
        let p = random_rnn_program(n, d, l, h, stride, zero_init);
        let ins = rnn_inputs(n, d, l, h, seed);
        let expected = run_program(&p, &ins).unwrap();
        let compiled = compile(&p).unwrap();
        let single = execute(&compiled, &ins, 1).unwrap();
        assert_fractal_close(&single[&BufferId(2)], &expected[&BufferId(2)], 1e-4);
        for threads in [2usize, 7] {
            let got = execute(&compiled, &ins, threads).unwrap();
            assert_bitwise_equal(&single, &got, &format!("random threads={threads}"));
        }
    }
}
