//! The programs the workloads run, with seeded inputs, the tolerance their
//! outputs are checked at and their operation counts.
//!
//! Shapes are fixed here and never depend on the seed: the seed changes
//! the data (and, for the serving workloads, the request order and the
//! arrival times), so two seeds measure the same amount of work.

use std::collections::HashMap;
use std::sync::Arc;

use ft_core::builders::stacked_rnn_program;
use ft_core::interp::run_program;
use ft_core::{BufferId, FractalTensor, Program};
use ft_tensor::Tensor;
use ft_workloads::{attention, b2b, bigbird, dilated, grid, lstm, retnet, SimReport, Strategy};

use crate::util::{fractals_close, last_leaf, tensors_close};

pub type Buffers = HashMap<BufferId, FractalTensor>;

/// Tolerance of `tests/workload_parity.rs`: 1e-4, and 1e-3 for the
/// back-to-back GEMM whose two chained products accumulate more rounding.
pub const TOL: f32 = 1e-4;
pub const TOL_B2B: f32 = 1e-3;

/// A program with one set of inputs.
pub struct Prog {
    pub name: &'static str,
    pub program: Arc<Program>,
    pub inputs: Buffers,
    pub tol: f32,
    /// Floating-point operations of one run, from the shape's own formula.
    pub flops: f64,
}

/// `stacked_rnn_program(n, d, l, h)` input buffers.
pub const RNN_XSS: BufferId = BufferId(0);
pub const RNN_WS: BufferId = BufferId(1);

pub fn rnn_weights(d: usize, h: usize, seed: u64) -> FractalTensor {
    FractalTensor::from_flat(&Tensor::randn(&[d, h, h], seed).mul_scalar(0.2), 1)
        .expect("stacked RNN weights")
}

pub fn rnn_xss(n: usize, l: usize, h: usize, seed: u64) -> FractalTensor {
    FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], seed), 2).expect("stacked RNN input")
}

pub fn stacked_rnn(n: usize, d: usize, l: usize, h: usize, seed: u64) -> Prog {
    let mut inputs = HashMap::new();
    inputs.insert(RNN_XSS, rnn_xss(n, l, h, seed));
    inputs.insert(RNN_WS, rnn_weights(d, h, seed.wrapping_add(1)));
    Prog {
        name: "stacked_rnn",
        program: Arc::new(stacked_rnn_program(n, d, l, h)),
        inputs,
        tol: TOL,
        flops: (n * d * l * (2 * h * h + h)) as f64,
    }
}

/// The paper's §2 running example at the size `bench_exec` always used:
/// 71 wavefront steps of at most 32 cells of 1×32·32×32.
pub fn exec_rnn(seed: u64) -> Prog {
    stacked_rnn(4, 8, 64, 32, seed)
}

pub const DENSE_ATTENTION: attention::AttnShape = attention::AttnShape {
    batch: 2,
    heads: 4,
    q_blocks: 8,
    kv_blocks: 16,
    block: 32,
    dh: 64,
};
pub const DENSE_LSTM: lstm::LstmShape = lstm::LstmShape {
    batch: 16,
    hidden: 64,
    depth: 4,
    seq: 32,
};
pub const DENSE_BIGBIRD: bigbird::BigBirdShape = bigbird::BigBirdShape {
    heads: 4,
    blocks: 16,
    block: 32,
    dh: 64,
};

/// The four programs of one `exec_dense` sweep: few wavefront steps with
/// large leaves (1, 17, 35 and 1 steps).
pub fn exec_dense(seed: u64) -> Vec<Prog> {
    let b = b2b::B2bShape::paper();
    let (a, l, g) = (DENSE_ATTENTION, DENSE_LSTM, DENSE_BIGBIRD);
    vec![
        Prog {
            name: "b2b",
            program: Arc::new(b2b::program(b)),
            inputs: b2b::inputs(b, seed),
            tol: TOL_B2B,
            flops: (b.batch as u64 * b.chain_flops()) as f64,
        },
        Prog {
            name: "attention",
            program: Arc::new(attention::program(a)),
            inputs: attention::inputs(a, seed.wrapping_add(10)),
            tol: TOL,
            flops: a.flops() as f64,
        },
        Prog {
            name: "lstm",
            program: Arc::new(lstm::program(l)),
            inputs: lstm::inputs(l, seed.wrapping_add(20)),
            tol: TOL,
            flops: (l.cell_flops() * (l.depth * l.seq) as u64) as f64,
        },
        Prog {
            name: "bigbird",
            program: Arc::new(bigbird::program(g)),
            inputs: bigbird::inputs(g, seed.wrapping_add(30)),
            tol: TOL,
            flops: (g.cell_flops() * (g.heads * g.blocks) as u64) as f64,
        },
    ]
}

/// The eight programs `compile_cold` compiles and verifies from nothing:
/// the paper's six workloads and RetNet at their evaluation shapes, and the
/// running example. They are compiled, never run — most are GPU-sized.
pub fn compile_cold() -> Vec<Program> {
    vec![
        lstm::program(lstm::LstmShape::paper()),
        dilated::program(dilated::DilatedShape::paper()),
        grid::program(grid::GridShape::paper()),
        b2b::program(b2b::B2bShape::paper()),
        attention::program(attention::AttnShape::paper()),
        bigbird::program(bigbird::BigBirdShape::paper()),
        retnet::program(retnet::RetNetShape::default_shape()),
        stacked_rnn_program(4, 8, 64, 32),
    ]
}

/// The same eight program structures at sizes a CPU can run: what
/// `compile_cold` checks its compiler's output with, since the
/// evaluation-sized programs cannot be executed here.
pub fn compile_cold_runnable(seed: u64) -> Vec<Prog> {
    let small = |name, program: Program, inputs| Prog {
        name,
        program: Arc::new(program),
        inputs,
        tol: if name == "b2b" { TOL_B2B } else { TOL },
        flops: 0.0,
    };
    let (l, d, g) = (
        lstm::LstmShape::tiny(),
        dilated::DilatedShape::tiny(),
        grid::GridShape::tiny(),
    );
    let (b, a, bb, r) = (
        b2b::B2bShape::tiny(),
        attention::AttnShape::tiny(),
        bigbird::BigBirdShape::tiny(),
        retnet::RetNetShape::tiny(),
    );
    vec![
        small("lstm", lstm::program(l), lstm::inputs(l, seed)),
        small("dilated", dilated::program(d), dilated::inputs(d, seed + 1)),
        small("grid", grid::program(g), grid::inputs(g, seed + 2)),
        small("b2b", b2b::program(b), b2b::inputs(b, seed + 3)),
        small(
            "attention",
            attention::program(a),
            attention::inputs(a, seed + 4),
        ),
        small(
            "bigbird",
            bigbird::program(bb),
            bigbird::inputs(bb, seed + 5),
        ),
        small("retnet", retnet::program(r), retnet::inputs(r, seed + 6)),
        stacked_rnn(2, 3, 4, 8, seed + 7),
    ]
}

/// A shape's simulated run under one strategy (`None`: the strategy does
/// not apply to that workload).
pub type SimFn = Box<dyn Fn(Strategy) -> Option<SimReport>>;

/// The shapes whose GPU-simulator prediction stands beside the CPU time:
/// the four `exec_dense` shapes as measured.
pub fn sim_dense() -> Vec<(&'static str, SimFn)> {
    vec![
        (
            "b2b",
            Box::new(|s| b2b::simulate(b2b::B2bShape::paper(), s)),
        ),
        (
            "attention",
            Box::new(|s| attention::simulate(DENSE_ATTENTION, s)),
        ),
        ("lstm", Box::new(|s| Some(lstm::simulate(DENSE_LSTM, s)))),
        ("bigbird", Box::new(|s| bigbird::simulate(DENSE_BIGBIRD, s))),
    ]
}

/// The paper's evaluation shapes (its §6.2 claim). Every workload but
/// `exec_dense` reports these: the simulator models the `ft-workloads`
/// shapes only, not the running example or the decode steps.
pub fn sim_paper() -> Vec<(&'static str, SimFn)> {
    vec![
        (
            "lstm",
            Box::new(|s| Some(lstm::simulate(lstm::LstmShape::paper(), s))),
        ),
        (
            "dilated",
            Box::new(|s| dilated::simulate(dilated::DilatedShape::paper(), s)),
        ),
        (
            "grid",
            Box::new(|s| grid::simulate(grid::GridShape::paper(), s)),
        ),
        (
            "b2b",
            Box::new(|s| b2b::simulate(b2b::B2bShape::paper(), s)),
        ),
        (
            "attention",
            Box::new(|s| attention::simulate(attention::AttnShape::paper(), s)),
        ),
        (
            "bigbird",
            Box::new(|s| bigbird::simulate(bigbird::BigBirdShape::paper(), s)),
        ),
        (
            "retnet",
            Box::new(|s| retnet::simulate(retnet::RetNetShape::default_shape(), s)),
        ),
    ]
}

/// What the `ft-core` interpreter computes for `prog`: the reference every
/// compiled output is compared with.
pub fn oracle(program: &Program, inputs: &Buffers) -> Buffers {
    run_program(program, inputs).expect("the interpreter runs every benchmark program")
}

/// Whether every buffer the oracle produced is in `got` and close to it.
pub fn outputs_match(got: &Buffers, want: &Buffers, tol: f32) -> bool {
    want.iter()
        .all(|(id, w)| got.get(id).is_some_and(|g| fractals_close(g, w, tol)))
}

/// The last leaf of every oracle output: a per-operation check that costs
/// a few dozen comparisons (see [`last_leaf`]).
pub fn probe_of(want: &Buffers) -> Vec<(BufferId, Tensor)> {
    let mut probe: Vec<(BufferId, Tensor)> = want
        .iter()
        .filter_map(|(id, ft)| last_leaf(ft).map(|t| (*id, t.to_contiguous())))
        .collect();
    probe.sort_by_key(|(id, _)| id.0);
    probe
}

pub fn probe_matches(got: &Buffers, probe: &[(BufferId, Tensor)], tol: f32) -> bool {
    probe.iter().all(|(id, want)| {
        got.get(id)
            .and_then(last_leaf)
            .is_some_and(|leaf| tensors_close(leaf, want, tol))
    })
}
