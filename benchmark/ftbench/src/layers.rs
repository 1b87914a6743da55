//! The per-layer half of a traced run that does not depend on how the
//! workload drives the system: a walk of the workload's own programs
//! through every compiler and executor layer, one public call per span,
//! and the machine ceilings (kernel rates, pool round trip, telemetry
//! cost) those layers run against.

use std::sync::Arc;

use ft_backend::Executor;
use ft_core::{poly_split, program_signature, Program};
use ft_obs::Registry;
use ft_passes::PolyPlan;
use ft_pool::WorkerPool;
use ft_tensor::{slices, Tensor};
use ft_workloads::Strategy;

use crate::catalog::{self, Prog, SimFn};
use crate::harness::Values;
use crate::trace::Tracer;
use crate::util::{geomean, median, median_secs, timed};

/// Compiles of each program in a walk; enough for a median, few enough
/// that eight evaluation-sized programs stay under two seconds.
const WALK_REPS: u64 = 5;
/// Timed runs of each program per thread count in a walk.
const RUN_REPS: u64 = 7;

/// Walks `compiled` (programs, never run) through signature, parse,
/// compile, verify and the polymorphic-plan calls, and `runnable`
/// (programs with inputs) through the executor at one and two threads and
/// through the interpreter. Sums are per walk: a workload of several
/// programs reports what one pass over all of them costs in each layer.
fn walk(compiled: &[&Program], runnable: &[&Prog], tracer: &mut Tracer, v: &mut Values) {
    let fusion_applied = Registry::global().counter("passes.fusion_applied");
    let (mut blocks, mut groups, mut steps, mut fused) = (0usize, 0usize, 0i64, 0u64);
    let (mut arena_bytes, mut reused, mut points, mut maps) = (0usize, 0usize, 0usize, 0usize);
    for rep in 0..WALK_REPS {
        for &p in compiled {
            let split = tracer.span("core.signature", rep, |_| {
                std::hint::black_box(program_signature(p));
                poly_split(p)
            });
            let parsed = tracer
                .span("etdg.parse_program", rep, |_| ft_etdg::parse_program(p))
                .expect("benchmark programs parse");
            let fused_before = fusion_applied.get();
            let plan = tracer
                .span("passes.compile", rep, |_| ft_passes::compile(p))
                .expect("benchmark programs compile");
            let fused_now = fusion_applied.get() - fused_before;
            let report = tracer
                .span("verify.verify", rep, |_| ft_verify::verify(&plan))
                .expect("benchmark programs verify");
            if let Some(split) = split {
                let family = tracer
                    .span("passes.poly_build", rep, |_| PolyPlan::build(p))
                    .expect("polymorphic programs build a family")
                    .expect("poly_split found an outer axis");
                // `build` holds the instance at the program's own extent;
                // one more row is an extent the family has not seen.
                let extent = split.outer_extent + 1;
                tracer
                    .span("passes.poly_instance", rep, |_| family.instance(extent))
                    .expect("family instantiates at a new extent");
                tracer
                    .span("passes.poly_instance_hit", rep, |_| family.instance(extent))
                    .expect("family returns a memoised instance");
            }
            if rep == 0 {
                blocks += parsed.blocks.len();
                groups += plan.groups.len();
                steps += plan.groups.iter().map(|g| g.wavefront_steps()).sum::<i64>();
                fused += fused_now;
                arena_bytes += plan.memory.arena_len * std::mem::size_of::<f32>();
                reused += plan.memory.reused_ranges;
                points += report.points;
                maps += report.maps;
            }
        }
    }
    v.insert(
        "core.signature_us",
        tracer.per_op_median_us("core.signature"),
    );
    v.insert(
        "etdg.parse_us",
        tracer.per_op_median_us("etdg.parse_program"),
    );
    v.insert("etdg.blocks", blocks as f64);
    v.insert(
        "passes.compile_us",
        tracer.per_op_median_us("passes.compile"),
    );
    v.insert("passes.groups", groups as f64);
    v.insert("passes.fusion_applied", fused as f64);
    v.insert("passes.wavefront_steps", steps as f64);
    v.insert("passes.arena_bytes", arena_bytes as f64);
    v.insert("passes.arena_reused_ranges", reused as f64);
    v.insert(
        "passes.poly_build_us",
        tracer.per_op_median_us("passes.poly_build"),
    );
    v.insert(
        "passes.poly_instance_us",
        tracer.per_op_median_us("passes.poly_instance"),
    );
    v.insert(
        "passes.poly_instance_hit_us",
        tracer.per_op_median_us("passes.poly_instance_hit"),
    );
    v.insert("verify.verify_us", tracer.per_op_median_us("verify.verify"));
    v.insert("verify.points", points as f64);
    v.insert("verify.maps", maps as f64);

    let plans: Vec<_> = runnable
        .iter()
        .map(|p| ft_passes::compile(&p.program).expect("benchmark programs compile"))
        .collect();
    let run_steps: i64 = plans
        .iter()
        .flat_map(|c| c.groups.iter().map(|g| g.wavefront_steps()))
        .sum();
    let (mut grows, mut clones) = (0u64, 0u64);
    for (threads, name) in [(1usize, "backend.run_t1"), (2, "backend.run_t2")] {
        let exec = Executor::new().threads(threads);
        for (p, plan) in runnable.iter().zip(&plans) {
            exec.run(plan, &p.inputs).expect("benchmark programs run");
        }
        let warm = exec.arena_stats();
        for rep in 0..RUN_REPS {
            for (p, plan) in runnable.iter().zip(&plans) {
                tracer
                    .span(name, rep, |_| exec.run(plan, &p.inputs))
                    .expect("benchmark programs run");
            }
        }
        let stats = exec.arena_stats();
        grows += stats.grows - warm.grows;
        clones += stats.leaf_clones;
    }
    for p in runnable {
        tracer.span("core.interp", 0, |_| catalog::oracle(&p.program, &p.inputs));
    }
    let t1_ms = tracer.per_op_median_us("backend.run_t1") / 1e3;
    let t2_ms = tracer.per_op_median_us("backend.run_t2") / 1e3;
    let flops: f64 = runnable.iter().map(|p| p.flops).sum();
    v.insert(
        "core.interp_ms",
        tracer.per_op_median_us("core.interp") / 1e3,
    );
    v.insert("backend.run_ms_t1", t1_ms);
    v.insert("backend.run_ms_t2", t2_ms);
    v.insert("backend.scaling_t2", t1_ms / t2_ms);
    // Per step and per flop at the faster thread count, which is the one
    // the workloads run with: two on `exec_dense`, one everywhere else.
    let best_ms = t1_ms.min(t2_ms);
    v.insert("backend.us_per_step", best_ms * 1e3 / run_steps as f64);
    v.insert("backend.achieved_gflops", flops / (best_ms * 1e6));
    v.insert("backend.arena_grows", grows as f64);
    v.insert("backend.leaf_clones", clones as f64);
}

/// Everything a traced run measures once the workload's own section is
/// over, whatever the workload: the walk, the four dense programs (unless
/// the workload's sweep already ran them), the host's ceilings and the
/// simulator.
pub fn after_run(
    seed: u64,
    compiled: &[&Program],
    runnable: &[&Prog],
    sims: &[(&'static str, SimFn)],
    tracer: &mut Tracer,
    v: &mut Values,
) {
    walk(compiled, runnable, tracer, v);
    if tracer.durations_us(DENSE_SPANS[0]).is_empty() {
        dense_reference(seed, tracer);
    }
    for (span, metric) in DENSE_SPANS.iter().zip(DENSE_METRICS) {
        v.insert(metric, median(&tracer.durations_us(span)) / 1e3);
    }
    run_p99(tracer, v);
    ceilings(v);
    simulate(sims, v);
}

/// `backend.run_ms_p99` over the executor runs the trace holds: the timed
/// or replayed ones when the workload has them, else the walk's.
fn run_p99(tracer: &Tracer, v: &mut Values) {
    let mut runs: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "backend.run" || s.name.starts_with("backend.run."))
        .map(|s| s.dur_us() / 1e3)
        .collect();
    if runs.is_empty() {
        runs = tracer.durations_us("backend.run_t2");
        runs.iter_mut().for_each(|us| *us /= 1e3);
    }
    runs.sort_by(f64::total_cmp);
    v.insert("backend.run_ms_p99", crate::util::percentile(&runs, 0.99));
}

/// The span names of the four `exec_dense` programs, in sweep order.
pub const DENSE_SPANS: [&str; 4] = [
    "backend.run.b2b",
    "backend.run.attention",
    "backend.run.lstm",
    "backend.run.bigbird",
];
const DENSE_METRICS: [&str; 4] = [
    "backend.run_ms.b2b",
    "backend.run_ms.attention",
    "backend.run_ms.lstm",
    "backend.run_ms.bigbird",
];

/// Runs the four `exec_dense` programs a few times at two threads: the
/// kernel-bound reference every other workload's traced run carries, so a
/// change to kernels or outer-map splitting shows beside a workload it
/// should not move.
fn dense_reference(seed: u64, tracer: &mut Tracer) {
    let exec = Executor::new().threads(2);
    for (p, name) in catalog::exec_dense(seed).iter().zip(DENSE_SPANS) {
        let plan = ft_passes::compile(&p.program).expect("dense programs compile");
        exec.run(&plan, &p.inputs).expect("dense programs run");
        for rep in 0..5 {
            tracer
                .span(name, rep, |_| exec.run(&plan, &p.inputs))
                .expect("dense programs run");
        }
    }
}

/// Kernel rates, thread hand-off and telemetry cost on this host: the
/// ceilings the executor's and the runtime's numbers are read against.
/// Bytes are computed from slice lengths, flops from matrix shapes.
fn ceilings(v: &mut Values) {
    let n = 512usize;
    let a = Tensor::randn(&[n, n], 21);
    let b = Tensor::randn(&[n, n], 22);
    let (av, bv) = (a.to_vec(), b.to_vec());
    let mut c = vec![0.0f32; n * n];
    let gemm_flops = 2.0 * (n * n * n) as f64;
    let secs = median_secs(5, || slices::matmul(&av, &bv, n, n, n, &mut c));
    v.insert("simd.gemm512_gflops", gemm_flops / secs / 1e9);
    let secs = median_secs(5, || {
        std::hint::black_box(a.matmul(&b).expect("square matmul"));
    });
    v.insert("tensor.matmul512_ms", secs * 1e3);
    let pool2 = WorkerPool::new(2);
    let secs = median_secs(5, || {
        std::hint::black_box(a.matmul_mt(&b, &pool2).expect("square matmul"));
    });
    v.insert("tensor.matmul_mt512_ms", secs * 1e3);

    // The leaf products the executor issues: the running example's cell and
    // one per `exec_dense` program.
    let mode = ft_simd::mode();
    let leaf_rates: Vec<f64> = [
        (1, 32, 32),
        (512, 64, 64),
        (32, 64, 32),
        (16, 64, 256),
        (32, 32, 64),
    ]
    .iter()
    .map(|&(m, k, n)| {
        let a = Tensor::randn(&[m, k], 23).to_vec();
        let b = Tensor::randn(&[k, n], 24).to_vec();
        let mut c = vec![0.0f32; m * n];
        let calls = (4_000_000 / (m * k * n)).max(1);
        let secs = median_secs(5, || {
            for _ in 0..calls {
                c.fill(0.0);
                ft_simd::small_gemm(mode, &a, &b, m, k, n, &mut c);
                std::hint::black_box(&mut c);
            }
        });
        2.0 * (m * k * n * calls) as f64 / secs / 1e9
    })
    .collect();
    v.insert("simd.gemm_leaf_gflops", geomean(&leaf_rates));

    let len = 1usize << 20;
    let x = Tensor::randn(&[len], 25).to_vec();
    let y = Tensor::randn(&[len], 26).to_vec();
    let mut z = vec![0.0f32; len];
    let gbps = |bytes: usize, secs: f64| bytes as f64 / secs / 1e9;
    let secs = median_secs(7, || slices::add_into(&x, &y, &mut z));
    v.insert("simd.add_gbps", gbps(3 * 4 * len, secs));
    let secs = median_secs(7, || slices::exp_into(&x, &mut z));
    v.insert("simd.exp_gbps", gbps(2 * 4 * len, secs));
    let secs = median_secs(7, || slices::tanh_into(&x, &mut z));
    v.insert("simd.tanh_gbps", gbps(2 * 4 * len, secs));
    let secs = median_secs(7, || slices::softmax_rows(&x, len / 1024, 1024, &mut z));
    v.insert("simd.softmax_gbps", gbps(2 * 4 * len, secs));

    for (threads, name) in [(1usize, "pool.dispatch_us_t1"), (2, "pool.dispatch_us_t2")] {
        let pool = WorkerPool::new(threads);
        let job: ft_pool::Job = Arc::new(|_| {});
        for _ in 0..200 {
            pool.run(Arc::clone(&job));
        }
        let trips: Vec<f64> = (0..4000)
            .map(|_| timed(|| pool.run(Arc::clone(&job))).1 * 1e6)
            .collect();
        v.insert(name, median(&trips));
    }

    let reg = Registry::new();
    let counter = reg.counter("bench.counter");
    let hist = reg.histogram("bench.hist");
    let calls = 1_000_000u64;
    let secs = median_secs(3, || (0..calls).for_each(|_| counter.inc()));
    v.insert("obs.counter_inc_ns", secs * 1e9 / calls as f64);
    let secs = median_secs(3, || {
        (0..calls).for_each(|i| hist.record((i % 4096) as f64))
    });
    v.insert("obs.hist_record_ns", secs * 1e9 / calls as f64);
    std::hint::black_box((counter.get(), hist.count()));
}

/// The GPU simulator's prediction for `shapes`: the FractalTensor
/// schedule's time and bytes per memory level, summed over the shapes,
/// and its speed-up over the best other strategy (geometric mean). Exact
/// and deterministic; only `sim.wall_ms`, the time simulating took, is a
/// measurement.
fn simulate(shapes: &[(&'static str, SimFn)], v: &mut Values) {
    let ((ms, dram, l2, l1, kernels, speedups), wall) = timed(|| {
        let (mut ms, mut dram, mut l2, mut l1, mut kernels) = (0.0, 0u64, 0u64, 0u64, 0u64);
        let mut speedups = Vec::new();
        for (name, sim) in shapes {
            let ft = sim(Strategy::FractalTensor)
                .unwrap_or_else(|| panic!("the simulator models FractalTensor on {name}"));
            ms += ft.ms;
            dram += ft.traffic.dram_bytes;
            l2 += ft.traffic.l2_bytes;
            l1 += ft.traffic.l1_bytes;
            kernels += ft.kernels;
            let best_other = Strategy::ALL
                .iter()
                .filter(|&&s| s != Strategy::FractalTensor)
                .filter_map(|&s| sim(s))
                .map(|r| r.ms)
                .fold(f64::INFINITY, f64::min);
            speedups.push(best_other / ft.ms);
        }
        (ms, dram, l2, l1, kernels, speedups)
    });
    v.insert("sim.ft_ms", ms);
    v.insert("sim.dram_bytes", dram as f64);
    v.insert("sim.l2_bytes", l2 as f64);
    v.insert("sim.l1_bytes", l1 as f64);
    v.insert("sim.kernels", kernels as f64);
    v.insert("sim.speedup_vs_best", geomean(&speedups));
    v.insert("sim.wall_ms", wall * 1e3);
}
