//! The three workloads that call the compiler and the executor directly:
//! `exec_rnn`, `exec_dense` and `compile_cold`.

use ft_backend::Executor;
use ft_core::{poly_split, Program};
use ft_passes::CompiledProgram;
use ft_verify::{build_poly_verified, compile_verified};

use crate::catalog::{self, Buffers, Prog};
use crate::harness::{
    alternate, closed_loop, end_to_end, repeated_setup, slice_seconds, Args, Loop, Outcome, Timed,
    Values, SETUP_REPS,
};
use crate::layers;
use crate::serve;
use crate::trace::Tracer;
use crate::util::Rng;

/// `exec_dense`: caller plus one pool worker, the host has two cores.
const DENSE_THREADS: usize = 2;
/// `exec_rnn`: the caller alone. At two threads each of its 71 steps hands
/// work to the pool's worker and waits for it, and the run is then two
/// thirds the hypervisor's wake-up of a halted core: 37 µs a round trip for
/// hours, 2 µs for the next half hour, and the run 3.6 ms or 1.2 ms with it.
/// Both figures stay in the traced run (`backend.run_ms_t2`,
/// `backend.scaling_t2`, `pool.dispatch_us_t2`).
const RNN_THREADS: usize = 1;
/// Input sets an executor workload rotates through.
const INPUT_SETS: u64 = 4;

/// Runs a closed-loop workload's timed section: once for `--seconds` and
/// into the end-to-end metrics, or, traced, in alternating slices (see
/// [`alternate`]) whose traced operations are returned end to end.
fn measure(
    args: &Args,
    setup_s: f64,
    tracer: &mut Tracer,
    mut section: impl FnMut(f64, u64, &mut Tracer) -> Timed,
) -> (Timed, Values) {
    if !args.trace {
        let t = section(args.seconds, 0, tracer);
        let values = end_to_end(setup_s, &t, args.seconds, Loop::Closed);
        return (t, values);
    }
    let (traced, untraced, overhead) = alternate(
        args.seconds,
        tracer,
        |secs, _, first_op, tracer| section(secs, first_op, tracer),
        |t| t,
    );
    let mut all = untraced;
    for (i, t) in traced.into_iter().enumerate() {
        all.absorb(t, i as f64 * slice_seconds(args.seconds));
    }
    let values = Values::from([
        ("bench.samples", all.samples.len() as f64),
        ("bench.trace_overhead_share", overhead),
        // A closed loop has no schedule to fall behind.
        ("bench.generator_late_share", 0.0),
    ]);
    (all, values)
}

/// Everything a traced run adds after its timed section, for a workload
/// that calls the compiler and executor itself.
fn layer_metrics(
    args: &Args,
    compiled: &[&Program],
    runnable: &[&Prog],
    sims: &[(&'static str, catalog::SimFn)],
    tracer: &mut Tracer,
    v: &mut Values,
) {
    layers::after_run(args.seed, compiled, runnable, sims, tracer, v);
    serve::probe(runnable, tracer, v);
}

/// Compiles and verifies `progs`, builds the executor and warms it up.
fn executor_setup(
    progs: &[&Prog],
    threads: usize,
    warmup: usize,
) -> (Vec<CompiledProgram>, Executor) {
    let plans: Vec<CompiledProgram> = progs
        .iter()
        .map(|p| {
            compile_verified(&p.program)
                .expect("benchmark programs compile and verify")
                .0
        })
        .collect();
    let exec = Executor::new().threads(threads);
    for _ in 0..warmup {
        for (p, plan) in progs.iter().zip(&plans) {
            exec.run(plan, &p.inputs).expect("benchmark programs run");
        }
    }
    (plans, exec)
}

/// Full comparison of one run of every program against the interpreter,
/// outside every timed section. A mismatch fails every operation.
fn oracle_mismatch<'a>(
    mut pairs: impl Iterator<Item = (&'a Prog, &'a CompiledProgram)>,
    exec: &Executor,
) -> bool {
    pairs.any(|(p, plan)| {
        let want = catalog::oracle(&p.program, &p.inputs);
        let got = exec.run(plan, &p.inputs).expect("benchmark programs run");
        let bad = !catalog::outputs_match(&got, &want, p.tol);
        if bad {
            eprintln!("oracle mismatch: {}", p.name);
        }
        bad
    })
}

fn finish(mut t: Timed, mismatch: bool, values: Values) -> Outcome {
    if mismatch {
        t.failed = t.attempted;
    }
    Outcome {
        attempted: t.attempted,
        failed: t.failed,
        values,
    }
}

/// One `Executor::run` of the precompiled running example per operation.
/// Per-step-overhead-bound: 71 wavefront steps of at most 32 tiny cells.
pub fn exec_rnn(args: &Args, tracer: &mut Tracer) -> Outcome {
    let rng = Rng::new(args.seed);
    let sets: Vec<Prog> = (0..INPUT_SETS)
        .map(|i| catalog::exec_rnn(rng.fork(i).next_u64()))
        .collect();
    let probes: Vec<_> = sets
        .iter()
        .map(|p| catalog::probe_of(&catalog::oracle(&p.program, &p.inputs)))
        .collect();
    let first = [&sets[0]];
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let ((plans, exec), setup_s) = repeated_setup(reps, || executor_setup(&first, RNN_THREADS, 20));
    let plan = &plans[0];

    let section = |seconds: f64, first_op: u64, tracer: &mut Tracer| {
        closed_loop(
            seconds,
            first_op,
            tracer,
            |tracer, i| {
                let inputs = &sets[(i % INPUT_SETS) as usize].inputs;
                tracer.span("backend.run", i, |_| exec.run(plan, inputs))
            },
            |i, got| {
                let set = (i % INPUT_SETS) as usize;
                got.is_ok_and(|g| catalog::probe_matches(&g, &probes[set], sets[set].tol))
            },
        )
    };
    let (timed, mut values) = measure(args, setup_s, tracer, section);
    let mismatch = oracle_mismatch(sets.iter().map(|p| (p, plan)), &exec);
    if args.trace {
        let compiled = [&*sets[0].program];
        layer_metrics(
            args,
            &compiled,
            &first,
            &catalog::sim_paper(),
            tracer,
            &mut values,
        );
    }
    finish(timed, mismatch, values)
}

/// One run each of back-to-back GEMM, attention, LSTM and BigBird per
/// operation (a sweep). Kernel- and split-bound: few steps, large leaves.
pub fn exec_dense(args: &Args, tracer: &mut Tracer) -> Outcome {
    let progs = catalog::exec_dense(args.seed);
    let refs: Vec<&Prog> = progs.iter().collect();
    let probes: Vec<_> = progs
        .iter()
        .map(|p| catalog::probe_of(&catalog::oracle(&p.program, &p.inputs)))
        .collect();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let ((plans, exec), setup_s) = repeated_setup(reps, || executor_setup(&refs, DENSE_THREADS, 2));

    let section = |seconds: f64, first_op: u64, tracer: &mut Tracer| {
        closed_loop(
            seconds,
            first_op,
            tracer,
            |tracer, i| {
                tracer.span("op", i, |tracer| {
                    let mut outs: Vec<Option<Buffers>> = Vec::with_capacity(progs.len());
                    for ((p, plan), name) in progs.iter().zip(&plans).zip(layers::DENSE_SPANS) {
                        outs.push(tracer.span(name, i, |_| exec.run(plan, &p.inputs)).ok());
                    }
                    outs
                })
            },
            |_, outs| {
                outs.iter()
                    .zip(&probes)
                    .zip(&progs)
                    .all(|((got, probe), p)| {
                        got.as_ref()
                            .is_some_and(|g| catalog::probe_matches(g, probe, p.tol))
                    })
            },
        )
    };
    let (timed, mut values) = measure(args, setup_s, tracer, section);
    let mismatch = oracle_mismatch(refs.iter().copied().zip(&plans), &exec);
    if args.trace {
        let compiled: Vec<&Program> = progs.iter().map(|p| &*p.program).collect();
        layer_metrics(
            args,
            &compiled,
            &refs,
            &catalog::sim_dense(),
            tracer,
            &mut values,
        );
    }
    finish(timed, mismatch, values)
}

/// What one cold compile must reproduce on every later sweep.
#[derive(PartialEq)]
struct PlanShape {
    groups: usize,
    steps: i64,
    arena_len: usize,
    points: usize,
    maps: usize,
}

fn cold_compile(p: &Program, poly: bool, op: u64, tracer: &mut Tracer) -> Option<PlanShape> {
    let (plan, report) = tracer
        .span("verify.compile_verified", op, |_| compile_verified(p))
        .ok()?;
    if poly {
        let family = tracer
            .span("verify.build_poly_verified", op, |_| build_poly_verified(p))
            .ok()?;
        std::hint::black_box(&family);
    }
    Some(PlanShape {
        groups: plan.groups.len(),
        steps: plan.groups.iter().map(|g| g.wavefront_steps()).sum(),
        arena_len: plan.memory.arena_len,
        points: report.points,
        maps: report.maps,
    })
}

/// One cold compile-and-verify of eight programs per operation (a sweep),
/// with the polymorphic family where the program has one: what a serving
/// user pays once per structure. The compiler layers do all the work.
pub fn compile_cold(args: &Args, tracer: &mut Tracer) -> Outcome {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let ((programs, expected), setup_s) = repeated_setup(reps, || {
        let programs: Vec<(Program, bool)> = catalog::compile_cold()
            .into_iter()
            .map(|p| {
                let poly = poly_split(&p).is_some();
                (p, poly)
            })
            .collect();
        let mut off = Tracer::new(false);
        let expected: Vec<PlanShape> = programs
            .iter()
            .map(|(p, poly)| cold_compile(p, *poly, 0, &mut off).expect("warm-up sweep compiles"))
            .collect();
        (programs, expected)
    });

    let section = |seconds: f64, first_op: u64, tracer: &mut Tracer| {
        closed_loop(
            seconds,
            first_op,
            tracer,
            |tracer, i| {
                tracer.span("op", i, |tracer| {
                    programs
                        .iter()
                        .map(|(p, poly)| cold_compile(p, *poly, i, tracer))
                        .collect::<Vec<_>>()
                })
            },
            // The verifier's verdict must be "legal" and the plan the same
            // every time: the compiler is deterministic.
            |_, shapes| {
                shapes
                    .iter()
                    .zip(&expected)
                    .all(|(s, e)| s.as_ref() == Some(e))
            },
        )
    };
    let (timed, mut values) = measure(args, setup_s, tracer, section);
    // The evaluation-sized plans cannot run on this host, so the compiler's
    // output is checked on the same eight structures at runnable sizes.
    let small = catalog::compile_cold_runnable(args.seed);
    let refs: Vec<&Prog> = small.iter().collect();
    let (plans, exec) = executor_setup(&refs, DENSE_THREADS, 0);
    let mismatch = oracle_mismatch(refs.iter().copied().zip(&plans), &exec);
    if args.trace {
        let compiled: Vec<&Program> = programs.iter().map(|(p, _)| p).collect();
        layer_metrics(
            args,
            &compiled,
            &refs,
            &catalog::sim_paper(),
            tracer,
            &mut values,
        );
    }
    finish(timed, mismatch, values)
}
