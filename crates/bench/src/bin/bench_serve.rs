//! Serving-runtime benchmark: plan-cache setup amortization and dynamic
//! batching throughput under concurrent load.
//!
//! ```text
//! cargo run --release -p ft-bench --bin bench_serve            # full run
//! cargo run --release -p ft-bench --bin bench_serve -- --smoke # tiny load
//! cargo run --release -p ft-bench --bin bench_serve -- --json  # print JSON
//! cargo run --release -p ft-bench --bin bench_serve -- --out results/BENCH_serve.json
//! cargo run --release -p ft-bench --bin bench_serve -- --metrics-out target/obs
//! ```
//!
//! `--metrics-out DIR` flushes the merged observability registries
//! (runtime-local `serve.*` plus global `exec.*`/`pool.*`/`passes.*`)
//! after every load configuration: one JSON row is appended per config to
//! `DIR/metrics.jsonl` and `DIR/metrics.prom` is rewritten in Prometheus
//! text format (the final rewrite reflects the last configuration).
//!
//! The workload is a *narrow* stacked RNN (one sequence per request,
//! depth 2, seq 256): its wavefront never exceeds the depth, so at 8
//! worker threads an unbatched launch leaves most of the pool idle and
//! pays the fixed per-wavefront-step synchronization cost for almost no
//! parallel work. Batching K same-plan requests widens the outer `map` to
//! K sequences, filling the pool and amortizing the step cost K-fold — the
//! serving-side version of the paper's nested-parallelism argument.
//! Closed-loop client threads submit through one shared
//! [`ft_serve::Runtime`]; we sweep worker threads × {batched, unbatched}
//! and report throughput, latency percentiles, and realized batch sizes,
//! plus the cold-compile vs cached-plan setup cost.
//!
//! The `mixed_length` scenario serves multi-tenant mixed-length traffic:
//! six closed-loop tenants, each with a stable characteristic request
//! width (outer extents 3..=8, one per tenant — a single factor-of-4
//! length bucket), pre-generated inputs, and a deliberately step-bound
//! shape (depth 1, seq 1024, hidden 2).
//! Concurrent traffic therefore always mixes lengths *across* sources: the
//! runtime serves them from a single verified family (dispatch-time
//! stride/size evaluation) and fuses ragged batches across tenants by
//! length bucket. It runs three times and the median-throughput run is
//! reported.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_core::builders::{rnn_decode_step_program, stacked_rnn_program};
use ft_core::{BufferId, FractalTensor, Program};
use ft_etdg::RegionRead;
use ft_serve::{
    FaultPlan, Request, Runtime, ServeConfig, ServeError, SessionSpec, StateBinding, StateOp,
};
use ft_tensor::Tensor;
use ft_workloads::decode;
use serde_json::{json, Value};

const THREADS: &[usize] = &[1, 2, 4, 8];
const SHAPE: (usize, usize, usize, usize) = (1, 2, 256, 16); // n, d, l, h
/// (d, l, h) for the mixed-length scenario's request family.
const MIXED_DLH: (usize, usize, usize) = (1, 1024, 2);

struct LoadRow {
    threads: usize,
    batched: bool,
    clients: usize,
    requests: u64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    /// Arena acquisitions during the timed (post-warmup) section.
    arena_acquires: u64,
    /// Arena growths during the timed section — zero means the runtime
    /// served the whole load allocation-free.
    arena_grows_after_warmup: u64,
    /// Leaf clones over the runtime's lifetime (must stay zero).
    leaf_clones: u64,
    /// Robustness counters (zero on the clean load sweeps; the chaos and
    /// overload scenarios are where they move).
    shed: u64,
    retried: u64,
    quarantined: u64,
}

fn request_inputs(seed: u64, shared_ws: &FractalTensor) -> HashMap<BufferId, FractalTensor> {
    let (n, _d, l, h) = SHAPE;
    let mut m = HashMap::new();
    m.insert(
        BufferId(0),
        FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], seed), 2).unwrap(),
    );
    // Shared weights: identical across requests, as in real serving — and a
    // precondition for fusing the batch.
    m.insert(BufferId(1), shared_ws.clone());
    m
}

fn shared_weights() -> FractalTensor {
    let (_n, d, _l, h) = SHAPE;
    FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 8).mul_scalar(0.2), 1).unwrap()
}

/// Closed-loop load: `clients` threads each submit `per_client` requests
/// back to back through one shared runtime.
fn run_load(
    threads: usize,
    batched: bool,
    clients: usize,
    per_client: usize,
    program: &Arc<Program>,
    ws: &FractalTensor,
    metrics: Option<&ft_obs::ExporterConfig>,
) -> LoadRow {
    let rt = Arc::new(
        Runtime::try_new(ServeConfig {
            threads,
            batching: batched,
            max_batch: 8,
            ..ServeConfig::default()
        })
        .expect("serve runtime construction"),
    );
    // Warm the plan cache (including fused variants) so the timed section
    // measures serving, not compilation.
    std::thread::scope(|s| {
        for c in 0..clients {
            let rt = Arc::clone(&rt);
            let program = Arc::clone(program);
            let inputs = request_inputs(1000 + c as u64, ws);
            s.spawn(move || {
                rt.submit_wait(Request::new(program, inputs))
                    .unwrap()
                    .wait()
                    .unwrap();
            });
        }
    });
    let warm = rt.stats();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let rt = Arc::clone(&rt);
            let program = Arc::clone(program);
            let ws = ws.clone();
            s.spawn(move || {
                for r in 0..per_client {
                    let inputs = request_inputs((c * per_client + r) as u64, &ws);
                    rt.submit_wait(Request::new(Arc::clone(&program), inputs))
                        .unwrap()
                        .wait()
                        .unwrap();
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = rt.stats();
    if let Some(cfg) = metrics {
        let rt_reg = rt.metrics();
        if let Err(e) = ft_obs::flush(&[rt_reg.as_ref(), ft_obs::Registry::global()], cfg) {
            eprintln!("metrics flush failed: {e}");
        }
    }

    let requests = (clients * per_client) as u64;
    let timed_batches = stats.batches - warm.batches;
    let timed_batched_requests = stats.batched_requests - warm.batched_requests;
    let mean_batch = if timed_batches > 0 {
        timed_batched_requests as f64 / timed_batches as f64
    } else {
        0.0
    };
    let row = LoadRow {
        threads,
        batched,
        clients,
        requests,
        throughput_rps: requests as f64 / elapsed,
        // Percentiles include the warm-up requests; with per_client >> 1
        // the steady state dominates.
        p50_ms: stats.latency_p50_us / 1e3,
        p99_ms: stats.latency_p99_us / 1e3,
        mean_batch,
        arena_acquires: stats.arena_acquires - warm.arena_acquires,
        arena_grows_after_warmup: stats.arena_grows - warm.arena_grows,
        leaf_clones: stats.leaf_clones,
        shed: stats.shed,
        retried: stats.retries,
        quarantined: stats.quarantine_rejected,
    };
    eprintln!(
        "threads={} {:9} clients={} {:6.0} req/s   p50 {:7.3} ms   p99 {:7.3} ms   mean batch {:.2}   arena grows {}",
        row.threads,
        if batched { "batched" } else { "unbatched" },
        row.clients,
        row.throughput_rps,
        row.p50_ms,
        row.p99_ms,
        row.mean_batch,
        row.arena_grows_after_warmup
    );
    row
}

/// Per-request setup cost: cold compile+verify vs cached-plan lookup, both
/// measured by the runtime itself.
fn measure_setup(program: &Arc<Program>, ws: &FractalTensor, resubmissions: usize) -> (f64, f64) {
    let rt = Runtime::try_new(ServeConfig {
        threads: 2,
        batching: false,
        ..ServeConfig::default()
    })
    .expect("serve runtime construction");
    for i in 0..=resubmissions {
        rt.submit_wait(Request::new(
            Arc::clone(program),
            request_inputs(i as u64, ws),
        ))
        .unwrap()
        .wait()
        .unwrap();
    }
    let stats = rt.stats();
    (stats.cold_setup_mean_us, stats.cached_setup_mean_us)
}

/// The first (member, read) coordinate of group 0 that reads a buffer —
/// the target for corrupt-read fault injection (fills can't be
/// corrupted).
fn first_buffer_read(c: &ft_passes::CompiledProgram) -> (usize, usize) {
    for (mi, &m) in c.groups[0].members.iter().enumerate() {
        for (ri, read) in c.etdg.block(m).reads.iter().enumerate() {
            if matches!(read, RegionRead::Buffer { .. }) {
                return (mi, ri);
            }
        }
    }
    (0, 0)
}

/// Inputs with a NaN in the activations: with the guard on, execution
/// fails typed — the NaN-poison fault class.
fn poisoned_inputs(seed: u64, ws: &FractalTensor) -> HashMap<BufferId, FractalTensor> {
    let (n, _d, l, h) = SHAPE;
    let mut v = Tensor::randn(&[n, l, 1, h], seed).to_vec();
    v[0] = f32::NAN;
    let nan = Tensor::from_vec(v, &[n, l, 1, h]).unwrap();
    let mut m = HashMap::new();
    m.insert(BufferId(0), FractalTensor::from_flat(&nan, 2).unwrap());
    m.insert(BufferId(1), ws.clone());
    m
}

/// Chaos under load: ~1% injected faults (worker panics, NaN poison,
/// corrupt reads, one stall, one scheduler kill) plus a dedicated
/// poison plan that trips quarantine. Every admitted ticket must resolve
/// to a typed outcome — the scenario *counts* resolutions rather than
/// trusting them — and the pool must end at full worker strength.
fn run_chaos(smoke: bool) -> Value {
    let threads = 4usize;
    let clients = 4usize;
    let per_client = if smoke { 40 } else { 150 };
    let fault_every = if smoke { 20 } else { 100 };
    let rt = Arc::new(
        Runtime::try_new(ServeConfig {
            threads,
            max_batch: 8,
            guard: Some(true),
            quarantine_threshold: 4,
            quarantine_cooldown: Duration::from_millis(300),
            launch_timeout: Some(Duration::from_millis(500)),
            ..ServeConfig::default()
        })
        .expect("serve runtime construction"),
    );
    let (n, d, l, h) = SHAPE;
    let program = Arc::new(stacked_rnn_program(n, d, l, h));
    let ws = shared_weights();
    let compiled = ft_passes::compile(&program).expect("chaos workload compiles");
    let step_lo = compiled.groups[0].reordering.wavefront_range().0;
    let (member, read) = first_buffer_read(&compiled);

    // Warm the plan (and the fused variants) before the storm.
    rt.submit_wait(Request::new(Arc::clone(&program), request_inputs(1, &ws)))
        .unwrap()
        .wait()
        .unwrap();

    let submitted = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let resolved = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let ok = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let failed_typed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let rt = Arc::clone(&rt);
            let program = Arc::clone(&program);
            let ws = ws.clone();
            let (submitted, resolved, ok, failed_typed) = (
                Arc::clone(&submitted),
                Arc::clone(&resolved),
                Arc::clone(&ok),
                Arc::clone(&failed_typed),
            );
            s.spawn(move || {
                for r in 0..per_client {
                    let i = c * per_client + r;
                    // ~1% fault mix, rotated deterministically.
                    let inputs = if i % fault_every == 1 {
                        match (i / fault_every) % 3 {
                            0 => {
                                rt.inject_pool_fault(1, 1);
                                request_inputs(i as u64, &ws)
                            }
                            1 => poisoned_inputs(i as u64, &ws),
                            _ => {
                                rt.inject_exec_fault(
                                    FaultPlan::new().corrupt_read(0, member, read, 7),
                                );
                                request_inputs(i as u64, &ws)
                            }
                        }
                    } else {
                        request_inputs(i as u64, &ws)
                    };
                    // One scheduler kill, mid-run.
                    if c == 0 && r == per_client / 2 {
                        rt.kill_scheduler();
                    }
                    submitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let outcome = rt
                        .submit_wait(Request::new(Arc::clone(&program), inputs))
                        .unwrap()
                        .wait();
                    resolved.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    match outcome {
                        Ok(_) => {
                            ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(_) => {
                            failed_typed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // A dedicated poison plan (different signature): consecutive
        // guard failures trip its breaker without starving the main
        // plan, then a clean request after the cooldown recovers it.
        {
            let rt = Arc::clone(&rt);
            s.spawn(move || {
                let poison_prog = Arc::new(stacked_rnn_program(1, 2, 32, 16));
                let pws =
                    FractalTensor::from_flat(&Tensor::randn(&[2, 16, 16], 5).mul_scalar(0.2), 1)
                        .unwrap();
                let bad = |seed: u64| {
                    let mut v = Tensor::randn(&[1, 32, 1, 16], seed).to_vec();
                    v[0] = f32::NAN;
                    let nan = Tensor::from_vec(v, &[1, 32, 1, 16]).unwrap();
                    let mut m = HashMap::new();
                    m.insert(BufferId(0), FractalTensor::from_flat(&nan, 2).unwrap());
                    m.insert(BufferId(1), pws.clone());
                    m
                };
                for seed in 0..7u64 {
                    let _ = rt
                        .submit_wait(Request::new(Arc::clone(&poison_prog), bad(seed)))
                        .unwrap()
                        .wait();
                }
                std::thread::sleep(Duration::from_millis(400));
                let mut good = HashMap::new();
                good.insert(
                    BufferId(0),
                    FractalTensor::from_flat(&Tensor::randn(&[1, 32, 1, 16], 9), 2).unwrap(),
                );
                good.insert(BufferId(1), pws.clone());
                let _ = rt
                    .submit_wait(Request::new(Arc::clone(&poison_prog), good))
                    .unwrap()
                    .wait();
            });
        }
    });
    // Wedged-launch phase, after the storm so no concurrent fault arm can
    // overwrite the one-shot plan: the stall sleeps past the launch
    // timeout, the watchdog poisons the pool, the request fails typed,
    // and the next request runs on a freshly spawned full-width pool.
    {
        submitted.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        rt.inject_exec_fault(FaultPlan::new().stall_at(0, step_lo, 2_000));
        let wedged = rt
            .submit_wait(Request::new(
                Arc::clone(&program),
                request_inputs(9_001, &ws),
            ))
            .unwrap()
            .wait();
        resolved.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        match wedged {
            Ok(_) => {
                ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            Err(_) => {
                failed_typed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let after = rt
            .submit_wait(Request::new(
                Arc::clone(&program),
                request_inputs(9_002, &ws),
            ))
            .unwrap()
            .wait();
        resolved.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        match after {
            Ok(_) => {
                ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            Err(_) => {
                failed_typed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = rt.stats();
    let submitted = submitted.load(std::sync::atomic::Ordering::Relaxed);
    let resolved = resolved.load(std::sync::atomic::Ordering::Relaxed);
    let hung = submitted.saturating_sub(resolved);
    eprintln!(
        "chaos: {} req in {:.2}s   ok {}   typed failures {}   hung {}   restarts {}   \
         quarantine trips {}   bisections {}   retries {}   stalled {}   pool {}/{} workers",
        submitted,
        elapsed,
        ok.load(std::sync::atomic::Ordering::Relaxed),
        failed_typed.load(std::sync::atomic::Ordering::Relaxed),
        hung,
        stats.scheduler_restarts,
        stats.quarantine_trips,
        stats.batch_bisections,
        stats.retries,
        stats.stalled,
        stats.pool_workers,
        threads,
    );
    json!({
        "requests": submitted,
        "resolved": resolved,
        "hung_tickets": hung,
        "ok": ok.load(std::sync::atomic::Ordering::Relaxed),
        "failed_typed": failed_typed.load(std::sync::atomic::Ordering::Relaxed),
        "throughput_rps": submitted as f64 / elapsed,
        "scheduler_restarts": stats.scheduler_restarts,
        "quarantine_trips": stats.quarantine_trips,
        "quarantined": stats.quarantine_rejected,
        "shed": stats.shed,
        "retried": stats.retries,
        "batch_bisections": stats.batch_bisections,
        "stalled": stats.stalled,
        "pool_replacements": stats.pool_replacements,
        "pool_workers_end": stats.pool_workers as u64,
        "pool_workers_expected": threads as u64,
    })
}

/// One mixed-length serving run: `clients` closed-loop threads rotate
/// over the outer-extent distribution. The timed section deliberately
/// starts cold — the one family build is part of what the scenario
/// measures.
fn mixed_length_run(extents: &[usize], clients: usize, per_client: usize) -> (Value, f64) {
    // Deliberately more step-bound than SHAPE (longer sequence, narrower
    // hidden): per-wavefront-step work is small, so launch cost is
    // dominated by the fixed per-step synchronization that fusion
    // amortizes across batch members.
    let (d, l, h) = MIXED_DLH;
    let ws = FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 8).mul_scalar(0.2), 1).unwrap();
    let programs: Vec<Arc<Program>> = extents
        .iter()
        .map(|&n| Arc::new(stacked_rnn_program(n, d, l, h)))
        .collect();
    let rt = Arc::new(
        Runtime::try_new(ServeConfig {
            threads: 8,
            max_batch: 16,
            ..ServeConfig::default()
        })
        .expect("serve runtime construction"),
    );
    // Pre-generate every request's inputs before the clock starts: input
    // tensor construction is the client's cost, not the serving system's,
    // and on a small host generating tensors inside the timed loop would
    // serialize with the scheduler and mask the serving-path difference
    // under measurement.
    let work: Vec<Vec<(usize, HashMap<BufferId, FractalTensor>)>> = (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|r| {
                    // Multi-tenant length mix: each client is one tenant
                    // with a stable characteristic request width (tenants
                    // rarely change payload shape request to request), so
                    // concurrent traffic always mixes lengths ACROSS
                    // sources; ragged fusion works across all of them.
                    let _ = r;
                    let which = c % extents.len();
                    let n = extents[which];
                    let mut inputs = HashMap::new();
                    inputs.insert(
                        BufferId(0),
                        FractalTensor::from_flat(
                            &Tensor::randn(&[n, l, 1, h], (c * per_client + r) as u64),
                            2,
                        )
                        .unwrap(),
                    );
                    inputs.insert(BufferId(1), ws.clone());
                    (which, inputs)
                })
                .collect()
        })
        .collect();
    // Each client keeps a small window of requests in flight (as real
    // serving clients do): a fused launch completes many requests at
    // once, and without pipelining the queue would drain to empty after
    // every batch, measuring client wakeup latency instead of serving
    // throughput.
    const PIPELINE: usize = 1;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for reqs in work {
            let rt = Arc::clone(&rt);
            let programs = programs.clone();
            s.spawn(move || {
                let mut inflight = std::collections::VecDeque::new();
                for (which, inputs) in reqs {
                    inflight.push_back(
                        rt.submit_wait(Request::new(Arc::clone(&programs[which]), inputs))
                            .unwrap(),
                    );
                    if inflight.len() >= PIPELINE {
                        inflight.pop_front().unwrap().wait().unwrap();
                    }
                }
                for t in inflight {
                    t.wait().unwrap();
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = rt.stats();
    let requests = (clients * per_client) as u64;
    let throughput = requests as f64 / elapsed;
    let mean_batch = if stats.batches > 0 {
        stats.batched_requests as f64 / stats.batches as f64
    } else {
        0.0
    };
    eprintln!(
        "mixed-length ragged {:6.0} req/s   plans {}   compiles {}   batches {}   mean batch {:.2}   ragged fb {}",
        throughput,
        stats.cached_plans,
        stats.cache_misses,
        stats.batches,
        mean_batch,
        stats.batch_ragged_fallbacks,
    );
    (
        json!({
            "throughput_rps": throughput,
            "p50_ms": stats.latency_p50_us / 1e3,
            "p99_ms": stats.latency_p99_us / 1e3,
            "plan_cache_entries": stats.cached_plans,
            "compiles": stats.cache_misses,
            "batches": stats.batches,
            "mean_batch": mean_batch,
            "ragged_fallbacks": stats.batch_ragged_fallbacks,
        }),
        throughput,
    )
}

/// Mixed-length (ragged) serving scenario under a realistic length
/// distribution. Requests draw their outer extent from `extents`; the
/// runtime builds one verified symbolic family, instantiates it per
/// dispatched total extent by evaluating the stride/size formulas, and
/// fuses across nearby lengths (factor-of-4 buckets).
///
/// Requests are *narrow* (outer extents 3..=8 against an 8-thread pool),
/// so an unfused launch leaves most workers idle — the regime where
/// batching matters.
fn run_mixed_length(smoke: bool) -> Value {
    let extents: Vec<usize> = (3..=8).collect();
    let clients = 6usize;
    let per_client = if smoke { 4 } else { 40 };
    // Median of three repetitions: single runs on a shared host jitter by
    // 10-20%.
    let reps = if smoke { 1 } else { 3 };
    let mut runs: Vec<(Value, f64)> = (0..reps)
        .map(|_| mixed_length_run(&extents, clients, per_client))
        .collect();
    runs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (ragged, _) = runs.swap_remove(runs.len() / 2);
    let distribution = json!({
        "min": extents[0] as u64,
        "max": *extents.last().unwrap() as u64,
        "distinct": extents.len() as u64,
    });
    json!({
        "outer_extents": distribution,
        "clients": clients as u64,
        "requests": (clients * per_client) as u64,
        "reps": reps as u64,
        "ragged": ragged,
    })
}

/// One overload measurement: open-loop submits paced at `offered_rps`,
/// every request carrying `deadline`; goodput counts only completions
/// that finished within their deadline.
fn overload_run(
    shedding: bool,
    offered_rps: f64,
    total: usize,
    deadline: Duration,
    program: &Arc<Program>,
    ws: &FractalTensor,
) -> Value {
    let rt = Runtime::try_new(ServeConfig {
        threads: 4,
        max_batch: 8,
        queue_capacity: 8192,
        shedding,
        ..ServeConfig::default()
    })
    .expect("serve runtime construction");
    // Warm: cache the plan and build the latency history the shedding
    // estimator predicts from.
    for i in 0..8 {
        rt.submit_wait(Request::new(
            Arc::clone(program),
            request_inputs(7_000 + i, ws),
        ))
        .unwrap()
        .wait()
        .unwrap();
    }
    let _ = rt.take_completions(); // timed section starts clean

    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let deadline_us = deadline.as_secs_f64() * 1e6;
    let mut tickets = Vec::with_capacity(total);
    let mut shed_at_admission = 0u64;
    let mut records = Vec::with_capacity(total);
    let t0 = Instant::now();
    for i in 0..total {
        match rt.submit(
            Request::new(Arc::clone(program), request_inputs(i as u64, ws)).with_deadline(deadline),
        ) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Shed { .. }) => shed_at_admission += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
        if tickets.len() % 512 == 0 {
            records.extend(rt.take_completions()); // keep the ring bounded
        }
        // Open-loop pacing: the next arrival doesn't wait for this one.
        let next = t0 + interval.mul_f64((i + 1) as f64);
        if let Some(sleep) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
    }
    for t in tickets {
        let _ = t.wait();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    records.extend(rt.take_completions());

    let mut on_time = 0u64;
    let mut late_ok = 0u64;
    let mut missed = 0u64;
    for r in &records {
        match r.status {
            ft_obs::CompletionStatus::Ok if r.total_us <= deadline_us => on_time += 1,
            ft_obs::CompletionStatus::Ok => late_ok += 1,
            _ => missed += 1,
        }
    }
    let goodput = on_time as f64 / elapsed;
    eprintln!(
        "overload shed={:5} offered {:7.0} rps   goodput {:7.0} rps   on-time {}   late {}   \
         missed {}   shed {}",
        shedding, offered_rps, goodput, on_time, late_ok, missed, shed_at_admission
    );
    json!({
        "shedding": shedding,
        "offered_rps": offered_rps,
        "goodput_rps": goodput,
        "on_time": on_time,
        "late_ok": late_ok,
        "deadline_missed": missed,
        "shed": shed_at_admission,
    })
}

/// Overload scenario: measure capacity closed-loop, then offer 2x that
/// rate open-loop with a per-request deadline, shedding off vs on. The
/// report compares on-deadline goodput against the at-capacity run.
fn run_overload(smoke: bool) -> Value {
    let (n, d, l, h) = SHAPE;
    let program = Arc::new(stacked_rnn_program(n, d, l, h));
    let ws = shared_weights();

    // Capacity probe: closed-loop clients, no deadline.
    let rt = Runtime::try_new(ServeConfig {
        threads: 4,
        max_batch: 8,
        ..ServeConfig::default()
    })
    .expect("serve runtime construction");
    let clients = 8usize;
    let per_client = if smoke { 10 } else { 30 };
    let rt = Arc::new(rt);
    std::thread::scope(|s| {
        for c in 0..clients {
            let rt = Arc::clone(&rt);
            let program = Arc::clone(&program);
            let inputs = request_inputs(6_000 + c as u64, &ws);
            s.spawn(move || {
                rt.submit_wait(Request::new(program, inputs))
                    .unwrap()
                    .wait()
                    .unwrap();
            });
        }
    });
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let rt = Arc::clone(&rt);
            let program = Arc::clone(&program);
            let ws = ws.clone();
            s.spawn(move || {
                for r in 0..per_client {
                    let inputs = request_inputs((c * per_client + r) as u64, &ws);
                    rt.submit_wait(Request::new(Arc::clone(&program), inputs))
                        .unwrap()
                        .wait()
                        .unwrap();
                }
            });
        }
    });
    let capacity_rps = (clients * per_client) as f64 / t0.elapsed().as_secs_f64();
    let p50_us = rt.stats().latency_p50_us;
    drop(rt);
    // A deadline the at-capacity run comfortably meets, but that an
    // unshed 2x backlog blows through.
    let deadline = Duration::from_secs_f64((p50_us * 8.0).max(4_000.0) / 1e6);
    eprintln!(
        "overload: capacity {:.0} rps   p50 {:.2} ms   deadline {:.2} ms",
        capacity_rps,
        p50_us / 1e3,
        deadline.as_secs_f64() * 1e3
    );

    let duration = if smoke { 1.0 } else { 2.5 };
    // Pace the baseline slightly below the closed-loop capacity estimate:
    // an open-loop arrival stream at exactly 100% has unbounded expected
    // queue growth, which would make the "healthy" reference itself miss
    // deadlines on a noisy host.
    let baseline_rps = 0.9 * capacity_rps;
    let at_capacity_total = ((baseline_rps * duration) as usize).clamp(50, 1_200);
    let overload_total = ((2.0 * capacity_rps * duration) as usize).clamp(100, 2_400);
    let baseline = overload_run(
        true,
        baseline_rps,
        at_capacity_total,
        deadline,
        &program,
        &ws,
    );
    let unshed = overload_run(
        false,
        2.0 * capacity_rps,
        overload_total,
        deadline,
        &program,
        &ws,
    );
    let shed = overload_run(
        true,
        2.0 * capacity_rps,
        overload_total,
        deadline,
        &program,
        &ws,
    );
    let ratio = |v: &Value| {
        let g = v["goodput_rps"].as_f64().unwrap_or(0.0);
        let b = baseline["goodput_rps"].as_f64().unwrap_or(0.0);
        if b > 0.0 {
            g / b
        } else {
            0.0
        }
    };
    json!({
        "capacity_rps": capacity_rps,
        "deadline_ms": deadline.as_secs_f64() * 1e3,
        "at_capacity": baseline.clone(),
        "overload_2x_unshed": unshed.clone(),
        "overload_2x_shed": shed.clone(),
        "shed_goodput_vs_at_capacity": ratio(&shed),
        "unshed_goodput_vs_at_capacity": ratio(&unshed),
    })
}

/// (depth, hidden) of the RNN decode step the session scenario serves.
/// Small enough that per-launch overhead dominates a solo step — exactly
/// the regime continuous batching exists to amortize.
const SESSION_DH: (usize, usize) = (2, 16);

/// One mode of the stateful-session scenario: `sessions` client threads
/// each drive their own pinned-state decode loop on a shared runtime.
/// `continuous` fuses concurrent decode steps from different sessions
/// into one wavefront launch per tick (the continuous-batching path);
/// solo mode dispatches every step alone.
fn session_mode(continuous: bool, sessions: usize, warmup: usize, steps: usize) -> Value {
    let (d, h) = SESSION_DH;
    let rt = Arc::new(
        Runtime::try_new(ServeConfig {
            threads: 4,
            batching: continuous,
            max_batch: sessions.max(8),
            ..ServeConfig::default()
        })
        .expect("serve runtime construction"),
    );
    let program = Arc::new(rnn_decode_step_program(d, h));
    let ws = FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 8).mul_scalar(0.2), 1).unwrap();
    let ids: Vec<u64> = (0..sessions)
        .map(|_| {
            rt.open_session(SessionSpec {
                program: Arc::clone(&program),
                bindings: vec![StateBinding {
                    state: BufferId(2),
                    op: StateOp::Carry {
                        output: BufferId(3),
                    },
                }],
                capacity: 0,
                init: decode::rnn_state_init(d, h),
            })
            .expect("open session")
        })
        .collect();

    // One closed-loop driver keeps every session in flight at once: each
    // round submits the next decode step for all sessions, then waits the
    // round's futures. Continuous batching fuses the in-flight steps into
    // one wavefront launch per round; solo dispatch pays one launch per
    // session per round. Tokens are pre-generated so the timed loop
    // measures serving, not client-side RNG.
    let tokens: Vec<Vec<FractalTensor>> = (0..sessions)
        .map(|c| {
            (0..warmup + steps)
                .map(|t| {
                    FractalTensor::from_tensors(vec![Tensor::randn(
                        &[1, h],
                        (c * 10_000 + t) as u64,
                    )])
                    .unwrap()
                })
                .collect()
        })
        .collect();
    let round = |t: usize| {
        let futures: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(c, &sid)| {
                let mut inputs = HashMap::with_capacity(2);
                inputs.insert(BufferId(0), tokens[c][t].clone());
                inputs.insert(BufferId(1), ws.clone());
                rt.decode_step(sid, inputs).unwrap()
            })
            .collect();
        for f in futures {
            f.wait().unwrap();
        }
    };
    for t in 0..warmup {
        round(t);
    }
    let warm = rt.stats();
    let start = Instant::now();
    for t in 0..steps {
        round(warmup + t);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = rt.stats();
    let pinned_bytes = stats.pinned_bytes;
    for sid in ids {
        rt.close_session(sid).unwrap();
    }

    let tokens = (sessions * steps) as u64;
    let timed_batches = stats.batches - warm.batches;
    let timed_batched = stats.batched_requests - warm.batched_requests;
    let row = json!({
        "mode": if continuous { "continuous" } else { "solo" },
        "sessions": sessions as u64,
        "steps_per_session": steps as u64,
        "tokens": tokens,
        "tokens_per_sec": tokens as f64 / elapsed,
        "p50_ms": stats.latency_p50_us / 1e3,
        "p99_ms": stats.latency_p99_us / 1e3,
        "mean_batch": if timed_batches > 0 {
            timed_batched as f64 / timed_batches as f64
        } else {
            0.0
        },
        // The in-place advance contract: zero deep copies per decode step
        // once the plan cache is warm (CI gates on this staying 0).
        "state_copies_after_warmup": stats.state_copies - warm.state_copies,
        "pinned_bytes": pinned_bytes,
        "pinned_bytes_after_close": rt.stats().pinned_bytes,
        "decode_steps": stats.decode_steps,
        "cache_misses_after_warmup": stats.cache_misses - warm.cache_misses,
        "batch_fallbacks_after_warmup": stats.batch_fallbacks - warm.batch_fallbacks,
        "retries_after_warmup": stats.retries - warm.retries,
    });
    eprintln!(
        "sessions {:10} n={sessions} {:8.0} tok/s   p50 {:7.3} ms   mean batch {:.2}   state copies {}",
        if continuous { "continuous" } else { "solo" },
        row["tokens_per_sec"].as_f64().unwrap_or(0.0),
        stats.latency_p50_us / 1e3,
        row["mean_batch"].as_f64().unwrap_or(0.0),
        stats.state_copies - warm.state_copies,
    );
    row
}

/// Stateful-session scenario: steady-state autoregressive decode across
/// concurrent pinned-state sessions, continuous batching vs solo
/// dispatch. The headline ratio is the serving win the session layer
/// exists for; the zero state-copies counter is the in-place contract.
fn run_sessions(smoke: bool) -> Value {
    let sessions = 16;
    let warmup = if smoke { 4 } else { 8 };
    let steps = if smoke { 24 } else { 96 };
    // Each mode runs three times and the median-throughput run is
    // reported — a single rep is too noisy to gate on.
    let reps = 3;
    let median = |mode: bool| {
        let mut rows: Vec<Value> = (0..reps)
            .map(|_| session_mode(mode, sessions, warmup, steps))
            .collect();
        rows.sort_by(|a, b| {
            let ta = a["tokens_per_sec"].as_f64().unwrap_or(0.0);
            let tb = b["tokens_per_sec"].as_f64().unwrap_or(0.0);
            ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal)
        });
        rows.swap_remove(reps / 2)
    };
    let continuous = median(true);
    let solo = median(false);
    let ratio = match (
        continuous["tokens_per_sec"].as_f64(),
        solo["tokens_per_sec"].as_f64(),
    ) {
        (Some(yes), Some(no)) if no > 0.0 => yes / no,
        _ => 0.0,
    };
    eprintln!("continuous vs solo decode throughput: {ratio:.2}x");
    json!({
        "workload": format!(
            "rnn_decode_step d={} h={} (per step)",
            SESSION_DH.0, SESSION_DH.1
        ),
        "continuous": continuous,
        "solo": solo,
        "continuous_vs_solo_tokens_per_sec": ratio,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_out = args.iter().any(|a| a == "--json");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let metrics_cfg = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .map(|dir| {
            let dir = std::path::PathBuf::from(dir);
            ft_obs::ExporterConfig {
                jsonl_path: Some(dir.join("metrics.jsonl")),
                prom_path: Some(dir.join("metrics.prom")),
                ..ft_obs::ExporterConfig::default()
            }
        });

    let (n, d, l, h) = SHAPE;
    let program = Arc::new(stacked_rnn_program(n, d, l, h));
    let ws = shared_weights();

    let (cold_us, cached_us) = measure_setup(&program, &ws, if smoke { 10 } else { 50 });
    let setup_speedup = if cached_us > 0.0 {
        cold_us / cached_us
    } else {
        0.0
    };
    eprintln!(
        "setup: cold compile+verify {cold_us:9.1} us   cached lookup {cached_us:7.2} us   ({setup_speedup:.0}x)"
    );

    let threads: &[usize] = if smoke { &[2] } else { THREADS };
    let clients = 8;
    let per_client = if smoke { 6 } else { 40 };
    let mut rows = Vec::new();
    for &t in threads {
        for batched in [false, true] {
            rows.push(run_load(
                t,
                batched,
                clients,
                per_client,
                &program,
                &ws,
                metrics_cfg.as_ref(),
            ));
        }
    }

    let batched_vs_unbatched: Option<f64> = {
        let at = |t: usize, b: bool| {
            rows.iter()
                .find(|r| r.threads == t && r.batched == b)
                .map(|r| r.throughput_rps)
        };
        let t = *threads.last().unwrap_or(&2);
        match (at(t, true), at(t, false)) {
            (Some(yes), Some(no)) if no > 0.0 => Some(yes / no),
            _ => None,
        }
    };
    if let Some(x) = batched_vs_unbatched {
        eprintln!(
            "batched vs unbatched throughput at {} threads: {x:.2}x",
            threads.last().unwrap_or(&2)
        );
    }

    let load: Vec<Value> = rows
        .iter()
        .map(|r| {
            json!({
                "threads": r.threads as u64,
                "mode": if r.batched { "batched" } else { "unbatched" },
                "clients": r.clients as u64,
                "requests": r.requests,
                "throughput_rps": r.throughput_rps,
                "p50_ms": r.p50_ms,
                "p99_ms": r.p99_ms,
                "mean_batch": r.mean_batch,
                "arena_acquires": r.arena_acquires,
                "arena_grows_after_warmup": r.arena_grows_after_warmup,
                "leaf_clones": r.leaf_clones,
                "shed": r.shed,
                "retried": r.retried,
                "quarantined": r.quarantined,
            })
        })
        .collect();
    let mixed_length = run_mixed_length(smoke);
    let sessions = run_sessions(smoke);
    let chaos = run_chaos(smoke);
    let overload = run_overload(smoke);

    let setup = json!({
        "cold_compile_verify_us": cold_us,
        "cached_lookup_us": cached_us,
        "speedup": setup_speedup,
    });
    let report = json!({
        "bench": "serve",
        "smoke": smoke,
        "workload": format!("stacked_rnn n={n} d={d} l={l} h={h} (per request)"),
        "host_parallelism": std::thread::available_parallelism()
            .map(|v| v.get() as u64)
            .unwrap_or(1),
        "setup": setup,
        "batched_vs_unbatched_throughput": batched_vs_unbatched.unwrap_or(0.0),
        "load": load,
        "mixed_length": mixed_length,
        "sessions": sessions,
        "chaos": chaos,
        "overload": overload,
    });
    let rendered = serde_json::to_string_pretty(&report).unwrap();
    if let Some(path) = out {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).unwrap();
            }
        }
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("wrote {path}");
    }
    if json_out {
        println!("{rendered}");
    }
}
