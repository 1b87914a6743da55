//! Self-healing serving: chaos tests for the four failure domains.
//!
//! * Scheduler supervision — a panicked dispatch loop fails its in-flight
//!   tickets with typed [`ServeError::SchedulerDown`] (never a hang) and
//!   the supervisor restores service.
//! * Batch fault isolation — a fault on one member of a fused launch
//!   fails only that request; every other member's output is
//!   bitwise-identical to its solo (unbatched) run.
//! * Plan quarantine — a repeatedly-failing plan trips a circuit breaker
//!   ([`ServeError::Quarantined`], no pool time burned) and recovers
//!   through a half-open probe after the cooldown.
//! * Load shedding + stall watchdog — an unmeetable deadline is rejected
//!   at admission ([`ServeError::Shed`]); a wedged launch becomes a typed
//!   [`ExecError::Stalled`] and the poisoned pool is replaced at full
//!   strength.

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ft_backend::{execute_reference, ExecError};
use ft_core::builders::stacked_rnn_program;
use ft_core::{BufferId, FractalTensor, Program};
use ft_etdg::RegionRead;
use ft_passes::compile;
use ft_serve::{FaultPlan, Request, Runtime, ServeConfig, ServeError};
use ft_tensor::Tensor;

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
        FractalTensor::from_flat(&Tensor::randn(&[d, h, h], seed + 1).mul_scalar(0.2), 1).unwrap(),
    );
    m
}

/// Same shape, but the activations carry a NaN: with the guard on, any
/// execution of these inputs fails typed ([`ExecError::Guard`]).
fn poisoned_inputs(
    n: usize,
    d: usize,
    l: usize,
    h: usize,
    seed: u64,
) -> HashMap<BufferId, FractalTensor> {
    let mut m = rnn_inputs(n, d, l, h, seed);
    let flat = m[&BufferId(0)].to_flat().unwrap();
    let mut v = flat.to_vec();
    v[0] = f32::NAN;
    let nan = Tensor::from_vec(v, flat.dims()).unwrap();
    m.insert(BufferId(0), FractalTensor::from_flat(&nan, 2).unwrap());
    m
}

fn reference(
    p: &Program,
    inputs: &HashMap<BufferId, FractalTensor>,
) -> HashMap<BufferId, FractalTensor> {
    let compiled = compile(p).unwrap();
    execute_reference(&compiled, inputs, 1).unwrap()
}

fn assert_bitwise_equal(
    a: &HashMap<BufferId, FractalTensor>,
    b: &HashMap<BufferId, FractalTensor>,
    ctx: &str,
) {
    assert_eq!(a.len(), b.len(), "{ctx}: output buffer sets differ");
    for (id, fa) in a {
        let va = fa.to_flat().unwrap().to_vec();
        let vb = b[id].to_flat().unwrap().to_vec();
        assert_eq!(
            va.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{ctx}: buffer {id:?} diverged"
        );
    }
}

/// Failure domain 2: one poisoned member of a fused batch fails alone;
/// the other members are re-run solo and their outputs are
/// bitwise-identical to unbatched runs. The bisection cost is metered.
#[test]
fn fused_batch_fault_is_isolated_to_the_poisoned_member() {
    let (n, d, l, h) = (2usize, 2, 3, 8);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        max_batch: 4,
        guard: Some(true),
        ..ServeConfig::default()
    });

    // Occupy the scheduler with a slower different-signature request so
    // the four test requests queue up and dispatch as one fused group.
    let blocker = stacked_rnn_program(2, 3, 8, 32);
    let blocker_ticket = rt
        .submit_wait(Request::new(blocker.clone(), rnn_inputs(2, 3, 8, 32, 900)))
        .unwrap();

    let p = stacked_rnn_program(n, d, l, h);
    // One shared weight tensor across the batch (fusion requires shared
    // buffers to be identical); only the activations vary per request.
    let ws = FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 41).mul_scalar(0.2), 1).unwrap();
    let with_ws = |mut m: HashMap<BufferId, FractalTensor>| {
        m.insert(BufferId(1), ws.clone());
        m
    };
    let good: Vec<_> = (0..3)
        .map(|i| with_ws(rnn_inputs(n, d, l, h, 40 + i)))
        .collect();
    let bad = with_ws(poisoned_inputs(n, d, l, h, 77));

    let mut tickets = Vec::new();
    for inputs in good.iter().cloned() {
        tickets.push(rt.submit_wait(Request::new(p.clone(), inputs)).unwrap());
    }
    let bad_ticket = rt.submit_wait(Request::new(p.clone(), bad)).unwrap();
    blocker_ticket.wait().unwrap();

    // The poisoned member fails typed; the guard catches the NaN.
    assert!(
        matches!(
            bad_ticket.wait(),
            Err(ServeError::Exec(ExecError::Guard { .. }))
        ),
        "poisoned member must fail with a typed guard error"
    );
    // Every healthy member succeeds, bitwise equal to its solo run.
    for (inputs, t) in good.iter().zip(tickets) {
        let got = t.wait().unwrap();
        assert_bitwise_equal(&got, &reference(&p, inputs), "healthy member");
    }

    let stats = rt.stats();
    assert!(
        stats.batch_bisections >= 1,
        "fused failure must trigger solo-retry isolation, got {stats:?}"
    );
    assert!(stats.retries >= 2, "isolation retries must be metered");
    assert!(stats.batch_fallbacks >= 1);
}

/// Failure domain 1: killing the scheduler mid-burst strands no ticket —
/// every admitted request resolves typed (SchedulerDown for the group
/// that died in flight, Ok for the rest) and the respawned scheduler
/// keeps serving.
#[test]
fn scheduler_death_mid_burst_strands_no_ticket() {
    let (n, d, l, h) = (2usize, 2, 3, 8);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        max_batch: 4,
        ..ServeConfig::default()
    });
    let p = stacked_rnn_program(n, d, l, h);
    let inputs = rnn_inputs(n, d, l, h, 5);

    // The next dispatch panics after its group is popped — the worst
    // case: those tickets are neither queued nor fulfilled.
    rt.kill_scheduler();
    let tickets: Vec<_> = (0..16)
        .map(|_| {
            rt.submit_wait(Request::new(p.clone(), inputs.clone()))
                .unwrap()
        })
        .collect();

    let mut down = 0usize;
    let mut ok = 0usize;
    for t in tickets {
        match t.wait() {
            Ok(out) => {
                assert_bitwise_equal(&out, &reference(&p, &inputs), "post-restart request");
                ok += 1;
            }
            Err(ServeError::SchedulerDown) => down += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(down >= 1, "the killed dispatch must fail its group typed");
    assert!(ok >= 1, "the respawned scheduler must drain the rest");

    let stats = rt.stats();
    assert!(stats.scheduler_restarts >= 1, "restart must be metered");

    // Service is fully restored for fresh submissions.
    let out = rt.run(&p, inputs.clone()).unwrap();
    assert_bitwise_equal(&out, &reference(&p, &inputs), "post-recovery request");
}

/// Failure domain 3: a plan that keeps failing trips its circuit breaker
/// (requests fail fast with Quarantined, no pool time), and a successful
/// half-open probe after the cooldown closes it again.
#[test]
fn quarantined_plan_fails_fast_then_recovers_via_probe() {
    let (n, d, l, h) = (2usize, 2, 3, 8);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        batching: false,
        guard: Some(true),
        quarantine_threshold: 3,
        quarantine_cooldown: Duration::from_millis(750),
        ..ServeConfig::default()
    });
    let p = stacked_rnn_program(n, d, l, h);
    let bad = poisoned_inputs(n, d, l, h, 21);
    let good = rnn_inputs(n, d, l, h, 22);

    for _ in 0..3 {
        assert!(
            matches!(
                rt.run(&p, bad.clone()),
                Err(ServeError::Exec(ExecError::Guard { .. }))
            ),
            "poisoned request must fail typed while the breaker is closed"
        );
    }
    // Third consecutive failure tripped the breaker: even a *good*
    // request fails fast now — the plan is suspect, not the inputs.
    assert_eq!(rt.run(&p, good.clone()), Err(ServeError::Quarantined));
    let stats = rt.stats();
    assert_eq!(stats.quarantine_trips, 1);
    assert!(stats.quarantine_rejected >= 1);
    assert_eq!(stats.quarantined_plans, 1);

    // After the cooldown one probe goes through; success closes the
    // breaker and service resumes.
    std::thread::sleep(Duration::from_millis(850));
    let out = rt.run(&p, good.clone()).unwrap();
    assert_bitwise_equal(&out, &reference(&p, &good), "half-open probe");
    let stats = rt.stats();
    assert_eq!(
        stats.quarantined_plans, 0,
        "probe success must close the breaker"
    );
    let out = rt.run(&p, good.clone()).unwrap();
    assert_bitwise_equal(&out, &reference(&p, &good), "post-recovery request");
}

/// Failure domain 4a: admission sheds a request whose deadline is
/// already unmeetable given live latency history — typed Shed, distinct
/// from QueueFull — while generous deadlines are admitted untouched.
#[test]
fn unmeetable_deadline_is_shed_at_admission() {
    let (n, d, l, h) = (2usize, 2, 3, 8);
    let rt = Runtime::new(ServeConfig {
        threads: 1,
        batching: false,
        ..ServeConfig::default()
    });
    let p = stacked_rnn_program(n, d, l, h);
    let inputs = rnn_inputs(n, d, l, h, 31);

    // Build latency history; a cold runtime never sheds.
    for _ in 0..8 {
        rt.run(&p, inputs.clone()).unwrap();
    }

    let err = rt
        .submit(Request::new(p.clone(), inputs.clone()).with_deadline(Duration::from_nanos(1)))
        .unwrap_err();
    match err {
        ServeError::Shed { estimated_us } => assert!(estimated_us > 0),
        other => panic!("expected Shed, got {other}"),
    }
    assert_eq!(rt.stats().shed, 1);

    // A meetable deadline is admitted and served exactly.
    let out = rt
        .submit_wait(Request::new(p.clone(), inputs.clone()).with_deadline(Duration::from_secs(60)))
        .unwrap()
        .wait()
        .unwrap();
    assert_bitwise_equal(&out, &reference(&p, &inputs), "meetable deadline");
}

/// Failure domain 4b: a wedged UDF inside a launch trips the stall
/// watchdog — a typed `ExecError::Stalled`, a replaced pool back at full
/// worker count, and exact service afterwards.
#[test]
fn stalled_launch_is_detected_and_pool_replaced() {
    let (n, d, l, h) = (2usize, 3, 5, 4);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        batching: false,
        launch_timeout: Some(Duration::from_millis(100)),
        ..ServeConfig::default()
    });
    let p = stacked_rnn_program(n, d, l, h);
    let inputs = rnn_inputs(n, d, l, h, 51);

    // Warm: the plan is cached and the supervised pool serves exactly.
    let out = rt.run(&p, inputs.clone()).unwrap();
    assert_bitwise_equal(&out, &reference(&p, &inputs), "warmup on supervised pool");

    // Wedge the first worker that picks up group 0's first wavefront
    // step for far longer than the watchdog window.
    let lo = compile(&p).unwrap().groups[0]
        .reordering
        .wavefront_range()
        .0;
    rt.inject_exec_fault(FaultPlan::new().stall_at(0, lo, 600));
    assert!(
        matches!(
            rt.run(&p, inputs.clone()),
            Err(ServeError::Exec(ExecError::Stalled { .. }))
        ),
        "wedged launch must surface as a typed stall, not a hang"
    );

    let stats = rt.stats();
    assert!(stats.stalled >= 1, "stall must be metered");
    assert!(
        stats.pool_replacements >= 1,
        "poisoned pool must be replaced"
    );
    assert_eq!(
        stats.pool_workers, 2,
        "replacement pool must be at full worker count"
    );

    // The fresh pool serves the same plan bitwise-exactly.
    let out = rt.run(&p, inputs.clone()).unwrap();
    assert_bitwise_equal(&out, &reference(&p, &inputs), "post-replacement request");
}

/// Worker panics injected straight into the shared pool degrade one
/// request each, never the runtime: later submissions are exact.
#[test]
fn injected_pool_panic_degrades_one_request_not_the_runtime() {
    let (n, d, l, h) = (2usize, 2, 3, 8);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        batching: false,
        ..ServeConfig::default()
    });
    let p = stacked_rnn_program(n, d, l, h);
    let inputs = rnn_inputs(n, d, l, h, 61);
    rt.run(&p, inputs.clone()).unwrap();

    rt.inject_pool_fault(1, 1);
    match rt.run(&p, inputs.clone()) {
        // The panicked launch surfaces typed...
        Err(ServeError::Exec(_)) => {}
        // ...or the executor's inline fallback salvages the request.
        Ok(out) => assert_bitwise_equal(&out, &reference(&p, &inputs), "salvaged request"),
        Err(e) => panic!("unexpected error class: {e}"),
    }
    let out = rt.run(&p, inputs.clone()).unwrap();
    assert_bitwise_equal(&out, &reference(&p, &inputs), "post-fault request");
}

/// All four failure domains at once, under load. Four seeded clients share
/// one runtime while one request in ten carries a fault (a worker panic, a
/// NaN input or a corrupted read), the scheduler is killed mid-run and a
/// poison plan trips its breaker; then a wedged launch hits the watchdog.
/// Every admitted ticket resolves, and the pool ends at full width.
#[test]
fn chaos_under_load_resolves_every_ticket_and_restores_the_pool() {
    let (n, d, l, h) = (1usize, 2, 16, 8);
    let (clients, per_client) = (4usize, 20usize);
    let rt = Arc::new(Runtime::new(ServeConfig {
        threads: 2,
        max_batch: 8,
        guard: Some(true),
        fallback: Some(false),
        quarantine_threshold: 4,
        launch_timeout: Some(Duration::from_millis(100)),
        ..ServeConfig::default()
    }));
    let p = Arc::new(stacked_rnn_program(n, d, l, h));
    let ws = FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 8).mul_scalar(0.2), 1).unwrap();
    let with_ws = move |mut m: HashMap<BufferId, FractalTensor>| {
        m.insert(BufferId(1), ws.clone());
        m
    };
    let compiled = compile(&p).unwrap();
    // The first read of group 0 that reads a buffer: fills cannot be
    // corrupted.
    let (member, read) = compiled.groups[0]
        .members
        .iter()
        .enumerate()
        .find_map(|(mi, &m)| {
            let reads = &compiled.etdg.block(m).reads;
            let ri = reads
                .iter()
                .position(|r| matches!(r, RegionRead::Buffer { .. }))?;
            Some((mi, ri))
        })
        .unwrap();
    rt.run(&p, with_ws(rnn_inputs(n, d, l, h, 1))).unwrap();

    // Each thread reports how many of its tickets resolved; a bounded wait
    // on the channel turns a stranded ticket into a failure, not a hang.
    let (done, resolved) = mpsc::channel();
    for c in 0..clients {
        let (rt, p, with_ws, done) = (
            Arc::clone(&rt),
            Arc::clone(&p),
            with_ws.clone(),
            done.clone(),
        );
        std::thread::spawn(move || {
            for r in 0..per_client {
                let i = c * per_client + r;
                let seed = i as u64 + 100;
                let inputs = match (i % 10 == 1, i / 10 % 3) {
                    (false, _) => with_ws(rnn_inputs(n, d, l, h, seed)),
                    (true, 0) => {
                        rt.inject_pool_fault(1, 1);
                        with_ws(rnn_inputs(n, d, l, h, seed))
                    }
                    (true, 1) => with_ws(poisoned_inputs(n, d, l, h, seed)),
                    (true, _) => {
                        rt.inject_exec_fault(FaultPlan::new().corrupt_read(0, member, read, 7));
                        with_ws(rnn_inputs(n, d, l, h, seed))
                    }
                };
                if c == 0 && r == per_client / 2 {
                    rt.kill_scheduler();
                }
                // Ok or a typed error: either way the ticket resolved.
                let _ = rt
                    .submit_wait(Request::new(Arc::clone(&p), inputs))
                    .unwrap()
                    .wait();
                done.send(1).unwrap();
            }
        });
    }
    // A poison plan (another signature): its consecutive guard failures
    // trip its own breaker without starving the main plan.
    {
        let (rt, done) = (Arc::clone(&rt), done.clone());
        std::thread::spawn(move || {
            let poison = stacked_rnn_program(1, 2, 8, 4);
            for seed in 0..7 {
                let _ = rt.run(&poison, poisoned_inputs(1, 2, 8, 4, 500 + seed));
                done.send(1).unwrap();
            }
        });
    }
    let expected = clients * per_client + 7;
    for k in 0..expected {
        resolved
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{} tickets hung", expected - k));
    }

    // The wedge runs on a plan of its own, whose breaker the storm cannot
    // have opened. A first request consumes any one-shot fault the storm
    // left armed; the second launch is wedged past the watchdog.
    let q = stacked_rnn_program(2, 3, 5, 4);
    let _ = rt.run(&q, rnn_inputs(2, 3, 5, 4, 9_000));
    let lo = compile(&q).unwrap().groups[0]
        .reordering
        .wavefront_range()
        .0;
    rt.inject_exec_fault(FaultPlan::new().stall_at(0, lo, 600));
    assert!(
        matches!(
            rt.run(&q, rnn_inputs(2, 3, 5, 4, 9_001)),
            Err(ServeError::Exec(ExecError::Stalled { .. }))
        ),
        "the wedged launch must fail as a typed stall"
    );
    let inputs = rnn_inputs(2, 3, 5, 4, 9_002);
    let out = rt.run(&q, inputs.clone()).unwrap();
    assert_bitwise_equal(&out, &reference(&q, &inputs), "post-chaos request");

    let stats = rt.stats();
    assert!(
        stats.scheduler_restarts >= 1,
        "scheduler kill not exercised"
    );
    assert!(stats.quarantine_trips >= 1, "quarantine never tripped");
    assert!(stats.stalled >= 1, "wedged launch not detected");
    assert!(stats.pool_replacements >= 1, "poisoned pool not replaced");
    assert_eq!(stats.pool_workers, 2, "pool not restored to full width");
}
