//! Serving-runtime integration tests: plan-cache reuse across renamed
//! workloads, multi-threaded submission exactness, deadline isolation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ft_backend::execute_reference;
use ft_core::builders::stacked_rnn_program;
use ft_core::{BufferId, FractalTensor, Program};
use ft_passes::compile;
use ft_serve::{Request, Runtime, ServeConfig, ServeError};
use ft_tensor::Tensor;
use ft_workloads::lstm;

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

fn reference(
    p: &Program,
    inputs: &HashMap<BufferId, FractalTensor>,
) -> HashMap<BufferId, FractalTensor> {
    let compiled = compile(p).unwrap();
    execute_reference(&compiled, inputs, 1).unwrap()
}

/// The regression for the plan-cache keying bug: the signature must be
/// name-insensitive, so the *same* LSTM workload built twice with different
/// buffer and nest names compiles exactly once.
#[test]
fn renamed_lstm_workload_compiles_once() {
    let shape = lstm::LstmShape {
        batch: 2,
        hidden: 8,
        depth: 2,
        seq: 3,
    };
    let first = lstm::program(shape);
    let mut renamed = first.clone();
    renamed.name = "stacked_lstm_v2".into();
    for (i, b) in renamed.buffers.iter_mut().enumerate() {
        b.name = format!("tenant_b_buf{i}");
    }
    for (i, n) in renamed.nests.iter_mut().enumerate() {
        n.name = format!("tenant_b_nest{i}");
    }
    let inputs = lstm::inputs(shape, 11);

    let rt = Runtime::new(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let a = rt.run(&first, inputs.clone()).unwrap();
    let b = rt.run(&renamed, inputs.clone()).unwrap();
    assert_eq!(a, b, "same structure + same inputs must agree exactly");

    let stats = rt.stats();
    assert_eq!(
        stats.cache_misses, 1,
        "renamed resubmission must reuse the cached plan, not recompile"
    );
    assert!(stats.cache_hits >= 1);
    assert_eq!(stats.cached_plans, 1);
}

/// Eight OS threads hammer one shared runtime with the same plan; every
/// output must be bitwise identical to the single-threaded reference
/// executor on that request's inputs.
#[test]
fn eight_threads_share_one_runtime_exactly() {
    let (n, d, l, h) = (2usize, 3, 4, 8);
    let rt = Arc::new(Runtime::new(ServeConfig {
        threads: 4,
        max_batch: 8,
        ..ServeConfig::default()
    }));
    let program = Arc::new(stacked_rnn_program(n, d, l, h));

    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let rt = Arc::clone(&rt);
            let program = Arc::clone(&program);
            std::thread::spawn(move || {
                for round in 0..3u64 {
                    let inputs = rnn_inputs(n, d, l, h, 100 * t + round);
                    let got = rt
                        .submit_wait(Request::new(Arc::clone(&program), inputs.clone()))
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert_eq!(
                        got,
                        reference(&program, &inputs),
                        "thread {t} round {round} diverged from the reference executor"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = rt.stats();
    assert_eq!(stats.completed, 24);
    // One base plan plus at most one fused variant per batch width 2..=8.
    assert!(
        stats.cache_misses <= 8,
        "24 same-structure requests should share plans; got {} compiles",
        stats.cache_misses
    );
}

/// A deadline-expired request returns `ServeError::Deadline` and leaves the
/// pool healthy: the next request on the same runtime is exact.
#[test]
fn deadline_does_not_poison_the_runtime() {
    let (n, d, l, h) = (2usize, 2, 3, 8);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let p = stacked_rnn_program(n, d, l, h);
    let inputs = rnn_inputs(n, d, l, h, 42);

    let expired = rt
        .submit_wait(Request::new(p.clone(), inputs.clone()).with_deadline(Duration::ZERO))
        .unwrap()
        .wait();
    assert_eq!(expired, Err(ServeError::Deadline));

    let got = rt.run(&p, inputs.clone()).unwrap();
    assert_eq!(got, reference(&p, &inputs));
}

/// Every evaluation workload is served through the one family path: two
/// concurrent submissions each equal a direct run of the exact-shape
/// compile, bit for bit, from one cached family. (All seven have a
/// polymorphic outer axis; `ft-serve`'s unit tests cover the one-extent
/// family.)
#[test]
fn every_workload_serves_through_its_family() {
    use ft_workloads::{attention, b2b, bigbird, dilated, grid, retnet};
    type Case = (Program, HashMap<BufferId, FractalTensor>);
    let cases: Vec<(&str, Case)> = vec![
        ("lstm", {
            let s = lstm::LstmShape::tiny();
            (lstm::program(s), lstm::inputs(s, 1))
        }),
        ("dilated", {
            let s = dilated::DilatedShape::tiny();
            (dilated::program(s), dilated::inputs(s, 2))
        }),
        ("grid", {
            let s = grid::GridShape::tiny();
            (grid::program(s), grid::inputs(s, 3))
        }),
        ("b2b", {
            let s = b2b::B2bShape::tiny();
            (b2b::program(s), b2b::inputs(s, 4))
        }),
        ("attention", {
            let s = attention::AttnShape::tiny();
            (attention::program(s), attention::inputs(s, 5))
        }),
        ("bigbird", {
            let s = bigbird::BigBirdShape::tiny();
            (bigbird::program(s), bigbird::inputs(s, 6))
        }),
        ("retnet", {
            let s = retnet::RetNetShape::tiny();
            (retnet::program(s), retnet::inputs(s, 7))
        }),
    ];
    for (name, (p, inputs)) in cases {
        assert!(ft_core::poly_split(&p).is_some(), "{name}");
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let want = ft_backend::Executor::new()
            .threads(2)
            .run(&compile(&p).unwrap(), &inputs)
            .unwrap();
        let tickets: Vec<_> = (0..2)
            .map(|_| {
                rt.submit_wait(Request::new(p.clone(), inputs.clone()))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap(), want, "{name}: served output differs");
        }
        let stats = rt.stats();
        assert_eq!((stats.cached_plans, stats.cache_misses), (1, 1), "{name}");
        assert_eq!(stats.batch_fallbacks, 0, "{name}");
    }
}

/// A fixed plan served through `Runtime` runs allocation-free once warm:
/// four concurrent clients never grow the executor's arena again, and no
/// extern leaf is ever cloned.
#[test]
fn fixed_plan_serves_without_arena_growth_after_warmup() {
    let (n, d, l, h) = (1usize, 2, 16, 8);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        batching: false,
        ..ServeConfig::default()
    });
    let program = Arc::new(stacked_rnn_program(n, d, l, h));
    rt.run(&program, rnn_inputs(n, d, l, h, 1)).unwrap();
    let warm = rt.stats();
    std::thread::scope(|s| {
        for c in 0..4u64 {
            let (rt, program) = (&rt, &program);
            s.spawn(move || {
                for r in 0..8u64 {
                    let inputs = rnn_inputs(n, d, l, h, 100 * c + r);
                    rt.run(program, inputs).unwrap();
                }
            });
        }
    });
    let stats = rt.stats();
    assert_eq!(stats.arena_acquires - warm.arena_acquires, 32);
    assert_eq!(
        stats.arena_grows, warm.arena_grows,
        "the arena grew after warm-up on a fixed plan"
    );
    assert_eq!(stats.leaf_clones, 0, "the runtime cloned an extern leaf");
}

/// Mixed-length traffic is served by one plan family: requests of six
/// outer extents cost one compile, and queued requests of different
/// lengths are fused into ragged batches.
#[test]
fn mixed_length_traffic_compiles_once_and_fuses_ragged() {
    let (d, l, h) = (1usize, 16, 4);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        max_batch: 16,
        ..ServeConfig::default()
    });
    let ws = FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 3).mul_scalar(0.2), 1).unwrap();
    let request = |n: usize, seed: u64| {
        let mut inputs = rnn_inputs(n, d, l, h, seed);
        inputs.insert(BufferId(1), ws.clone());
        (stacked_rnn_program(n, d, l, h), inputs)
    };
    // A long request of the same family (a different length bucket) holds
    // the scheduler while the mixed-length requests queue up behind it.
    let (long, long_inputs) = request(64, 1);
    let blocker = rt.submit_wait(Request::new(long, long_inputs)).unwrap();
    let queued: Vec<_> = (0..12u64)
        .map(|i| {
            let (p, inputs) = request(3 + i as usize % 6, 10 + i);
            let ticket = rt
                .submit_wait(Request::new(p.clone(), inputs.clone()))
                .unwrap();
            (p, inputs, ticket)
        })
        .collect();
    blocker.wait().unwrap();
    for (p, inputs, ticket) in queued {
        assert_eq!(ticket.wait().unwrap(), reference(&p, &inputs));
    }
    let stats = rt.stats();
    assert_eq!(
        (stats.cached_plans, stats.cache_misses),
        (1, 1),
        "one family must serve every length with one compile"
    );
    assert!(stats.batches >= 1, "no ragged batch was fused");
    assert!(
        stats.batched_requests > stats.batches,
        "mean ragged batch must exceed 1"
    );
}
