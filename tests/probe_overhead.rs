//! Overhead microbenchmark for the sharded span collector: recording
//! spans on an 8-thread stacked-RNN run must stay cheap, because each
//! recording thread appends to its own uncontended shard. Plus the check
//! that the always-on worker-time counter agrees with the spans' fields.
//!
//! The sharded design targets ~3% enabled-span overhead on release
//! builds; this test asserts a looser bound that holds on unoptimized
//! builds and noisy shared runners (run it with `--release` for the
//! strict check, as the CI observability job does). It lives in its own
//! integration-test binary so toggling the global span state cannot
//! race with unrelated tests in the same process.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use ft_backend::Executor;
use ft_core::builders::stacked_rnn_program;
use ft_core::{BufferId, FractalTensor};
use ft_passes::compile;
use ft_tensor::Tensor;

/// Serializes every test in this binary that runs the executor: they
/// toggle span recording and read global counter deltas.
static LOCK: Mutex<()> = Mutex::new(());

fn rnn_inputs(n: usize, d: usize, l: usize, h: usize) -> HashMap<BufferId, FractalTensor> {
    let mut inputs = HashMap::new();
    inputs.insert(
        BufferId(0),
        FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], 3), 2).unwrap(),
    );
    inputs.insert(
        BufferId(1),
        FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 4).mul_scalar(0.2), 1).unwrap(),
    );
    inputs
}

/// Minimum over the reps: the standard noise-robust estimator for
/// microbenchmarks — scheduler interference only ever adds time, so the
/// fastest observation is the closest to the true cost.
fn best(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

#[test]
fn enabled_probe_overhead_stays_small_on_8_threads() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, d, l, h) = (2usize, 4, 64, 16);
    let compiled = compile(&stacked_rnn_program(n, d, l, h)).unwrap();
    let inputs = rnn_inputs(n, d, l, h);
    let exec = Executor::new().threads(8);

    let time_runs = |reps: usize| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                exec.run(&compiled, &inputs).unwrap();
                t0.elapsed().as_secs_f64()
            })
            .collect()
    };

    // Warm up: plan, arena, worker pool, page cache.
    ft_obs::disable();
    let _ = time_runs(2);

    // Release target is the sharded design's ~3%; allow scheduler noise on
    // top of it, and a much looser bound for unoptimized builds where the
    // per-event record cost is not representative. A burst of interference
    // landing on exactly one side of the comparison can still push one
    // measurement over the bound on a loaded single-core host, so the
    // whole measurement retries before the test fails.
    let bound = if cfg!(debug_assertions) { 0.60 } else { 0.15 };
    let reps = 7;
    let mut last = (f64::NAN, f64::NAN, f64::INFINITY);
    for attempt in 0..3 {
        ft_obs::disable();
        let disabled = best(time_runs(reps));

        ft_obs::enable();
        let _ = time_runs(1); // first enabled run pays shard registration
        let enabled = best(time_runs(reps));
        let snap = ft_obs::take();
        ft_obs::disable();

        assert!(
            !snap.events.is_empty(),
            "enabled runs must actually record spans, else the comparison is vacuous"
        );
        let overhead = enabled / disabled - 1.0;
        eprintln!(
            "span overhead on 8-thread stacked_rnn (attempt {attempt}): \
             disabled {:.3} ms, enabled {:.3} ms ({:+.2}%)",
            disabled * 1e3,
            enabled * 1e3,
            overhead * 100.0
        );
        if overhead < bound {
            return;
        }
        last = (disabled, enabled, overhead);
    }
    let (disabled, enabled, overhead) = last;
    panic!(
        "enabled-span overhead {:.1}% exceeds {:.0}% bound on every attempt \
         (last: disabled {:.3} ms, enabled {:.3} ms)",
        overhead * 100.0,
        bound * 100.0,
        disabled * 1e3,
        enabled * 1e3
    );
}

/// `exec.worker_busy_ns` sums every step's busy time without truncation:
/// over 1-thread runs of tiny steps its delta matches the sum of the
/// `wavefront_step` spans' `busy_us` fields within 1%.
#[test]
fn worker_busy_counter_matches_step_spans() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (n, d, l, h) = (1usize, 2, 256, 16);
    let compiled = compile(&stacked_rnn_program(n, d, l, h)).unwrap();
    let inputs = rnn_inputs(n, d, l, h);
    let exec = Executor::new().threads(1);
    exec.run(&compiled, &inputs).unwrap();

    let busy_ns = ft_obs::Registry::global().counter("exec.worker_busy_ns");
    ft_obs::enable();
    let _ = ft_obs::take();
    let before = busy_ns.get();
    for _ in 0..50 {
        exec.run(&compiled, &inputs).unwrap();
    }
    let counted_us = (busy_ns.get() - before) as f64 / 1e3;
    let spans = ft_obs::take();
    ft_obs::disable();

    let span_us: f64 = spans
        .events
        .iter()
        .filter(|e| e.name == "wavefront_step")
        .flat_map(|e| &e.fields)
        .filter_map(|(k, v)| match (k.as_str(), v) {
            ("busy_us", ft_obs::FieldValue::F64(us)) => Some(*us),
            _ => None,
        })
        .sum();
    assert!(span_us > 0.0, "no wavefront_step spans recorded");
    let rel = (counted_us - span_us).abs() / span_us;
    eprintln!("busy: counter {counted_us:.1} us, spans {span_us:.1} us ({rel:.4} rel)");
    assert!(
        rel < 0.01,
        "exec.worker_busy_ns {counted_us:.1} us vs spans {span_us:.1} us"
    );
}
