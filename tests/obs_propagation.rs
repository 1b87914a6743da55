//! Trace-context propagation through the serving pipeline: a fused batch
//! of k requests must yield exactly one attributed completion record per
//! request (shared batch id, per-request queue wait), and a fusion
//! fallback must attribute its legality failure to every affected
//! request. The exporter must carry the runtime's and the executor's
//! metrics to disk.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ft_core::builders::stacked_rnn_program;
use ft_core::{BufferId, FractalTensor};
use ft_obs::{CompletionRecord, CompletionStatus, Exporter, ExporterConfig, FuseDecision};
use ft_serve::{Request, Runtime, ServeConfig};
use ft_tensor::Tensor;

const SHAPE: (usize, usize, usize, usize) = (1, 2, 16, 8); // n, d, l, h

fn shared_weights(seed: u64) -> FractalTensor {
    let (_n, d, _l, h) = SHAPE;
    FractalTensor::from_flat(&Tensor::randn(&[d, h, h], seed).mul_scalar(0.2), 1).unwrap()
}

fn inputs(seed: u64, ws: &FractalTensor) -> HashMap<BufferId, FractalTensor> {
    let (n, _d, l, h) = SHAPE;
    let mut m = HashMap::new();
    m.insert(
        BufferId(0),
        FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], seed), 2).unwrap(),
    );
    m.insert(BufferId(1), ws.clone());
    m
}

/// Submits `k` requests from `k` threads released by one barrier so the
/// scheduler sees them queued together; returns the submitted ids and
/// the records drained afterwards.
fn burst(
    rt: &Arc<Runtime>,
    k: usize,
    seed0: u64,
    per_thread_ws: bool,
) -> (Vec<u64>, Vec<CompletionRecord>) {
    let (n, d, l, h) = SHAPE;
    let program = Arc::new(stacked_rnn_program(n, d, l, h));
    let barrier = Arc::new(Barrier::new(k));
    let shared = shared_weights(7);
    let ids: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..k as u64)
            .map(|c| {
                let rt = Arc::clone(rt);
                let program = Arc::clone(&program);
                let barrier = Arc::clone(&barrier);
                let ws = if per_thread_ws {
                    // Distinct weights per request: same plan signature,
                    // but batch-fusion legality must reject the group.
                    shared_weights(100 + c)
                } else {
                    shared.clone()
                };
                s.spawn(move || {
                    barrier.wait();
                    let req = Request::new(program, inputs(seed0 + c, &ws)).with_session(c);
                    let ticket = rt.submit_wait(req).unwrap();
                    let id = ticket.request_id();
                    ticket.wait().unwrap();
                    id
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (ids, rt.take_completions())
}

#[test]
fn fused_batch_yields_one_attributed_record_per_request() {
    let rt = Arc::new(Runtime::new(ServeConfig {
        threads: 2,
        batching: true,
        max_batch: 8,
        ..ServeConfig::default()
    }));
    // Warm the base plan so the timed bursts don't serialize on compile.
    let (n, d, l, h) = SHAPE;
    let program = Arc::new(stacked_rnn_program(n, d, l, h));
    let ws = shared_weights(7);
    rt.submit_wait(Request::new(Arc::clone(&program), inputs(999, &ws)))
        .unwrap()
        .wait()
        .unwrap();
    rt.take_completions();

    let k = 6;
    let mut fused_seen = false;
    for attempt in 0..20u64 {
        let (mut ids, records) = burst(&rt, k, 10_000 * (attempt + 1), false);
        assert_eq!(
            records.len(),
            k,
            "every request must produce exactly one completion record"
        );

        let mut rec_ids: Vec<u64> = records.iter().map(|r| r.ctx.request_id).collect();
        rec_ids.sort_unstable();
        ids.sort_unstable();
        assert_eq!(rec_ids, ids, "records must carry the submitted request ids");

        let sig = &records[0].ctx.plan_sig;
        assert_eq!(sig.len(), 32, "plan signature is 128-bit hex");
        for r in &records {
            assert_eq!(r.status, CompletionStatus::Ok);
            assert_eq!(&r.ctx.plan_sig, sig, "same program, same plan signature");
            assert!(r.ctx.session_id.is_some(), "session id must propagate");
            assert!(r.queue_wait_us >= 0.0);
            assert!(
                r.total_us >= r.exec_us,
                "end-to-end latency contains the launch: total {} < exec {}",
                r.total_us,
                r.exec_us
            );
        }

        // Batch attribution: every fused record names its launch, and the
        // number of records sharing that batch id equals the recorded
        // batch size.
        let mut by_batch: HashMap<u64, Vec<u32>> = HashMap::new();
        for r in &records {
            if let FuseDecision::Fused { size } = r.fuse {
                let id = r
                    .ctx
                    .batch_id
                    .expect("fused record must carry its batch id");
                by_batch.entry(id).or_default().push(size);
            } else {
                assert!(
                    r.ctx.batch_id.is_none(),
                    "unfused record must not claim a batch"
                );
            }
        }
        for (batch_id, sizes) in &by_batch {
            assert!(
                sizes.iter().all(|&s| s as usize == sizes.len()),
                "batch {batch_id}: sizes {sizes:?} disagree with member count {}",
                sizes.len()
            );
            if sizes.len() >= 2 {
                fused_seen = true;
            }
        }
        if fused_seen {
            break;
        }
    }
    assert!(
        fused_seen,
        "a barrier-released burst of {k} same-plan requests never fused in 20 attempts"
    );
    assert_eq!(rt.completions_dropped(), 0);
    rt.shutdown();
}

#[test]
fn fusion_fallback_attributes_the_reason_per_request() {
    let rt = Arc::new(Runtime::new(ServeConfig {
        threads: 2,
        batching: true,
        max_batch: 8,
        ..ServeConfig::default()
    }));
    let k = 4;
    let mut fallback_seen = false;
    for attempt in 0..20u64 {
        let (ids, records) = burst(&rt, k, 20_000 * (attempt + 1), true);
        assert_eq!(records.len(), k);
        for r in &records {
            assert_eq!(
                r.status,
                CompletionStatus::Ok,
                "fallback still serves the request"
            );
            if let FuseDecision::Fallback(reason) = &r.fuse {
                assert!(
                    reason.contains("differs across batch"),
                    "distinct weights must fail shared-input legality, got {reason:?}"
                );
                fallback_seen = true;
            }
        }
        // The runtime-local registry counts the fallback too.
        if fallback_seen {
            let snap = rt.metrics().snapshot();
            assert!(snap.counters["serve.batch_fallbacks"] >= 1);
            let _ = ids;
            break;
        }
    }
    assert!(
        fallback_seen,
        "bursts of same-plan requests with distinct weights never hit the fallback path"
    );
    rt.shutdown();
}

#[test]
fn unbatched_runtime_emits_solo_records() {
    let rt = Arc::new(Runtime::new(ServeConfig {
        threads: 2,
        batching: false,
        ..ServeConfig::default()
    }));
    let (ids, records) = burst(&rt, 3, 1, false);
    assert_eq!(records.len(), 3);
    let mut rec_ids: Vec<u64> = records.iter().map(|r| r.ctx.request_id).collect();
    rec_ids.sort_unstable();
    let mut ids = ids;
    ids.sort_unstable();
    assert_eq!(rec_ids, ids);
    for r in &records {
        assert_eq!(r.fuse, FuseDecision::Solo, "batching off means solo runs");
        assert!(r.ctx.batch_id.is_none());
        assert!(r.exec_us > 0.0, "solo exec time is measured per request");
    }
    assert_eq!(rt.completions_dropped(), 0);
    rt.shutdown();
}

/// An `ft_obs::Exporter` over a serving `Runtime` writes what a scrape
/// needs: the serve latency histogram, the completion counter and the
/// executor's worker time in `metrics.prom`, and rows in `metrics.jsonl`.
#[test]
fn exporter_writes_serve_and_exec_metrics() {
    let dir = std::env::temp_dir().join(format!("ft-obs-exporter-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let mut exporter = Exporter::spawn(
        vec![rt.metrics()],
        true,
        ExporterConfig {
            interval: Duration::from_millis(50),
            jsonl_path: Some(dir.join("metrics.jsonl")),
            prom_path: Some(dir.join("metrics.prom")),
        },
    );
    let (n, d, l, h) = SHAPE;
    let program = stacked_rnn_program(n, d, l, h);
    let ws = shared_weights(7);
    for seed in 0..4 {
        rt.run(&program, inputs(seed, &ws)).unwrap();
    }
    // Stopping flushes once more, after the last request.
    exporter.stop();
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
    for name in [
        "serve_latency_us_bucket",
        "serve_completed",
        "exec_worker_busy_ns",
    ] {
        assert!(
            prom.lines().any(|line| line.starts_with(name)),
            "{name} missing from metrics.prom"
        );
    }
    let jsonl = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
    assert!(!jsonl.trim().is_empty(), "metrics.jsonl has no rows");
    let _ = std::fs::remove_dir_all(&dir);
}
