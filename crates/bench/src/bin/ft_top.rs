//! `ft-top`: a live terminal view of the serving runtime's observability
//! registries — the `top(1)` of the FractalTensor serve path.
//!
//! ```text
//! cargo run --release -p ft-bench --bin ft_top                  # demo load, refresh 1s
//! cargo run --release -p ft-bench --bin ft_top -- --ticks 5     # stop after 5 frames
//! cargo run --release -p ft-bench --bin ft_top -- --interval-ms 250
//! cargo run --release -p ft-bench --bin ft_top -- --follow target/obs/metrics.jsonl
//! ```
//!
//! Demo mode spins an in-process [`ft_serve::Runtime`] plus closed-loop
//! client threads, then samples the runtime-local registry (`serve.*`)
//! merged with the global one (`exec.*`, `pool.*`, `passes.*`) every
//! interval. `--follow FILE` instead tails the last row of an exporter's
//! `metrics.jsonl` (see [`ft_obs::Exporter`]), so it can watch a process it
//! isn't linked into.
//!
//! Each frame shows request throughput (delta of `serve.completed`),
//! exact-bucket latency percentiles, the point-in-time queue depth gauge,
//! the realized batch-size distribution, worker busy/idle share over the
//! interval, arena high-water/growth, and the session row (active
//! sessions, pinned state bytes, decode tokens/sec) — the signals the
//! dynamic batcher's behavior is legible from.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_core::builders::stacked_rnn_program;
use ft_core::{BufferId, FractalTensor};
use ft_obs::{json_row, RegistrySnapshot};
use ft_serve::{Request, Runtime, ServeConfig};
use ft_tensor::Tensor;
use serde_json::Value;

/// Demo workload: narrow stacked RNN, one short sequence per request.
const SHAPE: (usize, usize, usize, usize) = (1, 2, 64, 16); // n, d, l, h

/// One histogram's summary, uniform across both data sources.
#[derive(Debug, Clone, Default)]
struct HistView {
    count: u64,
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

/// One frame's worth of metric state, from either a live registry
/// snapshot or a parsed `metrics.jsonl` row.
#[derive(Debug, Clone, Default)]
struct View {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, HistView>,
    /// `(upper_bound, count)` of the batch-size histogram; only available
    /// from live snapshots (the JSONL row carries quantiles, not buckets).
    batch_buckets: Vec<(f64, u64)>,
}

impl View {
    /// A live snapshot goes through the same JSON row an exporter writes,
    /// so both sources render identically; only the batch-size buckets
    /// (absent from the row) are taken from the snapshot directly.
    fn from_snapshot(snap: &RegistrySnapshot) -> View {
        let batch_buckets = snap
            .hists
            .get("serve.batch_size")
            .map(|h| h.nonzero_buckets())
            .unwrap_or_default();
        View {
            batch_buckets,
            ..View::from_json_row(&json_row(snap, 0))
        }
    }

    fn from_json_row(row: &Value) -> View {
        let mut v = View::default();
        if let Some(obj) = row["counters"].as_object() {
            for (k, val) in obj {
                if let Some(n) = val.as_u64() {
                    v.counters.insert(k.clone(), n);
                }
            }
        }
        if let Some(obj) = row["gauges"].as_object() {
            for (k, val) in obj {
                if let Some(n) = val.as_i64() {
                    v.gauges.insert(k.clone(), n);
                }
            }
        }
        if let Some(obj) = row["histograms"].as_object() {
            for (k, h) in obj {
                v.hists.insert(
                    k.clone(),
                    HistView {
                        count: h["count"].as_u64().unwrap_or(0),
                        mean: h["mean"].as_f64().unwrap_or(0.0),
                        p50: h["p50"].as_f64().unwrap_or(0.0),
                        p95: h["p95"].as_f64().unwrap_or(0.0),
                        p99: h["p99"].as_f64().unwrap_or(0.0),
                    },
                );
            }
        }
        v
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    fn hist(&self, name: &str) -> HistView {
        self.hists.get(name).cloned().unwrap_or_default()
    }
}

fn delta(now: &View, prev: &View, name: &str) -> u64 {
    now.counter(name).saturating_sub(prev.counter(name))
}

fn render(now: &View, prev: &View, dt: f64, source: &str, frame: String) {
    // Clear screen, home cursor. Harmless when redirected to a file.
    print!("\x1b[2J\x1b[H");
    println!("ft-top — FractalTensor serving runtime   [{source}]   {frame}");
    println!();

    let completed = delta(now, prev, "serve.completed");
    let rps = if dt > 0.0 { completed as f64 / dt } else { 0.0 };
    println!(
        "  requests   {:8.1} rps    completed {:<8} failed {:<4} deadline {:<4} rejected {}",
        rps,
        now.counter("serve.completed"),
        now.counter("serve.failed"),
        now.counter("serve.deadline_expired"),
        now.counter("serve.rejected"),
    );

    let lat = now.hist("serve.latency_us");
    println!(
        "  latency    p50 {:8.3} ms   p95 {:8.3} ms   p99 {:8.3} ms   (n={})",
        lat.p50 / 1e3,
        lat.p95 / 1e3,
        lat.p99 / 1e3,
        lat.count,
    );
    let qw = now.hist("serve.queue_wait_us");
    println!(
        "  queue      depth {:<5} wait p50 {:8.3} ms   p99 {:8.3} ms",
        now.gauge("serve.queue_depth"),
        qw.p50 / 1e3,
        qw.p99 / 1e3,
    );

    let batches = now.counter("serve.batches");
    let bh = now.hist("serve.batch_size");
    println!(
        "  batching   batches {:<6} fused reqs {:<6} fallbacks {:<4} ragged fb {:<4} mean batch {:.2}",
        batches,
        now.counter("serve.batched_requests"),
        now.counter("serve.batch_fallbacks"),
        now.counter("serve.batch_ragged_fallback"),
        bh.mean,
    );
    if !now.batch_buckets.is_empty() {
        let peak = now
            .batch_buckets
            .iter()
            .map(|&(_, n)| n)
            .max()
            .unwrap_or(1)
            .max(1);
        println!("  batch size distribution (bucket upper bound → launches):");
        for &(le, n) in &now.batch_buckets {
            let width = ((n as f64 / peak as f64) * 30.0).ceil() as usize;
            println!("    ≤{:6.1}  {:30}  {}", le, "█".repeat(width), n);
        }
    }

    let busy = delta(now, prev, "exec.worker_busy_ns") as f64;
    let idle = delta(now, prev, "exec.worker_idle_ns") as f64;
    let busy_pct = if busy + idle > 0.0 {
        100.0 * busy / (busy + idle)
    } else {
        0.0
    };
    println!(
        "  workers    {:<3} threads   busy {:5.1}%   idle {:5.1}%   wavefront steps {}",
        now.gauge("exec.workers"),
        busy_pct,
        100.0 - busy_pct,
        now.counter("exec.wavefront_steps"),
    );
    println!(
        "  arena      high-water {:<4} grows {:<4} reused {:<6} acquires {}",
        now.gauge("exec.arena_high_water"),
        now.counter("exec.arena_grows"),
        now.counter("exec.arena_reused"),
        now.counter("exec.arena_acquires"),
    );
    println!(
        "  plan cache hits {:<6} misses {:<4}   leaf borrows {}",
        now.counter("passes.plan_cache_hits"),
        now.counter("passes.plan_cache_misses"),
        now.counter("exec.leaf_borrows"),
    );
    println!(
        "  fusion     applied {:<5} rejected {:<4} tmp elems saved {}",
        now.counter("passes.fusion_applied"),
        now.counter("passes.fusion_rejected"),
        now.counter("passes.fusion_tmp_elems_saved"),
    );
    println!(
        "  health     restarts {:<3} shed {:<5} retries {:<5} bisections {:<4} stalled {}",
        now.counter("serve.scheduler_restarts"),
        now.counter("serve.shed"),
        now.counter("serve.retries"),
        now.counter("serve.batch_bisections"),
        now.counter("serve.stalled"),
    );
    println!(
        "  quarantine plans {:<3} trips {:<4} rejected {:<5} probes {}",
        now.gauge("serve.quarantined_plans"),
        now.counter("serve.quarantine_trips"),
        now.counter("serve.quarantine_rejected"),
        now.counter("serve.quarantine_probes"),
    );
    let decoded = delta(now, prev, "serve.decode_steps");
    let tps = if dt > 0.0 { decoded as f64 / dt } else { 0.0 };
    println!(
        "  sessions   active {:<4} pinned {:<9} B  {:8.1} tok/s   state copies {:<4} evictions {}",
        now.gauge("serve.sessions_active"),
        now.gauge("serve.pinned_bytes"),
        tps,
        now.counter("serve.state_copies"),
        now.counter("serve.session_evictions"),
    );
    println!(
        "  pool       workers {:<3} spawn failures {:<3} replacements {}",
        now.gauge("pool.workers"),
        now.counter("pool.spawn_failures"),
        now.counter("serve.pool_replacements"),
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}

fn demo_inputs(seed: u64, ws: &FractalTensor) -> HashMap<BufferId, FractalTensor> {
    let (n, _d, l, h) = SHAPE;
    let mut m = HashMap::new();
    m.insert(
        BufferId(0),
        FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], seed), 2).unwrap(),
    );
    m.insert(BufferId(1), ws.clone());
    m
}

/// Demo mode: an in-process runtime plus closed-loop clients, sampled live.
fn run_demo(ticks: u64, interval: Duration) {
    let (n, d, l, h) = SHAPE;
    let program = Arc::new(stacked_rnn_program(n, d, l, h));
    let ws = FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 8).mul_scalar(0.2), 1).unwrap();

    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2)
        .min(4);
    let rt = Arc::new(
        Runtime::try_new(ServeConfig {
            threads,
            batching: true,
            max_batch: 8,
            ..ServeConfig::default()
        })
        .expect("ft-top demo runtime construction"),
    );
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for c in 0..4u64 {
            let rt = Arc::clone(&rt);
            let program = Arc::clone(&program);
            let ws = ws.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut seed = c * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    seed += 1;
                    let req =
                        Request::new(Arc::clone(&program), demo_inputs(seed, &ws)).with_session(c);
                    match rt.submit_wait(req) {
                        Ok(ticket) => {
                            let _ = ticket.wait();
                        }
                        Err(_) => break,
                    }
                }
            });
        }

        let mut prev = View::default();
        let mut prev_t = Instant::now();
        let mut tick = 0u64;
        loop {
            std::thread::sleep(interval);
            let mut snap = rt.metrics().snapshot();
            snap.merge(&ft_obs::Registry::global().snapshot());
            let now = View::from_snapshot(&snap);
            let dt = prev_t.elapsed().as_secs_f64();
            tick += 1;
            let frame = if ticks > 0 {
                format!("frame {tick}/{ticks}")
            } else {
                format!("frame {tick}")
            };
            render(&now, &prev, dt, "demo", frame);
            // Drain completion records so the bounded trace ring never
            // reports drops during long demo runs.
            let drained = rt.take_completions().len();
            println!("  completions drained this frame: {drained}");
            prev = now;
            prev_t = Instant::now();
            if ticks > 0 && tick >= ticks {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    rt.shutdown();
}

/// Follow mode: re-read the last rows of an exporter's `metrics.jsonl`.
fn run_follow(path: &str, ticks: u64, interval: Duration) {
    let mut prev = View::default();
    let mut prev_ms: u64 = 0;
    let mut tick = 0u64;
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let last = text.lines().rev().find(|l| !l.trim().is_empty());
        if let Some(line) = last {
            if let Ok(row) = serde_json::from_str::<Value>(line) {
                let now_ms = row["ts_unix_ms"].as_u64().unwrap_or(0);
                let dt = if prev_ms > 0 && now_ms > prev_ms {
                    (now_ms - prev_ms) as f64 / 1e3
                } else {
                    interval.as_secs_f64()
                };
                let now = View::from_json_row(&row);
                tick += 1;
                let frame = if ticks > 0 {
                    format!("frame {tick}/{ticks}")
                } else {
                    format!("frame {tick}")
                };
                render(&now, &prev, dt, path, frame);
                prev = now;
                prev_ms = now_ms;
            }
        } else {
            eprintln!("ft-top: waiting for rows in {path} ...");
        }
        if ticks > 0 && tick >= ticks {
            break;
        }
        std::thread::sleep(interval);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let ticks: u64 = flag("--ticks").and_then(|v| v.parse().ok()).unwrap_or(0);
    let interval_ms: u64 = flag("--interval-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let interval = Duration::from_millis(interval_ms.max(10));

    match flag("--follow") {
        Some(path) => run_follow(&path, ticks, interval),
        None => run_demo(ticks, interval),
    }
}

/// Follow mode renders what an exporter writes: a `metrics.jsonl` row of
/// `ft_obs::json_row`, read back through `View::from_json_row`.
#[test]
fn follow_view_reads_an_exporter_row() {
    let r = ft_obs::Registry::new();
    r.counter_add("serve.completed", 12);
    r.gauge_set("serve.queue_depth", 3);
    for v in [10.0, 20.0, 30.0] {
        r.observe("serve.latency_us", v);
    }
    let line = json_row(&r.snapshot(), 1_000).to_string();
    let view = View::from_json_row(&serde_json::from_str(&line).unwrap());
    assert_eq!(view.counter("serve.completed"), 12);
    assert_eq!(view.gauge("serve.queue_depth"), 3);
    let lat = view.hist("serve.latency_us");
    assert_eq!(lat.count, 3);
    assert!(lat.p50 > 0.0 && lat.p99 >= lat.p50 && lat.mean > 0.0);
}
