//! End-to-end observability artifact generator.
//!
//! Runs one workload through the full stack — compile pipeline, wavefront
//! executor, and the simulator strategy sweep — with `ft_obs` spans
//! enabled, then writes:
//!
//! * `trace.json` — a Chrome/Perfetto trace (open in
//!   <https://ui.perfetto.dev>): pipeline-pass spans, per-launch-group and
//!   per-wavefront-step executor spans with worker busy/idle tracks, and
//!   per-kernel roofline events on the simulated-time process track,
//! * `metrics.json` — the merged registries as one [`ft_obs::json_row`]
//!   (the global registry, plus the serving runtime's on `serve`), with
//!   the run's `meta` and a per-span-name count/total/max under `spans`,
//! * one JSON line per simulated strategy on stdout.
//!
//! Usage:
//!
//! ```text
//! FT_TRACE=1 cargo run --release -p ft-bench --bin trace_report -- stacked_lstm [out_dir]
//! ```
//!
//! The binary is the trace tool, so it also enables spans itself —
//! `FT_TRACE=1` is honored but not required. Workloads: `stacked_lstm`,
//! `dilated`, `grid`, `b2b`, `attention`, `bigbird`, `retnet`, or `all`.
//! Shapes are the reduced `tiny()` configurations so the CPU execution
//! stays fast; simulator events still reflect the full strategy sweep.

use std::collections::{BTreeMap, HashMap};

use ft_backend::execute;
use ft_core::adt::FractalTensor;
use ft_core::{BufferId, Program};
use ft_obs::{chrome_trace, json_row, Registry, RegistrySnapshot};
use ft_passes::compile;
use ft_workloads::{attention, b2b, bigbird, dilated, grid, lstm, retnet};
use ft_workloads::{SimReport, Strategy};
use serde_json::{json, Map, Value};

const WORKLOADS: &[&str] = &[
    "stacked_lstm",
    "dilated",
    "grid",
    "b2b",
    "attention",
    "bigbird",
    "retnet",
    "serve",
];
const THREADS: usize = 4;
const SEED: u64 = 7;

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| "stacked_lstm".to_string());
    let out_dir = args.next().unwrap_or_else(|| "target/trace".to_string());

    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload.as_str()]
    } else {
        eprintln!(
            "unknown workload '{workload}'; expected one of {} or 'all'",
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };

    // This binary *is* the trace tool: enable spans regardless of
    // FT_TRACE, and start from a drained collector.
    ft_obs::enable();
    let _ = ft_obs::take();

    let mut sim_rows = Vec::new();
    let mut metrics = RegistrySnapshot::default();
    for name in &names {
        if let Err(e) = run_workload(name, &mut sim_rows, &mut metrics) {
            eprintln!("workload '{name}' failed: {e}");
            std::process::exit(1);
        }
    }

    let spans = ft_obs::take();
    metrics.merge(&Registry::global().snapshot());
    let trace = chrome_trace(&spans, &metrics);

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        std::process::exit(1);
    }
    let trace_path = format!("{out_dir}/trace.json");
    let metrics_path = format!("{out_dir}/metrics.json");
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let mut report = json_row(&metrics, unix_ms);
    let span_names = span_stats(&spans);
    let names_count = span_names.len();
    if let Value::Object(m) = &mut report {
        let meta = json!({
            "workload": workload.as_str(),
            "threads": THREADS as u64,
            "shape": "tiny",
            "trace_file": trace_path.as_str(),
        });
        m.insert("meta".to_string(), meta);
        m.insert("spans".to_string(), Value::Object(span_names));
    }
    let trace_text = serde_json::to_string_pretty(&trace).expect("serialize trace");
    let metrics_text = serde_json::to_string_pretty(&report).expect("serialize metrics");
    let wrote = std::fs::write(&trace_path, trace_text)
        .and_then(|()| std::fs::write(&metrics_path, metrics_text));
    if let Err(e) = wrote {
        eprintln!("cannot write artifacts under {out_dir}: {e}");
        std::process::exit(1);
    }

    for row in &sim_rows {
        println!("{row}");
    }
    eprintln!(
        "wrote {trace_path} ({} events) and {metrics_path} ({} counters, {names_count} span names)",
        spans.events.len(),
        metrics.counters.len(),
    );
    let fusion = |k: &str| metrics.counters.get(k).copied().unwrap_or(0);
    eprintln!(
        "fusion: applied {} rejected {} tmp elems saved {}",
        fusion("passes.fusion_applied"),
        fusion("passes.fusion_rejected"),
        fusion("passes.fusion_tmp_elems_saved"),
    );
}

/// Count, total and longest duration per `category/name` of span.
fn span_stats(spans: &ft_obs::Snapshot) -> Map {
    let mut stats: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for e in &spans.events {
        let s = stats.entry(format!("{}/{}", e.cat, e.name)).or_default();
        s.0 += 1;
        s.1 += e.dur_us;
        s.2 = s.2.max(e.dur_us);
    }
    stats
        .into_iter()
        .map(|(k, (count, total_us, max_us))| {
            let stat = json!({ "count": count, "total_us": total_us, "max_us": max_us });
            (k, stat)
        })
        .collect()
}

/// Compiles, executes, and strategy-sweeps one workload with spans on.
/// The `serve` workload merges its runtime's registry into `metrics`.
fn run_workload(
    name: &str,
    sim_rows: &mut Vec<Value>,
    metrics: &mut RegistrySnapshot,
) -> Result<(), String> {
    match name {
        "stacked_lstm" => {
            let s = lstm::LstmShape::tiny();
            trace_one(name, lstm::program(s), lstm::inputs(s, SEED), |strat| {
                Some(lstm::simulate(s, strat))
            })
        }
        "dilated" => {
            let s = dilated::DilatedShape::tiny();
            trace_one(
                name,
                dilated::program(s),
                dilated::inputs(s, SEED),
                |strat| dilated::simulate(s, strat),
            )
        }
        "grid" => {
            let s = grid::GridShape::tiny();
            trace_one(name, grid::program(s), grid::inputs(s, SEED), |strat| {
                grid::simulate(s, strat)
            })
        }
        "b2b" => {
            let s = b2b::B2bShape::tiny();
            trace_one(name, b2b::program(s), b2b::inputs(s, SEED), |strat| {
                b2b::simulate(s, strat)
            })
        }
        "attention" => {
            let s = attention::AttnShape::tiny();
            trace_one(
                name,
                attention::program(s),
                attention::inputs(s, SEED),
                |strat| attention::simulate(s, strat),
            )
        }
        "bigbird" => {
            let s = bigbird::BigBirdShape::tiny();
            trace_one(
                name,
                bigbird::program(s),
                bigbird::inputs(s, SEED),
                |strat| bigbird::simulate(s, strat),
            )
        }
        "retnet" => {
            let s = retnet::RetNetShape::tiny();
            trace_one(name, retnet::program(s), retnet::inputs(s, SEED), |strat| {
                retnet::simulate(s, strat)
            })
        }
        "serve" => trace_serve().map(|runtime| {
            metrics.merge(&runtime);
            Vec::new()
        }),
        other => Err(format!("unhandled workload '{other}'")),
    }
    .map(|rows| sim_rows.extend(rows))
}

/// A short serving session: concurrent same-plan requests through one
/// runtime. Returns the runtime's registry, whose `serve.*` queue-depth /
/// batch-size / latency / setup metrics land in metrics.json next to the
/// executor's and `passes.plan_*` (global).
fn trace_serve() -> Result<RegistrySnapshot, String> {
    use ft_core::builders::stacked_rnn_program;
    use ft_serve::{Request, Runtime, ServeConfig};
    use ft_tensor::Tensor;
    use std::sync::Arc;

    let mut wspan = ft_obs::span("trace", "workload");
    wspan.field("workload", "serve");

    let (n, d, l, h) = (1usize, 2, 32, 16);
    let program = Arc::new(stacked_rnn_program(n, d, l, h));
    let ws = FractalTensor::from_flat(&Tensor::randn(&[d, h, h], SEED).mul_scalar(0.2), 1)
        .map_err(|e| format!("weights: {e}"))?;
    let rt = Runtime::try_new(ServeConfig {
        threads: THREADS,
        max_batch: 4,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve runtime: {e}"))?;
    let mut tickets = Vec::new();
    for round in 0..8u64 {
        let xss = FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], SEED + round), 2)
            .map_err(|e| format!("inputs: {e}"))?;
        let mut inputs = HashMap::new();
        inputs.insert(BufferId(0), xss);
        inputs.insert(BufferId(1), ws.clone());
        tickets.push(
            rt.submit_wait(Request::new(Arc::clone(&program), inputs))
                .map_err(|e| format!("submit: {e}"))?,
        );
    }
    for t in tickets {
        t.wait().map_err(|e| format!("serve: {e}"))?;
    }
    let stats = rt.stats();
    wspan.field("completed", stats.completed);
    wspan.field("batches", stats.batches);
    Ok(rt.metrics().snapshot())
}

/// Compile + execute + simulate one workload; returns the per-strategy
/// JSON rows for stdout.
fn trace_one(
    name: &str,
    program: Program,
    inputs: HashMap<BufferId, FractalTensor>,
    simulate: impl Fn(Strategy) -> Option<SimReport>,
) -> Result<Vec<Value>, String> {
    let mut wspan = ft_obs::span("trace", "workload");
    wspan.field("workload", name);

    let compiled = compile(&program).map_err(|e| format!("compile: {e}"))?;
    // Legality check between compile and execute; its span and `verify.*`
    // counters land in trace.json / metrics.json alongside the executor's.
    let vreport = ft_verify::verify(&compiled).map_err(|e| format!("verify: {e}"))?;
    wspan.field("verify_maps", vreport.maps);
    wspan.field("verify_points", vreport.points);
    let outputs = execute(&compiled, &inputs, THREADS).map_err(|e| format!("execute: {e}"))?;
    wspan.field("outputs", outputs.len());

    let mut rows = Vec::new();
    for strat in Strategy::ALL {
        let mut sspan = ft_obs::span("trace", "simulate");
        sspan.field("workload", name);
        sspan.field("strategy", strat.short());
        if let Some(r) = simulate(strat) {
            rows.push(json!({
                "workload": name,
                "strategy": strat.short(),
                "ms": r.ms,
                "dram_gb": r.traffic.dram_gb(),
                "l2_gb": r.traffic.l2_gb(),
                "l1_gb": r.traffic.l1_gb(),
                "kernels": r.kernels,
            }));
        }
    }
    Ok(rows)
}
