//! `bench_compare`: the perf-regression gate. Diffs a current bench
//! report against a committed baseline and fails (exit 1) when a
//! headline metric regresses by more than the threshold.
//!
//! ```text
//! cargo run --release -p ft-bench --bin bench_compare -- \
//!     --baseline BENCH_exec.json --current target/BENCH_exec.json --threshold 0.15
//! cargo run --release -p ft-bench --bin bench_compare -- --self-test
//! ```
//!
//! Only *ratio* metrics are gated — quantities that divide out the host's
//! absolute speed and should reproduce across machines:
//!
//! * `exec` reports: per-row `speedup` (pooled executor vs reference
//!   interpreter), matched on `(workload, threads)`.
//! * `serve` reports: `setup.speedup` (cold compile+verify vs cached plan
//!   lookup) and `batched_vs_unbatched_throughput`.
//!
//! Rows present only in the baseline (e.g. a full baseline diffed against
//! a `--smoke` run) are reported as skipped, not failed; the gate demands
//! at least one comparable metric so an empty intersection cannot pass
//! vacuously. Absolute times (`gemm` ms, raw rps) are intentionally not
//! gated. `--self-test` verifies the gate itself: it injects a synthetic
//! ~20% regression in-process and asserts detection at the 15% threshold,
//! and asserts that an unchanged report passes.

use serde_json::Value;

/// One comparable metric extracted from a report pair.
#[derive(Debug, Clone)]
struct MetricCmp {
    name: String,
    baseline: f64,
    current: f64,
    /// Compare on `log10` of the values instead of linearly. Used for
    /// metrics whose headline claim is an order of magnitude (plan-cache
    /// setup amortization, where the cached-lookup denominator is a few
    /// microseconds and linear run-to-run noise spans several x).
    log_scale: bool,
}

impl MetricCmp {
    /// Fractional change, positive = improvement (all gated metrics are
    /// higher-is-better ratios).
    fn change(&self) -> f64 {
        if self.baseline <= 0.0 || self.current <= 0.0 {
            return 0.0;
        }
        if self.log_scale {
            let b = self.baseline.log10();
            if b.abs() < f64::EPSILON {
                return 0.0;
            }
            self.current.log10() / b - 1.0
        } else {
            self.current / self.baseline - 1.0
        }
    }
}

/// Extracts the gated metrics common to both reports, plus the names of
/// baseline metrics the current report is missing (skipped).
fn extract(baseline: &Value, current: &Value) -> Result<(Vec<MetricCmp>, Vec<String>), String> {
    let kind = baseline["bench"].as_str().unwrap_or("");
    if current["bench"].as_str().unwrap_or("") != kind {
        return Err(format!(
            "bench kind mismatch: baseline {:?} vs current {:?}",
            baseline["bench"], current["bench"]
        ));
    }
    let mut metrics = Vec::new();
    let mut skipped = Vec::new();
    match kind {
        "exec" => {
            let rows = |v: &Value| -> Vec<(String, u64, f64)> {
                v["exec"]
                    .as_array()
                    .map(|rows| {
                        rows.iter()
                            .filter_map(|r| {
                                Some((
                                    r["workload"].as_str()?.to_string(),
                                    r["threads"].as_u64()?,
                                    r["speedup"].as_f64()?,
                                ))
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let cur = rows(current);
            for (workload, threads, base_speedup) in rows(baseline) {
                let name = format!("exec.speedup[{workload}, threads={threads}]");
                match cur.iter().find(|(w, t, _)| *w == workload && *t == threads) {
                    Some(&(_, _, cur_speedup)) => metrics.push(MetricCmp {
                        name,
                        baseline: base_speedup,
                        current: cur_speedup,
                        log_scale: false,
                    }),
                    None => skipped.push(name),
                }
            }
            // Per-kernel SIMD speedup from the roofline sweep: the ratio of
            // the native-mode rate over the scalar rate for the same kernel.
            // Same-machine ratio, so it divides out absolute host speed; a
            // scalar-only host produces no native rows and the kernels are
            // skipped rather than failed.
            let simd = |v: &Value| -> Vec<(String, f64)> {
                let rows = v["roofline"].as_array().cloned().unwrap_or_default();
                let rate = |kernel: &str, want_scalar: bool| -> Option<f64> {
                    rows.iter()
                        .find(|r| {
                            r["kernel"].as_str() == Some(kernel)
                                && (r["mode"].as_str() == Some("scalar")) == want_scalar
                        })
                        .and_then(|r| r["rate"].as_f64())
                        .filter(|x| *x > 0.0)
                };
                let mut seen = Vec::new();
                let mut out = Vec::new();
                for r in &rows {
                    let Some(kernel) = r["kernel"].as_str() else {
                        continue;
                    };
                    if seen.iter().any(|k| k == kernel) {
                        continue;
                    }
                    seen.push(kernel.to_string());
                    if let (Some(s), Some(n)) = (rate(kernel, true), rate(kernel, false)) {
                        out.push((kernel.to_string(), n / s));
                    }
                }
                out
            };
            let cur_simd = simd(current);
            for (kernel, base_ratio) in simd(baseline) {
                let name = format!("exec.simd_speedup[{kernel}]");
                match cur_simd.iter().find(|(k, _)| *k == kernel) {
                    Some(&(_, cur_ratio)) => metrics.push(MetricCmp {
                        name,
                        baseline: base_ratio,
                        current: cur_ratio,
                        log_scale: false,
                    }),
                    None => skipped.push(name),
                }
            }
        }
        "serve" => {
            let pairs = [
                // Setup amortization is gated on its order of magnitude:
                // the cached-lookup denominator is single-digit µs, so the
                // linear ratio swings several x between identical runs.
                ("serve.setup.speedup", &["setup", "speedup"][..], true),
                (
                    "serve.batched_vs_unbatched_throughput",
                    &["batched_vs_unbatched_throughput"][..],
                    false,
                ),
                // Steady-state decode throughput win from fusing concurrent
                // session steps into one wavefront launch per tick. Absent
                // from baselines older than stateful sessions; those skip
                // the pair.
                (
                    "serve.sessions.continuous_vs_solo",
                    &["sessions", "continuous_vs_solo_tokens_per_sec"][..],
                    false,
                ),
            ];
            for (name, path, log_scale) in pairs {
                let dig = |mut v: &Value| -> Option<f64> {
                    for k in path {
                        v = &v[*k];
                    }
                    v.as_f64().filter(|x| *x > 0.0)
                };
                match (dig(baseline), dig(current)) {
                    (Some(b), Some(c)) => metrics.push(MetricCmp {
                        name: name.to_string(),
                        baseline: b,
                        current: c,
                        log_scale,
                    }),
                    (Some(_), None) => skipped.push(name.to_string()),
                    _ => {}
                }
            }
        }
        other => return Err(format!("unknown bench kind {other:?}")),
    }
    Ok((metrics, skipped))
}

/// Runs the gate over one report pair. Returns the regressed metrics.
fn compare(baseline: &Value, current: &Value, threshold: f64) -> Result<Vec<MetricCmp>, String> {
    let (metrics, skipped) = extract(baseline, current)?;
    if metrics.is_empty() {
        return Err("no comparable metrics between baseline and current".to_string());
    }
    let mut regressed = Vec::new();
    for m in &metrics {
        let change = m.change();
        let verdict = if change < -threshold {
            regressed.push(m.clone());
            "REGRESSED"
        } else if change > threshold {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {:58} baseline {:9.3}  current {:9.3}  {:+6.1}%{} {}",
            m.name,
            m.baseline,
            m.current,
            change * 100.0,
            if m.log_scale { " (log10)" } else { "" },
            verdict
        );
    }
    for name in &skipped {
        println!("  {name:58} (missing from current run; skipped)");
    }
    Ok(regressed)
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_compare: cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("bench_compare: bad JSON {path}: {e}"))
}

/// Gate self-test: the injected regression must trip the gate and the
/// unchanged report must pass — proving the gate can actually fail.
fn self_test() -> bool {
    let parse =
        |s: &str| -> Value { serde_json::from_str(s).expect("self-test fixture is valid JSON") };
    let exec_base = parse(
        r#"{"bench": "exec", "exec": [
            {"workload": "stacked_rnn d=8 l=64", "threads": 8, "speedup": 3.8},
            {"workload": "attention tiny", "threads": 4, "speedup": 2.5}],
            "roofline": [
            {"kernel": "gemm 256", "mode": "scalar", "rate": 4.0},
            {"kernel": "gemm 256", "mode": "avx2", "rate": 6.0},
            {"kernel": "tanh", "mode": "scalar", "rate": 1.0},
            {"kernel": "tanh", "mode": "avx2", "rate": 10.0}]}"#,
    );
    // ~21% regression on one row: must be detected at threshold 0.15.
    let exec_regressed = parse(
        r#"{"bench": "exec", "exec": [
            {"workload": "stacked_rnn d=8 l=64", "threads": 8, "speedup": 3.0},
            {"workload": "attention tiny", "threads": 4, "speedup": 2.5}],
            "roofline": [
            {"kernel": "gemm 256", "mode": "scalar", "rate": 4.0},
            {"kernel": "gemm 256", "mode": "avx2", "rate": 6.0},
            {"kernel": "tanh", "mode": "scalar", "rate": 1.0},
            {"kernel": "tanh", "mode": "avx2", "rate": 10.0}]}"#,
    );
    // Kernel-level SIMD collapse (10x -> 5x tanh) with the end-to-end rows
    // unchanged: the per-kernel gate must catch what the aggregate hides.
    let exec_kernel_regressed = parse(
        r#"{"bench": "exec", "exec": [
            {"workload": "stacked_rnn d=8 l=64", "threads": 8, "speedup": 3.8},
            {"workload": "attention tiny", "threads": 4, "speedup": 2.5}],
            "roofline": [
            {"kernel": "gemm 256", "mode": "scalar", "rate": 4.0},
            {"kernel": "gemm 256", "mode": "avx2", "rate": 6.0},
            {"kernel": "tanh", "mode": "scalar", "rate": 1.0},
            {"kernel": "tanh", "mode": "avx2", "rate": 5.0}]}"#,
    );
    // Scalar-only host: no native roofline rows. The kernels must be
    // skipped (host difference, not a regression).
    let exec_scalar_host = parse(
        r#"{"bench": "exec", "exec": [
            {"workload": "stacked_rnn d=8 l=64", "threads": 8, "speedup": 3.8},
            {"workload": "attention tiny", "threads": 4, "speedup": 2.5}],
            "roofline": [
            {"kernel": "gemm 256", "mode": "scalar", "rate": 4.0},
            {"kernel": "tanh", "mode": "scalar", "rate": 1.0}]}"#,
    );
    let serve_base = parse(
        r#"{"bench": "serve", "setup": {"speedup": 300.0},
            "batched_vs_unbatched_throughput": 2.0}"#,
    );
    // 20% regression on the batching headline: must be detected.
    let serve_regressed = parse(
        r#"{"bench": "serve", "setup": {"speedup": 300.0},
            "batched_vs_unbatched_throughput": 1.6}"#,
    );
    // Within-noise dip: must pass. The setup speedup is compared in log
    // space — 300 -> 200 is a -33% linear drop but only a -7% exponent
    // change, which is exactly why the jitter-prone metric is gated on
    // its order of magnitude.
    let serve_noisy = parse(
        r#"{"bench": "serve", "setup": {"speedup": 200.0},
            "batched_vs_unbatched_throughput": 1.9}"#,
    );
    // Amortization collapse (300x -> 2x): must trip even the log gate.
    let serve_collapsed = parse(
        r#"{"bench": "serve", "setup": {"speedup": 2.0},
            "batched_vs_unbatched_throughput": 2.0}"#,
    );
    // Report with the continuous-batching headline. Compared against
    // `serve_base` (which predates the field) the pair must be skipped,
    // not treated as a regression or an error.
    let serve_sessions = parse(
        r#"{"bench": "serve", "setup": {"speedup": 300.0},
            "batched_vs_unbatched_throughput": 2.0,
            "sessions": {"continuous_vs_solo_tokens_per_sec": 2.6}}"#,
    );
    // 35% collapse of the continuous-batching ratio: must be detected.
    let serve_sessions_regressed = parse(
        r#"{"bench": "serve", "setup": {"speedup": 300.0},
            "batched_vs_unbatched_throughput": 2.0,
            "sessions": {"continuous_vs_solo_tokens_per_sec": 1.7}}"#,
    );

    let mut ok = true;
    let mut check = |label: &str, want_regressions: bool, got: Result<Vec<MetricCmp>, String>| {
        let pass = match &got {
            Ok(regs) => regs.is_empty() != want_regressions,
            Err(_) => false,
        };
        println!(
            "self-test {:40} {}",
            label,
            if pass { "ok" } else { "FAILED" }
        );
        if !pass {
            ok = false;
        }
    };

    println!("exec: unchanged report");
    let r = compare(&exec_base, &exec_base, 0.15);
    check("exec unchanged passes", false, r);
    println!("exec: 21% speedup regression injected");
    let r = compare(&exec_base, &exec_regressed, 0.15);
    check("exec 21% regression detected", true, r);
    println!("exec: per-kernel SIMD speedup collapse injected");
    let r = compare(&exec_base, &exec_kernel_regressed, 0.15);
    check("exec kernel simd collapse detected", true, r);
    println!("exec: scalar-only host (no native roofline rows)");
    let r = compare(&exec_base, &exec_scalar_host, 0.15);
    check("exec scalar host kernels skipped", false, r);
    println!("serve: unchanged report");
    let r = compare(&serve_base, &serve_base, 0.15);
    check("serve unchanged passes", false, r);
    println!("serve: 20% batching regression injected");
    let r = compare(&serve_base, &serve_regressed, 0.15);
    check("serve 20% regression detected", true, r);
    println!("serve: noise-scale dip within threshold");
    let r = compare(&serve_base, &serve_noisy, 0.15);
    check("serve noise-scale dip tolerated", false, r);
    println!("serve: setup amortization collapse");
    let r = compare(&serve_base, &serve_collapsed, 0.15);
    check("serve amortization collapse detected", true, r);
    println!("serve: baseline predates the sessions ratio");
    let r = compare(&serve_base, &serve_sessions, 0.15);
    check("serve old baseline skips sessions pair", false, r);
    println!("serve: continuous batching collapse injected");
    let r = compare(&serve_sessions, &serve_sessions_regressed, 0.15);
    check("serve sessions collapse detected", true, r);
    println!("empty intersection");
    let empty = parse(r#"{"bench": "exec", "exec": []}"#);
    let pass = compare(&empty, &empty, 0.15).is_err();
    println!(
        "self-test {:40} {}",
        "empty intersection rejected",
        if pass { "ok" } else { "FAILED" }
    );
    ok && pass
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        if self_test() {
            println!("bench_compare self-test: all checks passed");
            std::process::exit(0);
        }
        eprintln!("bench_compare self-test: FAILED");
        std::process::exit(1);
    }

    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline_path = flag("--baseline").unwrap_or_else(|| {
        eprintln!("usage: bench_compare --baseline BASE.json --current CUR.json [--threshold 0.15] | --self-test");
        std::process::exit(2);
    });
    let current_path = flag("--current").unwrap_or_else(|| {
        eprintln!("usage: bench_compare --baseline BASE.json --current CUR.json [--threshold 0.15] | --self-test");
        std::process::exit(2);
    });
    let threshold: f64 = flag("--threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.15);

    println!(
        "bench_compare: {baseline_path} vs {current_path} (threshold {:.0}%)",
        threshold * 100.0
    );
    let baseline = load(&baseline_path);
    let current = load(&current_path);
    match compare(&baseline, &current, threshold) {
        Ok(regressed) if regressed.is_empty() => {
            println!("gate: PASS");
        }
        Ok(regressed) => {
            eprintln!(
                "gate: FAIL — {} metric(s) regressed more than {:.0}%:",
                regressed.len(),
                threshold * 100.0
            );
            for m in regressed {
                eprintln!(
                    "  {}: {:.3} -> {:.3} ({:+.1}%)",
                    m.name,
                    m.baseline,
                    m.current,
                    m.change() * 100.0
                );
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("gate: FAIL — {e}");
            std::process::exit(1);
        }
    }
}
