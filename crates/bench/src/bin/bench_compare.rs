//! `bench_compare`: the regression gate over the repository benchmark.
//!
//! ```text
//! bash benchmark/run.sh --seed 1 > base1.txt      # parent tree; >=3 captures a side
//! bash benchmark/run.sh --seed 1 > change1.txt    # changed tree; >=3, + one --trace 1
//! cargo run --release -p ft-bench --bin bench_compare -- --base base1.txt [..] \
//!     --change change1.txt [..] [--meta commit=abc1234 ..]
//! ```
//!
//! `BENCHMARK.json`, read from the working directory, gives the workloads
//! and each end-to-end metric's unit, `better` and `bound`; a capture (stdout of `benchmark/run.sh`) gives
//! `W name value unit` and `W operations attempted A ok O failed F` lines.
//! A side's value is the median over its captures. The gate exits 1 if a
//! median is worse than its bound, a failed share rose, or a (workload,
//! metric) pair is missing on either side. Its last line is the change
//! side's medians (traced per-layer ones included) as one JSON object: the
//! `BENCH_history.jsonl` line format. `--self-test` checks the gate itself.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

/// One end-to-end metric of the spec.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// What the gate reads from `BENCHMARK.json`.
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Option<Spec> {
        let v: Value = serde_json::from_str(text).ok()?;
        let list = |key: &str| v[key].as_array().map(|a| a.iter());
        Some(Spec {
            workloads: list("workloads")?
                .map(|w| w["name"].as_str().map(String::from))
                .collect::<Option<_>>()?,
            end_to_end: list("end_to_end")?
                .map(|m| {
                    Some(Metric {
                        name: m["name"].as_str()?.to_string(),
                        unit: m["unit"].as_str()?.to_string(),
                        higher_is_better: m["better"].as_str()? == "higher",
                        bound: m["bound"].as_f64()?,
                    })
                })
                .collect::<Option<_>>()?,
        })
    }
}

/// One side of the comparison: every capture's lines, pooled.
#[derive(Default)]
struct Side {
    captures: u64,
    /// `workload/metric` → (one value per capture, unit).
    values: BTreeMap<String, (Vec<f64>, String)>,
    /// workload → (attempted, failed), summed over captures.
    ops: BTreeMap<String, (u64, u64)>,
}

impl Side {
    fn add_capture(&mut self, text: &str) {
        self.captures += 1;
        for line in text.lines() {
            match line.split_whitespace().collect::<Vec<_>>()[..] {
                [w, "operations", "attempted", a, "ok", _, "failed", f] => {
                    if let (Ok(a), Ok(f)) = (a.parse::<u64>(), f.parse::<u64>()) {
                        let e = self.ops.entry(w.to_string()).or_default();
                        *e = (e.0 + a, e.1 + f);
                    }
                }
                [w, name, value, unit] => {
                    if let Ok(v) = value.parse::<f64>() {
                        let e = self.values.entry(format!("{w}/{name}")).or_default();
                        e.0.push(v);
                        e.1 = unit.to_string();
                    }
                }
                _ => {}
            }
        }
    }

    fn median(&self, key: &str) -> Option<f64> {
        let mut v = self.values.get(key)?.0.clone();
        v.sort_by(f64::total_cmp);
        Some((v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0)
    }

    /// The history line: `meta`, the capture count and every median with
    /// its sample count `n` (traced captures alone print per-layer metrics).
    fn history_line(&self, mut meta: Map) -> String {
        let mut metrics = Map::new();
        for (key, (values, unit)) in &self.values {
            let m = json!({"value": self.median(key), "unit": unit.as_str(), "n": values.len()});
            metrics.insert(key.clone(), m);
        }
        meta.insert("runs".into(), self.captures.into());
        meta.insert("metrics".into(), metrics.into());
        Value::from(meta).to_string()
    }
}

/// Compares the two sides; returns the report and the failures.
fn gate(spec: &Spec, base: &Side, change: &Side) -> (String, Vec<String>) {
    let mut report =
        "workload       metric                     base       change unit     delta  bound\n"
            .to_string();
    let mut failures = Vec::new();
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let key = format!("{w}/{}", m.name);
            let (Some(b), Some(c)) = (base.median(&key), change.median(&key)) else {
                failures.push(format!("{key}: missing on the base or the change side"));
                continue;
            };
            let delta = if b != 0.0 { c / b - 1.0 } else { 0.0 };
            let worse = if m.higher_is_better { -delta } else { delta };
            if worse > m.bound {
                failures.push(format!("{key}: {b} -> {c} is out of bound"));
            }
            report += &format!(
                "{w:14} {:18} {b:>12.4} {c:>12.4} {:5} {:>+7.1}% {:>5.0}%\n",
                m.name,
                m.unit,
                delta * 100.0,
                m.bound * 100.0
            );
        }
        let share = |s: &Side| s.ops.get(w).map(|&(a, f)| f as f64 / a.max(1) as f64);
        match (share(base), share(change)) {
            (Some(b), Some(c)) if c > b => failures.push(format!("{w}: failed share {b} -> {c}")),
            (Some(_), Some(_)) => {}
            _ => failures.push(format!("{w}: operations line missing on one side")),
        }
    }
    (report, failures)
}

/// The gate must be able to fail: each injected fault must trip it and the
/// unchanged capture must pass.
fn self_test() -> bool {
    let spec = r#"{"workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.25}]}"#;
    let spec = Spec::parse(spec).expect("the self-test spec is complete");
    let base = "a lat 1.0 ms\na tput 100 1/s\na operations attempted 100 ok 100 failed 0\n\
                b lat 2.0 ms\nb tput 50 1/s\nb operations attempted 50 ok 50 failed 0\n\
                {\"correct\": true}\n";
    // (case, text replaced in the base capture, its replacement, passes)
    let cases = [
        ("identical: passes", "", "", true),
        ("a/lat +20%: passes", "a lat 1.0", "a lat 1.2", true),
        ("a/lat +30% (lower): fails", "a lat 1.0", "a lat 1.3", false),
        (
            "b/tput -30% (higher): fails",
            "b tput 50",
            "b tput 35",
            false,
        ),
        ("b/tput missing: fails", "b tput 50 1/s\n", "", false),
        (
            "b failed share up: fails",
            "50 failed 0",
            "49 failed 1",
            false,
        ),
    ];
    let mut base_side = Side::default();
    base_side.add_capture(base);
    let mut ok = true;
    for (case, from, to, passes) in cases {
        let mut change = Side::default();
        change.add_capture(&base.replace(from, to));
        let right = gate(&spec, &base_side, &change).1.is_empty() == passes;
        println!("self-test {case:30} {}", ["WRONG", "ok"][right as usize]);
        ok &= right;
    }
    ok
}

fn usage() -> ! {
    eprintln!("usage: bench_compare --base F.. --change F.. [--meta K=V].. | --self-test");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        let ok = self_test();
        let verdict = ["FAILED", "all checks passed"][ok as usize];
        println!("bench_compare self-test: {verdict}");
        std::process::exit(if ok { 0 } else { 1 });
    }
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    // Provenance: this host's CPUs and CPU model; commit, seed, seconds from
    // `--meta KEY=VALUE`, whose value is JSON or else a string.
    let mut meta = Map::new();
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = cpu.map_or("unknown", |c| c.1.trim());
    meta.insert("host".into(), json!({"nproc": nproc, "cpu": cpu}));
    let (mut base, mut change) = (Side::default(), Side::default());
    let mut side = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--base" | "--change" => side = Some(arg == "--base"),
            "--meta" => {
                let kv = value();
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                let v = serde_json::from_str(v).unwrap_or_else(|_| v.into());
                meta.insert(k.into(), v);
            }
            path if !path.starts_with("--") => match side {
                Some(true) => base.add_capture(&read(path)),
                Some(false) => change.add_capture(&read(path)),
                None => usage(),
            },
            _ => usage(),
        }
    }
    let spec = Spec::parse(&read("BENCHMARK.json")).expect("workloads and end_to_end metrics");
    let (report, failures) = gate(&spec, &base, &change);
    print!("{report}");
    failures.iter().for_each(|f| eprintln!("FAIL {f}"));
    println!("gate: {}", ["FAIL", "PASS"][failures.is_empty() as usize]);
    println!("{}", change.history_line(meta));
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}

#[test]
fn self_test_passes() {
    assert!(self_test());
}
