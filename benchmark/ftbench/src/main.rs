//! `ftbench`: the repository's benchmark.
//!
//! ```text
//! ftbench --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! Runs one workload in this process. With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it records spans around its calls
//! into each crate and derives the per-layer metrics (see
//! `benchmark/README.md`). Every metric is printed as
//! `workload name value unit`; the last line of standard output is the
//! JSON result.

#![forbid(unsafe_code)]
// `ft_verify::VerifyError` is large; it is the repository's type, and the
// harness only passes it through spans.
#![allow(clippy::result_large_err)]

mod catalog;
mod decode;
mod exec;
mod harness;
mod layers;
mod names;
mod serve;
mod trace;
mod util;

use harness::{Args, Outcome};
use trace::Tracer;

fn usage() -> ! {
    eprintln!(
        "usage: ftbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]",
        names::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, 0u64, 10.0f64, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--trace-out" => trace_out = Some(std::path::PathBuf::from(value)),
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    let known = names::WORKLOADS.contains(&workload.as_str());
    if !(known && seconds > 0.0 && seconds <= 60.0) {
        usage();
    }
    // Default trace file: beside the build, which `.gitignore` covers.
    let trace_out = trace_out.unwrap_or_else(|| {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        std::path::Path::new(&dir)
            .join("ftbench-trace")
            .join(format!("{workload}-seed{seed}.jsonl"))
    });
    Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
    }
}

fn main() {
    let args = parse_args();
    let mut tracer = Tracer::new(false);
    let Outcome {
        attempted,
        failed,
        values,
    } = match args.workload.as_str() {
        "exec_rnn" => exec::exec_rnn(&args, &mut tracer),
        "exec_dense" => exec::exec_dense(&args, &mut tracer),
        "compile_cold" => exec::compile_cold(&args, &mut tracer),
        "serve_open" => serve::serve_open(&args, &mut tracer),
        "serve_sat" => serve::serve_sat(&args, &mut tracer),
        "serve_decode" => decode::serve_decode(&args, &mut tracer),
        _ => unreachable!("parse_args checked the name"),
    };
    if args.trace {
        if let Err(e) = tracer.write_jsonl(&args.trace_out) {
            eprintln!("could not write {}: {e}", args.trace_out.display());
            std::process::exit(1);
        }
        eprintln!(
            "{} spans -> {}",
            tracer.spans().len(),
            args.trace_out.display()
        );
    }

    let table: &[(&str, &str)] = if args.trace {
        &names::PER_LAYER
    } else {
        &names::END_TO_END
    };
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let Some(value) = values.get(name).copied().filter(|v| v.is_finite()) else {
            eprintln!(
                "{}: metric {name} is missing or not a number",
                args.workload
            );
            std::process::exit(1);
        };
        println!("{} {name} {value} {unit}", args.workload);
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{} operations attempted {attempted} ok {} failed {failed}",
        args.workload,
        attempted - failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    );
    if attempted == 0 {
        std::process::exit(1);
    }
}
