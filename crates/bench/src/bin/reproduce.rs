//! Regenerates the paper's evaluation.
//!
//! Usage: `cargo run --release -p ft-bench --bin reproduce -- [SECTION | --write]`
//!
//! With no argument it prints every section, with a section name that one,
//! each between the marker lines `EXPERIMENTS.md` holds it in. `--write`
//! rewrites every generated block of `EXPERIMENTS.md` in place.

use std::process::ExitCode;

use ft_bench::reproduce::{rewrite, section, SECTIONS};

fn print(name: &str) -> Result<(), String> {
    let body = section(name)?;
    print!("<!-- reproduce: {name} -->\n{body}<!-- /reproduce -->\n\n");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [] => SECTIONS.iter().try_for_each(|name| print(name)),
        [flag] if flag == "--write" => rewrite(),
        [name] if SECTIONS.contains(&name.as_str()) => print(name),
        _ => {
            eprintln!("usage: reproduce [--write | {}]", SECTIONS.join(" | "));
            return ExitCode::from(2);
        }
    };
    if let Err(e) = result {
        eprintln!("reproduce: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
