//! # ft-bench
//!
//! The paper's evaluation (§6) and the tools around the repository
//! benchmark:
//!
//! * [`reproduce`] — every figure and table of the evaluation as one
//!   Markdown section each. The `reproduce` binary prints them and rewrites
//!   `EXPERIMENTS.md`'s generated blocks; a tier-1 test per section fails
//!   while the document differs. Absolute numbers come from the `ft-sim`
//!   A100 model, not silicon: what must match the paper is the *shape* —
//!   which method wins, by roughly what factor, where the crossovers sit.
//! * `trace_report` and `ft_top` — the observability report and the live
//!   dashboard.
//! * `bench_compare` — the regression gate over `benchmark/run.sh`
//!   captures, against the bounds in `BENCHMARK.json`.

#![forbid(unsafe_code)]

pub mod reproduce;

#[cfg(test)]
mod tests {
    use crate::reproduce::{ft_speedup, ms_table, speedup_cell, Row};
    use ft_sim::TrafficCounters;
    use ft_workloads::SimReport;

    fn report(ms: f64) -> SimReport {
        SimReport {
            ms,
            traffic: TrafficCounters::default(),
            kernels: 1,
        }
    }

    #[test]
    fn table_rendering_includes_nst() {
        let rows = vec![Row {
            label: "d=4".into(),
            cells: vec![
                Some(report(10.0)),
                None,
                Some(report(4.0)),
                None,
                Some(report(2.0)),
            ],
        }];
        let t = ms_table("depth", &rows, "FT speed-up", speedup_cell);
        assert!(t.contains("| d=4 | 10.000 | NST | 4.000 | NST | 2.000 | 2.00x vs blocktile |"));
    }

    #[test]
    fn speedup_vs_best_baseline() {
        let row = Row {
            label: "x".into(),
            cells: vec![
                Some(report(10.0)),
                Some(report(6.0)),
                None,
                Some(report(4.0)),
                Some(report(2.0)),
            ],
        };
        assert!((ft_speedup(&row).unwrap() - 2.0).abs() < 1e-9);
    }
}
