//! # ft-bench
//!
//! The figure/table regeneration harness for the paper's evaluation (§6).
//!
//! One binary per artifact:
//!
//! * `fig2_rnn_depth` — Figure 2: stacked-RNN time vs stack depth across
//!   baselines,
//! * `fig7_end_to_end` — Figure 7: end-to-end time for all six workloads
//!   at several shapes, plus the §6.2 speedup summary,
//! * `fig8_rnn_scaling` — Figure 8: RNN scaling with hidden/batch, sequence
//!   length, and depth for the three RNN variants,
//! * `table7_memory_traffic` — Table 7: DRAM/L1/L2 bytes for FlashAttention
//!   and BigBird across methods.
//!
//! Each binary prints a plain-text table (and `--json` machine-readable
//! rows) regenerating the corresponding artifact's *shape*: which method
//! wins, by roughly what factor, and where the crossovers sit. Absolute
//! numbers come from the `ft-sim` A100 model, not silicon.
//!
//! Wall-clock measurement of the CPU substrate lives in the repository
//! benchmark (`benchmark/run.sh`); `bench_compare` gates its captures
//! against `BENCHMARK.json`.

#![forbid(unsafe_code)]

use ft_workloads::{SimReport, Strategy};

/// One table row: a label plus a value per strategy (`None` = the paper's
/// "NST" — not supported).
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (shape or depth).
    pub label: String,
    /// One entry per strategy in [`Strategy::ALL`] order.
    pub cells: Vec<Option<SimReport>>,
}

/// Renders rows as an aligned text table of milliseconds.
pub fn render_ms_table(title: &str, rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "== {title} ==");
    let _ = write!(s, "{:<28}", "shape");
    for strat in Strategy::ALL {
        let _ = write!(s, "{:>16}", strat.short());
    }
    let _ = writeln!(s);
    for row in rows {
        let _ = write!(s, "{:<28}", row.label);
        for cell in &row.cells {
            match cell {
                Some(r) => {
                    let _ = write!(s, "{:>16.3}", r.ms);
                }
                None => {
                    let _ = write!(s, "{:>16}", "NST");
                }
            }
        }
        let _ = writeln!(s);
    }
    s
}

/// Speedup of the FractalTensor column over the best non-FT baseline.
pub fn ft_speedup(row: &Row) -> Option<f64> {
    let ft = row.cells.last()?.as_ref()?.ms;
    let best_baseline = row.cells[..row.cells.len() - 1]
        .iter()
        .flatten()
        .map(|r| r.ms)
        .fold(f64::INFINITY, f64::min);
    if best_baseline.is_finite() && ft > 0.0 {
        Some(best_baseline / ft)
    } else {
        None
    }
}

/// Serializes rows as JSON lines (used to build `EXPERIMENTS.md`): one
/// compact object per line, the framing `trace_report` prints too.
pub fn render_json(experiment: &str, rows: &[Row]) -> String {
    let json_rows = rows.iter().flat_map(|row| {
        Strategy::ALL
            .iter()
            .zip(&row.cells)
            .filter_map(move |(strat, cell)| {
                cell.as_ref().map(|r| {
                    serde_json::json!({
                        "experiment": experiment,
                        "shape": &row.label,
                        "strategy": strat.short(),
                        "ms": r.ms,
                        "dram_gb": r.traffic.dram_gb(),
                        "l2_gb": r.traffic.l2_gb(),
                        "l1_gb": r.traffic.l1_gb(),
                        "kernels": r.kernels,
                    })
                })
            })
    });
    json_rows.map(|row| format!("{row}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sim::TrafficCounters;

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
        let t = render_ms_table("fig", &rows);
        assert!(t.contains("NST"));
        assert!(t.contains("10.000"));
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

    #[test]
    fn json_rows_parse_back() {
        let rows = vec![Row {
            label: "d=4".into(),
            cells: vec![Some(report(1.0)), None, None, None, Some(report(0.5))],
        }];
        let out = render_json("fig2", &rows);
        for line in out.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["experiment"], "fig2");
        }
    }
}
