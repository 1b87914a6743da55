//! The paper's evaluation (§6), regenerated as the generated blocks of
//! `EXPERIMENTS.md`.
//!
//! Each section is one function returning its Markdown, and each asserts
//! the shape claims the prose around its block makes, so a table and its
//! check live in one place. The simulator is deterministic, so a section's
//! output is byte-stable. A block is the text between a
//! `<!-- reproduce: NAME -->` line and the next `<!-- /reproduce -->` line;
//! [`rewrite`] replaces every block with its section, and a tier-1 test per
//! section fails while a block differs from what the section prints.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::PathBuf;

use ft_core::program::Program;
use ft_passes::Reordering;
use ft_sim::{GpuConfig, Region, SimMachine, TileConfig};
use ft_workloads::Strategy::{self, BlockTile, Eager, FractalTensor, FusedOp, Handcrafted};
use ft_workloads::{attention, b2b, bigbird, dilated, grid, lstm, SimReport};
use serde_json::Value;

/// Every section, in document order.
pub const SECTIONS: [&str; 7] = [
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "table7",
    "ablation",
    "wallclock",
];

const OPEN: &str = "<!-- reproduce: ";
const CLOSE: &str = "<!-- /reproduce -->";

/// The Markdown of one section; `wallclock` reads the newest line of
/// `BENCH_history.jsonl`.
pub fn section(name: &str) -> Result<String, String> {
    Ok(match name {
        "fig2" => fig2(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "table7" => table7(),
        "ablation" => ablation(),
        "wallclock" => {
            let history = read("BENCH_history.jsonl")?;
            let newest = history.lines().rfind(|l| !l.trim().is_empty());
            wallclock(newest.ok_or("BENCH_history.jsonl is empty")?)?
        }
        _ => return Err(format!("unknown section `{name}`")),
    })
}

/// Rewrites every generated block of `EXPERIMENTS.md` in place.
pub fn rewrite() -> Result<(), String> {
    let doc = fill(&read("EXPERIMENTS.md")?, section)?;
    let path = repo_path("EXPERIMENTS.md");
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn repo_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

fn read(file: &str) -> Result<String, String> {
    let path = repo_path(file);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `doc` with every block's body replaced by `generate(section)`.
fn fill(
    doc: &str,
    mut generate: impl FnMut(&str) -> Result<String, String>,
) -> Result<String, String> {
    let mut out = String::new();
    let mut copied = 0;
    for (name, body, _) in blocks(doc)? {
        out.push_str(&doc[copied..body.start]);
        out.push_str(&generate(name)?);
        copied = body.end;
    }
    out.push_str(&doc[copied..]);
    Ok(out)
}

/// A block: its section, the byte range of its body and the line number
/// of its opening marker.
type Block = (&'static str, Range<usize>, usize);

/// The blocks of `doc`, which must hold exactly one block per section.
fn blocks(doc: &str) -> Result<Vec<Block>, String> {
    let (mut found, mut open): (Vec<Block>, Option<Block>) = (Vec::new(), None);
    let mut at = 0;
    for (line, text) in (1..).zip(doc.split_inclusive('\n')) {
        let start = at;
        at += text.len();
        let text = text.trim_end();
        if let Some(rest) = text.strip_prefix(OPEN) {
            let name = rest.strip_suffix(" -->").unwrap_or(rest);
            let known = SECTIONS.iter().find(|s| **s == name);
            let name = *known.ok_or_else(|| format!("line {line}: unknown section `{name}`"))?;
            if let Some((prev, _, line)) = open.replace((name, at..at, line)) {
                return Err(format!("line {line}: block `{prev}` is not closed"));
            }
        } else if text == CLOSE {
            let unopened = || format!("line {line}: `{CLOSE}` closes no block");
            let (name, body, line) = open.take().ok_or_else(unopened)?;
            found.push((name, body.start..start, line));
        }
    }
    if let Some((name, _, line)) = open {
        return Err(format!("line {line}: block `{name}` is not closed"));
    }
    for name in SECTIONS {
        match found.iter().filter(|b| b.0 == name).count() {
            0 => return Err(format!("no `{OPEN}{name} -->` block")),
            1 => {}
            _ => return Err(format!("more than one `{name}` block")),
        }
    }
    Ok(found)
}

/// Checks that section `name`'s block in `doc` is `generated`, naming the
/// first differing line otherwise.
#[cfg(test)]
fn check(doc: &str, name: &str, generated: &str) -> Result<(), String> {
    let (_, body, line) = blocks(doc)?
        .into_iter()
        .find(|b| b.0 == name)
        .expect("a block");
    let have: Vec<&str> = doc[body].split('\n').collect();
    let want: Vec<&str> = generated.split('\n').collect();
    let Some(i) = (0..have.len().max(want.len())).find(|&i| have.get(i) != want.get(i)) else {
        return Ok(());
    };
    let end = &"(end of block)";
    let (have, want) = (have.get(i).unwrap_or(end), want.get(i).unwrap_or(end));
    Err(format!(
        "EXPERIMENTS.md line {}, block `{name}`:\n  document:  {have}\n  reproduce: {want}\n\
         run `cargo run --release -p ft-bench --bin reproduce -- --write` to regenerate it",
        line + 1 + i
    ))
}

/// One table row: a label plus a value per strategy (`None` = the paper's
/// "NST" — not supported).
#[derive(Debug, Clone)]
pub(crate) struct Row {
    /// Row label (shape or depth).
    pub label: String,
    /// One entry per strategy in [`Strategy::ALL`] order.
    pub cells: Vec<Option<SimReport>>,
}

impl Row {
    fn report(&self, strategy: Strategy) -> SimReport {
        self.cells[strategy as usize].expect("strategy supported")
    }

    fn ms(&self, strategy: Strategy) -> f64 {
        self.report(strategy).ms
    }

    /// Eager's time over FractalTensor's.
    fn vs_eager(&self) -> f64 {
        self.ms(Eager) / self.ms(FractalTensor)
    }

    /// The fastest baseline (every strategy but FractalTensor) and its time.
    fn best_baseline(&self) -> Option<(Strategy, f64)> {
        let ms = |&s: &Strategy| Some((s, self.cells[s as usize]?.ms));
        Strategy::ALL[..4]
            .iter()
            .filter_map(ms)
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Speedup of the FractalTensor column over the best non-FT baseline.
pub(crate) fn ft_speedup(row: &Row) -> Option<f64> {
    Some(row.best_baseline()?.1 / row.cells[FractalTensor as usize]?.ms)
}

/// A Markdown table; the header and every row separate their cells with
/// " | ".
fn table(header: &str, rows: impl IntoIterator<Item = String>) -> String {
    let columns = header.split(" | ").count();
    let mut s = format!("| {header} |\n|{}\n", "---|".repeat(columns));
    for row in rows {
        let _ = writeln!(s, "| {row} |");
    }
    s
}

/// Rows as modelled milliseconds, one column per strategy, then one
/// `derived` column.
pub(crate) fn ms_table(key: &str, rows: &[Row], derived: &str, cell: fn(&Row) -> String) -> String {
    let names: Vec<&str> = Strategy::ALL.iter().map(Strategy::short).collect();
    let body = rows.iter().map(|row| {
        let ms = row
            .cells
            .iter()
            .map(|c| c.map_or("NST".into(), |r| format!("{:.3}", r.ms)));
        let ms: Vec<String> = ms.collect();
        format!("{} | {} | {}", row.label, ms.join(" | "), cell(row))
    });
    table(&format!("{key} | {} | {derived}", names.join(" | ")), body)
}

pub(crate) fn speedup_cell(row: &Row) -> String {
    let (best, _) = row.best_baseline().expect("a baseline runs");
    let speedup = ft_speedup(row).expect("FractalTensor runs");
    format!("{speedup:.2}x vs {}", best.short())
}

fn vs_eager_cell(row: &Row) -> String {
    format!("{:.1}x", row.vs_eager())
}

/// `base` with `set` applied.
fn with<S>(mut base: S, set: impl FnOnce(&mut S)) -> S {
    set(&mut base);
    base
}

/// Simulates every strategy at every labelled shape.
fn sweep<S: Copy>(
    shapes: impl IntoIterator<Item = (String, S)>,
    sim: fn(S, Strategy) -> Option<SimReport>,
) -> Vec<Row> {
    let row = |(label, shape)| Row {
        label,
        cells: Strategy::ALL.iter().map(|&st| sim(shape, st)).collect(),
    };
    shapes.into_iter().map(row).collect()
}

fn lstm_sim(shape: lstm::LstmShape, strategy: Strategy) -> Option<SimReport> {
    Some(lstm::simulate(shape, strategy))
}

/// The paper's stacked LSTM at `hidden` over `depths`.
fn lstm_depths(hidden: usize, depths: &[usize]) -> Vec<Row> {
    let shape = |d| {
        with(lstm::LstmShape::paper(), |s| {
            (s.hidden, s.depth) = (hidden, d)
        })
    };
    sweep(depths.iter().map(|&d| (d.to_string(), shape(d))), lstm_sim)
}

/// Last row's time over the first row's.
fn growth(rows: &[Row], strategy: Strategy) -> f64 {
    rows[rows.len() - 1].ms(strategy) / rows[0].ms(strategy)
}

/// Figure 2: stacked-LSTM time as the stack depth grows.
fn fig2() -> String {
    let rows = lstm_depths(256, &[1, 2, 4, 8, 16, 32]);
    let (eager, ft) = (growth(&rows, Eager), growth(&rows, FractalTensor));
    assert!(eager >= 20.0 && ft < 4.0, "growth: eager {eager}, FT {ft}");
    for (a, b) in rows.iter().zip(&rows[1..]) {
        assert!(b.ms(Eager) >= a.ms(Eager) && b.ms(FractalTensor) >= a.ms(FractalTensor));
    }
    for r in &rows {
        let (ft, cudnn) = (r.ms(FractalTensor), r.ms(Handcrafted));
        assert!(ft <= cudnn && cudnn < 1.1 * ft, "depth {}", r.label);
    }
    // The paper's Figure 2 tops out near 45 ms; the model charges eager more.
    assert!(rows[rows.len() - 1].ms(Eager) > 45.0);
    let table = ms_table("depth", &rows, "FT vs best baseline", speedup_cell);
    format!("{table}\nGrowth from depth 1 to 32: eager {eager:.1}x, fractaltensor {ft:.1}x.\n")
}

/// Figure 7's workloads: the paper's FT speed-up over its best baseline
/// (§6.2), and whether the model's speed-ups overshoot it.
const FIG7_PAPER: [(&str, f64, &str, bool); 6] = [
    ("stacked LSTM", 3.75, "cuDNN", false),
    ("stacked dilated RNN", 2.35, "PyTorch JIT", true),
    ("stacked grid RNN", 5.44, "Triton", true),
    ("b2b GEMMs", 1.21, "cuBLAS", false),
    ("FlashAttention", 1.07, "FA-2", false),
    ("BigBird", 1.36, "Triton", true),
];
/// The paper's §6.2 summary over all of Figure 7.
const FIG7_PAPER_SUMMARY: &str = "max 5.44x, average 1.97x";

/// Figure 7: end-to-end time for the six workloads, plus the §6.2 summary.
fn fig7() -> String {
    let lstm = |(h, l): (usize, usize)| {
        let shape = with(lstm::LstmShape::paper(), |s| (s.hidden, s.seq) = (h, l));
        (format!("h={h} L={l}"), shape)
    };
    let dilated = |(h, l): (usize, usize)| {
        let set = |s: &mut dilated::DilatedShape| (s.hidden, s.seq) = (h, l);
        (
            format!("h={h} L={l}"),
            with(dilated::DilatedShape::paper(), set),
        )
    };
    let grid = |(h, g): (usize, usize)| {
        let set = |s: &mut grid::GridShape| (s.hidden, s.rows, s.cols) = (h, g, g);
        (
            format!("h={h} grid={g}x{g}"),
            with(grid::GridShape::paper(), set),
        )
    };
    let b2b = |(b, m): (usize, usize)| {
        let shape = with(b2b::B2bShape::paper(), |s| (s.batch, s.m) = (b, m));
        (format!("batch={b} M={m}"), shape)
    };
    let attn = |(q, kv): (usize, usize)| {
        let set = |s: &mut attention::AttnShape| (s.q_blocks, s.kv_blocks) = (q / 32, kv / 32);
        (
            format!("Lq={q} Lkv={kv}"),
            with(attention::AttnShape::paper(), set),
        )
    };
    let bigbird = |(h, n): (usize, usize)| {
        let set = |s: &mut bigbird::BigBirdShape| (s.heads, s.blocks) = (h, n);
        (
            format!("heads={h} blocks={n}"),
            with(bigbird::BigBirdShape::paper(), set),
        )
    };
    let workloads = [
        sweep([(256, 64), (512, 64), (1024, 32)].map(lstm), lstm_sim),
        sweep(
            [(256, 64), (256, 128), (1024, 64)].map(dilated),
            dilated::simulate,
        ),
        sweep([(256, 8), (256, 16), (1024, 8)].map(grid), grid::simulate),
        sweep([(64, 512), (128, 512), (64, 2048)].map(b2b), b2b::simulate),
        sweep(
            [(2048, 4096), (1024, 2048), (4096, 4096)].map(attn),
            attention::simulate,
        ),
        sweep(
            [(16, 64), (16, 128), (32, 64)].map(bigbird),
            bigbird::simulate,
        ),
    ];
    let (mut s, mut summary, mut all) = (String::new(), Vec::new(), Vec::new());
    for ((name, paper, paper_vs, overshoots), rows) in FIG7_PAPER.iter().zip(&workloads) {
        let ms = ms_table("shape", rows, "FT speed-up", speedup_cell);
        let _ = writeln!(s, "**{name}** [ms]\n\n{ms}");
        let speedups: Vec<f64> = rows.iter().filter_map(ft_speedup).collect();
        let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = speedups.iter().copied().fold(0.0, f64::max);
        assert!(lo >= 1.0, "{name}: FractalTensor loses to a baseline");
        assert_eq!(*overshoots, lo > *paper, "{name}: the paper's {paper}x");
        assert_eq!(!overshoots, hi < *paper, "{name}: the paper's {paper}x");
        let mut vs: Vec<&str> = rows
            .iter()
            .flat_map(Row::best_baseline)
            .map(|b| b.0.short())
            .collect();
        vs.dedup();
        let vs = vs.join("/");
        summary.push(format!(
            "{name} | {lo:.2}–{hi:.2}x vs {vs} | {paper}x vs {paper_vs}"
        ));
        all.extend(speedups);
    }
    let max = all.iter().copied().fold(0.0, f64::max);
    let avg = all.iter().sum::<f64>() / all.len() as f64;
    let n = all.len();
    summary.push(format!(
        "**all** | max {max:.2}x, average {avg:.2}x over {n} shapes | {FIG7_PAPER_SUMMARY}"
    ));
    let summary = table("workload | measured | paper", summary);
    let _ = write!(
        s,
        "**§6.2 summary**: FT speed-up over the best baseline\n\n{summary}"
    );
    s
}

/// Figure 8: the RNN scaling sweeps.
fn fig8() -> String {
    let depths = [1, 4, 8, 12, 16, 20, 24, 28, 32];
    let (middle, large) = (lstm_depths(256, &depths), lstm_depths(1024, &depths));
    let seq = |l| with(lstm::LstmShape::paper(), |s| s.seq = l);
    let seq = sweep([32, 64, 128].map(|l| (l.to_string(), seq(l))), lstm_sim);
    let bh = |(b, h)| {
        let set = |s: &mut lstm::LstmShape| (s.batch, s.hidden, s.depth) = (b, h, 8);
        (
            format!("batch={b} h={h}"),
            with(lstm::LstmShape::paper(), set),
        )
    };
    let bh = sweep(
        [(64, 256), (256, 256), (256, 1024), (1024, 256)].map(bh),
        lstm_sim,
    );
    let dil = |d| with(dilated::DilatedShape::paper(), |s| s.depth = d);
    let dil = sweep((1..=6).map(|d| (d.to_string(), dil(d))), dilated::simulate);
    let grid = |d: usize| {
        (
            d.to_string(),
            with(grid::GridShape::paper(), |s| s.depth = d),
        )
    };
    let grid = sweep([1, 4, 8, 16, 24, 32].map(grid), grid::simulate);

    for rows in [&middle, &large, &grid] {
        assert!(growth(rows, Eager) >= 20.0, "eager grows with depth");
    }
    assert!(growth(&middle, FractalTensor) < 4.0 && growth(&large, FractalTensor) < 4.0);
    let gap = |rows: &[Row]| rows[rows.len() - 1].vs_eager();
    assert!(
        gap(&large) < gap(&middle),
        "large cells shrink the gap to eager"
    );
    for (a, b) in seq.iter().zip(&seq[1..]) {
        for st in Strategy::ALL {
            let x = b.ms(st) / a.ms(st);
            assert!((1.5..2.5).contains(&x), "{st:?} is not linear in seq: {x}");
        }
        assert!(
            b.vs_eager() >= a.vs_eager(),
            "the gap to eager grows with seq"
        );
    }
    assert!(
        bh[3].ms(FractalTensor) < 4.0 * bh[0].ms(FractalTensor),
        "16x batch"
    );
    let flat = dil.iter().map(|r| r.ms(FractalTensor));
    assert!(flat.clone().fold(0.0, f64::max) <= 1.01 * flat.fold(f64::INFINITY, f64::min));
    assert!(growth(&dil, Eager) >= 5.0 && growth(&grid, FractalTensor) < 16.0);
    assert!(grid[0].vs_eager() > 10.0, "grid FT starts far below eager");

    let sweeps = [
        (
            "Stacked LSTM, middle model (batch 256, hidden 256, seq 64)",
            "depth",
            middle,
        ),
        (
            "Stacked LSTM, large model (batch 256, hidden 1024, seq 64)",
            "depth",
            large,
        ),
        ("Stacked LSTM (batch 256, hidden 256, depth 32)", "seq", seq),
        ("Stacked LSTM (depth 8, seq 64)", "shape", bh),
        (
            "Dilated RNN, dilation 2^layer (batch 256, hidden 256, seq 64)",
            "layers",
            dil,
        ),
        ("Grid RNN (batch 256, hidden 256, 8x8 grid)", "depth", grid),
    ];
    let mut s = String::new();
    for (title, key, rows) in sweeps {
        let ms = ms_table(key, &rows, "FT vs eager", vs_eager_cell);
        let (eager, ft) = (growth(&rows, Eager), growth(&rows, FractalTensor));
        let _ = write!(s, "**{title}** [ms]\n\n{ms}\nFirst to last row: ");
        let _ = writeln!(s, "eager grows {eager:.1}x, fractaltensor {ft:.1}x.\n");
    }
    s.pop();
    s
}

/// The reordering of a program's first launch group.
fn schedule(program: &Program) -> Reordering {
    let mut compiled = ft_passes::compile(program).expect("the workload compiles");
    compiled.groups.swap_remove(0).reordering
}

/// A map of wavefront steps: the cell at row `r` (labelled `labels[r]`),
/// column `c` holds `step(r, c)`, which must equal `expect(r, c)`.
fn wave_map(
    corner: &str,
    labels: &[String],
    columns: i64,
    step: impl Fn(i64, i64) -> i64,
    expect: impl Fn(i64, i64) -> i64,
) -> String {
    let join =
        |cell: &dyn Fn(i64) -> String| (0..columns).map(cell).collect::<Vec<_>>().join(" | ");
    let rows = labels.iter().zip(0..).map(|(label, r)| {
        let cell = |c| {
            assert_eq!(step(r, c), expect(r, c), "{corner} ({r}, {c})");
            step(r, c).to_string()
        };
        format!("{label} | {}", join(&cell))
    });
    table(&format!("{corner} | {}", join(&|c| c.to_string())), rows)
}

/// The hyperplane step of an original iteration point.
fn step_of(r: &Reordering, point: &[i64]) -> i64 {
    r.hyperplane.iter().zip(point).map(|(a, x)| a * x).sum()
}

/// Figure 9: each cell's wavefront step in the compiled schedules of the
/// three RNN variants; equal numbers run concurrently.
fn fig9() -> String {
    let lstm = with(lstm::LstmShape::tiny(), |s| {
        (s.batch, s.depth, s.seq) = (1, 6, 10)
    });
    let dil = with(dilated::DilatedShape::tiny(), |s| {
        (s.batch, s.depth, s.seq) = (1, 4, 10)
    });
    let set = |s: &mut grid::GridShape| (s.batch, s.depth, s.rows, s.cols) = (1, 3, 6, 8);
    let grid = with(grid::GridShape::tiny(), set);
    let labels = |n: usize, label: &dyn Fn(usize) -> String| (0..n).map(label).collect::<Vec<_>>();
    let layers = labels(lstm.depth, &|d| format!("layer {d}"));
    let dilations = labels(dil.depth, &|d| {
        format!("layer {d} (dilation {})", dil.dilation(d))
    });
    let rows = labels(grid.rows, &|i| format!("row {i}"));

    let (a, b, c) = (
        lstm::program(lstm),
        dilated::program(dil),
        grid::program(grid),
    );
    let (a, b, c) = (schedule(&a), schedule(&b), schedule(&c));
    let (time, seq) = ("layer \\ time", lstm.seq as i64);
    let stacked = wave_map(
        time,
        &layers,
        seq,
        |d, l| step_of(&a, &[0, d, l]),
        |d, l| d + l,
    );
    let dilated = wave_map(time, &dilations, seq, |_, l| step_of(&b, &[0, l]), |_, l| l);
    let mut s = format!("**(a) Stacked RNN**: wavefront step of cell (layer, time)\n\n{stacked}\n");
    let _ = writeln!(
        s,
        "**(b) Dilated RNN**: wavefront step of cell (layer, time)\n\n{dilated}"
    );
    for layer in [0, 2] {
        let step = |i, j| step_of(&c, &[0, layer, i, j]);
        let map = wave_map("row \\ col", &rows, grid.cols as i64, step, |i, j| {
            layer + i + j
        });
        let _ = writeln!(
            s,
            "**(c) Grid RNN, layer {layer}**: wavefront step of cell (row, col)"
        );
        let _ = writeln!(s, "\n{map}");
    }
    let (lo, hi) = c.wavefront_range();
    assert_eq!(hi - lo, (grid.depth + grid.rows + grid.cols - 2) as i64);
    let _ = writeln!(
        s,
        "Grid wavefront steps: {} (depth + rows + cols - 2).",
        hi - lo
    );
    s
}

/// One Table 7 row: method, its strategy model, and the paper's measured
/// GB for DRAM, L1 and L2 where the paper gives one.
type Table7Row = (&'static str, Strategy, [Option<f64>; 3]);

/// Table 7 ①, FlashAttention at the official shape.
const TABLE7_FA: [Table7Row; 5] = [
    (
        "FractalTensor",
        FractalTensor,
        [Some(3.99), None, Some(23.6)],
    ),
    ("Triton", BlockTile, [Some(4.01), None, Some(24.1)]),
    (
        "FlashAttention-2",
        Handcrafted,
        [Some(4.13), None, Some(27.1)],
    ),
    ("CUTLASS", FusedOp, [Some(3.98), None, Some(79.0)]),
    ("PyTorch (full softmax)", Eager, [None, None, None]),
];
/// Table 7 ②, BigBird at the official shape.
const TABLE7_BB: [Table7Row; 4] = [
    (
        "FractalTensor",
        FractalTensor,
        [Some(12.4), Some(17.7), Some(28.9)],
    ),
    ("Triton", BlockTile, [Some(28.2), Some(37.5), Some(66.4)]),
    ("PyTorch", Eager, [Some(47.5), Some(66.5), Some(114.4)]),
    ("TVM", FusedOp, [Some(108.9), Some(456.8), Some(622.8)]),
];
/// The paper's BigBird FT/Triton traffic, percent, for DRAM, L1 and L2.
const TABLE7_BB_PAPER_PERCENT: [f64; 3] = [43.8, 47.2, 43.5];

/// GB moved at DRAM, L1 and L2.
fn gb(r: SimReport) -> [f64; 3] {
    [r.traffic.dram_gb(), r.traffic.l1_gb(), r.traffic.l2_gb()]
}

fn traffic_table(methods: &[Table7Row], row: &Row) -> String {
    let body = methods.iter().map(|&(name, strategy, paper)| {
        let r = row.report(strategy);
        let cell = |(gb, paper): (f64, Option<f64>)| match paper {
            Some(p) => format!("{gb:.2} ({p:?})"),
            None => format!("{gb:.2}"),
        };
        let levels: Vec<String> = gb(r).into_iter().zip(paper).map(cell).collect();
        format!("{name} | {} | {}", levels.join(" | "), r.kernels)
    });
    table("method | DRAM GB | L1 GB | L2 GB | kernels", body)
}

/// Table 7: bytes moved per memory level for FlashAttention and BigBird.
fn table7() -> String {
    let fa = &sweep(
        [(String::new(), attention::AttnShape::paper())],
        attention::simulate,
    )[0];
    let bb = &sweep(
        [(String::new(), bigbird::BigBirdShape::paper())],
        bigbird::simulate,
    )[0];
    let traffic = |s| fa.report(s).traffic;
    let (ft, fa2, cutlass) = (
        traffic(FractalTensor),
        traffic(Handcrafted),
        traffic(FusedOp),
    );
    assert!(ft.dram_bytes <= fa2.dram_bytes && ft.l1_bytes <= fa2.l1_bytes);
    for st in [BlockTile, Handcrafted, FusedOp] {
        let tie = traffic(st).dram_bytes.abs_diff(ft.dram_bytes) * 100 < ft.dram_bytes;
        assert!(tie, "the fused methods tie on DRAM");
    }
    assert!(cutlass.l2_bytes > 3 * ft.l2_bytes && traffic(BlockTile).l2_bytes > ft.l2_bytes);
    assert!(traffic(Eager).dram_bytes > 10 * ft.dram_bytes);

    let levels: Vec<[f64; 3]> = TABLE7_BB.iter().map(|m| gb(bb.report(m.1))).collect();
    for l in 0..3 {
        let ordered = levels.windows(2).all(|w| w[0][l] < w[1][l]);
        assert!(ordered, "FT < Triton < PyTorch < TVM at level {l}");
    }
    for ((name, _, paper), gb) in TABLE7_BB.iter().zip(&levels) {
        let off = gb[0] / paper[0].expect("the paper's DRAM") - 1.0;
        assert!(off.abs() <= 0.25, "{name}: DRAM {off:+.2} off the paper");
    }
    let (tvm, paper_tvm) = (
        levels[3],
        TABLE7_BB[3].2.map(|p| p.expect("the paper's TVM")),
    );
    assert!(
        tvm[1] < paper_tvm[1] && tvm[2] < paper_tvm[2],
        "TVM's L1/L2 below the paper's"
    );
    let mut reports = fa.cells.iter().chain(&bb.cells).flatten();
    assert!(
        reports.all(|r| r.traffic.l1_bytes >= r.traffic.l2_bytes),
        "L1 >= L2"
    );
    let [d, l1, l2] = [0, 1, 2].map(|l| 100.0 * levels[0][l] / levels[1][l]);
    assert!((25.0..60.0).contains(&d), "FT/Triton DRAM {d}%");

    let cutlass_l2 = cutlass.l2_bytes as f64 / ft.l2_bytes as f64;
    let paper_l2 = |i: usize| TABLE7_FA[i].2[2].expect("the paper's L2");
    let paper_cutlass_l2 = paper_l2(3) / paper_l2(0);
    let [pd, pl1, pl2] = TABLE7_BB_PAPER_PERCENT;
    let caption = "(official shape; model GB, the paper's in parentheses)";
    let mut s = format!(
        "**① FlashAttention** {caption}\n\n{}\n",
        traffic_table(&TABLE7_FA, fa)
    );
    let _ = write!(s, "CUTLASS over FractalTensor L2: {cutlass_l2:.1}x ");
    let _ = writeln!(s, "(paper: {paper_cutlass_l2:.1}x).\n");
    let _ = writeln!(
        s,
        "**② BigBird** {caption}\n\n{}",
        traffic_table(&TABLE7_BB, bb)
    );
    let _ = write!(
        s,
        "FractalTensor over Triton: DRAM {d:.1}%, L1 {l1:.1}%, L2 {l2:.1}% "
    );
    let _ = writeln!(s, "(paper: {pd}%, {pl1}%, {pl2}%).");
    s
}

/// The ablation study on the stacked LSTM at the paper's shape, plus the
/// tile library on a 4096³ GEMM.
fn ablation() -> String {
    let shape = lstm::LstmShape::paper();
    let [block, cudnn, ft] =
        [BlockTile, Handcrafted, FractalTensor].map(|st| lstm::simulate(shape, st));
    assert!(block.ms > ft.ms && block.kernels > ft.kernels);
    assert!(ft.traffic.dram_bytes < cudnn.traffic.dram_bytes);
    let models = |rows: [(&str, SimReport); 2]| {
        let row = |(name, r): (&str, SimReport)| {
            let (ms, launches, gb) = (r.ms, r.kernels, r.traffic.dram_gb());
            format!("{name} | {ms:.3} | {launches} | {gb:.3}")
        };
        table("model | ms | launches | DRAM GB", rows.map(row))
    };

    let (lo, hi) = schedule(&lstm::program(shape)).wavefront_range();
    assert_eq!(
        hi - lo,
        (shape.depth + shape.seq - 1) as i64,
        "D+L-1 wavefront steps"
    );
    let steps = [
        format!(
            "sequential, one step per cell (D·L) | {}",
            shape.depth * shape.seq
        ),
        format!("compiled plan's `wavefront_steps()` | {}", hi - lo),
    ];

    let cfg = GpuConfig::a100();
    let tile = |(m, n, k)| {
        let (tile, mut machine) = (TileConfig::new(m, n, k), SimMachine::new(cfg.clone()));
        let [a, b, c] = [(); 3].map(|_| Region::whole(machine.alloc(4096 * 4096 * 4)));
        machine.launch(&ft_sim::gemm_kernel(
            "mm", 4096, 4096, 4096, a, b, c, tile, true,
        ));
        (tile, machine.elapsed_ms(), machine.counters())
    };
    let tiles = [(16, 16, 16), (32, 32, 32), (64, 64, 32), (128, 128, 32)].map(tile);
    let selected = TileConfig::select(4096, 4096, cfg.smem_per_sm_bytes);
    let fastest = tiles
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four tiles");
    assert_eq!(
        fastest.0, selected,
        "the library selects the fastest listed tile"
    );
    let tiles = tiles.map(|(t, ms, c)| {
        let (l2, dram) = (c.l2_gb(), c.dram_gb());
        format!("{}x{}x{} | {ms:.3} | {l2:.2} | {dram:.2}", t.tm, t.tn, t.tk)
    });

    let tiny = ft_passes::compile(&lstm::program(lstm::LstmShape::tiny())).expect("compiles");
    let (blocks, groups) = (tiny.etdg.blocks.len(), tiny.groups.len());
    assert_eq!(
        groups, 1,
        "the boundary regions merge into one launch group"
    );

    let lstm::LstmShape {
        batch,
        hidden,
        depth,
        seq,
    } = shape;
    let mut s =
        format!("Stacked LSTM, batch {batch}, hidden {hidden}, depth {depth}, seq {seq}.\n\n");
    let _ = writeln!(
        s,
        "**1. Coarsening** (strategy models, not a stage-off run): per-cell kernels against \
         wavefront launch groups\n\n{}",
        models([
            ("per-cell kernels (blocktile)", block),
            ("wavefront groups (fractaltensor)", ft)
        ])
    );
    let _ = writeln!(
        s,
        "**2. Reordering** (the compiled plan): dependent steps without and with the hyperplane \
         transform\n\n{}",
        table("schedule | dependent steps", steps)
    );
    let _ = writeln!(
        s,
        "**3. Reuse staging** (strategy models, not a stage-off run): weights re-fetched per step \
         against staged once per layer\n\n{}",
        models([
            ("re-fetch per step (handcrafted)", cudnn),
            ("stage per layer (fractaltensor)", ft)
        ])
    );
    let tiles = table("tile | ms | L2 GB | DRAM GB", tiles);
    let _ = writeln!(
        s,
        "**4. Tile selection** (4096³ GEMM on the A100 model)\n\n{tiles}"
    );
    let (tm, tn, tk, kib) = (
        selected.tm,
        selected.tn,
        selected.tk,
        cfg.smem_per_sm_bytes / 1024,
    );
    let _ = write!(
        s,
        "The library selects {tm}x{tn}x{tk}, the largest tile that fits "
    );
    let _ = writeln!(s, "{kib} KiB of shared memory.\n");
    let _ = write!(
        s,
        "**5. Region splitting**: the tiny LSTM's {blocks} block nodes "
    );
    let _ = writeln!(s, "compile to {groups} launch group.");
    s
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 6] = [
    "exec_rnn",
    "exec_dense",
    "compile_cold",
    "serve_open",
    "serve_sat",
    "serve_decode",
];
/// The per-layer values the wall-clock prose quotes, each with the
/// workload whose traced capture it comes from.
const WALLCLOCK_LAYERS: [(&str, &str); 14] = [
    ("backend.us_per_step", "exec_rnn"),
    ("backend.us_per_step", "exec_dense"),
    ("backend.scaling_t2", "exec_rnn"),
    ("backend.scaling_t2", "exec_dense"),
    ("pool.dispatch_us_t2", "exec_dense"),
    ("simd.gemm512_gflops", "exec_dense"),
    ("simd.gemm_leaf_gflops", "exec_rnn"),
    ("simd.gemm_leaf_gflops", "exec_dense"),
    ("backend.achieved_gflops", "exec_dense"),
    ("core.interp_ms", "exec_rnn"),
    ("backend.run_ms_t1", "exec_rnn"),
    ("core.interp_ms", "exec_dense"),
    ("backend.run_ms_t1", "exec_dense"),
    ("backend.run_ms_t2", "exec_dense"),
];

/// Three significant figures for values from 0.1 to 9999.
fn sig3(x: f64) -> String {
    match x.abs() {
        a if a >= 100.0 => format!("{x:.0}"),
        a if a >= 10.0 => format!("{x:.1}"),
        _ => format!("{x:.2}"),
    }
}

/// The wall-clock section from one `BENCH_history.jsonl` line.
fn wallclock(line: &str) -> Result<String, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("BENCH_history.jsonl: {e:?}"))?;
    let get = |path: &[&str]| {
        let missing = || {
            format!(
                "BENCH_history.jsonl: the newest line has no `{}`",
                path.join(".")
            )
        };
        path.iter()
            .try_fold(&v, |v, key| v.get(key))
            .ok_or_else(missing)
    };
    let text = |path: &[&str]| get(path).map(|v| v.as_str().map_or(v.to_string(), str::to_string));
    let metric = |name: &str, workload: &str| {
        let key = format!("{workload}/{name}");
        let value = get(&["metrics", &key, "value"])?.as_f64();
        value.ok_or(format!("BENCH_history.jsonl: `{key}` is not a number"))
    };
    let mut e2e = Vec::new();
    for w in WORKLOADS {
        let ms = |m| metric(m, w).map(sig3);
        let (p50, p95) = (ms("latency_ms_p50")?, ms("latency_ms_p95")?);
        let rate = sig3(metric("throughput_per_s", w)?);
        e2e.push(format!("`{w}` | {p50} ms | {p95} ms | {rate} /s"));
    }
    let mut layers = Vec::new();
    for (name, w) in WALLCLOCK_LAYERS {
        let unit = text(&["metrics", &format!("{w}/{name}"), "unit"])?;
        layers.push(format!(
            "`{name}` | `{w}` | {} | {unit}",
            sig3(metric(name, w)?)
        ));
    }
    let scaling = |w| metric("backend.scaling_t2", w);
    let pays = scaling("exec_dense")? > 1.0 && scaling("exec_rnn")? < 1.0;
    assert!(
        pays,
        "a second thread pays on exec_dense and not on exec_rnn"
    );
    let speedup =
        |w| Ok::<_, String>(metric("core.interp_ms", w)? / metric("backend.run_ms_t1", w)?);
    let (rnn, dense) = (speedup("exec_rnn")?, speedup("exec_dense")?);

    let (commit, cpu, nproc) = (
        text(&["commit"])?,
        text(&["host", "cpu"])?,
        text(&["host", "nproc"])?,
    );
    let (runs, seconds, seeds) = (text(&["runs"])?, text(&["seconds"])?, text(&["seed"])?);
    let mut s = format!("Newest `BENCH_history.jsonl` line: commit `{commit}`, host {cpu} ");
    let _ = writeln!(
        s,
        "(nproc {nproc}), {runs} captures of {seconds} s, seeds {seeds}.\n"
    );
    let _ = writeln!(s, "{}", table("workload | p50 | p95 | throughput", e2e));
    let _ = writeln!(
        s,
        "{}",
        table(
            "per-layer metric | traced capture of | value | unit",
            layers
        )
    );
    let _ = write!(
        s,
        "Interpreter time over compiled-plan time at one thread: "
    );
    let _ = writeln!(s, "`exec_rnn` {rnn:.1}x, `exec_dense` {dense:.1}x.");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regenerates a section twice, concurrently, and compares it with its
    /// block.
    fn block_is_current(name: &str) {
        let (first, second) = std::thread::scope(|s| {
            let other = s.spawn(|| section(name));
            (section(name), other.join().expect("section thread"))
        });
        let first = first.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(Ok(&first), second.as_ref(), "two runs of `{name}` differ");
        let doc = read("EXPERIMENTS.md").expect("EXPERIMENTS.md");
        check(&doc, name, &first).unwrap_or_else(|e| panic!("{e}"));
    }

    macro_rules! block_tests {
        ($($name:ident),*) => {$(
            #[test]
            fn $name() {
                super::block_is_current(stringify!($name));
            }
        )*};
    }

    /// One test per section, so they run in parallel.
    mod sections {
        block_tests!(fig2, fig7, fig8, fig9, table7, ablation, wallclock);
    }

    /// A document with one block per section, each holding `body`.
    fn doc_with(body: &str) -> String {
        SECTIONS
            .map(|s| format!("prose\n{OPEN}{s} -->\n{body}{CLOSE}\n"))
            .concat()
    }

    #[test]
    fn one_changed_digit_fails_with_the_line_and_the_command() {
        let doc = doc_with("| 1 | 2.345 |\n");
        assert_eq!(check(&doc, "fig7", "| 1 | 2.345 |\n"), Ok(()));
        let err = check(&doc, "fig7", "| 1 | 2.346 |\n").unwrap_err();
        assert!(
            err.contains("line 7") && err.contains("2.345") && err.contains("2.346"),
            "{err}"
        );
        assert!(err.contains("--bin reproduce -- --write"), "{err}");
        assert!(check(&doc, "fig7", "| 1 | 2.345 |\nmore\n")
            .unwrap_err()
            .contains("more"));
    }

    #[test]
    fn malformed_documents_fail() {
        let doc = doc_with("x\n");
        let err = |doc: &str| blocks(doc).map(|_| ()).unwrap_err();
        assert!(err(&format!("{doc}{OPEN}fig10 -->\n{CLOSE}\n")).contains("fig10"));
        let without_table7 = doc.replace(&format!("{OPEN}table7 -->\nx\n{CLOSE}\n"), "");
        assert!(err(&without_table7).contains("no `<!-- reproduce: table7 -->` block"));
        assert!(err(&doc.replacen(CLOSE, "", 1)).contains("`fig2` is not closed"));
        assert!(err(&format!("{doc}{OPEN}fig2 -->\n{CLOSE}\n")).contains("more than one"));
        assert!(err(&format!("{doc}{CLOSE}\n")).contains("closes no block"));
    }

    #[test]
    fn fill_rewrites_every_block_and_keeps_the_prose() {
        let out = fill(&doc_with("stale\n"), |name| Ok(format!("{name}\n"))).unwrap();
        for name in SECTIONS {
            assert_eq!(check(&out, name, &format!("{name}\n")), Ok(()));
        }
        assert_eq!(out.matches("prose\n").count(), SECTIONS.len());
    }

    #[test]
    fn a_history_line_missing_a_key_names_it() {
        let line =
            r#"{"commit":"c","host":{"cpu":"x","nproc":2},"runs":4,"seconds":20,"metrics":{}}"#;
        let err = wallclock(line).unwrap_err();
        assert!(
            err.contains("metrics.exec_rnn/latency_ms_p50.value"),
            "{err}"
        );
        assert!(wallclock("{").is_err());
    }
}
