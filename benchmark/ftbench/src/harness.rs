//! What every workload shares: the command line, the closed loop, the
//! repeated set-up and the assembly of the end-to-end metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::Tracer;
use crate::util::{latency_percentiles, median, peak_rss_mb, segment_throughput, timed, Sample};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_out: std::path::PathBuf,
}

/// Metric values by name; the units live in `names.rs`.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// How many times a run sets the workload up. `setup_s` is the median, so
/// one slow thread spawn or page fault does not decide it.
pub const SETUP_REPS: usize = 5;

/// Sets up `SETUP_REPS` times, keeps the last state and returns it with
/// the median set-up time in seconds.
pub fn repeated_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        // Drop the previous state first: two live runtimes would double
        // the threads and the memory the measured one sees.
        drop(state.take());
        let (s, secs) = timed(&mut setup);
        times.push(secs);
        state = Some(s);
    }
    (state.expect("at least one set-up ran"), median(&times))
}

/// The samples of a timed section and its operation counts.
#[derive(Default)]
pub struct Timed {
    /// One sample per operation that succeeded (and, in an open loop, met
    /// its latency limit).
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// Adds a later slice's operations; its samples end `offset_s` later.
    pub fn absorb(&mut self, later: Timed, offset_s: f64) {
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.samples
            .extend(later.samples.into_iter().map(|s| Sample {
                end_s: s.end_s + offset_s,
                ms: s.ms,
            }));
    }

    fn median_ms(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.ms).collect::<Vec<_>>())
    }
}

/// Slices a traced run cuts its timed section into. Odd slices are traced,
/// even ones are not, so the host's drift over the section lands on both
/// sides of the comparison.
pub const TRACE_SLICES: usize = 10;

/// The timed section of a traced run: `section(seconds, slice, first_op,
/// tracer)` runs once per slice with tracing alternately off and on;
/// operation ids keep counting across slices. Returns the traced slices,
/// the untraced slices' operation counts (their samples are not kept), and
/// `bench.trace_overhead_share`: by how much the median latency of the
/// traced slices exceeds that of the untraced ones.
pub fn alternate<T>(
    seconds: f64,
    tracer: &mut Tracer,
    mut section: impl FnMut(f64, usize, u64, &mut Tracer) -> T,
    timed: impl Fn(&T) -> &Timed,
) -> (Vec<T>, Timed, f64) {
    let mut traced = Vec::new();
    let mut untraced = Timed::default();
    let (mut traced_p50, mut untraced_p50) = (Vec::new(), Vec::new());
    let mut next_op = 0u64;
    for slice in 0..TRACE_SLICES {
        let on = slice % 2 == 1;
        tracer.set_on(on);
        let part = section(seconds / TRACE_SLICES as f64, slice, next_op, tracer);
        let t = timed(&part);
        next_op += t.attempted;
        if on {
            traced_p50.push(t.median_ms());
            traced.push(part);
        } else {
            untraced_p50.push(t.median_ms());
            untraced.attempted += t.attempted;
            untraced.failed += t.failed;
        }
    }
    tracer.set_on(true);
    let overhead = median(&traced_p50) / median(&untraced_p50) - 1.0;
    (traced, untraced, overhead)
}

/// Length in seconds of one slice of [`alternate`].
pub fn slice_seconds(seconds: f64) -> f64 {
    seconds / TRACE_SLICES as f64
}

/// Closed loop, one caller: runs `op` back to back for `seconds`, timing
/// each call, and hands its result to `check` after the clock stopped for
/// that call. An operation `check` rejects counts as failed.
pub fn closed_loop<T>(
    seconds: f64,
    first_op: u64,
    tracer: &mut Tracer,
    mut op: impl FnMut(&mut Tracer, u64) -> T,
    mut check: impl FnMut(u64, T) -> bool,
) -> Timed {
    let mut out = Timed::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = first_op;
    loop {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let result = op(tracer, i);
        let t1 = Instant::now();
        out.attempted += 1;
        if check(i, result) {
            out.samples.push(Sample {
                end_s: t1.duration_since(start).as_secs_f64(),
                ms: t1.duration_since(t0).as_secs_f64() * 1e3,
            });
        } else {
            out.failed += 1;
        }
        i += 1;
    }
    out
}

/// How a loop counts its throughput.
#[derive(Clone, Copy)]
pub enum Loop {
    /// Completed operations per second, median over segments.
    Closed,
    /// Operations that met the limit, over the time from the start of the
    /// schedule to the last completion. A run that keeps up reads the
    /// offered rate, give or take the last request's latency.
    Open,
}

/// The five end-to-end metrics of the timed section `t`, read when it ends.
pub fn end_to_end(setup_s: f64, t: &Timed, seconds: f64, kind: Loop) -> Values {
    let p = latency_percentiles(&t.samples, seconds, &[0.5, 0.95]);
    let throughput = match kind {
        Loop::Closed => segment_throughput(&t.samples, seconds),
        Loop::Open => {
            // No completion at all reads 0, not 0 / 0.
            let last = t
                .samples
                .iter()
                .map(|s| s.end_s)
                .fold(f64::EPSILON, f64::max);
            t.samples.len() as f64 / last
        }
    };
    Values::from([
        ("setup_s", setup_s),
        ("latency_ms_p50", p[0]),
        ("latency_ms_p95", p[1]),
        ("throughput_per_s", throughput),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}
