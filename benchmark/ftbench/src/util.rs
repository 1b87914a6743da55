//! Seeded randomness, order statistics, process memory and the numeric
//! comparison every oracle check uses.

use std::time::Instant;

use ft_core::FractalTensor;
use ft_tensor::Tensor;

/// SplitMix64: the whole benchmark's only source of randomness, so one
/// `--seed` fixes every input, request mix and arrival schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for an independent stream (`salt` names the stream).
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One measured operation: when it ended (seconds after the timed section
/// began) and how long it took, in milliseconds. For an open loop the
/// duration runs from the operation's *due* time, not from when the
/// generator got round to sending it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub end_s: f64,
    pub ms: f64,
}

/// Latency percentiles over the samples of a timed section.
///
/// The section is cut into equal spans of about `SEGMENT_SECONDS` (see
/// [`segments`]) and each percentile is the median of the per-segment
/// values: a disturbance that lasts a second or two (another tenant of the
/// host, a page-cache flush) then moves one segment, not the reported
/// number.
pub fn latency_percentiles(samples: &[Sample], seconds: f64, qs: &[f64]) -> Vec<f64> {
    let count = segments(seconds);
    let mut segments: Vec<Vec<f64>> = vec![Vec::new(); count];
    for s in samples {
        let i = ((s.end_s / seconds) * count as f64) as usize;
        segments[i.min(count - 1)].push(s.ms);
    }
    segments.retain(|seg| !seg.is_empty());
    for seg in &mut segments {
        seg.sort_by(f64::total_cmp);
    }
    qs.iter()
        .map(|&q| {
            let per: Vec<f64> = segments.iter().map(|seg| percentile(seg, q)).collect();
            median(&per)
        })
        .collect()
}

/// Completed operations per second, as the median over the segments of
/// the timed section (see [`latency_percentiles`]).
///
/// A segment's rate is its completions over the time from the last
/// completion before it to its own last completion, not over the nominal
/// segment length: a sweep that takes 0.2 s would otherwise be counted in
/// steps of a tenth of the rate.
pub fn segment_throughput(samples: &[Sample], seconds: f64) -> f64 {
    let mut ends: Vec<f64> = samples.iter().map(|s| s.end_s).collect();
    ends.sort_by(f64::total_cmp);
    let count = segments(seconds);
    let mut per = Vec::with_capacity(count);
    let (mut from, mut first) = (0.0, 0usize);
    for seg in 1..=count {
        let limit = seconds * seg as f64 / count as f64;
        let done = ends[first..].iter().take_while(|&&e| e < limit).count();
        if done > 0 {
            let last = ends[first + done - 1];
            per.push(done as f64 / (last - from));
            from = last;
            first += done;
        }
    }
    median(&per)
}

/// Length of a segment of a timed section, in seconds: longer than the
/// host's usual disturbances, short enough that a run has many.
pub const SEGMENT_SECONDS: f64 = 2.0;

/// How many segments a timed section of `seconds` is cut into: an odd
/// number (the median is then one segment's value), at least five.
pub fn segments(seconds: f64) -> usize {
    let n = (seconds / SEGMENT_SECONDS).round().max(5.0) as usize;
    n | 1
}

/// Runs `f` and returns its result with the wall-clock seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls of `f`, after one unmeasured call.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether two tensors agree within `tol` relative to the larger magnitude
/// (at least 1) — the measure `tests/workload_parity.rs` uses. A NaN on
/// either side is a mismatch.
pub fn tensors_close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.dims() == b.dims()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            let scale = 1.0f32.max(x.abs()).max(y.abs());
            (x - y).abs() <= tol * scale
        })
}

pub fn fractals_close(a: &FractalTensor, b: &FractalTensor, tol: f32) -> bool {
    if a.prog_dims() != b.prog_dims() {
        return false;
    }
    match (a.to_flat(), b.to_flat()) {
        (Ok(fa), Ok(fb)) => tensors_close(&fa, &fb, tol),
        _ => false,
    }
}

/// The last leaf of a FractalTensor: for a scan it is the value every
/// earlier step feeds, so checking it alone catches a wrong step cheaply.
pub fn last_leaf(ft: &FractalTensor) -> Option<&Tensor> {
    let mut cur = ft;
    loop {
        let n = cur.len();
        if n == 0 {
            return None;
        }
        match cur {
            FractalTensor::Leaves(_) => return cur.leaf(n - 1).ok(),
            FractalTensor::Nested(_) => cur = cur.get(n - 1).ok()?,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Ten samples: the 95th percentile is the largest, the median the 5th.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.95), 10.0);
        assert_eq!(percentile(&ten, 0.50), 5.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_stalled_segment_does_not_move_the_reported_percentile() {
        // 5 s of 1 ms operations, except that every operation ending in the
        // third second took 50 ms.
        let samples: Vec<Sample> = (0..5000)
            .map(|i| {
                let end_s = (i + 1) as f64 / 1000.0;
                let ms = if (2.0..3.0).contains(&end_s) {
                    50.0
                } else {
                    1.0
                };
                Sample { end_s, ms }
            })
            .collect();
        let p = latency_percentiles(&samples, 5.0, &[0.5, 0.95]);
        assert_eq!(p, vec![1.0, 1.0]);
        assert!((segment_throughput(&samples, 5.0) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn segments_follow_the_run_length_and_stay_odd() {
        assert_eq!(segments(4.0), 5);
        assert_eq!(segments(10.0), 5);
        assert_eq!(segments(20.0), 11);
        assert_eq!(segments(60.0), 31);
    }

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(
            Rng::new(42).fork(1).next_u64(),
            Rng::new(42).fork(2).next_u64()
        );
        let x = Rng::new(7).next_f64();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn nan_never_compares_close() {
        let a = Tensor::from_vec(vec![1.0, f32::NAN], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 0.0], &[2]).unwrap();
        assert!(!tensors_close(&a, &b, 1e-4));
        assert!(tensors_close(&b, &b, 1e-4));
    }
}
