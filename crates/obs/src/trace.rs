//! Per-request trace context and completion records.
//!
//! A [`TraceContext`] is minted at admission (one per request) and
//! propagated through the serving pipeline: the plan cache (setup time,
//! cold vs cached), the batch-fusion legality path (the [`FuseDecision`]),
//! the wavefront launch (the batch id every `exec` span carries), and the
//! per-request completion. When a fused batch of `k` requests finishes,
//! the runtime emits `k` [`CompletionRecord`]s — one per request, all
//! sharing the batch id — so per-request attribution survives fusion.
//!
//! Records land in a bounded [`TraceLog`] ring buffer (drained by tests,
//! the exporter, and `ft-top`) and, when spans are recorded, also appear
//! as Perfetto complete events via [`CompletionRecord::emit_span`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use serde_json::{json, Value};

/// Mints process-unique request ids.
pub fn next_request_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Identity a request carries through the whole serve path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Process-unique request id, minted at admission.
    pub request_id: u64,
    /// Stateful-session id, when the request belongs to one.
    pub session_id: Option<u64>,
    /// The key of the plan family the program belongs to (hex), shared by
    /// every request that resolves to the same cached plan.
    pub plan_sig: String,
    /// The fused launch this request rode in, set at dispatch.
    pub batch_id: Option<u64>,
}

/// What the batch-fusion legality path decided for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseDecision {
    /// Ran in a fused launch of `size` requests.
    Fused {
        /// Number of requests in the fused launch.
        size: u32,
    },
    /// Ran alone (no co-scheduled same-plan request, or batching off,
    /// or the program is not batchable).
    Solo,
    /// A fused attempt failed and this request fell back to a solo run;
    /// the reason is the legality/execution failure message.
    Fallback(String),
}

impl FuseDecision {
    fn label(&self) -> &'static str {
        match self {
            FuseDecision::Fused { .. } => "fused",
            FuseDecision::Solo => "solo",
            FuseDecision::Fallback(_) => "fallback",
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Fulfilled successfully.
    Ok,
    /// Bounced with an expired deadline.
    Deadline,
    /// Failed with the given error message.
    Error(String),
}

impl CompletionStatus {
    fn label(&self) -> &'static str {
        match self {
            CompletionStatus::Ok => "ok",
            CompletionStatus::Deadline => "deadline",
            CompletionStatus::Error(_) => "error",
        }
    }
}

/// One request's fully attributed completion: identity plus the phase
/// breakdown of where its latency went.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionRecord {
    /// The identity tuple (request, session, plan signature, batch).
    pub ctx: TraceContext,
    /// Time spent queued before the scheduler picked the request up, µs.
    pub queue_wait_us: f64,
    /// Plan-acquisition time billed to this request's group, µs.
    pub setup_us: f64,
    /// Whether setup was a plan-cache hit (false = cold compile+verify).
    pub setup_cached: bool,
    /// What the fusion path decided.
    pub fuse: FuseDecision,
    /// Wavefront execution time of the launch that served this request, µs.
    pub exec_us: f64,
    /// Concat/split overhead billed to this request's batch, µs.
    pub split_us: f64,
    /// End-to-end latency from submission to fulfillment, µs.
    pub total_us: f64,
    /// How the request ended.
    pub status: CompletionStatus,
}

impl CompletionRecord {
    /// The record as one JSON object (a `trace.jsonl` row).
    pub fn to_json(&self) -> Value {
        json!({
            "request_id": self.ctx.request_id,
            "session_id": self.ctx.session_id,
            "plan_sig": self.ctx.plan_sig.as_str(),
            "batch_id": self.ctx.batch_id,
            "queue_wait_us": self.queue_wait_us,
            "setup_us": self.setup_us,
            "setup_cached": self.setup_cached,
            "fuse": self.fuse.label(),
            "fuse_detail": match &self.fuse {
                FuseDecision::Fused { size } => json!({ "batch_size": *size }),
                FuseDecision::Solo => Value::Null,
                FuseDecision::Fallback(reason) => json!({ "reason": reason }),
            },
            "exec_us": self.exec_us,
            "split_us": self.split_us,
            "total_us": self.total_us,
            "status": self.status.label(),
            "error": match &self.status {
                CompletionStatus::Error(e) => Value::from(e.as_str()),
                _ => Value::Null,
            },
        })
    }

    /// Records the request as a complete span event ending at `end_us`
    /// ([`crate::now_us`] time), so the Perfetto export shows one span
    /// per request on a `requests` track, stacked by batch. No-op when
    /// spans are off.
    pub fn emit_span(&self, end_us: f64) {
        if !crate::enabled() {
            return;
        }
        // Spread overlapping requests across a few tracks so Perfetto
        // doesn't fold concurrent spans into one malformed stack.
        let tid = REQUEST_TID_BASE + self.ctx.request_id % REQUEST_TRACKS;
        crate::set_thread_label(crate::WALL_PID, tid, "requests");
        let mut fields: Vec<(String, crate::FieldValue)> = vec![
            ("request_id".into(), self.ctx.request_id.into()),
            ("plan_sig".into(), self.ctx.plan_sig.as_str().into()),
            ("queue_wait_us".into(), self.queue_wait_us.into()),
            ("setup_us".into(), self.setup_us.into()),
            ("setup_cached".into(), self.setup_cached.into()),
            ("fuse".into(), self.fuse.label().into()),
            ("exec_us".into(), self.exec_us.into()),
            ("split_us".into(), self.split_us.into()),
            ("status".into(), self.status.label().into()),
        ];
        if let Some(b) = self.ctx.batch_id {
            fields.push(("batch_id".into(), b.into()));
        }
        if let Some(s) = self.ctx.session_id {
            fields.push(("session_id".into(), s.into()));
        }
        if let FuseDecision::Fallback(reason) = &self.fuse {
            fields.push(("fallback_reason".into(), reason.as_str().into()));
        }
        crate::complete_event(
            "serve",
            format!("request:{}", self.ctx.request_id),
            crate::WALL_PID,
            tid,
            (end_us - self.total_us).max(0.0),
            self.total_us,
            fields,
        );
    }
}

/// Thread-track ids for per-request spans start here (executor
/// worker tracks start at 1000; keep the ranges disjoint).
const REQUEST_TID_BASE: u64 = 2000;
const REQUEST_TRACKS: u64 = 8;

/// A bounded ring buffer of completion records. When full, the oldest
/// record is dropped and counted — a long-running server never grows
/// without bound, and the drop count makes the truncation visible.
#[derive(Debug)]
pub struct TraceLog {
    inner: Mutex<VecDeque<CompletionRecord>>,
    cap: usize,
    dropped: AtomicU64,
}

impl TraceLog {
    /// Default capacity: enough for every in-flight request plus a
    /// generous scrape interval's worth of history.
    pub const DEFAULT_CAP: usize = 4096;

    /// A log holding at most `cap` records.
    pub fn new(cap: usize) -> Self {
        TraceLog {
            inner: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&self, rec: CompletionRecord) {
        let mut q = self.inner.lock();
        if q.len() >= self.cap {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(rec);
    }

    /// Takes every buffered record.
    pub fn drain(&self) -> Vec<CompletionRecord> {
        self.inner.lock().drain(..).collect()
    }

    /// Records evicted before being drained.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Buffered records right now.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new(Self::DEFAULT_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> CompletionRecord {
        CompletionRecord {
            ctx: TraceContext {
                request_id: id,
                session_id: None,
                plan_sig: "deadbeef".into(),
                batch_id: Some(3),
            },
            queue_wait_us: 10.0,
            setup_us: 2.0,
            setup_cached: true,
            fuse: FuseDecision::Fused { size: 4 },
            exec_us: 100.0,
            split_us: 1.0,
            total_us: 113.0,
            status: CompletionStatus::Ok,
        }
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let log = TraceLog::new(4);
        for i in 0..10 {
            log.push(rec(i));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 6);
        let drained = log.drain();
        assert_eq!(drained.len(), 4);
        assert_eq!(
            drained[0].ctx.request_id, 6,
            "oldest surviving record first"
        );
        assert!(log.is_empty());
    }

    #[test]
    fn json_row_carries_the_full_identity_tuple() {
        let j = rec(42).to_json();
        assert_eq!(j["request_id"], 42);
        assert_eq!(j["batch_id"], 3);
        assert_eq!(j["plan_sig"], "deadbeef");
        assert_eq!(j["fuse"], "fused");
        assert_eq!(j["fuse_detail"]["batch_size"], 4);
        assert_eq!(j["status"], "ok");
    }

    #[test]
    fn request_ids_are_unique_across_threads() {
        let mut ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..100).map(|_| next_request_id()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 800);
    }
}
