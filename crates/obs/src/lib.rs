//! # ft-obs
//!
//! The one telemetry substrate of the reproduction: every layer — compile
//! passes, verifier, wavefront executor, simulator, serving runtime —
//! counts into a metrics registry, and may additionally record spans.
//!
//! * The **registry** ([`registry`]) is always on: named counters, gauges,
//!   and log-bucket histograms, cheap enough to update on every request.
//!   The hot path never takes a lock (handles are `Arc`s over atomics),
//!   histograms count **every** observation in O(1) memory with quantiles
//!   exact to within one bucket's ~9% relative width (see [`hist`]), and
//!   the [`export`] module renders any registry as Prometheus text or
//!   JSON lines, on demand or from a background flusher.
//! * **Spans** ([`mod@span`]) are an opt-in view of the same pipeline: timed
//!   events with structured fields, off unless `FT_TRACE=1` or
//!   [`enable`], rendered for Perfetto by [`chrome_trace`]. A span never
//!   holds a total — totals are registry counters.
//!
//! The [`trace`] module carries per-request identity
//! (request/session/plan-signature/batch) through the serve pipeline and
//! collects one attributable [`CompletionRecord`] per request — fused
//! batches of `k` requests yield `k` records sharing a batch id.
//!
//! ```
//! let reg = ft_obs::Registry::new();
//! reg.counter("serve.completed").inc();
//! reg.gauge("serve.queue_depth").set(3);
//! reg.histogram("serve.latency_us").record(412.0);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["serve.completed"], 1);
//! let prom = ft_obs::prometheus_text(&snap);
//! assert!(prom.contains("serve_queue_depth 3"));
//!
//! ft_obs::enable();
//! {
//!     let mut span = ft_obs::span("compile", "pass.parse");
//!     span.field("blocks", 4u64);
//! }
//! let spans = ft_obs::take();
//! assert_eq!(spans.events.len(), 1);
//! let trace = ft_obs::chrome_trace(&spans, &snap);
//! assert!(trace["traceEvents"].as_array().is_some());
//! ft_obs::disable();
//! ```

#![forbid(unsafe_code)]
// The observability layer runs inside the serving hot path: it must never
// panic a request. Non-test code is unwrap/expect-free.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod hist;
pub mod registry;
pub mod span;
pub mod trace;

pub use export::{flush, json_row, prometheus_text, Exporter, ExporterConfig};
pub use hist::{HistSnapshot, Histogram};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use span::{
    chrome_trace, complete_event, disable, enable, enabled, now_us, set_thread_label, snapshot,
    span, take, Event, FieldValue, Snapshot, SpanGuard, SIM_PID, SPAN_BUFFER_CAP, WALL_PID,
};
pub use trace::{
    next_request_id, CompletionRecord, CompletionStatus, FuseDecision, TraceContext, TraceLog,
};
