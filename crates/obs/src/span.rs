//! Spans: the opt-in timeline view over the same pipeline the registry
//! counts.
//!
//! A span is a named interval with structured [`FieldValue`] fields and
//! monotonic microsecond timestamps, recorded as a *complete* event when
//! its [`SpanGuard`] drops. Spans on one thread nest by interval
//! containment, which is how Perfetto stacks them. Totals are not kept
//! here — they are registry counters; a span carries per-event detail.
//!
//! Recording is off by default. `FT_TRACE=1` (`true`/`on`) turns it on,
//! read lazily on the first span call; [`enable`]/[`disable`] override
//! it. With recording off a span costs one relaxed atomic load.
//!
//! The collector is sharded per thread: each recording thread appends to
//! its own mutex-guarded shard (uncontended in steady state), and
//! [`snapshot`]/[`take`] merge the shards. The buffer is bounded: at most
//! [`SPAN_BUFFER_CAP`] events wait for a [`take`] across all threads, and
//! every event beyond that is dropped and counted in the global
//! registry's `obs.spans_dropped`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use serde_json::{json, Map, Value};

use crate::registry::{Counter, Registry, RegistrySnapshot};

/// The `pid` used for wall-clock events (pipeline passes, executor).
pub const WALL_PID: u64 = 1;
/// The `pid` used for simulated-time events (`ft-sim` kernel launches).
/// These live on a separate Perfetto process track because their
/// timestamps are modeled microseconds, not wall-clock ones.
pub const SIM_PID: u64 = 2;

/// Most events buffered across all threads between two [`take`]s. A
/// `trace_report all` run records about 1.5k; a traced server that is
/// never drained stops growing here (a few tens of MB).
pub const SPAN_BUFFER_CAP: usize = 1 << 16;

/// A structured span/field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    /// The value as JSON.
    pub fn to_json(&self) -> Value {
        match self {
            FieldValue::I64(v) => Value::from(*v),
            FieldValue::U64(v) => Value::from(*v),
            FieldValue::F64(v) => Value::from(*v),
            FieldValue::Bool(v) => Value::from(*v),
            FieldValue::Str(v) => Value::from(v.as_str()),
        }
    }
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}
field_from!(i64 => I64 as i64, u64 => U64 as u64, usize => U64 as u64, f64 => F64 as f64);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One recorded complete event (Chrome `ph: "X"` shape).
#[derive(Debug, Clone)]
pub struct Event {
    /// Span name.
    pub name: String,
    /// Category: `compile`, `exec`, `sim`, ...
    pub cat: &'static str,
    /// Process track ([`WALL_PID`] or [`SIM_PID`]).
    pub pid: u64,
    /// Thread track.
    pub tid: u64,
    /// Start, microseconds since the span epoch (or simulated µs).
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Structured fields (`args` in the Chrome trace).
    pub fields: Vec<(String, FieldValue)>,
}

/// A drained or cloned view of every buffered span.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Completed span events, in completion order per thread.
    pub events: Vec<Event>,
    /// Human labels for (pid, tid) thread tracks.
    pub thread_labels: BTreeMap<(u64, u64), String>,
}

/// One thread's private slice of the collector. The hot path (span drop)
/// locks only the calling thread's shard; the shard list lock is taken
/// once per thread lifetime and on merge, never per event.
#[derive(Default)]
struct Shard {
    events: Vec<Event>,
    thread_labels: BTreeMap<(u64, u64), String>,
}

/// Every live shard plus exited threads' shards that still hold data, in
/// registration order, so one thread's events keep their order on merge.
static SHARDS: Mutex<Vec<Arc<Mutex<Shard>>>> = Mutex::new(Vec::new());
/// Events buffered across all shards (see [`SPAN_BUFFER_CAP`]).
static BUFFERED: AtomicUsize = AtomicUsize::new(0);

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    // The registry holds a second Arc, so data recorded by a thread that
    // exited is still merged by take(). Registering prunes exited threads'
    // empty shards, so thread churn does not grow the list.
    static SHARD: Arc<Mutex<Shard>> = {
        let shard = Arc::new(Mutex::new(Shard::default()));
        let mut shards = SHARDS.lock();
        shards.retain(|s| Arc::strong_count(s) > 1 || !s.lock().is_empty());
        shards.push(Arc::clone(&shard));
        shard
    };
}

impl Shard {
    fn is_empty(&self) -> bool {
        self.events.is_empty() && self.thread_labels.is_empty()
    }
}

fn spans_dropped() -> &'static Counter {
    static DROPPED: OnceLock<Counter> = OnceLock::new();
    DROPPED.get_or_init(|| Registry::global().counter("obs.spans_dropped"))
}

/// Runs `f` under the calling thread's shard lock.
fn with_shard<R>(f: impl FnOnce(&mut Shard) -> R) -> R {
    SHARD.with(|s| f(&mut s.lock()))
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the span epoch (first use). Monotonic.
pub fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Whether spans are recorded.
///
/// The first call resolves the `FT_TRACE` environment variable
/// (`1`/`true`/`on` enable); afterwards this is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("FT_TRACE")
        .map(|v| matches!(v.as_str(), "1" | "true" | "TRUE" | "on"))
        .unwrap_or(false);
    set_enabled(on);
    on
}

fn set_enabled(on: bool) {
    if on {
        // Arm the epoch before publishing the flag so a racing span sees
        // a consistent clock, and register the drop counter so every
        // traced run exports it, zero included.
        epoch();
        spans_dropped();
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Starts recording spans, whatever `FT_TRACE` says.
pub fn enable() {
    set_enabled(true);
}

/// Stops recording spans. Buffered events are kept until [`take`].
pub fn disable() {
    set_enabled(false);
}

/// An open span; records a complete event when dropped.
///
/// Obtained from [`span`]. When recording is off the guard is inert: no
/// clock is read, no allocation happens, and [`SpanGuard::field`]
/// discards its arguments.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    cat: &'static str,
    tid: u64,
    start_us: f64,
    fields: Vec<(String, FieldValue)>,
}

impl SpanGuard {
    /// Whether this span is live (recording was on when it opened).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a key-value field.
    pub fn field(&mut self, key: impl Into<String>, value: impl Into<FieldValue>) {
        if let Some(a) = self.active.as_mut() {
            a.fields.push((key.into(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let dur_us = now_us() - a.start_us;
            record(Event {
                name: a.name.to_string(),
                cat: a.cat,
                pid: WALL_PID,
                tid: a.tid,
                ts_us: a.start_us,
                dur_us,
                fields: a.fields,
            });
        }
    }
}

/// Opens a span on the current thread's wall-clock track.
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            cat,
            tid: TID.with(|t| *t),
            start_us: now_us(),
            fields: Vec::new(),
        }),
    }
}

/// Records an already-measured interval, e.g. on an explicit worker or
/// simulated-time track. No-op when recording is off.
pub fn complete_event(
    cat: &'static str,
    name: impl Into<String>,
    pid: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    fields: Vec<(String, FieldValue)>,
) {
    if !enabled() {
        return;
    }
    record(Event {
        name: name.into(),
        cat,
        pid,
        tid,
        ts_us,
        dur_us,
        fields,
    });
}

/// Names a (pid, tid) track in the exported trace. No-op when recording
/// is off. Duplicate registrations (from any thread) keep the first label.
pub fn set_thread_label(pid: u64, tid: u64, label: impl Into<String>) {
    if !enabled() {
        return;
    }
    let label = label.into();
    with_shard(|s| {
        s.thread_labels.entry((pid, tid)).or_insert(label);
    });
}

fn record(e: Event) {
    if BUFFERED.fetch_add(1, Ordering::Relaxed) >= SPAN_BUFFER_CAP {
        BUFFERED.fetch_sub(1, Ordering::Relaxed);
        spans_dropped().inc();
        return;
    }
    with_shard(|s| s.events.push(e));
}

fn merge(drain: bool) -> Snapshot {
    let mut out = Snapshot::default();
    let mut shards = SHARDS.lock();
    for shard in shards.iter() {
        let mut s = shard.lock();
        if drain {
            out.events.append(&mut s.events);
        } else {
            out.events.extend(s.events.iter().cloned());
        }
        for (k, label) in &s.thread_labels {
            out.thread_labels.entry(*k).or_insert_with(|| label.clone());
        }
        if drain {
            s.thread_labels.clear();
        }
    }
    if drain {
        BUFFERED.fetch_sub(out.events.len(), Ordering::Relaxed);
        // Drop shards whose owning thread exited (the list holds the only
        // remaining Arc).
        shards.retain(|s| Arc::strong_count(s) > 1);
    }
    out
}

/// Clones the buffered events without draining them, merging every
/// thread's shard. Per-thread event order is preserved; shards are
/// concatenated in registration order.
pub fn snapshot() -> Snapshot {
    merge(false)
}

/// Drains and returns every buffered event across all shards.
pub fn take() -> Snapshot {
    merge(true)
}

/// Renders spans plus registry counters in the Chrome Trace Event format
/// (JSON object form), loadable in `chrome://tracing` and
/// <https://ui.perfetto.dev>:
///
/// * every span becomes a complete event (`"ph": "X"`) with its fields
///   under `args`,
/// * every counter in `metrics` becomes one counter sample (`"ph": "C"`)
///   at the end of the trace,
/// * process/thread tracks get metadata names: wall-clock events live in
///   process 1 (`fractaltensor`), simulated-time events in process 2
///   (`ft-sim (modeled time)`).
pub fn chrome_trace(spans: &Snapshot, metrics: &RegistrySnapshot) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(spans.events.len() + 16);
    events.push(meta_event("process_name", WALL_PID, 0, "fractaltensor"));
    events.push(meta_event(
        "process_name",
        SIM_PID,
        0,
        "ft-sim (modeled time)",
    ));
    for ((pid, tid), label) in &spans.thread_labels {
        events.push(meta_event("thread_name", *pid, *tid, label));
    }

    let mut end_us = 0.0f64;
    for e in &spans.events {
        end_us = end_us.max(e.ts_us + e.dur_us);
        let args: Map = e
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect();
        events.push(json!({
            "name": &e.name,
            "cat": e.cat,
            "ph": "X",
            "ts": e.ts_us,
            "dur": e.dur_us,
            "pid": e.pid,
            "tid": e.tid,
            "args": Value::Object(args),
        }));
    }

    for (name, total) in &metrics.counters {
        let sample = Map::from([("value".to_string(), Value::from(*total))]);
        events.push(json!({
            "name": name.as_str(),
            "ph": "C",
            "ts": end_us,
            "pid": WALL_PID,
            "tid": 0u64,
            "args": Value::Object(sample),
        }));
    }

    json!({
        "traceEvents": Value::Array(events),
        "displayTimeUnit": "ms",
    })
}

fn meta_event(kind: &str, pid: u64, tid: u64, name: &str) -> Value {
    let args = Map::from([("name".to_string(), Value::from(name))]);
    json!({
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": Value::Object(args),
    })
}
