//! # ft-serve
//!
//! A concurrent serving runtime for compiled FractalTensor programs.
//!
//! The ETDG schedule (§5) depends only on program structure, so a serving
//! process should pay for parse + coarsen + reorder + verify exactly once
//! per workload, and for thread spin-up exactly once per process. The
//! [`Runtime`] owns:
//!
//! * one persistent [`ft_pool::WorkerPool`] shared by every request (no
//!   per-run thread creation),
//! * one plan cache ([`ft_passes::PolyCache`]) keyed by the program's
//!   name-insensitive *family* identity ([`ft_core::family_split`]): the
//!   structure with the polymorphic outer extent masked out, so one cached
//!   [`ft_passes::PolyPlan`] serves every outer extent and repeated
//!   submissions skip compilation and verification entirely. A program
//!   without a polymorphic outer axis is a family of one extent,
//! * a bounded admission queue with backpressure ([`ServeError::QueueFull`]
//!   from [`Runtime::submit`], blocking from [`Runtime::submit_wait`]) and
//!   per-request deadlines ([`ServeError::Deadline`]),
//! * a scheduler thread that drains the queue, groups requests of one
//!   family and length bucket (factor-of-4 extent classes), and — when the
//!   family has a batched buffer, i.e. the program's outermost dimension is
//!   a pure `map` (see [`ft_core::poly`]) — executes the group as **one
//!   fused launch**, always ragged, whose parts are read in place
//!   ([`Executor::run_parts`]): the family is instantiated at the summed
//!   extent and run as a single widened wavefront on the pool over every
//!   member's inputs where the member holds them, and each member gets
//!   back its own output rows; nothing is concatenated or split.
//!   Equal-extent members are the case where all parts happen to be
//!   equal. Shape misalignment or a fused-execution failure falls back to
//!   per-request execution; batching is an optimization, never a
//!   correctness risk.
//!
//! Every failure is a typed [`ServeError`] delivered through the request's
//! [`Ticket`]; an expired or failed request never poisons the pool or the
//! cache, and subsequent requests are unaffected.

#![forbid(unsafe_code)]
// Serving keeps running through bad requests: non-test code in this crate
// is unwrap/expect-free.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod session;

pub use session::{SessionError, SessionSpec, StateBinding, StateOp};

use session::SessionEntry;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use ft_backend::{ExecError, Executor};

pub use ft_backend::FaultPlan;
use ft_core::{family_split, BufferId, BufferKind, FractalTensor, PolySplit, Program, StructKey};
use ft_obs::{
    CompletionRecord, CompletionStatus, Counter, FuseDecision, Gauge, Histogram, Registry,
    TraceContext, TraceLog,
};
use ft_passes::{PolyCache, PolyPlan};
use ft_pool::WorkerPool;
use ft_verify::build_poly_verified;

/// Errors a request can come back with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue is at capacity; retry or use
    /// [`Runtime::submit_wait`].
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request's deadline passed before execution finished starting.
    Deadline,
    /// The executor failed.
    Exec(ExecError),
    /// Compilation (or verification) of the submitted program failed.
    Compile(String),
    /// A declared input buffer was missing or malformed.
    Input(String),
    /// The runtime is shutting down.
    Shutdown,
    /// The scheduler thread could not be spawned at construction.
    Spawn(String),
    /// The scheduler thread panicked while this request was in flight;
    /// the supervisor failed the ticket, respawned the scheduler, and
    /// service continued. The request itself may be retried.
    SchedulerDown,
    /// The request's plan is quarantined: it failed too many consecutive
    /// executions and the circuit breaker is failing fast (no pool time
    /// burned) until a cooldown elapses and a half-open probe succeeds.
    Quarantined,
    /// Deadline-aware load shedding: the estimated queue wait plus
    /// service time already exceeds the request's deadline, so admission
    /// rejected it instead of queueing doomed work. Distinct from
    /// [`QueueFull`](ServeError::QueueFull) — the queue had room, the
    /// deadline did not.
    Shed {
        /// The wait estimate (µs) that made the deadline unmeetable.
        estimated_us: u64,
    },
    /// A stateful-session operation failed ([`SessionError`]). This class
    /// indicts the *session* — a strike toward its eviction — and is
    /// invisible to the plan's quarantine breaker: an abusive session can
    /// never quarantine a plan other sessions depend on.
    Session(SessionError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            ServeError::Deadline => write!(f, "deadline expired before execution"),
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
            ServeError::Compile(m) => write!(f, "compilation failed: {m}"),
            ServeError::Input(m) => write!(f, "bad input: {m}"),
            ServeError::Shutdown => write!(f, "runtime is shut down"),
            ServeError::Spawn(m) => write!(f, "failed to spawn scheduler thread: {m}"),
            ServeError::SchedulerDown => {
                write!(
                    f,
                    "scheduler panicked with this request in flight (restarted)"
                )
            }
            ServeError::Quarantined => {
                write!(
                    f,
                    "plan quarantined after repeated failures; retry after cooldown"
                )
            }
            ServeError::Shed { estimated_us } => write!(
                f,
                "shed at admission: estimated wait {estimated_us} µs exceeds the deadline"
            ),
            ServeError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> Self {
        ServeError::Session(e)
    }
}

/// What a fulfilled request resolves to.
pub type ServeResult = Result<HashMap<BufferId, FractalTensor>, ServeError>;

/// Runtime construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the shared pool (0 = [`ft_pool::default_threads`]).
    pub threads: usize,
    /// Admission queue bound; submissions beyond it are rejected
    /// ([`ServeError::QueueFull`]) or block ([`Runtime::submit_wait`]).
    pub queue_capacity: usize,
    /// Maximum requests fused into one launch.
    pub max_batch: usize,
    /// Whether to fuse same-plan requests at all.
    pub batching: bool,
    /// Run schedule-legality verification on cold family builds
    /// ([`ft_verify::build_poly_verified`]); cache hits never re-verify.
    pub verify: bool,
    /// Override the executor's runtime guard (`None` = inherit `FT_GUARD`).
    pub guard: Option<bool>,
    /// Override reference fallback (`None` = inherit `FT_FALLBACK`).
    pub fallback: Option<bool>,
    /// Deadline applied to requests that don't set their own.
    pub default_deadline: Option<Duration>,
    /// Consecutive execution failures of one plan before its circuit
    /// breaker opens and requests fail fast with
    /// [`ServeError::Quarantined`]. `0` disables quarantine.
    pub quarantine_threshold: u32,
    /// How long an open breaker fails fast before letting one half-open
    /// probe through to test whether the plan recovered.
    pub quarantine_cooldown: Duration,
    /// Deadline-aware load shedding at admission: when the estimated
    /// queue wait (from the live `serve.exec_us` histogram) already
    /// exceeds a request's deadline, reject it with [`ServeError::Shed`]
    /// instead of queueing doomed work. Requests without deadlines are
    /// never shed, and a cold runtime (no latency history yet) admits
    /// everything.
    pub shedding: bool,
    /// Stall watchdog: bound the wall time of each wavefront launch.
    /// When set, the pool runs supervised (workers only — the scheduler
    /// never executes job code) and a launch that makes no heartbeat
    /// progress for this long fails with [`ExecError::Stalled`]; the
    /// runtime then replaces the poisoned pool and keeps serving.
    /// `None` (the default) keeps the zero-overhead unsupervised pool.
    pub launch_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            queue_capacity: 256,
            max_batch: 8,
            batching: true,
            verify: true,
            guard: None,
            fallback: None,
            default_deadline: None,
            quarantine_threshold: 5,
            quarantine_cooldown: Duration::from_millis(500),
            shedding: true,
            launch_timeout: None,
        }
    }
}

/// One unit of work: a program plus its input buffers.
#[derive(Debug, Clone)]
pub struct Request {
    /// The program to run. `Arc` so N same-workload submissions share one
    /// allocation; the plan cache keys on structure, not identity.
    pub program: Arc<Program>,
    /// Values for every `BufferKind::Input` declaration.
    pub inputs: HashMap<BufferId, FractalTensor>,
    /// Per-request deadline, measured from submission.
    pub deadline: Option<Duration>,
    /// Stateful-session id carried into the request's trace context.
    pub session: Option<u64>,
}

impl Request {
    /// A request with no deadline of its own.
    pub fn new(program: impl Into<Arc<Program>>, inputs: HashMap<BufferId, FractalTensor>) -> Self {
        Request {
            program: program.into(),
            inputs,
            deadline: None,
            session: None,
        }
    }

    /// Sets a deadline measured from submission time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tags the request with a session id (propagated into its
    /// [`CompletionRecord`]).
    pub fn with_session(mut self, session: u64) -> Self {
        self.session = Some(session);
        self
    }
}

#[derive(Default)]
struct TicketState {
    slot: Mutex<Option<ServeResult>>,
    done: Condvar,
}

/// A handle to one in-flight request.
#[derive(Clone)]
pub struct Ticket {
    state: Arc<TicketState>,
    request_id: u64,
}

impl Ticket {
    /// Blocks until the request is fulfilled.
    pub fn wait(self) -> ServeResult {
        let mut slot = self.state.slot.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.state.done.wait(slot);
        }
    }

    /// Takes the result if the request has already been fulfilled.
    pub fn try_take(&self) -> Option<ServeResult> {
        self.state.slot.lock().take()
    }

    /// The request id minted at admission — the key joining this ticket
    /// to its [`CompletionRecord`] and its Perfetto request span.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = self.state.slot.lock().is_some();
        f.debug_struct("Ticket")
            .field("request_id", &self.request_id)
            .field("ready", &ready)
            .finish()
    }
}

/// The factor-of-4 length class used for ragged batch bucketing: extents
/// {1,2} share class 0, {3..8} class 1, {9..32} class 2, and so on. The
/// scheduler fuses queued family members of the same bucket into one
/// ragged launch, so nearby lengths share a wavefront while a 1-row and a
/// 4096-row request never do. Concat pads nothing (the launch runs at the
/// *summed* extent), so bucketing costs no wasted compute; its only job is
/// a latency guard — within a bucket a member's batch-mates are at most
/// ~4x its own width.
fn extent_bucket(extent: usize) -> u32 {
    extent.next_power_of_two().trailing_zeros() / 2
}

struct Pending {
    /// Family identity (key, structural bytes, this request's outer
    /// extent) computed once at admission. Dispatch looks the plan up by
    /// it and never re-serialises the program.
    family: PolySplit,
    program: Arc<Program>,
    inputs: HashMap<BufferId, FractalTensor>,
    submitted: Instant,
    deadline: Option<Instant>,
    ticket: Arc<TicketState>,
    /// Identity minted at admission; `batch_id` is filled at dispatch.
    ctx: TraceContext,
    /// Time spent in the admission queue, set when the scheduler pops the
    /// request into a group.
    queue_wait_us: f64,
    /// Set when this request is a stateful-session decode step: on
    /// fulfillment the session's pinned state advances in place from the
    /// step's outputs ([`settle_session_step`]).
    session_step: Option<u64>,
}

/// What the scheduler coalesces on, and what the shed estimator prices
/// by: plan family and length bucket. The key is a hash — statistics may
/// trust it, a launch may not ([`same_launch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GroupKey {
    key: StructKey,
    bucket: u32,
}

fn group_key(p: &Pending) -> GroupKey {
    GroupKey {
        key: p.family.key,
        bucket: extent_bucket(p.family.outer_extent),
    }
}

/// May `a` and `b` ride one launch? Same group *and* byte-equal family
/// identity: every member runs under the leader's plan, so a colliding
/// key must never put a different program in the group.
fn same_launch(a: &Pending, b: &Pending) -> bool {
    group_key(a) == group_key(b) && a.family.bytes == b.family.bytes
}

/// Pre-registered handles into the runtime's [`Registry`]: every hot-path
/// update is a relaxed atomic op, no name lookup, no lock. Counters are
/// monotonic event totals, the queue depth is a point-in-time [`Gauge`],
/// and value distributions (latency, batch size, setup time) go to
/// log-bucket [`Histogram`]s that count **every** observation — `stats()`
/// percentiles are exact to within one bucket's ~9% relative width, not
/// sampled from a reservoir.
struct Metrics {
    submitted: Counter,
    rejected: Counter,
    completed: Counter,
    failed: Counter,
    deadline_expired: Counter,
    batches: Counter,
    batched_requests: Counter,
    batch_fallbacks: Counter,
    batch_ragged_fallback: Counter,
    scheduler_restarts: Counter,
    shed: Counter,
    retries: Counter,
    batch_bisections: Counter,
    quarantine_trips: Counter,
    quarantine_rejected: Counter,
    quarantine_probes: Counter,
    stalled: Counter,
    pool_replacements: Counter,
    queue_depth: Gauge,
    quarantined_plans: Gauge,
    latency_us: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    setup_cold_us: Arc<Histogram>,
    setup_cached_us: Arc<Histogram>,
    exec_us: Arc<Histogram>,
    sessions_active: Gauge,
    pinned_bytes: Gauge,
    decode_steps: Counter,
    state_copies: Counter,
    session_errors: Counter,
    session_evictions: Counter,
}

impl Metrics {
    fn new(reg: &Registry) -> Self {
        Metrics {
            submitted: reg.counter("serve.submitted"),
            rejected: reg.counter("serve.rejected"),
            completed: reg.counter("serve.completed"),
            failed: reg.counter("serve.failed"),
            deadline_expired: reg.counter("serve.deadline_expired"),
            batches: reg.counter("serve.batches"),
            batched_requests: reg.counter("serve.batched_requests"),
            batch_fallbacks: reg.counter("serve.batch_fallbacks"),
            batch_ragged_fallback: reg.counter("serve.batch_ragged_fallback"),
            scheduler_restarts: reg.counter("serve.scheduler_restarts"),
            shed: reg.counter("serve.shed"),
            retries: reg.counter("serve.retries"),
            batch_bisections: reg.counter("serve.batch_bisections"),
            quarantine_trips: reg.counter("serve.quarantine_trips"),
            quarantine_rejected: reg.counter("serve.quarantine_rejected"),
            quarantine_probes: reg.counter("serve.quarantine_probes"),
            stalled: reg.counter("serve.stalled"),
            pool_replacements: reg.counter("serve.pool_replacements"),
            queue_depth: reg.gauge("serve.queue_depth"),
            quarantined_plans: reg.gauge("serve.quarantined_plans"),
            latency_us: reg.histogram("serve.latency_us"),
            queue_wait_us: reg.histogram("serve.queue_wait_us"),
            batch_size: reg.histogram("serve.batch_size"),
            setup_cold_us: reg.histogram("serve.setup_cold_us"),
            setup_cached_us: reg.histogram("serve.setup_cached_us"),
            exec_us: reg.histogram("serve.exec_us"),
            sessions_active: reg.gauge("serve.sessions_active"),
            pinned_bytes: reg.gauge("serve.pinned_bytes"),
            decode_steps: reg.counter("serve.decode_steps"),
            state_copies: reg.counter("serve.state_copies"),
            session_errors: reg.counter("serve.session_errors"),
            session_evictions: reg.counter("serve.session_evictions"),
        }
    }
}

/// Per-request phase breakdown accumulated through `process_group` and
/// handed to `fulfill`, which turns it into a [`CompletionRecord`].
#[derive(Clone)]
struct Phases {
    setup_us: f64,
    setup_cached: bool,
    fuse: FuseDecision,
    exec_us: f64,
    split_us: f64,
}

impl Default for Phases {
    fn default() -> Self {
        Phases {
            setup_us: 0.0,
            setup_cached: false,
            fuse: FuseDecision::Solo,
            exec_us: 0.0,
            split_us: 0.0,
        }
    }
}

/// A point-in-time snapshot of runtime counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests bounced with [`ServeError::QueueFull`].
    pub rejected: u64,
    /// Requests fulfilled successfully.
    pub completed: u64,
    /// Requests fulfilled with a non-deadline error.
    pub failed: u64,
    /// Requests fulfilled with [`ServeError::Deadline`].
    pub deadline_expired: u64,
    /// Fused launches executed.
    pub batches: u64,
    /// Requests served through fused launches.
    pub batched_requests: u64,
    /// Fused attempts that fell back to per-request execution.
    pub batch_fallbacks: u64,
    /// The subset of `batch_fallbacks` caused specifically by a
    /// mismatched outer extent (a request's batched input had the wrong
    /// outer length for its slot in the fused launch) — the length-mix
    /// signal, distinct from genuine shape errors.
    pub batch_ragged_fallbacks: u64,
    /// Times the supervisor respawned a panicked scheduler.
    pub scheduler_restarts: u64,
    /// Requests rejected at admission because their deadline was already
    /// unmeetable ([`ServeError::Shed`]).
    pub shed: u64,
    /// Solo re-executions performed to isolate a fused-batch fault.
    pub retries: u64,
    /// Fused launches whose execution failure triggered member-by-member
    /// solo retry (batch fault isolation).
    pub batch_bisections: u64,
    /// Circuit-breaker trips: plans moved into quarantine.
    pub quarantine_trips: u64,
    /// Requests failed fast with [`ServeError::Quarantined`].
    pub quarantine_rejected: u64,
    /// Plans currently quarantined (point-in-time gauge).
    pub quarantined_plans: i64,
    /// Launches that hit the stall watchdog ([`ExecError::Stalled`]).
    pub stalled: u64,
    /// Poisoned worker pools replaced with fresh ones.
    pub pool_replacements: u64,
    /// Worker threads in the current pool (full strength after any
    /// replacement).
    pub pool_workers: usize,
    /// Largest fused batch so far.
    pub max_batch: usize,
    /// Deepest the admission queue has been.
    pub peak_queue_depth: usize,
    /// Plan-cache hits (dispatches that skipped compile + verify).
    pub cache_hits: u64,
    /// Plan-cache misses (cold family builds).
    pub cache_misses: u64,
    /// Plan families cached. One family counts once no matter how many
    /// extents it has served.
    pub cached_plans: usize,
    /// Median end-to-end latency of successful requests, microseconds.
    /// Computed over **every** completed request (log-bucket histogram,
    /// no sampling); exact to within one bucket's ~9% relative width.
    pub latency_p50_us: f64,
    /// 95th-percentile latency, microseconds (every request counted).
    pub latency_p95_us: f64,
    /// 99th-percentile latency, microseconds (every request counted).
    pub latency_p99_us: f64,
    /// Mean latency of successful requests, microseconds (exact).
    pub latency_mean_us: f64,
    /// Mean per-dispatch setup time when the plan was cold-compiled.
    pub cold_setup_mean_us: f64,
    /// Mean per-dispatch setup time when the plan came from the cache.
    pub cached_setup_mean_us: f64,
    /// Executor arena buffers handed out (one per execution).
    pub arena_acquires: u64,
    /// Arena acquires served from the pool without growing capacity. In
    /// steady state this tracks `arena_acquires` one-for-one: the runtime
    /// executes allocation-free after warmup.
    pub arena_reused: u64,
    /// Arena acquires that had to grow (or freshly allocate) a buffer —
    /// warmup and shape-mix changes only.
    pub arena_grows: u64,
    /// Leaf reads served as borrowed slices (never cloned tensors).
    pub leaf_borrows: u64,
    /// Leaf reads that fell back to cloning. Zero on the arena path.
    pub leaf_clones: u64,
    /// Stateful sessions currently open (point-in-time gauge).
    pub active_sessions: i64,
    /// Bytes pinned by open sessions' state buffers (point-in-time gauge).
    pub pinned_bytes: i64,
    /// Decode steps whose session state advanced successfully.
    pub decode_steps: u64,
    /// Deep copies performed while advancing session state. Zero on the
    /// well-formed path — every carry is a handle swap and every append an
    /// in-place row replacement — so a nonzero delta after warmup marks a
    /// regression (CI gates on this, like `leaf_clones`).
    pub state_copies: u64,
    /// Session-typed failures (overflow, shape violations). These strike
    /// the session, never the plan's quarantine breaker.
    pub session_errors: u64,
    /// Sessions evicted after repeated session errors.
    pub session_evictions: u64,
}

/// The executor and the pool it launches on, swapped atomically (behind
/// one `RwLock`) when a stalled launch poisons the pool. The executor's
/// arena and counters are carried across replacements — only the pool is
/// fresh — so warm buffers and cumulative stats survive.
struct Engine {
    pool: Arc<WorkerPool>,
    exec: Executor,
}

/// Per-plan circuit breaker: consecutive execution failures open it;
/// after a cooldown one half-open probe is let through and its outcome
/// decides between closing and re-opening.
#[derive(Default)]
struct Breaker {
    consecutive: u32,
    state: BreakerState,
}

#[derive(Default, Clone, Copy, PartialEq)]
enum BreakerState {
    #[default]
    Closed,
    Open {
        until: Instant,
    },
    HalfOpen,
}

/// What the supervisor needs to fail a ticket whose dispatch died mid
/// flight: the waiter's slot plus enough identity to emit an
/// attributable completion record.
struct Inflight {
    ticket: Arc<TicketState>,
    ctx: TraceContext,
    submitted: Instant,
    queue_wait_us: f64,
}

struct Inner {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Pending>>,
    not_empty: Condvar,
    space: Condvar,
    shutdown: AtomicBool,
    /// The plan cache: one verified family per structure serves every
    /// outer extent.
    cache: PolyCache,
    /// Current pool + executor; replaced under the write lock when a
    /// stall poisons the pool.
    engine: RwLock<Engine>,
    /// Resolved pool width, kept so replacement pools restore full
    /// strength.
    pool_threads: usize,
    /// Tickets popped from the queue but not yet fulfilled, keyed by
    /// request id. The supervisor drains this on a scheduler panic so an
    /// admitted ticket can never hang.
    inflight: Mutex<HashMap<u64, Inflight>>,
    /// Per-family circuit breakers ([`ServeError::Quarantined`]).
    quarantine: Mutex<HashMap<StructKey, Breaker>>,
    /// Open stateful sessions, keyed by the id minted at
    /// [`Runtime::open_session`].
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    /// Mints session ids.
    next_session_id: AtomicU64,
    /// Per-group exec-time running means `(count, mean µs)` feeding the
    /// shed estimator: heterogeneous traffic (long prefill vs
    /// sub-millisecond decode steps) is priced per [`GroupKey`], not from
    /// one blended global mean.
    group_exec_us: Mutex<HashMap<GroupKey, (u64, f64)>>,
    /// Pending injected scheduler panics ([`Runtime::kill_scheduler`]).
    kill: AtomicU64,
    /// Per-runtime metrics registry (`serve.*` names); isolated per
    /// instance so concurrent runtimes (and tests) never mix counters.
    registry: Arc<Registry>,
    metrics: Metrics,
    /// Per-request completion records, drained by
    /// [`Runtime::take_completions`].
    trace: TraceLog,
    /// Mints ids for fused launches.
    next_batch_id: AtomicU64,
    peak_queue_depth: AtomicU64,
    max_batch: AtomicU64,
}

/// The serving runtime: shared pool + plan cache + admission queue +
/// batching scheduler. Cheap to share behind an `Arc`; dropping it drains
/// the queue and joins the scheduler.
pub struct Runtime {
    inner: Arc<Inner>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
}

impl Runtime {
    /// Starts a runtime: spins up the worker pool and the scheduler thread.
    ///
    /// Test/bench convenience only — library code and long-running
    /// services should use [`Runtime::try_new`] and handle
    /// [`ServeError::Spawn`] instead of unwinding.
    ///
    /// # Panics
    ///
    /// Panics when the scheduler thread cannot be spawned (an OS resource
    /// failure): a runtime without its scheduler would accept submissions
    /// that nothing ever drains. Use [`Runtime::try_new`] to handle that
    /// case as a `Result` instead.
    pub fn new(cfg: ServeConfig) -> Self {
        match Runtime::try_new(cfg) {
            Ok(rt) => rt,
            Err(e) => panic!("ft-serve runtime construction failed: {e}"),
        }
    }

    /// Starts a runtime, surfacing scheduler-thread spawn failure as
    /// [`ServeError::Spawn`] instead of constructing a silently dead
    /// runtime whose tickets would never resolve.
    pub fn try_new(cfg: ServeConfig) -> Result<Self, ServeError> {
        let threads = if cfg.threads == 0 {
            ft_pool::default_threads()
        } else {
            cfg.threads
        };
        // The stall watchdog needs a supervised pool (the scheduler must
        // never run job code, or a wedged UDF would hang the watchdog's
        // own caller); without a timeout the unsupervised pool keeps its
        // zero-overhead caller-participates launch path.
        let pool = Arc::new(if cfg.launch_timeout.is_some() {
            WorkerPool::supervised(threads)
        } else {
            WorkerPool::new(threads)
        });
        let mut exec = Executor::new()
            .pool(Arc::clone(&pool))
            .launch_timeout(cfg.launch_timeout);
        if let Some(guard) = cfg.guard {
            exec = exec.guard(guard);
        }
        if let Some(fallback) = cfg.fallback {
            exec = exec.fallback(fallback);
        }
        let registry = Arc::new(Registry::new());
        let metrics = Metrics::new(&registry);
        let inner = Arc::new(Inner {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: PolyCache::new(),
            engine: RwLock::new(Engine { pool, exec }),
            pool_threads: threads,
            inflight: Mutex::new(HashMap::new()),
            quarantine: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session_id: AtomicU64::new(1),
            group_exec_us: Mutex::new(HashMap::new()),
            kill: AtomicU64::new(0),
            registry,
            metrics,
            trace: TraceLog::default(),
            next_batch_id: AtomicU64::new(1),
            peak_queue_depth: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        });
        let sched_inner = Arc::clone(&inner);
        let scheduler = std::thread::Builder::new()
            .name("ft-serve-sched".into())
            .spawn(move || supervisor_loop(&sched_inner))
            .map_err(|e| ServeError::Spawn(e.to_string()))?;
        Ok(Runtime {
            inner,
            scheduler: Mutex::new(Some(scheduler)),
        })
    }

    /// A runtime with default configuration.
    pub fn with_defaults() -> Self {
        Runtime::new(ServeConfig::default())
    }

    /// Worker threads in the shared pool.
    pub fn threads(&self) -> usize {
        self.inner.engine.read().pool.threads()
    }

    /// Worker threads in the *current* pool — same as
    /// [`Runtime::threads`], spelled for chaos tests asserting the pool
    /// is back at full strength after a replacement.
    pub fn pool_workers(&self) -> usize {
        self.threads()
    }

    /// Chaos hook: make the scheduler panic when it dispatches its next
    /// group. The supervisor fails any in-flight tickets with
    /// [`ServeError::SchedulerDown`], respawns the loop, and bumps
    /// `serve.scheduler_restarts`. Takes effect at the next dispatch, not
    /// instantly — an idle scheduler dies on the first request after the
    /// call.
    pub fn kill_scheduler(&self) {
        self.inner.kill.fetch_add(1, Ordering::SeqCst);
    }

    /// Chaos hook: arm a one-shot [`FaultPlan`] on the current executor;
    /// the next launch consumes it. See [`Executor::arm_fault`].
    pub fn inject_exec_fault(&self, plan: FaultPlan) {
        self.inner.engine.read().exec.arm_fault(plan);
    }

    /// Chaos hook: schedule a worker panic inside the current pool,
    /// `jobs_from_now` launches ahead. See
    /// [`ft_pool::WorkerPool::inject_fault`].
    pub fn inject_pool_fault(&self, jobs_from_now: u64, participant: usize) {
        self.inner
            .engine
            .read()
            .pool
            .inject_fault(jobs_from_now, participant);
    }

    /// Enqueues a request, rejecting with [`ServeError::QueueFull`] when the
    /// admission queue is at capacity (backpressure the caller can see).
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        self.enqueue(request, false, None)
    }

    /// Enqueues a request, blocking while the queue is at capacity.
    pub fn submit_wait(&self, request: Request) -> Result<Ticket, ServeError> {
        self.enqueue(request, true, None)
    }

    /// Convenience: submit (blocking on backpressure) and wait for the
    /// result.
    pub fn run(&self, program: &Program, inputs: HashMap<BufferId, FractalTensor>) -> ServeResult {
        self.submit_wait(Request::new(program.clone(), inputs))?
            .wait()
    }

    fn enqueue(
        &self,
        request: Request,
        block: bool,
        session_step: Option<u64>,
    ) -> Result<Ticket, ServeError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        // The one serialisation of the program a request ever pays.
        let family = family_split(&request.program);
        // The identity tuple minted at admission and carried through the
        // whole pipeline; `batch_id` is attached at dispatch.
        let ctx = TraceContext {
            request_id: ft_obs::next_request_id(),
            session_id: request.session,
            plan_sig: family.key.to_string(),
            batch_id: None,
        };
        let request_id = ctx.request_id;
        let submitted = Instant::now();
        let deadline = request
            .deadline
            .or(self.inner.cfg.default_deadline)
            .map(|d| submitted + d);
        let state = Arc::new(TicketState::default());
        let pending = Pending {
            family,
            program: request.program,
            inputs: request.inputs,
            submitted,
            deadline,
            ticket: Arc::clone(&state),
            ctx,
            queue_wait_us: 0.0,
            session_step,
        };
        let depth = {
            let mut queue = self.inner.queue.lock();
            while queue.len() >= self.inner.cfg.queue_capacity {
                if self.inner.shutdown.load(Ordering::Acquire) {
                    return Err(ServeError::Shutdown);
                }
                if !block {
                    self.inner.metrics.rejected.inc();
                    return Err(ServeError::QueueFull {
                        capacity: self.inner.cfg.queue_capacity,
                    });
                }
                queue = self.inner.space.wait(queue);
            }
            // Re-check under the queue lock: the scheduler's exit decision
            // (queue empty + shutdown set) is made under this same lock, so
            // a push that races shutdown() either lands before the
            // scheduler's final drain (and is processed) or is rejected
            // here — never parked forever on a dead queue.
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::Shutdown);
            }
            // Deadline-aware load shedding: if the live latency history
            // says the request cannot make its deadline even before it
            // queues, reject it now instead of burning queue space and
            // pool time on doomed work. Depth is read under this lock, so
            // the estimate matches the queue the request would join.
            if let Some(dl) = pending.deadline {
                if self.inner.cfg.shedding {
                    if let Some(estimated_us) = estimate_wait_us(&self.inner, &queue, &pending) {
                        if submitted + Duration::from_micros(estimated_us) > dl {
                            drop(queue);
                            self.inner.metrics.shed.inc();
                            return Err(ServeError::Shed { estimated_us });
                        }
                    }
                }
            }
            queue.push_back(pending);
            // Set the gauge under the queue lock so it always reflects an
            // actual queue state (point-in-time, not a cumulative sum).
            self.inner.metrics.queue_depth.set(queue.len() as i64);
            queue.len()
        };
        self.inner.metrics.submitted.inc();
        self.inner
            .peak_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
        self.inner.not_empty.notify_one();
        Ok(Ticket { state, request_id })
    }

    /// Opens a stateful session: verifies the state bindings against the
    /// pinned-region rules ([`ft_verify::verify_session_bindings`] — state
    /// must be extern-placed input, updates must be outputs, shapes must
    /// hold), pins the initial state server-side, and returns the session
    /// id for [`Runtime::decode_step`].
    pub fn open_session(&self, spec: SessionSpec) -> Result<u64, ServeError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let rules: Vec<ft_verify::SessionBinding> = spec
            .bindings
            .iter()
            .map(|b| ft_verify::SessionBinding {
                state: b.state,
                rule: match b.op {
                    StateOp::Carry { output } => ft_verify::StateRule::Carry { output },
                    StateOp::Append { output } => ft_verify::StateRule::Append { output },
                    StateOp::AppendFill { .. } => ft_verify::StateRule::Fill,
                },
            })
            .collect();
        ft_verify::verify_session_bindings(&spec.program, &rules, spec.capacity)
            .map_err(|e| ServeError::Session(SessionError::StateShape(e.to_string())))?;
        let entry = SessionEntry::open(spec).map_err(ServeError::Session)?;
        let sid = self.inner.next_session_id.fetch_add(1, Ordering::Relaxed);
        let mut sessions = self.inner.sessions.lock();
        sessions.insert(sid, entry);
        sync_session_gauges(&self.inner, &sessions);
        Ok(sid)
    }

    /// Submits one autoregressive decode step for `session`. The caller
    /// provides only the per-step inputs (the new token, the shared
    /// weights); the runtime injects the session's pinned state handles —
    /// cheap clones sharing storage, never data copies — and, when the
    /// step completes, advances the state **in place**
    /// (`SessionEntry::advance`). Steps are strictly sequential
    /// per session ([`SessionError::Busy`]); steps from *different*
    /// sessions queued together fuse into one wavefront launch via the
    /// ordinary batching path — that fusion is the continuous-batching
    /// tick.
    pub fn decode_step(
        &self,
        session: u64,
        mut inputs: HashMap<BufferId, FractalTensor>,
    ) -> Result<Ticket, ServeError> {
        let program = {
            let mut sessions = self.inner.sessions.lock();
            let entry = sessions
                .get_mut(&session)
                .ok_or(ServeError::Session(SessionError::NotFound(session)))?;
            if entry.inflight {
                return Err(ServeError::Session(SessionError::Busy(session)));
            }
            // Admission-time overflow check: a step past the reserved
            // append headroom is a malformed client, the session-state
            // analogue of `ExecError::Input`. It strikes the *session*
            // (eviction after repeats) and never reaches the plan's
            // quarantine breaker.
            if entry.appends() && entry.step >= entry.capacity {
                let capacity = entry.capacity;
                self.inner.metrics.session_errors.inc();
                entry.strikes += 1;
                if entry.strikes >= SESSION_STRIKE_LIMIT {
                    sessions.remove(&session);
                    self.inner.metrics.session_evictions.inc();
                    sync_session_gauges(&self.inner, &sessions);
                }
                return Err(ServeError::Session(SessionError::Overflow {
                    session,
                    capacity,
                }));
            }
            for (id, ft) in &entry.state {
                inputs.insert(*id, ft.clone());
            }
            entry.inflight = true;
            Arc::clone(&entry.program)
        };
        let request = Request {
            program,
            inputs,
            deadline: None,
            session: Some(session),
        };
        match self.enqueue(request, true, Some(session)) {
            Ok(t) => Ok(t),
            Err(e) => {
                // The step never entered the queue; reopen the session.
                let mut sessions = self.inner.sessions.lock();
                if let Some(entry) = sessions.get_mut(&session) {
                    entry.inflight = false;
                }
                Err(e)
            }
        }
    }

    /// Closes a session, releasing its pinned state. A step already in
    /// flight still resolves normally — its fulfillment simply finds no
    /// session to advance and delivers the outputs unchanged.
    pub fn close_session(&self, session: u64) -> Result<(), ServeError> {
        let mut sessions = self.inner.sessions.lock();
        if sessions.remove(&session).is_none() {
            return Err(ServeError::Session(SessionError::NotFound(session)));
        }
        sync_session_gauges(&self.inner, &sessions);
        Ok(())
    }

    /// A handle to one of `session`'s pinned state buffers (cheap clone,
    /// shares storage). Lets callers read the decoded state — the KV
    /// cache, the final hidden stack — without a round trip through a
    /// request.
    pub fn session_state(
        &self,
        session: u64,
        buffer: BufferId,
    ) -> Result<FractalTensor, ServeError> {
        let sessions = self.inner.sessions.lock();
        let entry = sessions
            .get(&session)
            .ok_or(ServeError::Session(SessionError::NotFound(session)))?;
        entry.state.get(&buffer).cloned().ok_or_else(|| {
            ServeError::Session(SessionError::StateShape(format!(
                "buffer {} is not a state binding of session {session}",
                buffer.0
            )))
        })
    }

    /// Decode steps `session` has completed (its next append row).
    pub fn session_steps(&self, session: u64) -> Result<usize, ServeError> {
        let sessions = self.inner.sessions.lock();
        sessions
            .get(&session)
            .map(|e| e.step)
            .ok_or(ServeError::Session(SessionError::NotFound(session)))
    }

    /// Counter snapshot. Latency percentiles cover **every** completed
    /// request (log-bucket histogram), not a sample.
    pub fn stats(&self) -> ServeStats {
        let m = &self.inner.metrics;
        let lat = m.latency_us.snapshot();
        let (arena, pool_workers) = {
            let eng = self.inner.engine.read();
            (eng.exec.arena_stats(), eng.pool.threads())
        };
        ServeStats {
            submitted: m.submitted.get(),
            rejected: m.rejected.get(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            deadline_expired: m.deadline_expired.get(),
            batches: m.batches.get(),
            batched_requests: m.batched_requests.get(),
            batch_fallbacks: m.batch_fallbacks.get(),
            batch_ragged_fallbacks: m.batch_ragged_fallback.get(),
            scheduler_restarts: m.scheduler_restarts.get(),
            shed: m.shed.get(),
            retries: m.retries.get(),
            batch_bisections: m.batch_bisections.get(),
            quarantine_trips: m.quarantine_trips.get(),
            quarantine_rejected: m.quarantine_rejected.get(),
            quarantined_plans: m.quarantined_plans.get(),
            stalled: m.stalled.get(),
            pool_replacements: m.pool_replacements.get(),
            pool_workers,
            max_batch: self.inner.max_batch.load(Ordering::Relaxed) as usize,
            peak_queue_depth: self.inner.peak_queue_depth.load(Ordering::Relaxed) as usize,
            cache_hits: self.inner.cache.hits(),
            cache_misses: self.inner.cache.misses(),
            cached_plans: self.inner.cache.len(),
            latency_p50_us: lat.quantile(0.50),
            latency_p95_us: lat.quantile(0.95),
            latency_p99_us: lat.quantile(0.99),
            latency_mean_us: lat.mean(),
            cold_setup_mean_us: m.setup_cold_us.mean(),
            cached_setup_mean_us: m.setup_cached_us.mean(),
            arena_acquires: arena.acquires,
            arena_reused: arena.reused,
            arena_grows: arena.grows,
            leaf_borrows: arena.leaf_borrows,
            leaf_clones: arena.leaf_clones,
            active_sessions: m.sessions_active.get(),
            pinned_bytes: m.pinned_bytes.get(),
            decode_steps: m.decode_steps.get(),
            state_copies: m.state_copies.get(),
            session_errors: m.session_errors.get(),
            session_evictions: m.session_evictions.get(),
        }
    }

    /// The runtime's metrics registry (`serve.*` names). Hand it to an
    /// [`ft_obs::Exporter`] — together with [`Registry::global`] for the
    /// pool/executor/cache layers — to publish Prometheus text or JSONL.
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// Drains the per-request completion records collected since the last
    /// call (bounded ring; see [`Runtime::completions_dropped`]).
    pub fn take_completions(&self) -> Vec<CompletionRecord> {
        self.inner.trace.drain()
    }

    /// Completion records evicted from the bounded trace log before being
    /// drained.
    pub fn completions_dropped(&self) -> u64 {
        self.inner.trace.dropped()
    }

    /// Stops admission, drains already-queued requests, and joins the
    /// scheduler. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.not_empty.notify_all();
        self.inner.space.notify_all();
        let handle = self.scheduler.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        // Belt and suspenders: the scheduler drains before exiting, but if
        // it died (panicked) anything still queued must fail its ticket
        // rather than leave waiters blocked forever.
        let leftovers: Vec<Pending> = {
            let mut queue = self.inner.queue.lock();
            queue.drain(..).collect()
        };
        for p in leftovers {
            fulfill(&self.inner, p, Err(ServeError::Shutdown), Phases::default());
        }
        // And anything popped but never fulfilled (the supervisor handles
        // this for panics; this covers the supervisor thread itself being
        // gone) resolves typed rather than hanging its waiter.
        let stranded: Vec<Inflight> = {
            let mut inflight = self.inner.inflight.lock();
            inflight.drain().map(|(_, e)| e).collect()
        };
        for e in stranded {
            resolve_inflight(&self.inner, e, ServeError::Shutdown);
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads())
            .field("cache", &self.inner.cache)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------

/// Per-group observations required before a group's own exec-time mean is
/// trusted over the global blend.
const GROUP_MIN_HISTORY: u64 = 8;

/// Folds one launch's exec time into its group's running mean, feeding
/// [`estimate_wait_us`]'s per-group pricing.
fn note_group_exec(inner: &Inner, key: GroupKey, exec_us: f64) {
    let mut groups = inner.group_exec_us.lock();
    let e = groups.entry(key).or_insert((0, 0.0));
    e.0 += 1;
    e.1 += (exec_us - e.1) / e.0 as f64;
}

/// Queue-wait estimate (µs) for `pending` joining `queue`, from the live
/// exec-time and batch-size histograms. `None` until enough launches have
/// completed to predict from — a cold runtime never sheds.
///
/// The queue is partitioned around the incoming request: work that would
/// be *co-scheduled* with it (same [`GroupKey`]) drains deterministically
/// at `max_batch` requests per fused launch, so a burst of same-plan
/// traffic at capacity costs `ceil((same+1)/max_batch)` launches — not
/// one launch per queued request, which is what the old depth-only
/// estimate charged and why batched traffic was over-shed. Unrelated
/// queued work drains at the *observed* batch-size mix (solo launches
/// record a batch size of 1, so the mean reflects real occupancy).
///
/// Each group's launches are priced at that **group's own** exec-time
/// mean once it has [`GROUP_MIN_HISTORY`] observations, falling back to
/// the global mean below that. One blended global mean mis-sheds
/// heterogeneous traffic in both directions: it admits doomed requests
/// queued behind long prefills (the blend under-prices them) and sheds
/// viable ones queued behind sub-millisecond decode steps (the blend
/// over-prices them).
fn estimate_wait_us(inner: &Inner, queue: &VecDeque<Pending>, pending: &Pending) -> Option<u64> {
    const MIN_HISTORY: u64 = 8;
    let exec = &inner.metrics.exec_us;
    if exec.count() < MIN_HISTORY {
        return None;
    }
    let global_us = exec.mean();
    let groups = inner.group_exec_us.lock();
    let mean_for = |k: &GroupKey| match groups.get(k) {
        Some(&(n, mean)) if n >= GROUP_MIN_HISTORY => mean,
        _ => global_us,
    };
    let key = group_key(pending);
    let mut same = 0usize;
    let mut others: HashMap<GroupKey, usize> = HashMap::new();
    for q in queue {
        let k = group_key(q);
        if k == key {
            same += 1;
        } else {
            *others.entry(k).or_insert(0) += 1;
        }
    }
    let total_us = if inner.cfg.batching {
        let max_batch = inner.cfg.max_batch.max(1) as f64;
        let mean_batch = inner.metrics.batch_size.mean().max(1.0);
        // +1: the incoming request rides one of its group's launches.
        let mut us = ((same + 1) as f64 / max_batch).ceil() * mean_for(&key);
        for (k, n) in &others {
            us += (*n as f64 / mean_batch).ceil() * mean_for(k);
        }
        us
    } else {
        let mut us = (same + 1) as f64 * mean_for(&key);
        for (k, n) in &others {
            us += *n as f64 * mean_for(k);
        }
        us
    };
    // The x2 safety margin keeps shedding deliberately conservative: a
    // shed request costs nothing, while an admitted-then-late request
    // burns pool time that on-deadline requests needed.
    Some((total_us * 2.0) as u64)
}

/// Consecutive session errors before the offending session is evicted.
const SESSION_STRIKE_LIMIT: u32 = 3;

/// Refreshes the point-in-time session gauges from the table (called
/// under the sessions lock, after any insert/remove).
fn sync_session_gauges(inner: &Inner, sessions: &HashMap<u64, SessionEntry>) {
    inner.metrics.sessions_active.set(sessions.len() as i64);
    let pinned: u64 = sessions.values().map(|s| s.pinned_bytes).sum();
    inner.metrics.pinned_bytes.set(pinned as i64);
}

/// Settles a decode step against its session at fulfillment: on success
/// the pinned state advances **in place** (handle swaps and row
/// replacements — `serve.state_copies` counts the defensive fallback
/// only); a session-typed failure strikes the session toward eviction.
/// Executor or deadline failures pass through untouched: they already
/// went to the plan's breaker, and charging them to the session too would
/// evict innocent sessions for a plan's bad day. A session closed while
/// the step was in flight simply delivers its outputs unchanged.
fn settle_session_step(inner: &Inner, sid: u64, result: ServeResult) -> ServeResult {
    let mut sessions = inner.sessions.lock();
    let Some(entry) = sessions.get_mut(&sid) else {
        return result;
    };
    entry.inflight = false;
    let outputs = result?;
    match entry.advance(&outputs) {
        Ok(copies) => {
            entry.strikes = 0;
            inner.metrics.state_copies.add(copies);
            inner.metrics.decode_steps.inc();
            Ok(outputs)
        }
        Err(e) => {
            entry.strikes += 1;
            inner.metrics.session_errors.inc();
            if entry.strikes >= SESSION_STRIKE_LIMIT {
                sessions.remove(&sid);
                inner.metrics.session_evictions.inc();
                sync_session_gauges(inner, &sessions);
            }
            Err(ServeError::Session(e))
        }
    }
}

/// Fails one stranded in-flight entry with `err`, emitting the metrics
/// and the attributable completion record `fulfill` would have.
fn resolve_inflight(inner: &Inner, entry: Inflight, err: ServeError) {
    inner.metrics.failed.inc();
    let total_us = entry.submitted.elapsed().as_secs_f64() * 1e6;
    let record = CompletionRecord {
        ctx: entry.ctx,
        queue_wait_us: entry.queue_wait_us,
        setup_us: 0.0,
        setup_cached: false,
        fuse: FuseDecision::Solo,
        exec_us: 0.0,
        split_us: 0.0,
        total_us,
        status: CompletionStatus::Error(err.to_string()),
    };
    record.emit_span(ft_obs::now_us());
    inner.trace.push(record);
    let mut slot = entry.ticket.slot.lock();
    if slot.is_none() {
        *slot = Some(Err(err));
    }
    drop(slot);
    entry.ticket.done.notify_all();
}

/// Runs the dispatch loop under a panic supervisor. A scheduler panic —
/// a bug, or an injected [`Runtime::kill_scheduler`] — strands every
/// popped-but-unfulfilled ticket; the supervisor fails each one with a
/// typed [`ServeError::SchedulerDown`], bumps `serve.scheduler_restarts`,
/// and restarts the loop so the runtime keeps serving. Admitted tickets
/// can never hang.
fn supervisor_loop(inner: &Arc<Inner>) {
    loop {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scheduler_loop(inner)));
        match run {
            // Graceful exit: shutdown drained the queue.
            Ok(()) => return,
            Err(_) => {
                let stranded: Vec<Inflight> = {
                    let mut inflight = inner.inflight.lock();
                    inflight.drain().map(|(_, e)| e).collect()
                };
                for e in stranded {
                    resolve_inflight(inner, e, ServeError::SchedulerDown);
                }
                inner.metrics.scheduler_restarts.inc();
            }
        }
    }
}

fn scheduler_loop(inner: &Arc<Inner>) {
    loop {
        let mut group = {
            let mut queue = inner.queue.lock();
            loop {
                if !queue.is_empty() {
                    break;
                }
                // Graceful drain: exit only once the queue is empty.
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner.not_empty.wait(queue);
            }
            let mut group = Vec::new();
            if let Some(first) = queue.pop_front() {
                group.push(first);
                if inner.cfg.batching {
                    // Pull every queued request of the leader's family and
                    // length bucket (up to max_batch) regardless of
                    // position: batching is keyed on the plan, not
                    // adjacency.
                    let mut i = 0;
                    while i < queue.len() && group.len() < inner.cfg.max_batch {
                        if same_launch(&queue[i], &group[0]) {
                            if let Some(p) = queue.remove(i) {
                                group.push(p);
                            }
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            // Register the group as in-flight under the queue lock:
            // from the waiter's perspective a ticket is always either
            // queued or in-flight, so a panic at any point between pop
            // and fulfill is covered by the supervisor.
            {
                let mut inflight = inner.inflight.lock();
                for p in &group {
                    inflight.insert(
                        p.ctx.request_id,
                        Inflight {
                            ticket: Arc::clone(&p.ticket),
                            ctx: p.ctx.clone(),
                            submitted: p.submitted,
                            queue_wait_us: 0.0,
                        },
                    );
                }
            }
            // Point-in-time depth after the pop, under the same lock.
            inner.metrics.queue_depth.set(queue.len() as i64);
            group
        };
        inner.space.notify_all();
        // Chaos hook: an injected kill lands after the group is popped
        // and registered — exactly the worst case the supervisor exists
        // for (tickets neither queued nor fulfilled).
        if inner.kill.swap(0, Ordering::SeqCst) > 0 {
            panic!("injected scheduler panic (kill_scheduler)");
        }
        if !group.is_empty() {
            // Queue wait ends here: everything after is setup + execution.
            let now = Instant::now();
            for p in &mut group {
                p.queue_wait_us = now.duration_since(p.submitted).as_secs_f64() * 1e6;
                inner.metrics.queue_wait_us.record(p.queue_wait_us);
            }
            // Each group reads the current engine: a stall in an earlier
            // group may have swapped in a fresh pool.
            let exec = inner.engine.read().exec.clone();
            process_group(inner, exec, group);
        }
    }
}

fn split_expired(group: Vec<Pending>) -> (Vec<Pending>, Vec<Pending>) {
    let now = Instant::now();
    group
        .into_iter()
        .partition(|p| p.deadline.is_some_and(|d| d <= now))
}

/// Records one execution (or compile) outcome of family `key` against its
/// circuit breaker. Successes close the breaker; `threshold` consecutive
/// failures open it, after which [`process_group`] fails requests fast
/// until the cooldown elapses and a half-open probe succeeds.
fn note_plan_outcome(inner: &Inner, key: StructKey, ok: bool) {
    let threshold = inner.cfg.quarantine_threshold;
    if threshold == 0 {
        return;
    }
    let mut quarantine = inner.quarantine.lock();
    let b = quarantine.entry(key).or_default();
    if ok {
        if !matches!(b.state, BreakerState::Closed) {
            inner.metrics.quarantined_plans.dec();
        }
        b.consecutive = 0;
        b.state = BreakerState::Closed;
        return;
    }
    b.consecutive = b.consecutive.saturating_add(1);
    match b.state {
        // A failed half-open probe re-opens with a fresh cooldown; the
        // plan never left quarantine, so no new trip is counted.
        BreakerState::HalfOpen => {
            b.state = BreakerState::Open {
                until: Instant::now() + inner.cfg.quarantine_cooldown,
            };
        }
        BreakerState::Closed if b.consecutive >= threshold => {
            b.state = BreakerState::Open {
                until: Instant::now() + inner.cfg.quarantine_cooldown,
            };
            inner.metrics.quarantine_trips.inc();
            inner.metrics.quarantined_plans.inc();
        }
        _ => {}
    }
}

/// Does this executor error indict the *plan* (count against its
/// breaker)? Caller mistakes — missing or malformed inputs — don't.
fn indicts_plan(e: &ExecError) -> bool {
    !matches!(e, ExecError::Input(_))
}

/// Swaps a poisoned pool for a fresh one (same width, same supervision
/// mode) and rebinds `exec` to the replacement engine. The executor's
/// arena and counters carry over — only the pool is new. No-op if
/// another path already replaced it.
fn replace_engine(inner: &Inner, exec: &mut Executor) {
    let mut eng = inner.engine.write();
    if !eng.pool.is_poisoned() {
        *exec = eng.exec.clone();
        return;
    }
    let pool = Arc::new(if eng.pool.is_supervised() {
        WorkerPool::supervised(inner.pool_threads)
    } else {
        WorkerPool::new(inner.pool_threads)
    });
    eng.exec = eng.exec.clone().pool(Arc::clone(&pool));
    eng.pool = pool;
    *exec = eng.exec.clone();
    inner.metrics.pool_replacements.inc();
}

/// Notes a stall: meters it, and replaces the poisoned pool so the rest
/// of the group (and all later groups) run on a healthy engine.
fn recover_from_stall(inner: &Inner, exec: &mut Executor) {
    inner.metrics.stalled.inc();
    replace_engine(inner, exec);
}

fn process_group(inner: &Inner, mut exec: Executor, group: Vec<Pending>) {
    let (expired, live) = split_expired(group);
    for p in expired {
        fulfill(inner, p, Err(ServeError::Deadline), Phases::default());
    }
    if live.is_empty() {
        return;
    }

    // Quarantine gate: an open breaker fails the whole group fast — no
    // compile, no pool time. Once the cooldown elapses, exactly one
    // group proceeds as the half-open probe; its outcome decides
    // between closing and re-opening. A family's extents share one
    // breaker (they share the plan that would be failing).
    let key = live[0].family.key;
    if inner.cfg.quarantine_threshold > 0 {
        let now = Instant::now();
        let mut quarantine = inner.quarantine.lock();
        if let Some(b) = quarantine.get_mut(&key) {
            match b.state {
                BreakerState::Open { until } if now < until => {
                    drop(quarantine);
                    inner.metrics.quarantine_rejected.add(live.len() as u64);
                    for p in live {
                        fulfill(inner, p, Err(ServeError::Quarantined), Phases::default());
                    }
                    return;
                }
                BreakerState::Open { .. } => {
                    b.state = BreakerState::HalfOpen;
                    inner.metrics.quarantine_probes.inc();
                }
                _ => {}
            }
        }
    }

    // Plan acquisition: a cache hit skips compile AND verify. The time is
    // billed to every request in the group's phase breakdown (they share
    // one acquisition): one cached family serves every outer extent.
    let setup_start = Instant::now();
    let acquired = acquire_family(inner, &live[0]);
    let setup_us = setup_start.elapsed().as_secs_f64() * 1e6;
    let (family, hit) = match acquired {
        Ok(v) => v,
        Err(e) => {
            // A plan that won't compile (or verify) counts one failure
            // per dispatch attempt toward quarantine.
            note_plan_outcome(inner, key, false);
            for p in live {
                fulfill(
                    inner,
                    p,
                    Err(e.clone()),
                    Phases {
                        setup_us,
                        setup_cached: false,
                        ..Phases::default()
                    },
                );
            }
            return;
        }
    };
    if hit {
        inner.metrics.setup_cached_us.record(setup_us);
    } else {
        inner.metrics.setup_cold_us.record(setup_us);
    }
    let phases = Phases {
        setup_us,
        setup_cached: hit,
        ..Phases::default()
    };

    // A cold compile can be slow; re-check deadlines before the batch
    // geometry is fixed — an expired request must not widen the launch.
    let (expired, live) = split_expired(live);
    for p in expired {
        fulfill(inner, p, Err(ServeError::Deadline), phases.clone());
    }
    if live.is_empty() {
        return;
    }

    // Fusion attempt. Only a family with a batched buffer has an outer
    // axis to fuse along; a one-extent family never attempts it.
    // The batch id is minted up front so every span and record of this
    // launch shares it, success or fallback.
    let mut fallback_reason: Option<String> = None;
    if live.len() > 1 && family.info().batched.contains(&true) {
        let batch_id = inner.next_batch_id.fetch_add(1, Ordering::Relaxed);
        match run_fused(inner, &exec, &live, &family, batch_id) {
            Ok(fused) => {
                let k = live.len();
                inner.metrics.batches.inc();
                inner.metrics.batched_requests.add(k as u64);
                inner.metrics.batch_size.record(k as f64);
                inner.max_batch.fetch_max(k as u64, Ordering::Relaxed);
                note_plan_outcome(inner, key, true);
                for (mut p, out) in live.into_iter().zip(fused.outputs) {
                    p.ctx.batch_id = Some(batch_id);
                    fulfill(
                        inner,
                        p,
                        Ok(out),
                        Phases {
                            fuse: FuseDecision::Fused { size: k as u32 },
                            exec_us: fused.exec_us,
                            split_us: fused.split_us,
                            ..phases.clone()
                        },
                    );
                }
                return;
            }
            Err(fail) => {
                // Fused execution is best-effort; serve individually.
                inner.metrics.batch_fallbacks.inc();
                let reason = match fail {
                    FusedFailure::Precondition { reason, ragged } => {
                        if ragged {
                            // Length-mix fallback (mismatched
                            // outer extent), distinct from genuine
                            // shape errors.
                            inner.metrics.batch_ragged_fallback.inc();
                        }
                        reason
                    }
                    FusedFailure::Exec(e) => {
                        // Batch fault isolation: the fused launch
                        // itself failed, so every member is re-run
                        // solo below and only the genuinely faulty
                        // request errors. Meter the isolation cost.
                        inner.metrics.batch_bisections.inc();
                        inner.metrics.retries.add(live.len() as u64);
                        if matches!(e, ExecError::Stalled { .. }) {
                            // The stall poisoned the pool; the solo
                            // retries need a healthy one.
                            recover_from_stall(inner, &mut exec);
                        }
                        format!("fused execution: {e}")
                    }
                };
                let mut span = ft_obs::span("serve", "batch_fallback");
                if span.is_recording() {
                    span.field("reason", reason.as_str());
                    span.field("batch_id", batch_id);
                }
                fallback_reason = Some(reason);
            }
        }
    }

    for p in live {
        // A member can expire while earlier members (or a failed fused
        // attempt) execute; bounce it without burning pool time.
        if p.deadline.is_some_and(|d| d <= Instant::now()) {
            fulfill(inner, p, Err(ServeError::Deadline), phases.clone());
            continue;
        }
        let exec_start = Instant::now();
        let result = exec
            .run_poly(&family, p.family.outer_extent, &p.inputs, None)
            .map_err(ServeError::Exec);
        let exec_us = exec_start.elapsed().as_secs_f64() * 1e6;
        inner.metrics.exec_us.record(exec_us);
        note_group_exec(inner, group_key(&p), exec_us);
        // Solo launches count toward the realized batch-size mix too —
        // without them the mean only reflects fused successes and the
        // shedding estimator overestimates drain rates.
        inner.metrics.batch_size.record(1.0);
        match &result {
            Ok(_) => note_plan_outcome(inner, key, true),
            Err(ServeError::Exec(e)) => {
                if indicts_plan(e) {
                    note_plan_outcome(inner, key, false);
                }
                if matches!(e, ExecError::Stalled { .. }) {
                    recover_from_stall(inner, &mut exec);
                }
            }
            Err(_) => {}
        }
        fulfill(
            inner,
            p,
            result,
            Phases {
                fuse: match &fallback_reason {
                    Some(reason) => FuseDecision::Fallback(reason.clone()),
                    None => FuseDecision::Solo,
                },
                exec_us,
                ..phases.clone()
            },
        );
    }
}

/// The plan family for `leader`'s group, from the cache — looked up by the
/// identity admission computed, byte-verified — or built (and, per config,
/// verified) cold. The `bool` is true on a cache hit.
fn acquire_family(inner: &Inner, leader: &Pending) -> Result<(Arc<PolyPlan>, bool), ServeError> {
    let verify = inner.cfg.verify;
    inner
        .cache
        .get_or_build_with(&leader.program, &leader.family, |p| {
            if verify {
                build_poly_verified(p)
                    .map(|(family, _report)| family)
                    .map_err(|e| ServeError::Compile(e.to_string()))
            } else {
                PolyPlan::family(p).map_err(|e| ServeError::Compile(e.to_string()))
            }
        })
}

/// What a successful fused launch hands back: per-request outputs plus
/// the phase timings shared by every request in the batch.
struct FusedOutcome {
    outputs: Vec<HashMap<BufferId, FractalTensor>>,
    /// Wavefront execution of the widened program, µs.
    exec_us: f64,
    /// Batch assembly around the launch (the shared-input check), µs.
    split_us: f64,
}

/// Why a fused attempt aborted — the caller's recovery differs.
enum FusedFailure {
    /// The batch could not even be assembled (shape mismatch, missing or
    /// divergent shared inputs, fused compile failure). Nothing executed;
    /// the fallback is ordinary per-request serving, not fault isolation.
    /// `ragged` marks the specific sub-case of a mismatched *outer*
    /// extent (inner dims fine) so the length-mix fallback counter stays
    /// distinct from genuine shape errors.
    Precondition { reason: String, ragged: bool },
    /// The widened launch itself failed (worker panic, guard trip,
    /// stall). The caller re-runs each member solo to isolate the
    /// faulty request.
    Exec(ExecError),
}

/// One fused launch for `live` (one family, byte-verified), always
/// **ragged**: members may differ in outer extent, and equal extents are
/// just `extents = [B; k]`. The family is instantiated at the summed
/// extent and run once over the members' inputs as parts
/// ([`Executor::run_parts`]): batched inputs are read where each request
/// holds them and every member gets exactly its own output rows, so the
/// batch is never concatenated or split. Any precondition or execution
/// failure aborts the whole attempt with a typed [`FusedFailure`]; the
/// caller falls back to per-request execution.
fn run_fused(
    inner: &Inner,
    exec: &Executor,
    live: &[Pending],
    family: &PolyPlan,
    batch_id: u64,
) -> Result<FusedOutcome, FusedFailure> {
    let info = family.info();
    let check_start = Instant::now();
    // Shared buffers (weights) must be identical across the batch: the
    // launch reads them from the first member only.
    let base = &live[0].program;
    for (bi, decl) in base.buffers.iter().enumerate() {
        if decl.kind != BufferKind::Input || info.batched.get(bi) == Some(&true) {
            continue;
        }
        let id = BufferId(bi);
        let first = live[0].inputs.get(&id);
        if live[1..].iter().any(|p| p.inputs.get(&id) != first) {
            return Err(FusedFailure::Precondition {
                reason: format!("shared input '{}' differs across batch", decl.name),
                ragged: false,
            });
        }
    }
    let parts: Vec<_> = live
        .iter()
        .map(|p| (p.family.outer_extent, &p.inputs))
        .collect();
    let split_us = check_start.elapsed().as_secs_f64() * 1e6;

    let exec_start = Instant::now();
    let outputs = exec
        .run_parts(family, &parts, Some(batch_id))
        .map_err(|e| match e {
            // Each part must carry exactly its request's extent over the
            // shared inner dims, or requests would get slices of each
            // other's results. The executor checks that before anything
            // runs, so the per-request fallback hands each caller the
            // same typed `ExecError::Input` the unbatched path would.
            ExecError::Input(reason) => FusedFailure::Precondition {
                reason,
                ragged: outer_extent_mismatch(live, &info.batched),
            },
            e => FusedFailure::Exec(e),
        })?;
    let exec_us = exec_start.elapsed().as_secs_f64() * 1e6;
    inner.metrics.exec_us.record(exec_us);
    note_group_exec(inner, group_key(&live[0]), exec_us);
    Ok(FusedOutcome {
        outputs,
        exec_us,
        split_us,
    })
}

/// Whether some member's batched input has the declared inner dims but an
/// outer extent other than its request's: a length mix, not a shape error.
fn outer_extent_mismatch(live: &[Pending], batched: &[bool]) -> bool {
    let decls = &live[0].program.buffers;
    live.iter().any(|p| {
        decls.iter().enumerate().any(|(bi, decl)| {
            let part = p.inputs.get(&BufferId(bi));
            let Some(got) = part.filter(|_| batched.get(bi) == Some(&true)) else {
                return false;
            };
            let got = got.prog_dims();
            decl.kind == BufferKind::Input
                && got.len() == decl.dims.len()
                && got.first() != Some(&p.family.outer_extent)
                && got.get(1..) == decl.dims.get(1..)
        })
    })
}

/// Resolves one request: updates metrics, appends its attributable
/// [`CompletionRecord`] (mirrored to a Perfetto request span when tracing
/// is on), and wakes the ticket waiter.
fn fulfill(inner: &Inner, mut pending: Pending, result: ServeResult, phases: Phases) {
    // A decode step advances its session's pinned state before the
    // waiter is woken: by the time the ticket resolves, the state the
    // next step reads is already current. Runs after the breaker
    // bookkeeping in `process_group`, so a session-typed rewrite here
    // can never reach the plan's quarantine accounting.
    let result = match pending.session_step.take() {
        Some(sid) => settle_session_step(inner, sid, result),
        None => result,
    };
    // The ticket is resolving normally; the supervisor no longer needs
    // its in-flight entry. (Requests failed straight off the queue were
    // never registered — remove is a no-op for them.)
    inner.inflight.lock().remove(&pending.ctx.request_id);
    let latency_us = pending.submitted.elapsed().as_secs_f64() * 1e6;
    let status = match &result {
        Ok(_) => {
            inner.metrics.completed.inc();
            inner.metrics.latency_us.record(latency_us);
            CompletionStatus::Ok
        }
        Err(ServeError::Deadline) => {
            inner.metrics.deadline_expired.inc();
            CompletionStatus::Deadline
        }
        Err(e) => {
            inner.metrics.failed.inc();
            CompletionStatus::Error(e.to_string())
        }
    };
    let record = CompletionRecord {
        ctx: pending.ctx,
        queue_wait_us: pending.queue_wait_us,
        setup_us: phases.setup_us,
        setup_cached: phases.setup_cached,
        fuse: phases.fuse,
        exec_us: phases.exec_us,
        split_us: phases.split_us,
        total_us: latency_us,
        status,
    };
    record.emit_span(ft_obs::now_us());
    inner.trace.push(record);
    let mut slot = pending.ticket.slot.lock();
    *slot = Some(result);
    pending.ticket.done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_backend::execute_reference;
    use ft_core::builders::stacked_rnn_program;
    use ft_tensor::Tensor;

    fn rnn_case(seed: u64) -> (Program, HashMap<BufferId, FractalTensor>) {
        rnn_case_at(2, 2, 3, 8, seed)
    }

    fn rnn_case_at(
        n: usize,
        d: usize,
        l: usize,
        h: usize,
        seed: u64,
    ) -> (Program, HashMap<BufferId, FractalTensor>) {
        let p = stacked_rnn_program(n, d, l, h);
        let mut inputs = HashMap::new();
        inputs.insert(
            BufferId(0),
            FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], seed), 2).unwrap(),
        );
        inputs.insert(
            BufferId(1),
            FractalTensor::from_flat(&Tensor::randn(&[d, h, h], seed + 1).mul_scalar(0.2), 1)
                .unwrap(),
        );
        (p, inputs)
    }

    fn reference(
        p: &Program,
        inputs: &HashMap<BufferId, FractalTensor>,
    ) -> HashMap<BufferId, FractalTensor> {
        let compiled = ft_passes::compile(p).unwrap();
        execute_reference(&compiled, inputs, 1).unwrap()
    }

    /// A queue entry built by hand, as admission would.
    fn pending(program: &Arc<Program>, inputs: HashMap<BufferId, FractalTensor>) -> Pending {
        Pending {
            family: family_split(program),
            program: Arc::clone(program),
            inputs,
            submitted: Instant::now(),
            deadline: None,
            ticket: Arc::new(TicketState::default()),
            ctx: TraceContext {
                request_id: ft_obs::next_request_id(),
                session_id: None,
                plan_sig: String::new(),
                batch_id: None,
            },
            queue_wait_us: 0.0,
            session_step: None,
        }
    }

    /// The stacked RNN with an outer `scan`: no polymorphic axis.
    fn outer_scan_case(seed: u64) -> (Program, HashMap<BufferId, FractalTensor>) {
        let (mut p, inputs) = rnn_case(seed);
        for nest in &mut p.nests {
            nest.ops[0] = ft_core::OpKind::ScanL;
        }
        (p, inputs)
    }

    #[test]
    fn single_request_matches_reference() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let (p, inputs) = rnn_case(7);
        let want = reference(&p, &inputs);
        let got = rt.run(&p, inputs).unwrap();
        assert_eq!(got, want);
        let stats = rt.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    /// The one cache also emits the one counter pair on the global
    /// registry (compared as deltas: every test shares that registry).
    #[test]
    fn resubmission_hits_the_plan_cache() {
        let global = Registry::global();
        let hits = global.counter("passes.plan_cache_hits");
        let misses = global.counter("passes.plan_cache_misses");
        let (h0, m0) = (hits.get(), misses.get());
        let rt = Runtime::with_defaults();
        let (p, inputs) = rnn_case(1);
        assert!(ft_core::poly_split(&p).is_some());
        rt.run(&p, inputs.clone()).unwrap();
        rt.run(&p, inputs).unwrap();
        let stats = rt.stats();
        assert_eq!(stats.cache_misses, 1, "second run must not recompile");
        assert!(stats.cache_hits >= 1);
        assert!(misses.get() > m0 && hits.get() > h0);
    }

    #[test]
    fn concurrent_same_plan_requests_get_batched_and_stay_exact() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            max_batch: 4,
            ..ServeConfig::default()
        });
        let cases: Vec<_> = (0..4).map(rnn_case).collect();
        let tickets: Vec<_> = cases
            .iter()
            .map(|(p, inputs)| {
                rt.submit_wait(Request::new(p.clone(), inputs.clone()))
                    .unwrap()
            })
            .collect();
        for ((p, inputs), t) in cases.iter().zip(tickets) {
            let got = t.wait().unwrap();
            assert_eq!(
                got,
                reference(p, inputs),
                "batched output must be bitwise exact"
            );
        }
        let stats = rt.stats();
        assert_eq!(stats.completed, 4);
        // At least some requests were co-scheduled (the first may run solo
        // if the scheduler wins the race before the rest are queued).
        assert!(stats.batches >= 1 || stats.completed == 4);
    }

    #[test]
    fn deadline_expired_request_fails_cleanly_and_runtime_survives() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let (p, inputs) = rnn_case(3);
        // An already-expired deadline: the scheduler must bounce it.
        let ticket = rt
            .submit_wait(
                Request::new(p.clone(), inputs.clone()).with_deadline(Duration::from_nanos(1)),
            )
            .unwrap();
        assert_eq!(ticket.wait(), Err(ServeError::Deadline));
        // The pool is not poisoned: the next request is exact.
        let got = rt.run(&p, inputs.clone()).unwrap();
        assert_eq!(got, reference(&p, &inputs));
        let stats = rt.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn queue_full_is_reported_not_dropped() {
        let rt = Runtime::new(ServeConfig {
            threads: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        });
        let (p, inputs) = rnn_case(5);
        // Flood faster than the scheduler drains; at least one submission
        // must be rejected with QueueFull (capacity 1 and instant refills).
        let mut rejected = 0;
        let mut tickets = Vec::new();
        for _ in 0..64 {
            match rt.submit(Request::new(p.clone(), inputs.clone())) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected > 0, "backpressure never engaged");
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(rt.stats().rejected, rejected);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let rt = Runtime::new(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        rt.shutdown();
        let (p, inputs) = rnn_case(0);
        assert!(matches!(
            rt.submit(Request::new(p, inputs)),
            Err(ServeError::Shutdown)
        ));
    }

    #[test]
    fn bad_program_fails_without_poisoning() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let (p, inputs) = rnn_case(2);
        // Missing inputs: execution fails with a typed error.
        let err = rt.run(&p, HashMap::new()).unwrap_err();
        assert!(matches!(err, ServeError::Exec(_)));
        // And the runtime keeps serving.
        assert_eq!(rt.run(&p, inputs.clone()).unwrap(), reference(&p, &inputs));
    }

    /// The review-flagged cross-request mixing hazard: two requests whose
    /// batched inputs have the wrong outer lengths (1 and 3) that *sum* to
    /// the fused extent (2·2). Without per-part validation the fused path
    /// concatenates them, the executor sees a well-shaped B·k input, and
    /// the split hands each request slices computed from the other's
    /// data. Both must instead fail with the same typed input error the
    /// unbatched path produces, and never an `Ok`.
    #[test]
    fn mismatched_batch_inputs_fail_typed_never_mix() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            max_batch: 4,
            ..ServeConfig::default()
        });
        let (n, d, l, h) = (2usize, 2, 3, 8);
        let p = stacked_rnn_program(n, d, l, h);
        // Identical weights across the group so the shared-input equality
        // check passes and the outer-length check is what must reject.
        let ws =
            FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 99).mul_scalar(0.2), 1).unwrap();
        let mk = |outer: usize, seed: u64| {
            let mut inputs = HashMap::new();
            inputs.insert(
                BufferId(0),
                FractalTensor::from_flat(&Tensor::randn(&[outer, l, 1, h], seed), 2).unwrap(),
            );
            inputs.insert(BufferId(1), ws.clone());
            inputs
        };
        let tickets: Vec<_> = [mk(1, 21), mk(3, 22)]
            .into_iter()
            .map(|inputs| rt.submit_wait(Request::new(p.clone(), inputs)).unwrap())
            .collect();
        for t in tickets {
            assert!(
                matches!(t.wait(), Err(ServeError::Exec(ExecError::Input(_)))),
                "wrong-length batched input must fail typed, not execute"
            );
        }
        // And the runtime still serves well-formed requests exactly.
        let good = mk(n, 7);
        assert_eq!(rt.run(&p, good.clone()).unwrap(), reference(&p, &good));
    }

    /// Submissions racing shutdown() either land before the scheduler's
    /// final drain or are rejected — an admitted ticket must always
    /// resolve, never block forever on a dead queue.
    #[test]
    fn submissions_racing_shutdown_never_hang() {
        for round in 0..8u64 {
            let rt = Arc::new(Runtime::new(ServeConfig {
                threads: 1,
                ..ServeConfig::default()
            }));
            let (p, inputs) = rnn_case(round);
            let submitter = {
                let rt = Arc::clone(&rt);
                let p = p.clone();
                std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    for _ in 0..32 {
                        match rt.submit(Request::new(p.clone(), inputs.clone())) {
                            Ok(t) => tickets.push(t),
                            Err(_) => break,
                        }
                    }
                    tickets
                })
            };
            rt.shutdown();
            for t in submitter.join().unwrap() {
                // Success or ServeError::Shutdown are both fine; hanging
                // here is the regression.
                let _ = t.wait();
            }
        }
    }

    #[test]
    fn try_new_constructs_a_live_runtime() {
        let rt = Runtime::try_new(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let (p, inputs) = rnn_case(9);
        assert_eq!(rt.run(&p, inputs.clone()).unwrap(), reference(&p, &inputs));
    }

    /// The reservoir is gone: every completed request lands in the
    /// latency histogram, so percentiles are computed over the full
    /// history, and the queue-depth gauge reads a point-in-time value
    /// that returns to zero once the queue drains.
    #[test]
    fn stats_count_every_request_and_gauge_reads_now() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            batching: false,
            ..ServeConfig::default()
        });
        let (p, inputs) = rnn_case(11);
        for _ in 0..6 {
            rt.run(&p, inputs.clone()).unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.completed, 6);
        assert!(stats.latency_p50_us > 0.0);
        assert!(stats.latency_p50_us <= stats.latency_p95_us);
        assert!(stats.latency_p95_us <= stats.latency_p99_us);
        let snap = rt.metrics().snapshot();
        assert_eq!(
            snap.hists["serve.latency_us"].count, 6,
            "every request must be counted, not sampled"
        );
        assert_eq!(snap.hists["serve.queue_wait_us"].count, 6);
        assert_eq!(
            snap.gauges["serve.queue_depth"], 0,
            "drained queue must read depth 0 (gauge, not cumulative sum)"
        );
        assert_eq!(snap.counters["serve.submitted"], 6);
    }

    /// Every fulfilled request leaves one attributable completion record
    /// carrying the identity tuple minted at admission.
    #[test]
    fn completion_records_attribute_every_request() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let (p, inputs) = rnn_case(13);
        let sig = family_split(&p).key.to_string();
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                rt.submit_wait(Request::new(p.clone(), inputs.clone()).with_session(77))
                    .unwrap()
            })
            .collect();
        let mut ids: Vec<u64> = tickets.iter().map(|t| t.request_id()).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let records = rt.take_completions();
        assert_eq!(records.len(), 4, "one record per request");
        let mut rec_ids: Vec<u64> = records.iter().map(|r| r.ctx.request_id).collect();
        ids.sort_unstable();
        rec_ids.sort_unstable();
        assert_eq!(rec_ids, ids, "records join tickets on request id");
        for r in &records {
            assert_eq!(r.ctx.plan_sig, sig);
            assert_eq!(r.ctx.session_id, Some(77));
            assert_eq!(r.status, ft_obs::CompletionStatus::Ok);
            assert!(r.queue_wait_us >= 0.0);
            assert!(r.total_us >= r.exec_us);
            if let FuseDecision::Fused { size } = r.fuse {
                assert!(r.ctx.batch_id.is_some(), "fused record must carry batch id");
                assert!(size >= 2);
            }
        }
        assert!(rt.take_completions().is_empty(), "drain is destructive");
    }

    /// One cached family serves every outer extent: N distinct-length
    /// submissions of one structure cost exactly one compile+verify, and
    /// a well-formed mixed-length group fuses ragged with bitwise-exact
    /// per-member outputs.
    #[test]
    fn ragged_mixed_extent_requests_fuse_and_stay_exact() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            max_batch: 4,
            ..ServeConfig::default()
        });
        let (d, l, h) = (2usize, 3, 8);
        let ws =
            FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 50).mul_scalar(0.2), 1).unwrap();
        let mk = |outer: usize, seed: u64| {
            let p = stacked_rnn_program(outer, d, l, h);
            let mut inputs = HashMap::new();
            inputs.insert(
                BufferId(0),
                FractalTensor::from_flat(&Tensor::randn(&[outer, l, 1, h], seed), 2).unwrap(),
            );
            inputs.insert(BufferId(1), ws.clone());
            (p, inputs)
        };
        // Occupy the scheduler with a same-family request of another
        // length bucket (extent 2): while its cold compile+verify runs,
        // the ragged group below queues up and is popped together.
        let (p0, in0) = mk(2, 59);
        let warm = rt
            .submit_wait(Request::new(p0.clone(), in0.clone()))
            .unwrap();
        // Extents 3 and 4 share one factor-of-4 length bucket; the three
        // requests have three *different* exact signatures.
        let cases: Vec<_> = [(3usize, 60u64), (4, 61), (3, 62)]
            .iter()
            .map(|&(o, s)| mk(o, s))
            .collect();
        let tickets: Vec<_> = cases
            .iter()
            .map(|(p, inputs)| {
                rt.submit_wait(Request::new(p.clone(), inputs.clone()))
                    .unwrap()
            })
            .collect();
        assert_eq!(warm.wait().unwrap(), reference(&p0, &in0));
        for ((p, inputs), t) in cases.iter().zip(tickets) {
            assert_eq!(
                t.wait().unwrap(),
                reference(p, inputs),
                "ragged member output must be bitwise exact"
            );
        }
        let stats = rt.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(
            stats.batch_ragged_fallbacks, 0,
            "a well-formed ragged batch must fuse, not fall back"
        );
        assert_eq!(
            stats.cached_plans, 1,
            "one polymorphic family must serve extents 2, 3 and 4"
        );
        assert_eq!(stats.cache_misses, 1, "exactly one cold family build");
    }

    /// Satellite regression: a fused attempt aborted by a *mismatched
    /// outer extent* (inner dims fine) is metered on the distinct
    /// `serve.batch_ragged_fallback` counter, not lumped into generic
    /// fallbacks.
    #[test]
    fn mismatched_extent_fallback_is_metered_distinctly() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            max_batch: 4,
            ..ServeConfig::default()
        });
        let (n, d, l, h) = (2usize, 2, 3, 8);
        let p = stacked_rnn_program(n, d, l, h);
        let ws =
            FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 99).mul_scalar(0.2), 1).unwrap();
        let mk = |outer: usize, seed: u64| {
            let mut inputs = HashMap::new();
            inputs.insert(
                BufferId(0),
                FractalTensor::from_flat(&Tensor::randn(&[outer, l, 1, h], seed), 2).unwrap(),
            );
            inputs.insert(BufferId(1), ws.clone());
            inputs
        };
        // Occupy the scheduler so the bad pair is popped as one group.
        let warm = rt.submit_wait(Request::new(p.clone(), mk(n, 31))).unwrap();
        let bad: Vec<_> = [mk(1, 32), mk(3, 33)]
            .into_iter()
            .map(|inputs| rt.submit_wait(Request::new(p.clone(), inputs)).unwrap())
            .collect();
        warm.wait().unwrap();
        for t in bad {
            assert!(matches!(
                t.wait(),
                Err(ServeError::Exec(ExecError::Input(_)))
            ));
        }
        let stats = rt.stats();
        assert!(
            stats.batch_ragged_fallbacks >= 1,
            "outer-extent mismatch must hit the ragged fallback counter"
        );
        assert!(stats.batch_fallbacks >= stats.batch_ragged_fallbacks);
        let snap = rt.metrics().snapshot();
        assert_eq!(
            snap.counters["serve.batch_ragged_fallback"],
            stats.batch_ragged_fallbacks
        );
    }

    /// Satellite regression: the wait estimator partitions the queue. A
    /// same-plan backlog drains `max_batch` per fused launch, so its
    /// estimate is launches-not-requests; with batching off every request
    /// is its own launch again.
    #[test]
    fn wait_estimator_accounts_for_batch_drain() {
        let mk_pending = |program: &Arc<Program>| pending(program, HashMap::new());
        let program: Arc<Program> = Arc::new(stacked_rnn_program(2, 2, 3, 8));

        let rt = Runtime::new(ServeConfig {
            threads: 1,
            max_batch: 8,
            ..ServeConfig::default()
        });
        for _ in 0..8 {
            rt.inner.metrics.exec_us.record(1_000.0);
        }
        let mut queue = VecDeque::new();
        for _ in 0..7 {
            queue.push_back(mk_pending(&program));
        }
        let est =
            estimate_wait_us(&rt.inner, &queue, &mk_pending(&program)).expect("history is warm");
        // 7 queued + the incoming one fit in ceil(8/8) = 1 fused launch:
        // ~2x mean with the safety margin — not the ~16x a depth-only
        // estimate charges (which is what over-shed batched traffic).
        assert!(
            est <= 4_000,
            "batched same-plan backlog over-estimated: {est} µs"
        );

        // Unrelated queued work (a different family) still costs launches.
        let other: Arc<Program> = Arc::new(stacked_rnn_program(2, 3, 4, 16));
        let mut mixed = VecDeque::new();
        for _ in 0..7 {
            mixed.push_back(mk_pending(&other));
        }
        let est_mixed =
            estimate_wait_us(&rt.inner, &mixed, &mk_pending(&program)).expect("history is warm");
        assert!(
            est_mixed > est,
            "foreign backlog must cost more than a fusable one"
        );

        // Batching off: every request is its own launch again.
        let rt_nb = Runtime::new(ServeConfig {
            threads: 1,
            batching: false,
            ..ServeConfig::default()
        });
        for _ in 0..8 {
            rt_nb.inner.metrics.exec_us.record(1_000.0);
        }
        let mut queue_nb = VecDeque::new();
        for _ in 0..7 {
            queue_nb.push_back(mk_pending(&program));
        }
        let est_nb = estimate_wait_us(&rt_nb.inner, &queue_nb, &mk_pending(&program))
            .expect("history is warm");
        assert!(
            est_nb >= 10_000,
            "unbatched backlog must charge one launch per request: {est_nb} µs"
        );
    }

    /// Satellite regression: a same-plan burst that fused serving clears
    /// well within its deadline is admitted, even when the per-launch
    /// history is heavy — the old depth-only estimate shed it.
    #[test]
    fn batched_backlog_at_capacity_is_not_shed() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            max_batch: 8,
            ..ServeConfig::default()
        });
        // Seed a heavy launch-time history (20 ms/launch): a depth-only
        // estimator charges a 12-deep same-plan burst ~480 ms and sheds
        // against a 300 ms deadline; the partitioned one charges
        // ceil(12/8) = 2 launches (~80 ms) and admits.
        for _ in 0..8 {
            rt.inner.metrics.exec_us.record(20_000.0);
        }
        let (p, inputs) = rnn_case(17);
        let tickets: Vec<_> = (0..12)
            .map(|_| {
                rt.submit_wait(
                    Request::new(p.clone(), inputs.clone())
                        .with_deadline(Duration::from_millis(300)),
                )
                .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = rt.stats();
        assert_eq!(
            stats.shed, 0,
            "same-plan burst within deadline must not be shed"
        );
        assert_eq!(stats.completed, 12);
    }

    /// Tentpole: K decode steps through a pinned-state session are
    /// bitwise-identical to the one-shot stacked RNN recomputed from
    /// scratch over the same tokens, and the state advances with zero
    /// deep copies.
    #[test]
    fn decode_loop_matches_one_shot_recompute() {
        use ft_core::builders::rnn_decode_step_program;
        let (d, h, k) = (2usize, 8usize, 5usize);
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let step = Arc::new(rnn_decode_step_program(d, h));
        let w_leaves: Vec<Tensor> = (0..d)
            .map(|j| Tensor::randn(&[h, h], 40 + j as u64).mul_scalar(0.2))
            .collect();
        let ws = FractalTensor::from_tensors(w_leaves).unwrap();
        let token_leaves: Vec<Tensor> = (0..k)
            .map(|t| Tensor::randn(&[1, h], 100 + t as u64))
            .collect();
        let hs0 = FractalTensor::nested(vec![FractalTensor::from_tensors(
            (0..d).map(|_| Tensor::zeros(&[1, h])).collect(),
        )
        .unwrap()])
        .unwrap();
        let sid = rt
            .open_session(SessionSpec {
                program: Arc::clone(&step),
                bindings: vec![StateBinding {
                    state: BufferId(2),
                    op: StateOp::Carry {
                        output: BufferId(3),
                    },
                }],
                capacity: 0,
                init: HashMap::from([(BufferId(2), hs0)]),
            })
            .unwrap();
        let mut per_step = Vec::new();
        for leaf in &token_leaves {
            let mut inputs = HashMap::new();
            inputs.insert(
                BufferId(0),
                FractalTensor::from_tensors(vec![leaf.clone()]).unwrap(),
            );
            inputs.insert(BufferId(1), ws.clone());
            let out = rt.decode_step(sid, inputs).unwrap().wait().unwrap();
            per_step.push(out[&BufferId(3)].clone());
        }
        // One-shot recompute from scratch: the same tokens through the
        // full stacked RNN; ysss[0][j][t] is layer j's state after step t.
        let one_shot = stacked_rnn_program(1, d, k, h);
        let xss = FractalTensor::nested(vec![
            FractalTensor::from_tensors(token_leaves.clone()).unwrap()
        ])
        .unwrap();
        let mut ref_inputs = HashMap::new();
        ref_inputs.insert(BufferId(0), xss);
        ref_inputs.insert(BufferId(1), ws.clone());
        let ysss = &reference(&one_shot, &ref_inputs)[&BufferId(2)];
        for (t, out) in per_step.iter().enumerate() {
            for j in 0..d {
                assert_eq!(
                    out.leaf_at(&[0, j]).unwrap(),
                    ysss.leaf_at(&[0, j, t]).unwrap(),
                    "decode step {t} layer {j} must be bitwise-identical to one-shot"
                );
            }
        }
        let hs = rt.session_state(sid, BufferId(2)).unwrap();
        for j in 0..d {
            assert_eq!(
                hs.leaf_at(&[0, j]).unwrap(),
                ysss.leaf_at(&[0, j, k - 1]).unwrap(),
                "pinned state layer {j} must equal the one-shot final step"
            );
        }
        let stats = rt.stats();
        assert_eq!(stats.decode_steps, k as u64);
        assert_eq!(
            stats.state_copies, 0,
            "a carry is a handle swap, never a copy"
        );
        assert_eq!(stats.active_sessions, 1);
        assert!(stats.pinned_bytes > 0);
        rt.close_session(sid).unwrap();
        let stats = rt.stats();
        assert_eq!(stats.active_sessions, 0);
        assert_eq!(
            stats.pinned_bytes, 0,
            "close must release the pinned region"
        );
    }

    /// Satellite regression: session-typed failures (append overflow from
    /// a malformed client) strike the *session* — eviction after repeats —
    /// and never the plan's quarantine breaker, so one abusive session
    /// cannot quarantine a plan other sessions depend on.
    #[test]
    fn abusive_session_is_evicted_without_quarantining_the_plan() {
        use ft_core::builders::rnn_decode_step_program;
        let (d, h) = (2usize, 8usize);
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            quarantine_threshold: 2,
            ..ServeConfig::default()
        });
        let step = Arc::new(rnn_decode_step_program(d, h));
        let mk_session = |rt: &Runtime| {
            let hs0 = FractalTensor::nested(vec![FractalTensor::from_tensors(
                (0..d).map(|_| Tensor::zeros(&[1, h])).collect(),
            )
            .unwrap()])
            .unwrap();
            rt.open_session(SessionSpec {
                program: Arc::clone(&step),
                bindings: vec![StateBinding {
                    state: BufferId(2),
                    op: StateOp::Carry {
                        output: BufferId(3),
                    },
                }],
                capacity: 0,
                init: HashMap::from([(BufferId(2), hs0)]),
            })
            .unwrap()
        };
        let ws = FractalTensor::from_tensors(
            (0..d)
                .map(|j| Tensor::randn(&[h, h], 70 + j as u64).mul_scalar(0.2))
                .collect(),
        )
        .unwrap();
        let step_inputs = |seed: u64| {
            let mut m = HashMap::new();
            m.insert(
                BufferId(0),
                FractalTensor::from_tensors(vec![Tensor::randn(&[1, h], seed)]).unwrap(),
            );
            m.insert(BufferId(1), ws.clone());
            m
        };
        // The abuser: submits steps with the token input missing, so each
        // step fails. Executor input errors don't strike the session (or
        // the plan — they're caller mistakes), so abuse it with a
        // *session-typed* failure instead: a malformed state advance.
        // Simplest reliable trigger at this level: steps against a session
        // whose strikes accrue via the admission overflow path.
        let abuser = {
            let hs0 = FractalTensor::nested(vec![FractalTensor::from_tensors(
                (0..d).map(|_| Tensor::zeros(&[1, h])).collect(),
            )
            .unwrap()])
            .unwrap();
            // Declare hs an *append* target with zero headroom: every step
            // is an overflow — the moral equivalent of `ExecError::Input`
            // from a malformed client. (Bindings are verified, so reach
            // overflow via capacity 1 and one legitimate-looking step
            // being impossible: capacity 1 requires [1, C>=1] cache; use
            // the carry binding but exhaust via decode_step's check.)
            rt.open_session(SessionSpec {
                program: Arc::clone(&step),
                bindings: vec![StateBinding {
                    state: BufferId(2),
                    op: StateOp::Carry {
                        output: BufferId(3),
                    },
                }],
                capacity: 0,
                init: HashMap::from([(BufferId(2), hs0)]),
            })
            .unwrap()
        };
        // Force session-typed strikes on the abuser: settle steps whose
        // outputs are missing the carry buffer (a malformed advance).
        for _ in 0..SESSION_STRIKE_LIMIT {
            let r = settle_session_step(&rt.inner, abuser, Ok(HashMap::new()));
            assert!(matches!(r, Err(ServeError::Session(_))));
        }
        assert!(
            matches!(
                rt.session_steps(abuser),
                Err(ServeError::Session(SessionError::NotFound(_)))
            ),
            "repeated session errors must evict the session"
        );
        let stats = rt.stats();
        assert_eq!(stats.session_evictions, 1);
        assert!(stats.session_errors >= SESSION_STRIKE_LIMIT as u64);
        assert_eq!(
            stats.quarantine_trips, 0,
            "session errors must never trip the plan's breaker"
        );
        // The plan the abuser was hammering still serves other sessions.
        let victim = mk_session(&rt);
        let out = rt
            .decode_step(victim, step_inputs(91))
            .unwrap()
            .wait()
            .unwrap();
        assert!(out.contains_key(&BufferId(3)));
        assert_eq!(rt.stats().quarantine_rejected, 0);
    }

    /// Session admission contract: unknown ids are typed, a second step
    /// while one is in flight is `Busy`, and append overflow strikes
    /// toward eviction.
    #[test]
    fn session_admission_errors_are_typed() {
        use ft_core::builders::rnn_decode_step_program;
        let (d, h) = (2usize, 8usize);
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        assert!(matches!(
            rt.decode_step(999, HashMap::new()),
            Err(ServeError::Session(SessionError::NotFound(999)))
        ));
        assert!(matches!(
            rt.close_session(999),
            Err(ServeError::Session(SessionError::NotFound(999)))
        ));
        // Opening with no bindings is rejected by the verifier.
        let step = Arc::new(rnn_decode_step_program(d, h));
        assert!(matches!(
            rt.open_session(SessionSpec {
                program: step,
                bindings: vec![],
                capacity: 0,
                init: HashMap::new(),
            }),
            Err(ServeError::Session(SessionError::StateShape(_)))
        ));
    }

    /// Satellite regression: the estimator prices each group's backlog at
    /// that group's *own* exec-time mean, not the global blend. A fast
    /// family queued behind its own traffic must not inherit a slow
    /// family's latencies (over-shedding), and a queue full of slow work
    /// must not be under-priced by the blend.
    #[test]
    fn wait_estimator_prices_groups_by_their_own_history() {
        let mk_pending = |program: &Arc<Program>| pending(program, HashMap::new());
        let rt = Runtime::new(ServeConfig {
            threads: 1,
            batching: false,
            ..ServeConfig::default()
        });
        // Two families: sub-millisecond decode-like steps and 20 ms
        // prefill-like launches, blended global mean ~10 ms.
        let fast: Arc<Program> = Arc::new(stacked_rnn_program(2, 2, 3, 8));
        let slow: Arc<Program> = Arc::new(stacked_rnn_program(2, 3, 4, 16));
        let fast_key = group_key(&mk_pending(&fast));
        let slow_key = group_key(&mk_pending(&slow));
        assert_ne!(fast_key, slow_key);
        for _ in 0..4 {
            rt.inner.metrics.exec_us.record(100.0);
            rt.inner.metrics.exec_us.record(20_000.0);
        }
        for _ in 0..GROUP_MIN_HISTORY {
            note_group_exec(&rt.inner, fast_key, 100.0);
            note_group_exec(&rt.inner, slow_key, 20_000.0);
        }
        let queue_of = |program: &Arc<Program>, n: usize| -> VecDeque<Pending> {
            (0..n).map(|_| mk_pending(program)).collect()
        };
        // Fast behind its own backlog: 5 fast launches ≈ 500 µs (x2
        // margin ⇒ ~1 ms). The global blend would charge ~100 ms.
        let fast_q = queue_of(&fast, 4);
        let est =
            estimate_wait_us(&rt.inner, &fast_q, &mk_pending(&fast)).expect("history is warm");
        assert!(
            est <= 2_000,
            "fast family over-priced by the global blend: {est} µs"
        );
        // Fast behind a slow backlog: the slow group's own mean must
        // dominate — 4 slow launches ≥ 80 ms, not the blend's discount.
        let slow_q = queue_of(&slow, 4);
        let est_behind_slow =
            estimate_wait_us(&rt.inner, &slow_q, &mk_pending(&fast)).expect("history is warm");
        assert!(
            est_behind_slow >= 80_000,
            "slow backlog under-priced: {est_behind_slow} µs"
        );
        // Slow behind its own backlog prices even higher (5 slow launches).
        let est_slow =
            estimate_wait_us(&rt.inner, &slow_q, &mk_pending(&slow)).expect("history is warm");
        assert!(
            est_slow > est_behind_slow,
            "slow-behind-slow must exceed fast-behind-slow"
        );
        // A group below GROUP_MIN_HISTORY falls back to the global mean.
        let cold: Arc<Program> = Arc::new(stacked_rnn_program(3, 2, 2, 8));
        let cold_key = group_key(&mk_pending(&cold));
        note_group_exec(&rt.inner, cold_key, 1.0);
        let cold_q = queue_of(&cold, 4);
        let est_cold =
            estimate_wait_us(&rt.inner, &cold_q, &mk_pending(&cold)).expect("history is warm");
        let global = rt.inner.metrics.exec_us.mean();
        assert!(
            (est_cold as f64) >= 5.0 * global,
            "below MIN_HISTORY the global mean must price the group: {est_cold} µs"
        );
    }

    /// A hash is a candidate, never proof: two different programs forged
    /// onto one family key (and one length bucket) are never co-launched,
    /// each is compiled beside the other, and each gets its own result.
    #[test]
    fn colliding_family_keys_are_never_co_launched() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            max_batch: 4,
            ..ServeConfig::default()
        });
        let (pa, in_a) = rnn_case(41);
        let (pb, in_b) = rnn_case_at(2, 2, 3, 16, 42);
        let a = pending(&Arc::new(pa.clone()), in_a.clone());
        let mut b = pending(&Arc::new(pb.clone()), in_b.clone());
        b.family.key = a.family.key;
        assert_eq!(group_key(&a), group_key(&b));
        assert!(!same_launch(&a, &b));
        let tickets: Vec<Ticket> = [&a, &b]
            .iter()
            .map(|p| Ticket {
                state: Arc::clone(&p.ticket),
                request_id: p.ctx.request_id,
            })
            .collect();
        {
            // Both are queued before the scheduler can pop either.
            let mut queue = rt.inner.queue.lock();
            queue.push_back(a);
            queue.push_back(b);
        }
        rt.inner.not_empty.notify_one();
        let got: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(got[0], reference(&pa, &in_a));
        assert_eq!(got[1], reference(&pb, &in_b));
        let stats = rt.stats();
        assert_eq!((stats.batches, stats.batch_fallbacks), (0, 0));
        assert_eq!(stats.cached_plans, 2, "colliders occupy separate slots");
        assert_eq!(stats.cache_misses, 2);
        for r in rt.take_completions() {
            assert_eq!(r.fuse, FuseDecision::Solo);
        }
    }

    /// Nothing in the runtime grows with the number of distinct exact
    /// signatures: 64 extents of one structure are one cached plan.
    #[test]
    fn many_extents_of_one_structure_are_one_cached_plan() {
        let rt = Runtime::new(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        for n in 1..=64usize {
            let (p, inputs) = rnn_case_at(n, 1, 2, 4, n as u64);
            rt.run(&p, inputs).unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.completed, 64);
        assert_eq!((stats.cached_plans, stats.cache_misses), (1, 1));
    }

    /// A program without a polymorphic outer axis is a one-extent family:
    /// cached like any other, never fused, bitwise equal to the
    /// interpreter.
    #[test]
    fn one_extent_family_is_cached_and_served_solo() {
        let rt = Runtime::new(ServeConfig {
            threads: 2,
            max_batch: 4,
            ..ServeConfig::default()
        });
        let (p, inputs) = outer_scan_case(51);
        assert!(ft_core::poly_split(&p).is_none());
        rt.run(&p, inputs.clone()).unwrap();
        rt.run(&p, inputs).unwrap();
        let stats = rt.stats();
        assert_eq!((stats.cache_misses, stats.cached_plans), (1, 1));
        assert!(stats.cache_hits >= 1);
        rt.take_completions();

        let cases: Vec<_> = (52..56).map(outer_scan_case).collect();
        let tickets: Vec<_> = cases
            .iter()
            .map(|(p, inputs)| {
                rt.submit_wait(Request::new(p.clone(), inputs.clone()))
                    .unwrap()
            })
            .collect();
        for ((p, inputs), t) in cases.iter().zip(tickets) {
            let want = ft_core::interp::run_program(p, inputs).unwrap();
            assert_eq!(t.wait().unwrap(), want, "must equal the interpreter");
        }
        let after = rt.stats();
        assert_eq!(after.completed, 6);
        assert_eq!((after.batches, after.batch_fallbacks), (0, 0));
        assert_eq!(after.cached_plans, 1);
        let records = rt.take_completions();
        assert_eq!(records.len(), 4);
        for r in records {
            assert_eq!(r.fuse, FuseDecision::Solo);
        }
        let family = PolyPlan::family(&p).unwrap();
        assert!(matches!(
            family.instance(family.template_extent() + 1),
            Err(ft_passes::PassError::Invalid(_))
        ));
    }

    #[test]
    fn runtime_and_compiled_program_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ft_passes::CompiledProgram>();
        assert_send_sync::<Runtime>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<ServeError>();
    }
}
