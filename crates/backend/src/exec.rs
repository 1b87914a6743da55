//! The multi-threaded wavefront executor on a persistent worker pool.
//!
//! An [`Executor`] keeps one [`ft_pool::WorkerPool`] parked between runs
//! and between wavefront steps; each step publishes one job that every
//! participant drains through an atomic chunk cursor (dynamic load
//! balancing — wavefront widths vary wildly across steps, so static
//! chunking strands workers). A step is enumerated as **runs**: maximal
//! segments of consecutive points along the innermost transformed
//! dimension, the one `Reordering::reuse_dims` made the reuse dimension.
//! A chunk is a range of points, walked as run segments; per segment each
//! member's domain is intersected once into an interval, each access of
//! the group plan (`crate::plan::GroupPlan`) is range-checked at the
//! segment's two ends and then advances by its stride, and every UDF
//! statement is evaluated once over all the segment's leaves — a leaf
//! GEMM whose weight has stride 0 along the run becomes one rows-batched
//! kernel call. A single point is a segment of length one of the same
//! path.
//!
//! Buffer storage is one contiguous `f32` **arena** laid out at plan time
//! by [`ft_passes::plan_memory`]: every access resolves to a flat element
//! offset (an affine function of the wavefront point), extern inputs are
//! borrowed leaf-by-leaf as `Arc` handles (never deep-copied), and UDFs
//! evaluate over borrowed slices through `ft_tensor::slices` kernels.
//! Workers stage their writes in per-worker flat buffers (which double as
//! the forwarding store for later members of the same segment); the
//! publishing thread applies them serially between steps, enforcing the
//! single-assignment property with a leaf-granular written bitmap. Arena
//! buffers are pooled on the [`Executor`], so a long-lived executor (the
//! serving runtime's) reaches a zero-allocation steady state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ft_core::adt::FractalTensor;
use ft_core::expr::OpCode;
use ft_core::program::BufferKind;
use ft_core::BufferId;
use ft_passes::{CompiledProgram, Placement, Reordering};
use ft_pool::WorkerPool;
use ft_simd::{Run, MAX_EPI_OPERANDS};
use ft_tensor::{slices, Tensor};
use parking_lot::{Mutex, RwLock};

use crate::plan::{matvec_flat, Access, ArgSrc, GroupPlan, MemberPlan, Place, ReadPlan, StmtPlan};

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Missing or malformed input.
    Input(String),
    /// A runtime invariant failed (unwritten read, double write, ...).
    Runtime(String),
    /// A worker panicked during a wavefront step; the original panic
    /// payload is preserved in `message`.
    WorkerPanic {
        /// Launch group index.
        group: usize,
        /// Wavefront step at which the panic surfaced.
        step: i64,
        /// The panic payload (stringified).
        message: String,
    },
    /// A guard-mode check tripped (`FT_GUARD=1` / [`Executor::guard`]):
    /// an access-map evaluation left its buffer's range, or a step output
    /// contained a non-finite value.
    Guard {
        /// Launch group index.
        group: usize,
        /// Wavefront step of the offending point.
        step: i64,
        /// Block (member) name.
        block: String,
        /// What tripped, with the buffer and point spelled out.
        detail: String,
    },
    /// A wavefront launch stopped making heartbeat progress for the
    /// configured watchdog window ([`Executor::launch_timeout`]): the job
    /// is presumed wedged (e.g. a UDF in an infinite loop), its pool is
    /// poisoned and must be replaced. Unlike a panic, the wedged threads
    /// are abandoned, not joined — fallback cannot repair this error
    /// because re-running the same wedge inline would hang the caller.
    Stalled {
        /// Launch group index.
        group: usize,
        /// Wavefront step the watchdog gave up on.
        step: i64,
        /// Wall time from launch to the stall verdict.
        elapsed_ms: u64,
    },
    /// Scratch-slot forwarding invariant broken: a populated slot carried
    /// no value for the member reading it.
    Forwarding {
        /// Launch group index.
        group: usize,
        /// Block (member) name.
        block: String,
        /// Buffer the read targeted.
        buffer: String,
        /// Original-space wavefront point.
        point: Vec<i64>,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Input(m) => write!(f, "input error: {m}"),
            ExecError::Runtime(m) => write!(f, "runtime error: {m}"),
            ExecError::WorkerPanic {
                group,
                step,
                message,
            } => write!(
                f,
                "worker panic in group {group} at wavefront step {step}: {message}"
            ),
            ExecError::Guard {
                group,
                step,
                block,
                detail,
            } => write!(
                f,
                "guard trip in group {group} step {step}, block '{block}': {detail}"
            ),
            ExecError::Stalled {
                group,
                step,
                elapsed_ms,
            } => write!(
                f,
                "launch stalled in group {group} at wavefront step {step}: \
                 no worker heartbeat, gave up after {elapsed_ms} ms (pool poisoned)"
            ),
            ExecError::Forwarding {
                group,
                block,
                buffer,
                point,
            } => write!(
                f,
                "forwarding slot for buffer '{buffer}' empty in group {group}, \
                 block '{block}' at point {point:?}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// The `(group, step)` the error is attributed to, when known.
    pub fn location(&self) -> Option<(usize, i64)> {
        match self {
            ExecError::WorkerPanic { group, step, .. }
            | ExecError::Guard { group, step, .. }
            | ExecError::Stalled { group, step, .. } => Some((*group, *step)),
            _ => None,
        }
    }
}

pub(crate) fn core_err(e: ft_core::program::CoreError) -> ExecError {
    ExecError::Runtime(e.to_string())
}

/// A fault-injection plan for the executor — the chaos-testing hook of the
/// robustness layer. **Test/bench-only API**: an armed `FaultPlan`
/// deliberately breaks execution so the degradation machinery can be
/// exercised; never attach one on a production path.
///
/// All three fault classes leave [`execute_reference`](crate::execute_reference)
/// untouched, so a fallback after an injected fault reproduces the clean
/// output bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Panic the first worker that picks up work at `(group, step)`.
    pub panic_at: Option<(usize, i64)>,
    /// Shift the first offset component of `(group, member, read)`'s
    /// access map by a delta: `(group, member, read, delta)`.
    pub corrupt_read: Option<(usize, usize, usize, i64)>,
    /// Overwrite the first UDF output with NaN at every point of
    /// `(group, step)`.
    pub poison_nan_at: Option<(usize, i64)>,
    /// Wedge the first worker that picks up work at `(group, step)` for
    /// the given number of milliseconds — a bounded stand-in for a UDF
    /// stuck in an infinite loop, used to exercise the stall watchdog:
    /// `(group, step, sleep_ms)`.
    pub stall_at: Option<(usize, i64, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects a worker panic at the given group/step.
    pub fn panic_at(mut self, group: usize, step: i64) -> Self {
        self.panic_at = Some((group, step));
        self
    }

    /// Corrupts one read's access-map offset by `delta`.
    pub fn corrupt_read(mut self, group: usize, member: usize, read: usize, delta: i64) -> Self {
        self.corrupt_read = Some((group, member, read, delta));
        self
    }

    /// Poisons the first UDF output with NaN at the given group/step.
    pub fn poison_nan_at(mut self, group: usize, step: i64) -> Self {
        self.poison_nan_at = Some((group, step));
        self
    }

    /// Wedges a worker for `sleep_ms` at the given group/step (stall
    /// watchdog exercise; see [`FaultPlan::stall_at`]).
    pub fn stall_at(mut self, group: usize, step: i64, sleep_ms: u64) -> Self {
        self.stall_at = Some((group, step, sleep_ms));
        self
    }
}

/// Why (and where) a run degraded to the reference executor.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Launch group the failure was attributed to, when known.
    pub group: Option<usize>,
    /// Wavefront step of the failure, when known.
    pub step: Option<i64>,
    /// The error the pooled executor hit before falling back.
    pub error: ExecError,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degraded to reference executor: {}", self.error)
    }
}

/// The result of [`Executor::run_report`]: outputs plus an optional
/// degradation report when the pooled executor fell back.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Every output buffer.
    pub outputs: HashMap<BufferId, FractalTensor>,
    /// `Some` when the pooled path failed and the result was recomputed by
    /// the single-threaded reference executor.
    pub degraded: Option<Degradation>,
}

/// Target chunks per participant: small enough to amortize cursor traffic,
/// large enough that an unlucky tail chunk cannot dominate a step.
const CHUNKS_PER_WORKER: usize = 4;

/// Span thread-track ids for executor workers start here so they never
/// collide with the per-thread tracks the span collector assigns.
const WORKER_TID_BASE: u64 = 1000;

/// Arena buffers retained for reuse per executor (beyond this, extra
/// buffers are dropped rather than hoarded).
const ARENA_POOL_CAP: usize = 8;

/// Executes a compiled program on the given inputs with `threads` worker
/// threads (1 = fully sequential but still wavefront-ordered), returning
/// every output buffer.
pub fn execute(
    compiled: &CompiledProgram,
    inputs: &HashMap<BufferId, FractalTensor>,
    threads: usize,
) -> Result<HashMap<BufferId, FractalTensor>, ExecError> {
    Executor::new().threads(threads).run(compiled, inputs)
}

/// One run's backing store: the flat `f32` arena plus the leaf-granular
/// written bitmap that enforces single assignment. Pooled and reused
/// across runs. Only the bitmap is cleared per run: it turns any read of
/// an unwritten leaf into an error and fills are plan-time constants, so
/// stale arena contents are never observed and `data` just keeps its
/// high-water length.
#[derive(Default)]
struct ArenaBuf {
    data: Vec<f32>,
    written: Vec<bool>,
}

/// The executor's arena pool and its lifetime counters. Shared by all
/// clones of an [`Executor`] (the serving runtime clones its executor per
/// snapshot), so the stats are cumulative across every run. Counters are
/// mirrored into the always-on global metrics registry
/// ([`ft_obs::Registry::global`]) so exporters see arena behaviour
/// without `FT_TRACE`.
#[derive(Default)]
struct ArenaPool {
    bufs: Mutex<Vec<ArenaBuf>>,
    acquires: AtomicU64,
    reused: AtomicU64,
    grows: AtomicU64,
    leaf_borrows: AtomicU64,
    leaf_clones: AtomicU64,
    output_clones: AtomicU64,
}

impl ArenaPool {
    fn acquire(&self, arena_len: usize, slots_len: usize) -> ArenaBuf {
        let obs = exec_obs();
        self.acquires.fetch_add(1, Ordering::Relaxed);
        obs.arena_acquires.inc();
        let mut buf = self.bufs.lock().pop().unwrap_or_default();
        if buf.data.capacity() >= arena_len && buf.written.capacity() >= slots_len {
            self.reused.fetch_add(1, Ordering::Relaxed);
            obs.arena_reused.inc();
        } else {
            self.grows.fetch_add(1, Ordering::Relaxed);
            obs.arena_grows.inc();
        }
        // High-water mark of the arena in elements: a point-in-time gauge
        // ft-top renders next to grows.
        let hw = obs.arena_high_water.get();
        if (arena_len as i64) > hw {
            obs.arena_high_water.set(arena_len as i64);
        }
        if buf.data.len() < arena_len {
            buf.data.resize(arena_len, 0.0);
        }
        buf.written.clear();
        buf.written.resize(slots_len, false);
        buf
    }

    fn release(&self, buf: ArenaBuf) {
        let mut bufs = self.bufs.lock();
        if bufs.len() < ARENA_POOL_CAP {
            bufs.push(buf);
        }
    }
}

/// Pre-registered handles into the global metrics registry for the
/// executor's always-on counters: registered once, then every update is a
/// relaxed atomic add. These stay live with tracing disabled — they are
/// what `ft-top` and the Prometheus exporter read under production load.
pub(crate) struct ExecObs {
    arena_acquires: ft_obs::Counter,
    arena_reused: ft_obs::Counter,
    arena_grows: ft_obs::Counter,
    arena_high_water: ft_obs::Gauge,
    leaf_borrows: ft_obs::Counter,
    launch_groups: ft_obs::Counter,
    wavefront_steps: ft_obs::Counter,
    points: ft_obs::Counter,
    worker_busy_ns: ft_obs::Counter,
    worker_idle_ns: ft_obs::Counter,
    workers: ft_obs::Gauge,
    fallbacks: ft_obs::Counter,
    worker_panics: ft_obs::Counter,
    stalls: ft_obs::Counter,
    pub(crate) udf_scratch_elems: ft_obs::Counter,
    pub(crate) udf_output_elems: ft_obs::Counter,
}

pub(crate) fn exec_obs() -> &'static ExecObs {
    static OBS: std::sync::OnceLock<ExecObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let reg = ft_obs::Registry::global();
        ExecObs {
            arena_acquires: reg.counter("exec.arena_acquires"),
            arena_reused: reg.counter("exec.arena_reused"),
            arena_grows: reg.counter("exec.arena_grows"),
            arena_high_water: reg.gauge("exec.arena_high_water"),
            leaf_borrows: reg.counter("exec.leaf_borrows"),
            launch_groups: reg.counter("exec.launch_groups"),
            wavefront_steps: reg.counter("exec.wavefront_steps"),
            points: reg.counter("exec.points"),
            worker_busy_ns: reg.counter("exec.worker_busy_ns"),
            worker_idle_ns: reg.counter("exec.worker_idle_ns"),
            workers: reg.gauge("exec.workers"),
            fallbacks: reg.counter("exec.fallbacks"),
            worker_panics: reg.counter("exec.worker_panics"),
            stalls: reg.counter("exec.stalls"),
            udf_scratch_elems: reg.counter("exec.udf_scratch_elems"),
            udf_output_elems: reg.counter("exec.udf_output_elems"),
        }
    })
}

/// A snapshot of the executor's arena counters (cumulative across runs and
/// across clones sharing the pool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Arena buffers handed out (one per run).
    pub acquires: u64,
    /// Acquires satisfied without growing a buffer's capacity.
    pub reused: u64,
    /// Acquires that had to grow (or freshly allocate) a buffer.
    pub grows: u64,
    /// Leaf reads served as borrowed slices (arena, extern, or forwarded).
    pub leaf_borrows: u64,
    /// Extern input leaves copied instead of borrowed, because the leaf
    /// was a strided view rather than a window of a contiguous buffer.
    /// Zero for inputs built from contiguous tensors — the counter exists
    /// so tests and the serving stats can assert it stays that way.
    pub leaf_clones: u64,
    /// Output trees cloned so several parts of one launch
    /// ([`Executor::run_parts`]) each hold a shared output: `k − 1` per
    /// shared output of a `k`-part launch, so zero on every one-part run,
    /// which moves its outputs.
    pub output_clones: u64,
}

/// Builder-style executor configuration.
///
/// [`Executor::default`] picks the worker count from the `FT_THREADS`
/// environment variable, falling back to the machine's available
/// parallelism (see [`ft_pool::default_threads`]); guard mode defaults on
/// when `FT_GUARD=1`, and fallback when `FT_FALLBACK=1`. Both environment
/// flags are resolved **once, at construction** — `run` never touches the
/// environment, so a long-lived `Executor` (e.g. the serving runtime's)
/// pays no `std::env::var` lookups on the hot path and is immune to
/// concurrent env mutation from other threads.
#[derive(Clone)]
pub struct Executor {
    threads: Option<usize>,
    guard: bool,
    fallback: bool,
    fault: Option<Arc<FaultPlan>>,
    /// One-shot armed fault consumed by the next run (test/bench only);
    /// shared by clones so a serving runtime's handle can arm its
    /// scheduler's executor.
    armed: Arc<Mutex<Option<FaultPlan>>>,
    /// Stall watchdog window per wavefront launch (see
    /// [`launch_timeout`](Self::launch_timeout)).
    timeout: Option<std::time::Duration>,
    /// Caller-attached pool ([`pool`](Self::pool)); `None` runs on `own`.
    pool: Option<Arc<WorkerPool>>,
    /// The executor's own pool: created on first use, kept parked between
    /// runs, shared by clones, replaced once a stall has poisoned it.
    own: Arc<Mutex<Option<Arc<WorkerPool>>>>,
    /// Arena buffers reused across runs; shared by clones.
    arena: Arc<ArenaPool>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            threads: None,
            guard: env_flag("FT_GUARD"),
            fallback: env_flag("FT_FALLBACK"),
            fault: None,
            armed: Arc::new(Mutex::new(None)),
            timeout: None,
            pool: None,
            own: Arc::new(Mutex::new(None)),
            arena: Arc::new(ArenaPool::default()),
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .field("guard", &self.guard)
            .field("fallback", &self.fallback)
            .field("fault", &self.fault)
            .field("timeout", &self.timeout)
            .field("pool", &self.pool.as_ref().map(|p| p.threads()))
            .finish()
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| v.trim() == "1")
        .unwrap_or(false)
}

impl Executor {
    /// An executor with the default worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Enables guard mode: bounds-check every access-map evaluation against
    /// its buffer's range and scan step outputs for NaN/Inf, turning silent
    /// corruption into typed [`ExecError::Guard`]s. Also enabled by
    /// `FT_GUARD=1`.
    pub fn guard(mut self, on: bool) -> Self {
        self.guard = on;
        self
    }

    /// Enables graceful degradation: when the pooled executor fails for
    /// any non-input reason (worker panic, guard trip, runtime error), the
    /// program is transparently re-run by the single-threaded reference
    /// executor and the result is returned together with a
    /// [`Degradation`] report instead of an `Err`. Also enabled by
    /// `FT_FALLBACK=1`.
    pub fn fallback(mut self, on: bool) -> Self {
        self.fallback = on;
        self
    }

    /// Attaches a fault-injection plan (test/bench-only; see [`FaultPlan`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(Arc::new(plan));
        self
    }

    /// Arms a **one-shot** fault plan consumed by the next `run` on this
    /// executor or any clone of it (test/bench-only). Unlike
    /// [`fault_plan`](Self::fault_plan), which fires on every run, an
    /// armed fault hits exactly one launch — the shape chaos scenarios
    /// need to corrupt ~1% of live traffic without rebuilding executors.
    pub fn arm_fault(&self, plan: FaultPlan) {
        *self.armed.lock() = Some(plan);
    }

    /// Bounds each wavefront launch's wall time: if no worker records
    /// heartbeat progress for `timeout`, the launch fails with a typed
    /// [`ExecError::Stalled`] and the pool is poisoned (replace it — see
    /// `ft_pool`'s supervised-pool docs). Full coverage requires an
    /// attached [`WorkerPool::supervised`] pool; on a caller-participates
    /// pool only the spawned workers' share is watched.
    pub fn launch_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Runs on a caller-owned persistent [`WorkerPool`] instead of the
    /// executor's own. The pool's effective participant count overrides
    /// [`threads`](Self::threads); the serving runtime uses this so every
    /// request shares one set of parked workers.
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Cumulative arena counters for this executor (and every clone
    /// sharing its pool): acquires/reuses/grows plus the borrow-vs-clone
    /// split for leaf reads.
    pub fn arena_stats(&self) -> ArenaStats {
        ArenaStats {
            acquires: self.arena.acquires.load(Ordering::Relaxed),
            reused: self.arena.reused.load(Ordering::Relaxed),
            grows: self.arena.grows.load(Ordering::Relaxed),
            leaf_borrows: self.arena.leaf_borrows.load(Ordering::Relaxed),
            leaf_clones: self.arena.leaf_clones.load(Ordering::Relaxed),
            output_clones: self.arena.output_clones.load(Ordering::Relaxed),
        }
    }

    /// The pool this run executes on: the attached one, else the
    /// executor's own, (re)built when missing, sized for another thread
    /// count, or poisoned by a stalled launch.
    fn acquire_pool(&self) -> Arc<WorkerPool> {
        if let Some(p) = &self.pool {
            return Arc::clone(p);
        }
        let want = self.threads.unwrap_or_else(ft_pool::default_threads);
        let mut own = self.own.lock();
        match &*own {
            Some(p) if p.threads() == want && !p.is_poisoned() => Arc::clone(p),
            _ => {
                let p = Arc::new(WorkerPool::new(want));
                *own = Some(Arc::clone(&p));
                p
            }
        }
    }

    /// Runs the compiled program, returning every output buffer. With
    /// [`fallback`](Self::fallback) enabled, a pooled-executor failure is
    /// repaired transparently; use [`run_report`](Self::run_report) to
    /// observe whether that happened.
    pub fn run(
        &self,
        compiled: &CompiledProgram,
        inputs: &HashMap<BufferId, FractalTensor>,
    ) -> Result<HashMap<BufferId, FractalTensor>, ExecError> {
        self.run_report(compiled, inputs).map(|o| o.outputs)
    }

    /// Runs a shape-polymorphic plan family at outer extent `extent`: the
    /// one-part case of [`run_parts`](Self::run_parts).
    pub fn run_poly(
        &self,
        family: &ft_passes::PolyPlan,
        extent: usize,
        inputs: &HashMap<BufferId, FractalTensor>,
        batch: Option<u64>,
    ) -> Result<HashMap<BufferId, FractalTensor>, ExecError> {
        let mut outputs = self.run_parts(family, &[(extent, inputs)], batch)?;
        outputs.pop().ok_or_else(no_outputs)
    }

    /// Runs one launch of a shape-polymorphic plan family over several
    /// **parts** — `(outer extent, inputs)` per member of a fused batch —
    /// returning each part's outputs, in part order.
    ///
    /// The family's stride/size formulas are evaluated at the summed
    /// extent (memoized per extent inside the family — the lifetime
    /// analysis and first-fit never re-run) and the instance executes
    /// exactly like an exact-shape compile. The parts are read in place:
    /// a batched input (`family.info().batched`) is the concatenation of
    /// the parts' trees along the outer axis, addressed leaf by leaf where
    /// each part holds it; any other input comes from the first part.
    /// Each part's batched inputs must have dims `[extent, inner…]`, else
    /// the launch fails with [`ExecError::Input`] before anything runs. A
    /// batched output hands each part its own rows; a shared one is
    /// cloned for every part but the last, which takes it.
    ///
    /// A family that fails to instantiate reports [`ExecError::Runtime`]
    /// — the plan is at fault, not the inputs. [`fallback`](Self::fallback)
    /// repairs a one-part launch only: a failed launch of several parts
    /// returns its error, and the caller re-runs the members one by one.
    /// `batch` tags every span the launch emits (`launch_group`,
    /// `wavefront_step`, per-worker events), so a fused batch's execution
    /// is attributable back to the requests riding in it.
    pub fn run_parts(
        &self,
        family: &ft_passes::PolyPlan,
        parts: &[(usize, &HashMap<BufferId, FractalTensor>)],
        batch: Option<u64>,
    ) -> Result<Vec<HashMap<BufferId, FractalTensor>>, ExecError> {
        if parts.is_empty() {
            return Err(ExecError::Input("a launch needs at least one part".into()));
        }
        let extent = parts.iter().map(|&(n, _)| n).sum();
        let instance = family
            .instance(extent)
            .map_err(|e| ExecError::Runtime(format!("poly instantiation at L={extent}: {e}")))?;
        self.launch(&instance, &family.info().batched, parts, batch)
            .map(|(outputs, _)| outputs)
    }

    /// Runs the compiled program, returning outputs plus a degradation
    /// report when the pooled path failed and fallback repaired it.
    pub fn run_report(
        &self,
        compiled: &CompiledProgram,
        inputs: &HashMap<BufferId, FractalTensor>,
    ) -> Result<ExecOutcome, ExecError> {
        // No buffer is batched, so the part's extent is never read.
        let (mut outputs, degraded) = self.launch(compiled, &[], &[(0, inputs)], None)?;
        Ok(ExecOutcome {
            outputs: outputs.pop().ok_or_else(no_outputs)?,
            degraded,
        })
    }

    /// One pooled launch over `parts`, with the fallback policy applied.
    /// `batched[b]` marks buffer `b` as concatenated across the parts
    /// (missing entries are shared).
    fn launch(
        &self,
        compiled: &CompiledProgram,
        batched: &[bool],
        parts: &[(usize, &HashMap<BufferId, FractalTensor>)],
        batch: Option<u64>,
    ) -> Result<Launched, ExecError> {
        let e = match self.run_pooled(compiled, batched, parts, batch) {
            Ok(outputs) => return Ok((outputs, None)),
            Err(e) => e,
        };
        match (&e, parts) {
            // Missing/malformed inputs fail identically everywhere;
            // degrading cannot repair them.
            (ExecError::Input(_), _) => Err(e),
            // A stalled launch means the work itself is wedged: re-running
            // it single-threaded on the *calling* thread would recreate
            // the hang with nobody left to time it out.
            (ExecError::Stalled { .. }, _) => Err(e),
            (_, [(_, inputs)]) if self.fallback => {
                exec_obs().fallbacks.inc();
                let mut span = ft_obs::span("exec", "fallback");
                if span.is_recording() {
                    span.field("error", e.to_string());
                }
                let outputs = crate::reference::execute_reference(compiled, inputs, 1)?;
                let (group, step) = match e.location() {
                    Some((g, s)) => (Some(g), Some(s)),
                    None => (None, None),
                };
                Ok((
                    vec![outputs],
                    Some(Degradation {
                        group,
                        step,
                        error: e,
                    }),
                ))
            }
            _ => Err(e),
        }
    }

    /// The pooled wavefront execution (no fallback handling).
    fn run_pooled(
        &self,
        compiled: &CompiledProgram,
        batched: &[bool],
        parts: &[(usize, &HashMap<BufferId, FractalTensor>)],
        batch: Option<u64>,
    ) -> Result<Vec<HashMap<BufferId, FractalTensor>>, ExecError> {
        let etdg = &compiled.etdg;
        let memory = &compiled.memory;
        // Callers pass at least one part.
        let first = parts[0].1;
        // Extern inputs are borrowed leaf-by-leaf (`Arc` handles into the
        // caller's storage) — never deep-copied into a fresh store. A
        // batched input walks every part in order, which is the
        // concatenation along the outer axis without building it.
        let mut externs: Vec<Option<ExternBuf>> = Vec::with_capacity(etdg.buffers.len());
        for (bi, buf) in etdg.buffers.iter().enumerate() {
            if buf.kind != BufferKind::Input {
                externs.push(None);
                continue;
            }
            let mut ext = ExternBuf::default();
            if batched.get(bi) == Some(&true) {
                let mut dims = buf.dims.clone();
                for &(extent, inputs) in parts {
                    dims[0] = extent;
                    ext.extend(inputs, bi, buf, &dims, &self.arena.leaf_clones)?;
                }
            } else {
                ext.extend(first, bi, buf, &buf.dims, &self.arena.leaf_clones)?;
            }
            externs.push(Some(ext));
        }

        // The job closure lives for the whole run; per-step state flows
        // through `shared` behind cheap locks that are only ever contended
        // in the direction step-publish -> drain. The pool may degrade to
        // fewer participants than requested, so size everything by its
        // effective count.
        let pool = self.acquire_pool();
        let threads = pool.threads();
        // A one-shot armed fault (chaos scenarios) trumps the per-run
        // plan; taking it here consumes it for every clone.
        let fault = match self.armed.lock().take() {
            Some(p) => Some(Arc::new(p)),
            None => self.fault.clone(),
        };

        exec_obs().workers.set(threads as i64);
        let mut root = ft_obs::span("exec", "execute");
        if root.is_recording() {
            root.field("program", etdg.name.as_str());
            root.field("groups", compiled.groups.len());
            root.field("threads", threads);
            root.field("arena_len", memory.arena_len);
            if let Some(b) = batch {
                root.field("batch", b);
            }
        }

        let shared = Arc::new(ExecShared {
            arena: RwLock::new(self.arena.acquire(memory.arena_len, memory.slots_len)),
            externs,
            step: RwLock::new(StepCtx::default()),
            cursor: AtomicUsize::new(0),
            workers: (0..threads)
                .map(|_| Mutex::new(Worker::default()))
                .collect(),
            borrows: AtomicU64::new(0),
            batch,
            guard: self.guard,
            fault,
            pool: Arc::clone(&pool),
        });
        let job: ft_pool::Job = {
            let shared = Arc::clone(&shared);
            Arc::new(move |worker| worker_body(&shared, worker))
        };

        let result = (|| {
            for (gi, group) in compiled.groups.iter().enumerate() {
                run_group(compiled, group, gi, &pool, &shared, &job, self.timeout)?;
            }
            // The workers' staging is dead once the last writes are applied:
            // free it so it never adds to the output copies below.
            for w in &shared.workers {
                *w.lock() = Worker::default();
            }
            let arena = shared.arena.read();
            let mut outputs: Vec<HashMap<BufferId, FractalTensor>> =
                parts.iter().map(|_| HashMap::new()).collect();
            for (bi, buf) in etdg.buffers.iter().enumerate() {
                if buf.kind != BufferKind::Output {
                    continue;
                }
                let layout = &memory.buffers[bi];
                let Placement::Arena { offset, slot_off } = layout.placement else {
                    return Err(ExecError::Runtime(format!(
                        "output buffer '{}' has no arena placement",
                        buf.name
                    )));
                };
                if let Some(i) = (0..layout.leaves).find(|&i| !arena.written[slot_off + i]) {
                    return Err(ExecError::Runtime(format!(
                        "interpreter error: read of unwritten element (leaf {i} of output '{}')",
                        buf.name
                    )));
                }
                // One copy out of the arena per part; every leaf of a result
                // is a view into its copy.
                let data = &arena.data[offset..offset + layout.len];
                let mut dims = layout.dims.clone();
                dims.extend_from_slice(&layout.leaf_dims);
                let id = BufferId(bi);
                if batched.get(bi) == Some(&true) {
                    // A part's rows are one contiguous slice of the output.
                    let row = layout.len / layout.dims[0];
                    let mut start = 0;
                    for (out, &(extent, _)) in outputs.iter_mut().zip(parts) {
                        dims[0] = extent;
                        let rows = &data[start * row..(start + extent) * row];
                        out.insert(id, output_tree(rows, &dims, layout.dims.len())?);
                        start += extent;
                    }
                } else {
                    // Every part but the last gets a clone; the last (a
                    // one-part run's only part) takes the tree itself.
                    let ft = output_tree(data, &dims, layout.dims.len())?;
                    let (rest, last) = outputs.split_at_mut(parts.len() - 1);
                    for out in rest.iter_mut() {
                        out.insert(id, ft.clone());
                    }
                    self.arena
                        .output_clones
                        .fetch_add(rest.len() as u64, Ordering::Relaxed);
                    last[0].insert(id, ft);
                }
            }
            Ok(outputs)
        })();

        let borrows = shared.borrows.load(Ordering::Relaxed);
        self.arena
            .leaf_borrows
            .fetch_add(borrows, Ordering::Relaxed);
        exec_obs().leaf_borrows.add(borrows);
        drop(job);
        // Reclaim the arena buffer for the pool on success *and* failure.
        let buf = match Arc::try_unwrap(shared) {
            Ok(sh) => sh.arena.into_inner(),
            Err(sh) => std::mem::take(&mut *sh.arena.write()),
        };
        self.arena.release(buf);
        result
    }
}

/// A launch's per-part outputs, plus the degradation report when fallback
/// repaired it.
type Launched = (Vec<HashMap<BufferId, FractalTensor>>, Option<Degradation>);

/// A launch handed back fewer output maps than it had parts.
fn no_outputs() -> ExecError {
    ExecError::Runtime("a launch returned no output map for a part".into())
}

/// A copy of `data` as a FractalTensor of `prog_depth` programmable
/// dimensions: `dims` are those followed by the leaf dimensions.
fn output_tree(
    data: &[f32],
    dims: &[usize],
    prog_depth: usize,
) -> Result<FractalTensor, ExecError> {
    let flat =
        Tensor::from_vec(data.to_vec(), dims).map_err(|e| ExecError::Runtime(e.to_string()))?;
    FractalTensor::from_flat(&flat, prog_depth).map_err(core_err)
}

/// One extern input's leaves in flat (row-major) leaf order, each a
/// contiguous window of one of the caller's buffers.
#[derive(Default)]
struct ExternBuf {
    /// The distinct backing buffers, in first-use order.
    chunks: Vec<Arc<Vec<f32>>>,
    /// Per leaf: its buffer in `chunks` and the element it starts at.
    leaves: Vec<(usize, usize)>,
}

impl ExternBuf {
    /// Appends the leaves of input `bi` of `inputs`, validating its
    /// programmable dims against `dims` and every leaf's shape against the
    /// declaration (the interpreter rejects mismatches up front; so must
    /// we, since the flat kernels would otherwise read out of step). Each
    /// leaf that has to be copied is counted in `clones`.
    fn extend(
        &mut self,
        inputs: &HashMap<BufferId, FractalTensor>,
        bi: usize,
        buf: &ft_etdg::BufferNode,
        dims: &[usize],
        clones: &AtomicU64,
    ) -> Result<(), ExecError> {
        let ft = inputs
            .get(&BufferId(bi))
            .ok_or_else(|| ExecError::Input(format!("missing input '{}'", buf.name)))?;
        if ft.prog_dims() != dims {
            return Err(ExecError::Input(format!(
                "input '{}' dims {:?} != declared {:?}",
                buf.name,
                ft.prog_dims(),
                dims
            )));
        }
        let leaf_dims = buf.leaf_shape.dims();
        let nleaves: usize = dims.iter().product();
        self.leaves.reserve(nleaves);
        let mut idx = vec![0usize; dims.len()];
        for _ in 0..nleaves {
            let leaf = ft
                .leaf_at(&idx)
                .map_err(|e| ExecError::Input(e.to_string()))?;
            if leaf.dims() != leaf_dims {
                return Err(ExecError::Input(format!(
                    "input '{}' leaf shape mismatch",
                    buf.name
                )));
            }
            // Neighbouring leaves usually view one buffer (`from_flat`),
            // which is what lets a run of them be addressed by a stride. A
            // strided view is copied.
            if !leaf.is_contiguous() {
                clones.fetch_add(1, Ordering::Relaxed);
            }
            let (data, off) = leaf.shared_contiguous();
            if !self.chunks.last().is_some_and(|c| Arc::ptr_eq(c, &data)) {
                self.chunks.push(data);
            }
            self.leaves.push((self.chunks.len() - 1, off));
            for k in (0..dims.len()).rev() {
                idx[k] += 1;
                if idx[k] < dims[k] {
                    break;
                }
                idx[k] = 0;
            }
        }
        Ok(())
    }
}

/// Per-step inputs published to the pool.
#[derive(Default)]
struct StepCtx {
    plan: Option<Arc<GroupPlan>>,
    /// The step's runs: `plan.dims` coordinates each, the transformed
    /// point a run starts at.
    runs: Vec<i64>,
    /// Points of the step up to and including each run: run `r` holds
    /// points `run_ends[r - 1]..run_ends[r]`.
    run_ends: Vec<usize>,
    /// The enumeration's odometer, kept for its allocation.
    cursor: Vec<i64>,
    npoints: usize,
    /// Points per cursor chunk.
    chunk: usize,
    /// Launch group index (error attribution).
    group: usize,
    /// Wavefront step (error attribution, fault matching).
    step: i64,
}

/// State shared between the publishing thread and the pool participants.
struct ExecShared {
    /// The run's backing store. Workers hold the read lock during a step's
    /// compute phase; the publishing thread takes the write lock for the
    /// serial apply between steps (workers are parked then).
    arena: RwLock<ArenaBuf>,
    /// Extern input leaf handles, indexed by buffer (None = not an input).
    externs: Vec<Option<ExternBuf>>,
    step: RwLock<StepCtx>,
    cursor: AtomicUsize,
    /// Per-participant step output and scratch, allocated once per run.
    workers: Vec<Mutex<Worker>>,
    /// Leaf reads served this run (flushed into the pool stats at the end).
    borrows: AtomicU64,
    /// Serving batch id this launch runs under ([`Executor::run_parts`]).
    batch: Option<u64>,
    /// Guard mode: bounds-check accesses, NaN/Inf-scan outputs.
    guard: bool,
    /// Armed fault plan (test/bench only).
    fault: Option<Arc<FaultPlan>>,
    /// The pool this run executes on: workers heartbeat through it once
    /// per drained chunk so the stall watchdog can see progress.
    pool: Arc<WorkerPool>,
}

/// What a run segment reads but does not own.
struct SegEnv<'a> {
    plan: &'a GroupPlan,
    /// The arena's elements and its written bitmap.
    data: &'a [f32],
    written: &'a [bool],
    externs: &'a [Option<ExternBuf>],
    group: usize,
    step: i64,
    guard: bool,
    fault: Option<&'a FaultPlan>,
}

/// The pending writes of one member output over one run: `count` leaves of
/// `len` elements, packed from `data` in the worker's staged data, bound
/// for leaves `flat0, flat0 + stride, …` of the buffer based at `offset`
/// (elements) / `slot_off` (written bitmap). Until the step's writes are
/// applied the record is also the forwarding window of write slot `slot`
/// over positions `lo..lo + count` of its segment: later members' reads of
/// the same leaves are served from the staged data.
struct WriteRec {
    slot: usize,
    lo: usize,
    buffer: usize,
    data: usize,
    offset: usize,
    slot_off: usize,
    flat0: i64,
    stride: i64,
    count: usize,
    len: usize,
}

/// One participant's output for a wavefront step.
#[derive(Default)]
struct WorkerOut {
    /// Flat arena of staged write values, windows in `writes` order. Later
    /// members of a segment read forwarded values straight out of it.
    writes_data: Vec<f32>,
    writes: Vec<WriteRec>,
    /// Buffer reads issued (for traffic accounting).
    reads: u64,
    /// Points processed.
    points: usize,
    err: Option<ExecError>,
    /// `(start_us, dur_us)` of the worker body.
    stat: Option<(f64, f64)>,
}

impl WorkerOut {
    fn clear(&mut self) {
        self.writes_data.clear();
        self.writes.clear();
        self.reads = 0;
        self.points = 0;
        self.err = None;
        self.stat = None;
    }
}

/// Where one UDF input comes from over the current run, resolved to plain
/// offsets so no borrows are held across the resolve loop.
#[derive(Clone, Copy)]
enum RunSrc {
    /// A plan-time fill constant of the member, shared by the whole run.
    Fill(usize),
    /// Leaves `flat, flat + stride, …` of the arena buffer based at
    /// `offset` / `slot_off`.
    Arena {
        offset: usize,
        slot_off: usize,
        flat: i64,
        stride: i64,
        leaf: usize,
    },
    /// Leaves of extern `buffer`, `stride` elements apart from `start` in
    /// its backing buffer `chunk`.
    Extern {
        buffer: usize,
        chunk: usize,
        start: usize,
        stride: isize,
        leaf: usize,
    },
    /// Forwarded from an earlier member of this segment: packed leaves
    /// from `start` in the worker's staged write data.
    Staged { start: usize, leaf: usize },
}

/// Reusable per-worker scratch.
#[derive(Default)]
struct Scratch {
    /// The transformed point the current segment starts at.
    j: Vec<i64>,
    /// UDF statement scratch: the plan's windows, each scaled by the
    /// current run length.
    tmps: Vec<f32>,
    /// Resolved sources for the current member's reads.
    reads: Vec<RunSrc>,
}

/// One participant's state for a run: allocated once, cleared per step.
#[derive(Default)]
struct Worker {
    out: WorkerOut,
    scratch: Scratch,
}

/// Elements of staging (UDF scratch plus staged outputs) one run segment
/// may occupy: 64 KiB, so a segment's working set stays cache-resident and
/// a worker's scratch stays O(one leaf) for programs with large leaves.
const SEGMENT_ELEMS: usize = 16 * 1024;

#[allow(clippy::too_many_arguments)]
fn run_group(
    compiled: &CompiledProgram,
    group: &ft_passes::ScheduledGroup,
    group_idx: usize,
    pool: &WorkerPool,
    shared: &ExecShared,
    job: &ft_pool::Job,
    timeout: Option<std::time::Duration>,
) -> Result<(), ExecError> {
    let r = &group.reordering;
    let threads = pool.threads();
    let (lo, hi) = r.wavefront_range();
    let corrupt = match shared.fault.as_deref().and_then(|f| f.corrupt_read) {
        Some((g, member, read, delta)) if g == group_idx => Some((member, read, delta)),
        _ => None,
    };
    let plan = Arc::new(GroupPlan::build(compiled, group, corrupt)?);
    exec_obs().launch_groups.inc();
    let mut gspan = ft_obs::span("exec", "launch_group");
    if gspan.is_recording() {
        gspan.field("group", group_idx);
        gspan.field("name", compiled.etdg.block(group.members[0]).name.as_str());
        gspan.field("members", group.members.len());
        gspan.field("wavefront_steps", hi - lo);
        gspan.field("threads", threads);
        if let Some(b) = shared.batch {
            gspan.field("batch", b);
        }
    }
    shared.step.write().plan = Some(Arc::clone(&plan));
    let mut worker_stats: Vec<(usize, f64, f64, usize)> = Vec::with_capacity(threads);
    for step in lo..hi {
        // Publish the step: refill the run table (no job is in flight, so
        // the write lock is uncontended).
        let (npoints, nchunks) = {
            let mut ctx = shared.step.write();
            let ctx = &mut *ctx;
            let npoints = runs_into(r, step, &mut ctx.cursor, &mut ctx.runs, &mut ctx.run_ends);
            ctx.npoints = npoints;
            // One participant needs no load balancing, so its runs stay
            // whole.
            let parts = if threads == 1 {
                1
            } else {
                threads * CHUNKS_PER_WORKER
            };
            ctx.chunk = npoints.div_ceil(parts).max(1);
            ctx.group = group_idx;
            ctx.step = step;
            (npoints, npoints.div_ceil(ctx.chunk))
        };
        if npoints == 0 {
            continue;
        }
        let mut sspan = ft_obs::span("exec", "wavefront_step");
        shared.cursor.store(0, Ordering::SeqCst);
        // Compute in parallel (reads only touch earlier steps or values
        // staged within the same segment), then apply the writes serially.
        // A panicking participant surfaces as a typed error rather than an
        // abort: the pool preserves the payload, and the inline path is
        // wrapped the same way.
        // Single-chunk steps skip the pool wake-up and run inline — but
        // only on caller-participates pools: a supervised pool keeps the
        // publishing thread out of job code so the watchdog can abandon a
        // wedged step.
        let inline = (threads == 1 || nchunks == 1) && !pool.is_supervised();
        let failed = if inline {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_body(shared, 0)))
                .err()
                .map(ft_pool::RunError::Panic)
        } else {
            pool.try_run_for(Arc::clone(job), timeout).err()
        };
        if let Some(err) = failed {
            return Err(match err {
                ft_pool::RunError::Panic(payload) => {
                    exec_obs().worker_panics.inc();
                    ExecError::WorkerPanic {
                        group: group_idx,
                        step,
                        message: ft_pool::panic_message(&payload),
                    }
                }
                ft_pool::RunError::Stalled { elapsed_ms } => {
                    exec_obs().stalls.inc();
                    ExecError::Stalled {
                        group: group_idx,
                        step,
                        elapsed_ms,
                    }
                }
                ft_pool::RunError::Poisoned => ExecError::Runtime(
                    "worker pool poisoned by an earlier stalled launch; replace the pool"
                        .to_string(),
                ),
            });
        }
        let mut reads_total = 0u64;
        let mut writes_applied = 0u64;
        worker_stats.clear();
        {
            let mut arena = shared.arena.write();
            let arena = &mut *arena;
            for (w, worker) in shared.workers.iter().enumerate() {
                let mut worker = worker.lock();
                let out = &mut worker.out;
                if let Some(e) = out.err.take() {
                    return Err(e);
                }
                reads_total += out.reads;
                if let Some((ts, dur)) = out.stat {
                    worker_stats.push((w, ts, dur, out.points));
                }
                for rec in &out.writes {
                    for i in 0..rec.count {
                        let flat = (rec.flat0 + i as i64 * rec.stride) as usize;
                        let bit = rec.slot_off + flat;
                        if arena.written[bit] {
                            return Err(ExecError::Runtime(format!(
                                "interpreter error: single-assignment violation in buffer '{}'",
                                plan.buffer_names[rec.buffer]
                            )));
                        }
                        arena.written[bit] = true;
                        let (src, dst) = (rec.data + i * rec.len, rec.offset + flat * rec.len);
                        arena.data[dst..dst + rec.len]
                            .copy_from_slice(&out.writes_data[src..src + rec.len]);
                    }
                    writes_applied += rec.count as u64;
                }
                // A participant that sits the next step out must not have
                // this one's writes applied twice.
                out.clear();
            }
        }
        shared.borrows.fetch_add(reads_total, Ordering::Relaxed);
        // Busy = time inside the worker body; idle = the tail each worker
        // spends waiting for the slowest one in this step's compute
        // window. The serial write-apply phase is charged to the step
        // span itself, not to worker idle time. Worker timings are always
        // captured (two clock reads per worker per *step*, far off the
        // per-point path), so busy/idle feeds the always-on registry even
        // with tracing disabled.
        let workers = worker_stats.len().max(1);
        let busy: f64 = worker_stats.iter().map(|s| s.2).sum();
        let window_start = worker_stats
            .iter()
            .map(|s| s.1)
            .fold(f64::INFINITY, f64::min);
        let window_end = worker_stats.iter().map(|s| s.1 + s.2).fold(0.0, f64::max);
        let idle = (workers as f64 * (window_end - window_start) - busy).max(0.0);
        let obs = exec_obs();
        obs.wavefront_steps.inc();
        obs.points.add(npoints as u64);
        // Summed in integer nanoseconds: a tiny step's busy time is a
        // fraction of a microsecond, which a µs counter would truncate.
        obs.worker_busy_ns.add((busy * 1e3).round() as u64);
        obs.worker_idle_ns.add((idle * 1e3).round() as u64);
        if sspan.is_recording() {
            sspan.field("group", group_idx);
            sspan.field("step", step);
            sspan.field("points", npoints);
            sspan.field("workers", workers);
            sspan.field("busy_us", busy);
            sspan.field("idle_us", idle);
            sspan.field("reads", reads_total);
            sspan.field("writes", writes_applied);
            if let Some(b) = shared.batch {
                sspan.field("batch", b);
            }
            for &(w, ts, dur, points) in &worker_stats {
                let tid = WORKER_TID_BASE + w as u64;
                ft_obs::set_thread_label(ft_obs::WALL_PID, tid, format!("worker-{w}"));
                let mut fields = vec![
                    ("group".to_string(), group_idx.into()),
                    ("step".to_string(), step.into()),
                    ("points".to_string(), points.into()),
                ];
                if let Some(b) = shared.batch {
                    fields.push(("batch".to_string(), b.into()));
                }
                ft_obs::complete_event("exec", "worker", ft_obs::WALL_PID, tid, ts, dur, fields);
            }
        }
    }
    Ok(())
}

/// One participant's share of a wavefront step: drain chunks off the
/// shared cursor until the step's points are exhausted.
fn worker_body(shared: &ExecShared, worker: usize) {
    let ctx = shared.step.read();
    let Some(plan) = ctx.plan.as_deref() else {
        return;
    };
    let arena = shared.arena.read();
    let cx = SegEnv {
        plan,
        data: &arena.data,
        written: &arena.written,
        externs: &shared.externs,
        group: ctx.group,
        step: ctx.step,
        guard: shared.guard,
        fault: shared.fault.as_deref(),
    };
    // Always timed (not gated on span recording): busy/idle attribution feeds
    // the always-on metrics registry, two clock reads per step per worker.
    let t0 = ft_obs::now_us();
    let mut state = shared.workers[worker].lock();
    let Worker { out, scratch } = &mut *state;
    loop {
        let c = shared.cursor.fetch_add(1, Ordering::SeqCst);
        let start = c.saturating_mul(ctx.chunk);
        if start >= ctx.npoints {
            break;
        }
        // One heartbeat per claimed chunk: the stall watchdog
        // distinguishes slow-but-advancing steps from wedged ones by
        // exactly this signal.
        shared.pool.beat(worker);
        // Injected worker panic: whichever participant claims the first
        // chunk of the targeted step dies mid-drain, exactly like a UDF
        // or allocator blowing up on real work.
        if c == 0 {
            if let Some(fault) = cx.fault {
                if fault.panic_at == Some((cx.group, cx.step)) {
                    panic!(
                        "injected fault: worker panic at group {} step {}",
                        cx.group, cx.step
                    );
                }
                // Injected wedge: sleep without heartbeating, as if the
                // UDF spun forever (bounded so tests don't leak threads).
                if let Some((g, s, ms)) = fault.stall_at {
                    if (g, s) == (cx.group, cx.step) {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
            }
        }
        let end = (start + ctx.chunk).min(ctx.npoints);
        if let Err(e) = run_chunk(&cx, &ctx, start, end, scratch, out) {
            out.err = Some(e);
            break;
        }
    }
    out.stat = Some((t0, ft_obs::now_us() - t0));
}

/// Walks points `start..end` of the step as run segments: each run the
/// chunk overlaps contributes its overlap, cut to the staging budget.
fn run_chunk(
    cx: &SegEnv<'_>,
    ctx: &StepCtx,
    start: usize,
    end: usize,
    s: &mut Scratch,
    out: &mut WorkerOut,
) -> Result<(), ExecError> {
    let d = cx.plan.dims;
    let cap = (SEGMENT_ELEMS / cx.plan.point_elems.max(1)).max(1);
    let mut r = ctx.run_ends.partition_point(|&e| e <= start);
    let mut p = start;
    while p < end {
        let run_lo = if r == 0 { 0 } else { ctx.run_ends[r - 1] };
        let len = (end.min(ctx.run_ends[r]) - p).min(cap);
        s.j.clear();
        s.j.extend_from_slice(&ctx.runs[r * d..(r + 1) * d]);
        if let Some(inner) = s.j.last_mut() {
            *inner += (p - run_lo) as i64;
        }
        out.points += len;
        // Writes from here on belong to this segment: its forwarding
        // windows.
        let seg = out.writes.len();
        for member in &cx.plan.members {
            let (mut cur, hi) = member.interval(&s.j, len);
            while cur < hi {
                cur = eval_member_run(cx, member, seg, cur, hi, s, out)?;
            }
        }
        p += len;
        if p == ctx.run_ends[r] {
            r += 1;
        }
    }
    Ok(())
}

/// Resolves a UDF argument source to the run of `n` leaves it names.
/// `tmps` is the readable prefix of the statement scratch (all earlier
/// windows) during statement evaluation, or the whole scratch when staging
/// outputs; `staged` is the worker's staged write data.
fn arg_run<'a>(
    src: &ArgSrc,
    n: usize,
    reads: &[RunSrc],
    tmps: &'a [f32],
    fills: &'a [Vec<f32>],
    cx: &SegEnv<'a>,
    staged: &'a [f32],
) -> Run<'a> {
    match *src {
        ArgSrc::Tmp { off, len } => Run::new(tmps, off * n, len as isize, len, n),
        ArgSrc::In(k) => match reads[k] {
            RunSrc::Fill(f) => Run::new(&fills[f], 0, 0, fills[f].len(), n),
            RunSrc::Arena {
                offset,
                flat,
                stride,
                leaf,
                ..
            } => Run::new(
                cx.data,
                offset + leaf * flat as usize,
                leaf as isize * stride as isize,
                leaf,
                n,
            ),
            RunSrc::Extern {
                buffer,
                chunk,
                start,
                stride,
                leaf,
            } => match &cx.externs[buffer] {
                Some(e) => Run::new(&e.chunks[chunk], start, stride, leaf, n),
                // Unreachable: resolve_read verified presence.
                None => Run::new(&[], 0, 0, 0, n),
            },
            RunSrc::Staged { start, leaf } => Run::new(staged, start, leaf as isize, leaf, n),
        },
    }
}

/// Gathers a statement's epilogue operands into `buf` and returns the
/// populated prefix. Plans never exceed the cap (the fusion pass enforces
/// it); a malformed plan panics on the slice bound like every other
/// executor-side shape violation.
fn gather_extras<'b, T>(
    args: &[ArgSrc],
    buf: &'b mut [T; MAX_EPI_OPERANDS],
    get: &impl Fn(&ArgSrc) -> T,
) -> &'b [T] {
    for (slot, a) in buf[..args.len()].iter_mut().zip(args) {
        *slot = get(a);
    }
    &buf[..args.len()]
}

/// One UDF statement over a run of `n` points: `get` names each argument's
/// `n` leaves, `out` is the statement's window of `n` packed result leaves.
///
/// A non-transposed leaf GEMM whose `b` operand is shared by the run
/// (stride 0 — the reuse dimension at work) is one rows-batched kernel
/// call. Statements that treat rows independently run once over the whole
/// window when their operands are packed; everything else loops over the
/// leaves. All three produce the bits a per-leaf evaluation would.
fn eval_stmt_run<'a>(st: &StmtPlan, n: usize, get: impl Fn(&ArgSrc) -> Run<'a>, out: &mut [f32]) {
    let d0 = &st.arg_dims[0];
    let gemm = match &st.op {
        OpCode::MatMul => Some(&[][..]),
        OpCode::FusedMatMul { transb: false, epi } => Some(&epi[..]),
        _ => None,
    };
    if let Some(epi) = gemm {
        let b = get(&st.args[1]);
        if b.is_shared() {
            let (m, k, cols) = (d0[0], d0[1], st.arg_dims[1][1]);
            let mut buf = [Run::single(&[]); MAX_EPI_OPERANDS];
            let extras = gather_extras(&st.args[2..], &mut buf, &get);
            let a = get(&st.args[0]);
            slices::matmul_epi_rows(a, b.leaf(0), m, k, cols, out, epi, extras);
            return;
        }
    }
    let rowwise = matches!(
        st.op,
        OpCode::Add
            | OpCode::Sub
            | OpCode::Mul
            | OpCode::Div
            | OpCode::Max
            | OpCode::AddColBc
            | OpCode::SubColBc
            | OpCode::MulColBc
            | OpCode::DivColBc
            | OpCode::Scale(_)
            | OpCode::AddScalar(_)
            | OpCode::Tanh
            | OpCode::Sigmoid
            | OpCode::Exp
            | OpCode::Neg
            | OpCode::Relu
            | OpCode::RowMax
            | OpCode::RowSum
            | OpCode::Softmax
            | OpCode::Id
            | OpCode::Silu
            | OpCode::EwChain(_)
    );
    if rowwise && st.args.iter().all(|a| get(a).dense().is_some()) {
        eval_stmt(st, |a| get(a).dense().unwrap_or(&[]), out, n);
    } else {
        for (i, leaf) in out.chunks_exact_mut(st.out_len.max(1)).take(n).enumerate() {
            eval_stmt(st, |a| get(a).leaf(i), leaf, 1);
        }
    }
}

/// One UDF statement over borrowed slices, dispatching to the bitwise
/// `ft_tensor::slices` kernels. Shapes were validated at plan time. `reps`
/// stacks that many leaves along the rows of a row-independent statement
/// (its slices then hold `reps` packed leaves); other statements take 1.
fn eval_stmt<'a>(st: &StmtPlan, get: impl Fn(&ArgSrc) -> &'a [f32], out: &mut [f32], reps: usize) {
    let d0 = &st.arg_dims[0];
    let rows = d0.first().copied().unwrap_or(1) * reps;
    match &st.op {
        OpCode::MatMul => {
            let (m, k) = (d0[0], d0[1]);
            let n = st.arg_dims[1][1];
            slices::matmul(get(&st.args[0]), get(&st.args[1]), m, k, n, out);
        }
        OpCode::MatMulT => {
            let (m, k) = (d0[0], d0[1]);
            let n = st.arg_dims[1][0];
            slices::matmul_transb(get(&st.args[0]), get(&st.args[1]), m, k, n, out);
        }
        OpCode::Add => slices::add_into(get(&st.args[0]), get(&st.args[1]), out),
        OpCode::Sub => slices::sub_into(get(&st.args[0]), get(&st.args[1]), out),
        OpCode::Mul => slices::mul_into(get(&st.args[0]), get(&st.args[1]), out),
        OpCode::Div => slices::div_into(get(&st.args[0]), get(&st.args[1]), out),
        OpCode::Max => slices::max_into(get(&st.args[0]), get(&st.args[1]), out),
        OpCode::AddColBc => slices::col_broadcast(
            get(&st.args[0]),
            get(&st.args[1]),
            rows,
            d0[1],
            out,
            |x, y| x + y,
        ),
        OpCode::SubColBc => slices::col_broadcast(
            get(&st.args[0]),
            get(&st.args[1]),
            rows,
            d0[1],
            out,
            |x, y| x - y,
        ),
        OpCode::MulColBc => slices::col_broadcast(
            get(&st.args[0]),
            get(&st.args[1]),
            rows,
            d0[1],
            out,
            |x, y| x * y,
        ),
        OpCode::DivColBc => slices::col_broadcast(
            get(&st.args[0]),
            get(&st.args[1]),
            rows,
            d0[1],
            out,
            |x, y| x / y,
        ),
        OpCode::Scale(c) => slices::scale_into(get(&st.args[0]), *c, out),
        OpCode::AddScalar(c) => slices::add_scalar_into(get(&st.args[0]), *c, out),
        OpCode::Tanh => slices::tanh_into(get(&st.args[0]), out),
        OpCode::Sigmoid => slices::sigmoid_into(get(&st.args[0]), out),
        OpCode::Exp => slices::exp_into(get(&st.args[0]), out),
        OpCode::Neg => slices::neg_into(get(&st.args[0]), out),
        OpCode::Relu => slices::relu_into(get(&st.args[0]), out),
        OpCode::RowMax => slices::row_reduce(
            get(&st.args[0]),
            rows,
            d0[1],
            f32::NEG_INFINITY,
            out,
            f32::max,
        ),
        OpCode::RowSum => {
            slices::row_reduce(get(&st.args[0]), rows, d0[1], 0.0, out, |acc, v| acc + v)
        }
        OpCode::Softmax => slices::softmax_rows(get(&st.args[0]), rows, d0[1], out),
        OpCode::Concat(axis) => {
            let outer: usize = d0[..*axis].iter().product();
            let inner: usize = d0[*axis + 1..].iter().product();
            let total: usize = st.arg_dims.iter().map(|d| d[*axis] * inner).sum();
            let mut base = 0usize;
            for (src, d) in st.args.iter().zip(&st.arg_dims) {
                let a = get(src);
                let width = d[*axis] * inner;
                for o in 0..outer {
                    out[o * total + base..o * total + base + width]
                        .copy_from_slice(&a[o * width..(o + 1) * width]);
                }
                base += width;
            }
        }
        OpCode::Slice { axis, start, end } => {
            slices::slice_axis(get(&st.args[0]), d0, *axis, *start, *end, out)
        }
        OpCode::Transpose => slices::transpose(get(&st.args[0]), d0[0], d0[1], out),
        OpCode::Id => out.copy_from_slice(get(&st.args[0])),
        OpCode::Silu => slices::silu_into(get(&st.args[0]), out),
        OpCode::FusedMatMul { transb, epi } => {
            let (m, k) = (d0[0], d0[1]);
            let n = if *transb {
                st.arg_dims[1][0]
            } else {
                st.arg_dims[1][1]
            };
            let mut buf: [&[f32]; MAX_EPI_OPERANDS] = [&[]; MAX_EPI_OPERANDS];
            let extras = gather_extras(&st.args[2..], &mut buf, &get);
            let (a, b) = (get(&st.args[0]), get(&st.args[1]));
            if *transb {
                slices::matmul_transb_epi(a, b, m, k, n, out, epi, extras);
            } else {
                slices::matmul_epi(a, b, m, k, n, out, epi, extras);
            }
        }
        OpCode::EwChain(ops) => {
            let mut buf: [&[f32]; MAX_EPI_OPERANDS] = [&[]; MAX_EPI_OPERANDS];
            let extras = gather_extras(&st.args[1..], &mut buf, &get);
            slices::ew_chain(get(&st.args[0]), out, ops, extras);
        }
    }
}

/// Resolves one (range-checked) buffer read over positions `cur..*end` of
/// the segment: finds its source at `cur` and pulls `*end` in to where
/// that source stops being one affine run — the next forwarding window,
/// the end of the current one, or a break in the caller's extern storage.
fn resolve_read(
    cx: &SegEnv<'_>,
    access: &Access,
    candidates: &[usize],
    wins: &[WriteRec],
    j: &[i64],
    cur: usize,
    end: &mut usize,
) -> Result<RunSrc, ExecError> {
    let leaf = access.leaf_len;
    let stride = access.run_stride();
    let flat = access.flat_at(j) + cur as i64 * stride;
    // Forwarding: the latest earlier write of this very leaf within the
    // segment wins over the arena.
    for &slot in candidates {
        for w in wins
            .iter()
            .filter(|w| w.slot == slot && w.lo + w.count > cur)
        {
            if w.lo > cur {
                *end = (*end).min(w.lo);
                continue;
            }
            let hit = w.flat0 + (cur - w.lo) as i64 * w.stride == flat;
            if w.stride != stride {
                // The two maps cross at most once: settle this position
                // on its own.
                *end = cur + 1;
            } else if hit {
                *end = (*end).min(w.lo + w.count);
            }
            if hit {
                return Ok(RunSrc::Staged {
                    start: w.data + (cur - w.lo) * leaf,
                    leaf,
                });
            }
        }
    }
    match access.place {
        Place::Arena { offset, slot_off } => Ok(RunSrc::Arena {
            offset,
            slot_off,
            flat,
            stride,
            leaf,
        }),
        Place::Extern => {
            let Some(e) = cx.externs[access.buffer].as_ref() else {
                return Err(ExecError::Runtime(format!(
                    "extern buffer '{}' missing at t={:?}",
                    cx.plan.buffer_names[access.buffer],
                    original_point(cx.plan, j, cur),
                )));
            };
            let at = |i: usize| e.leaves[(flat + i as i64 * stride) as usize];
            let (chunk, start) = at(0);
            let mut step = 0isize;
            if stride != 0 && *end - cur > 1 {
                // The run holds for as long as the caller's leaves sit in
                // one buffer, equally spaced.
                step = at(1).1 as isize - start as isize;
                let n = (1..*end - cur)
                    .find(|&i| at(i) != (chunk, (start as isize + i as isize * step) as usize))
                    .unwrap_or(*end - cur);
                *end = cur + n;
            }
            Ok(RunSrc::Extern {
                buffer: access.buffer,
                chunk,
                start,
                stride: step,
                leaf,
            })
        }
    }
}

/// Evaluates `member` over the longest prefix of positions `cur..hi` of
/// the current segment on which each of its reads is one affine run,
/// returning where it stopped. `out.writes[seg..]` are the segment's
/// writes so far.
fn eval_member_run(
    cx: &SegEnv<'_>,
    member: &MemberPlan,
    seg: usize,
    cur: usize,
    hi: usize,
    s: &mut Scratch,
    out: &mut WorkerOut,
) -> Result<usize, ExecError> {
    let mut end = hi;
    s.reads.clear();
    for read in &member.reads {
        let src = match read {
            ReadPlan::Fill { fill } => RunSrc::Fill(*fill),
            ReadPlan::Buffer { access, candidates } => {
                check_range(cx, member, access, &s.j, cur, end, AccessDir::Read)?;
                let wins = &out.writes[seg..];
                resolve_read(cx, access, candidates, wins, &s.j, cur, &mut end)?
            }
        };
        s.reads.push(src);
    }
    let n = end - cur;
    // With the run's extent settled, an arena read must find every one of
    // its leaves written by an earlier step.
    for (read, src) in member.reads.iter().zip(&s.reads) {
        if let ReadPlan::Buffer { access, .. } = read {
            out.reads += n as u64;
            if let RunSrc::Arena {
                slot_off,
                flat,
                stride,
                ..
            } = *src
            {
                let unwritten =
                    (0..n).find(|&i| !cx.written[slot_off + (flat + i as i64 * stride) as usize]);
                if let Some(i) = unwritten {
                    let idx = index_vec(access, &s.j, cur + i);
                    return Err(ExecError::Runtime(format!(
                        "block '{}' at t={:?}: interpreter error: \
                         read of unwritten element {idx:?}",
                        member.name,
                        original_point(cx.plan, &s.j, cur + i),
                    )));
                }
            }
        }
    }

    // Evaluate the UDF statements into the scratch windows, each the
    // plan's window scaled by the run length. Earlier windows are readable
    // through the split's prefix; the current statement's window is the
    // only mutable borrow.
    let need = member.udf.tmps_len * n;
    if s.tmps.len() < need {
        s.tmps.resize(need, 0.0);
    }
    for st in &member.udf.stmts {
        let (lo, hi) = s.tmps.split_at_mut(st.out_off * n);
        let lo: &[f32] = lo;
        let reads = &s.reads;
        let staged: &[f32] = &out.writes_data;
        eval_stmt_run(
            st,
            n,
            |src| arg_run(src, n, reads, lo, &member.fills, cx, staged),
            &mut hi[..st.out_len * n],
        );
    }

    // Stage every UDF output into the worker's flat write buffer, each as
    // `n` packed leaves (the staged windows double as the forwarding
    // store, the NaN-scan and the poison targets).
    let base = out.writes_data.len();
    for (src, len) in &member.udf.outputs {
        if let ArgSrc::In(k) = src {
            if let RunSrc::Staged { start, leaf } = s.reads[*k] {
                out.writes_data.extend_from_within(start..start + n * leaf);
                continue;
            }
        }
        let run = arg_run(src, n, &s.reads, &s.tmps, &member.fills, cx, &[]);
        match run.dense() {
            Some(all) => out.writes_data.extend_from_slice(&all[..n * len]),
            None => (0..n).for_each(|i| out.writes_data.extend_from_slice(&run.leaf(i)[..*len])),
        }
    }
    if let Some(fault) = cx.fault {
        if fault.poison_nan_at == Some((cx.group, cx.step)) {
            if let Some((_, len)) = member.udf.outputs.first() {
                out.writes_data[base..base + n * len].fill(f32::NAN);
            }
        }
    }
    if cx.guard {
        if let Some(mut bad) = out.writes_data[base..].iter().position(|x| !x.is_finite()) {
            let mut pos = cur;
            for (_, len) in &member.udf.outputs {
                if bad < n * len {
                    pos += bad / len;
                    break;
                }
                bad -= n * len;
            }
            return Err(ExecError::Guard {
                group: cx.group,
                step: cx.step,
                block: member.name.clone(),
                detail: format!(
                    "non-finite value in step output at point t={:?}",
                    original_point(cx.plan, &s.j, pos)
                ),
            });
        }
    }

    let mut data = base;
    for w in &member.writes {
        let access = &w.access;
        check_range(cx, member, access, &s.j, cur, end, AccessDir::Write)?;
        let Place::Arena { offset, slot_off } = access.place else {
            // Unreachable: GroupPlan::build rejects extern writes.
            return Err(ExecError::Runtime(format!(
                "block '{}' writes extern buffer '{}'",
                member.name, cx.plan.buffer_names[access.buffer]
            )));
        };
        let stride = access.run_stride();
        let flat = access.flat_at(&s.j) + cur as i64 * stride;
        out.writes.push(WriteRec {
            slot: w.slot,
            lo: cur,
            buffer: access.buffer,
            data,
            offset,
            slot_off,
            flat0: flat,
            stride,
            count: n,
            len: access.leaf_len,
        });
        data += n * access.leaf_len;
    }
    Ok(end)
}

/// Which way an access points (error-message selection only).
enum AccessDir {
    Read,
    Write,
}

/// The original-space point `t = T⁻¹·j` at position `pos` of the segment
/// starting at `j` (error messages only).
fn original_point(plan: &GroupPlan, j: &[i64], pos: usize) -> Vec<i64> {
    let mut at = j.to_vec();
    if let Some(inner) = at.last_mut() {
        *inner += pos as i64;
    }
    let mut t = vec![0i64; plan.dims];
    matvec_flat(&plan.t_inv, plan.dims, plan.dims, &at, &mut t);
    t
}

/// Component `r` of `access`'s data-space index at position `pos` of the
/// segment starting at `j`.
fn index_at(access: &Access, r: usize, j: &[i64], pos: usize) -> i64 {
    let d = j.len();
    let slope = if d == 0 { 0 } else { access.mat[r * d + d - 1] };
    access.index_at(r, j) + pos as i64 * slope
}

/// `access`'s whole data-space index at position `pos` (error messages).
fn index_vec(access: &Access, j: &[i64], pos: usize) -> Vec<i64> {
    (0..access.rows)
        .map(|r| index_at(access, r, j, pos))
        .collect()
}

/// The always-on range check, once per run: every index component is
/// affine in the run position, so it stays inside its extent over
/// `cur..end` exactly when it does at both ends. A failure is a typed
/// guard trip in guard mode and the interpreter-shaped runtime error
/// otherwise, naming the offending end point.
fn check_range(
    cx: &SegEnv<'_>,
    member: &MemberPlan,
    access: &Access,
    j: &[i64],
    cur: usize,
    end: usize,
    dir: AccessDir,
) -> Result<(), ExecError> {
    let inside = |pos: usize| {
        (0..access.rows).all(|r| (0..access.extents[r]).contains(&index_at(access, r, j, pos)))
    };
    let ends = [cur, end - 1];
    let ends = &ends[..if end - 1 == cur { 1 } else { 2 }];
    let Some(&pos) = ends.iter().find(|&&pos| !inside(pos)) else {
        return Ok(());
    };
    let idx = index_vec(access, j, pos);
    let t = original_point(cx.plan, j, pos);
    Err(if cx.guard {
        let what = match dir {
            AccessDir::Read => "read of",
            AccessDir::Write => "write to",
        };
        ExecError::Guard {
            group: cx.group,
            step: cx.step,
            block: member.name.clone(),
            detail: format!(
                "{what} buffer '{}' out of range at index {idx:?} (point t={t:?})",
                cx.plan.buffer_names[access.buffer]
            ),
        }
    } else {
        ExecError::Runtime(format!(
            "block '{}' at t={t:?}: interpreter error: index {idx:?} out of extents {:?}",
            member.name, access.extents
        ))
    })
}

/// Enumerates one wavefront step as **runs** — maximal segments of
/// consecutive points along the innermost transformed dimension — into
/// `runs` (the point each run starts at, `bounds.len()` coordinates each)
/// and `ends` (the running point count after each run), returning the
/// step's point count. `cursor` is the odometer, passed in so the executor
/// reuses its allocation across steps.
pub(crate) fn runs_into(
    r: &Reordering,
    step: i64,
    cursor: &mut Vec<i64>,
    runs: &mut Vec<i64>,
    ends: &mut Vec<usize>,
) -> usize {
    runs.clear();
    ends.clear();
    cursor.clear();
    cursor.resize(r.bounds.len(), 0);
    // A pure-parallel group is one "step" covering the whole domain.
    let fixed = r.sequential_dims.min(cursor.len());
    if fixed == 1 {
        cursor[0] = step;
    }
    enumerate_runs(r, fixed, cursor, runs, ends);
    ends.last().copied().unwrap_or(0)
}

fn enumerate_runs(
    r: &Reordering,
    depth: usize,
    cursor: &mut Vec<i64>,
    runs: &mut Vec<i64>,
    ends: &mut Vec<usize>,
) {
    let d = r.bounds.len();
    let total = ends.last().copied().unwrap_or(0);
    if depth == d {
        // No free dimension: the step is the single point `cursor`.
        runs.extend_from_slice(cursor);
        ends.push(total + 1);
        return;
    }
    let lb = &r.bounds[depth];
    let lo = lb.eval_lower(cursor);
    let hi = lb.eval_upper_exclusive(cursor);
    if depth + 1 == d {
        if lo < hi {
            cursor[depth] = lo;
            runs.extend_from_slice(cursor);
            ends.push(total + (hi - lo) as usize);
        }
    } else {
        for v in lo..hi {
            cursor[depth] = v;
            enumerate_runs(r, depth + 1, cursor, runs, ends);
        }
    }
    cursor[depth] = 0;
}

/// The points of one wavefront step, flat (stride = the reordering's
/// dimensionality), returning the point count: [`runs_into`] expanded, for
/// the reference executor and [`wavefront_profile`].
pub(crate) fn points_into(r: &Reordering, step: i64, out: &mut Vec<i64>) -> usize {
    let (mut cursor, mut runs, mut ends) = (Vec::new(), Vec::new(), Vec::new());
    let npoints = runs_into(r, step, &mut cursor, &mut runs, &mut ends);
    let d = r.bounds.len();
    out.clear();
    let mut lo = 0usize;
    for (ri, &end) in ends.iter().enumerate() {
        for pos in 0..end - lo {
            out.extend_from_slice(&runs[ri * d..(ri + 1) * d]);
            if let Some(inner) = out.last_mut().filter(|_| d > 0) {
                *inner += pos as i64;
            }
        }
        lo = end;
    }
    npoints
}

/// Executes a single group and reports how many points ran in each
/// wavefront step (used by tests and the parallelism examples). Reuses
/// one point arena and one back-transform buffer across all steps.
pub fn wavefront_profile(compiled: &CompiledProgram, group_idx: usize) -> Vec<(i64, usize)> {
    let group = &compiled.groups[group_idx];
    let r = &group.reordering;
    let d = r.bounds.len();
    let mut t_inv = Vec::with_capacity(d * d);
    for i in 0..d {
        t_inv.extend_from_slice(r.t_inv.row(i));
    }
    let (lo, hi) = r.wavefront_range();
    let mut arena = Vec::new();
    let mut t = vec![0i64; d];
    (lo..hi)
        .map(|step| {
            let npoints = points_into(r, step, &mut arena);
            // Only points that land in some member's domain count.
            let live = (0..npoints)
                .filter(|&p| {
                    matvec_flat(&t_inv, d, d, &arena[p * d..p * d + d], &mut t);
                    group
                        .members
                        .iter()
                        .any(|&m| compiled.etdg.block(m).domain.contains(&t))
                })
                .count();
            (step, live)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::execute_reference;
    use ft_core::builders::stacked_rnn_program;
    use ft_core::interp::run_program;
    use ft_passes::compile;
    use ft_tensor::assert_allclose;

    fn rnn_inputs(n: usize, d: usize, l: usize, h: usize) -> HashMap<BufferId, FractalTensor> {
        let xss = FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], 7), 2).unwrap();
        let ws =
            FractalTensor::from_flat(&Tensor::randn(&[d, h, h], 8).mul_scalar(0.2), 1).unwrap();
        let mut m = HashMap::new();
        m.insert(BufferId(0), xss);
        m.insert(BufferId(1), ws);
        m
    }

    #[test]
    fn compiled_wavefront_matches_interpreter() {
        let (n, d, l, h) = (3usize, 4usize, 5usize, 8usize);
        let p = stacked_rnn_program(n, d, l, h);
        let inputs = rnn_inputs(n, d, l, h);
        let expected = run_program(&p, &inputs).unwrap();
        let compiled = compile(&p).unwrap();
        for threads in [1usize, 4] {
            let got = execute(&compiled, &inputs, threads).unwrap();
            assert_eq!(got.len(), expected.len());
            for (id, ft) in &expected {
                let g = &got[id];
                assert_eq!(g.prog_dims(), ft.prog_dims());
                assert_allclose(&g.to_flat().unwrap(), &ft.to_flat().unwrap(), 1e-5);
            }
        }
    }

    #[test]
    fn execution_is_deterministic_across_thread_counts() {
        let p = stacked_rnn_program(2, 3, 6, 4);
        let inputs = rnn_inputs(2, 3, 6, 4);
        let compiled = compile(&p).unwrap();
        let a = execute(&compiled, &inputs, 1).unwrap();
        for threads in [2usize, 7, 8] {
            let b = execute(&compiled, &inputs, threads).unwrap();
            for (id, ft) in &a {
                assert_eq!(ft, &b[id], "thread count {threads} changed the result");
            }
        }
    }

    #[test]
    fn pool_matches_reference_executor() {
        let p = stacked_rnn_program(2, 4, 5, 8);
        let inputs = rnn_inputs(2, 4, 5, 8);
        let compiled = compile(&p).unwrap();
        let pooled = execute(&compiled, &inputs, 4).unwrap();
        let reference = execute_reference(&compiled, &inputs, 4).unwrap();
        assert_eq!(pooled.len(), reference.len());
        for (id, ft) in &reference {
            assert_eq!(ft, &pooled[id], "pool diverged from reference executor");
        }
    }

    #[test]
    fn builder_api_picks_thread_count() {
        let p = stacked_rnn_program(2, 2, 3, 4);
        let inputs = rnn_inputs(2, 2, 3, 4);
        let compiled = compile(&p).unwrap();
        let a = Executor::new().threads(3).run(&compiled, &inputs).unwrap();
        let b = execute(&compiled, &inputs, 1).unwrap();
        for (id, ft) in &b {
            assert_eq!(ft, &a[id]);
        }
        // Zero clamps to one rather than hanging or panicking.
        let c = Executor::new().threads(0).run(&compiled, &inputs).unwrap();
        for (id, ft) in &b {
            assert_eq!(ft, &c[id]);
        }
    }

    #[test]
    fn wavefront_width_peaks_in_the_middle() {
        // The diagonal wavefront over (depth, time) starts and ends with a
        // single cell and is widest in the middle — the parallelism Figure
        // 9 visualizes with same-colour cells.
        let (n, d, l) = (1usize, 4usize, 6usize);
        let p = stacked_rnn_program(n, d, l, 4);
        let compiled = compile(&p).unwrap();
        let profile = wavefront_profile(&compiled, 0);
        assert_eq!(profile.len(), d + l - 1);
        let widths: Vec<usize> = profile.iter().map(|&(_, w)| w).collect();
        assert_eq!(widths[0], 1);
        assert_eq!(*widths.last().unwrap(), 1);
        let max = *widths.iter().max().unwrap();
        assert_eq!(max, d.min(l));
        // Total cells = D * L.
        assert_eq!(widths.iter().sum::<usize>(), d * l);
    }

    #[test]
    fn point_arena_matches_domain_enumeration() {
        let p = stacked_rnn_program(2, 3, 4, 4);
        let compiled = compile(&p).unwrap();
        let r = &compiled.groups[0].reordering;
        let d = r.bounds.len();
        let mut arena = Vec::new();
        let (lo, hi) = r.wavefront_range();
        let mut total = 0usize;
        for step in lo..hi {
            let n = points_into(r, step, &mut arena);
            assert_eq!(arena.len(), n * d);
            for pt in arena.chunks(d) {
                assert_eq!(pt[0], step, "arena point off its wavefront step");
            }
            total += n;
        }
        assert_eq!(total, r.domain.enumerate().unwrap().len());
    }

    #[test]
    fn shared_pool_is_reused_across_runs() {
        let p = stacked_rnn_program(2, 2, 3, 4);
        let inputs = rnn_inputs(2, 2, 3, 4);
        let compiled = compile(&p).unwrap();
        let pool = Arc::new(WorkerPool::new(3));
        let exec = Executor::new().pool(Arc::clone(&pool));
        let reference = execute(&compiled, &inputs, 1).unwrap();
        for _ in 0..3 {
            let got = exec.run(&compiled, &inputs).unwrap();
            for (id, ft) in &reference {
                assert_eq!(ft, &got[id], "shared-pool run diverged");
            }
        }
        // The executor sized itself by the pool, not the threads default.
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn own_pool_is_kept_across_runs_and_shared_by_clones() {
        let p = stacked_rnn_program(2, 2, 3, 4);
        let inputs = rnn_inputs(2, 2, 3, 4);
        let compiled = compile(&p).unwrap();
        let exec = Executor::new().threads(3);
        assert!(exec.own.lock().is_none(), "the pool is created lazily");
        let own = |e: &Executor| e.own.lock().clone().expect("a run creates the pool");
        let a = exec.run(&compiled, &inputs).unwrap();
        let first = own(&exec);
        assert_eq!(first.threads(), 3);
        // Same pool, hence the same parked worker threads, on the next
        // run and on a clone's.
        let b = exec.run(&compiled, &inputs).unwrap();
        assert!(Arc::ptr_eq(&first, &own(&exec)));
        let cloned = exec.clone();
        let c = cloned.run(&compiled, &inputs).unwrap();
        assert!(Arc::ptr_eq(&first, &own(&exec)));
        for (id, ft) in &a {
            assert_eq!(ft, &b[id]);
            assert_eq!(ft, &c[id]);
        }
        // Another thread count gets a pool of its own size.
        cloned.threads(2).run(&compiled, &inputs).unwrap();
        assert_eq!(own(&exec).threads(), 2);
        // An attached pool leaves the executor's own untouched.
        let attached = Executor::new().pool(Arc::new(WorkerPool::new(2)));
        attached.run(&compiled, &inputs).unwrap();
        assert!(attached.own.lock().is_none());
    }

    #[test]
    fn arena_is_reused_without_refill_across_program_sizes() {
        // Only the written bitmap is cleared between runs: a smaller
        // program after a larger one (and the reverse) runs over stale
        // arena contents and must still match a fresh executor bit for bit.
        let big = (stacked_rnn_program(4, 4, 8, 8), rnn_inputs(4, 4, 8, 8));
        let small = (stacked_rnn_program(1, 2, 3, 8), rnn_inputs(1, 2, 3, 8));
        for (order, grows) in [([&big, &small, &big], 1), ([&small, &big, &small], 2)] {
            let exec = Executor::new().threads(2);
            for (p, inputs) in order {
                let compiled = compile(p).unwrap();
                let got = exec.run(&compiled, inputs).unwrap();
                let fresh = Executor::new().threads(2).run(&compiled, inputs).unwrap();
                for (id, ft) in &fresh {
                    let bits = |f: &FractalTensor| -> Vec<u32> {
                        let flat = f.to_flat().unwrap().to_vec();
                        flat.iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(ft), bits(&got[id]), "stale arena leaked");
                }
            }
            let stats = exec.arena_stats();
            assert_eq!((stats.acquires, stats.grows), (3, grows));
        }
    }

    #[test]
    fn arena_is_pooled_across_runs_and_leaves_are_never_cloned() {
        let p = stacked_rnn_program(2, 3, 4, 4);
        let inputs = rnn_inputs(2, 3, 4, 4);
        let compiled = compile(&p).unwrap();
        let exec = Executor::new().threads(2);
        let a = exec.run(&compiled, &inputs).unwrap();
        let b = exec.run(&compiled, &inputs).unwrap();
        for (id, ft) in &a {
            assert_eq!(ft, &b[id], "arena reuse changed the result");
        }
        let stats = exec.arena_stats();
        assert_eq!(stats.acquires, 2);
        assert!(
            stats.reused >= 1,
            "second run must reuse the arena: {stats:?}"
        );
        assert_eq!(stats.leaf_clones, 0, "arena path must never clone leaves");
        assert!(stats.leaf_borrows > 0);
        // A clone shares the same pool and counters.
        let cloned = exec.clone();
        assert_eq!(cloned.arena_stats(), stats);
    }

    #[test]
    fn guard_and_fallback_are_fixed_at_construction() {
        // Builder settings stick; `run` never consults the environment.
        let exec = Executor::new().guard(true).fallback(true);
        assert!(exec.guard);
        assert!(exec.fallback);
        let exec = Executor::new().guard(false).fallback(false);
        assert!(!exec.guard);
        assert!(!exec.fallback);
    }

    #[test]
    fn missing_input_is_an_error() {
        let p = stacked_rnn_program(2, 2, 2, 4);
        let compiled = compile(&p).unwrap();
        let err = execute(&compiled, &HashMap::new(), 1);
        assert!(matches!(err, Err(ExecError::Input(_))));
    }
}
