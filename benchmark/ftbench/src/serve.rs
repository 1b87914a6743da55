//! The stateless serving workloads, `serve_open` and `serve_sat`, and the
//! pieces of a traced serving run: the completion-record phases, the
//! replay of sampled requests through the scheduler's public steps, and
//! the short probe that carries the serving layer's numbers on workloads
//! that do not serve.
//!
//! One generator thread submits and collects: it polls its outstanding
//! tickets, so several requests are in flight with no thread per request.
//! With one pool thread in the runtime (its scheduler runs the launches),
//! generator plus scheduler are the two runnable threads the host has
//! cores for.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_backend::Executor;
use ft_core::builders::stacked_rnn_program;
use ft_core::{poly_split, program_signature, BufferId, BufferKind, Program};
use ft_obs::CompletionRecord;
use ft_passes::{CompiledProgram, PolyPlan};
use ft_serve::batch::{concat_outer, split_outer_parts};
use ft_serve::{Request, Runtime, ServeConfig, ServeStats, Ticket};
use ft_tensor::Tensor;
use ft_workloads::lstm;

use crate::catalog::{self, Buffers, Prog};
use crate::harness::{
    alternate, end_to_end, repeated_setup, slice_seconds, Args, Loop, Outcome, Timed, Values,
};
use crate::layers;
use crate::trace::Tracer;
use crate::util::{latency_percentiles, median, timed, Rng, Sample};

/// `stacked_rnn_program(n, 2, 256, 16)`, n in 1..=8: narrow, step-bound
/// requests whose outer extent is the only thing that varies.
const RNN_DLH: (usize, usize, usize) = (2, 256, 16);
const RNN_EXTENTS: usize = 8;
const SERVE_LSTM: lstm::LstmShape = lstm::LstmShape {
    batch: 2,
    hidden: 16,
    depth: 2,
    seq: 32,
};
/// Distinct pre-generated requests; arrivals draw from them at random.
const POOL: usize = 64;
/// Requests a set-up serves, closed loop, before the clock starts: enough
/// to build both plan families and the fused widths saturation produces.
const WARMUP_REQUESTS: usize = 240;
/// Fewer set-ups than the executor workloads: each serves `WARMUP_REQUESTS`.
const SERVE_SETUP_REPS: usize = 3;

/// `serve_open`: arrivals per second, about a third of what `serve_sat`
/// sustains on the reference host. At 300 a second (half of saturation) the
/// largest requests, 3 ms each, already queue behind one another whenever
/// the host slows down for a moment, and the slowdown reaches the 95th
/// percentile several times over: with another tenant's bursts imitated on
/// both cores, eight runs spread it by 50 % of its median at 300 a second
/// and by 9 % at 200.
pub const OPEN_RATE_PER_S: f64 = 200.0;
/// The latency limit of the open loops, from an operation's due time. It
/// is far above any latency a healthy run shows, so that a stall of the
/// host (they reach a few hundred milliseconds here) fails nothing; a
/// runtime that cannot keep up with the schedule builds a backlog and
/// crosses it within seconds.
const OPEN_LIMIT_MS: f64 = 1000.0;
/// `serve_sat`: requests the generator keeps in flight.
pub const SAT_WINDOW: usize = 8;
/// A request sent this long after it was due counts against the generator.
const GENERATOR_LATE_MS: f64 = 1.0;
/// A traced run replays every `REPLAY_EVERY`th request.
pub const REPLAY_EVERY: usize = 16;

/// One pre-generated request and what the interpreter says it returns.
pub struct Entry {
    pub prog: usize,
    pub program: Arc<Program>,
    pub inputs: Buffers,
    pub want: Buffers,
    pub probe: Vec<(BufferId, Tensor)>,
    pub tol: f32,
}

impl Entry {
    pub fn new(prog: usize, p: &Prog, inputs: Buffers) -> Entry {
        let want = catalog::oracle(&p.program, &inputs);
        Entry {
            prog,
            program: Arc::clone(&p.program),
            probe: catalog::probe_of(&want),
            inputs,
            want,
            tol: p.tol,
        }
    }
}

/// The request mix both stateless workloads serve: four in five requests
/// are stacked RNNs of 1 to 8 sequences, one in five a small LSTM. All
/// requests of a kind share one set of weights, as tenants of one model do
/// — and as fusing them requires.
pub fn request_mix(seed: u64) -> (Vec<Prog>, Vec<Entry>) {
    let mut rng = Rng::new(seed).fork(1);
    let (d, l, h) = RNN_DLH;
    let ws = catalog::rnn_weights(d, h, rng.next_u64());
    let mut progs: Vec<Prog> = (1..=RNN_EXTENTS)
        .map(|n| Prog {
            name: "stacked_rnn",
            program: Arc::new(stacked_rnn_program(n, d, l, h)),
            inputs: Buffers::from([
                (catalog::RNN_XSS, catalog::rnn_xss(n, l, h, rng.next_u64())),
                (catalog::RNN_WS, ws.clone()),
            ]),
            tol: catalog::TOL,
            flops: (n * d * l * (2 * h * h + h)) as f64,
        })
        .collect();
    let lstm_shared = lstm::inputs(SERVE_LSTM, rng.next_u64());
    progs.push(Prog {
        name: "lstm",
        program: Arc::new(lstm::program(SERVE_LSTM)),
        inputs: lstm_shared.clone(),
        tol: catalog::TOL,
        flops: (SERVE_LSTM.cell_flops() * (SERVE_LSTM.depth * SERVE_LSTM.seq) as u64) as f64,
    });
    let lstm_prog = progs.len() - 1;

    let mut rnn_seen = 0usize;
    let entries = (0..POOL)
        .map(|i| {
            if i % 5 == 4 {
                let mut inputs = lstm_shared.clone();
                let fresh = lstm::inputs(SERVE_LSTM, rng.next_u64());
                inputs.insert(lstm::buffers::XSS, fresh[&lstm::buffers::XSS].clone());
                Entry::new(lstm_prog, &progs[lstm_prog], inputs)
            } else {
                let prog = rnn_seen % RNN_EXTENTS;
                rnn_seen += 1;
                let inputs = Buffers::from([
                    (
                        catalog::RNN_XSS,
                        catalog::rnn_xss(prog + 1, l, h, rng.next_u64()),
                    ),
                    (catalog::RNN_WS, ws.clone()),
                ]);
                Entry::new(prog, &progs[prog], inputs)
            }
        })
        .collect();
    (progs, entries)
}

/// The order `count` requests arrive in, as pool indices: one seeded
/// shuffle of the whole pool after another. Every stretch of `pool`
/// arrivals then holds each request once, so every segment of a run and
/// every seed serve the same mix and differ only in its order. (Independent
/// draws put 50 to 70 of the largest requests into a segment of 600, and
/// the 95th percentile, which sits among them, moved with the count.)
pub fn arrival_order(seed: u64, count: usize, pool: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed).fork(2);
    let mut order = Vec::with_capacity(count + pool);
    while order.len() < count {
        let mut block: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            block.swap(i, rng.below(i + 1));
        }
        order.extend(block);
    }
    order.truncate(count);
    order
}

/// Arrival times of an open loop, seconds after its start: `rate × seconds`
/// arrivals whose gaps are drawn uniformly between half and one and a half
/// times the mean gap, then scaled to end exactly at `seconds`. Every seed
/// offers the same number of requests at the same mean rate; only the
/// spacing differs. (Exponential gaps were tried first: their bursts decide
/// the 95th percentile, which then differed by a third between seeds.)
pub fn arrival_times(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed).fork(3);
    let mut at = 0.0;
    let mut due: Vec<f64> = (0..(rate_per_s * seconds).round() as usize)
        .map(|_| {
            at += 0.5 + rng.next_f64();
            at
        })
        .collect();
    let scale = seconds / (at + 1.0);
    due.iter_mut().for_each(|t| *t *= scale);
    due
}

pub fn runtime() -> Runtime {
    Runtime::try_new(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("the serving runtime starts")
}

/// How the generator paces itself.
#[derive(Clone, Copy)]
pub enum Load<'a> {
    /// Open loop: request `i` is due `due_s[i]` seconds after the start
    /// whether or not earlier ones have returned; one that takes longer
    /// than `limit_ms` from its due time is late and counts as failed.
    Open { due_s: &'a [f64], limit_ms: f64 },
    /// Closed loop: `window` requests in flight for `seconds`.
    Closed { window: usize, seconds: f64 },
    /// Closed loop until `count` requests have been sent (warm-up).
    Count { window: usize, count: usize },
}

struct Flight {
    ticket: Ticket,
    op: usize,
    due: Instant,
}

/// What the generator saw.
#[derive(Default)]
pub struct Driven {
    pub timed: Timed,
    pub late: u64,
    pub generator_late: u64,
    /// The first result of each pool entry, for the full oracle check.
    pub first: Vec<Option<Buffers>>,
    /// Pool index of every operation that completed, in send order.
    pub completed: Vec<usize>,
}

impl Driven {
    /// Adds a later slice of the same section, `offset_s` after this one.
    fn absorb(&mut self, later: Driven, offset_s: f64) {
        self.timed.absorb(later.timed, offset_s);
        self.late += later.late;
        self.generator_late += later.generator_late;
        self.completed.extend(later.completed);
        for (mine, theirs) in self.first.iter_mut().zip(later.first) {
            if mine.is_none() {
                *mine = theirs;
            }
        }
    }
}

/// Drives `rt` from one thread: sends request `order[i % len]` when the
/// load says so and polls the tickets in flight, timing each request from
/// its due time to the moment its result was seen.
pub fn drive(
    rt: &Runtime,
    pool: &[Entry],
    order: &[usize],
    load: Load,
    first_op: u64,
    tracer: &mut Tracer,
) -> Driven {
    let mut out = Driven {
        first: (0..pool.len()).map(|_| None).collect(),
        ..Driven::default()
    };
    let mut flights: Vec<Flight> = Vec::new();
    let _awake = matches!(load, Load::Open { .. }).then(KeepAwake::start);
    let start = Instant::now();
    let end = match load {
        Load::Closed { seconds, .. } => Some(start + Duration::from_secs_f64(seconds)),
        _ => None,
    };
    let total = match load {
        Load::Open { due_s, .. } => due_s.len(),
        Load::Count { count, .. } => count,
        Load::Closed { .. } => usize::MAX,
    };
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        let closing = end.is_some_and(|e| now >= e);
        // Send what is due.
        while next < total && !closing {
            let due = match load {
                Load::Open { due_s, .. } => {
                    let due = start + Duration::from_secs_f64(due_s[next]);
                    if due > now {
                        break;
                    }
                    due
                }
                Load::Closed { window, .. } | Load::Count { window, .. } => {
                    if flights.len() >= window {
                        break;
                    }
                    now
                }
            };
            let entry = &pool[order[next % order.len()]];
            let mut request = Request::new(Arc::clone(&entry.program), entry.inputs.clone());
            if let Load::Open { limit_ms, .. } = load {
                request = request.with_deadline(Duration::from_secs_f64(limit_ms / 1e3));
            }
            out.timed.attempted += 1;
            if now.duration_since(due).as_secs_f64() * 1e3 > GENERATOR_LATE_MS {
                out.generator_late += 1;
            }
            match rt.submit(request) {
                Ok(ticket) => flights.push(Flight {
                    ticket,
                    op: next,
                    due,
                }),
                // Queue full or shed at admission; the runtime counts which.
                Err(_) => out.timed.failed += 1,
            }
            next += 1;
        }
        // Collect what has returned.
        let mut i = 0;
        while i < flights.len() {
            let Some(result) = flights[i].ticket.try_take() else {
                i += 1;
                continue;
            };
            let done = Instant::now();
            let f = flights.swap_remove(i);
            let slot = order[f.op % order.len()];
            let entry = &pool[slot];
            let ms = done.duration_since(f.due).as_secs_f64() * 1e3;
            tracer.record("op", first_op + f.op as u64, f.due, done);
            let late = matches!(load, Load::Open { limit_ms, .. } if ms > limit_ms);
            match result {
                Ok(got) if catalog::probe_matches(&got, &entry.probe, entry.tol) && !late => {
                    out.timed.samples.push(Sample {
                        end_s: done.duration_since(start).as_secs_f64(),
                        ms,
                    });
                    out.completed.push(slot);
                    if out.first[slot].is_none() {
                        out.first[slot] = Some(got);
                    }
                }
                Ok(_) if late => {
                    out.late += 1;
                    out.timed.failed += 1;
                }
                Ok(_) | Err(_) => out.timed.failed += 1,
            }
        }
        if flights.is_empty() && (next >= total || closing) {
            break;
        }
        // Nothing in flight: sleep towards the next arrival, then spin the
        // last stretch so the request leaves on time.
        if let (true, Load::Open { due_s, .. }) = (flights.is_empty(), load) {
            let due = start + Duration::from_secs_f64(due_s[next]);
            if let Some(gap) = due.checked_duration_since(Instant::now()) {
                if gap > Duration::from_micros(300) {
                    std::thread::sleep(gap - Duration::from_micros(200));
                }
            }
        } else {
            std::thread::yield_now();
        }
    }
    out
}

/// A thread that does nothing but yield, for the length of an open-loop
/// section of stateless requests.
///
/// An open loop leaves the runtime idle between arrivals. On a virtual
/// machine an idle core halts, and the next request then pays the
/// hypervisor's wake-up and runs its first millisecond at a lower clock:
/// on the reference host that alone moved `serve_open`'s median latency
/// between 1.4 and 2.4 ms from run to run. The generator already occupies
/// one core with its polling; this thread occupies the other, and gives it
/// up at once (it is always inside `yield_now`) when the runtime's thread
/// wakes. What is left is the runtime's own work. `serve_decode` does not
/// use it: its bursts keep the core busy enough, and there it made the
/// 95th percentile bimodal.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            // Relaxed: the flag publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
        KeepAwake {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The thread only yields; it cannot have panicked.
            let _ = thread.join();
        }
    }
}

/// Every pool entry that was served is compared in full with the
/// interpreter's output; under saturation most first results come out of
/// fused batches, so this checks concat and split too.
fn full_mismatch(pool: &[Entry], first: &[Option<Buffers>]) -> bool {
    pool.iter().zip(first).any(|(entry, got)| {
        got.as_ref()
            .is_some_and(|g| !catalog::outputs_match(g, &entry.want, entry.tol))
    })
}

/// Starts a runtime and serves the warm-up: both plan families get built
/// and verified, and the fused widths a saturated queue produces get their
/// instances, before the clock starts.
fn serve_setup(pool: &[Entry], order: &[usize]) -> Runtime {
    let rt = runtime();
    let warm = drive(
        &rt,
        pool,
        order,
        Load::Count {
            window: SAT_WINDOW,
            count: WARMUP_REQUESTS,
        },
        0,
        &mut Tracer::new(false),
    );
    assert_eq!(warm.timed.failed, 0, "warm-up requests succeed");
    rt
}

/// What the runtime itself reported over a timed section: its counters
/// before and after, and a completion record per request.
pub struct Observed {
    pub before: ServeStats,
    pub after: ServeStats,
    pub records: Vec<CompletionRecord>,
}

impl Observed {
    pub fn insert(&self, v: &mut Values) {
        let (a, b) = (&self.after, &self.before);
        // Requests per launch: a fused launch carries several, every other
        // completed request rode alone.
        let batches = a.batches - b.batches;
        let fused = a.batched_requests - b.batched_requests;
        let done = (a.completed - b.completed).max(1);
        let launches = batches + done.saturating_sub(fused);
        v.insert("serve.mean_batch", done as f64 / launches.max(1) as f64);
        v.insert("serve.batches", batches as f64);
        v.insert(
            "serve.batch_fallbacks",
            (a.batch_fallbacks - b.batch_fallbacks) as f64,
        );
        v.insert("serve.cache_hits", (a.cache_hits - b.cache_hits) as f64);
        v.insert(
            "serve.cache_misses",
            (a.cache_misses - b.cache_misses) as f64,
        );
        v.insert("serve.cached_plans", a.cached_plans as f64);
        v.insert("serve.rejected", (a.rejected - b.rejected) as f64);
        v.insert("serve.shed", (a.shed - b.shed) as f64);
    }
}

/// Medians of the phases the runtime itself recorded for each request.
pub fn record_metrics(records: &[CompletionRecord], v: &mut Values) {
    let p50 = |f: fn(&CompletionRecord) -> f64| median(&records.iter().map(f).collect::<Vec<_>>());
    v.insert("serve.queue_wait_us_p50", p50(|r| r.queue_wait_us));
    v.insert("serve.setup_us_p50", p50(|r| r.setup_us));
    v.insert("serve.exec_us_p50", p50(|r| r.exec_us));
    v.insert("serve.split_us_p50", p50(|r| r.split_us));
}

/// The plan a replayed request runs: the polymorphic family its program
/// belongs to, or the plain compiled plan of a program that has none.
enum Plan {
    Family(u128),
    Exact(CompiledProgram),
}

/// Replays sampled requests through the public steps the scheduler takes
/// for a fused launch — signature and split, plan instance at the batch's
/// total extent, input concat, one executor run, output split — one span
/// each, `batch` requests of one family at a time. What a request's
/// latency holds beyond the replayed sum is queueing, scheduling and
/// fulfilment.
pub fn replay(
    progs: &[&Prog],
    pool: &[Entry],
    sampled: &[usize],
    batch: usize,
    tracer: &mut Tracer,
    v: &mut Values,
) {
    let mut families: BTreeMap<u128, PolyPlan> = BTreeMap::new();
    let plans: Vec<Plan> = progs
        .iter()
        .map(|p| match poly_split(&p.program) {
            Some(split) => {
                families.entry(split.key.0).or_insert_with(|| {
                    PolyPlan::build(&p.program)
                        .expect("pool programs compile")
                        .expect("poly_split found an outer axis")
                });
                Plan::Family(split.key.0)
            }
            None => Plan::Exact(ft_passes::compile(&p.program).expect("pool programs compile")),
        })
        .collect();
    let exec = Executor::new().threads(1);
    // Sampled requests of one family, in order, `batch` at a time — the
    // scheduler groups queued requests by plan, not by position. A program
    // without a family runs alone.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for key in families.keys() {
        let members: Vec<usize> = sampled
            .iter()
            .copied()
            .filter(|&s| matches!(plans[pool[s].prog], Plan::Family(k) if k == *key))
            .collect();
        groups.extend(members.chunks(batch.max(1)).map(<[usize]>::to_vec));
    }
    groups.extend(
        sampled
            .iter()
            .filter(|&&s| matches!(plans[pool[s].prog], Plan::Exact(_)))
            .map(|&s| vec![s]),
    );
    for (op, group) in groups.iter().enumerate() {
        let op = op as u64;
        let members: Vec<&Entry> = group.iter().map(|&s| &pool[s]).collect();
        tracer.span("replay", op, |tracer| {
            let extents: Vec<usize> = tracer.span("replay.signature", op, |_| {
                members
                    .iter()
                    .map(|e| {
                        std::hint::black_box(program_signature(&e.program));
                        poly_split(&e.program).map_or(0, |s| s.outer_extent)
                    })
                    .collect()
            });
            let lead = members[0];
            let instance: Arc<CompiledProgram> = match &plans[lead.prog] {
                Plan::Family(key) => tracer
                    .span("replay.poly_instance", op, |_| {
                        families[key].instance(extents.iter().sum())
                    })
                    .expect("family instantiates at the batch's extent"),
                Plan::Exact(plan) => Arc::new(plan.clone()),
            };
            let batched = poly_split(&lead.program).map(|s| s.info.batched);
            let is_batched =
                |id: BufferId| batched.as_ref().is_some_and(|b| b.get(id.0) == Some(&true));
            let fused: Buffers = tracer.span("serve.concat_outer", op, |_| {
                lead.program
                    .buffers
                    .iter()
                    .enumerate()
                    .filter(|(_, decl)| decl.kind == BufferKind::Input)
                    .map(|(bi, _)| {
                        let id = BufferId(bi);
                        let value = if is_batched(id) && members.len() > 1 {
                            let parts: Vec<_> = members.iter().map(|e| &e.inputs[&id]).collect();
                            concat_outer(&parts).expect("parts share their inner shape")
                        } else {
                            lead.inputs[&id].clone()
                        };
                        (id, value)
                    })
                    .collect()
            });
            let out = tracer
                .span("backend.run", op, |_| exec.run(&instance, &fused))
                .expect("replayed batch runs");
            let parts = tracer.span("serve.split_outer_parts", op, |_| {
                out.iter()
                    .filter(|(id, _)| is_batched(**id) && members.len() > 1)
                    .map(|(_, ft)| {
                        split_outer_parts(ft, &extents).expect("extents sum to the batch")
                    })
                    .collect::<Vec<_>>()
            });
            std::hint::black_box(parts);
        });
    }
    v.insert(
        "serve.concat_us",
        median(&tracer.durations_us("serve.concat_outer")),
    );
    v.insert(
        "serve.split_parts_us",
        median(&tracer.durations_us("serve.split_outer_parts")),
    );
}

/// A traced timed section of serving, as the generator and the runtime
/// saw it.
pub struct Section<'a> {
    pub timed: &'a Timed,
    pub seconds: f64,
    pub late: u64,
    /// Pool indices of the requests to replay.
    pub sampled: Vec<usize>,
    pub observed: Observed,
}

/// The serving layer's per-layer metrics from a traced timed section:
/// counter movement, the runtime's own phase records, and the replay.
pub fn serving_metrics(
    progs: &[&Prog],
    pool: &[Entry],
    section: &Section,
    tracer: &mut Tracer,
    v: &mut Values,
) {
    let p = latency_percentiles(&section.timed.samples, section.seconds, &[0.5, 0.99]);
    v.insert("serve.latency_ms_p99", p[1]);
    v.insert("serve.late", section.late as f64);
    section.observed.insert(v);
    record_metrics(&section.observed.records, v);
    let batch = v["serve.mean_batch"].round().max(1.0) as usize;
    replay(progs, pool, &section.sampled, batch, tracer, v);
    v.insert(
        "serve.overhead_us",
        p[0] * 1e3 - median(&tracer.durations_us("replay")),
    );
}

/// Session metrics belong to `serve_decode`; a workload without sessions
/// reports none opened and nothing pinned.
pub fn no_sessions(v: &mut Values) {
    for name in [
        "serve.state_copies",
        "serve.pinned_bytes",
        "serve.session_opens",
        "serve.decode_sat_tokens_per_s",
    ] {
        v.insert(name, 0.0);
    }
}

/// On a workload that does not serve, the serving layer's numbers come
/// from a short probe: the workload's runnable programs go through a fresh
/// runtime one at a time, several times round (cold, then cached), and
/// every one is replayed. It tells what serving one of these programs adds
/// to running it.
pub fn probe(runnable: &[&Prog], tracer: &mut Tracer, v: &mut Values) {
    let pool: Vec<Entry> = runnable
        .iter()
        .enumerate()
        .map(|(i, p)| Entry::new(i, p, p.inputs.clone()))
        .collect();
    let rounds = (24 / pool.len()).max(2);
    let order: Vec<usize> = (0..pool.len() * rounds).map(|i| i % pool.len()).collect();
    let rt = runtime();
    let before = rt.stats();
    let load = Load::Count {
        window: 1,
        count: order.len(),
    };
    let (driven, seconds) = timed(|| drive(&rt, &pool, &order, load, 0, &mut Tracer::new(false)));
    let section = Section {
        timed: &driven.timed,
        seconds,
        late: 0,
        // Replay every program once.
        sampled: (0..pool.len()).collect(),
        observed: Observed {
            before,
            after: rt.stats(),
            records: rt.take_completions(),
        },
    };
    serving_metrics(runnable, &pool, &section, tracer, v);
    no_sessions(v);
}

/// Everything a traced run of a serving workload adds once its runtime is
/// gone: the walk of its programs, the host's ceilings, the simulator.
pub fn layer_metrics(args: &Args, progs: &[Prog], tracer: &mut Tracer, v: &mut Values) {
    let compiled: Vec<&Program> = progs.iter().map(|p| &*p.program).collect();
    let refs: Vec<&Prog> = progs.iter().collect();
    let sims = catalog::sim_paper();
    layers::after_run(args.seed, &compiled, &refs, &sims, tracer, v);
}

/// Runs a stateless serving workload: `Loop::Open` on a schedule,
/// `Loop::Closed` with `SAT_WINDOW` requests in flight.
fn serve_workload(args: &Args, kind: Loop, tracer: &mut Tracer) -> Outcome {
    let (progs, pool) = request_mix(args.seed);
    let refs: Vec<&Prog> = progs.iter().collect();
    let warm_order = arrival_order(args.seed ^ 0x5eed, WARMUP_REQUESTS, pool.len());
    let reps = if args.trace { 1 } else { SERVE_SETUP_REPS };
    let (rt, setup_s) = repeated_setup(reps, || serve_setup(&pool, &warm_order));

    // One timed section; `slice` gives each slice of a traced run its own
    // arrivals.
    let section = |seconds: f64, slice: usize, first_op: u64, tracer: &mut Tracer| {
        let seed = args.seed.wrapping_add(slice as u64);
        match kind {
            Loop::Open => {
                let due_s = arrival_times(seed, OPEN_RATE_PER_S, seconds);
                let order = arrival_order(seed, due_s.len(), pool.len());
                let load = Load::Open {
                    due_s: &due_s,
                    limit_ms: OPEN_LIMIT_MS,
                };
                drive(&rt, &pool, &order, load, first_op, tracer)
            }
            Loop::Closed => {
                let order = arrival_order(seed, 4096, pool.len());
                let load = Load::Closed {
                    window: SAT_WINDOW,
                    seconds,
                };
                drive(&rt, &pool, &order, load, first_op, tracer)
            }
        }
    };

    let mut values = Values::new();
    let driven = if args.trace {
        // Counters and completion records cover the whole section; tracing
        // is the harness's own and the runtime does not see it.
        let _ = rt.take_completions();
        let before = rt.stats();
        let mut records = Vec::new();
        let (traced, untraced, overhead) = alternate(
            args.seconds,
            tracer,
            |secs, slice, first_op, tracer| {
                let d = section(secs, slice, first_op, tracer);
                records.extend(rt.take_completions());
                d
            },
            |d| &d.timed,
        );
        let after = rt.stats();
        let mut all = Driven {
            timed: untraced,
            first: (0..pool.len()).map(|_| None).collect(),
            ..Driven::default()
        };
        for (i, d) in traced.into_iter().enumerate() {
            all.absorb(d, i as f64 * slice_seconds(args.seconds));
        }
        values.insert("bench.trace_overhead_share", overhead);
        values.insert(
            "bench.generator_late_share",
            all.generator_late as f64 / all.completed.len().max(1) as f64,
        );
        values.insert("bench.samples", all.timed.samples.len() as f64);
        let section = Section {
            timed: &all.timed,
            seconds: args.seconds / 2.0,
            late: all.late,
            sampled: all
                .completed
                .iter()
                .copied()
                .step_by(REPLAY_EVERY)
                .collect(),
            observed: Observed {
                before,
                after,
                records,
            },
        };
        serving_metrics(&refs, &pool, &section, tracer, &mut values);
        no_sessions(&mut values);
        all
    } else {
        let d = section(args.seconds, 0, 0, tracer);
        values = end_to_end(setup_s, &d.timed, args.seconds, kind);
        d
    };
    let mismatch = full_mismatch(&pool, &driven.first);
    if mismatch {
        eprintln!("oracle mismatch in a served request");
    }
    drop(rt);
    if args.trace {
        layer_metrics(args, &progs, tracer, &mut values);
    }
    let t = driven.timed;
    Outcome {
        attempted: t.attempted,
        failed: if mismatch { t.attempted } else { t.failed },
        values,
    }
}

/// Independent users: requests arrive on a schedule at a rate the runtime
/// can sustain, so queues stay short and batches small. Measures queue
/// wait, plan acquisition and ragged fusion at low occupancy.
pub fn serve_open(args: &Args, tracer: &mut Tracer) -> Outcome {
    serve_workload(args, Loop::Open, tracer)
}

/// Saturation: the same requests with `SAT_WINDOW` always in flight, so
/// batches fill and concat, split and scheduling dominate.
pub fn serve_sat(args: &Args, tracer: &mut Tracer) -> Outcome {
    serve_workload(args, Loop::Closed, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule_and_order() {
        let (a, b) = (arrival_times(9, 300.0, 2.0), arrival_times(9, 300.0, 2.0));
        assert_eq!(a, b);
        assert_eq!(a.len(), 600);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        assert_ne!(a, arrival_times(10, 300.0, 2.0));
        assert_eq!(arrival_order(9, 100, 64), arrival_order(9, 100, 64));
        assert_ne!(arrival_order(9, 100, 64), arrival_order(10, 100, 64));
    }

    #[test]
    fn every_stretch_of_arrivals_serves_the_whole_pool_once() {
        let order = arrival_order(4, 200, 64);
        assert_eq!(order.len(), 200);
        for block in order.chunks_exact(64) {
            let mut seen = block.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>());
        }
        assert_ne!(order[..64], order[64..128]);
    }

    #[test]
    fn same_seed_gives_the_same_requests() {
        let (_, a) = request_mix(3);
        let (_, b) = request_mix(3);
        assert_eq!(a.len(), POOL);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.prog, y.prog);
            assert_eq!(x.inputs, y.inputs);
        }
        // One request in five is the LSTM; the RNN extents are all present.
        let lstm = a.iter().filter(|e| e.prog == RNN_EXTENTS).count();
        assert_eq!(lstm, POOL / 5);
        for n in 0..RNN_EXTENTS {
            assert!(a.iter().any(|e| e.prog == n));
        }
    }

    /// An open loop times a request from when it was due: a request the
    /// generator could only send late (here: all of them, the schedule
    /// starts in the past) carries the delay in its latency.
    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let (progs, pool) = request_mix(1);
        let rt = runtime();
        let mut tracer = Tracer::new(true);
        // Ten requests all due at t = 0: the tenth waits for the nine
        // before it, and that wait is in its latency.
        let due = vec![0.0; 10];
        let order: Vec<usize> = (0..10).collect();
        let d = drive(
            &rt,
            &pool,
            &order,
            Load::Open {
                due_s: &due,
                limit_ms: 60_000.0,
            },
            0,
            &mut tracer,
        );
        assert_eq!(d.timed.attempted, 10);
        assert_eq!(d.timed.failed, 0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 10);
        // Every span starts at the shared due time, not at its send time.
        assert!(spans.iter().all(|s| s.start_ns == spans[0].start_ns));
        let slowest = d.timed.samples.iter().map(|s| s.ms).fold(0.0, f64::max);
        let total_ms = spans.iter().map(|s| s.end_ns).max().unwrap() - spans[0].start_ns;
        assert!((slowest - total_ms as f64 / 1e6).abs() < 0.01);
        assert!(!progs.is_empty());
    }
}
