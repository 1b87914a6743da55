//! `serve_decode`: stateful sessions whose decode state stays pinned in
//! the runtime and advances in place, one `decode_step` per operation.
//!
//! Sixteen sessions decode at once, a closed loop each: a session's next
//! step goes out the moment its previous one resolved, so the runtime always
//! has steps queued and fuses what it finds. Twelve sessions carry an RNN
//! hidden stack, four append to an attention KV cache and are closed and
//! reopened when it is full. The generator polls, and nothing in the loop
//! sleeps: the lock-step rounds of `bench_serve` (all sessions submit, all
//! are awaited) and a paced loop (a burst every 4 ms) both put a thread to
//! sleep between rounds, and what they measure then is how fast the
//! hypervisor wakes a halted core, which on the reference host is one of two
//! values for an hour at a time. The lock-step figure is kept as the ungated
//! `serve.decode_sat_tokens_per_s`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_core::builders::{rnn_decode_step_program, stacked_rnn_program};
use ft_core::{BufferId, FractalTensor, Program};
use ft_serve::{Runtime, SessionSpec, StateBinding, StateOp, Ticket};
use ft_tensor::Tensor;
use ft_workloads::decode::{self, buffers as attn};

use crate::catalog::{self, Buffers, Prog};
use crate::harness::{
    alternate, end_to_end, repeated_setup, slice_seconds, Args, Loop, Outcome, Timed, Values,
    SETUP_REPS,
};
use crate::serve::{self, Entry, Observed, Section};
use crate::trace::Tracer;
use crate::util::{fractals_close, last_leaf, tensors_close, Rng, Sample};

/// Every fourth session appends to an attention cache; the others carry an
/// RNN hidden stack.
const SESSIONS: usize = 16;
/// `rnn_decode_step_program(2, 16)`: small enough that per-launch overhead
/// dominates a lone step, which is what continuous batching amortises.
const RNN_DH: (usize, usize) = (2, 16);
/// `attention_decode_step_program(16, 128)`.
const ATTN_H: usize = 16;
const ATTN_CAP: usize = 128;
/// Tokens each session cycles through.
const TOKENS: usize = 512;
/// Steps a set-up serves before the sessions are reopened fresh.
const WARMUP_STEPS: u64 = 640;

/// `rnn_decode_step_program` buffers.
const RNN_X: BufferId = BufferId(0);
const RNN_WS: BufferId = BufferId(1);
const RNN_HS: BufferId = BufferId(2);
const RNN_HS_NEXT: BufferId = BufferId(3);

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Rnn,
    Attention,
}

/// What every session of a kind shares: its program, its weights and how
/// a session of it is opened.
struct Model {
    rnn: Arc<Program>,
    rnn_ws: FractalTensor,
    attention: Arc<Program>,
    attention_ws: (FractalTensor, FractalTensor, FractalTensor),
}

impl Model {
    fn new(seed: u64) -> Model {
        let (d, h) = RNN_DH;
        let mut rng = Rng::new(seed).fork(4);
        Model {
            rnn: Arc::new(rnn_decode_step_program(d, h)),
            rnn_ws: catalog::rnn_weights(d, h, rng.next_u64()),
            attention: Arc::new(decode::attention_decode_step_program(ATTN_H, ATTN_CAP)),
            attention_ws: decode::attention_weights(ATTN_H, rng.next_u64() >> 8),
        }
    }

    fn spec(&self, kind: Kind) -> SessionSpec {
        match kind {
            Kind::Rnn => SessionSpec {
                program: Arc::clone(&self.rnn),
                bindings: vec![StateBinding {
                    state: RNN_HS,
                    op: StateOp::Carry {
                        output: RNN_HS_NEXT,
                    },
                }],
                capacity: 0,
                init: decode::rnn_state_init(RNN_DH.0, RNN_DH.1),
            },
            Kind::Attention => SessionSpec {
                program: Arc::clone(&self.attention),
                bindings: vec![
                    StateBinding {
                        state: attn::KC,
                        op: StateOp::Append {
                            output: attn::K_STEP,
                        },
                    },
                    StateBinding {
                        state: attn::VC,
                        op: StateOp::Append {
                            output: attn::V_STEP,
                        },
                    },
                    StateBinding {
                        state: attn::MASK,
                        op: StateOp::AppendFill { value: 0.0 },
                    },
                ],
                capacity: ATTN_CAP,
                init: decode::attention_state_init(ATTN_H, ATTN_CAP),
            },
        }
    }

    /// The inputs a client sends with one step: the token and the weights.
    fn step_inputs(&self, kind: Kind, token: &FractalTensor) -> Buffers {
        match kind {
            Kind::Rnn => Buffers::from([(RNN_X, token.clone()), (RNN_WS, self.rnn_ws.clone())]),
            Kind::Attention => {
                let (wq, wk, wv) = &self.attention_ws;
                Buffers::from([
                    (attn::X, token.clone()),
                    (attn::WQ, wq.clone()),
                    (attn::WK, wk.clone()),
                    (attn::WV, wv.clone()),
                ])
            }
        }
    }

    /// One step on a fresh session's state, as a stateless program run:
    /// what the layer walk and the replay use.
    fn prog(&self, kind: Kind, token: &FractalTensor) -> Prog {
        let mut inputs = self.step_inputs(kind, token);
        inputs.extend(self.spec(kind).init);
        let (d, h, cap) = (RNN_DH.0, RNN_DH.1, ATTN_CAP);
        match kind {
            Kind::Rnn => Prog {
                name: "rnn_decode_step",
                program: Arc::clone(&self.rnn),
                inputs,
                tol: catalog::TOL,
                flops: (d * (2 * h * h + h)) as f64,
            },
            Kind::Attention => Prog {
                name: "attention_decode_step",
                program: Arc::clone(&self.attention),
                inputs,
                tol: catalog::TOL,
                flops: (3 * 2 * ATTN_H * ATTN_H + (cap + 1) * 4 * ATTN_H) as f64,
            },
        }
    }
}

/// One session as the generator sees it.
struct Session {
    kind: Kind,
    id: u64,
    tokens: Vec<FractalTensor>,
    /// Steps resolved since the section began, and since the session was
    /// last opened.
    steps: usize,
    steps_open: usize,
    /// Times the session was closed and reopened since the set-up.
    reopens: u64,
    flight: Option<(Ticket, Instant, u64)>,
}

impl Session {
    fn token(&self, step: usize) -> &FractalTensor {
        &self.tokens[step % TOKENS]
    }
}

fn open_sessions(rt: &Runtime, model: &Model, seed: u64) -> Vec<Session> {
    let mut rng = Rng::new(seed).fork(5);
    (0..SESSIONS)
        .map(|i| {
            // Every fourth session is an attention session.
            let kind = if i % 4 == 3 {
                Kind::Attention
            } else {
                Kind::Rnn
            };
            let width = if kind == Kind::Rnn { RNN_DH.1 } else { ATTN_H };
            Session {
                kind,
                id: rt.open_session(model.spec(kind)).expect("session opens"),
                tokens: (0..TOKENS)
                    .map(|_| {
                        FractalTensor::from_tensors(vec![Tensor::randn(
                            &[1, width],
                            rng.next_u64(),
                        )])
                        .expect("one token")
                    })
                    .collect(),
                steps: 0,
                steps_open: 0,
                reopens: 0,
                flight: None,
            }
        })
        .collect()
}

/// Closes a session and opens a fresh one in its place.
fn reopen(rt: &Runtime, model: &Model, s: &mut Session) {
    rt.close_session(s.id).expect("session closes");
    s.id = rt
        .open_session(model.spec(s.kind))
        .expect("session reopens");
    s.steps_open = 0;
    s.reopens += 1;
}

/// Lock-step rounds: every session submits a step, then all are awaited.
/// Returns tokens decoded. Only the saturated figure of a traced run uses it.
fn lock_step(
    rt: &Runtime,
    model: &Model,
    sessions: &mut [Session],
    stop: impl Fn(usize) -> bool,
) -> usize {
    let mut rounds = 0;
    while !stop(rounds) {
        let tickets: Vec<Ticket> = sessions
            .iter_mut()
            .map(|s| {
                if s.kind == Kind::Attention && s.steps_open == ATTN_CAP {
                    reopen(rt, model, s);
                }
                let inputs = model.step_inputs(s.kind, s.token(s.steps));
                s.steps += 1;
                s.steps_open += 1;
                rt.decode_step(s.id, inputs).expect("step is admitted")
            })
            .collect();
        for t in tickets {
            t.wait().expect("step succeeds");
        }
        rounds += 1;
    }
    rounds * sessions.len()
}

/// Runtime, sessions and warm-up: both step programs get their plan
/// families and the fused widths the closed loop produces, then every
/// session is reopened so the timed section starts from fresh state.
fn decode_setup(model: &Model, seed: u64) -> (Runtime, Vec<Session>) {
    let rt = serve::runtime();
    let mut sessions = open_sessions(&rt, model, seed);
    let warm = closed_loops(
        &rt,
        model,
        &mut sessions,
        Until::Steps(WARMUP_STEPS),
        0,
        &mut Tracer::new(false),
    );
    assert_eq!(warm.failed, 0, "warm-up steps succeed");
    for s in &mut sessions {
        reopen(&rt, model, s);
        s.steps = 0;
        s.reopens = 0;
    }
    (rt, sessions)
}

/// When the sessions stop taking new steps.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(f64),
    Steps(u64),
}

/// Every session in a closed loop of its own until `until`, then a drain of
/// the steps in flight. The generator polls the sessions in turn and never
/// blocks; a step is timed from its submission to the moment its result was
/// seen.
fn closed_loops(
    rt: &Runtime,
    model: &Model,
    sessions: &mut [Session],
    until: Until,
    first_op: u64,
    tracer: &mut Tracer,
) -> Timed {
    let mut out = Timed::default();
    let start = Instant::now();
    loop {
        let mut in_flight = false;
        for s in sessions.iter_mut() {
            if let Some((ticket, sent, op)) = &s.flight {
                let Some(result) = ticket.try_take() else {
                    in_flight = true;
                    continue;
                };
                let done = Instant::now();
                tracer.record("op", *op, *sent, done);
                let output = if s.kind == Kind::Rnn {
                    RNN_HS_NEXT
                } else {
                    attn::OUT
                };
                let sane = result.is_ok_and(|got| {
                    got.get(&output)
                        .and_then(last_leaf)
                        .is_some_and(|leaf| leaf.iter().all(f32::is_finite))
                });
                if sane {
                    out.samples.push(Sample {
                        end_s: done.duration_since(start).as_secs_f64(),
                        ms: done.duration_since(*sent).as_secs_f64() * 1e3,
                    });
                } else {
                    out.failed += 1;
                }
                s.flight = None;
                s.steps += 1;
                s.steps_open += 1;
            }
            let now = Instant::now();
            let stop = match until {
                Until::Elapsed(seconds) => now.duration_since(start).as_secs_f64() >= seconds,
                Until::Steps(steps) => out.attempted >= steps,
            };
            if stop {
                continue;
            }
            if s.kind == Kind::Attention && s.steps_open == ATTN_CAP {
                reopen(rt, model, s);
            }
            let inputs = model.step_inputs(s.kind, s.token(s.steps));
            let op = first_op + out.attempted;
            out.attempted += 1;
            match rt.decode_step(s.id, inputs) {
                Ok(ticket) => {
                    s.flight = Some((ticket, now, op));
                    in_flight = true;
                }
                Err(_) => {
                    out.failed += 1;
                    s.steps += 1;
                }
            }
        }
        if !in_flight {
            break;
        }
        std::thread::yield_now();
    }
    out
}

/// The interpreter's word on a session's final state.
///
/// An RNN session that took `k` steps holds, layer by layer, what
/// `stacked_rnn_program(1, d, k, h)` computes at its last time step from
/// the same tokens: one wrong step anywhere would carry into it. An
/// attention session holds the keys, values and mask its steps since it
/// was opened appended; they are reproduced by interpreting the step
/// program and applying the append rules by hand.
fn state_mismatch(rt: &Runtime, model: &Model, s: &Session) -> bool {
    let state = |id: BufferId| {
        rt.session_state(s.id, id)
            .expect("session state is readable")
    };
    match s.kind {
        Kind::Rnn => {
            let (d, h) = RNN_DH;
            if s.steps == 0 {
                return false;
            }
            let tokens: Vec<Tensor> = (0..s.steps)
                .map(|t| s.token(t).leaf(0).expect("token leaf").clone())
                .collect();
            let xss =
                FractalTensor::nested(
                    vec![FractalTensor::from_tensors(tokens).expect("token row")],
                )
                .expect("one sequence");
            let inputs = Buffers::from([
                (catalog::RNN_XSS, xss),
                (catalog::RNN_WS, model.rnn_ws.clone()),
            ]);
            let want = catalog::oracle(&stacked_rnn_program(1, d, s.steps, h), &inputs);
            let ysss = &want[&BufferId(2)];
            let hs = state(RNN_HS);
            (0..d).any(|layer| {
                let got = hs.leaf_at(&[0, layer]).expect("hidden layer");
                let want = ysss
                    .leaf_at(&[0, layer, s.steps - 1])
                    .expect("oracle layer");
                !tensors_close(got, want, catalog::TOL)
            })
        }
        Kind::Attention => {
            let mut cache = model.spec(Kind::Attention).init;
            let first = s.steps - s.steps_open;
            for row in 0..s.steps_open {
                let mut inputs = model.step_inputs(Kind::Attention, s.token(first + row));
                inputs.extend(cache.clone());
                let out = catalog::oracle(&model.attention, &inputs);
                let appended = [
                    (
                        attn::KC,
                        out[&attn::K_STEP].leaf(0).expect("key row").clone(),
                    ),
                    (
                        attn::VC,
                        out[&attn::V_STEP].leaf(0).expect("value row").clone(),
                    ),
                    (attn::MASK, Tensor::full(&[1, 1], 0.0)),
                ];
                for (id, leaf) in appended {
                    let rows = cache[&id].get(0).expect("cache rows");
                    let mut leaves: Vec<Tensor> = (0..ATTN_CAP)
                        .map(|r| rows.leaf(r).expect("cache row").clone())
                        .collect();
                    leaves[row] = leaf;
                    let rebuilt = FractalTensor::nested(vec![
                        FractalTensor::from_tensors(leaves).expect("cache rows")
                    ])
                    .expect("cache");
                    cache.insert(id, rebuilt);
                }
            }
            [attn::KC, attn::VC, attn::MASK]
                .iter()
                .any(|&id| !fractals_close(&state(id), &cache[&id], catalog::TOL))
        }
    }
}

pub fn serve_decode(args: &Args, tracer: &mut Tracer) -> Outcome {
    let model = Model::new(args.seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let ((rt, mut sessions), setup_s) = repeated_setup(reps, || decode_setup(&model, args.seed));

    // One step of each kind on fresh state, for the replay and the walk.
    let progs: Vec<Prog> = [Kind::Rnn, Kind::Attention]
        .iter()
        .map(|&kind| {
            let s = sessions.iter().find(|s| s.kind == kind);
            model.prog(kind, s.expect("both kinds serve").token(0))
        })
        .collect();

    let mut values = Values::new();
    let before = rt.stats();
    let mut timed = if args.trace {
        let _ = rt.take_completions();
        let mut records = Vec::new();
        let (traced, untraced, overhead) = alternate(
            args.seconds,
            tracer,
            |secs, _, first_op, tracer| {
                let until = Until::Elapsed(secs);
                let t = closed_loops(&rt, &model, &mut sessions, until, first_op, tracer);
                records.extend(rt.take_completions());
                t
            },
            |t| t,
        );
        let mut all = untraced;
        for (i, t) in traced.into_iter().enumerate() {
            all.absorb(t, i as f64 * slice_seconds(args.seconds));
        }
        let stats = rt.stats();
        let observed = Observed {
            before: before.clone(),
            after: stats.clone(),
            records,
        };
        values.insert("bench.trace_overhead_share", overhead);
        // A closed loop has no schedule to fall behind.
        values.insert("bench.generator_late_share", 0.0);
        values.insert("bench.samples", all.samples.len() as f64);
        values.insert(
            "serve.state_copies",
            (stats.state_copies - before.state_copies) as f64,
        );
        values.insert("serve.pinned_bytes", stats.pinned_bytes as f64);
        let reopens: u64 = sessions.iter().map(|s| s.reopens).sum();
        values.insert("serve.session_opens", reopens as f64);

        let refs: Vec<&Prog> = progs.iter().collect();
        let pool: Vec<Entry> = progs
            .iter()
            .enumerate()
            .map(|(i, p)| Entry::new(i, p, p.inputs.clone()))
            .collect();
        // One step in four comes from an attention session.
        let replayed = all.samples.len() / serve::REPLAY_EVERY;
        let section = Section {
            timed: &all,
            seconds: args.seconds / 2.0,
            late: 0,
            sampled: (0..replayed).map(|i| usize::from(i % 4 == 3)).collect(),
            observed,
        };
        serve::serving_metrics(&refs, &pool, &section, tracer, &mut values);
        all
    } else {
        let until = Until::Elapsed(args.seconds);
        let t = closed_loops(&rt, &model, &mut sessions, until, 0, tracer);
        values = end_to_end(setup_s, &t, args.seconds, Loop::Closed);
        t
    };

    // Outside the clock: every session's final state against the
    // interpreter, then the pinned bytes must all come back.
    let mut mismatch = sessions.iter().any(|s| state_mismatch(&rt, &model, s));
    if mismatch {
        eprintln!("oracle mismatch in a session's final state");
    }
    if args.trace {
        let started = Instant::now();
        let tokens = lock_step(&rt, &model, &mut sessions, |_| {
            started.elapsed() >= Duration::from_secs(1)
        });
        values.insert(
            "serve.decode_sat_tokens_per_s",
            tokens as f64 / started.elapsed().as_secs_f64(),
        );
    }
    for s in &sessions {
        rt.close_session(s.id).expect("session closes");
    }
    if rt.stats().pinned_bytes != 0 {
        eprintln!("pinned bytes did not return to zero");
        mismatch = true;
    }
    drop(rt);
    if args.trace {
        serve::layer_metrics(args, &progs, tracer, &mut values);
    }
    if mismatch {
        timed.failed = timed.attempted;
    }
    Outcome {
        attempted: timed.attempted,
        failed: timed.failed,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed: the same tokens for every session.
    #[test]
    fn same_seed_gives_the_same_sessions() {
        let model = Model::new(11);
        let rt = serve::runtime();
        let a = open_sessions(&rt, &model, 11);
        let b = open_sessions(&rt, &model, 11);
        let c = open_sessions(&rt, &model, 12);
        assert_eq!(a.len(), SESSIONS);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens);
        }
        assert!(a.iter().zip(&c).all(|(x, y)| x.tokens != y.tokens));
    }

    /// Enough steps to pass a reopen at capacity, and both kinds of final
    /// state agree with the interpreter.
    #[test]
    fn sessions_match_the_interpreter_across_a_reopen() {
        let model = Model::new(5);
        let (rt, mut sessions) = decode_setup(&model, 5);
        // 300 steps a session on average: the attention sessions pass their
        // 128-row capacity even at half the others' pace.
        let until = Until::Steps(300 * SESSIONS as u64);
        let t = closed_loops(
            &rt,
            &model,
            &mut sessions,
            until,
            0,
            &mut Tracer::new(false),
        );
        assert_eq!(t.attempted, 300 * SESSIONS as u64);
        assert_eq!(t.failed, 0);
        let reopens: u64 = sessions.iter().map(|s| s.reopens).sum();
        assert!(
            reopens >= SESSIONS as u64 / 4,
            "every attention session reopened"
        );
        assert!(sessions.iter().all(|s| !state_mismatch(&rt, &model, s)));
        assert_eq!(rt.stats().state_copies, 0);
        for s in &sessions {
            rt.close_session(s.id).unwrap();
        }
        assert_eq!(rt.stats().pinned_bytes, 0);
    }
}
