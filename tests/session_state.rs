//! Stateful-session integration tests (DESIGN.md §15).
//!
//! A session pins decode state — an RNN hidden stack, a KV cache —
//! server-side and advances it *in place* after every step. These tests
//! pin the contract that makes that safe to serve:
//!
//! * **Bitwise parity** — a K-step decode loop through the serving layer
//!   must equal the one-shot recompute-from-scratch reference bit for
//!   bit, at every thread count (CI also runs this suite under
//!   `FT_GUARD=1` and `FT_SIMD=scalar`).
//! * **Zero copies** — the in-place advance never deep-copies state on
//!   the well-formed path (`serve.state_copies` stays 0).
//! * **Isolation** — interleaved stateless traffic and other sessions
//!   never perturb a session's state; an abusive session is evicted
//!   without quarantining the plan others depend on; eviction returns
//!   the pinned-bytes gauge to baseline.
//! * **One compile per extent** — concurrent `PolyPlan::instance` misses
//!   for the same extent cost exactly one compile (the thundering-herd
//!   regression).

use std::collections::HashMap;
use std::sync::Arc;

use ft_backend::execute_reference;
use ft_core::builders::{rnn_decode_step_program, stacked_rnn_program};
use ft_core::{BufferId, FractalTensor};
use ft_passes::{compile, PolyPlan};
use ft_serve::{
    Request, Runtime, ServeConfig, ServeError, SessionError, SessionSpec, StateBinding, StateOp,
};
use ft_tensor::{assert_allclose, Tensor};
use ft_workloads::decode;

/// RNN decode-step state lives in `hs` (`BufferId(2)`), advanced by the
/// whole-handle carry of `hs_next` (`BufferId(3)`).
const RNN_HS: BufferId = BufferId(2);
const RNN_HS_NEXT: BufferId = BufferId(3);

fn rnn_session_spec(d: usize, h: usize) -> SessionSpec {
    SessionSpec {
        program: Arc::new(rnn_decode_step_program(d, h)),
        bindings: vec![StateBinding {
            state: RNN_HS,
            op: StateOp::Carry {
                output: RNN_HS_NEXT,
            },
        }],
        capacity: 0,
        init: decode::rnn_state_init(d, h),
    }
}

fn rnn_weights(d: usize, h: usize, seed: u64) -> FractalTensor {
    FractalTensor::from_tensors(
        (0..d)
            .map(|j| Tensor::randn(&[h, h], seed + j as u64).mul_scalar(0.2))
            .collect(),
    )
    .unwrap()
}

fn token(h: usize, seed: u64) -> Tensor {
    Tensor::randn(&[1, h], seed)
}

/// Drives `k` decode steps of one RNN session and returns the hidden
/// stack after every step (handles read back through the ticket).
fn run_rnn_session(
    rt: &Runtime,
    session: u64,
    ws: &FractalTensor,
    h: usize,
    k: usize,
    seed: u64,
) -> Vec<FractalTensor> {
    let mut states = Vec::new();
    for t in 0..k {
        let mut inputs = HashMap::new();
        inputs.insert(
            BufferId(0),
            FractalTensor::from_tensors(vec![token(h, seed + t as u64)]).unwrap(),
        );
        inputs.insert(BufferId(1), ws.clone());
        let got = rt.decode_step(session, inputs).unwrap().wait().unwrap();
        states.push(got[&RNN_HS_NEXT].clone());
    }
    states
}

/// The one-shot recompute-from-scratch reference: the full stacked RNN
/// over all `k` tokens through the single-threaded reference executor.
/// `ysss[0][j][t]` is layer `j`'s hidden state after step `t`.
fn rnn_one_shot(d: usize, h: usize, k: usize, ws: &FractalTensor, seed: u64) -> FractalTensor {
    let p = stacked_rnn_program(1, d, k, h);
    let compiled = compile(&p).unwrap();
    let tokens: Vec<Tensor> = (0..k).map(|t| token(h, seed + t as u64)).collect();
    let xss = FractalTensor::nested(vec![FractalTensor::from_tensors(tokens).unwrap()]).unwrap();
    let mut inputs = HashMap::new();
    inputs.insert(BufferId(0), xss);
    inputs.insert(BufferId(1), ws.clone());
    execute_reference(&compiled, &inputs, 1).unwrap()[&BufferId(2)].clone()
}

/// K decode steps through the serving layer are bitwise-identical to the
/// one-shot recompute at every thread count, with zero state copies.
#[test]
fn rnn_session_decode_is_bitwise_at_every_thread_count() {
    let (d, h, k) = (3usize, 8, 5);
    let ws = rnn_weights(d, h, 60);
    let one_shot = rnn_one_shot(d, h, k, &ws, 500);
    for threads in [1usize, 2, 8] {
        let rt = Runtime::new(ServeConfig {
            threads,
            ..ServeConfig::default()
        });
        let session = rt.open_session(rnn_session_spec(d, h)).unwrap();
        let states = run_rnn_session(&rt, session, &ws, h, k, 500);
        for (t, hs) in states.iter().enumerate() {
            for j in 0..d {
                assert_eq!(
                    hs.leaf_at(&[0, j]).unwrap(),
                    one_shot.leaf_at(&[0, j, t]).unwrap(),
                    "threads={threads} step {t} layer {j} diverged from one-shot recompute"
                );
            }
        }
        let stats = rt.stats();
        assert_eq!(stats.decode_steps, k as u64);
        assert_eq!(
            stats.state_copies, 0,
            "in-place carry must not deep-copy state (threads={threads})"
        );
        rt.close_session(session).unwrap();
    }
}

fn attn_session_spec(h: usize, cap: usize) -> SessionSpec {
    use decode::buffers as b;
    SessionSpec {
        program: Arc::new(decode::attention_decode_step_program(h, cap)),
        bindings: vec![
            StateBinding {
                state: b::KC,
                op: StateOp::Append { output: b::K_STEP },
            },
            StateBinding {
                state: b::VC,
                op: StateOp::Append { output: b::V_STEP },
            },
            StateBinding {
                state: b::MASK,
                op: StateOp::AppendFill { value: 0.0 },
            },
        ],
        capacity: cap,
        init: decode::attention_state_init(h, cap),
    }
}

/// The attention decode session — per-step KV append plus mask flip —
/// matches the eager full-softmax-over-history reference at every step,
/// with zero state copies, and the pinned cache itself is inspectable
/// and correct.
#[test]
fn attention_session_matches_eager_reference() {
    use decode::buffers as b;
    let (h, cap, k) = (8usize, 8, 6);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let (wq, wk, wv) = decode::attention_weights(h, 9);
    let session = rt.open_session(attn_session_spec(h, cap)).unwrap();
    let tokens: Vec<Tensor> = (0..k).map(|t| token(h, 900 + t as u64)).collect();
    let (wq_leaf, wk_leaf, wv_leaf) = (
        wq.leaf_at(&[0]).unwrap().clone(),
        wk.leaf_at(&[0]).unwrap().clone(),
        wv.leaf_at(&[0]).unwrap().clone(),
    );
    for t in 0..k {
        let mut inputs = HashMap::new();
        inputs.insert(
            b::X,
            FractalTensor::from_tensors(vec![tokens[t].clone()]).unwrap(),
        );
        inputs.insert(b::WQ, wq.clone());
        inputs.insert(b::WK, wk.clone());
        inputs.insert(b::WV, wv.clone());
        let got = rt.decode_step(session, inputs).unwrap().wait().unwrap();
        let out = got[&b::OUT].leaf_at(&[0]).unwrap().to_contiguous();
        let want = decode::reference_decode_step(&tokens[..=t], &wq_leaf, &wk_leaf, &wv_leaf);
        assert_allclose(&out, &want, 1e-4);
    }
    assert_eq!(rt.session_steps(session).unwrap(), k);

    // The pinned caches are directly inspectable: row t holds token t's
    // projected key; mask rows flip to visible exactly as far as decoded.
    let kc = rt.session_state(session, b::KC).unwrap();
    let mask = rt.session_state(session, b::MASK).unwrap();
    for t in 0..cap {
        let visible = mask.leaf_at(&[0, t]).unwrap().to_contiguous();
        match tokens.get(t) {
            Some(tok) => {
                let want = tok.matmul(&wk_leaf).unwrap();
                assert_allclose(&kc.leaf_at(&[0, t]).unwrap().to_contiguous(), &want, 1e-5);
                assert_eq!(visible, Tensor::zeros(&[1, 1]));
            }
            None => assert_eq!(visible, Tensor::full(&[1, 1], decode::MASKED)),
        }
    }
    let stats = rt.stats();
    assert_eq!(stats.decode_steps, k as u64);
    assert_eq!(
        stats.state_copies, 0,
        "KV append must replace rows in place"
    );
}

/// Two sessions interleaved with stateless one-shot traffic on the same
/// runtime: neither the other session nor the stateless requests may
/// perturb a session's pinned state — both decode loops stay bitwise
/// equal to their solo one-shot references.
#[test]
fn sessions_survive_interleaved_stateless_traffic() {
    let (d, h, k) = (2usize, 8, 4);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        max_batch: 8,
        ..ServeConfig::default()
    });
    let ws = rnn_weights(d, h, 70);
    let sa = rt.open_session(rnn_session_spec(d, h)).unwrap();
    let sb = rt.open_session(rnn_session_spec(d, h)).unwrap();
    let stateless = Arc::new(stacked_rnn_program(2, d, 3, h));
    let mut a_states = Vec::new();
    let mut b_states = Vec::new();
    for t in 0..k {
        a_states.extend(run_rnn_session(&rt, sa, &ws, h, 1, 1000 + t as u64));
        // Stateless traffic between the two sessions' steps.
        let mut inputs = HashMap::new();
        inputs.insert(
            BufferId(0),
            FractalTensor::from_flat(&Tensor::randn(&[2, 3, 1, h], 77 + t as u64), 2).unwrap(),
        );
        inputs.insert(BufferId(1), ws.clone());
        rt.submit_wait(Request::new(Arc::clone(&stateless), inputs))
            .unwrap()
            .wait()
            .unwrap();
        b_states.extend(run_rnn_session(&rt, sb, &ws, h, 1, 2000 + t as u64));
    }
    for (seed, states) in [(1000u64, &a_states), (2000, &b_states)] {
        // Each step used seed + t with a per-step base of seed + t, so the
        // token sequence is seed, seed+1, … — the same as one k-step run.
        let one_shot = rnn_one_shot(d, h, k, &ws, seed);
        for (t, hs) in states.iter().enumerate() {
            for j in 0..d {
                assert_eq!(
                    hs.leaf_at(&[0, j]).unwrap(),
                    one_shot.leaf_at(&[0, j, t]).unwrap(),
                    "session (seed {seed}) step {t} layer {j} was perturbed"
                );
            }
        }
    }
    assert_eq!(rt.stats().state_copies, 0);
}

/// A session that keeps decoding past its reserved append capacity is
/// struck and evicted — its pinned bytes return to baseline and the
/// *plan* stays healthy: no quarantine trip, and another session on the
/// same program keeps decoding.
#[test]
fn overflowing_session_is_evicted_without_quarantining_the_plan() {
    use decode::buffers as b;
    let (h, cap) = (8usize, 2);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        quarantine_threshold: 2,
        ..ServeConfig::default()
    });
    let (wq, wk, wv) = decode::attention_weights(h, 9);
    let step_inputs = |seed: u64| {
        let mut inputs = HashMap::new();
        inputs.insert(
            b::X,
            FractalTensor::from_tensors(vec![token(h, seed)]).unwrap(),
        );
        inputs.insert(b::WQ, wq.clone());
        inputs.insert(b::WK, wk.clone());
        inputs.insert(b::WV, wv.clone());
        inputs
    };

    assert_eq!(rt.stats().pinned_bytes, 0);
    let abuser = rt.open_session(attn_session_spec(h, cap)).unwrap();
    let victim = rt.open_session(attn_session_spec(h, cap)).unwrap();
    assert!(rt.stats().pinned_bytes > 0);
    assert_eq!(rt.stats().active_sessions, 2);

    // Fill the abuser's reserved headroom legitimately…
    for t in 0..cap {
        rt.decode_step(abuser, step_inputs(10 + t as u64))
            .unwrap()
            .wait()
            .unwrap();
    }
    // …then hammer past it. Every attempt is a typed session error that
    // strikes the session; the third strike evicts it.
    let mut overflows = 0;
    loop {
        match rt.decode_step(abuser, step_inputs(99)) {
            Err(ServeError::Session(SessionError::Overflow { session, capacity })) => {
                assert_eq!((session, capacity), (abuser, cap));
                overflows += 1;
            }
            Err(ServeError::Session(SessionError::NotFound(_))) => break,
            other => panic!("expected overflow-then-eviction, got {other:?}"),
        }
        assert!(overflows <= 8, "session was never evicted");
    }
    assert_eq!(overflows, 3, "eviction lands on the strike limit");

    let stats = rt.stats();
    assert_eq!(stats.session_evictions, 1);
    assert!(stats.session_errors >= 3);
    assert_eq!(stats.active_sessions, 1);
    assert_eq!(
        stats.quarantine_trips, 0,
        "session errors must never trip the plan's circuit breaker"
    );

    // The plan the abuser hammered still serves the victim.
    rt.decode_step(victim, step_inputs(200))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(rt.stats().quarantine_rejected, 0);

    // Closing the last session returns the pinned-bytes gauge to zero.
    rt.close_session(victim).unwrap();
    let stats = rt.stats();
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(
        stats.pinned_bytes, 0,
        "eviction + close must free pinned state"
    );
}

/// The thundering-herd regression: 8 threads hammering
/// [`PolyPlan::instance`] across 6 extents must cost exactly one compile
/// per distinct extent — the instantiation counter equals actual
/// compiles, not racers.
#[test]
fn concurrent_poly_instance_compiles_once_per_extent() {
    let plan = Arc::new(
        PolyPlan::build(&stacked_rnn_program(4, 2, 3, 8))
            .unwrap()
            .expect("stacked RNN is poly-eligible"),
    );
    assert_eq!(plan.instantiations(), 1, "build primes the template extent");

    let extents: Vec<usize> = (1..=6).collect();
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let plan = Arc::clone(&plan);
            let extents = extents.clone();
            std::thread::spawn(move || {
                for round in 0..3usize {
                    for i in 0..extents.len() {
                        // Stagger per-thread visit order so every extent
                        // sees genuinely concurrent first-misses.
                        let l = extents[(i + t as usize + round) % extents.len()];
                        plan.instance(l).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(
        plan.instantiations(),
        extents.len() as u64,
        "each distinct extent must compile exactly once across 8 threads"
    );
    assert_eq!(plan.cached_instances(), extents.len());
}

/// Sixteen concurrent decode sessions: their steps fuse into shared
/// launches, no step copies session state after warm-up, and closing every
/// session returns the pinned bytes to zero.
#[test]
fn sixteen_sessions_fuse_steps_without_state_copies() {
    let (d, h) = (2usize, 16);
    let rt = Runtime::new(ServeConfig {
        threads: 2,
        max_batch: 16,
        ..ServeConfig::default()
    });
    let ws = rnn_weights(d, h, 80);
    let ids: Vec<u64> = (0..16)
        .map(|_| rt.open_session(rnn_session_spec(d, h)).unwrap())
        .collect();
    // One round submits a step of every session, then waits for all.
    let round = |t: u64| {
        let tickets: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(c, &sid)| {
                let mut inputs = HashMap::new();
                let x = token(h, 1000 * c as u64 + t);
                inputs.insert(BufferId(0), FractalTensor::from_tensors(vec![x]).unwrap());
                inputs.insert(BufferId(1), ws.clone());
                rt.decode_step(sid, inputs).unwrap()
            })
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
    };
    round(0);
    round(1);
    let warm = rt.stats();
    for t in 2..10 {
        round(t);
    }
    let stats = rt.stats();
    assert_eq!(stats.decode_steps, 16 * 10);
    assert!(
        stats.batches > warm.batches,
        "continuous batching never fused concurrent decode steps"
    );
    assert_eq!(
        stats.state_copies, warm.state_copies,
        "a decode step deep-copied session state after warm-up"
    );
    assert!(stats.pinned_bytes > 0);
    for sid in ids {
        rt.close_session(sid).unwrap();
    }
    assert_eq!(
        rt.stats().pinned_bytes,
        0,
        "closing every session left pinned bytes behind"
    );
}
