//! Behavioral tests for spans: nesting under concurrency, a well-formed
//! Chrome trace, the bounded buffer, and strict no-op behavior when off.
//!
//! The collector is global, so every test serializes on one mutex and
//! drains the collector before and after itself.

use std::sync::Mutex;

use ft_obs::{chrome_trace, Registry};

static GUARD: Mutex<()> = Mutex::new(());

fn isolated<T>(f: impl FnOnce() -> T) -> T {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    ft_obs::enable();
    let _ = ft_obs::take();
    let out = f();
    ft_obs::disable();
    let _ = ft_obs::take();
    out
}

#[test]
fn spans_nest_and_close_on_one_thread() {
    let snap = isolated(|| {
        {
            let mut outer = ft_obs::span("t", "outer");
            outer.field("k", 1u64);
            {
                let _inner = ft_obs::span("t", "inner");
            }
        }
        ft_obs::take()
    });
    // Completion order: inner closes first.
    assert_eq!(snap.events.len(), 2);
    assert_eq!(snap.events[0].name, "inner");
    assert_eq!(snap.events[1].name, "outer");
    let (inner, outer) = (&snap.events[0], &snap.events[1]);
    assert_eq!(inner.tid, outer.tid, "same thread, same track");
    // Interval containment is what makes Perfetto stack them.
    assert!(outer.ts_us <= inner.ts_us);
    assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1e-3);
    assert_eq!(
        outer.fields,
        vec![("k".to_string(), ft_obs::FieldValue::U64(1))]
    );
}

#[test]
fn concurrent_threads_get_disjoint_tracks_with_nested_spans() {
    const THREADS: usize = 8;
    const DEPTH: usize = 5;
    let snap = isolated(|| {
        std::thread::scope(|s| {
            for i in 0..THREADS {
                s.spawn(move || {
                    fn nest(level: usize, worker: usize) {
                        if level == 0 {
                            return;
                        }
                        let mut sp = ft_obs::span("t", "level");
                        sp.field("worker", worker);
                        sp.field("level", level);
                        nest(level - 1, worker);
                    }
                    nest(DEPTH, i);
                });
            }
        });
        ft_obs::take()
    });
    assert_eq!(snap.events.len(), THREADS * DEPTH);
    // Each thread owns a distinct tid, and within a tid the spans nest by
    // containment (deeper spans start later and end earlier).
    let mut by_tid: std::collections::BTreeMap<u64, Vec<&ft_obs::Event>> = Default::default();
    for e in &snap.events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    assert_eq!(by_tid.len(), THREADS, "one track per worker thread");
    for events in by_tid.values() {
        assert_eq!(events.len(), DEPTH);
        let mut sorted = events.clone();
        sorted.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        for pair in sorted.windows(2) {
            let (parent, child) = (pair[0], pair[1]);
            assert!(parent.ts_us <= child.ts_us);
            assert!(
                child.ts_us + child.dur_us <= parent.ts_us + parent.dur_us + 1e-3,
                "child must close before its parent"
            );
        }
    }
}

#[test]
fn chrome_trace_parses_back_with_well_formed_events() {
    let snap = isolated(|| {
        {
            let mut sp = ft_obs::span("compile", "pass.parse");
            sp.field("blocks", 4u64);
            sp.field("label", "lstm");
        }
        ft_obs::complete_event(
            "sim",
            "kernel.gemm",
            ft_obs::SIM_PID,
            0,
            125.0,
            40.0,
            vec![("dram_bytes".into(), 4096u64.into())],
        );
        ft_obs::set_thread_label(ft_obs::WALL_PID, 0, "main");
        ft_obs::take()
    });
    let reg = Registry::new();
    reg.counter_add("sim.dram_bytes", 4096);

    let trace = chrome_trace(&snap, &reg.snapshot());
    let text = serde_json::to_string_pretty(&trace).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();

    let events = parsed["traceEvents"].as_array().unwrap();
    let (mut complete, mut counters, mut meta) = (0, 0, 0);
    for e in events {
        match e["ph"].as_str().unwrap() {
            "X" => {
                complete += 1;
                assert!(e["ts"].as_f64().unwrap() >= 0.0);
                assert!(e["dur"].as_f64().unwrap() >= 0.0);
                assert!(e["name"].as_str().is_some());
                assert!(e["pid"].as_u64().is_some());
                assert!(e["tid"].as_u64().is_some());
            }
            "C" => {
                counters += 1;
                assert_eq!(e["name"], "sim.dram_bytes");
                assert_eq!(e["args"]["value"].as_u64(), Some(4096));
            }
            "M" => meta += 1,
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(complete, 2);
    assert_eq!(counters, 1, "one sample per registry counter");
    assert!(meta >= 3, "two process names + one thread name");

    // The sim event kept its explicit pid and simulated timestamps.
    let sim = events
        .iter()
        .find(|e| e["name"] == "kernel.gemm")
        .expect("sim event present");
    assert_eq!(sim["pid"].as_u64(), Some(ft_obs::SIM_PID));
    assert_eq!(sim["ts"].as_f64(), Some(125.0));
    assert_eq!(sim["args"]["dram_bytes"].as_u64(), Some(4096));
}

#[test]
fn span_buffer_is_bounded_and_counts_drops() {
    const OVER: usize = 17;
    let dropped = Registry::global().counter("obs.spans_dropped");
    let (snap, before) = isolated(|| {
        let before = dropped.get();
        for _ in 0..ft_obs::SPAN_BUFFER_CAP + OVER {
            let _sp = ft_obs::span("t", "flood");
        }
        (ft_obs::take(), before)
    });
    assert_eq!(snap.events.len(), ft_obs::SPAN_BUFFER_CAP);
    assert_eq!(dropped.get() - before, OVER as u64);
    // Draining frees the budget again.
    let after = isolated(|| {
        drop(ft_obs::span("t", "after"));
        ft_obs::take()
    });
    assert_eq!(after.events.len(), 1);
}

#[test]
fn disabled_spans_record_nothing_and_are_inert() {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    ft_obs::disable();
    let _ = ft_obs::take();

    {
        let mut sp = ft_obs::span("t", "ignored");
        assert!(!sp.is_recording());
        sp.field("k", 1u64);
    }
    ft_obs::complete_event("t", "ignored", 1, 0, 0.0, 1.0, vec![]);
    ft_obs::set_thread_label(1, 0, "ignored");

    let snap = ft_obs::take();
    assert!(snap.events.is_empty());
    assert!(snap.thread_labels.is_empty());
}
