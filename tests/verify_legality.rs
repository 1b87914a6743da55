//! Schedule-legality checking across the full workload suite.
//!
//! Every schedule the compiler actually emits must verify with zero
//! findings, and hand-built illegal schedules — non-unimodular transforms,
//! hyperplanes that drop a dependence distance, access maps pushed out of
//! their buffer's domain — must be rejected with diagnostics naming the
//! offending group, block, and buffer.

use ft_affine::{AffineMap, IntMat};
use ft_core::builders::stacked_rnn_program;
use ft_core::program::BufferKind;
use ft_core::Program;
use ft_etdg::RegionRead;
use ft_passes::{compile, CompiledProgram};
use ft_verify::{compile_verified, verify, VerifyError};
use ft_workloads::{attention, b2b, bigbird, dilated, grid, lstm, retnet};

fn all_workloads() -> Vec<(&'static str, Program)> {
    vec![
        ("stacked_lstm", lstm::program(lstm::LstmShape::tiny())),
        ("dilated", dilated::program(dilated::DilatedShape::tiny())),
        ("grid", grid::program(grid::GridShape::tiny())),
        ("b2b", b2b::program(b2b::B2bShape::tiny())),
        (
            "attention",
            attention::program(attention::AttnShape::tiny()),
        ),
        ("bigbird", bigbird::program(bigbird::BigBirdShape::tiny())),
        ("retnet", retnet::program(retnet::RetNetShape::tiny())),
    ]
}

#[test]
fn every_workload_schedule_verifies_with_zero_findings() {
    for (name, program) in all_workloads() {
        let (compiled, report) =
            compile_verified(&program).unwrap_or_else(|e| panic!("{name}: schedule rejected: {e}"));
        assert!(!compiled.groups.is_empty(), "{name}: no groups");
        assert_eq!(report.groups, compiled.groups.len(), "{name}");
        assert!(report.maps > 0, "{name}: no access maps checked");
        assert!(report.points > 0, "{name}: no domain points enumerated");
    }
}

#[test]
fn tiny_workload_domains_are_checked_exhaustively() {
    // At tiny() shapes every workload fits under the verifier's point
    // cap, so the report must claim complete (not sampled) coverage —
    // which is what entitles the chaos suite to trust UnwrittenRead.
    for (name, program) in all_workloads() {
        let (_, report) = compile_verified(&program).unwrap();
        assert!(report.complete, "{name}: expected exhaustive enumeration");
    }
}

fn compiled_rnn() -> CompiledProgram {
    compile(&stacked_rnn_program(2, 3, 5, 4)).unwrap()
}

#[test]
fn zeroed_transform_is_rejected_naming_the_group() {
    let mut c = compiled_rnn();
    let d = c.groups[0].reordering.t.rows();
    c.groups[0].reordering.t = IntMat::zeros(d, d);
    let err = verify(&c).expect_err("singular transform must be rejected");
    assert!(matches!(err, VerifyError::NotUnimodular { group: 0, .. }));
    let msg = err.to_string();
    assert!(msg.contains("group 0"), "{msg}");
}

#[test]
fn reversed_hyperplane_drops_every_distance() {
    // Negating row 0 of T keeps it unimodular (|det| flips sign only) but
    // turns every carried distance's dot product negative — the scheduling
    // hyperplane now runs *against* the dependences. The stored inverse is
    // kept consistent (negate column 0) so the uncarried distance is the
    // only possible finding.
    let mut c = compiled_rnn();
    let baseline = verify(&c).unwrap();
    assert!(baseline.distances >= 1, "test needs a carried group");
    let r = &mut c.groups[0].reordering;
    let d = r.t.rows();
    for col in 0..d {
        let v = r.t.row(0)[col];
        r.t.set(0, col, -v);
    }
    for row in 0..d {
        let v = r.t_inv.row(row)[0];
        r.t_inv.set(row, 0, -v);
    }
    match verify(&c) {
        Err(VerifyError::UncarriedDistance { group: 0, dot, .. }) => {
            assert!(dot < 1, "reversed hyperplane cannot carry: dot={dot}");
        }
        other => panic!("expected UncarriedDistance, got {other:?}"),
    }
}

#[test]
fn out_of_range_map_in_a_workload_names_group_and_buffer() {
    // Corrupt an input-buffer read inside the attention schedule (two
    // launch groups) and check the diagnostic pins the right group.
    let mut c = compile(&attention::program(attention::AttnShape::tiny())).unwrap();
    assert!(c.groups.len() >= 2, "attention should fuse into 2+ groups");
    let inputs: Vec<bool> = c
        .etdg
        .buffers
        .iter()
        .map(|b| b.kind == BufferKind::Input)
        .collect();
    // Search from the last group backwards for a member that reads an
    // input buffer (input reads carry no dependence, so the corrupted
    // range is the only possible finding).
    let (target_group, member) = (0..c.groups.len())
        .rev()
        .find_map(|gi| {
            c.groups[gi]
                .members
                .iter()
                .copied()
                .find(|m| {
                    c.etdg.block(*m).reads.iter().any(
                        |rd| matches!(rd, RegionRead::Buffer { buffer, .. } if inputs[buffer.0]),
                    )
                })
                .map(|m| (gi, m))
        })
        .expect("some group reads an input buffer");
    let read = c.etdg.blocks[member.0]
        .reads
        .iter_mut()
        .find_map(|rd| match rd {
            RegionRead::Buffer { buffer, map } if inputs[buffer.0] => Some(map),
            _ => None,
        })
        .unwrap();
    let mut off = read.offset().to_vec();
    off[0] += 1_000_000;
    *read = AffineMap::new(read.matrix().clone(), off).unwrap();
    match verify(&c) {
        Err(VerifyError::MapOutOfRange { group, buffer, .. }) => {
            assert_eq!(group, Some(target_group), "wrong group named");
            assert!(!buffer.is_empty(), "buffer name missing");
        }
        other => panic!("expected MapOutOfRange, got {other:?}"),
    }
}

#[test]
fn verifier_stats_reach_the_probe() {
    // Other tests here verify concurrently and only ever add to these
    // counters, so this run's own stats are a lower bound on the delta.
    let reg = ft_obs::Registry::global();
    let names = ["verify.groups", "verify.maps", "verify.points"];
    let before = names.map(|k| reg.counter(k).get());
    ft_obs::enable();
    let report = verify(&compiled_rnn()).unwrap();
    let spans = ft_obs::take();
    ft_obs::disable();
    let own = [report.groups, report.maps, report.points];
    for ((name, b), own) in names.iter().zip(before).zip(own) {
        assert!(own > 0, "zero {name} in the report");
        assert!(
            reg.counter(name).get() - b >= own as u64,
            "{name} not counted"
        );
    }
    assert!(
        spans.events.iter().any(|e| e.name == "legality_check"),
        "verify span missing from the trace"
    );
}
