//! Schedule-legality checking across the full workload suite.
//!
//! Every schedule the compiler actually emits must verify with zero
//! findings, and hand-built illegal schedules — non-unimodular transforms,
//! hyperplanes that drop a dependence distance, access maps pushed out of
//! their buffer's domain, reads ahead of their writers or of indices no one
//! writes — must be rejected with diagnostics naming the offending group,
//! block, and buffer. The per-map decisions of `verify` are cross-checked
//! against the per-point reference (`verify_enumerated`) on every workload
//! and every mutation.

use ft_affine::{AffineMap, IntBox, IntMat};
use ft_core::builders::stacked_rnn_program;
use ft_core::program::BufferKind;
use ft_core::Program;
use ft_etdg::{sample_points, BlockId, RegionRead};
use ft_passes::{compile, CompiledProgram};
use ft_verify::{compile_verified, verify, verify_enumerated, VerifyError, POINT_CAP};
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
        assert_eq!(report.points, 0, "{name}: a map fell back to points");
        let enumerated = verify_enumerated(&compiled).unwrap();
        assert!(enumerated.points > 0, "{name}: no domain points enumerated");
    }
}

/// The eight evaluation-sized programs of the benchmark's cold-compile
/// sweep: the paper's six workloads and RetNet, and the running example.
fn paper_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("stacked_lstm", lstm::program(lstm::LstmShape::paper())),
        ("dilated", dilated::program(dilated::DilatedShape::paper())),
        ("grid", grid::program(grid::GridShape::paper())),
        ("b2b", b2b::program(b2b::B2bShape::paper())),
        (
            "attention",
            attention::program(attention::AttnShape::paper()),
        ),
        ("bigbird", bigbird::program(bigbird::BigBirdShape::paper())),
        (
            "retnet",
            retnet::program(retnet::RetNetShape::default_shape()),
        ),
        ("stacked_rnn", stacked_rnn_program(4, 8, 64, 32)),
    ]
}

#[test]
fn tiny_workload_domains_are_checked_exhaustively() {
    // Every access map is decided over its whole domain, so the report
    // claims complete coverage — which is what entitles the chaos suite to
    // trust UnwrittenRead. That holds at evaluation sizes too, where the
    // per-point sweep could only sample.
    for (name, program) in all_workloads().into_iter().chain(paper_programs()) {
        let (_, report) = compile_verified(&program).unwrap();
        assert!(report.complete, "{name}: expected exhaustive coverage");
        assert_eq!(report.points, 0, "{name}: a map fell back to points");
    }
}

#[test]
fn map_rules_agree_with_the_per_point_reference() {
    let programs = all_workloads()
        .into_iter()
        .chain([("stacked_rnn", stacked_rnn_program(2, 3, 5, 4))]);
    for (name, program) in programs {
        let compiled = compile(&program).unwrap();
        let by_map = verify(&compiled).unwrap_or_else(|e| panic!("{name}: {e}"));
        let by_point = verify_enumerated(&compiled).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            (by_map.groups, by_map.maps, by_map.distances),
            (by_point.groups, by_point.maps, by_point.distances),
            "{name}"
        );
        assert!(by_point.complete, "{name}: tiny domains enumerate in full");
    }
}

/// Both paths reject a mutation with the same verdict, naming the same
/// group, block and buffer; returns the default path's error.
fn rejected_alike(c: &CompiledProgram) -> VerifyError {
    let by_map = verify(c).expect_err("map rules must reject");
    let by_point = verify_enumerated(c).expect_err("per-point reference must reject");
    assert_eq!(
        verdict(&by_map),
        verdict(&by_point),
        "{by_map} vs {by_point}"
    );
    by_map
}

/// Variant, group, block and buffer of an access-level rejection.
fn verdict(e: &VerifyError) -> (&'static str, usize, String, String) {
    match e {
        VerifyError::WavefrontOrder {
            group,
            block,
            buffer,
            ..
        } => ("order", *group, block.clone(), buffer.clone()),
        VerifyError::UnwrittenRead {
            group,
            block,
            buffer,
            ..
        } => ("unwritten", *group, block.clone(), buffer.clone()),
        VerifyError::MapOutOfRange {
            group,
            block,
            buffer,
            ..
        } => (
            "range",
            group.unwrap_or(usize::MAX),
            block.clone(),
            buffer.clone(),
        ),
        other => panic!("not an access-level verdict: {other:?}"),
    }
}

/// The member named `block` and the position of its read of `buffer`.
fn find_read(c: &CompiledProgram, block: &str, buffer: &str) -> (BlockId, usize) {
    let m = c
        .etdg
        .blocks
        .iter()
        .position(|b| b.name == block)
        .unwrap_or_else(|| panic!("no block {block}"));
    let k = c.etdg.blocks[m]
        .reads
        .iter()
        .position(|rd| matches!(rd, RegionRead::Buffer { buffer: b, .. } if c.etdg.buffer(*b).name == buffer))
        .unwrap_or_else(|| panic!("{block} does not read {buffer}"));
    (BlockId(m), k)
}

/// Replaces read `k` of `member` by the same matrix with offset `off`.
fn set_read_offset(c: &mut CompiledProgram, member: BlockId, k: usize, off: Vec<i64>) {
    let RegionRead::Buffer { map, .. } = &mut c.etdg.blocks[member.0].reads[k] else {
        unreachable!("find_read returns buffer reads");
    };
    *map = AffineMap::new(map.matrix().clone(), off).unwrap();
}

#[test]
fn read_shifted_onto_a_same_step_writer_is_a_wavefront_order_violation() {
    // region1 (layers >= 1, first step) reads the layer below,
    // ysss[i][j-1][0], one hyperplane step earlier. Shifted to ysss[i][j][0]
    // the read stays in range but lands on region1's own output at the same
    // point: a same-step writer that is not an earlier member, so nothing
    // forwards the value. A zero shift is no dependence distance, so the
    // hyperplane check (invariant 2) has nothing to say about it.
    let mut c = compiled_rnn();
    let (member, k) = find_read(&c, "stacked_rnn/region1", "ysss");
    set_read_offset(&mut c, member, k, vec![0, 0, 0]);
    match rejected_alike(&c) {
        VerifyError::WavefrontOrder {
            group: 0,
            block,
            buffer,
            point,
            write_step,
            read_step,
            ..
        } => {
            assert_eq!(
                (block.as_str(), buffer.as_str()),
                ("stacked_rnn/region1", "ysss")
            );
            assert_eq!(point, vec![0, 1, 0], "first violating read point");
            assert_eq!(write_step, read_step);
        }
        other => panic!("expected WavefrontOrder, got {other:?}"),
    }
}

#[test]
fn read_offset_onto_a_never_written_index_is_an_unwritten_read() {
    // The retention state buffer gains a row no member writes; region1's
    // carried read state[i][j-1] is offset one row down, onto
    // state[i+1][j-1]. For i = 0 that is a real, earlier-step value; for
    // the last i it is the new row, which nothing ever produces.
    let mut c = compile(&retnet::program(retnet::RetNetShape::tiny())).unwrap();
    let state = c
        .etdg
        .buffers
        .iter()
        .position(|b| b.name == "state")
        .unwrap();
    c.etdg.buffers[state].dims[0] += 1;
    let (member, k) = find_read(&c, "retention/region1", "state");
    set_read_offset(&mut c, member, k, vec![1, -1]);
    let rows = c.etdg.block(member).extents[0] as i64;
    match rejected_alike(&c) {
        VerifyError::UnwrittenRead {
            group: 0,
            block,
            buffer,
            point,
            index,
        } => {
            assert_eq!(
                (block.as_str(), buffer.as_str()),
                ("retention/region1", "state")
            );
            assert_eq!(point, vec![rows - 1, 1], "first read of the unwritten row");
            assert_eq!(index, vec![rows, 0]);
        }
        other => panic!("expected UnwrittenRead, got {other:?}"),
    }
}

#[test]
fn every_region_of_the_paper_workloads_is_sampled() {
    // The per-point fallback strides over each member's own box, so a
    // region confined to a face of the extents hull (LSTM's regions 2 and
    // 3, BigBird's region0) still gets samples.
    for (name, program) in paper_programs() {
        let c = compile(&program).unwrap();
        for block in &c.etdg.blocks {
            let samples = sample_points(&block.domain, &block.extents, POINT_CAP);
            assert!(!samples.is_empty(), "{name}: {} got no samples", block.name);
        }
    }
}

#[test]
fn the_sampler_reaches_the_region_corner_the_map_rules_reject() {
    // BigBird at its evaluation shape: region0 is the single column
    // j = blocks-1, so shifting its qss read one row down leaves the
    // buffer at exactly one point, the column's last corner. Both the
    // map rules and the per-point sweep, which samples the column itself,
    // reject the corrupted program at that corner.
    let mut c = compile(&bigbird::program(bigbird::BigBirdShape::paper())).unwrap();
    let (member, k) = find_read(&c, "bigbird/region0", "qss");
    let block = c.etdg.block(member);
    let dom = block
        .domain
        .box_within(&IntBox::hull(&block.extents))
        .expect("region domains are boxes");
    assert_eq!(dom.hi[1] - dom.lo[1], 1, "region0 is one column");
    let corner: Vec<i64> = dom.hi.iter().map(|h| h - 1).collect();
    let samples = sample_points(&block.domain, &block.extents, POINT_CAP);
    assert!(
        samples.contains(&corner),
        "the sampler must reach the corner"
    );
    let RegionRead::Buffer { map, .. } = &block.reads[k] else {
        unreachable!()
    };
    assert_eq!(map.matrix().row(0), &[1, 0]);
    let mut off = map.offset().to_vec();
    off[0] += 1;
    set_read_offset(&mut c, member, k, off);

    let err = rejected_alike(&c);
    assert_eq!(
        verdict(&err),
        ("range", 0, "bigbird/region0".to_string(), "qss".to_string())
    );
    let VerifyError::MapOutOfRange { point, index, .. } = err else {
        unreachable!()
    };
    assert_eq!(point, corner);
    assert_eq!(index[0], corner[0] + 1);
    let Err(VerifyError::MapOutOfRange { point, .. }) = verify_enumerated(&c) else {
        unreachable!()
    };
    assert_eq!(point, corner, "the sweep meets only the corner");
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
    let names = ["verify.groups", "verify.maps", "verify.distances"];
    let before = names.map(|k| reg.counter(k).get());
    ft_obs::enable();
    let report = verify(&compiled_rnn()).unwrap();
    let spans = ft_obs::take();
    ft_obs::disable();
    let own = [report.groups, report.maps, report.distances];
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
