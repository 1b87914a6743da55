//! Shape-polymorphic plan parity (DESIGN.md §14).
//!
//! A compiled plan family is symbolic over the outer Map extent: the
//! layout/lifetime pass stores stride/size *formulas* and evaluates them
//! at dispatch. These tests pin the contract that makes that safe to
//! serve:
//!
//! * **Bitwise parity** — a family instantiated at extent `n` must equal
//!   a fresh exact-shape compile of the same program, bit for bit, at
//!   every thread count. CI runs the suite under both `FT_SIMD=scalar`
//!   and the native SIMD path, so the property holds across kernel
//!   backends too.
//! * **One cache entry serves every length** — [`PolyCache`] keys on the
//!   shape-insensitive family identity; N distinct-extent programs of one
//!   structure cost one build and N−1 hits.
//! * **A fused launch reads its parts in place** — one launch over ragged
//!   parts ([`Executor::run_parts`]) hands every part exactly what its
//!   solo run and the interpreter compute, without cloning an input leaf,
//!   and rejects a part whose dims disagree with its extent before
//!   anything runs.

use std::collections::HashMap;

use ft_backend::{ExecError, Executor};
use ft_core::adt::FractalTensor;
use ft_core::builders::stacked_rnn_program;
use ft_core::interp::run_program;
use ft_core::{poly_split, BufferId, Program};
use ft_passes::{compile, PolyCache, PolyPlan};
use ft_tensor::Tensor;
use proptest::prelude::*;

type Outputs = HashMap<BufferId, FractalTensor>;

fn rnn_inputs(n: usize, d: usize, l: usize, h: usize, seed: u64) -> Outputs {
    let mut inputs = HashMap::new();
    inputs.insert(
        BufferId(0),
        FractalTensor::from_flat(&Tensor::randn(&[n, l, 1, h], seed), 2).unwrap(),
    );
    inputs.insert(
        BufferId(1),
        FractalTensor::from_flat(&Tensor::randn(&[d, h, h], seed + 1).mul_scalar(0.2), 1).unwrap(),
    );
    inputs
}

fn assert_bitwise_eq(got: &Outputs, want: &Outputs, label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: output buffer sets differ");
    for (id, w) in want {
        let g = got
            .get(id)
            .unwrap_or_else(|| panic!("{label}: missing output {id:?}"));
        let gf = g.to_flat().expect("flatten poly output");
        let wf = w.to_flat().expect("flatten exact output");
        assert_eq!(gf.dims(), wf.dims(), "{label}: dims differ for {id:?}");
        let gb: Vec<u32> = gf.to_vec().iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = wf.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, wb, "{label}: bit drift in {id:?}");
    }
}

fn family_for(template: &Program) -> PolyPlan {
    PolyPlan::build(template)
        .expect("family build")
        .expect("stacked RNN has a polymorphic outer axis")
}

/// A family built once (at the template extent) and instantiated at a
/// spread of other extents matches a fresh exact-shape compile bit for
/// bit, at 1/2/8 threads.
#[test]
fn poly_instance_bitwise_matches_exact_compile() {
    let (d, l, h) = (2usize, 3, 8);
    let family = family_for(&stacked_rnn_program(2, d, l, h));
    for &n in &[1usize, 2, 3, 5, 8] {
        let exact = compile(&stacked_rnn_program(n, d, l, h)).expect("exact compile");
        let inputs = rnn_inputs(n, d, l, h, 100 + n as u64);
        for &threads in &[1usize, 2, 8] {
            let exec = Executor::new().threads(threads);
            let want = exec.run(&exact, &inputs).expect("exact run");
            let got = exec
                .run_poly(&family, n, &inputs, None)
                .expect("poly instance run");
            assert_bitwise_eq(&got, &want, &format!("n={n} t={threads}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Randomized extent pairs (template extent, dispatch extent): the
    /// instance at the dispatch extent is bitwise-identical to the exact
    /// compile regardless of which extent the family was built from.
    #[test]
    fn poly_parity_over_random_extents(
        template in 1usize..6,
        n in 1usize..9,
        d in 1usize..3,
        l in 2usize..5,
        seed in 0u64..1000,
    ) {
        let h = 8usize;
        let family = family_for(&stacked_rnn_program(template, d, l, h));
        let exact = compile(&stacked_rnn_program(n, d, l, h)).expect("exact compile");
        let inputs = rnn_inputs(n, d, l, h, seed);
        for &threads in &[1usize, 2, 8] {
            let exec = Executor::new().threads(threads);
            let want = exec.run(&exact, &inputs).expect("exact run");
            let got = exec.run_poly(&family, n, &inputs, None).expect("poly run");
            assert_bitwise_eq(&got, &want, &format!("tmpl={template} n={n} t={threads}"));
        }
    }
}

/// One [`PolyCache`] entry serves N distinct outer extents: the first
/// program of a structure builds the family, every other extent hits the
/// same entry (the builder never re-runs), and each request's extent
/// instantiates from the shared family.
#[test]
fn one_cache_entry_serves_many_lengths() {
    let (d, l, h) = (2usize, 3, 8);
    let cache = PolyCache::new();
    let extents = [2usize, 1, 3, 5, 8];
    let mut builds = 0u32;
    for &n in &extents {
        let p = stacked_rnn_program(n, d, l, h);
        let split = poly_split(&p).expect("polymorphic split");
        let (family, hit) = cache
            .get_or_build_with(&p, &split, |prog| {
                builds += 1;
                PolyPlan::family(prog)
            })
            .expect("family lookup");
        assert_eq!(hit, n != extents[0], "only the first extent may miss");
        // Instantiation at this request's extent must succeed from the
        // shared family.
        family.instance(n).expect("instantiate at extent");
    }
    assert_eq!(builds, 1, "one structure must compile exactly once");
    assert_eq!(cache.len(), 1, "one entry serves every length");
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), extents.len() as u64 - 1);
}

/// Different structures (inner shape differs) do not collide: the cache
/// holds one entry per structural family, not one global template.
#[test]
fn distinct_structures_get_distinct_entries() {
    let cache = PolyCache::new();
    for (d, l, h) in [(2usize, 3usize, 8usize), (3, 4, 8), (2, 3, 16)] {
        for n in [2usize, 4] {
            let p = stacked_rnn_program(n, d, l, h);
            let split = poly_split(&p).expect("polymorphic split");
            cache
                .get_or_build_with(&p, &split, PolyPlan::family)
                .expect("family lookup");
        }
    }
    assert_eq!(cache.len(), 3, "one entry per structural family");
    assert_eq!(cache.misses(), 3);
    assert_eq!(cache.hits(), 3);
}

/// The members of a ragged batch: the inputs of one stacked RNN request
/// per extent, all sharing one weight stack.
fn ragged_members(extents: &[usize], d: usize, l: usize, h: usize) -> Vec<Outputs> {
    let ws = rnn_inputs(1, d, l, h, 7)[&BufferId(1)].clone();
    extents
        .iter()
        .enumerate()
        .map(|(m, &n)| {
            let mut inputs = rnn_inputs(n, d, l, h, 300 + m as u64);
            inputs.insert(BufferId(1), ws.clone());
            inputs
        })
        .collect()
}

/// One launch over ragged parts gives every part, bit for bit, its solo
/// run and the `ft-core` interpreter's result, at 1 and 2 threads with
/// guard mode off and on, and clones neither an input leaf nor an output.
#[test]
fn parts_match_solo_runs_and_the_interpreter() {
    let (d, l, h) = (2usize, 3, 8);
    let family = family_for(&stacked_rnn_program(2, d, l, h));
    for extents in [&[1usize, 3, 2][..], &[8], &[2, 2]] {
        let members = ragged_members(extents, d, l, h);
        let parts: Vec<_> = extents.iter().copied().zip(&members).collect();
        for threads in [1usize, 2] {
            for guard in [false, true] {
                let label = format!("parts={extents:?} t={threads} guard={guard}");
                let exec = Executor::new().threads(threads).guard(guard);
                let got = exec.run_parts(&family, &parts, None).expect("parts run");
                assert_eq!(got.len(), parts.len(), "{label}: one output map per part");
                for (m, (&(n, inputs), out)) in parts.iter().zip(&got).enumerate() {
                    let solo = exec.run_poly(&family, n, inputs, None).expect("solo run");
                    assert_bitwise_eq(out, &solo, &format!("{label} member {m} vs solo"));
                    let interp = run_program(&stacked_rnn_program(n, d, l, h), inputs).unwrap();
                    let want: Outputs = out.keys().map(|id| (*id, interp[id].clone())).collect();
                    assert_bitwise_eq(out, &want, &format!("{label} member {m} vs interpreter"));
                }
                let stats = exec.arena_stats();
                assert_eq!(stats.leaf_clones, 0, "{label}: an input leaf was cloned");
                assert!(stats.leaf_borrows > 0, "{label}: no leaf was read in place");
                assert_eq!(stats.output_clones, 0, "{label}: every output is batched");
            }
        }
    }
}

/// A part whose outer extent disagrees with its inputs' dims is a typed
/// input error, raised before the launch takes an arena or a step runs,
/// even when the wrong extents sum to the right total.
#[test]
fn a_part_with_the_wrong_extent_is_an_input_error() {
    let (d, l, h) = (2usize, 3, 8);
    let family = family_for(&stacked_rnn_program(2, d, l, h));
    let members = ragged_members(&[1, 3], d, l, h);
    let exec = Executor::new().threads(2);
    let err = exec
        .run_parts(&family, &[(2, &members[0]), (2, &members[1])], None)
        .expect_err("extents 2 + 2 over parts of 1 and 3 rows");
    assert!(matches!(err, ExecError::Input(_)), "{err:?}");
    assert_eq!(exec.arena_stats().acquires, 0, "the launch must not start");
    let err = exec
        .run_parts(&family, &[], None)
        .expect_err("a launch of no parts");
    assert!(matches!(err, ExecError::Input(_)), "{err:?}");
}

/// A one-part run moves its outputs out of the launch: an exact-shape run
/// treats every output as shared, and still clones none of them.
#[test]
fn a_one_part_run_moves_its_outputs() {
    let (d, l, h) = (2usize, 3, 8);
    let exact = compile(&stacked_rnn_program(3, d, l, h)).expect("exact compile");
    let family = family_for(&stacked_rnn_program(2, d, l, h));
    let inputs = rnn_inputs(3, d, l, h, 11);
    let exec = Executor::new().threads(1);
    let want = exec.run(&exact, &inputs).expect("exact run");
    let got = exec.run_poly(&family, 3, &inputs, None).expect("poly run");
    assert_bitwise_eq(&got, &want, "one part");
    assert_eq!(exec.arena_stats().output_clones, 0);
}

/// An input leaf that is a strided view cannot be borrowed in place: the
/// launch copies it, counts it as a leaf clone, and computes the same.
#[test]
fn a_strided_input_leaf_is_copied_and_counted() {
    let (n, d, l, h) = (2usize, 2, 3, 8);
    let family = family_for(&stacked_rnn_program(n, d, l, h));
    let inputs = rnn_inputs(n, d, l, h, 21);
    let mut strided = inputs.clone();
    let xss = &inputs[&BufferId(0)];
    // Each `[1, h]` leaf as the transpose of an `[h, 1]` column.
    let column_view = |x: &Tensor| x.reshape(&[h, 1]).unwrap().to_contiguous().t().unwrap();
    let leaves = FractalTensor::nested(
        (0..n)
            .map(|i| {
                let row = (0..l).map(|j| column_view(xss.leaf_at(&[i, j]).unwrap()));
                FractalTensor::from_tensors(row.collect()).unwrap()
            })
            .collect(),
    )
    .unwrap();
    strided.insert(BufferId(0), leaves);
    let exec = Executor::new().threads(1);
    let want = exec
        .run_poly(&family, n, &inputs, None)
        .expect("contiguous run");
    assert_eq!(exec.arena_stats().leaf_clones, 0);
    let got = exec
        .run_poly(&family, n, &strided, None)
        .expect("strided run");
    assert_bitwise_eq(&got, &want, "strided leaves");
    assert_eq!(exec.arena_stats().leaf_clones, (n * l) as u64);
}
