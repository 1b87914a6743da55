//! # ft-verify
//!
//! Schedule-legality verification for compiled FractalTensor programs.
//!
//! The paper's transformations (§5.1–§5.3) are *provably safe* by
//! construction: the reordering matrix is unimodular, its Lamport-hyperplane
//! first row carries every dependence distance vector (Table 4), and fused
//! access maps stay inside their buffers' ranges. This crate re-checks
//! those invariants on the *output* of the pipeline, so a bug anywhere in
//! parsing, coarsening, or reordering — or a hand-mutated schedule — is
//! rejected with a structured [`VerifyError`] naming the offending group,
//! block, and buffer instead of corrupting an execution downstream.
//!
//! Four invariants are checked per [`ScheduledGroup`]:
//!
//! 1. **Unimodularity** — `T` is square with determinant ±1 and `T·T⁻¹ = I`
//!    (the stored inverse actually inverts the stored transform). The
//!    executor's plan composes every access map with that stored inverse
//!    ([`ft_passes::Reordering::transform_map`]), so at `j = T·t` its
//!    fused map `(M·T⁻¹)·j + o` computes exactly the indices `M·t + o`
//!    the semantics demand.
//! 2. **Dependence carrying** — row 0 of `T` has a strictly positive dot
//!    product with every dependence distance vector of every member, and a
//!    group with dependences has a sequential dimension at all.
//! 3. **Access-map range** — every read/write map stays in-bounds over the
//!    member's whole iteration domain.
//! 4. **Wavefront order** — every value read from a group-internal buffer
//!    was written at an earlier wavefront step, or at the same step by an
//!    earlier member at the same point (the scratch-slot forwarding case),
//!    and no read touches an index no member writes.
//!
//! Blocks that belong to no launch group (pure `Map` nests executed
//! through the interpreter path) still get invariant 3's range half.
//!
//! A fifth, graph-wide invariant covers the UDF rewriting passes (kernel
//! fusion): every block's UDF must still validate structurally, infer
//! shapes against the block's read leaf shapes, and produce outputs whose
//! shapes match the written buffers' leaf shapes. A fusion bug that drops
//! a temporary or mis-absorbs an epilogue is rejected as
//! [`VerifyError::UdfIllegal`] before the backend plans scratch from the
//! same inference.
//!
//! Invariants 3 and 4 are decided once per access map, not once per point:
//! block domains are boxes and maps are affine, so range is two corners per
//! map row, and order and coverage follow from solving each read against
//! its writers' maps and subtracting the shifted writer boxes from the
//! read box. An access those
//! rules cannot decide (a non-box domain, writers with other matrices or
//! overlapping images) falls back to a per-point sweep for that access
//! alone: exhaustive up to [`POINT_CAP`] points per member, strided-sampled
//! beyond. [`VerifyReport::points`] counts the fallback's points and
//! [`VerifyReport::complete`] is false only when a fallback had to sample.

#![forbid(unsafe_code)]
// VerifyError carries full diagnostic context (points, indices, buffer
// dims) by value; it is built once on the cold rejection path, so the
// large-Err cost never matters.
#![allow(clippy::result_large_err)]

use std::collections::HashSet;
use std::time::Instant;

use ft_affine::IntMat;
use ft_etdg::RegionRead;
use ft_passes::{compile, distance_vectors, CompiledProgram, ScheduledGroup};

mod maps;
use maps::Mode;

/// Per-member domain enumeration cap of the per-point fallback: domains up
/// to this many points are checked exhaustively, larger ones are
/// strided-sampled.
pub const POINT_CAP: usize = 4096;

/// Whether an access is a read or a write (diagnostic context).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A region read.
    Read,
    /// A region write.
    Write,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// A schedule-legality violation. Every variant names the launch group and
/// lead block so the diagnostic can be traced back to the source nest.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// `compile()` itself failed (only from [`compile_verified`]).
    Compile(String),
    /// The schedule is malformed in a way that precedes the legality
    /// checks (dimension mismatches, affine arithmetic failures, ...).
    Structural {
        /// Launch group index (`None` for a block outside every group).
        group: Option<usize>,
        /// Lead block name.
        block: String,
        /// What went wrong.
        detail: String,
    },
    /// The transform matrix is not unimodular.
    NotUnimodular {
        /// Launch group index.
        group: usize,
        /// Lead block name.
        block: String,
        /// The offending determinant (0 when it could not be computed).
        det: i64,
    },
    /// The stored inverse does not invert the stored transform.
    InverseMismatch {
        /// Launch group index.
        group: usize,
        /// Lead block name.
        block: String,
    },
    /// The group carries dependences but has no sequential dimension.
    SequentialMissing {
        /// Launch group index.
        group: usize,
        /// Lead block name.
        block: String,
        /// How many distance vectors the group carries.
        distances: usize,
    },
    /// Row 0 of the transform fails to carry a dependence distance vector
    /// (`row₀·δ < 1` — iterations that must be ordered land on the same or
    /// an earlier wavefront step).
    UncarriedDistance {
        /// Launch group index.
        group: usize,
        /// Block whose dependence is dropped.
        block: String,
        /// Row 0 of the transform (the hyperplane schedule).
        hyperplane: Vec<i64>,
        /// The distance vector that is not carried.
        distance: Vec<i64>,
        /// The offending dot product.
        dot: i64,
    },
    /// An access map leaves its buffer's range somewhere in the domain.
    MapOutOfRange {
        /// Launch group index; `None` when the block belongs to no launch
        /// group and executes through the interpreter path.
        group: Option<usize>,
        /// Block issuing the access.
        block: String,
        /// Buffer accessed.
        buffer: String,
        /// Read or write.
        kind: AccessKind,
        /// Original-space iteration point.
        point: Vec<i64>,
        /// The out-of-range index the map produced.
        index: Vec<i64>,
        /// The buffer's declared extents.
        dims: Vec<usize>,
    },
    /// A read observes a value its writer has not produced yet in
    /// wavefront order (same or later step, and not forwardable from an
    /// earlier member at the same point).
    WavefrontOrder {
        /// Launch group index.
        group: usize,
        /// Reading block.
        block: String,
        /// Buffer read.
        buffer: String,
        /// Original-space point of the read.
        point: Vec<i64>,
        /// Buffer index read.
        index: Vec<i64>,
        /// Step the value is written at.
        write_step: i64,
        /// Step the read executes at.
        read_step: i64,
    },
    /// A read of a group-internal buffer index that no member ever writes
    /// (a per-point fallback reports it only when every writer of the
    /// buffer was enumerated in full).
    UnwrittenRead {
        /// Launch group index.
        group: usize,
        /// Reading block.
        block: String,
        /// Buffer read.
        buffer: String,
        /// Original-space point of the read.
        point: Vec<i64>,
        /// Buffer index read.
        index: Vec<i64>,
    },
    /// The memory plan's layout for a buffer contradicts the graph or the
    /// arena: wrong placement for its role, a range escaping the arena, or
    /// two live buffers sharing arena space.
    Layout {
        /// Buffer whose layout is inconsistent.
        buffer: String,
        /// What went wrong.
        detail: String,
    },
    /// A block's UDF is no longer well-formed after the rewriting passes
    /// (kernel fusion): it fails structural validation, its shapes do not
    /// infer against the block's read leaf shapes, or an output shape
    /// disagrees with the written buffer's leaf shape.
    UdfIllegal {
        /// Block whose UDF is malformed.
        block: String,
        /// What went wrong.
        detail: String,
    },
    /// A shape-polymorphism invariant failed: the schedule structure is
    /// not invariant across extents, or the symbolic memory template
    /// drifted from the instance shapes (legality over parameterized
    /// extents, [`build_poly_verified`]).
    Poly {
        /// What went wrong.
        detail: String,
    },
    /// A stateful-session binding violates the pinned-region rules
    /// ([`verify_session_bindings`]): a state buffer that is not an
    /// extern-placed input, an update target that is not an output, a
    /// carry whose shapes disagree, or an append cache without the
    /// declared capacity.
    Session {
        /// What went wrong.
        detail: String,
    },
}

/// Renders an optional group index for diagnostics.
fn group_label(group: &Option<usize>) -> String {
    match group {
        Some(gi) => format!("group {gi}"),
        None => "ungrouped".to_string(),
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Compile(m) => write!(f, "compile failed: {m}"),
            VerifyError::Structural {
                group,
                block,
                detail,
            } => write!(
                f,
                "{} ('{block}'): malformed schedule: {detail}",
                group_label(group)
            ),
            VerifyError::NotUnimodular { group, block, det } => write!(
                f,
                "group {group} ('{block}'): transform is not unimodular (det = {det})"
            ),
            VerifyError::InverseMismatch { group, block } => write!(
                f,
                "group {group} ('{block}'): stored inverse does not invert the transform"
            ),
            VerifyError::SequentialMissing {
                group,
                block,
                distances,
            } => write!(
                f,
                "group {group} ('{block}'): carries {distances} dependence distance vector(s) \
                 but has no sequential dimension"
            ),
            VerifyError::UncarriedDistance {
                group,
                block,
                hyperplane,
                distance,
                dot,
            } => write!(
                f,
                "group {group} ('{block}'): hyperplane {hyperplane:?} does not carry distance \
                 vector {distance:?} (dot = {dot}, need >= 1)"
            ),
            VerifyError::MapOutOfRange {
                group,
                block,
                buffer,
                kind,
                point,
                index,
                dims,
            } => write!(
                f,
                "{}, block '{block}': {kind} of buffer '{buffer}' out of range at \
                 point {point:?}: index {index:?} vs dims {dims:?}",
                group_label(group)
            ),
            VerifyError::WavefrontOrder {
                group,
                block,
                buffer,
                point,
                index,
                write_step,
                read_step,
            } => write!(
                f,
                "group {group}, block '{block}': reads buffer '{buffer}'[{index:?}] at point \
                 {point:?} on step {read_step} but it is written on step {write_step}"
            ),
            VerifyError::UnwrittenRead {
                group,
                block,
                buffer,
                point,
                index,
            } => write!(
                f,
                "group {group}, block '{block}': reads buffer '{buffer}'[{index:?}] at point \
                 {point:?} but no member ever writes that index"
            ),
            VerifyError::Layout { buffer, detail } => {
                write!(f, "memory plan for buffer '{buffer}': {detail}")
            }
            VerifyError::UdfIllegal { block, detail } => {
                write!(f, "block '{block}': illegal UDF after rewriting: {detail}")
            }
            VerifyError::Poly { detail } => {
                write!(f, "shape-polymorphic plan rejected: {detail}")
            }
            VerifyError::Session { detail } => {
                write!(f, "session state binding rejected: {detail}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Statistics from a successful verification pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Launch groups checked.
    pub groups: usize,
    /// Access maps validated (reads + writes, per member).
    pub maps: usize,
    /// Dependence distance vectors checked against the hyperplane.
    pub distances: usize,
    /// Iteration points the per-point fallback enumerated (0 when every
    /// access was decided on its maps).
    pub points: usize,
    /// Block UDFs re-validated after the rewriting passes.
    pub udfs: usize,
    /// Legality-check wall time in microseconds.
    pub wall_us: f64,
    /// True when every access was checked over its whole domain, by its
    /// maps or by exhaustive enumeration; false when a per-point fallback
    /// had to sample a domain larger than [`POINT_CAP`].
    pub complete: bool,
}

/// Compiles a program and verifies the resulting schedule in one step.
pub fn compile_verified(
    program: &ft_core::Program,
) -> Result<(CompiledProgram, VerifyReport), VerifyError> {
    let compiled = compile(program).map_err(|e| VerifyError::Compile(e.to_string()))?;
    let report = verify(&compiled)?;
    Ok((compiled, report))
}

/// Builds a program's plan family ([`ft_passes::PolyPlan::family`]) and
/// verifies its legality over parameterized extents.
///
/// A polymorphic [`ft_passes::PolyPlan`] claims one schedule serves
/// *every* outer extent. This checks the claim at two extents before the
/// family is trusted (a one-extent family makes no such claim and has no
/// second extent to probe: step 1 is its whole verification):
///
/// 1. the instance at the family's template extent passes the full
///    legality suite ([`verify`]);
/// 2. a probe instance at a second extent (template + 1 — deliberately
///    coprime with the template, so accidental divisibility can't mask
///    drift) passes the full suite too, **and** its schedule structure is
///    identical to the template's: same groups and members, same composed
///    operator vectors, same unimodular transforms. Anything the extent
///    *did* leak into (a split boundary, a changed fusion decision) is
///    rejected as [`VerifyError::Poly`] instead of surfacing as a wrong
///    answer at some unlucky length in production;
/// 3. the symbolic memory template's dispatch-time evaluation agreed with
///    both instances' real shapes (the family's internal cross-check
///    never fired).
pub fn build_poly_verified(
    program: &ft_core::Program,
) -> Result<(ft_passes::PolyPlan, VerifyReport), VerifyError> {
    let poly_err = |detail: String| VerifyError::Poly { detail };
    let family =
        ft_passes::PolyPlan::family(program).map_err(|e| VerifyError::Compile(e.to_string()))?;
    let base_extent = family.template_extent();
    let base = family
        .instance(base_extent)
        .map_err(|e| VerifyError::Compile(e.to_string()))?;
    let report = verify(&base)?;
    if !family.polymorphic() {
        return Ok((family, report));
    }

    let probe_extent = base_extent + 1;
    let probe = family
        .instance(probe_extent)
        .map_err(|e| VerifyError::Compile(e.to_string()))?;
    check_extent_invariance(&base, &probe, base_extent, probe_extent)?;
    verify(&probe)?;

    if family.template_fallbacks() > 0 {
        return Err(poly_err(format!(
            "symbolic memory template disagreed with instance shapes \
             ({} fallback(s) at extents {base_extent}/{probe_extent})",
            family.template_fallbacks()
        )));
    }
    Ok((family, report))
}

/// Everything about a schedule that must not depend on the polymorphic
/// extent: group decomposition, membership, composed operators, and the
/// reordering transforms themselves.
fn check_extent_invariance(
    base: &CompiledProgram,
    probe: &CompiledProgram,
    base_extent: usize,
    probe_extent: usize,
) -> Result<(), VerifyError> {
    let poly_err = |detail: String| VerifyError::Poly { detail };
    if base.groups.len() != probe.groups.len() {
        return Err(poly_err(format!(
            "launch-group count varies with the outer extent: \
             {} at L={base_extent} vs {} at L={probe_extent}",
            base.groups.len(),
            probe.groups.len()
        )));
    }
    for (gi, (a, b)) in base.groups.iter().zip(&probe.groups).enumerate() {
        if a.members != b.members {
            return Err(poly_err(format!(
                "group {gi} membership varies with the outer extent: \
                 {:?} at L={base_extent} vs {:?} at L={probe_extent}",
                a.members, b.members
            )));
        }
        if a.ops != b.ops {
            return Err(poly_err(format!(
                "group {gi} operator vector varies with the outer extent"
            )));
        }
        if a.reordering.sequential_dims != b.reordering.sequential_dims
            || a.reordering.t != b.reordering.t
            || a.reordering.hyperplane != b.reordering.hyperplane
        {
            return Err(poly_err(format!(
                "group {gi} reordering transform varies with the outer extent"
            )));
        }
    }
    Ok(())
}

/// How one stateful-session state buffer advances after a successful
/// decode step ([`verify_session_bindings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateRule {
    /// `state := output` — the whole buffer is replaced by the step's
    /// output handle (RNN hidden carry).
    Carry {
        /// The output buffer whose handle becomes the next state.
        output: ft_core::BufferId,
    },
    /// `state[step] := output` — one row of the reserved-capacity cache
    /// is replaced by the step's single-leaf output (KV-cache append).
    Append {
        /// The output buffer providing the appended row.
        output: ft_core::BufferId,
    },
    /// `state[step] := constant` — one row is overwritten with a cached
    /// constant leaf (attention-mask flip as the cache fills).
    Fill,
}

/// One session state binding: the input buffer holding pinned state and
/// the rule advancing it each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionBinding {
    /// The `BufferKind::Input` declaration the session injects each step.
    pub state: ft_core::BufferId,
    /// How the state advances from the step's outputs.
    pub rule: StateRule,
}

/// Checks the pinned-region rules for a decode-step program's session
/// state bindings, before any state is pinned.
///
/// The aliasing rule is placement-based: session state must live in
/// `BufferKind::Input` declarations, which the executor places *extern*
/// (borrowed from the caller) — never inside the transient arena — so a
/// pinned region held across requests can never overlap the arena's
/// first-fit reuse of per-launch scratch. A state buffer declared as an
/// intermediate would be arena-placed and aliasable; it is rejected
/// here. On top of placement, the shape contracts: carries must be
/// shape-preserving (`dims` and leaf shape equal), appends need a
/// `[1, C]` cache with `C >= capacity` and a single-leaf `[1]` output
/// row of the same leaf shape, and no two bindings may share a state or
/// an output buffer.
pub fn verify_session_bindings(
    program: &ft_core::Program,
    bindings: &[SessionBinding],
    capacity: usize,
) -> Result<(), VerifyError> {
    use ft_core::BufferKind;
    let err = |detail: String| VerifyError::Session { detail };
    let decl = |id: ft_core::BufferId, role: &str| {
        program
            .buffers
            .get(id.0)
            .ok_or_else(|| err(format!("{role} buffer {} is not declared", id.0)))
    };
    if bindings.is_empty() {
        return Err(err("session has no state bindings".into()));
    }
    let mut seen_states = HashSet::new();
    let mut seen_outputs = HashSet::new();
    for b in bindings {
        let state = decl(b.state, "state")?;
        if state.kind != BufferKind::Input {
            return Err(err(format!(
                "state buffer '{}' must be an input (extern-placed, outside \
                 the transient arena); {:?} declarations are arena-placed \
                 and could alias per-launch scratch",
                state.name, state.kind
            )));
        }
        if !seen_states.insert(b.state) {
            return Err(err(format!("state buffer '{}' is bound twice", state.name)));
        }
        let output = match b.rule {
            StateRule::Carry { output } | StateRule::Append { output } => {
                let out = decl(output, "update")?;
                if out.kind != BufferKind::Output {
                    return Err(err(format!(
                        "update source '{}' must be an output buffer, not {:?}",
                        out.name, out.kind
                    )));
                }
                if output == b.state {
                    return Err(err(format!(
                        "state '{}' cannot be its own update source",
                        state.name
                    )));
                }
                if !seen_outputs.insert(output) {
                    return Err(err(format!(
                        "output '{}' feeds two state bindings",
                        out.name
                    )));
                }
                Some(out)
            }
            StateRule::Fill => None,
        };
        match b.rule {
            StateRule::Carry { .. } => {
                let out = output.unwrap_or(state);
                if out.dims != state.dims || out.leaf_shape != state.leaf_shape {
                    return Err(err(format!(
                        "carry '{}' <- '{}' is not shape-preserving: \
                         {:?}/{:?} vs {:?}/{:?}",
                        state.name,
                        out.name,
                        state.dims,
                        state.leaf_shape,
                        out.dims,
                        out.leaf_shape
                    )));
                }
            }
            StateRule::Append { .. } | StateRule::Fill => {
                if capacity == 0 {
                    return Err(err(format!(
                        "append state '{}' needs capacity >= 1",
                        state.name
                    )));
                }
                let cache_ok =
                    state.dims.len() == 2 && state.dims[0] == 1 && state.dims[1] >= capacity;
                if !cache_ok {
                    return Err(err(format!(
                        "append state '{}' must be declared [1, C] with \
                         C >= capacity {capacity}, got {:?}",
                        state.name, state.dims
                    )));
                }
                if let Some(out) = output {
                    if out.dims != [1] || out.leaf_shape != state.leaf_shape {
                        return Err(err(format!(
                            "append row '{}' must be a single-leaf [1] output \
                             with the cache's leaf shape {:?}, got {:?}/{:?}",
                            out.name, state.leaf_shape, out.dims, out.leaf_shape
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Verifies every scheduled group of a compiled program, returning
/// statistics on success and the first violation found otherwise.
///
/// Stats flow into the global `ft_obs` registry (`verify.*` counters)
/// and, when spans are recorded, a `verify/legality_check` span, so
/// `trace_report` and the exporters surface them.
pub fn verify(compiled: &CompiledProgram) -> Result<VerifyReport, VerifyError> {
    verify_with(compiled, Mode::Maps)
}

/// [`verify`] with every access checked by the per-point code (the fallback
/// the map rules use for accesses they cannot decide): the reference the
/// map rules are cross-validated against in tests.
#[doc(hidden)]
pub fn verify_enumerated(compiled: &CompiledProgram) -> Result<VerifyReport, VerifyError> {
    verify_with(compiled, Mode::Points)
}

fn verify_with(compiled: &CompiledProgram, mode: Mode) -> Result<VerifyReport, VerifyError> {
    let t0 = Instant::now();
    let mut span = ft_obs::span("verify", "legality_check");
    let mut report = VerifyReport {
        complete: true,
        ..VerifyReport::default()
    };
    let outcome = check_all(compiled, mode, &mut report);
    report.wall_us = t0.elapsed().as_secs_f64() * 1e6;
    if span.is_recording() {
        span.field("program", compiled.etdg.name.as_str());
        span.field("groups", report.groups);
        span.field("maps", report.maps);
        span.field("distances", report.distances);
        span.field("points", report.points);
        span.field("udfs", report.udfs);
        span.field("complete", report.complete);
        if let Err(e) = &outcome {
            span.field("violation", e.to_string());
        }
    }
    let reg = ft_obs::Registry::global();
    reg.counter_add("verify.groups", report.groups as u64);
    reg.counter_add("verify.maps", report.maps as u64);
    reg.counter_add("verify.distances", report.distances as u64);
    reg.counter_add("verify.points", report.points as u64);
    reg.counter_add("verify.udfs", report.udfs as u64);
    reg.counter_add("verify.wall_ns", (report.wall_us * 1e3).round() as u64);
    if outcome.is_err() {
        reg.counter("verify.violations").inc();
    }
    outcome.map(|()| report)
}

fn check_all(
    compiled: &CompiledProgram,
    mode: Mode,
    report: &mut VerifyReport,
) -> Result<(), VerifyError> {
    check_layout(compiled)?;
    check_udfs(compiled, report)?;
    for (gi, group) in compiled.groups.iter().enumerate() {
        check_group(compiled, gi, group, mode, report)?;
        report.groups += 1;
    }
    maps::check_ungrouped(compiled, mode, report)
}

/// Re-validates every block's UDF against the graph after the rewriting
/// passes. Kernel fusion replaces statement sequences with fused opcodes
/// (`FusedMatMul`, `EwChain`, `Silu`); a fusion bug — dangling temporary,
/// wrong arity, shape drift — must be caught here, before the backend
/// plans scratch offsets from the same shape inference.
fn check_udfs(compiled: &CompiledProgram, report: &mut VerifyReport) -> Result<(), VerifyError> {
    let etdg = &compiled.etdg;
    for block in &etdg.blocks {
        let illegal = |detail: String| VerifyError::UdfIllegal {
            block: block.name.clone(),
            detail,
        };
        block.udf.validate().map_err(|e| illegal(e.to_string()))?;
        let input_shapes: Vec<ft_tensor::Shape> = block
            .reads
            .iter()
            .map(|r| match r {
                RegionRead::Buffer { buffer, .. } => etdg.buffer(*buffer).leaf_shape.clone(),
                RegionRead::Fill { leaf_shape, .. } => leaf_shape.clone(),
            })
            .collect();
        let shapes = block
            .udf
            .infer_shapes(&input_shapes)
            .map_err(|e| illegal(e.to_string()))?;
        if shapes.outputs.len() != block.writes.len() {
            return Err(illegal(format!(
                "UDF produces {} output(s) but the block writes {} buffer(s)",
                shapes.outputs.len(),
                block.writes.len()
            )));
        }
        for (oi, (shape, w)) in shapes.outputs.iter().zip(block.writes.iter()).enumerate() {
            let buf = etdg.buffer(w.buffer);
            if shape.dims() != buf.leaf_shape.dims() {
                return Err(illegal(format!(
                    "output {oi} infers shape {:?} but buffer '{}' stores leaves of {:?}",
                    shape.dims(),
                    buf.name,
                    buf.leaf_shape.dims()
                )));
            }
        }
        report.udfs += 1;
    }
    Ok(())
}

/// Validates the plan-time memory layout the arena executor trusts blindly:
/// extern placement is reserved for (exactly) the graph's input buffers,
/// every arena range stays inside the arena and the written bitmap, and
/// two buffers may share arena space only when their live intervals are
/// disjoint — the condition under which the lifetime-reuse allocator is
/// allowed to overlap them.
fn check_layout(compiled: &CompiledProgram) -> Result<(), VerifyError> {
    let mem = &compiled.memory;
    let etdg = &compiled.etdg;
    if mem.buffers.len() != etdg.buffers.len() {
        return Err(VerifyError::Layout {
            buffer: String::new(),
            detail: format!(
                "plan covers {} buffers but the graph declares {}",
                mem.buffers.len(),
                etdg.buffers.len()
            ),
        });
    }
    // (buffer index, arena range, bitmap range, live interval) of every
    // arena-placed buffer, for the pairwise overlap check below.
    type Placed = (
        usize,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        (usize, usize),
    );
    let mut placed: Vec<Placed> = Vec::new();
    for (bi, layout) in mem.buffers.iter().enumerate() {
        let node = &etdg.buffers[bi];
        let err = |detail: String| VerifyError::Layout {
            buffer: node.name.clone(),
            detail,
        };
        let is_input = node.kind == ft_core::program::BufferKind::Input;
        match layout.placement {
            ft_passes::Placement::Extern => {
                if !is_input {
                    return Err(err(format!(
                        "{:?} buffer placed extern; only inputs may be borrowed",
                        node.kind
                    )));
                }
            }
            ft_passes::Placement::Arena { offset, slot_off } => {
                if is_input {
                    return Err(err(
                        "input buffer placed in the arena; inputs must be extern".into(),
                    ));
                }
                if offset + layout.len > mem.arena_len {
                    return Err(err(format!(
                        "arena range {}..{} escapes arena of {} elements",
                        offset,
                        offset + layout.len,
                        mem.arena_len
                    )));
                }
                if slot_off + layout.leaves > mem.slots_len {
                    return Err(err(format!(
                        "bitmap range {}..{} escapes bitmap of {} leaves",
                        slot_off,
                        slot_off + layout.leaves,
                        mem.slots_len
                    )));
                }
                if layout.len > 0 {
                    placed.push((
                        bi,
                        offset..offset + layout.len,
                        slot_off..slot_off + layout.leaves,
                        layout.live,
                    ));
                }
            }
        }
    }
    for (i, a) in placed.iter().enumerate() {
        for b in &placed[i + 1..] {
            let arena_overlap = a.1.start < b.1.end && b.1.start < a.1.end;
            let bitmap_overlap = a.2.start < b.2.end && b.2.start < a.2.end;
            if !(arena_overlap || bitmap_overlap) {
                continue;
            }
            let live_disjoint = a.3 .1 < b.3 .0 || b.3 .1 < a.3 .0;
            if !live_disjoint {
                return Err(VerifyError::Layout {
                    buffer: etdg.buffers[a.0].name.clone(),
                    detail: format!(
                        "shares {} range {:?} with simultaneously-live buffer '{}' \
                         ({:?}; live {:?} vs {:?})",
                        if arena_overlap { "arena" } else { "bitmap" },
                        a.1,
                        etdg.buffers[b.0].name,
                        b.1,
                        a.3,
                        b.3
                    ),
                });
            }
        }
    }
    Ok(())
}

fn check_group(
    compiled: &CompiledProgram,
    gi: usize,
    group: &ScheduledGroup,
    mode: Mode,
    report: &mut VerifyReport,
) -> Result<(), VerifyError> {
    let etdg = &compiled.etdg;
    let r = &group.reordering;
    let lead = etdg.block(group.members[0]).name.clone();
    let structural = |detail: String| VerifyError::Structural {
        group: Some(gi),
        block: lead.clone(),
        detail,
    };

    // 1. Unimodularity and inverse coherence.
    if !r.t.is_unimodular() {
        return Err(VerifyError::NotUnimodular {
            group: gi,
            block: lead,
            det: r.t.det().unwrap_or(0),
        });
    }
    let d = r.t.rows();
    let prod =
        r.t.matmul(&r.t_inv)
            .map_err(|e| structural(e.to_string()))?;
    if prod != IntMat::identity(d) {
        return Err(VerifyError::InverseMismatch {
            group: gi,
            block: lead,
        });
    }

    // 2. Every dependence distance vector is carried by row 0.
    let mut distances: Vec<Vec<i64>> = Vec::new();
    for &m in &group.members {
        for delta in distance_vectors(etdg, m).map_err(|e| structural(e.to_string()))? {
            if !distances.contains(&delta) {
                distances.push(delta);
            }
        }
    }
    if !distances.is_empty() {
        if r.sequential_dims == 0 {
            return Err(VerifyError::SequentialMissing {
                group: gi,
                block: lead,
                distances: distances.len(),
            });
        }
        let row0 = r.t.row(0).to_vec();
        for delta in &distances {
            if delta.len() != row0.len() {
                return Err(structural(format!(
                    "distance vector {delta:?} has {} entries but the transform has {} columns",
                    delta.len(),
                    row0.len()
                )));
            }
            let dot: i64 = row0.iter().zip(delta.iter()).map(|(a, b)| a * b).sum();
            report.distances += 1;
            if dot < 1 {
                return Err(VerifyError::UncarriedDistance {
                    group: gi,
                    block: lead,
                    hyperplane: row0,
                    distance: delta.clone(),
                    dot,
                });
            }
        }
    }

    // 3 + 4. Access-map range, wavefront order and unwritten reads, per
    // access map.
    maps::check_group(compiled, gi, group, mode, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_affine::{AffineMap, IntMat};
    use ft_core::builders::stacked_rnn_program;
    use ft_etdg::RegionRead;

    fn compiled_rnn() -> CompiledProgram {
        compile(&stacked_rnn_program(2, 3, 4, 4)).unwrap()
    }

    #[test]
    fn stacked_rnn_schedule_is_legal() {
        let report = verify(&compiled_rnn()).unwrap();
        assert_eq!(report.groups, 1);
        assert!(report.distances >= 1, "wavefront group must carry deps");
        assert!(report.maps > 0);
        assert_eq!(report.points, 0, "every map is decided without points");
        assert!(report.complete);
        let enumerated = verify_enumerated(&compiled_rnn()).unwrap();
        assert!(enumerated.points > 0);
        assert!(enumerated.complete);
    }

    #[test]
    fn non_box_domains_fall_back_per_access() {
        // A coupling constraint that cuts no point still makes the last
        // member's domain a non-box set: its ranges are bounded by
        // Fourier–Motzkin, but the order and coverage of every read of the
        // buffer it writes fall back to points, and nothing else does.
        let mut c = compiled_rnn();
        let m = *c.groups[0].members.last().unwrap();
        let block = &mut c.etdg.blocks[m.0];
        let reach: i64 = block.extents.iter().map(|&e| e as i64).sum();
        let n = block.extents.len();
        block
            .domain
            .push(ft_affine::Constraint::new(vec![-1; n], reach));
        let report = verify(&c).unwrap();
        let enumerated = verify_enumerated(&c).unwrap();
        assert!(report.points > 0);
        assert!(report.points < enumerated.points);
        assert!(report.complete);
        assert_eq!(
            (report.groups, report.maps, report.distances),
            (enumerated.groups, enumerated.maps, enumerated.distances)
        );
    }

    #[test]
    fn compile_verified_round_trips() {
        let (compiled, report) = compile_verified(&stacked_rnn_program(2, 2, 3, 4)).unwrap();
        assert_eq!(compiled.groups.len(), 1);
        assert!(report.groups == 1);
    }

    #[test]
    fn poly_family_verifies_and_serves_extents() {
        let (family, report) = build_poly_verified(&stacked_rnn_program(2, 2, 3, 4)).unwrap();
        assert_eq!(report.groups, 1);
        // Base + probe instances are already memoized; more stamp out fine.
        assert!(family.cached_instances() >= 2);
        let inst = family.instance(9).unwrap();
        assert_eq!(inst.groups.len(), 1);
        assert_eq!(family.template_fallbacks(), 0);
    }

    #[test]
    fn one_extent_family_is_verified_at_its_own_extent_only() {
        let mut p = stacked_rnn_program(2, 2, 3, 4);
        for nest in &mut p.nests {
            nest.ops[0] = ft_core::OpKind::ScanL;
        }
        let (family, report) = build_poly_verified(&p).unwrap();
        assert!(!family.polymorphic());
        let again = verify(&family.instance(2).unwrap()).unwrap();
        assert_eq!((report.points, report.maps), (again.points, again.maps));
        assert_eq!(family.cached_instances(), 1, "no probe extent exists");
        assert!(family.instance(3).is_err());
    }

    #[test]
    fn extent_invariance_check_catches_structural_drift() {
        let family = ft_passes::PolyPlan::build(&stacked_rnn_program(2, 2, 3, 4))
            .unwrap()
            .unwrap();
        let base = family.instance(2).unwrap();
        let probe = family.instance(3).unwrap();
        // Identical structure passes.
        check_extent_invariance(&base, &probe, 2, 3).unwrap();
        // A schedule that leaks the extent into its transform is rejected.
        let mut drifted = (*probe).clone();
        let d = drifted.groups[0].reordering.t.rows();
        drifted.groups[0].reordering.t = IntMat::identity(d);
        drifted.groups[0].reordering.hyperplane = vec![9; d];
        match check_extent_invariance(&base, &drifted, 2, 3) {
            Err(VerifyError::Poly { detail }) => assert!(detail.contains("varies")),
            other => panic!("expected Poly, got {other:?}"),
        }
    }

    #[test]
    fn non_unimodular_transform_is_rejected() {
        let mut c = compiled_rnn();
        let d = c.groups[0].reordering.t.rows();
        c.groups[0].reordering.t = IntMat::zeros(d, d);
        match verify(&c) {
            Err(VerifyError::NotUnimodular { group: 0, det, .. }) => assert_eq!(det, 0),
            other => panic!("expected NotUnimodular, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_inverse_is_rejected() {
        let mut c = compiled_rnn();
        let d = c.groups[0].reordering.t.rows();
        // Keep T unimodular but break the stored inverse.
        let mut wrong = IntMat::identity(d);
        wrong.set(0, d - 1, 7);
        c.groups[0].reordering.t_inv = wrong;
        match verify(&c) {
            Err(VerifyError::InverseMismatch { group: 0, .. }) => {}
            Err(VerifyError::NotUnimodular { .. }) => {
                panic!("transform itself should still be unimodular")
            }
            other => panic!("expected InverseMismatch, got {other:?}"),
        }
    }

    #[test]
    fn uncarried_distance_is_rejected() {
        let mut c = compiled_rnn();
        let d = c.groups[0].reordering.t.rows();
        // The identity schedule orders by the first original dimension
        // only; the stacked RNN's wavefront carries dependences in two
        // dimensions, so at least one distance vector must be dropped.
        c.groups[0].reordering.t = IntMat::identity(d);
        c.groups[0].reordering.t_inv = IntMat::identity(d);
        match verify(&c) {
            Err(VerifyError::UncarriedDistance { group: 0, dot, .. }) => assert!(dot < 1),
            other => panic!("expected UncarriedDistance, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_map_is_rejected_naming_the_buffer() {
        let mut c = compiled_rnn();
        // Push an input-buffer read of the first member far out of range
        // (an input read carries no dependence, so the only possible
        // finding is the range violation itself).
        let inputs: Vec<bool> = c
            .etdg
            .buffers
            .iter()
            .map(|b| b.kind == ft_core::program::BufferKind::Input)
            .collect();
        let m = c.groups[0].members[0];
        let block = &mut c.etdg.blocks[m.0];
        let read = block
            .reads
            .iter_mut()
            .find_map(|rd| match rd {
                RegionRead::Buffer { buffer, map } if inputs[buffer.0] => Some(map),
                _ => None,
            })
            .expect("member reads an input buffer");
        let mut off = read.offset().to_vec();
        off[0] += 1_000_000;
        *read = AffineMap::new(read.matrix().clone(), off).unwrap();
        match verify(&c) {
            Err(VerifyError::MapOutOfRange {
                group: Some(0),
                buffer,
                index,
                ..
            }) => {
                assert!(!buffer.is_empty());
                assert!(index[0] >= 1_000_000);
            }
            other => panic!("expected MapOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn layout_violations_are_rejected() {
        // A clean compile passes the layout check (implicitly via verify).
        verify(&compiled_rnn()).unwrap();

        // An arena range escaping the arena is rejected by name.
        let mut c = compiled_rnn();
        let bi = c
            .memory
            .buffers
            .iter()
            .position(|l| matches!(l.placement, ft_passes::Placement::Arena { .. }) && l.len > 0)
            .expect("program has an arena-placed buffer");
        let arena_len = c.memory.arena_len;
        if let ft_passes::Placement::Arena { offset, .. } = &mut c.memory.buffers[bi].placement {
            *offset = arena_len;
        }
        match verify(&c) {
            Err(VerifyError::Layout { buffer, detail }) => {
                assert_eq!(buffer, c.etdg.buffers[bi].name);
                assert!(detail.contains("escapes arena"), "got: {detail}");
            }
            other => panic!("expected Layout, got {other:?}"),
        }

        // An input demoted to arena placement is rejected: the executor
        // would allocate and copy what it must borrow.
        let mut c = compiled_rnn();
        let ii = c
            .etdg
            .buffers
            .iter()
            .position(|b| b.kind == ft_core::program::BufferKind::Input)
            .expect("program has an input");
        c.memory.buffers[ii].placement = ft_passes::Placement::Arena {
            offset: 0,
            slot_off: 0,
        };
        match verify(&c) {
            Err(VerifyError::Layout { buffer, detail }) => {
                assert_eq!(buffer, c.etdg.buffers[ii].name);
                assert!(detail.contains("must be extern"), "got: {detail}");
            }
            other => panic!("expected Layout, got {other:?}"),
        }

        // Two simultaneously-live buffers aliasing one arena range are
        // rejected — the invariant the lifetime-reuse allocator must hold.
        // The stacked RNN plans a single arena buffer, so clone it into a
        // phantom sibling that claims the same range while live.
        let mut c = compiled_rnn();
        let a = c
            .memory
            .buffers
            .iter()
            .position(|l| matches!(l.placement, ft_passes::Placement::Arena { .. }) && l.len > 0)
            .expect("program has an arena-placed buffer");
        let mut node = c.etdg.buffers[a].clone();
        node.name = format!("{}_alias", node.name);
        c.etdg.buffers.push(node);
        let mut alias = c.memory.buffers[a].clone();
        alias.live = c.memory.buffers[a].live;
        c.memory.buffers.push(alias);
        match verify(&c) {
            Err(VerifyError::Layout { detail, .. }) => {
                assert!(detail.contains("simultaneously-live"), "got: {detail}");
            }
            other => panic!("expected Layout, got {other:?}"),
        }
    }

    #[test]
    fn ungrouped_blocks_still_get_range_checks() {
        // Strip the schedule entirely: every block now executes through
        // the interpreter path, and the verifier must still enumerate and
        // bounds-check its original access maps.
        let mut c = compiled_rnn();
        c.groups.clear();
        let report = verify(&c).unwrap();
        assert_eq!(report.groups, 0);
        assert!(report.maps > 0, "ungrouped maps must still be counted");
        assert_eq!(report.points, 0);
        assert!(verify_enumerated(&c).unwrap().points > 0);

        // And a corrupted map in an ungrouped block is rejected with the
        // group-free diagnostic.
        let block = &mut c.etdg.blocks[0];
        let read = block
            .reads
            .iter_mut()
            .find_map(|rd| match rd {
                RegionRead::Buffer { map, .. } => Some(map),
                _ => None,
            })
            .expect("block has a buffer read");
        let mut off = read.offset().to_vec();
        off[0] += 1_000_000;
        *read = AffineMap::new(read.matrix().clone(), off).unwrap();
        match verify(&c) {
            Err(VerifyError::MapOutOfRange { group: None, .. }) => {}
            other => panic!("expected ungrouped MapOutOfRange, got {other:?}"),
        }
        let msg = verify(&c).unwrap_err().to_string();
        assert!(msg.contains("ungrouped"), "{msg}");
    }

    #[test]
    fn rewritten_udfs_are_revalidated() {
        // A clean compile (which runs the fusion pass) passes the UDF
        // legality check and counts every block.
        let report = verify(&compiled_rnn()).unwrap();
        assert!(report.udfs > 0, "UDF check must cover the blocks");

        // A dangling output operand — the shape of bug a broken fusion
        // rewrite would introduce — is rejected naming the block.
        let mut c = compiled_rnn();
        c.etdg.blocks[0].udf.outputs[0] = ft_core::expr::Operand::Tmp(999);
        match verify(&c) {
            Err(VerifyError::UdfIllegal { block, .. }) => {
                assert_eq!(block, c.etdg.blocks[0].name);
            }
            other => panic!("expected UdfIllegal, got {other:?}"),
        }
    }

    #[test]
    fn report_displays_violations_with_context() {
        let mut c = compiled_rnn();
        let d = c.groups[0].reordering.t.rows();
        c.groups[0].reordering.t = IntMat::zeros(d, d);
        let e = verify(&c).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("group 0"), "diagnostic names the group: {msg}");
        assert!(msg.contains("unimodular"), "diagnostic says why: {msg}");
    }
}
