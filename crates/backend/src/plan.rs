//! Per-group access plans: everything the executor's run loop needs,
//! precomputed once at launch-group entry.
//!
//! The group's unimodular reordering is folded into every member's access
//! maps (`i = (M·T⁻¹)·j + o`) and into its iteration domain, and each
//! access is resolved against the [`ft_passes::MemoryPlan`] with the
//! buffer's leaf strides folded in too — so a read or write is one affine
//! row `c + s·j` giving the *flat leaf offset* into one contiguous arena
//! (or an extern input), and its coefficient on the innermost transformed
//! dimension is the access's stride along a run of consecutive points
//! (0 = the operand is shared by the whole run, which is what
//! `Reordering::reuse_dims` arranged). The per-dimension rows are kept
//! only for the always-on range check at a run's two ends. Constant fills
//! are materialized once at plan time, and each member's UDF is compiled
//! to a [`UdfPlan`]: shapes inferred once, scratch windows laid out by
//! prefix sums, every statement dispatching to `ft_tensor::slices` kernels
//! over borrowed slices. The run loop allocates nothing per point and
//! clones no tensors.

use ft_core::expr::{OpCode, Operand, Udf};
use ft_etdg::RegionRead;
use ft_passes::{CompiledProgram, Placement, ScheduledGroup};
use ft_tensor::Shape;

use crate::exec::ExecError;

/// Where an access's leaves live, resolved from the memory plan.
#[derive(Clone, Copy)]
pub(crate) enum Place {
    /// Arena range: `offset` is the buffer's base element, `slot_off` its
    /// base leaf in the written bitmap.
    Arena { offset: usize, slot_off: usize },
    /// Caller-owned extern input, indexed through the per-run leaf table.
    Extern,
}

/// One composed, layout-resolved buffer access.
pub(crate) struct Access {
    /// Buffer index.
    pub buffer: usize,
    /// Flattened `rows × dims` composed access matrix.
    pub mat: Vec<i64>,
    /// Offset vector (`rows` entries).
    pub off: Vec<i64>,
    /// Data-space rank of the access.
    pub rows: usize,
    /// Buffer extents per data dimension (the always-on range check).
    pub extents: Vec<i64>,
    /// The access with the buffer's leaf strides folded in: the flat leaf
    /// index at point `j` is `flat_off + flat_row·j`.
    pub flat_row: Vec<i64>,
    /// Constant term of the folded access.
    pub flat_off: i64,
    /// Elements per leaf.
    pub leaf_len: usize,
    /// Arena or extern placement.
    pub place: Place,
}

impl Access {
    /// Flat leaf index at transformed point `j`.
    #[inline]
    pub fn flat_at(&self, j: &[i64]) -> i64 {
        self.flat_off + dot(&self.flat_row, j)
    }

    /// Leaves advanced per step along the innermost transformed dimension
    /// (0 = every point of a run reads the same leaf).
    #[inline]
    pub fn run_stride(&self) -> i64 {
        self.flat_row.last().copied().unwrap_or(0)
    }

    /// Component `r` of the data-space index at point `j`.
    #[inline]
    pub fn index_at(&self, r: usize, j: &[i64]) -> i64 {
        let d = j.len();
        self.off[r] + dot(&self.mat[r * d..(r + 1) * d], j)
    }
}

/// `Σ a[c]·x[c]`.
#[inline]
pub(crate) fn dot(a: &[i64], x: &[i64]) -> i64 {
    a.iter().zip(x).map(|(m, v)| m * v).sum()
}

/// One buffer read, partially evaluated against the group reordering.
pub(crate) enum ReadPlan {
    /// A constant-fill read; `fill` indexes [`MemberPlan::fills`], whose
    /// data was materialized once at plan time (never per point).
    Fill {
        /// Index into the member's cached fill constants.
        fill: usize,
    },
    /// A buffer read through the composed map `i = (M·T⁻¹)·j + o`.
    Buffer {
        /// The composed access.
        access: Access,
        /// Slots of earlier member writes to the same buffer that this
        /// read may forward from, latest-written first.
        candidates: Vec<usize>,
    },
}

/// One buffer write, partially evaluated against the group reordering.
pub(crate) struct WritePlan {
    /// The composed access (always arena-placed; extern inputs are
    /// rejected at plan build).
    pub access: Access,
    /// Slot id under which later members find this value forwarded.
    pub slot: usize,
}

/// Where a UDF statement argument (or output) comes from.
#[derive(Clone, Copy)]
pub(crate) enum ArgSrc {
    /// The member's k-th read (resolved per run into a borrowed
    /// [`ft_simd::Run`]).
    In(usize),
    /// An earlier statement's scratch window.
    Tmp {
        /// Window start in the member's tmps scratch.
        off: usize,
        /// Window length.
        len: usize,
    },
}

/// One UDF statement with shapes and scratch windows resolved at plan time.
pub(crate) struct StmtPlan {
    /// The operation.
    pub op: OpCode,
    /// Argument sources.
    pub args: Vec<ArgSrc>,
    /// Argument dims (validated once here, never re-checked at run time).
    pub arg_dims: Vec<Vec<usize>>,
    /// Result window start in the member's tmps scratch.
    pub out_off: usize,
    /// Result window length.
    pub out_len: usize,
}

/// A UDF compiled for slice evaluation: every shape inferred once, every
/// scratch window a plan-time constant.
pub(crate) struct UdfPlan {
    /// The statements in SSA order.
    pub stmts: Vec<StmtPlan>,
    /// Output sources with lengths, in write order.
    pub outputs: Vec<(ArgSrc, usize)>,
    /// Total scratch length for all statement results.
    pub tmps_len: usize,
}

/// One group member with its reads/writes pre-transformed.
pub(crate) struct MemberPlan {
    /// Diagnostic block name (for runtime error messages).
    pub name: String,
    /// Exact iteration domain in the *transformed* space, one row of
    /// `dims + 1` per inequality: `row[..dims]·j + row[dims] >= 0`.
    pub guards: Vec<i64>,
    /// The member's UDF, compiled against its input leaf shapes.
    pub udf: UdfPlan,
    /// Reads in UDF input order.
    pub reads: Vec<ReadPlan>,
    /// Writes in UDF output order.
    pub writes: Vec<WritePlan>,
    /// Constant fill data, materialized once (satellite of the arena PR:
    /// the old plan re-ran `Tensor::full` at every wavefront point).
    pub fills: Vec<Vec<f32>>,
}

/// The full access plan for one launch group.
pub(crate) struct GroupPlan {
    /// Transformed-space dimensionality.
    pub dims: usize,
    /// Flattened `dims × dims` inverse transform (for `t = T⁻¹·j`, needed
    /// by domain guards and error messages).
    pub t_inv: Vec<i64>,
    /// Members in region order.
    pub members: Vec<MemberPlan>,
    /// Largest per-point staging footprint over all members, in elements:
    /// UDF scratch plus staged outputs. Bounds the run-segment length.
    pub point_elems: usize,
    /// Buffer names by index (guard-mode and degradation diagnostics).
    pub buffer_names: Vec<String>,
}

impl MemberPlan {
    /// The sub-interval of the run `j, j + e, …, j + (len-1)·e` (`e` the
    /// innermost unit vector) that lies inside this member's domain. Every
    /// guard is affine in the run position, so the intersection is one
    /// interval; it is empty when `lo >= hi`.
    pub fn interval(&self, j: &[i64], len: usize) -> (usize, usize) {
        let d = j.len();
        let (mut lo, mut hi) = (0i64, len as i64);
        for g in self.guards.chunks_exact(d + 1) {
            let v0 = g[d] + dot(&g[..d], j);
            let slope = if d == 0 { 0 } else { g[d - 1] };
            match slope.signum() {
                0 if v0 < 0 => return (0, 0),
                1 => lo = lo.max(-v0.div_euclid(slope)),
                -1 => hi = hi.min(v0.div_euclid(-slope) + 1),
                _ => {}
            }
        }
        (lo as usize, hi.max(lo) as usize)
    }
}

impl GroupPlan {
    /// Builds the plan for `group` of `compiled`. `corrupt` is the
    /// fault-injection hook (`(member, read, delta)` shifts the first
    /// offset component of that read's access map, modelling a corrupted
    /// map; out-of-range coordinates are ignored) — test/bench only, never
    /// reachable without an explicit [`FaultPlan`](crate::exec::FaultPlan).
    pub fn build(
        compiled: &CompiledProgram,
        group: &ScheduledGroup,
        corrupt: Option<(usize, usize, i64)>,
    ) -> Result<Self, ExecError> {
        let r = &group.reordering;
        let d = r.t_inv.rows();
        let mut t_inv = Vec::with_capacity(d * d);
        for i in 0..d {
            t_inv.extend_from_slice(r.t_inv.row(i));
        }

        let mut members = Vec::with_capacity(group.members.len());
        let mut point_elems = 0usize;
        // Buffer of every write planned so far, indexed by slot — the
        // forwarding candidates for subsequent members' reads.
        let mut planned_writes: Vec<usize> = Vec::new();

        for (mi, &m) in group.members.iter().enumerate() {
            let block = compiled.etdg.block(m);
            let mut reads = Vec::with_capacity(block.reads.len());
            let mut fills: Vec<Vec<f32>> = Vec::new();
            let mut input_shapes: Vec<Shape> = Vec::with_capacity(block.reads.len());
            for read in &block.reads {
                match read {
                    RegionRead::Fill { value, leaf_shape } => {
                        reads.push(ReadPlan::Fill { fill: fills.len() });
                        fills.push(vec![*value; leaf_shape.numel()]);
                        input_shapes.push(leaf_shape.clone());
                    }
                    RegionRead::Buffer { buffer, map } => {
                        let delta = match corrupt {
                            Some((cm, cr, delta)) if (cm, cr) == (mi, reads.len()) => delta,
                            _ => 0,
                        };
                        let access = build_access(compiled, group, buffer.0, map, delta)?;
                        input_shapes.push(compiled.etdg.buffer(*buffer).leaf_shape.clone());
                        let candidates = (0..planned_writes.len())
                            .rev()
                            .filter(|&slot| planned_writes[slot] == buffer.0)
                            .collect();
                        reads.push(ReadPlan::Buffer { access, candidates });
                    }
                }
            }
            let mut writes = Vec::with_capacity(block.writes.len());
            for w in &block.writes {
                let access = build_access(compiled, group, w.buffer.0, &w.map, 0)?;
                if matches!(access.place, Place::Extern) {
                    return Err(ExecError::Runtime(format!(
                        "block '{}' writes extern input buffer '{}'",
                        block.name,
                        compiled.etdg.buffer(w.buffer).name
                    )));
                }
                let slot = planned_writes.len();
                planned_writes.push(w.buffer.0);
                writes.push(WritePlan { access, slot });
            }
            let udf = build_udf_plan(&block.udf, &input_shapes)?;
            for (w, (_, out_len)) in writes.iter().zip(&udf.outputs) {
                if w.access.leaf_len != *out_len {
                    return Err(ExecError::Runtime(format!(
                        "block '{}': UDF output length {} != leaf length {} of buffer '{}'",
                        block.name,
                        out_len,
                        w.access.leaf_len,
                        compiled.etdg.buffers[w.access.buffer].name
                    )));
                }
            }
            // Scratch accounting for the fusion pass: `tmps_len` covers
            // every statement including the outputs themselves, so a fully
            // fused UDF has scratch == output elements and the difference
            // is exactly the intermediates fusion failed to absorb.
            let out_elems: usize = udf.outputs.iter().map(|(_, n)| n).sum();
            let obs = crate::exec::exec_obs();
            obs.udf_scratch_elems.add(udf.tmps_len as u64);
            obs.udf_output_elems.add(out_elems as u64);
            point_elems = point_elems.max(udf.tmps_len + out_elems);
            // `a·t + c >= 0` with `t = T⁻¹·j` is `(a·T⁻¹)·j + c >= 0`.
            let mut guards = Vec::with_capacity(block.domain.constraints().len() * (d + 1));
            for c in block.domain.constraints() {
                guards.extend((0..d).map(|col| {
                    (0..d)
                        .map(|i| c.coeffs[i] * r.t_inv.get(i, col))
                        .sum::<i64>()
                }));
                guards.push(c.constant);
            }
            members.push(MemberPlan {
                name: block.name.clone(),
                guards,
                udf,
                reads,
                writes,
                fills,
            });
        }
        Ok(GroupPlan {
            dims: d,
            t_inv,
            members,
            point_elems,
            buffer_names: compiled
                .etdg
                .buffers
                .iter()
                .map(|b| b.name.clone())
                .collect(),
        })
    }
}

/// Composes an access map with the group reordering and resolves its
/// buffer's flat layout from the memory plan.
fn build_access(
    compiled: &CompiledProgram,
    group: &ScheduledGroup,
    buffer: usize,
    map: &ft_affine::AffineMap,
    corrupt_delta: i64,
) -> Result<Access, ExecError> {
    let (mat, mut off, rows) = flatten_map(group, map)?;
    if let Some(o) = off.first_mut() {
        *o += corrupt_delta;
    }
    let layout = &compiled.memory.buffers[buffer];
    let d = group.reordering.t_inv.rows();
    let strides = &layout.leaf_strides;
    let flat_row = (0..d)
        .map(|c| (0..rows).map(|r| strides[r] * mat[r * d + c]).sum())
        .collect();
    let flat_off = dot(strides, &off);
    let place = match layout.placement {
        Placement::Extern => Place::Extern,
        Placement::Arena { offset, slot_off } => Place::Arena { offset, slot_off },
    };
    Ok(Access {
        buffer,
        mat,
        off,
        rows,
        extents: layout.dims.iter().map(|&d| d as i64).collect(),
        flat_row,
        flat_off,
        leaf_len: layout.leaf_len,
        place,
    })
}

/// Compiles a UDF against its input leaf shapes: infer every statement
/// shape once, lay the scratch windows out by prefix sums, and freeze the
/// argument dims the slice kernels will assume.
fn build_udf_plan(udf: &Udf, input_shapes: &[Shape]) -> Result<UdfPlan, ExecError> {
    let shapes = udf
        .infer_shapes(input_shapes)
        .map_err(|e| ExecError::Runtime(e.to_string()))?;
    let mut tmp_offs = Vec::with_capacity(udf.stmts.len());
    let mut tmps_len = 0usize;
    for s in &shapes.stmts {
        tmp_offs.push(tmps_len);
        tmps_len += s.numel();
    }
    let src = |o: &Operand| -> ArgSrc {
        match o {
            Operand::In(k) => ArgSrc::In(*k),
            Operand::Tmp(k) => ArgSrc::Tmp {
                off: tmp_offs[*k],
                len: shapes.stmts[*k].numel(),
            },
        }
    };
    let dims_of = |o: &Operand| -> Vec<usize> {
        match o {
            Operand::In(k) => input_shapes[*k].dims().to_vec(),
            Operand::Tmp(k) => shapes.stmts[*k].dims().to_vec(),
        }
    };
    let stmts = udf
        .stmts
        .iter()
        .enumerate()
        .map(|(i, s)| StmtPlan {
            op: s.op.clone(),
            args: s.args.iter().map(&src).collect(),
            arg_dims: s.args.iter().map(&dims_of).collect(),
            out_off: tmp_offs[i],
            out_len: shapes.stmts[i].numel(),
        })
        .collect();
    let outputs = udf
        .outputs
        .iter()
        .zip(&shapes.outputs)
        .map(|(o, sh)| (src(o), sh.numel()))
        .collect();
    Ok(UdfPlan {
        stmts,
        outputs,
        tmps_len,
    })
}

/// Composes an access map with the group reordering and flattens it.
fn flatten_map(
    group: &ScheduledGroup,
    map: &ft_affine::AffineMap,
) -> Result<(Vec<i64>, Vec<i64>, usize), ExecError> {
    let composed = group
        .reordering
        .transform_map(map)
        .map_err(|e| ExecError::Runtime(e.to_string()))?;
    let m = composed.matrix();
    let rows = m.rows();
    let mut mat = Vec::with_capacity(rows * m.cols());
    for i in 0..rows {
        mat.extend_from_slice(m.row(i));
    }
    Ok((mat, composed.offset().to_vec(), rows))
}

/// `out[r] = Σ_c mat[r·d + c]·x[c]` — the flat matvec of `t = T⁻¹·j`.
#[inline]
pub(crate) fn matvec_flat(mat: &[i64], rows: usize, d: usize, x: &[i64], out: &mut [i64]) {
    for (r, o) in out[..rows].iter_mut().enumerate() {
        *o = dot(&mat[r * d..r * d + d], x);
    }
}
