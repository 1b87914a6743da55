//! Shape polymorphism over the designated outer extent.
//!
//! The compiled schedule of a FractalTensor program depends on loop
//! *structure*, not on how long the outermost `map` happens to be: a
//! stacked RNN over 64 sequences and the same RNN over 640 run the same
//! wavefront, just wider. This module identifies that **polymorphic outer
//! axis** — the conditions are exactly the dynamic-batching legality rules
//! of DESIGN.md §10, because a ragged fused batch *is* an instance of the
//! program at a different outer extent:
//!
//! * every nest's outermost operator is `map` (no loop-carried dependence
//!   along the axis) and all nests share one outer extent `B`;
//! * each buffer either indexes its outer data axis by exactly the outer
//!   iteration variable (`axes[0] == t0`, no other axis mentions `t0`) —
//!   a **batched** buffer whose outer extent scales with `B` — or never
//!   mentions `t0` at all — a **shared** buffer (weights) whose shape is
//!   concrete at every extent;
//! * every written buffer is batched.
//!
//! [`analyze_outer`] decides eligibility and classifies buffers;
//! [`with_outer_extent`] re-extents a program along the axis (the "shape
//! tuple applied to the structural template" operation). The signature
//! split lives in [`crate::sig::poly_split`].

use crate::access::{AccessSpec, AxisExpr};
use crate::program::{BufferKind, CarriedInit, OpKind, Program};

/// How each buffer of an outer-polymorphic program relates to the outer
/// extent. Also the batching contract: fusing K requests concatenates
/// batched buffers along the outer axis and passes shared ones once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OuterInfo {
    /// The concrete outer extent `B` this program instance was declared
    /// at (the shape tuple; every nest shares it).
    pub batch_extent: usize,
    /// Per buffer (indexed by `BufferId.0`): true = the buffer's outer
    /// dimension scales with the extent (concatenate when batching),
    /// false = extent-independent (pass one shared copy).
    pub batched: Vec<bool>,
}

/// A buffer's observed role across all accesses.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    Unseen,
    Batched,
    Shared,
}

fn uses_outer(axis: &AxisExpr) -> bool {
    axis.terms.iter().any(|&(d, c)| d == 0 && c != 0)
}

/// Classifies one access: `Some(true)` batched, `Some(false)` shared,
/// `None` incompatible with outer polymorphism.
fn classify(spec: &AccessSpec) -> Option<bool> {
    if !spec.axes.iter().any(uses_outer) {
        return Some(false);
    }
    let first = spec.axes.first()?;
    let nonzero: Vec<(usize, i64)> = first
        .terms
        .iter()
        .copied()
        .filter(|&(_, c)| c != 0)
        .collect();
    let first_is_t0 = first.offset == 0 && nonzero == [(0, 1)];
    let rest_clean = spec.axes[1..].iter().all(|a| !uses_outer(a));
    if first_is_t0 && rest_clean {
        Some(true)
    } else {
        None
    }
}

fn merge(role: &mut Role, batched: bool) -> bool {
    let next = if batched { Role::Batched } else { Role::Shared };
    match *role {
        Role::Unseen => {
            *role = next;
            true
        }
        r => r == next,
    }
}

/// Decides whether `program` has a polymorphic outer axis, and how each
/// buffer participates.
///
/// Returns `None` when any rule in the module docs is violated; such a
/// program is a family of one extent ([`crate::sig::family_split`]) and
/// is never fused.
pub fn analyze_outer(program: &Program) -> Option<OuterInfo> {
    let first_nest = program.nests.first()?;
    if *first_nest.ops.first()? != OpKind::Map {
        return None;
    }
    let b = *first_nest.extents.first()?;
    let mut roles = vec![Role::Unseen; program.buffers.len()];
    for nest in &program.nests {
        if *nest.ops.first()? != OpKind::Map || *nest.extents.first()? != b {
            return None;
        }
        for read in &nest.reads {
            if !merge(&mut roles[read.buffer.0], classify(&read.access)?) {
                return None;
            }
            if let Some(CarriedInit::Buffer(init_buf, init_spec)) = &read.init {
                if !merge(&mut roles[init_buf.0], classify(init_spec)?) {
                    return None;
                }
            }
        }
        for write in &nest.writes {
            if !merge(&mut roles[write.buffer.0], classify(&write.access)?) {
                return None;
            }
        }
    }
    let mut batched = Vec::with_capacity(program.buffers.len());
    for (decl, role) in program.buffers.iter().zip(&roles) {
        let is_batched = match (decl.kind, role) {
            // Written buffers must split per extent unit.
            (BufferKind::Output | BufferKind::Intermediate, Role::Batched) => true,
            (BufferKind::Output | BufferKind::Intermediate, _) => return None,
            (BufferKind::Input, Role::Batched) => true,
            // Unread inputs ride along as one shared copy.
            (BufferKind::Input, Role::Shared | Role::Unseen) => false,
        };
        // The outer data axis must track the extent 1:1 for concatenation
        // (and re-extenting) to be meaningful.
        if is_batched && decl.dims.first() != Some(&b) {
            return None;
        }
        batched.push(is_batched);
    }
    Some(OuterInfo {
        batch_extent: b,
        batched,
    })
}

/// The same program instantiated at outer extent `new_extent`: every
/// nest's outer extent and every batched buffer's outer dimension set to
/// `new_extent`. Shared buffers keep their shape; structure is otherwise
/// identical, so all instances share one [`crate::sig::poly_split`] key.
/// At the program's own extent this is the identity — the only instance a
/// one-extent family has.
pub fn with_outer_extent(program: &Program, info: &OuterInfo, new_extent: usize) -> Program {
    let mut inst = program.clone();
    if new_extent == info.batch_extent {
        return inst;
    }
    inst.name = format!("{}[L={new_extent}]", program.name);
    for (decl, &is_batched) in inst.buffers.iter_mut().zip(&info.batched) {
        if is_batched {
            if let Some(outer) = decl.dims.first_mut() {
                *outer = new_extent;
            }
        }
    }
    for nest in &mut inst.nests {
        if let Some(outer) = nest.extents.first_mut() {
            *outer = new_extent;
        }
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::stacked_rnn_program;
    use crate::sig::program_signature;

    #[test]
    fn stacked_rnn_has_a_polymorphic_outer_axis() {
        let p = stacked_rnn_program(2, 3, 4, 8);
        let info = analyze_outer(&p).expect("outer map axis");
        assert_eq!(info.batch_extent, 2);
        // Inputs and outputs scale with the axis; the weight stack is
        // extent-independent.
        for (decl, &b) in p.buffers.iter().zip(&info.batched) {
            if decl.name.contains("ws") {
                assert!(!b, "weights must be shared");
            } else {
                assert!(b, "{} should be batched", decl.name);
            }
        }
    }

    #[test]
    fn outer_scan_is_not_polymorphic() {
        let mut p = stacked_rnn_program(2, 3, 4, 8);
        for nest in &mut p.nests {
            nest.ops[0] = OpKind::ScanL;
        }
        assert!(analyze_outer(&p).is_none());
    }

    #[test]
    fn re_extent_matches_directly_built_program() {
        let p = stacked_rnn_program(2, 3, 4, 8);
        let info = analyze_outer(&p).unwrap();
        let inst = with_outer_extent(&p, &info, 5);
        assert!(inst.validate().is_ok());
        // Same structure (up to names) as building the program at the
        // target extent from scratch.
        assert_eq!(
            program_signature(&inst),
            program_signature(&stacked_rnn_program(5, 3, 4, 8))
        );
        // Re-extenting at the original extent is the identity.
        assert_eq!(
            program_signature(&with_outer_extent(&p, &info, 2)),
            program_signature(&p)
        );
    }
}
