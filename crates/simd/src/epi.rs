//! Epilogue micro-ops: the post-GEMM / elementwise-chain operations the
//! plan-time fusion pass (ft-passes) attaches to a producer so its
//! consumers run on data still hot in registers or cache instead of
//! round-tripping through the arena.
//!
//! An epilogue is a sequence of [`EpiOp`]s applied in order to an output
//! buffer; binary ops consume one *extra* operand slice each, in order.
//! Every op is purely elementwise, so applying an epilogue per register
//! tile, per row, or per buffer yields identical bits (scalar tails are
//! bitwise identical to vector lanes — see the crate docs).

use crate::{kernels, Mode, Run};

/// Most extra operands one epilogue may consume. The fusion pass caps
/// epilogue length at this, so kernels and the executor gather operand
/// slices into fixed arrays instead of allocating per call.
pub const MAX_EPI_OPERANDS: usize = 8;

/// One epilogue micro-op. Binary ops consume the next extra operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpiOp {
    /// `acc + e`
    Add,
    /// `acc - e`
    Sub,
    /// `e - acc`
    RSub,
    /// `acc * e`
    Mul,
    /// `acc / e`
    Div,
    /// `e / acc`
    RDiv,
    /// `max(acc, e)`
    Max,
    /// `acc * c`
    Scale(f32),
    /// `acc + c`
    AddScalar(f32),
    /// `-acc`
    Neg,
    /// `max(acc, 0)`
    Relu,
    /// `exp(acc)`
    Exp,
    /// `1 / (1 + exp(-acc))`
    Sigmoid,
    /// `tanh(acc)`
    Tanh,
    /// `acc * sigmoid(acc)`
    Silu,
}

impl EpiOp {
    /// Whether this op consumes an extra operand slice.
    pub fn takes_operand(self) -> bool {
        matches!(
            self,
            EpiOp::Add
                | EpiOp::Sub
                | EpiOp::RSub
                | EpiOp::Mul
                | EpiOp::Div
                | EpiOp::RDiv
                | EpiOp::Max
        )
    }

    /// Stable hash tag for plan signatures (ft-core `sig`).
    pub fn tag(self) -> u8 {
        match self {
            EpiOp::Add => 1,
            EpiOp::Sub => 2,
            EpiOp::RSub => 3,
            EpiOp::Mul => 4,
            EpiOp::Div => 5,
            EpiOp::RDiv => 6,
            EpiOp::Max => 7,
            EpiOp::Scale(_) => 8,
            EpiOp::AddScalar(_) => 9,
            EpiOp::Neg => 10,
            EpiOp::Relu => 11,
            EpiOp::Exp => 12,
            EpiOp::Sigmoid => 13,
            EpiOp::Tanh => 14,
            EpiOp::Silu => 15,
        }
    }

    /// Scalar-constant payload, if any (for plan signatures).
    pub fn payload(self) -> Option<f32> {
        match self {
            EpiOp::Scale(c) | EpiOp::AddScalar(c) => Some(c),
            _ => None,
        }
    }

    /// Approximate flops per element (transcendentals counted like their
    /// standalone opcodes: 1).
    pub fn flops(self) -> u64 {
        1
    }
}

/// Number of extra operand slices `ops` consumes.
pub fn operand_count(ops: &[EpiOp]) -> usize {
    ops.iter().filter(|o| o.takes_operand()).count()
}

/// Leaf `i` of every operand run, gathered into `buf` (the per-leaf view of
/// a rows-batched epilogue's operands).
///
/// # Panics
/// If `extras` holds more than [`MAX_EPI_OPERANDS`] runs.
pub fn leaf_operands<'a, 'b>(
    extras: &[Run<'a>],
    i: usize,
    buf: &'b mut [&'a [f32]; MAX_EPI_OPERANDS],
) -> &'b [&'a [f32]] {
    assert!(extras.len() <= MAX_EPI_OPERANDS);
    for (slot, e) in buf.iter_mut().zip(extras) {
        *slot = e.leaf(i);
    }
    &buf[..extras.len()]
}

/// Applies `ops` in order to `dst`, consuming one slice of `extras` per
/// binary op. Every extra must have `dst.len()` elements.
pub fn apply_epi(mode: Mode, dst: &mut [f32], ops: &[EpiOp], extras: &[&[f32]]) {
    apply_epi_range(mode, dst, ops, extras, 0);
}

/// [`apply_epi`] over a window: `dst` holds elements `base ..` of the
/// logical output and each extra is the *full* operand buffer, indexed at
/// `base`. This is what lets the GEMM kernels run the epilogue per row
/// block (or per register tile) while sharing one extras layout.
pub(crate) fn apply_epi_range(
    mode: Mode,
    dst: &mut [f32],
    ops: &[EpiOp],
    extras: &[&[f32]],
    base: usize,
) {
    let len = dst.len();
    let mut ei = 0usize;
    for &op in ops {
        match op {
            EpiOp::Add => {
                kernels::add_assign(mode, dst, &extras[ei][base..base + len]);
                ei += 1;
            }
            EpiOp::Sub => {
                kernels::sub_assign(mode, dst, &extras[ei][base..base + len]);
                ei += 1;
            }
            EpiOp::RSub => {
                kernels::rsub_assign(mode, dst, &extras[ei][base..base + len]);
                ei += 1;
            }
            EpiOp::Mul => {
                kernels::mul_assign(mode, dst, &extras[ei][base..base + len]);
                ei += 1;
            }
            EpiOp::Div => {
                kernels::div_assign(mode, dst, &extras[ei][base..base + len]);
                ei += 1;
            }
            EpiOp::RDiv => {
                kernels::rdiv_assign(mode, dst, &extras[ei][base..base + len]);
                ei += 1;
            }
            EpiOp::Max => {
                kernels::max_assign(mode, dst, &extras[ei][base..base + len]);
                ei += 1;
            }
            EpiOp::Scale(c) => kernels::scale_ip(mode, dst, c),
            EpiOp::AddScalar(c) => kernels::add_scalar_ip(mode, dst, c),
            EpiOp::Neg => kernels::neg_ip(mode, dst),
            EpiOp::Relu => kernels::relu_ip(mode, dst),
            EpiOp::Exp => kernels::exp_ip(mode, dst),
            EpiOp::Sigmoid => kernels::sigmoid_ip(mode, dst),
            EpiOp::Tanh => kernels::tanh_ip(mode, dst),
            EpiOp::Silu => kernels::silu_ip(mode, dst),
        }
    }
    debug_assert_eq!(ei, extras.len(), "extras count must match binary ops");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_counting() {
        assert_eq!(operand_count(&[EpiOp::Add, EpiOp::Tanh, EpiOp::Mul]), 2);
        assert_eq!(operand_count(&[EpiOp::Sigmoid]), 0);
        assert!(EpiOp::Max.takes_operand());
        assert!(!EpiOp::Scale(2.0).takes_operand());
    }

    #[test]
    fn tags_are_unique() {
        let ops = [
            EpiOp::Add,
            EpiOp::Sub,
            EpiOp::RSub,
            EpiOp::Mul,
            EpiOp::Div,
            EpiOp::RDiv,
            EpiOp::Max,
            EpiOp::Scale(1.0),
            EpiOp::AddScalar(1.0),
            EpiOp::Neg,
            EpiOp::Relu,
            EpiOp::Exp,
            EpiOp::Sigmoid,
            EpiOp::Tanh,
            EpiOp::Silu,
        ];
        let mut tags: Vec<u8> = ops.iter().map(|o| o.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), ops.len());
    }

    #[test]
    fn apply_epi_chain_matches_manual() {
        let mut dst = vec![0.5f32, -1.0, 2.0, 0.0, 3.5];
        let e1 = vec![1.0f32, 1.0, 1.0, 1.0, 1.0];
        let e2 = vec![2.0f32, 2.0, 2.0, 2.0, 2.0];
        let want: Vec<f32> = dst
            .iter()
            .map(|&x| {
                let v = x + 1.0;
                let v = v.tanh();
                v * 2.0
            })
            .collect();
        apply_epi(
            Mode::Scalar,
            &mut dst,
            &[EpiOp::Add, EpiOp::Tanh, EpiOp::Mul],
            &[&e1, &e2],
        );
        assert_eq!(dst, want);
    }
}
