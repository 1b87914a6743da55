//! ETDG-level kernel fusion (rten-style peepholes on the UDF SSA).
//!
//! Three rewrites, applied per block node after coarsening:
//!
//! 1. **SiLU peephole** — `Mul(x, Sigmoid(x))` (either operand order,
//!    single-use sigmoid) collapses to `Silu(x)`.
//! 2. **GEMM epilogue absorption** — a `MatMul`/`MatMulT` whose result
//!    flows through a single-use chain of elementwise consumers absorbs
//!    that chain as an [`EpiOp`] epilogue (`FusedMatMul`), applied by the
//!    executor inside the GEMM register tile. Gate activations in the
//!    LSTM / stacked-RNN workloads stop round-tripping through the arena.
//! 3. **Elementwise-chain collapse** — a remaining single-use chain of
//!    two or more elementwise statements becomes one [`OpCode::EwChain`].
//!
//! Legality is purely structural and checked twice: each candidate chain
//! must be single-use, shape-preserving, and reference only operands
//! already available at the anchor statement; the rewritten UDF is then
//! re-validated (`Udf::validate` + `infer_shapes`) and the whole rewrite
//! reverted (counted in `passes.fusion_rejected`) if anything fails.
//! ft-verify independently re-checks every compiled UDF, so an illegal
//! fusion can never reach the executor silently.
//!
//! Because fused-away intermediates no longer exist as SSA statements,
//! the backend's scratch planner allocates **zero** arena ranges for them
//! — the lifetime shrink is structural, not a special case. The saved
//! elements are reported in `passes.fusion_tmp_elems_saved`.

use ft_core::expr::{OpCode, Operand, Stmt, Udf};
use ft_etdg::{Etdg, RegionRead};
use ft_simd::EpiOp;
use ft_tensor::Shape;

/// Most epilogue micro-ops a single GEMM or chain may absorb.
pub const MAX_EPI_OPS: usize = 8;

/// Outcome counters of one fusion sweep, mirrored into the
/// `passes.fusion_*` registry counters by the compile pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Rewrites committed (one per fused anchor statement).
    pub applied: usize,
    /// Candidate rewrites abandoned because re-validation failed.
    pub rejected: usize,
    /// Scratch elements the backend no longer allocates: the summed
    /// `numel` of every fused-away intermediate statement.
    pub tmp_elems_saved: usize,
}

/// Fuses every block UDF of the graph in place.
pub fn fuse_graph(etdg: &mut Etdg) -> FusionStats {
    let mut stats = FusionStats::default();
    for bi in 0..etdg.blocks.len() {
        let input_shapes: Vec<Shape> = etdg.blocks[bi]
            .reads
            .iter()
            .map(|r| match r {
                RegionRead::Buffer { buffer, .. } => etdg.buffer(*buffer).leaf_shape.clone(),
                RegionRead::Fill { leaf_shape, .. } => leaf_shape.clone(),
            })
            .collect();
        let (udf, s) = fuse_udf(&etdg.blocks[bi].udf, &input_shapes);
        stats.applied += s.applied;
        stats.rejected += s.rejected;
        stats.tmp_elems_saved += s.tmp_elems_saved;
        if let Some(udf) = udf {
            etdg.blocks[bi].udf = udf;
        }
    }
    stats
}

/// Fuses one UDF. Returns the rewritten UDF (`None` when nothing fused)
/// plus the stats of this UDF alone.
pub fn fuse_udf(udf: &Udf, input_shapes: &[Shape]) -> (Option<Udf>, FusionStats) {
    let mut stats = FusionStats::default();
    let Ok(shapes) = udf.infer_shapes(input_shapes) else {
        return (None, stats);
    };

    let mut stmts: Vec<Stmt> = udf.stmts.clone();
    let mut dead = vec![false; stmts.len()];
    // `alias[k] = Some(j)`: uses of Tmp(k) must become uses of Tmp(j)
    // (the chain tail's value now lives in the anchor's result).
    let mut alias: Vec<Option<usize>> = vec![None; stmts.len()];

    let uses = use_counts(udf);
    let is_output: Vec<bool> = (0..stmts.len())
        .map(|k| udf.outputs.contains(&Operand::Tmp(k)))
        .collect();

    // Pass 1: SiLU peephole. Rewrites Mul in place, kills the sigmoid.
    for i in 0..stmts.len() {
        if stmts[i].op != OpCode::Mul {
            continue;
        }
        let (a, b) = (stmts[i].args[0], stmts[i].args[1]);
        let sigmoid_of = |o: Operand| -> Option<Operand> {
            let Operand::Tmp(j) = o else { return None };
            (stmts[j].op == OpCode::Sigmoid && !dead[j] && uses[j] == 1 && !is_output[j])
                .then(|| stmts[j].args[0])
        };
        let rewrite = match (sigmoid_of(b), sigmoid_of(a)) {
            (Some(x), _) if x == a => Some((b, x)),
            (_, Some(x)) if x == b => Some((a, x)),
            _ => None,
        };
        if let Some((sig, x)) = rewrite {
            let Operand::Tmp(j) = sig else { unreachable!() };
            stmts[i] = Stmt {
                op: OpCode::Silu,
                args: vec![x],
            };
            dead[j] = true;
            stats.applied += 1;
            stats.tmp_elems_saved += shapes.stmts[j].numel();
        }
    }

    // Recount after the peephole (Silu dropped a use of each dead sigmoid
    // input; chain walking below needs fresh counts over live stmts).
    let uses = use_counts_live(&stmts, &udf.outputs, &dead);

    // Pass 2: GEMM epilogue absorption, then pass 3: elementwise-chain
    // collapse. Both walk the unique-consumer chain from an anchor.
    for i in 0..stmts.len() {
        if dead[i] {
            continue;
        }
        let anchor_shape = &shapes.stmts[i];
        let (gemm, chain_budget) = match stmts[i].op {
            OpCode::MatMul | OpCode::MatMulT => (true, MAX_EPI_OPS),
            _ => (false, MAX_EPI_OPS),
        };
        if !gemm {
            // Elementwise anchors: the anchor op itself must map to an
            // EpiOp and its chain must have at least one more member to be
            // worth collapsing.
            if as_epi(&stmts[i].op).is_none() {
                continue;
            }
        }

        let mut epi: Vec<EpiOp> = Vec::new();
        let mut extras: Vec<Operand> = Vec::new();
        let mut absorbed: Vec<usize> = Vec::new();
        if !gemm {
            // The anchor's own op opens the chain, applied to its arg0.
            let (op, extra) = as_epi(&stmts[i].op).expect("checked above");
            if extra && shapes_differ(&stmts[i].args[1], anchor_shape, &shapes, input_shapes) {
                continue;
            }
            epi.push(op);
            if extra {
                extras.push(stmts[i].args[1]);
            }
        }

        let mut cur = i;
        while epi.len() < chain_budget {
            // Unique live consumer of Tmp(cur), not an output itself.
            if is_output[cur] && cur != i {
                break;
            }
            let Some(c) = unique_consumer(&stmts, &dead, &uses, cur) else {
                break;
            };
            let Some((op, has_extra)) = consumer_epi(&stmts[c], cur) else {
                break;
            };
            // Shape must be preserved and the extra operand must already
            // exist at the anchor's position (no forward references).
            if shapes.stmts[c].dims() != anchor_shape.dims() {
                break;
            }
            let extra = if has_extra {
                let e = other_operand(&stmts[c], cur);
                match e {
                    Operand::Tmp(j) if j >= i || dead[j] => break,
                    _ => {}
                }
                if shapes_differ(&e, anchor_shape, &shapes, input_shapes) {
                    break;
                }
                Some(e)
            } else {
                None
            };
            epi.push(op);
            if let Some(e) = extra {
                extras.push(e);
            }
            absorbed.push(c);
            cur = c;
        }

        let worthwhile = if gemm {
            !absorbed.is_empty()
        } else {
            // A chain of one is just the original statement.
            !absorbed.is_empty()
        };
        if !worthwhile {
            continue;
        }

        let mut args: Vec<Operand> = if gemm {
            vec![stmts[i].args[0], stmts[i].args[1]]
        } else {
            vec![stmts[i].args[0]]
        };
        args.extend(extras);
        let op = if gemm {
            OpCode::FusedMatMul {
                transb: stmts[i].op == OpCode::MatMulT,
                epi,
            }
        } else {
            OpCode::EwChain(epi)
        };
        stmts[i] = Stmt { op, args };
        for &c in &absorbed {
            dead[c] = true;
            stats.tmp_elems_saved += shapes.stmts[c].numel();
        }
        // The chain tail's value is now the anchor's result.
        alias[cur] = Some(i);
        stats.applied += 1;
    }

    if stats.applied == 0 {
        return (None, stats);
    }

    match rebuild(udf, &stmts, &dead, &alias) {
        Some(new_udf)
            if new_udf.validate().is_ok() && new_udf.infer_shapes(input_shapes).is_ok() =>
        {
            (Some(new_udf), stats)
        }
        _ => {
            // Structural re-validation failed: revert the whole UDF.
            stats.rejected = stats.applied;
            stats.applied = 0;
            stats.tmp_elems_saved = 0;
            (None, stats)
        }
    }
}

/// How often each tmp is used (arg references + output references).
fn use_counts(udf: &Udf) -> Vec<usize> {
    let mut uses = vec![0usize; udf.stmts.len()];
    for s in &udf.stmts {
        for a in &s.args {
            if let Operand::Tmp(k) = a {
                uses[*k] += 1;
            }
        }
    }
    for o in &udf.outputs {
        if let Operand::Tmp(k) = o {
            uses[*k] += 1;
        }
    }
    uses
}

fn use_counts_live(stmts: &[Stmt], outputs: &[Operand], dead: &[bool]) -> Vec<usize> {
    let mut uses = vec![0usize; stmts.len()];
    for (i, s) in stmts.iter().enumerate() {
        if dead[i] {
            continue;
        }
        for a in &s.args {
            if let Operand::Tmp(k) = a {
                uses[*k] += 1;
            }
        }
    }
    for o in outputs {
        if let Operand::Tmp(k) = o {
            uses[*k] += 1;
        }
    }
    uses
}

/// The unique live consumer statement of `Tmp(producer)`, if the producer
/// has exactly one use and that use is a statement argument.
fn unique_consumer(
    stmts: &[Stmt],
    dead: &[bool],
    uses: &[usize],
    producer: usize,
) -> Option<usize> {
    if uses[producer] != 1 {
        return None;
    }
    stmts
        .iter()
        .enumerate()
        .position(|(ci, s)| !dead[ci] && ci > producer && s.args.contains(&Operand::Tmp(producer)))
}

/// Maps an elementwise opcode to its epilogue form, with whether it
/// consumes an extra operand. Anchor-side mapping: the chain value is the
/// op's **first** argument.
fn as_epi(op: &OpCode) -> Option<(EpiOp, bool)> {
    Some(match op {
        OpCode::Add => (EpiOp::Add, true),
        OpCode::Sub => (EpiOp::Sub, true),
        OpCode::Mul => (EpiOp::Mul, true),
        OpCode::Div => (EpiOp::Div, true),
        OpCode::Max => (EpiOp::Max, true),
        OpCode::Scale(c) => (EpiOp::Scale(*c), false),
        OpCode::AddScalar(c) => (EpiOp::AddScalar(*c), false),
        OpCode::Neg => (EpiOp::Neg, false),
        OpCode::Relu => (EpiOp::Relu, false),
        OpCode::Exp => (EpiOp::Exp, false),
        OpCode::Sigmoid => (EpiOp::Sigmoid, false),
        OpCode::Tanh => (EpiOp::Tanh, false),
        OpCode::Silu => (EpiOp::Silu, false),
        _ => return None,
    })
}

/// Maps a consumer statement to the epilogue op it applies to the chain
/// value `Tmp(producer)`, accounting for which side of a binary op the
/// chain value sits on (`Sub`/`Div` flip to `RSub`/`RDiv`).
fn consumer_epi(stmt: &Stmt, producer: usize) -> Option<(EpiOp, bool)> {
    let p = Operand::Tmp(producer);
    let lhs = stmt.args.first() == Some(&p);
    let rhs = stmt.args.get(1) == Some(&p);
    // The chain value must appear on exactly one side (x - x etc. keeps
    // its materialized form).
    if lhs && rhs {
        return None;
    }
    Some(match (&stmt.op, lhs) {
        (OpCode::Add, _) => (EpiOp::Add, true),
        (OpCode::Mul, _) => (EpiOp::Mul, true),
        (OpCode::Max, _) => (EpiOp::Max, true),
        (OpCode::Sub, true) => (EpiOp::Sub, true),
        (OpCode::Sub, false) => (EpiOp::RSub, true),
        (OpCode::Div, true) => (EpiOp::Div, true),
        (OpCode::Div, false) => (EpiOp::RDiv, true),
        (OpCode::Scale(c), _) => (EpiOp::Scale(*c), false),
        (OpCode::AddScalar(c), _) => (EpiOp::AddScalar(*c), false),
        (OpCode::Neg, _) => (EpiOp::Neg, false),
        (OpCode::Relu, _) => (EpiOp::Relu, false),
        (OpCode::Exp, _) => (EpiOp::Exp, false),
        (OpCode::Sigmoid, _) => (EpiOp::Sigmoid, false),
        (OpCode::Tanh, _) => (EpiOp::Tanh, false),
        (OpCode::Silu, _) => (EpiOp::Silu, false),
        _ => return None,
    })
}

/// The non-chain operand of a binary consumer.
fn other_operand(stmt: &Stmt, producer: usize) -> Operand {
    let p = Operand::Tmp(producer);
    if stmt.args[0] == p {
        stmt.args[1]
    } else {
        stmt.args[0]
    }
}

/// Whether `operand`'s shape differs from the anchor result shape.
fn shapes_differ(
    operand: &Operand,
    anchor: &Shape,
    shapes: &ft_core::expr::UdfShapes,
    input_shapes: &[Shape],
) -> bool {
    let dims = match operand {
        Operand::In(k) => input_shapes[*k].dims(),
        Operand::Tmp(k) => shapes.stmts[*k].dims(),
    };
    dims != anchor.dims()
}

/// Drops dead statements, applies tail aliases, and renumbers tmps.
fn rebuild(udf: &Udf, stmts: &[Stmt], dead: &[bool], alias: &[Option<usize>]) -> Option<Udf> {
    let mut remap = vec![usize::MAX; stmts.len()];
    let mut new_stmts = Vec::with_capacity(stmts.len());
    let resolve = |k: usize| -> usize {
        // Alias chains are one level deep (tail -> anchor).
        match alias[k] {
            Some(j) => j,
            None => k,
        }
    };
    for (i, s) in stmts.iter().enumerate() {
        if dead[i] {
            continue;
        }
        remap[i] = new_stmts.len();
        new_stmts.push(s.clone());
    }
    let map_operand = |o: &Operand| -> Option<Operand> {
        match o {
            Operand::In(k) => Some(Operand::In(*k)),
            Operand::Tmp(k) => {
                let t = remap[resolve(*k)];
                (t != usize::MAX).then_some(Operand::Tmp(t))
            }
        }
    };
    for s in &mut new_stmts {
        for a in &mut s.args {
            *a = map_operand(a)?;
        }
    }
    let outputs = udf
        .outputs
        .iter()
        .map(map_operand)
        .collect::<Option<Vec<_>>>()?;
    Some(Udf {
        name: udf.name.clone(),
        stmts: new_stmts,
        outputs,
        num_inputs: udf.num_inputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::expr::UdfBuilder;
    use ft_tensor::Tensor;

    fn shapes_of(dims: &[&[usize]]) -> Vec<Shape> {
        dims.iter().map(|d| Shape::new(d)).collect()
    }

    #[test]
    fn silu_peephole_fires() {
        let mut b = UdfBuilder::new("silu", 1);
        let x = b.input(0);
        let s = b.sigmoid(x);
        let y = b.mul(x, s);
        let udf = b.build(&[y]);
        let (fused, stats) = fuse_udf(&udf, &shapes_of(&[&[2, 3]]));
        let fused = fused.expect("peephole should fire");
        assert_eq!(stats.applied, 1);
        assert_eq!(fused.stmts.len(), 1);
        assert_eq!(fused.stmts[0].op, OpCode::Silu);

        // Bitwise: fused eval equals unfused eval in the active mode
        // (Tensor::silu and mul(sigmoid) route through the same kernels
        // only in fused form — compare against the scalar composition).
        let t = Tensor::randn(&[2, 3], 7);
        let got = fused.eval(std::slice::from_ref(&t)).unwrap();
        let want = udf.eval(std::slice::from_ref(&t)).unwrap();
        for (g, w) in got[0].to_vec().iter().zip(want[0].to_vec()) {
            assert!((g - w).abs() <= 1e-6 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn gemm_absorbs_epilogue_chain() {
        // y = tanh(x @ w + b): the stacked-RNN cell.
        let mut b = UdfBuilder::new("cell", 3);
        let (x, w, bias) = (b.input(0), b.input(1), b.input(2));
        let xw = b.matmul(x, w);
        let s = b.add(xw, bias);
        let y = b.tanh(s);
        let udf = b.build(&[y]);
        let shapes = shapes_of(&[&[1, 8], &[8, 8], &[1, 8]]);
        let (fused, stats) = fuse_udf(&udf, &shapes);
        let fused = fused.expect("gemm fusion should fire");
        assert_eq!(stats.applied, 1);
        assert_eq!(stats.tmp_elems_saved, 16); // two [1,8] intermediates
        assert_eq!(fused.stmts.len(), 1);
        match &fused.stmts[0].op {
            OpCode::FusedMatMul { transb, epi } => {
                assert!(!transb);
                assert_eq!(epi, &[EpiOp::Add, EpiOp::Tanh]);
            }
            other => panic!("expected FusedMatMul, got {other:?}"),
        }
        // Value parity (same mode, bitwise by the fusion contract).
        let inputs = [
            Tensor::randn(&[1, 8], 1),
            Tensor::randn(&[8, 8], 2),
            Tensor::randn(&[1, 8], 3),
        ];
        let got = fused.eval(&inputs).unwrap();
        let want = inputs[0]
            .matmul(&inputs[1])
            .unwrap()
            .add(&inputs[2])
            .unwrap()
            .tanh();
        assert_eq!(
            got[0]
                .to_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            want.to_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn multi_use_intermediate_blocks_fusion() {
        // The matmul result feeds both the add and an output: no fusion.
        let mut b = UdfBuilder::new("shared", 3);
        let (x, w, bias) = (b.input(0), b.input(1), b.input(2));
        let xw = b.matmul(x, w);
        let s = b.add(xw, bias);
        let udf = b.build(&[s, xw]);
        let (fused, stats) = fuse_udf(&udf, &shapes_of(&[&[1, 8], &[8, 8], &[1, 8]]));
        assert!(fused.is_none());
        assert_eq!(stats.applied, 0);
    }

    #[test]
    fn elementwise_chain_collapses() {
        // y = relu(a + b) * c — no GEMM anchor, pure elementwise chain.
        let mut b = UdfBuilder::new("chain", 3);
        let (a, bb, c) = (b.input(0), b.input(1), b.input(2));
        let s = b.add(a, bb);
        let r = b.relu(s);
        let y = b.mul(r, c);
        let udf = b.build(&[y]);
        let shapes = shapes_of(&[&[2, 4], &[2, 4], &[2, 4]]);
        let (fused, stats) = fuse_udf(&udf, &shapes);
        let fused = fused.expect("chain should collapse");
        assert_eq!(stats.applied, 1);
        assert_eq!(fused.stmts.len(), 1);
        match &fused.stmts[0].op {
            OpCode::EwChain(ops) => {
                assert_eq!(ops, &[EpiOp::Add, EpiOp::Relu, EpiOp::Mul]);
            }
            other => panic!("expected EwChain, got {other:?}"),
        }
        let inputs = [
            Tensor::randn(&[2, 4], 4),
            Tensor::randn(&[2, 4], 5),
            Tensor::randn(&[2, 4], 6),
        ];
        let got = fused.eval(&inputs).unwrap();
        let want = inputs[0]
            .add(&inputs[1])
            .unwrap()
            .relu()
            .mul(&inputs[2])
            .unwrap();
        assert_eq!(
            got[0]
                .to_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            want.to_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn sub_flips_when_chain_is_rhs() {
        // y = b - (x @ w): the GEMM sits on the RHS of the sub.
        let mut b = UdfBuilder::new("rsub", 3);
        let (x, w, bias) = (b.input(0), b.input(1), b.input(2));
        let xw = b.matmul(x, w);
        let y = b.sub(bias, xw);
        let udf = b.build(&[y]);
        let (fused, _) = fuse_udf(&udf, &shapes_of(&[&[1, 4], &[4, 4], &[1, 4]]));
        let fused = fused.expect("fusion should fire");
        match &fused.stmts[0].op {
            OpCode::FusedMatMul { epi, .. } => assert_eq!(epi, &[EpiOp::RSub]),
            other => panic!("expected FusedMatMul, got {other:?}"),
        }
        let inputs = [
            Tensor::randn(&[1, 4], 1),
            Tensor::randn(&[4, 4], 2),
            Tensor::randn(&[1, 4], 3),
        ];
        let got = fused.eval(&inputs).unwrap();
        let want = inputs[2]
            .sub(&inputs[0].matmul(&inputs[1]).unwrap())
            .unwrap();
        assert_eq!(
            got[0]
                .to_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            want.to_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }
}
