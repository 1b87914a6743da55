//! User-defined math functions (UDFs) on static-shape leaf tensors.
//!
//! The paper allows arbitrary side-effect-free tensor math at the innermost
//! level of an operator nest (§4.2), and the compiler *lowers* these
//! operation nodes into finer-grained block nodes during coarsening (§5.1).
//! To make that lowering possible the UDF is data, not an opaque closure: a
//! short SSA sequence of primitive tensor statements.

use ft_simd::EpiOp;
use ft_tensor::{Shape, Tensor};

use crate::program::CoreError;
use crate::Result;

/// An operand of a UDF statement: a nest input leaf or the result of an
/// earlier statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The `k`-th input leaf of the surrounding nest (in `reads` order).
    In(usize),
    /// The result of statement `k` of this UDF.
    Tmp(usize),
}

/// Primitive tensor operations available inside a UDF.
///
/// `*ColBc` variants broadcast a `[m, 1]` right-hand side across the columns
/// of a `[m, n]` left-hand side (needed by the online-softmax recurrence).
#[derive(Debug, Clone, PartialEq)]
pub enum OpCode {
    /// Matrix product `a @ b`.
    MatMul,
    /// Matrix product with transposed rhs: `a @ b.T`.
    MatMulT,
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise product.
    Mul,
    /// Elementwise division.
    Div,
    /// Elementwise maximum.
    Max,
    /// `a + b` with `b: [m, 1]` broadcast across columns.
    AddColBc,
    /// `a - b` with `b: [m, 1]` broadcast across columns.
    SubColBc,
    /// `a * b` with `b: [m, 1]` broadcast across columns.
    MulColBc,
    /// `a / b` with `b: [m, 1]` broadcast across columns.
    DivColBc,
    /// Multiply by a scalar constant.
    Scale(f32),
    /// Add a scalar constant.
    AddScalar(f32),
    /// Elementwise `tanh`.
    Tanh,
    /// Elementwise logistic sigmoid.
    Sigmoid,
    /// Elementwise `exp`.
    Exp,
    /// Elementwise negation.
    Neg,
    /// Elementwise ReLU.
    Relu,
    /// Row-wise maximum: `[m, n] -> [m, 1]`.
    RowMax,
    /// Row-wise sum: `[m, n] -> [m, 1]`.
    RowSum,
    /// Row-wise softmax.
    Softmax,
    /// Concatenation along an axis (variadic).
    Concat(usize),
    /// Slice `start..end` of one axis.
    Slice {
        /// Axis to slice.
        axis: usize,
        /// Range start.
        start: usize,
        /// Range end (exclusive).
        end: usize,
    },
    /// 2-D transpose.
    Transpose,
    /// Identity / copy.
    Id,
    /// Elementwise SiLU `x * sigmoid(x)` — the peephole form of
    /// `Mul(x, Sigmoid(x))` the fusion pass produces.
    Silu,
    /// Matrix product with a fused elementwise epilogue applied while the
    /// output tile is hot in registers. Operands: `a`, `b`, then one extra
    /// `[m, n]` operand per binary [`EpiOp`], in epilogue order. Bitwise
    /// identical to running the unfused sequence in the same SIMD mode.
    FusedMatMul {
        /// Whether the rhs is stored transposed (`a @ b.T`, `b: [n, k]`).
        transb: bool,
        /// Epilogue micro-ops, applied in order.
        epi: Vec<EpiOp>,
    },
    /// A collapsed elementwise chain applied to the first operand, with
    /// one extra equally-shaped operand per binary [`EpiOp`]. Bitwise
    /// identical to materializing every intermediate in the same mode.
    EwChain(Vec<EpiOp>),
}

impl OpCode {
    /// True for the compute-intensive operations that anchor kernel fusion
    /// (§2: "a compiler needs to precisely identify both memory-intensive
    /// and computation-intensive operations and jointly fuse \[them\]").
    pub fn is_compute_intensive(&self) -> bool {
        matches!(
            self,
            OpCode::MatMul | OpCode::MatMulT | OpCode::FusedMatMul { .. }
        )
    }

    /// Number of operands this opcode expects (`None` = variadic).
    pub fn arity(&self) -> Option<usize> {
        match self {
            OpCode::MatMul
            | OpCode::MatMulT
            | OpCode::Add
            | OpCode::Sub
            | OpCode::Mul
            | OpCode::Div
            | OpCode::Max
            | OpCode::AddColBc
            | OpCode::SubColBc
            | OpCode::MulColBc
            | OpCode::DivColBc => Some(2),
            OpCode::Concat(_) => None,
            OpCode::FusedMatMul { epi, .. } => Some(2 + ft_simd::operand_count(epi)),
            OpCode::EwChain(ops) => Some(1 + ft_simd::operand_count(ops)),
            _ => Some(1),
        }
    }
}

/// One SSA statement: `tmp_i = op(args...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The operation.
    pub op: OpCode,
    /// Its operands.
    pub args: Vec<Operand>,
}

/// A user-defined math function: an SSA sequence plus designated outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Udf {
    /// Human-readable name (shown in emitted kernels).
    pub name: String,
    /// The SSA statements, in order.
    pub stmts: Vec<Stmt>,
    /// Which operands constitute the function's outputs, in order of the
    /// nest's `writes`.
    pub outputs: Vec<Operand>,
    /// Number of input leaves the UDF expects.
    pub num_inputs: usize,
}

impl Udf {
    /// Validates SSA well-formedness: every operand refers to an input or a
    /// *previous* statement, and arities match.
    pub fn validate(&self) -> Result<()> {
        let check = |o: &Operand, at: usize| -> Result<()> {
            match o {
                Operand::In(k) if *k >= self.num_inputs => Err(CoreError::Udf(format!(
                    "statement {at}: input {k} out of {}",
                    self.num_inputs
                ))),
                Operand::Tmp(k) if *k >= at => Err(CoreError::Udf(format!(
                    "statement {at}: forward reference to tmp {k}"
                ))),
                _ => Ok(()),
            }
        };
        for (i, s) in self.stmts.iter().enumerate() {
            if let Some(n) = s.op.arity() {
                if s.args.len() != n {
                    return Err(CoreError::Udf(format!(
                        "statement {i}: {:?} expects {n} args, got {}",
                        s.op,
                        s.args.len()
                    )));
                }
            } else if s.args.is_empty() {
                return Err(CoreError::Udf(format!(
                    "statement {i}: variadic op with no args"
                )));
            }
            for a in &s.args {
                check(a, i)?;
            }
        }
        for o in &self.outputs {
            check(o, self.stmts.len())?;
        }
        if self.outputs.is_empty() {
            return Err(CoreError::Udf("UDF has no outputs".into()));
        }
        Ok(())
    }

    /// Evaluates the UDF on concrete input leaves.
    pub fn eval(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        if inputs.len() != self.num_inputs {
            return Err(CoreError::Udf(format!(
                "{}: expected {} inputs, got {}",
                self.name,
                self.num_inputs,
                inputs.len()
            )));
        }
        let mut tmps: Vec<Tensor> = Vec::with_capacity(self.stmts.len());
        let fetch = |o: &Operand, tmps: &[Tensor]| -> Tensor {
            match o {
                Operand::In(k) => inputs[*k].clone(),
                Operand::Tmp(k) => tmps[*k].clone(),
            }
        };
        for s in &self.stmts {
            let args: Vec<Tensor> = s.args.iter().map(|o| fetch(o, &tmps)).collect();
            tmps.push(eval_op(&s.op, &args)?);
        }
        Ok(self.outputs.iter().map(|o| fetch(o, &tmps)).collect())
    }

    /// Infers the result shapes of every statement (and the outputs) from
    /// the input leaf shapes. Used by the ETDG parser, the lowering pass,
    /// and the simulator's cost model.
    pub fn infer_shapes(&self, input_shapes: &[Shape]) -> Result<UdfShapes> {
        if input_shapes.len() != self.num_inputs {
            return Err(CoreError::Udf(format!(
                "{}: expected {} input shapes, got {}",
                self.name,
                self.num_inputs,
                input_shapes.len()
            )));
        }
        let mut tmp_shapes: Vec<Shape> = Vec::with_capacity(self.stmts.len());
        let fetch = |o: &Operand, tmps: &[Shape]| -> Shape {
            match o {
                Operand::In(k) => input_shapes[*k].clone(),
                Operand::Tmp(k) => tmps[*k].clone(),
            }
        };
        for (i, s) in self.stmts.iter().enumerate() {
            let args: Vec<Shape> = s.args.iter().map(|o| fetch(o, &tmp_shapes)).collect();
            let shape = infer_op_shape(&s.op, &args)
                .map_err(|e| CoreError::Udf(format!("{} stmt {i}: {e}", self.name)))?;
            tmp_shapes.push(shape);
        }
        let outputs = self.outputs.iter().map(|o| fetch(o, &tmp_shapes)).collect();
        Ok(UdfShapes {
            stmts: tmp_shapes,
            outputs,
        })
    }

    /// Total floating-point operations of one UDF invocation given input
    /// shapes — the compute side of the simulator's roofline model.
    pub fn flops(&self, input_shapes: &[Shape]) -> Result<u64> {
        let shapes = self.infer_shapes(input_shapes)?;
        let mut total = 0u64;
        let operand_shape = |o: &Operand| -> Shape {
            match o {
                Operand::In(k) => input_shapes[*k].clone(),
                Operand::Tmp(k) => shapes.stmts[*k].clone(),
            }
        };
        for s in &self.stmts {
            total += match &s.op {
                OpCode::MatMul => {
                    let a = operand_shape(&s.args[0]);
                    let b = operand_shape(&s.args[1]);
                    2 * a.dims()[0] as u64 * a.dims()[1] as u64 * b.dims()[1] as u64
                }
                OpCode::MatMulT => {
                    let a = operand_shape(&s.args[0]);
                    let b = operand_shape(&s.args[1]);
                    2 * a.dims()[0] as u64 * a.dims()[1] as u64 * b.dims()[0] as u64
                }
                OpCode::Softmax => {
                    let a = operand_shape(&s.args[0]);
                    4 * a.numel() as u64
                }
                OpCode::FusedMatMul { transb, epi } => {
                    let a = operand_shape(&s.args[0]);
                    let b = operand_shape(&s.args[1]);
                    let (m, k) = (a.dims()[0] as u64, a.dims()[1] as u64);
                    let n = if *transb { b.dims()[0] } else { b.dims()[1] } as u64;
                    let epi_flops: u64 = epi.iter().map(|o| o.flops()).sum();
                    2 * m * k * n + epi_flops * m * n
                }
                OpCode::EwChain(ops) => {
                    let a = operand_shape(&s.args[0]);
                    let per: u64 = ops.iter().map(|o| o.flops()).sum();
                    per * a.numel() as u64
                }
                op => {
                    let a = operand_shape(&s.args[0]);
                    match op {
                        OpCode::Id | OpCode::Slice { .. } | OpCode::Transpose => 0,
                        OpCode::Concat(_) => 0,
                        _ => a.numel() as u64,
                    }
                }
            };
        }
        Ok(total)
    }
}

/// Shapes inferred for a UDF: one per statement, plus the output shapes.
#[derive(Debug, Clone)]
pub struct UdfShapes {
    /// Result shape of each SSA statement.
    pub stmts: Vec<Shape>,
    /// Shapes of the declared outputs.
    pub outputs: Vec<Shape>,
}

fn terr(e: ft_tensor::TensorError) -> CoreError {
    CoreError::Udf(e.to_string())
}

fn eval_op(op: &OpCode, args: &[Tensor]) -> Result<Tensor> {
    let a = &args[0];
    Ok(match op {
        OpCode::MatMul => a.matmul(&args[1]).map_err(terr)?,
        OpCode::MatMulT => a.matmul_transb(&args[1]).map_err(terr)?,
        OpCode::Add => a.add(&args[1]).map_err(terr)?,
        OpCode::Sub => a.sub(&args[1]).map_err(terr)?,
        OpCode::Mul => a.mul(&args[1]).map_err(terr)?,
        OpCode::Div => a.div(&args[1]).map_err(terr)?,
        OpCode::Max => a.maximum(&args[1]).map_err(terr)?,
        OpCode::AddColBc => col_broadcast(a, &args[1], |x, y| x + y)?,
        OpCode::SubColBc => col_broadcast(a, &args[1], |x, y| x - y)?,
        OpCode::MulColBc => col_broadcast(a, &args[1], |x, y| x * y)?,
        OpCode::DivColBc => col_broadcast(a, &args[1], |x, y| x / y)?,
        OpCode::Scale(s) => a.mul_scalar(*s),
        OpCode::AddScalar(s) => a.add_scalar(*s),
        OpCode::Tanh => a.tanh(),
        OpCode::Sigmoid => a.sigmoid(),
        OpCode::Exp => a.exp(),
        OpCode::Neg => a.neg(),
        OpCode::Relu => a.relu(),
        OpCode::RowMax => row_reduce(a, f32::NEG_INFINITY, f32::max)?,
        OpCode::RowSum => row_reduce(a, 0.0, |x, y| x + y)?,
        OpCode::Softmax => a.softmax_rows().map_err(terr)?,
        OpCode::Concat(axis) => Tensor::concat(args, *axis).map_err(terr)?,
        OpCode::Slice { axis, start, end } => {
            a.slice(*axis, *start, *end).map_err(terr)?.to_contiguous()
        }
        OpCode::Transpose => a.t().map_err(terr)?.to_contiguous(),
        OpCode::Id => a.clone(),
        OpCode::Silu => a.silu(),
        OpCode::FusedMatMul { transb, epi } => {
            let base = if *transb {
                a.matmul_transb(&args[1]).map_err(terr)?
            } else {
                a.matmul(&args[1]).map_err(terr)?
            };
            apply_epi_tensor(&base, epi, &args[2..])?
        }
        OpCode::EwChain(ops) => apply_epi_tensor(a, ops, &args[1..])?,
    })
}

/// Runs an [`EpiOp`] chain on a materialized tensor — the interpreter-side
/// counterpart of the fused executor kernels. Same mode, same kernels, so
/// the result is bitwise identical to the epilogue applied in the GEMM
/// register tile (the fusion legality contract, see `ft_simd`).
fn apply_epi_tensor(base: &Tensor, ops: &[EpiOp], extra_args: &[Tensor]) -> Result<Tensor> {
    if ft_simd::operand_count(ops) != extra_args.len() {
        return Err(CoreError::Udf(format!(
            "epilogue expects {} extra operand(s), got {}",
            ft_simd::operand_count(ops),
            extra_args.len()
        )));
    }
    for e in extra_args {
        if e.dims() != base.dims() {
            return Err(CoreError::Udf(format!(
                "epilogue operand shape {:?} != result shape {:?}",
                e.dims(),
                base.dims()
            )));
        }
    }
    let mut data = base.to_vec();
    let extras: Vec<Vec<f32>> = extra_args.iter().map(|t| t.to_vec()).collect();
    let views: Vec<&[f32]> = extras.iter().map(|v| v.as_slice()).collect();
    ft_simd::apply_epi(ft_simd::mode(), &mut data, ops, &views);
    Tensor::from_vec(data, base.dims()).map_err(terr)
}

fn col_broadcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 || b.dims()[1] != 1 || b.dims()[0] != a.dims()[0] {
        return Err(CoreError::Udf(format!(
            "column broadcast needs [m,n] and [m,1], got {:?} and {:?}",
            a.dims(),
            b.dims()
        )));
    }
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        let bv = b.get(&[i, 0]).map_err(terr)?;
        for j in 0..n {
            out.set(&[i, j], f(a.get(&[i, j]).map_err(terr)?, bv))
                .map_err(terr)?;
        }
    }
    Ok(out)
}

fn row_reduce(a: &Tensor, init: f32, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(CoreError::Udf(format!(
            "row reduction needs rank 2, got {:?}",
            a.dims()
        )));
    }
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let mut out = Tensor::zeros(&[m, 1]);
    for i in 0..m {
        let mut acc = init;
        for j in 0..n {
            acc = f(acc, a.get(&[i, j]).map_err(terr)?);
        }
        out.set(&[i, 0], acc).map_err(terr)?;
    }
    Ok(out)
}

fn infer_op_shape(op: &OpCode, args: &[Shape]) -> std::result::Result<Shape, String> {
    let a = &args[0];
    let d = a.dims();
    Ok(match op {
        OpCode::MatMul => {
            let b = args[1].dims();
            if d.len() != 2 || b.len() != 2 || d[1] != b[0] {
                return Err(format!("matmul {d:?} @ {b:?}"));
            }
            Shape::new(&[d[0], b[1]])
        }
        OpCode::MatMulT => {
            let b = args[1].dims();
            if d.len() != 2 || b.len() != 2 || d[1] != b[1] {
                return Err(format!("matmul_transb {d:?} @ {b:?}"));
            }
            Shape::new(&[d[0], b[0]])
        }
        OpCode::Add | OpCode::Sub | OpCode::Mul | OpCode::Div | OpCode::Max => {
            if args[1].dims() != d {
                return Err(format!("elementwise {d:?} vs {:?}", args[1].dims()));
            }
            a.clone()
        }
        OpCode::AddColBc | OpCode::SubColBc | OpCode::MulColBc | OpCode::DivColBc => {
            let b = args[1].dims();
            if d.len() != 2 || b != [d[0], 1] {
                return Err(format!("column broadcast {d:?} vs {b:?}"));
            }
            a.clone()
        }
        OpCode::RowMax | OpCode::RowSum => {
            if d.len() != 2 {
                return Err(format!("row reduce on {d:?}"));
            }
            Shape::new(&[d[0], 1])
        }
        OpCode::Softmax => {
            if d.len() != 2 {
                return Err(format!("softmax on {d:?}"));
            }
            a.clone()
        }
        OpCode::Concat(axis) => {
            if *axis >= d.len() {
                return Err(format!("concat axis {axis} on {d:?}"));
            }
            let mut out = d.to_vec();
            out[*axis] = args.iter().map(|s| s.dims()[*axis]).sum();
            for s in args {
                for (ax, (&x, &y)) in s.dims().iter().zip(d.iter()).enumerate() {
                    if ax != *axis && x != y {
                        return Err(format!("concat mismatch {d:?} vs {:?}", s.dims()));
                    }
                }
            }
            Shape::new(&out)
        }
        OpCode::Slice { axis, start, end } => {
            if *axis >= d.len() || start >= end || *end > d[*axis] {
                return Err(format!("slice {start}..{end} axis {axis} on {d:?}"));
            }
            let mut out = d.to_vec();
            out[*axis] = end - start;
            Shape::new(&out)
        }
        OpCode::Transpose => {
            if d.len() != 2 {
                return Err(format!("transpose on {d:?}"));
            }
            Shape::new(&[d[1], d[0]])
        }
        OpCode::FusedMatMul { transb, epi } => {
            let b = args[1].dims();
            let out = if *transb {
                if d.len() != 2 || b.len() != 2 || d[1] != b[1] {
                    return Err(format!("fused matmul_transb {d:?} @ {b:?}"));
                }
                [d[0], b[0]]
            } else {
                if d.len() != 2 || b.len() != 2 || d[1] != b[0] {
                    return Err(format!("fused matmul {d:?} @ {b:?}"));
                }
                [d[0], b[1]]
            };
            if args.len() != 2 + ft_simd::operand_count(epi) {
                return Err(format!(
                    "fused matmul epilogue expects {} extra operand(s), got {}",
                    ft_simd::operand_count(epi),
                    args.len() - 2
                ));
            }
            for e in &args[2..] {
                if e.dims() != out {
                    return Err(format!("epilogue operand {:?} != result {out:?}", e.dims()));
                }
            }
            Shape::new(&out)
        }
        OpCode::EwChain(ops) => {
            if args.len() != 1 + ft_simd::operand_count(ops) {
                return Err(format!(
                    "elementwise chain expects {} extra operand(s), got {}",
                    ft_simd::operand_count(ops),
                    args.len() - 1
                ));
            }
            for e in &args[1..] {
                if e.dims() != d {
                    return Err(format!("chain operand {:?} != input {d:?}", e.dims()));
                }
            }
            a.clone()
        }
        _ => a.clone(),
    })
}

/// Fluent builder for [`Udf`]s.
///
/// # Examples
///
/// ```
/// use ft_core::expr::UdfBuilder;
///
/// // The running example's cell: y = x @ w + s (Listing 1, line 12).
/// let mut b = UdfBuilder::new("rnn_cell", 3);
/// let (x, w, s) = (b.input(0), b.input(1), b.input(2));
/// let xw = b.matmul(x, w);
/// let y = b.add(xw, s);
/// let udf = b.build(&[y]);
/// assert!(udf.validate().is_ok());
/// ```
#[derive(Debug)]
pub struct UdfBuilder {
    name: String,
    num_inputs: usize,
    stmts: Vec<Stmt>,
}

impl UdfBuilder {
    /// Starts a UDF taking `num_inputs` leaves.
    pub fn new(name: &str, num_inputs: usize) -> Self {
        UdfBuilder {
            name: name.to_string(),
            num_inputs,
            stmts: Vec::new(),
        }
    }

    /// The `k`-th input operand.
    pub fn input(&self, k: usize) -> Operand {
        Operand::In(k)
    }

    fn push(&mut self, op: OpCode, args: Vec<Operand>) -> Operand {
        self.stmts.push(Stmt { op, args });
        Operand::Tmp(self.stmts.len() - 1)
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::MatMul, vec![a, b])
    }

    /// `a @ b.T`.
    pub fn matmul_t(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::MatMulT, vec![a, b])
    }

    /// `a + b`.
    pub fn add(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::Add, vec![a, b])
    }

    /// `a - b`.
    pub fn sub(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::Sub, vec![a, b])
    }

    /// `a * b` (elementwise).
    pub fn mul(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::Mul, vec![a, b])
    }

    /// `a / b` (elementwise).
    pub fn div(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::Div, vec![a, b])
    }

    /// Elementwise max.
    pub fn max(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::Max, vec![a, b])
    }

    /// `a + b` with `[m,1]` column broadcast.
    pub fn add_col_bc(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::AddColBc, vec![a, b])
    }

    /// `a - b` with `[m,1]` column broadcast.
    pub fn sub_col_bc(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::SubColBc, vec![a, b])
    }

    /// `a * b` with `[m,1]` column broadcast.
    pub fn mul_col_bc(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::MulColBc, vec![a, b])
    }

    /// `a / b` with `[m,1]` column broadcast.
    pub fn div_col_bc(&mut self, a: Operand, b: Operand) -> Operand {
        self.push(OpCode::DivColBc, vec![a, b])
    }

    /// Scale by a constant.
    pub fn scale(&mut self, a: Operand, s: f32) -> Operand {
        self.push(OpCode::Scale(s), vec![a])
    }

    /// `tanh`.
    pub fn tanh(&mut self, a: Operand) -> Operand {
        self.push(OpCode::Tanh, vec![a])
    }

    /// Sigmoid.
    pub fn sigmoid(&mut self, a: Operand) -> Operand {
        self.push(OpCode::Sigmoid, vec![a])
    }

    /// SiLU (`x * sigmoid(x)`).
    pub fn silu(&mut self, a: Operand) -> Operand {
        self.push(OpCode::Silu, vec![a])
    }

    /// `exp`.
    pub fn exp(&mut self, a: Operand) -> Operand {
        self.push(OpCode::Exp, vec![a])
    }

    /// ReLU.
    pub fn relu(&mut self, a: Operand) -> Operand {
        self.push(OpCode::Relu, vec![a])
    }

    /// Row-wise max (`[m,n] -> [m,1]`).
    pub fn row_max(&mut self, a: Operand) -> Operand {
        self.push(OpCode::RowMax, vec![a])
    }

    /// Row-wise sum (`[m,n] -> [m,1]`).
    pub fn row_sum(&mut self, a: Operand) -> Operand {
        self.push(OpCode::RowSum, vec![a])
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: Operand) -> Operand {
        self.push(OpCode::Softmax, vec![a])
    }

    /// Concatenate along `axis`.
    pub fn concat(&mut self, args: Vec<Operand>, axis: usize) -> Operand {
        self.push(OpCode::Concat(axis), args)
    }

    /// Slice `start..end` of `axis`.
    pub fn slice(&mut self, a: Operand, axis: usize, start: usize, end: usize) -> Operand {
        self.push(OpCode::Slice { axis, start, end }, vec![a])
    }

    /// 2-D transpose.
    pub fn transpose(&mut self, a: Operand) -> Operand {
        self.push(OpCode::Transpose, vec![a])
    }

    /// Identity (marks an input as a pass-through output).
    pub fn id(&mut self, a: Operand) -> Operand {
        self.push(OpCode::Id, vec![a])
    }

    /// Finishes, designating outputs.
    pub fn build(self, outputs: &[Operand]) -> Udf {
        Udf {
            name: self.name,
            stmts: self.stmts,
            outputs: outputs.to_vec(),
            num_inputs: self.num_inputs,
        }
    }
}

/// Type alias kept for API symmetry with the paper's terminology.
pub type Expr = Stmt;

#[cfg(test)]
mod tests {
    use super::*;
    use ft_tensor::assert_allclose;

    fn rnn_cell() -> Udf {
        let mut b = UdfBuilder::new("rnn_cell", 3);
        let (x, w, s) = (b.input(0), b.input(1), b.input(2));
        let xw = b.matmul(x, w);
        let y = b.add(xw, s);
        b.build(&[y])
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert!(rnn_cell().validate().is_ok());
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let udf = Udf {
            name: "bad".into(),
            stmts: vec![Stmt {
                op: OpCode::Tanh,
                args: vec![Operand::Tmp(5)],
            }],
            outputs: vec![Operand::Tmp(0)],
            num_inputs: 1,
        };
        assert!(udf.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let udf = Udf {
            name: "bad".into(),
            stmts: vec![Stmt {
                op: OpCode::Add,
                args: vec![Operand::In(0)],
            }],
            outputs: vec![Operand::Tmp(0)],
            num_inputs: 1,
        };
        assert!(udf.validate().is_err());
    }

    #[test]
    fn eval_rnn_cell() {
        let udf = rnn_cell();
        let x = Tensor::randn(&[1, 8], 1);
        let w = Tensor::randn(&[8, 8], 2);
        let s = Tensor::randn(&[1, 8], 3);
        let out = udf.eval(&[x.clone(), w.clone(), s.clone()]).unwrap();
        let expected = x.matmul(&w).unwrap().add(&s).unwrap();
        assert_allclose(&out[0], &expected, 1e-5);
    }

    #[test]
    fn shape_inference_matches_eval() {
        let udf = rnn_cell();
        let shapes = udf
            .infer_shapes(&[
                Shape::new(&[1, 8]),
                Shape::new(&[8, 8]),
                Shape::new(&[1, 8]),
            ])
            .unwrap();
        assert_eq!(shapes.outputs[0].dims(), &[1, 8]);
        // Bad shapes are rejected.
        assert!(udf
            .infer_shapes(&[
                Shape::new(&[1, 8]),
                Shape::new(&[9, 8]),
                Shape::new(&[1, 8]),
            ])
            .is_err());
    }

    #[test]
    fn flops_of_rnn_cell() {
        let udf = rnn_cell();
        let f = udf
            .flops(&[
                Shape::new(&[1, 8]),
                Shape::new(&[8, 8]),
                Shape::new(&[1, 8]),
            ])
            .unwrap();
        // 2*1*8*8 for the matmul + 8 for the add.
        assert_eq!(f, 128 + 8);
    }

    #[test]
    fn col_broadcast_ops() {
        let mut b = UdfBuilder::new("sub_bc", 2);
        let (a, m) = (b.input(0), b.input(1));
        let r = b.sub_col_bc(a, m);
        let udf = b.build(&[r]);
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let m = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let out = udf.eval(&[a, m]).unwrap();
        assert_eq!(out[0].to_vec(), vec![0.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn row_reductions_and_softmax() {
        let mut b = UdfBuilder::new("soft", 1);
        let x = b.input(0);
        let mx = b.row_max(x);
        let sh = b.sub_col_bc(x, mx);
        let ex = b.exp(sh);
        let sm = b.row_sum(ex);
        let out = b.div_col_bc(ex, sm);
        let udf = b.build(&[out]);
        let x = Tensor::randn(&[3, 7], 4);
        let got = udf.eval(std::slice::from_ref(&x)).unwrap();
        assert_allclose(&got[0], &x.softmax_rows().unwrap(), 1e-5);
    }

    #[test]
    fn concat_and_slice() {
        let mut b = UdfBuilder::new("cs", 2);
        let (x, y) = (b.input(0), b.input(1));
        let c = b.concat(vec![x, y], 1);
        let s = b.slice(c, 1, 1, 3);
        let udf = b.build(&[s]);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let y = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        let out = udf.eval(&[x, y]).unwrap();
        assert_eq!(out[0].to_vec(), vec![2.0, 3.0]);
    }

    #[test]
    fn lstm_cell_gates_shape() {
        // LSTM cell: 4 gates from x@w + h@u + b, then c/h updates — the
        // Listing 2 cell body.
        let mut b = UdfBuilder::new("lstm_cell", 5);
        let (x, w, u, bias, h) = (b.input(0), b.input(1), b.input(2), b.input(3), b.input(4));
        let xw = b.matmul(x, w);
        let hu = b.matmul(h, u);
        let s = b.add(xw, hu);
        let g = b.add(s, bias);
        let udf = b.build(&[g]);
        let shapes = udf
            .infer_shapes(&[
                Shape::new(&[1, 16]),
                Shape::new(&[16, 64]),
                Shape::new(&[16, 64]),
                Shape::new(&[1, 64]),
                Shape::new(&[1, 16]),
            ])
            .unwrap();
        assert_eq!(shapes.outputs[0].dims(), &[1, 64]);
    }
}
