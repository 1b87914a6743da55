//! # ft-core
//!
//! The FractalTensor programming model (SOSP 2024, §4): the paper's primary
//! contribution surface.
//!
//! Two complementary layers live here:
//!
//! 1. **The eager ADT** ([`FractalTensor`]) — a nested list whose elements
//!    are static-shape tensors or further FractalTensors, together with the
//!    paper's second-order array compute operators (`map`, `reduce`,
//!    `foldl/r`, `scanl/r`, Table 1) and first-order array access operators
//!    (`slide window`, `stride`, `reverse`, `gather`). These execute
//!    immediately and define the *reference semantics* every compiled
//!    schedule is tested against.
//!
//! 2. **The staged program IR** ([`Program`], [`Nest`]) — the abstract
//!    syntax of Appendix A, in which a DNN is a sequence of perfect compute-
//!    operator nests reading and writing declared FractalTensor buffers
//!    through affine [`AccessSpec`]s, with user-defined math functions
//!    ([`Expr`] / [`Udf`]) at the leaves. The ETDG parser (`ft-etdg`)
//!    consumes this IR; [`interp::run_program`] is its naive lexicographic
//!    interpreter, used as a second oracle.
//!
//! A key representation choice mirrors the paper's ETDG closely: aggregate
//! operators (`scan`/`fold`/`reduce`) are *not* modeled with hidden carried
//! state. Instead, a nest reads its **own output buffer at a negative
//! offset** along the scanned dimension, with a declared [`CarriedInit`]
//! saying what the first iteration reads instead. The parser then splits
//! the iteration domain into boundary/interior regions — exactly how the
//! paper turns the "first step differs" conditionals of nested scans into
//! separate data-parallel block nodes (§6.3: a stacked LSTM parses into 4
//! block nodes, a stacked grid RNN into 8).

#![forbid(unsafe_code)]

pub mod access;
pub mod adt;
pub mod builders;
pub mod expr;
pub mod interp;
pub mod poly;
pub mod program;
pub mod sig;

pub use access::{AccessSpec, AxisExpr};
pub use adt::FractalTensor;
pub use expr::{Expr, Udf};
pub use poly::{analyze_outer, with_outer_extent, OuterInfo};
pub use program::{
    BufferDecl, BufferId, BufferKind, CarriedInit, CoreError, Nest, OpKind, Program, Read, Write,
};
pub use sig::{
    family_split, poly_split, program_signature, structural_bytes, PolySplit, ProgramSig, StructKey,
};

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;
