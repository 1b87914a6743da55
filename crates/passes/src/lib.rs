//! # ft-passes
//!
//! Dependence-driven global analysis (SOSP 2024, §5.1–§5.2): the three
//! architecture-independent transformations that turn a parsed ETDG into an
//! efficient schedule.
//!
//! * [`compose`] — the Table 3 composition rules for merging array compute
//!   operators,
//! * [`lower`] — operation-node lowering: user-defined math functions
//!   decompose into finer-grained child block nodes (Figure 5),
//! * [`mod@coarsen`] — width-wise coarsening (horizontal and vertical block
//!   merging) and depth-wise dimension merging, plus access-map fusion
//!   (copy elimination by composing access matrices),
//! * [`depend`] — dependence distance vectors per Table 4, derived exactly
//!   from each block's self-read access maps,
//! * [`fusion`] — UDF-level kernel fusion: SiLU peephole, GEMM epilogue
//!   absorption into the register tile, elementwise-chain collapse,
//! * [`reorder`] — the unimodular reordering framework: a Lamport-hyperplane
//!   first row that carries every dependence, null-space reuse analysis to
//!   interchange data-reuse dimensions inward, and Fourier–Motzkin
//!   regeneration of loop bounds (Figure 6 / Table 5),
//! * [`pipeline`] — `compile()`, packaging everything into a
//!   [`pipeline::CompiledProgram`] the backend executes.

#![forbid(unsafe_code)]

pub mod coarsen;
pub mod compose;
pub mod depend;
pub mod fusion;
pub mod layout;
pub mod lower;
pub mod pipeline;
pub mod poly;
pub mod reorder;

pub use coarsen::{coarsen, CoarsePlan, Group, MergeKind};
pub use compose::compose_ops;
pub use depend::distance_vectors;
pub use fusion::{fuse_graph, fuse_udf, FusionStats};
pub use layout::{plan_memory, BufferLayout, MemoryPlan, Placement};
pub use pipeline::{compile, CompiledProgram, ScheduledGroup};
pub use poly::{plan_memory_symbolic, MemoryTemplate, PolyCache, PolyPlan};
pub use reorder::{reorder_block, Reordering};

/// Errors from the analysis passes.
#[derive(Debug, Clone, PartialEq)]
pub enum PassError {
    /// Propagated affine-arithmetic failure.
    Affine(String),
    /// Propagated ETDG failure.
    Etdg(String),
    /// A legality check failed (would reorder across a dependence).
    Illegal(String),
    /// Malformed input to a pass.
    Invalid(String),
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassError::Affine(m) => write!(f, "affine error: {m}"),
            PassError::Etdg(m) => write!(f, "ETDG error: {m}"),
            PassError::Illegal(m) => write!(f, "illegal transformation: {m}"),
            PassError::Invalid(m) => write!(f, "invalid pass input: {m}"),
        }
    }
}

impl std::error::Error for PassError {}

impl From<ft_affine::AffineError> for PassError {
    fn from(e: ft_affine::AffineError) -> Self {
        PassError::Affine(e.to_string())
    }
}

impl From<ft_etdg::EtdgError> for PassError {
    fn from(e: ft_etdg::EtdgError) -> Self {
        PassError::Etdg(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, PassError>;
