//! # ft-backend
//!
//! Schedule execution for compiled FractalTensor programs.
//!
//! Three facilities live here:
//!
//! * [`exec`] — a real multi-threaded CPU executor. It walks a
//!   [`ft_passes::CompiledProgram`] group by group; within a group it runs
//!   the wavefront dimension sequentially and fans every iteration of the
//!   remaining (parallel) dimensions out over a persistent
//!   [`ft_pool::WorkerPool`] fed by an atomic chunk cursor. Each group's
//!   access maps are partially evaluated once into an access plan
//!   (`plan`), and cross-nest members fused into one group forward
//!   intermediates through a dense per-point scratch-slot table — the
//!   register/shared-memory forwarding a fused macro-kernel performs on
//!   the GPU.
//! * [`mod@reference`] — the pre-pool executor (scoped-thread spawn per
//!   wavefront step, hashed overlay), kept as the benchmark baseline and
//!   a differential oracle.
//! * [`emit`] — the code emitter: walks the same schedule and renders each
//!   launch group as a pseudo-CUDA macro-kernel (grid shape, wavefront
//!   loop, region guards, the UDF body, and the tile-library staging
//!   hints), demonstrating the §5.3 lowering without requiring a GPU.
//!
//! Executor outputs are tested bit-for-bit against the naive
//! `ft_core::interp` oracle across the workspace.

#![forbid(unsafe_code)]
// Fault paths must degrade into typed errors, never panic-crash: non-test
// code in this crate is unwrap/expect-free (CI's chaos job checks --lib).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod emit;
pub mod exec;
mod plan;
pub mod reference;

pub use emit::{emit_program, EmitError};
pub use exec::{execute, Degradation, ExecError, ExecOutcome, Executor, FaultPlan};
pub use reference::execute_reference;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ExecError>;
