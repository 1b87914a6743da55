//! # ft-simd
//!
//! Portable SIMD kernel layer: the single home of every vectorized (and
//! every `unsafe`) inner loop in the FractalTensor reproduction. The
//! crates above it (`ft-tensor`, `ft-backend`) keep `#![forbid(unsafe_code)]`
//! and route their hot slices through the safe entry points here.
//!
//! ## Backend dispatch
//!
//! A [`Mode`] is resolved **once** at startup from the `FT_SIMD`
//! environment variable and CPU feature detection (see [`mode`]):
//!
//! | `FT_SIMD` | backend |
//! |-----------|---------|
//! | unset / `auto` | best supported: AVX2+FMA → SSE4.1 → scalar (x86_64); scalar elsewhere |
//! | `scalar` | plain Rust loops, bit-identical to the pre-SIMD code |
//! | `sse` | SSE4.1 128-bit transcendentals, no FMA |
//! | `avx2` | AVX2 + FMA 256-bit kernels |
//!
//! Vector kernels exist for x86_64 only: on any other target (aarch64
//! included) the scalar loops, which the compiler autovectorises, are the
//! native mode. An unsupported request falls back down the same ladder —
//! kernels verify CPU capability before executing vector code, so a forged
//! [`Mode`] can never fault. Every kernel takes the mode as an explicit
//! argument: call sites hoist one [`mode()`] load per operation, and the
//! parity suite can exercise every backend in one process without racing
//! on a global.
//!
//! ## Numeric contract
//!
//! * **Scalar mode reproduces the pre-SIMD code bitwise** — same ops, same
//!   order, `std` transcendentals.
//! * **Exact elementwise ops** (`add/sub/mul/div/max/scale/neg/relu/copy`)
//!   are bitwise identical in *every* mode: IEEE-754 lane ops equal the
//!   scalar ops element-for-element regardless of vector width.
//! * **GEMM** preserves the k-accumulation order in every mode. SSE mode is
//!   bitwise identical to scalar (mul+add, two roundings); AVX2 fuses
//!   the multiply-add into a single rounding per element, which is the only
//!   arithmetic difference (documented FMA contraction, no reassociation).
//! * **Transcendentals** (`exp`/`sigmoid`/`tanh`) use a degree-6 polynomial
//!   (Cephes `expf` coefficients) in vector modes, with documented ulp
//!   bounds vs the `f64`-evaluated reference (see [`math`]): ≤ 4 ulp for
//!   `exp` on `[-87.3, 88.0]`, ≤ 8 ulp for `sigmoid`/`tanh`. The *scalar
//!   tail* of every vector kernel evaluates the **same** polynomial with
//!   the same rounding (via `f32::mul_add` in FMA modes), so an element's
//!   bit pattern does not depend on whether it landed in a vector lane or
//!   a ragged tail — kernels may therefore be applied row-wise or
//!   buffer-wise interchangeably.
//! * **Reductions** (row sum/max, softmax max+sum, dot) stay strictly
//!   sequential in every mode: no reassociation, identical bits everywhere.
//!
//! Within one process exactly one mode is active, so every execution path
//! (arena executor, interpreter, reference semantics) sees the same kernels
//! and path-vs-path bitwise parity holds in every mode.
//!
//! ## What lives here
//!
//! * [`math`] — vectorized `exp` / `sigmoid` / `tanh` / `silu` / softmax.
//! * elementwise kernels ([`add_into`], [`mul_assign`], …).
//! * GEMM primitives: the 4×8 register-tile [`gemm_ukr`] used by the packed
//!   kernel, [`madd`] (axpy), and [`small_gemm_epi_rows`] — the leaf
//!   product of a whole [`Run`] of wavefront points against one shared
//!   `b`, register-tiled over rows and column blocks, with the fused
//!   epilogue applied while the tile is hot ([`small_gemm_epi`] is its
//!   one-leaf case).
//! * [`EpiOp`] / [`apply_epi`] — the epilogue micro-ops the plan-time
//!   fusion pass (ft-passes) attaches to GEMMs and elementwise chains.
//! * [`OwnedBlocks`] — a claim-once disjoint-block view over one output
//!   buffer, letting pool workers write results in place without locks or
//!   copies (used by `matmul_mt`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

mod blocks;
mod epi;
mod kernels;
pub mod math;
mod run;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use blocks::{BlockGuard, OwnedBlocks};
pub use epi::{apply_epi, leaf_operands, operand_count, EpiOp, MAX_EPI_OPERANDS};
pub use kernels::*;
pub use run::Run;

/// Microkernel register-block height (rows of A per panel).
pub const MR: usize = 4;
/// Microkernel register-block width (columns of B per panel).
pub const NR: usize = 8;

/// A SIMD backend. See the crate docs for the dispatch and numeric
/// contract of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain Rust loops; bit-identical to the pre-SIMD scalar code.
    Scalar,
    /// SSE4.1 128-bit vectors, no FMA (x86_64).
    #[cfg(target_arch = "x86_64")]
    Sse,
    /// AVX2 + FMA 256-bit vectors (x86_64).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Mode {
    /// Whether this backend's transcendental polynomials (and scalar
    /// tails) contract multiply-add into one rounding.
    pub fn fused(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            matches!(self, Mode::Avx2)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Whether the current CPU can execute this backend.
    pub fn supported(self) -> bool {
        match self {
            Mode::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Mode::Sse => std::arch::is_x86_feature_detected!("sse4.1"),
            #[cfg(target_arch = "x86_64")]
            Mode::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
        }
    }

    /// Short lowercase name (`"scalar"`, `"sse"`, `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Mode::Sse => "sse",
            #[cfg(target_arch = "x86_64")]
            Mode::Avx2 => "avx2",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Mode::Scalar => 1,
            #[cfg(target_arch = "x86_64")]
            Mode::Sse => 2,
            #[cfg(target_arch = "x86_64")]
            Mode::Avx2 => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Mode> {
        match v {
            1 => Some(Mode::Scalar),
            #[cfg(target_arch = "x86_64")]
            2 => Some(Mode::Sse),
            #[cfg(target_arch = "x86_64")]
            3 => Some(Mode::Avx2),
            _ => None,
        }
    }
}

/// The process-wide mode: 0 = unresolved, otherwise `Mode::to_u8`.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Best backend the CPU supports.
fn detect() -> Mode {
    #[cfg(target_arch = "x86_64")]
    {
        if Mode::Avx2.supported() {
            return Mode::Avx2;
        }
        if Mode::Sse.supported() {
            return Mode::Sse;
        }
    }
    Mode::Scalar
}

fn resolve_from_env() -> Mode {
    let requested = std::env::var("FT_SIMD").unwrap_or_default();
    let m = match requested.to_ascii_lowercase().as_str() {
        "scalar" | "off" | "0" => Mode::Scalar,
        #[cfg(target_arch = "x86_64")]
        "sse" => Mode::Sse,
        #[cfg(target_arch = "x86_64")]
        "avx2" => Mode::Avx2,
        _ => detect(),
    };
    if m.supported() {
        m
    } else {
        detect()
    }
}

/// The process-wide SIMD mode, resolved once from `FT_SIMD` + CPU feature
/// detection on first use. Call sites hoist one load per kernel batch and
/// pass the mode down explicitly.
pub fn mode() -> Mode {
    match Mode::from_u8(MODE.load(Ordering::Relaxed)) {
        Some(m) => m,
        None => {
            let m = resolve_from_env();
            // A concurrent first call may race; both resolve identically.
            MODE.store(m.to_u8(), Ordering::Relaxed);
            m
        }
    }
}

/// Overrides the process-wide mode. Intended for parity tests and the
/// per-kernel speedup benchmark; production code resolves via [`mode`].
/// Unsupported modes are ignored (the CPU cannot execute them).
pub fn set_mode(m: Mode) {
    if m.supported() {
        MODE.store(m.to_u8(), Ordering::Relaxed);
    }
}

/// Human-readable description of the resolved backend and why, for logs
/// and bench reports (e.g. `"avx2 (detected: avx2+fma)"`).
pub fn describe() -> String {
    let m = mode();
    let forced = std::env::var("FT_SIMD").ok().filter(|v| !v.is_empty());
    match forced {
        Some(v) => format!("{} (FT_SIMD={v})", m.name()),
        None => format!("{} (auto-detected)", m.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_supported() {
        assert!(Mode::Scalar.supported());
        assert!(!Mode::Scalar.fused());
    }

    #[test]
    fn mode_roundtrips_through_u8() {
        for m in [
            Mode::Scalar,
            #[cfg(target_arch = "x86_64")]
            Mode::Sse,
            #[cfg(target_arch = "x86_64")]
            Mode::Avx2,
        ] {
            assert_eq!(Mode::from_u8(m.to_u8()), Some(m));
        }
        assert_eq!(Mode::from_u8(0), None);
        assert_eq!(Mode::from_u8(99), None);
    }

    #[test]
    fn set_mode_ignores_unsupported() {
        let before = mode();
        set_mode(before); // no-op round trip keeps the resolved mode
        assert_eq!(mode(), before);
    }

    #[test]
    fn detect_is_supported() {
        assert!(detect().supported());
    }
}
