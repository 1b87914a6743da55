//! Vectorized transcendental math: `exp`, `sigmoid`, `tanh`, `silu`,
//! and row-wise softmax, with documented accuracy bounds.
//!
//! ## Polynomial
//!
//! Vector modes evaluate `exp` by range reduction `x = n·ln 2 + r`
//! (two-term `ln 2` split, round-to-nearest-even `n`, clamped to
//! `[-87.34, 88.72]`) followed by a degree-6 polynomial in `r` with the
//! Cephes `expf` coefficients. `sigmoid` and `tanh` derive from that
//! `exp` core:
//!
//! * `sigmoid(x) = 1 / (1 + exp(-x))`
//! * `tanh(x)    = sign(x) · (1 − 2 / (exp(2|x|) + 1))`
//! * `silu(x)    = x · sigmoid(x)`
//!
//! The FMA mode (AVX2) contracts each polynomial multiply-add
//! into a single rounding; SSE evaluates the same sequence with separate
//! multiply and add.
//!
//! ## Ulp bounds (vs the `f64`-evaluated reference)
//!
//! | kernel | domain | bound |
//! |---------|----------------|-------|
//! | `exp` | `[-87.3, 88.0]` | ≤ 4 ulp |
//! | `sigmoid` | all finite | ≤ 8 ulp |
//! | `tanh` | all finite | ≤ 8 ulp |
//!
//! On `(88.02, 88.72]` the `n ≤ 127` exponent clamp trades a few more ulp
//! for overflow safety; above `88.72` the result is `+inf` exactly.
//! `NaN` propagates, `tanh(±0) = ±0` bitwise, and saturation to `±1`
//! (`tanh`) / `{0, 1}` (`sigmoid`) is exact.
//!
//! ## Tail policy
//!
//! The scalar tail of every vector kernel evaluates the *same* polynomial
//! with the same rounding (`f32::mul_add` in FMA modes), so an element's
//! bits never depend on whether it landed in a vector lane or a ragged
//! tail. Scalar mode bypasses the polynomial entirely and applies the
//! `std` definitions bitwise. Softmax keeps its row-max and denominator
//! reductions strictly sequential in every mode.

pub use crate::kernels::{
    exp32, exp_ip, sigmoid32, sigmoid_ip, silu32, silu_ip, softmax_rows, tanh32, tanh_ip,
};
