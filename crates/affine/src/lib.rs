//! # ft-affine
//!
//! Exact integer/rational linear algebra and polyhedral utilities — the
//! mathematical substrate of the FractalTensor compiler (SOSP 2024, §4.4 and
//! §5.2).
//!
//! The paper's access maps are quasi-affine functions `i = M·t + o` from a
//! block node's iteration space to a buffer node's data space; its access
//! reordering builds a *unimodular* transformation matrix whose first row is
//! a Lamport-hyperplane schedule, detects data reuse through the *null
//! space* of access matrices, and recomputes loop bounds with
//! *Fourier–Motzkin elimination*. This crate implements all of that over
//! exact `i64`/rational arithmetic:
//!
//! * [`Rational`] — overflow-checked exact rationals,
//! * [`IntMat`] — integer matrices with Bareiss determinants, rational
//!   inverses, null-space bases, and unimodular row completion,
//! * [`AffineMap`] — `M·t + o` access maps with composition,
//! * [`ConstraintSet`] / [`fourier_motzkin`] — linear inequality systems,
//!   variable elimination, per-loop bound extraction, and the bounds of an
//!   affine row over a set,
//! * [`IntBox`] — axis-aligned integer boxes (the shape of every block
//!   domain) with intersection, difference, and extreme corners, on which
//!   the verifier decides map legality without enumerating points,
//! * [`Lin`] — one-parameter linear sizes (`c0 + c1·L`) with the
//!   all-extents domination order used by the shape-polymorphic memory
//!   planner,
//! * lexicographic-order helpers used by dependence legality checks.
//!
//! No floating point appears anywhere in this crate: every compiler decision
//! downstream is exact.

#![forbid(unsafe_code)]

mod constraint;
mod ibox;
mod lin;
mod map;
mod matrix;
mod rational;

pub use constraint::{fourier_motzkin, BoundExpr, Constraint, ConstraintSet, LoopBounds};
pub use ibox::IntBox;
pub use lin::Lin;
pub use map::AffineMap;
pub use matrix::IntMat;
pub use rational::Rational;

/// Errors produced by the exact linear-algebra layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AffineError {
    /// A matrix/vector dimension did not match.
    DimMismatch(String),
    /// Arithmetic overflowed `i64`.
    Overflow,
    /// Division by zero in rational arithmetic.
    DivisionByZero,
    /// The matrix is singular where an inverse was required.
    Singular,
    /// Input vector is not primitive (gcd != 1) where required.
    NotPrimitive,
    /// Generic invalid-argument error.
    Invalid(String),
}

impl std::fmt::Display for AffineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AffineError::DimMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            AffineError::Overflow => write!(f, "integer overflow in exact arithmetic"),
            AffineError::DivisionByZero => write!(f, "division by zero"),
            AffineError::Singular => write!(f, "matrix is singular"),
            AffineError::NotPrimitive => write!(f, "vector is not primitive (gcd != 1)"),
            AffineError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AffineError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, AffineError>;

/// Greatest common divisor (always non-negative; `gcd(0, 0) == 0`).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// GCD of a whole slice.
pub fn gcd_slice(v: &[i64]) -> i64 {
    v.iter().copied().fold(0, gcd)
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y == g == gcd(a, b)`.
pub fn egcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        if a < 0 {
            (-a, -1, 0)
        } else {
            (a, 1, 0)
        }
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// True when `v` is lexicographically positive (first nonzero entry > 0).
/// The zero vector is *not* lex-positive.
pub fn is_lex_positive(v: &[i64]) -> bool {
    for &x in v {
        if x > 0 {
            return true;
        }
        if x < 0 {
            return false;
        }
    }
    false
}

/// Lexicographic comparison of two equal-length vectors.
pub fn lex_cmp(a: &[i64], b: &[i64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd_slice(&[4, 6, 8]), 2);
        assert_eq!(gcd_slice(&[]), 0);
    }

    #[test]
    fn egcd_bezout() {
        let (g, x, y) = egcd(240, 46);
        assert_eq!(g, 2);
        assert_eq!(240 * x + 46 * y, 2);
        let (g, x, y) = egcd(-7, 3);
        assert_eq!(g, 1);
        assert_eq!(-7 * x + 3 * y, 1);
    }

    #[test]
    fn lex_positive() {
        assert!(is_lex_positive(&[0, 1, -5]));
        assert!(!is_lex_positive(&[0, -1, 5]));
        assert!(!is_lex_positive(&[0, 0, 0]));
        assert!(is_lex_positive(&[2]));
    }

    #[test]
    fn lex_ordering() {
        use std::cmp::Ordering;
        assert_eq!(lex_cmp(&[1, 2], &[1, 3]), Ordering::Less);
        assert_eq!(lex_cmp(&[2, 0], &[1, 9]), Ordering::Greater);
        assert_eq!(lex_cmp(&[1, 2], &[1, 2]), Ordering::Equal);
    }

    proptest! {
        #[test]
        fn prop_egcd_is_bezout(a in -10_000i64..10_000, b in -10_000i64..10_000) {
            let (g, x, y) = egcd(a, b);
            prop_assert_eq!(g, gcd(a, b));
            prop_assert_eq!(a * x + b * y, g);
        }

        #[test]
        fn prop_gcd_divides(a in 1i64..10_000, b in 1i64..10_000) {
            let g = gcd(a, b);
            prop_assert_eq!(a % g, 0);
            prop_assert_eq!(b % g, 0);
        }
    }
}
