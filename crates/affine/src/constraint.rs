//! Linear inequality systems and Fourier–Motzkin elimination.
//!
//! After reordering (§5.2) the compiler must express the transformed
//! iteration domain as a loop nest again — the paper does this with
//! Fourier–Motzkin elimination, producing bounds like
//! `j₄ ∈ [2, L+D-1)`, `j₃ ∈ [max(1, j₄-L+1), min(j₄, D))` (Table 5).
//! This module implements exactly that: a [`ConstraintSet`] of affine
//! inequalities, variable elimination, and per-loop bound extraction.

use crate::{gcd, gcd_slice, AffineError, IntBox, IntMat, Result};

/// One affine inequality: `coeffs · x + constant >= 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Coefficients, one per variable.
    pub coeffs: Vec<i64>,
    /// Constant term.
    pub constant: i64,
}

impl Constraint {
    /// Creates `coeffs · x + constant >= 0`.
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Self {
        Constraint { coeffs, constant }
    }

    /// Evaluates the left-hand side at a point.
    pub fn eval(&self, x: &[i64]) -> i64 {
        self.coeffs
            .iter()
            .zip(x.iter())
            .map(|(c, v)| c * v)
            .sum::<i64>()
            + self.constant
    }

    /// True when the point satisfies the inequality.
    pub fn holds(&self, x: &[i64]) -> bool {
        self.eval(x) >= 0
    }

    /// Divides through by the gcd of all coefficients, tightening the
    /// constant with a floor (valid for integer solutions).
    fn normalize(&mut self) {
        let g = gcd(gcd_slice(&self.coeffs), 0).max(1);
        if g > 1 {
            for c in self.coeffs.iter_mut() {
                *c /= g;
            }
            self.constant = self.constant.div_euclid(g);
        }
    }

    /// True if no variable appears.
    fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }
}

/// A conjunction of affine inequalities over `nvars` integer variables.
///
/// Variable 0 is the *outermost* loop dimension, matching the paper's
/// convention that the iteration vector is processed in lexicographic order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintSet {
    nvars: usize,
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// An unconstrained set over `nvars` variables.
    pub fn unconstrained(nvars: usize) -> Self {
        ConstraintSet {
            nvars,
            constraints: Vec::new(),
        }
    }

    /// A rectangular domain: `los[i] <= x_i < his[i]`.
    pub fn from_box(los: &[i64], his: &[i64]) -> Result<Self> {
        if los.len() != his.len() {
            return Err(AffineError::DimMismatch(format!(
                "box bounds {} vs {}",
                los.len(),
                his.len()
            )));
        }
        let n = los.len();
        let mut set = ConstraintSet::unconstrained(n);
        for i in 0..n {
            let mut lo = vec![0i64; n];
            lo[i] = 1;
            set.push(Constraint::new(lo, -los[i])); // x_i - lo >= 0
            let mut hi = vec![0i64; n];
            hi[i] = -1;
            set.push(Constraint::new(hi, his[i] - 1)); // hi - 1 - x_i >= 0
        }
        Ok(set)
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The inequalities.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds an inequality (panics on wrong arity — programmer error).
    pub fn push(&mut self, mut c: Constraint) {
        assert_eq!(c.coeffs.len(), self.nvars, "constraint arity mismatch");
        c.normalize();
        if !self.constraints.contains(&c) {
            self.constraints.push(c);
        }
    }

    /// True when the point satisfies every inequality.
    pub fn contains(&self, x: &[i64]) -> bool {
        self.constraints.iter().all(|c| c.holds(x))
    }

    /// Rewrites the set for reordered variables `j = T·x`
    /// (so `x = T⁻¹·j`): each `a·x + c >= 0` becomes `(a·T⁻¹)·j + c >= 0`.
    pub fn transform_by(&self, t: &IntMat) -> Result<ConstraintSet> {
        if t.rows() != self.nvars || t.cols() != self.nvars {
            return Err(AffineError::DimMismatch(format!(
                "transform {}x{} on {} vars",
                t.rows(),
                t.cols(),
                self.nvars
            )));
        }
        let t_inv = t.inverse_unimodular()?;
        let mut out = ConstraintSet::unconstrained(self.nvars);
        for c in &self.constraints {
            // Row vector times matrix: (a · T^{-1})_j = sum_i a_i * T^{-1}[i][j].
            let mut coeffs = vec![0i64; self.nvars];
            for (j, slot) in coeffs.iter_mut().enumerate() {
                let mut acc = 0i64;
                for (i, &a) in c.coeffs.iter().enumerate() {
                    acc = acc
                        .checked_add(
                            a.checked_mul(t_inv.get(i, j))
                                .ok_or(AffineError::Overflow)?,
                        )
                        .ok_or(AffineError::Overflow)?;
                }
                *slot = acc;
            }
            out.push(Constraint::new(coeffs, c.constant));
        }
        Ok(out)
    }

    /// Eliminates variable `var` by Fourier–Motzkin, returning a set over
    /// the same variable indexing in which `var` no longer appears.
    pub fn eliminate(&self, var: usize) -> Result<ConstraintSet> {
        fourier_motzkin(self, var)
    }

    /// True when the system has no integer solutions detectable by FM over
    /// the rationals plus constant-constraint checking. (FM is exact for
    /// rational feasibility; for the unit-coefficient systems the compiler
    /// produces it is exact for integer feasibility too.)
    pub fn is_empty(&self) -> Result<bool> {
        let mut cur = self.clone();
        for v in 0..self.nvars {
            cur = cur.eliminate(v)?;
        }
        Ok(cur.constraints.iter().any(|c| c.constant < 0))
    }

    /// The set intersected with `hull`, as a box — `None` when some
    /// constraint couples two or more variables (the set is then not a box
    /// in general). Single-variable constraints tighten the hull's bounds
    /// with integer rounding, so the box holds exactly the set's integer
    /// points inside `hull`.
    pub fn box_within(&self, hull: &IntBox) -> Option<IntBox> {
        assert_eq!(hull.dims(), self.nvars, "hull arity mismatch");
        let mut b = hull.clone();
        for c in &self.constraints {
            let mut vars = (0..self.nvars).filter(|&v| c.coeffs[v] != 0);
            match (vars.next(), vars.next()) {
                (None, _) if c.constant < 0 => b.hi = b.lo.clone(),
                (None, _) => {}
                (Some(v), None) => {
                    let a = c.coeffs[v];
                    if a > 0 {
                        // x_v >= ceil(-constant / a).
                        b.lo[v] = b.lo[v].max(-c.constant.div_euclid(a));
                    } else {
                        // x_v <= floor(constant / -a).
                        b.hi[v] = b.hi[v].min(c.constant.div_euclid(-a) + 1);
                    }
                }
                (Some(_), Some(_)) => return None,
            }
        }
        Some(b)
    }

    /// Inclusive bounds `(min, max)` of `row · x` over the set, by
    /// Fourier–Motzkin projection onto a fresh variable `y = row · x`;
    /// `None` when the projection is empty.
    ///
    /// The bounds enclose every integer point of the set, and are attained
    /// when the set's rational extremes are integral (boxes, and the
    /// unit-coefficient systems the compiler builds). An unbounded row is an
    /// error.
    pub fn row_bounds(&self, row: &[i64]) -> Result<Option<(i64, i64)>> {
        let n = self.nvars;
        if row.len() != n {
            return Err(AffineError::DimMismatch(format!(
                "row of {} over {n} vars",
                row.len()
            )));
        }
        let widen = |coeffs: &[i64], y: i64| -> Vec<i64> {
            coeffs.iter().copied().chain(std::iter::once(y)).collect()
        };
        let mut set = ConstraintSet::unconstrained(n + 1);
        for c in &self.constraints {
            set.push(Constraint::new(widen(&c.coeffs, 0), c.constant));
        }
        let neg: Vec<i64> = row.iter().map(|&a| -a).collect();
        set.push(Constraint::new(widen(row, -1), 0)); // row·x - y >= 0
        set.push(Constraint::new(widen(&neg, 1), 0)); // y - row·x >= 0
        for v in 0..n {
            set = set.eliminate(v)?;
        }
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        let (mut has_lo, mut has_hi) = (false, false);
        for c in &set.constraints {
            let a = c.coeffs[n];
            if a > 0 {
                lo = lo.max(-c.constant.div_euclid(a));
                has_lo = true;
            } else if a < 0 {
                hi = hi.min(c.constant.div_euclid(-a));
                has_hi = true;
            } else if c.constant < 0 {
                return Ok(None);
            }
        }
        if !(has_lo && has_hi) {
            return Err(AffineError::Invalid(format!(
                "row {row:?} is unbounded over the set"
            )));
        }
        Ok((lo <= hi).then_some((lo, hi)))
    }

    /// Extracts loop bounds for every variable, outermost first: the bounds
    /// of variable `i` only reference variables `0..i`.
    ///
    /// This is the FM-based bound regeneration of §5.2 (producing the Table
    /// 5 ranges like `[max(1, j4-L+1), min(j4, D))`).
    pub fn loop_bounds(&self) -> Result<Vec<LoopBounds>> {
        let mut out: Vec<LoopBounds> = Vec::with_capacity(self.nvars);
        let mut cur = self.clone();
        // Innermost-first: read off bounds of var v from the system where
        // variables v+1.. have already been eliminated.
        for v in (0..self.nvars).rev() {
            let mut lowers = Vec::new();
            let mut uppers = Vec::new();
            for c in &cur.constraints {
                let a = c.coeffs[v];
                if a == 0 {
                    continue;
                }
                // a*x_v + rest + const >= 0.
                let mut rest = c.coeffs.clone();
                rest[v] = 0;
                if a > 0 {
                    // x_v >= ceil((-rest - const) / a).
                    lowers.push(BoundExpr {
                        coeffs: rest.iter().map(|&x| -x).collect(),
                        constant: -c.constant,
                        divisor: a,
                    });
                } else {
                    // x_v <= floor((rest + const) / (-a)); exclusive +1.
                    uppers.push(BoundExpr {
                        coeffs: rest.clone(),
                        constant: c.constant,
                        divisor: -a,
                    });
                }
            }
            if lowers.is_empty() || uppers.is_empty() {
                return Err(AffineError::Invalid(format!(
                    "variable {v} is unbounded; cannot form a loop nest"
                )));
            }
            out.push(LoopBounds {
                var: v,
                lowers,
                uppers,
            });
            cur = cur.eliminate(v)?;
        }
        // Any leftover constant contradiction means an empty domain; the
        // caller observes it as an empty loop range, which is fine.
        out.reverse();
        Ok(out)
    }

    /// Enumerates every integer point in lexicographic order. Intended for
    /// tests and small domains.
    pub fn enumerate(&self) -> Result<Vec<Vec<i64>>> {
        let bounds = self.loop_bounds()?;
        let mut points = Vec::new();
        let mut current = vec![0i64; self.nvars];
        self.enumerate_rec(&bounds, 0, &mut current, &mut points);
        Ok(points)
    }

    fn enumerate_rec(
        &self,
        bounds: &[LoopBounds],
        depth: usize,
        current: &mut Vec<i64>,
        points: &mut Vec<Vec<i64>>,
    ) {
        if depth == self.nvars {
            if self.contains(current) {
                points.push(current.clone());
            }
            return;
        }
        let lb = &bounds[depth];
        let lo = lb.eval_lower(current);
        let hi = lb.eval_upper_exclusive(current);
        for v in lo..hi {
            current[depth] = v;
            self.enumerate_rec(bounds, depth + 1, current, points);
        }
        current[depth] = 0;
    }
}

/// One affine bound expression: `(coeffs · x + constant) / divisor`
/// (`divisor > 0`; rounding direction depends on bound kind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundExpr {
    /// Coefficients over the *other* variables.
    pub coeffs: Vec<i64>,
    /// Constant term.
    pub constant: i64,
    /// Positive divisor.
    pub divisor: i64,
}

impl BoundExpr {
    fn eval_raw(&self, x: &[i64]) -> i64 {
        self.coeffs
            .iter()
            .zip(x.iter())
            .map(|(c, v)| c * v)
            .sum::<i64>()
            + self.constant
    }

    /// Ceiling evaluation (for lower bounds).
    pub fn eval_ceil(&self, x: &[i64]) -> i64 {
        let n = self.eval_raw(x);
        -((-n).div_euclid(self.divisor))
    }

    /// Floor evaluation (for upper bounds).
    pub fn eval_floor(&self, x: &[i64]) -> i64 {
        self.eval_raw(x).div_euclid(self.divisor)
    }
}

/// Loop bounds for one variable: `max(lowers) <= x < min(uppers)+1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopBounds {
    /// The variable index.
    pub var: usize,
    /// Lower-bound expressions (loop lower bound is their max).
    pub lowers: Vec<BoundExpr>,
    /// Upper-bound expressions, inclusive (loop exclusive bound is their
    /// min, plus one).
    pub uppers: Vec<BoundExpr>,
}

impl LoopBounds {
    /// The tight lower bound at a partially-fixed iteration point (only the
    /// entries for outer variables are read).
    pub fn eval_lower(&self, x: &[i64]) -> i64 {
        self.lowers
            .iter()
            .map(|b| b.eval_ceil(x))
            .max()
            .expect("loop_bounds guarantees at least one lower bound")
    }

    /// The tight *exclusive* upper bound at a partially-fixed point.
    pub fn eval_upper_exclusive(&self, x: &[i64]) -> i64 {
        self.uppers
            .iter()
            .map(|b| b.eval_floor(x))
            .min()
            .expect("loop_bounds guarantees at least one upper bound")
            + 1
    }
}

/// Fourier–Motzkin elimination of one variable: every pair of a lower bound
/// (`a > 0`) and an upper bound (`a < 0`) on `var` combines into a new
/// inequality without `var`; constraints not involving `var` pass through.
pub fn fourier_motzkin(set: &ConstraintSet, var: usize) -> Result<ConstraintSet> {
    if var >= set.nvars {
        return Err(AffineError::DimMismatch(format!(
            "eliminate var {var} of {}",
            set.nvars
        )));
    }
    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    let mut rest = Vec::new();
    for c in &set.constraints {
        match c.coeffs[var].signum() {
            1 => lowers.push(c.clone()),
            -1 => uppers.push(c.clone()),
            _ => rest.push(c.clone()),
        }
    }
    let mut out = ConstraintSet::unconstrained(set.nvars);
    for c in rest {
        out.push(c);
    }
    for lo in &lowers {
        for up in &uppers {
            let a = lo.coeffs[var]; // > 0
            let b = -up.coeffs[var]; // > 0
                                     // b*lo + a*up eliminates var.
            let mut coeffs = vec![0i64; set.nvars];
            for (i, slot) in coeffs.iter_mut().enumerate() {
                let t1 = b.checked_mul(lo.coeffs[i]).ok_or(AffineError::Overflow)?;
                let t2 = a.checked_mul(up.coeffs[i]).ok_or(AffineError::Overflow)?;
                *slot = t1.checked_add(t2).ok_or(AffineError::Overflow)?;
            }
            debug_assert_eq!(coeffs[var], 0);
            let constant = b
                .checked_mul(lo.constant)
                .and_then(|x| a.checked_mul(up.constant).map(|y| x + y))
                .ok_or(AffineError::Overflow)?;
            let c = Constraint::new(coeffs, constant);
            if c.is_constant() && c.constant >= 0 {
                continue; // Trivially true.
            }
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn box_contains() {
        let s = ConstraintSet::from_box(&[0, 1], &[3, 4]).unwrap();
        assert!(s.contains(&[0, 1]));
        assert!(s.contains(&[2, 3]));
        assert!(!s.contains(&[3, 1]));
        assert!(!s.contains(&[0, 0]));
    }

    #[test]
    fn eliminate_keeps_projection() {
        // 0 <= x < 4, 0 <= y < 4, x + y <= 3  (i.e. 3 - x - y >= 0).
        let mut s = ConstraintSet::from_box(&[0, 0], &[4, 4]).unwrap();
        s.push(Constraint::new(vec![-1, -1], 3));
        let no_y = s.eliminate(1).unwrap();
        // x can still be 0..=3 (for any x<=3 there is a valid y=0).
        for x in 0..4 {
            assert!(no_y.contains(&[x, 0]), "x={x} should remain feasible");
        }
        // The eliminated system should not mention y.
        for c in no_y.constraints() {
            assert_eq!(c.coeffs[1], 0);
        }
    }

    #[test]
    fn empty_system_detected() {
        let mut s = ConstraintSet::from_box(&[0], &[5]).unwrap();
        s.push(Constraint::new(vec![1], -10)); // x >= 10: contradiction.
        assert!(s.is_empty().unwrap());
        let ok = ConstraintSet::from_box(&[0], &[5]).unwrap();
        assert!(!ok.is_empty().unwrap());
    }

    #[test]
    fn loop_bounds_of_box() {
        let s = ConstraintSet::from_box(&[2, 0], &[5, 7]).unwrap();
        let b = s.loop_bounds().unwrap();
        assert_eq!(b[0].eval_lower(&[0, 0]), 2);
        assert_eq!(b[0].eval_upper_exclusive(&[0, 0]), 5);
        assert_eq!(b[1].eval_lower(&[3, 0]), 0);
        assert_eq!(b[1].eval_upper_exclusive(&[3, 0]), 7);
    }

    #[test]
    fn loop_bounds_of_skewed_wavefront() {
        // The paper's running-example wavefront: after skewing, the outer
        // variable w = d + l with 1 <= d < D, 1 <= l < L, and the inner
        // variable d has bounds max(1, w-L+1) <= d < min(w, D) — compare
        // Table 5's range constraints.
        let (big_d, big_l) = (3i64, 4i64);
        // Variables: (w, d); original l = w - d.
        let mut s = ConstraintSet::unconstrained(2);
        s.push(Constraint::new(vec![0, 1], -1)); // d >= 1
        s.push(Constraint::new(vec![0, -1], big_d - 1)); // d <= D-1
        s.push(Constraint::new(vec![1, -1], -1)); // l = w-d >= 1
        s.push(Constraint::new(vec![-1, 1], big_l - 1)); // l <= L-1
        let b = s.loop_bounds().unwrap();
        // w ranges over [2, D-1+L-1] = [2, D+L-2] inclusive.
        assert_eq!(b[0].eval_lower(&[0, 0]), 2);
        assert_eq!(b[0].eval_upper_exclusive(&[0, 0]), big_d + big_l - 1);
        // For w = 2: d in [1, min(2-1, D-1)] = [1, 1].
        assert_eq!(b[1].eval_lower(&[2, 0]), 1);
        assert_eq!(b[1].eval_upper_exclusive(&[2, 0]), 2);
        // For w = 5 (= D+L-2): d in [max(1, 5-L+1), D-1] = [2, 2].
        assert_eq!(b[1].eval_lower(&[5, 0]), 2);
        assert_eq!(b[1].eval_upper_exclusive(&[5, 0]), 3);
    }

    #[test]
    fn enumerate_triangle() {
        let mut s = ConstraintSet::from_box(&[0, 0], &[3, 3]).unwrap();
        s.push(Constraint::new(vec![-1, -1], 2)); // x + y <= 2.
        let pts = s.enumerate().unwrap();
        assert_eq!(pts.len(), 6); // (0,0)(0,1)(0,2)(1,0)(1,1)(2,0).
        assert!(pts.contains(&vec![2, 0]));
        assert!(!pts.contains(&vec![2, 1]));
        // Lexicographic order.
        let mut sorted = pts.clone();
        sorted.sort();
        assert_eq!(pts, sorted);
    }

    #[test]
    fn transform_preserves_membership() {
        let s = ConstraintSet::from_box(&[0, 0], &[4, 5]).unwrap();
        // Skew: j = (x + y, y).
        let t = IntMat::from_rows(&[vec![1, 1], vec![0, 1]]).unwrap();
        let st = s.transform_by(&t).unwrap();
        for x in 0..4 {
            for y in 0..5 {
                let j = t.matvec(&[x, y]).unwrap();
                assert!(st.contains(&j), "({x},{y}) -> {j:?} must stay inside");
            }
        }
        assert!(!st.contains(&[100, 0]));
    }

    #[test]
    fn unbounded_variable_is_an_error() {
        let mut s = ConstraintSet::unconstrained(1);
        s.push(Constraint::new(vec![1], 0)); // x >= 0 but no upper bound.
        assert!(s.loop_bounds().is_err());
    }

    #[test]
    fn region_domains_are_boxes() {
        // A parser region: the hull cut by single-variable thresholds
        // (t1 >= 1, t2 <= 0), redundant cuts included.
        let mut s = ConstraintSet::from_box(&[0, 0, 0], &[3, 4, 5]).unwrap();
        s.push(Constraint::new(vec![0, 1, 0], -1));
        s.push(Constraint::new(vec![0, 2, 0], -1)); // 2·t1 >= 1, i.e. t1 >= 1.
        s.push(Constraint::new(vec![0, 0, -1], 0));
        let b = s.box_within(&IntBox::hull(&[3, 4, 5])).unwrap();
        assert_eq!(b, IntBox::new(vec![0, 1, 0], vec![3, 4, 1]));
        let pts = s.enumerate().unwrap();
        assert_eq!(pts.len(), 3 * 3);
        assert!(pts.iter().all(|p| b.contains(p)));

        // A coupling constraint is not a box.
        s.push(Constraint::new(vec![-1, -1, 0], 3));
        assert!(s.box_within(&IntBox::hull(&[3, 4, 5])).is_none());

        // A constant contradiction is the empty box; the hull clips an
        // unbounded set.
        let mut e = ConstraintSet::unconstrained(1);
        e.push(Constraint::new(vec![0], -1));
        assert!(e.box_within(&IntBox::hull(&[4])).unwrap().is_empty());
        let open = ConstraintSet::unconstrained(2);
        assert_eq!(
            open.box_within(&IntBox::hull(&[2, 3])),
            Some(IntBox::hull(&[2, 3]))
        );
    }

    #[test]
    fn row_bounds_of_the_skewed_wavefront() {
        // Table 5's transformed domain (w, d): the wavefront w spans
        // [2, D+L-2] and w - d (the original l) spans [1, L-1].
        let (big_d, big_l) = (3i64, 4i64);
        let mut s = ConstraintSet::unconstrained(2);
        s.push(Constraint::new(vec![0, 1], -1));
        s.push(Constraint::new(vec![0, -1], big_d - 1));
        s.push(Constraint::new(vec![1, -1], -1));
        s.push(Constraint::new(vec![-1, 1], big_l - 1));
        let pts = s.enumerate().unwrap();
        for row in [[1, 0], [0, 1], [1, -1], [2, 1], [-1, 3]] {
            let vals: Vec<i64> = pts.iter().map(|p| row[0] * p[0] + row[1] * p[1]).collect();
            let want = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());
            assert_eq!(s.row_bounds(&row).unwrap(), Some(want), "row {row:?}");
        }
        let mut empty = s.clone();
        empty.push(Constraint::new(vec![1, 0], -100));
        assert_eq!(empty.row_bounds(&[1, 0]).unwrap(), None);
        let mut half = ConstraintSet::unconstrained(1);
        half.push(Constraint::new(vec![1], 0));
        assert!(half.row_bounds(&[1]).is_err(), "x >= 0 has no maximum");
        assert!(s.row_bounds(&[1]).is_err(), "arity mismatch");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_box_within_matches_enumeration(
            his in proptest::collection::vec(1i64..5, 1..4),
            cut_var in 0usize..3,
            cut_at in 0i64..5,
            cut_up in 0i64..2,
        ) {
            let n = his.len();
            let mut s = ConstraintSet::from_box(&vec![0; n], &his).unwrap();
            let mut coeffs = vec![0i64; n];
            let v = cut_var % n;
            if cut_up == 1 {
                coeffs[v] = 1;
                s.push(Constraint::new(coeffs, -cut_at)); // t_v >= cut_at
            } else {
                coeffs[v] = -1;
                s.push(Constraint::new(coeffs, cut_at)); // t_v <= cut_at
            }
            let hull: Vec<usize> = his.iter().map(|&h| h as usize).collect();
            let b = s.box_within(&IntBox::hull(&hull)).unwrap();
            let pts = s.enumerate().unwrap();
            let count: i64 = if b.is_empty() {
                0
            } else {
                b.lo.iter().zip(&b.hi).map(|(l, h)| h - l).product()
            };
            prop_assert_eq!(pts.len() as i64, count);
            for p in &pts {
                prop_assert!(b.contains(p));
            }
        }

        #[test]
        fn prop_row_bounds_enclose_and_attain(
            his in proptest::collection::vec(1i64..5, 2..4),
            row in proptest::collection::vec(-2i64..3, 3..4),
            couple in 0i64..2,
            cap in 0i64..7,
        ) {
            let n = his.len();
            let mut s = ConstraintSet::from_box(&vec![0; n], &his).unwrap();
            if couple == 1 {
                // x_0 + x_1 <= cap: unit coefficients, integral vertices.
                let mut coeffs = vec![0i64; n];
                coeffs[0] = -1;
                coeffs[1] = -1;
                s.push(Constraint::new(coeffs, cap));
            }
            let row = &row[..n];
            let vals: Vec<i64> = s
                .enumerate()
                .unwrap()
                .iter()
                .map(|p| row.iter().zip(p).map(|(a, b)| a * b).sum())
                .collect();
            let want = vals
                .iter()
                .min()
                .map(|&lo| (lo, *vals.iter().max().unwrap()));
            prop_assert_eq!(s.row_bounds(row).unwrap(), want);
        }

        #[test]
        fn prop_elimination_preserves_feasibility(
            his in proptest::collection::vec(1i64..5, 2..4),
            extra_a in -2i64..3, extra_b in -2i64..3, extra_c in 0i64..6,
        ) {
            let n = his.len();
            let los = vec![0i64; n];
            let mut s = ConstraintSet::from_box(&los, &his).unwrap();
            let mut coeffs = vec![0i64; n];
            coeffs[0] = extra_a;
            coeffs[n - 1] = extra_b;
            s.push(Constraint::new(coeffs, extra_c));
            // Every feasible point must remain feasible after eliminating
            // the last variable (projection property of FM).
            let elim = s.eliminate(n - 1).unwrap();
            let mut idx = vec![0i64; n];
            loop {
                if s.contains(&idx) {
                    let mut proj = idx.clone();
                    proj[n - 1] = 0;
                    prop_assert!(elim.contains(&proj));
                }
                // Odometer increment over the box.
                let mut k = n;
                loop {
                    if k == 0 { break; }
                    k -= 1;
                    idx[k] += 1;
                    if idx[k] < his[k] { break; }
                    idx[k] = 0;
                    if k == 0 { k = usize::MAX; break; }
                }
                if k == usize::MAX || (k == 0 && idx.iter().all(|&v| v == 0)) {
                    break;
                }
            }
        }

        #[test]
        fn prop_enumerate_matches_contains(
            his in proptest::collection::vec(1i64..4, 1..4),
        ) {
            let los = vec![0i64; his.len()];
            let s = ConstraintSet::from_box(&los, &his).unwrap();
            let pts = s.enumerate().unwrap();
            let expected: i64 = his.iter().product();
            prop_assert_eq!(pts.len() as i64, expected);
            for p in &pts {
                prop_assert!(s.contains(p));
            }
        }
    }
}
