//! Integer matrices: products, exact determinants, unimodular inverses,
//! null-space bases, and unimodular completion of a schedule row.

use crate::{egcd, gcd_slice, AffineError, Rational, Result};

/// A dense integer matrix, row-major.
///
/// Sizes here are tiny (block nodes have at most ~6 dimensions), so all
/// algorithms favour exactness and clarity over asymptotics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IntMat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IntMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = IntMat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1;
        }
        m
    }

    /// Builds a matrix from row slices; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<i64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(AffineError::DimMismatch(format!(
                    "row length {} != {}",
                    row.len(),
                    c
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(IntMat {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> i64 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    pub fn set(&mut self, r: usize, c: usize, v: i64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[i64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` as a vector.
    pub fn col(&self, c: usize) -> Vec<i64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> IntMat {
        let mut t = IntMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Checked matrix product.
    pub fn matmul(&self, other: &IntMat) -> Result<IntMat> {
        if self.cols != other.rows {
            return Err(AffineError::DimMismatch(format!(
                "matmul {}x{} @ {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = IntMat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0i64;
                for k in 0..self.cols {
                    let term = self
                        .get(i, k)
                        .checked_mul(other.get(k, j))
                        .ok_or(AffineError::Overflow)?;
                    acc = acc.checked_add(term).ok_or(AffineError::Overflow)?;
                }
                out.set(i, j, acc);
            }
        }
        Ok(out)
    }

    /// Checked matrix–vector product.
    pub fn matvec(&self, v: &[i64]) -> Result<Vec<i64>> {
        if self.cols != v.len() {
            return Err(AffineError::DimMismatch(format!(
                "matvec {}x{} @ {}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        let mut out = vec![0i64; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let mut acc = 0i64;
            for (k, &x) in v.iter().enumerate() {
                let term = self.get(i, k).checked_mul(x).ok_or(AffineError::Overflow)?;
                acc = acc.checked_add(term).ok_or(AffineError::Overflow)?;
            }
            *slot = acc;
        }
        Ok(out)
    }

    /// Exact determinant via the Bareiss fraction-free algorithm.
    pub fn det(&self) -> Result<i64> {
        if self.rows != self.cols {
            return Err(AffineError::DimMismatch(format!(
                "det of {}x{}",
                self.rows, self.cols
            )));
        }
        let n = self.rows;
        if n == 0 {
            return Ok(1);
        }
        let mut a: Vec<Vec<i128>> = (0..n)
            .map(|r| self.row(r).iter().map(|&x| x as i128).collect())
            .collect();
        let mut sign = 1i128;
        let mut prev = 1i128;
        for k in 0..n - 1 {
            if a[k][k] == 0 {
                // Pivot: find a row below with a nonzero entry.
                let swap = (k + 1..n).find(|&r| a[r][k] != 0);
                match swap {
                    Some(r) => {
                        a.swap(k, r);
                        sign = -sign;
                    }
                    None => return Ok(0),
                }
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let num = a[i][j]
                        .checked_mul(a[k][k])
                        .and_then(|x| a[i][k].checked_mul(a[k][j]).map(|y| x - y))
                        .ok_or(AffineError::Overflow)?;
                    a[i][j] = num / prev;
                }
                a[i][k] = 0;
            }
            prev = a[k][k];
        }
        let d = sign * a[n - 1][n - 1];
        i64::try_from(d).map_err(|_| AffineError::Overflow)
    }

    /// True iff square with determinant ±1.
    pub fn is_unimodular(&self) -> bool {
        self.rows == self.cols && matches!(self.det(), Ok(1) | Ok(-1))
    }

    /// Inverse of a unimodular matrix (which is again integral).
    pub fn inverse_unimodular(&self) -> Result<IntMat> {
        if self.rows != self.cols {
            return Err(AffineError::DimMismatch(format!(
                "inverse of {}x{}",
                self.rows, self.cols
            )));
        }
        let n = self.rows;
        // Gauss-Jordan over rationals on [A | I].
        let mut a: Vec<Vec<Rational>> = (0..n)
            .map(|r| {
                let mut row: Vec<Rational> =
                    self.row(r).iter().map(|&x| Rational::from_int(x)).collect();
                for j in 0..n {
                    row.push(if j == r {
                        Rational::ONE
                    } else {
                        Rational::ZERO
                    });
                }
                row
            })
            .collect();
        for col in 0..n {
            let pivot = (col..n)
                .find(|&r| !a[r][col].is_zero())
                .ok_or(AffineError::Singular)?;
            a.swap(col, pivot);
            let p = a[col][col];
            for x in a[col].iter_mut() {
                *x = x.div(&p)?;
            }
            for r in 0..n {
                if r != col && !a[r][col].is_zero() {
                    let f = a[r][col];
                    let pivot_row = a[col].clone();
                    for (x, p) in a[r].iter_mut().zip(&pivot_row) {
                        let delta = f.mul(p)?;
                        *x = x.sub(&delta)?;
                    }
                }
            }
        }
        let mut inv = IntMat::zeros(n, n);
        for (r, row) in a.iter().enumerate().take(n) {
            for (c, x) in row.iter().skip(n).enumerate() {
                let v = x.to_int().ok_or(AffineError::Invalid(
                    "matrix is not unimodular: inverse is not integral".into(),
                ))?;
                inv.set(r, c, v);
            }
        }
        Ok(inv)
    }

    /// The integer solution of `A·x = b` for a matrix of full column rank
    /// (an injective access map): `Ok(None)` when the system is
    /// inconsistent or its unique solution is fractional, so no integer
    /// `x` exists. Errors with [`AffineError::Singular`] when the columns
    /// are dependent and the solution would not be unique.
    pub fn solve_unique(&self, b: &[i64]) -> Result<Option<Vec<i64>>> {
        if b.len() != self.rows {
            return Err(AffineError::DimMismatch(format!(
                "rhs of {} entries for {} rows",
                b.len(),
                self.rows
            )));
        }
        let (m, n) = (self.rows, self.cols);
        // Gauss-Jordan over rationals on [A | b]; full column rank puts a
        // pivot on the diagonal of every column.
        let mut a: Vec<Vec<Rational>> = (0..m)
            .map(|r| {
                self.row(r)
                    .iter()
                    .chain(std::iter::once(&b[r]))
                    .map(|&x| Rational::from_int(x))
                    .collect()
            })
            .collect();
        for col in 0..n {
            let pivot = (col..m)
                .find(|&r| !a[r][col].is_zero())
                .ok_or(AffineError::Singular)?;
            a.swap(col, pivot);
            let p = a[col][col];
            for x in a[col].iter_mut() {
                *x = x.div(&p)?;
            }
            for r in 0..m {
                if r != col && !a[r][col].is_zero() {
                    let f = a[r][col];
                    let pivot_row = a[col].clone();
                    for (x, p) in a[r].iter_mut().zip(&pivot_row) {
                        *x = x.sub(&f.mul(p)?)?;
                    }
                }
            }
        }
        // Rows below the pivots read `0 = b'`: any nonzero b' is a
        // contradiction.
        if a[n..].iter().any(|row| !row[n].is_zero()) {
            return Ok(None);
        }
        Ok(a[..n].iter().map(|row| row[n].to_int()).collect())
    }

    /// Rank over the rationals.
    pub fn rank(&self) -> usize {
        let (reduced, pivots) = self.row_reduce();
        let _ = reduced;
        pivots.len()
    }

    /// Integer basis of the (right) null space: all `v` with `A v = 0`.
    ///
    /// This is the paper's data-reuse detector (§5.2): a basis vector of the
    /// null space of an access matrix names block-node dimensions along which
    /// the accessed data does not change.
    pub fn null_space(&self) -> Vec<Vec<i64>> {
        let (reduced, pivots) = self.row_reduce();
        let n = self.cols;
        let pivot_cols: Vec<usize> = pivots.iter().map(|&(_, c)| c).collect();
        let free_cols: Vec<usize> = (0..n).filter(|c| !pivot_cols.contains(c)).collect();
        let mut basis = Vec::new();
        for &fc in &free_cols {
            // Rational solution with x[fc] = 1, other free vars = 0.
            let mut x = vec![Rational::ZERO; n];
            x[fc] = Rational::ONE;
            for &(pr, pc) in pivots.iter().rev() {
                // Row pr: x[pc] + sum_{c > pc} reduced[pr][c] * x[c] = 0.
                let mut acc = Rational::ZERO;
                for c in pc + 1..n {
                    if !reduced[pr][c].is_zero() {
                        acc = acc
                            .add(&reduced[pr][c].mul(&x[c]).expect("small values"))
                            .expect("small values");
                    }
                }
                x[pc] = acc.neg();
            }
            // Scale to integers.
            let lcm_den = x
                .iter()
                .fold(1i64, |l, r| l / crate::gcd(l, r.den()).max(1) * r.den());
            let mut iv: Vec<i64> = x.iter().map(|r| r.num() * (lcm_den / r.den())).collect();
            let g = gcd_slice(&iv).max(1);
            for v in iv.iter_mut() {
                *v /= g;
            }
            // Normalize sign: first nonzero positive.
            if let Some(first) = iv.iter().find(|&&v| v != 0) {
                if *first < 0 {
                    for v in iv.iter_mut() {
                        *v = -*v;
                    }
                }
            }
            basis.push(iv);
        }
        basis
    }

    /// Reduced row echelon form over rationals; returns (matrix, pivot
    /// (row, col) list).
    fn row_reduce(&self) -> (Vec<Vec<Rational>>, Vec<(usize, usize)>) {
        let mut a: Vec<Vec<Rational>> = (0..self.rows)
            .map(|r| self.row(r).iter().map(|&x| Rational::from_int(x)).collect())
            .collect();
        let mut pivots = Vec::new();
        let mut row = 0usize;
        for col in 0..self.cols {
            if row >= self.rows {
                break;
            }
            let Some(p) = (row..self.rows).find(|&r| !a[r][col].is_zero()) else {
                continue;
            };
            a.swap(row, p);
            let pv = a[row][col];
            for x in a[row].iter_mut() {
                *x = x.div(&pv).expect("pivot nonzero");
            }
            for r in 0..self.rows {
                if r != row && !a[r][col].is_zero() {
                    let f = a[r][col];
                    let pivot_row = a[row].clone();
                    for (x, p) in a[r].iter_mut().zip(&pivot_row) {
                        let delta = f.mul(p).expect("small values");
                        *x = x.sub(&delta).expect("small values");
                    }
                }
            }
            pivots.push((row, col));
            row += 1;
        }
        (a, pivots)
    }

    /// Completes a primitive row vector to a full unimodular matrix whose
    /// *first row* is that vector (§5.2: the hyperplane schedule occupies the
    /// first row of the transformation matrix, the remaining rows are free).
    ///
    /// Algorithm: build a unimodular column-operation matrix `U` such that
    /// `a · U = e₁ᵀ`; then `T = U⁻¹` has first row `a`.
    pub fn complete_unimodular(first_row: &[i64]) -> Result<IntMat> {
        let n = first_row.len();
        if n == 0 {
            return Err(AffineError::Invalid("empty row".into()));
        }
        if gcd_slice(first_row) != 1 {
            return Err(AffineError::NotPrimitive);
        }
        let mut a = first_row.to_vec();
        // Accumulate U^{-1} directly: start from I and apply the *inverse*
        // of each elementary column operation as a row operation on the left.
        let mut t = IntMat::identity(n);
        // Reduce a to e1 by pairwise gcd steps between position 0 and k.
        for k in 1..n {
            if a[k] == 0 {
                continue;
            }
            let (g, x, y) = egcd(a[0], a[k]);
            let (a0, ak) = (a[0], a[k]);
            // Column op C on columns (0, k):
            //   col0' = x*col0 + y*colk,  colk' = -(ak/g)*col0 + (a0/g)*colk.
            // Then (a·C)[0] = g, (a·C)[k] = 0. det(C) = x*(a0/g) + y*(ak/g) = 1.
            // T = U^{-1} accumulates C^{-1} on the left: row ops
            //   row0' = (a0/g)*row0 + (ak/g)*rowk,  rowk' = -y*row0 + x*rowk.
            let (p, q) = (a0 / g, ak / g);
            for c in 0..n {
                let r0 = t.get(0, c);
                let rk = t.get(k, c);
                let new0 = p
                    .checked_mul(r0)
                    .and_then(|u| q.checked_mul(rk).map(|v| u + v))
                    .ok_or(AffineError::Overflow)?;
                let newk = x
                    .checked_mul(rk)
                    .and_then(|u| y.checked_mul(r0).map(|v| u - v))
                    .ok_or(AffineError::Overflow)?;
                t.set(0, c, new0);
                t.set(k, c, newk);
            }
            a[0] = g;
            a[k] = 0;
        }
        debug_assert_eq!(a[0].abs(), 1);
        if a[0] == -1 {
            // Flip the sign of the first row (and keep det ±1).
            for c in 0..n {
                let v = t.get(0, c);
                t.set(0, c, -v);
            }
        }
        debug_assert_eq!(t.row(0), first_row);
        Ok(t)
    }
}

impl std::fmt::Display for IntMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn product_and_identity() {
        let a = IntMat::from_rows(&[vec![1, 2], vec![3, 4]]).unwrap();
        let i = IntMat::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        let b = IntMat::from_rows(&[vec![0, 1], vec![1, 0]]).unwrap();
        let ab = a.matmul(&b).unwrap();
        assert_eq!(ab, IntMat::from_rows(&[vec![2, 1], vec![4, 3]]).unwrap());
        assert!(a.matmul(&IntMat::zeros(3, 3)).is_err());
    }

    #[test]
    fn determinants() {
        let a = IntMat::from_rows(&[vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(a.det().unwrap(), -2);
        assert_eq!(IntMat::identity(4).det().unwrap(), 1);
        assert_eq!(IntMat::zeros(3, 3).det().unwrap(), 0);
        // The paper's Figure 6 transformation matrix has det ±1.
        let t = IntMat::from_rows(&[
            vec![0, 1, 1, 0],
            vec![0, 1, 0, 0],
            vec![1, 0, 0, 0],
            vec![0, 0, 0, 1],
        ])
        .unwrap();
        assert!(t.is_unimodular());
    }

    #[test]
    fn unimodular_inverse_roundtrip() {
        let t = IntMat::from_rows(&[
            vec![0, 1, 1, 0],
            vec![0, 1, 0, 0],
            vec![1, 0, 0, 0],
            vec![0, 0, 0, 1],
        ])
        .unwrap();
        let inv = t.inverse_unimodular().unwrap();
        assert_eq!(t.matmul(&inv).unwrap(), IntMat::identity(4));
        assert_eq!(inv.matmul(&t).unwrap(), IntMat::identity(4));
    }

    #[test]
    fn inverse_rejects_singular() {
        let s = IntMat::from_rows(&[vec![1, 2], vec![2, 4]]).unwrap();
        assert!(s.inverse_unimodular().is_err());
    }

    #[test]
    fn null_space_of_projection() {
        // M = [1 0 0; 0 1 0] has null space spanned by e3.
        let m = IntMat::from_rows(&[vec![1, 0, 0], vec![0, 1, 0]]).unwrap();
        assert_eq!(m.null_space(), vec![vec![0, 0, 1]]);
        // Paper example: e14's access matrix [0 0 1 0] over a 4-dim block
        // node has null space spanned by e1, e2, e4 — dims carrying reuse.
        let m14 = IntMat::from_rows(&[vec![0, 0, 1, 0]]).unwrap();
        let ns = m14.null_space();
        assert_eq!(ns.len(), 3);
        assert!(ns.contains(&vec![1, 0, 0, 0]));
        assert!(ns.contains(&vec![0, 1, 0, 0]));
        assert!(ns.contains(&vec![0, 0, 0, 1]));
    }

    #[test]
    fn null_space_of_full_rank_is_empty() {
        let m = IntMat::identity(3);
        assert!(m.null_space().is_empty());
    }

    #[test]
    fn null_space_with_rational_dependencies() {
        // x + 2y - z = 0, basis should span a 2-dim space.
        let m = IntMat::from_rows(&[vec![1, 2, -1]]).unwrap();
        let ns = m.null_space();
        assert_eq!(ns.len(), 2);
        for v in &ns {
            assert_eq!(v[0] + 2 * v[1] - v[2], 0);
        }
    }

    #[test]
    fn completion_simple_hyperplane() {
        // The running example's hyperplane t4 + t3 over 4 dims.
        let t = IntMat::complete_unimodular(&[0, 1, 1, 0]).unwrap();
        assert_eq!(t.row(0), &[0, 1, 1, 0]);
        assert!(t.is_unimodular());
    }

    #[test]
    fn completion_rejects_non_primitive() {
        assert_eq!(
            IntMat::complete_unimodular(&[2, 4]),
            Err(AffineError::NotPrimitive)
        );
    }

    #[test]
    fn rank_works() {
        let m = IntMat::from_rows(&[vec![1, 2, 3], vec![2, 4, 6], vec![0, 1, 1]]).unwrap();
        assert_eq!(m.rank(), 2);
        assert_eq!(IntMat::identity(5).rank(), 5);
        assert_eq!(IntMat::zeros(2, 3).rank(), 0);
    }

    #[test]
    fn solve_unique_reads_off_access_distances() {
        // The running example's carried read ysss[i][j][k-1] against its
        // identity write: W·δ = o_w - o_r gives δ = (0, 0, 1).
        let w = IntMat::identity(3);
        assert_eq!(w.solve_unique(&[0, 0, 1]).unwrap(), Some(vec![0, 0, 1]));
        // A tall injective map: rows beyond the rank must agree.
        let tall = IntMat::from_rows(&[vec![1, 0], vec![0, 1], vec![1, 1]]).unwrap();
        assert_eq!(tall.solve_unique(&[2, 3, 5]).unwrap(), Some(vec![2, 3]));
        assert_eq!(tall.solve_unique(&[2, 3, 4]).unwrap(), None, "inconsistent");
        // A fractional solution has no integer point.
        let two = IntMat::from_rows(&[vec![2]]).unwrap();
        assert_eq!(two.solve_unique(&[3]).unwrap(), None);
        // Dependent columns: not unique.
        let proj = IntMat::from_rows(&[vec![1, 0, 0]]).unwrap();
        assert_eq!(proj.solve_unique(&[1]), Err(AffineError::Singular));
        assert!(w.solve_unique(&[1]).is_err(), "arity mismatch");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_solve_unique_matches_enumeration(
            entries in proptest::collection::vec(-2i64..3, 6..7),
            b in proptest::collection::vec(-4i64..5, 3..4),
        ) {
            // A 3x2 system. With independent columns some 2x2 minor is
            // invertible (|det| >= 1, adjugate entries <= 2, |b| <= 4), so
            // every solution lies in [-16, 16]^2.
            let a = IntMat::from_rows(&[
                entries[0..2].to_vec(),
                entries[2..4].to_vec(),
                entries[4..6].to_vec(),
            ])
            .unwrap();
            let mut found = Vec::new();
            for x0 in -16i64..=16 {
                for x1 in -16i64..=16 {
                    if a.matvec(&[x0, x1]).unwrap() == b {
                        found.push(vec![x0, x1]);
                    }
                }
            }
            match a.solve_unique(&b) {
                Ok(Some(x)) => prop_assert_eq!(found, vec![x]),
                Ok(None) => prop_assert!(found.is_empty()),
                Err(e) => {
                    prop_assert_eq!(e, AffineError::Singular);
                    prop_assert!(a.rank() < 2);
                }
            }
        }

        #[test]
        fn prop_completion_is_unimodular(
            v in proptest::collection::vec(-6i64..7, 2..5)
        ) {
            prop_assume!(crate::gcd_slice(&v) == 1);
            let t = IntMat::complete_unimodular(&v).unwrap();
            prop_assert_eq!(t.row(0), &v[..]);
            prop_assert!(t.is_unimodular());
            // And the inverse really inverts.
            let inv = t.inverse_unimodular().unwrap();
            prop_assert_eq!(t.matmul(&inv).unwrap(), IntMat::identity(v.len()));
        }

        #[test]
        fn prop_null_space_vectors_annihilate(
            rows in 1usize..4, cols in 1usize..5, seed in 0i64..1000
        ) {
            // Deterministic small matrix from the seed.
            let mut m = IntMat::zeros(rows, cols);
            let mut s = seed;
            for r in 0..rows {
                for c in 0..cols {
                    s = (s * 1103515245 + 12345) % 97;
                    m.set(r, c, (s % 5) - 2);
                }
            }
            for v in m.null_space() {
                let prod = m.matvec(&v).unwrap();
                prop_assert!(prod.iter().all(|&x| x == 0));
                prop_assert!(v.iter().any(|&x| x != 0));
            }
            // Rank-nullity.
            prop_assert_eq!(m.rank() + m.null_space().len(), cols);
        }

        #[test]
        fn prop_det_of_product(
            seed in 0i64..500
        ) {
            let mut s = seed;
            let mut next = || { s = (s * 48271 + 11) % 101; (s % 5) - 2 };
            let a = IntMat::from_rows(&[
                vec![next(), next(), next()],
                vec![next(), next(), next()],
                vec![next(), next(), next()],
            ]).unwrap();
            let b = IntMat::from_rows(&[
                vec![next(), next(), next()],
                vec![next(), next(), next()],
                vec![next(), next(), next()],
            ]).unwrap();
            let lhs = a.matmul(&b).unwrap().det().unwrap();
            let rhs = a.det().unwrap() * b.det().unwrap();
            prop_assert_eq!(lhs, rhs);
        }
    }
}
