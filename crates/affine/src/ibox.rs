//! Axis-aligned integer boxes: the shape of every block-node domain the
//! parser and the passes build (a `from_box` hull cut by single-variable
//! thresholds), and therefore the unit of the verifier's per-map legality
//! decisions.
//!
//! On a box an affine function attains its extremes at corners, so range
//! questions about `M·t + o` are answered by two corners per row; coverage
//! questions ("is every read index written?") are answered by box
//! differences.

/// The integer points `lo[i] <= x_i < hi[i]`; empty when any `lo[i] >= hi[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntBox {
    /// Inclusive lower corner.
    pub lo: Vec<i64>,
    /// Exclusive upper corner.
    pub hi: Vec<i64>,
}

impl IntBox {
    /// The box `lo <= x < hi` (panics on mismatched lengths — programmer
    /// error).
    pub fn new(lo: Vec<i64>, hi: Vec<i64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "box corner arity mismatch");
        IntBox { lo, hi }
    }

    /// The hull `0 <= x < extents` of a block node.
    pub fn hull(extents: &[usize]) -> Self {
        IntBox::new(
            vec![0; extents.len()],
            extents.iter().map(|&e| e as i64).collect(),
        )
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// True when the box holds no integer point.
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l >= h)
    }

    /// True when the point lies inside.
    pub fn contains(&self, x: &[i64]) -> bool {
        x.len() == self.dims()
            && x.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(v, (l, h))| l <= v && v < h)
    }

    /// The common points of two boxes.
    pub fn intersect(&self, other: &IntBox) -> IntBox {
        IntBox::new(
            self.lo
                .iter()
                .zip(&other.lo)
                .map(|(a, b)| *a.max(b))
                .collect(),
            self.hi
                .iter()
                .zip(&other.hi)
                .map(|(a, b)| *a.min(b))
                .collect(),
        )
    }

    /// The box moved by `by`: `{x + by : x in self}`.
    pub fn shifted(&self, by: &[i64]) -> IntBox {
        IntBox::new(
            self.lo.iter().zip(by).map(|(l, d)| l + d).collect(),
            self.hi.iter().zip(by).map(|(h, d)| h + d).collect(),
        )
    }

    /// `self \ other` as pairwise-disjoint boxes (at most two per
    /// dimension): slabs below and above `other` are peeled off one
    /// dimension at a time.
    pub fn minus(&self, other: &IntBox) -> Vec<IntBox> {
        if self.is_empty() {
            return Vec::new();
        }
        let cut = self.intersect(other);
        if cut.is_empty() {
            return vec![self.clone()];
        }
        let mut pieces = Vec::new();
        let mut core = self.clone();
        for d in 0..self.dims() {
            if core.lo[d] < cut.lo[d] {
                let mut below = core.clone();
                below.hi[d] = cut.lo[d];
                pieces.push(below);
                core.lo[d] = cut.lo[d];
            }
            if cut.hi[d] < core.hi[d] {
                let mut above = core.clone();
                above.lo[d] = cut.hi[d];
                pieces.push(above);
                core.hi[d] = cut.hi[d];
            }
        }
        pieces
    }

    /// The corners minimising and maximising `row · x`, in that order
    /// (`None` for an empty box). A dimension the row ignores takes its
    /// lower bound in both.
    pub fn extreme_corners(&self, row: &[i64]) -> Option<[Vec<i64>; 2]> {
        if self.is_empty() {
            return None;
        }
        let pick = |maximise: bool| -> Vec<i64> {
            (0..self.dims())
                .map(|d| {
                    let c = row.get(d).copied().unwrap_or(0);
                    if (c > 0) == maximise && c != 0 {
                        self.hi[d] - 1
                    } else {
                        self.lo[d]
                    }
                })
                .collect()
        };
        Some([pick(false), pick(true)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintSet;
    use proptest::prelude::*;

    fn points(b: &IntBox) -> Vec<Vec<i64>> {
        if b.is_empty() {
            return Vec::new();
        }
        ConstraintSet::from_box(&b.lo, &b.hi)
            .unwrap()
            .enumerate()
            .unwrap()
    }

    fn dot(a: &[i64], b: &[i64]) -> i64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn emptiness_and_membership() {
        let b = IntBox::new(vec![0, 2], vec![3, 5]);
        assert!(!b.is_empty());
        assert!(b.contains(&[2, 4]));
        assert!(!b.contains(&[3, 4]));
        assert!(!b.contains(&[0]));
        assert!(IntBox::new(vec![1, 0], vec![1, 5]).is_empty());
        assert_eq!(IntBox::hull(&[2, 3]), IntBox::new(vec![0, 0], vec![2, 3]));
    }

    #[test]
    fn minus_of_a_hole_is_a_frame() {
        let outer = IntBox::new(vec![0, 0], vec![4, 4]);
        let hole = IntBox::new(vec![1, 1], vec![3, 3]);
        let pieces = outer.minus(&hole);
        let n: usize = pieces.iter().map(|p| points(p).len()).sum();
        assert_eq!(n, 16 - 4);
        assert!(outer.minus(&outer).is_empty());
        assert_eq!(
            outer.minus(&IntBox::new(vec![9, 9], vec![10, 10])),
            vec![outer]
        );
    }

    /// A box of `n` dims from per-dimension lower corners and lengths.
    fn boxed(n: usize, lo: &[i64], len: &[i64]) -> IntBox {
        IntBox::new(
            lo[..n].to_vec(),
            lo[..n].iter().zip(len).map(|(l, k)| l + k).collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_minus_partitions_the_difference(
            n in 1usize..4,
            alo in proptest::collection::vec(-2i64..3, 3..4),
            alen in proptest::collection::vec(1i64..4, 3..4),
            blo in proptest::collection::vec(-2i64..3, 3..4),
            blen in proptest::collection::vec(0i64..4, 3..4),
        ) {
            let (x, y) = (boxed(n, &alo, &alen), boxed(n, &blo, &blen));
            let pieces = x.minus(&y);
            let mut got: Vec<Vec<i64>> = pieces.iter().flat_map(points).collect();
            let total = got.len();
            got.sort();
            got.dedup();
            prop_assert_eq!(total, got.len());
            let want: Vec<Vec<i64>> = points(&x).into_iter().filter(|p| !y.contains(p)).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_extreme_corners_attain_row_bounds(
            n in 1usize..4,
            lo in proptest::collection::vec(-3i64..3, 3..4),
            len in proptest::collection::vec(1i64..4, 3..4),
            row in proptest::collection::vec(-2i64..3, 3..4),
        ) {
            let x = boxed(n, &lo, &len);
            let row = &row[..n];
            let vals: Vec<i64> = points(&x).iter().map(|p| dot(row, p)).collect();
            let [min, max] = x.extreme_corners(row).unwrap();
            prop_assert!(x.contains(&min) && x.contains(&max));
            prop_assert_eq!(dot(row, &min), *vals.iter().min().unwrap());
            prop_assert_eq!(dot(row, &max), *vals.iter().max().unwrap());
        }

        #[test]
        fn prop_intersect_and_shift_match_enumeration(
            alo in proptest::collection::vec(-2i64..3, 2..3),
            alen in proptest::collection::vec(1i64..4, 2..3),
            blo in proptest::collection::vec(-2i64..3, 2..3),
            blen in proptest::collection::vec(1i64..4, 2..3),
            by in proptest::collection::vec(-2i64..3, 2..3),
        ) {
            let (x, y) = (boxed(2, &alo, &alen), boxed(2, &blo, &blen));
            let want: Vec<Vec<i64>> = points(&x).into_iter().filter(|p| y.contains(p)).collect();
            prop_assert_eq!(points(&x.intersect(&y)), want);
            let moved: Vec<Vec<i64>> = points(&x)
                .iter()
                .map(|p| p.iter().zip(&by).map(|(v, d)| v + d).collect())
                .collect();
            prop_assert_eq!(points(&x.shifted(&by)), moved);
        }
    }
}
