//! Access reordering (paper §5.2): constructing the unimodular
//! transformation matrix.
//!
//! The framework: FractalTensor nests are *fully permutable* (functional
//! operators + single assignment + constant dependence distances), so a
//! single transformed dimension can carry every dependence. The first row
//! of `T` is a Lamport-hyperplane schedule `π(t) = a·t` with `a·δ ≥ 1` for
//! every distance vector `δ`; the remaining rows keep the other dimensions,
//! with dimensions carrying data reuse (null-space analysis of the access
//! matrices) interchanged innermost. Loop bounds for the transformed space
//! come from Fourier–Motzkin elimination — reproducing Figure 6 and
//! Table 5 for the running example.

use ft_affine::{AffineMap, ConstraintSet, IntMat, LoopBounds};
use ft_etdg::{BlockId, Etdg, RegionRead};

use crate::depend::distance_vectors;
use crate::{PassError, Result};

/// The result of reordering one block (or merged group of blocks).
#[derive(Debug, Clone)]
pub struct Reordering {
    /// The unimodular transformation `j = T·t`.
    pub t: IntMat,
    /// Its inverse (`t = T⁻¹·j`).
    pub t_inv: IntMat,
    /// The hyperplane schedule occupying row 0 (empty when no deps).
    pub hyperplane: Vec<i64>,
    /// Dimensions of the *original* space found to carry data reuse.
    pub reuse_dims: Vec<usize>,
    /// Number of leading sequential dimensions after transformation
    /// (0 for a pure map nest, otherwise 1 — the fully-permutable
    /// guarantee).
    pub sequential_dims: usize,
    /// The transformed iteration domain of the block's rectangular hull.
    pub domain: ConstraintSet,
    /// Loop bounds of the transformed hull, outermost first.
    pub bounds: Vec<LoopBounds>,
}

impl Reordering {
    /// Maps a transformed point `j` back to the original iteration vector.
    pub fn to_original(&self, j: &[i64]) -> Result<Vec<i64>> {
        self.t_inv.matvec(j).map_err(PassError::from)
    }

    /// Transforms an access map into the reordered space
    /// (`i = (M·T⁻¹)·j + o`), composing with the stored inverse, which
    /// `ft-verify` checks against `T`.
    pub fn transform_map(&self, map: &AffineMap) -> Result<AffineMap> {
        let m = map.matrix().matmul(&self.t_inv)?;
        Ok(AffineMap::new(m, map.offset().to_vec())?)
    }

    /// The wavefront range `[lo, hi)` of the sequential dimension (the
    /// whole domain is one parallel step when there is none).
    pub fn wavefront_range(&self) -> (i64, i64) {
        if self.sequential_dims == 0 {
            (0, 1)
        } else {
            let lb = &self.bounds[0];
            (lb.eval_lower(&[]), lb.eval_upper_exclusive(&[]))
        }
    }
}

/// Reorders a single block node.
pub fn reorder_block(etdg: &Etdg, id: BlockId) -> Result<Reordering> {
    let distances = distance_vectors(etdg, id)?;
    let block = etdg.block(id);
    let reads: Vec<&AffineMap> = block.reads.iter().filter_map(RegionRead::map).collect();
    reorder_with(
        block.dims(),
        &block.extents,
        &distances,
        &reads,
        &block.name,
    )
}

/// Reorders a group of merged blocks sharing one iteration space: the
/// distances and reuse analysis take the union over members.
pub fn reorder_group(etdg: &Etdg, members: &[BlockId]) -> Result<Reordering> {
    let first = etdg.block(members[0]);
    let mut distances: Vec<Vec<i64>> = Vec::new();
    let mut reads: Vec<&AffineMap> = Vec::new();
    for &m in members {
        for d in distance_vectors(etdg, m)? {
            if !distances.contains(&d) {
                distances.push(d);
            }
        }
        reads.extend(etdg.block(m).reads.iter().filter_map(RegionRead::map));
    }
    reorder_with(
        first.dims(),
        &first.extents,
        &distances,
        &reads,
        &first.name,
    )
}

fn reorder_with(
    d: usize,
    extents: &[usize],
    distances: &[Vec<i64>],
    reads: &[&AffineMap],
    name: &str,
) -> Result<Reordering> {
    let hull = ConstraintSet::from_box(
        &vec![0i64; d],
        &extents.iter().map(|&e| e as i64).collect::<Vec<_>>(),
    )?;

    // Data-reuse detection: a dimension carries reuse when some access
    // matrix's null space has a basis vector touching it (§5.2).
    // Dimensions that carry dependencies are excluded — they are not free
    // to interchange inward, and the paper's worked example likewise counts
    // only the batch and hidden dimensions of Γ₄¹ as reuse carriers.
    let mut dep_dim = vec![false; d];
    for delta in distances {
        for (i, &v) in delta.iter().enumerate() {
            if v != 0 {
                dep_dim[i] = true;
            }
        }
    }
    let mut reuse = vec![false; d];
    for map in reads {
        for basis in map.reuse_directions() {
            for (k, &v) in basis.iter().enumerate() {
                if v != 0 && !dep_dim[k] {
                    reuse[k] = true;
                }
            }
        }
    }
    let reuse_dims: Vec<usize> = (0..d).filter(|&k| reuse[k]).collect();

    if distances.is_empty() {
        // Pure data parallelism: identity transform, zero sequential dims.
        let t = IntMat::identity(d);
        let bounds = hull.loop_bounds()?;
        return Ok(Reordering {
            t_inv: t.clone(),
            t,
            hyperplane: Vec::new(),
            reuse_dims,
            sequential_dims: 0,
            domain: hull,
            bounds,
        });
    }

    // Hyperplane: a_i = ±1 on every dimension touched by a dependence,
    // signed by the dependence direction (a right scan's distance points
    // toward smaller indices, so its coefficient is -1). A dimension with
    // dependences in both directions cannot be carried by one hyperplane.
    let mut a = vec![0i64; d];
    for delta in distances {
        for (i, &v) in delta.iter().enumerate() {
            if v != 0 {
                let sign = v.signum();
                if a[i] != 0 && a[i] != sign {
                    return Err(PassError::Illegal(format!(
                        "{name}: dimension {i} carries dependences in both \
                         directions"
                    )));
                }
                a[i] = sign;
            }
        }
    }
    for delta in distances {
        let dot: i64 = a.iter().zip(delta.iter()).map(|(x, y)| x * y).sum();
        if dot < 1 {
            return Err(PassError::Illegal(format!(
                "{name}: hyperplane {a:?} does not carry distance {delta:?}"
            )));
        }
    }

    let dep_dims: Vec<usize> = (0..d).filter(|&i| a[i] != 0).collect();
    let t = build_transform(d, &a, &dep_dims, &reuse)?;

    // Legality: the sequential dimension must strictly carry every
    // distance ((T·δ)[0] >= 1) — lex-positivity alone is not enough
    // because the inner dimensions execute concurrently within a step.
    for delta in distances {
        let td = t.matvec(delta)?;
        if td[0] < 1 {
            return Err(PassError::Illegal(format!(
                "{name}: transformed distance {td:?} not carried by the \
                 wavefront dimension"
            )));
        }
    }

    let t_inv = t.inverse_unimodular()?;
    let domain = hull.transform_by(&t)?;
    let bounds = domain.loop_bounds()?;
    Ok(Reordering {
        t,
        t_inv,
        hyperplane: a,
        reuse_dims,
        sequential_dims: 1,
        domain,
        bounds,
    })
}

/// Builds `T`: row 0 is the hyperplane; the remaining rows are unit vectors
/// of all dimensions except one dropped dependence dimension, ordered with
/// non-reuse dimensions outer and reuse dimensions inner ("interchanged as
/// inner dimensions to enhance data locality", with a minimal number of
/// interchanges). Falls back to general unimodular completion if no unit
/// row selection is unimodular.
fn build_transform(d: usize, a: &[i64], dep_dims: &[usize], reuse: &[bool]) -> Result<IntMat> {
    // Prefer dropping the innermost dependence dimension (Figure 6 drops
    // t3, the inner scan, keeping the fold dimension as an explicit row).
    for &drop in dep_dims.iter().rev() {
        if a[drop] == 0 {
            continue;
        }
        let kept: Vec<usize> = (0..d).filter(|&k| k != drop).collect();
        let mut ordered: Vec<usize> = kept.iter().copied().filter(|&k| !reuse[k]).collect();
        ordered.extend(kept.iter().copied().filter(|&k| reuse[k]));
        let mut rows = vec![a.to_vec()];
        for k in ordered {
            let mut e = vec![0i64; d];
            e[k] = 1;
            rows.push(e);
        }
        let t = IntMat::from_rows(&rows)?;
        if t.is_unimodular() {
            return Ok(t);
        }
    }
    // General completion (first row = a) as a fallback.
    IntMat::complete_unimodular(a).map_err(PassError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::builders::stacked_rnn_program;
    use ft_etdg::parse_program;
    use proptest::prelude::*;

    /// Hand-built Γ₄¹ of Figure 5: the width-coarsened running example with
    /// p⃗ = [map, foldl, scanl, map] over (batch, depth, seq, hidden).
    fn gamma4(
        n: i64,
        big_d: i64,
        big_l: i64,
        h: i64,
    ) -> (Vec<Vec<i64>>, Vec<AffineMap>, Vec<usize>) {
        // Distances d1 = depth, d2 = seq (§5.2).
        let distances = vec![vec![0, 1, 0, 0], vec![0, 0, 1, 0]];
        // Access matrices of e12..e15 (pre-transform).
        let m12 = AffineMap::new(
            IntMat::from_rows(&[vec![1, 0, 0, 0], vec![0, 1, 0, 0], vec![0, 0, 1, 0]]).unwrap(),
            vec![0, -1, 0],
        )
        .unwrap();
        let m13 = AffineMap::shifted_identity(4, vec![0, 0, -1, 0]).unwrap();
        let m14 = AffineMap::new(IntMat::from_rows(&[vec![0, 1, 0, 0]]).unwrap(), vec![0]).unwrap();
        let m15 = AffineMap::identity(4);
        let extents = vec![n as usize, big_d as usize, big_l as usize, h as usize];
        (distances, vec![m12, m13, m14, m15], extents)
    }

    #[test]
    fn figure6_transformation_matrix() {
        let (distances, maps, extents) = gamma4(2, 3, 4, 8);
        let reads: Vec<&AffineMap> = maps.iter().collect();
        let r = reorder_with(4, &extents, &distances, &reads, "gamma4").unwrap();
        // The exact matrix of Figure 6.
        let expected = IntMat::from_rows(&[
            vec![0, 1, 1, 0],
            vec![0, 1, 0, 0],
            vec![1, 0, 0, 0],
            vec![0, 0, 0, 1],
        ])
        .unwrap();
        assert_eq!(r.t, expected);
        assert_eq!(r.hyperplane, vec![0, 1, 1, 0]);
        assert_eq!(r.sequential_dims, 1);
        // Reuse dims found by null-space analysis: batch (from e12/e14) and
        // hidden (from e12/e14) — the §5.2 worked example.
        assert_eq!(r.reuse_dims, vec![0, 3]);
    }

    #[test]
    fn table5_transformed_access_maps() {
        let (distances, maps, extents) = gamma4(2, 3, 4, 8);
        let reads: Vec<&AffineMap> = maps.iter().collect();
        let r = reorder_with(4, &extents, &distances, &reads, "gamma4").unwrap();
        // e12 transformed: Table 5's matrix [[0,0,1,0],[0,1,0,0],[1,-1,0,0]]
        // with offset [0,-1,0].
        let e12t = r.transform_map(&maps[0]).unwrap();
        assert_eq!(
            e12t.matrix(),
            &IntMat::from_rows(&[vec![0, 0, 1, 0], vec![0, 1, 0, 0], vec![1, -1, 0, 0],]).unwrap()
        );
        assert_eq!(e12t.offset(), &[0, -1, 0]);
        // e14 transformed: [0 1 0 0].
        let e14t = r.transform_map(&maps[2]).unwrap();
        assert_eq!(
            e14t.matrix(),
            &IntMat::from_rows(&[vec![0, 1, 0, 0]]).unwrap()
        );
        // e15 transformed: Table 5's 4-row matrix.
        let e15t = r.transform_map(&maps[3]).unwrap();
        assert_eq!(
            e15t.matrix(),
            &IntMat::from_rows(&[
                vec![0, 0, 1, 0],
                vec![0, 1, 0, 0],
                vec![1, -1, 0, 0],
                vec![0, 0, 0, 1],
            ])
            .unwrap()
        );
    }

    #[test]
    fn table5_range_constraints() {
        // With N=2, D=3, L=4, H=8 the transformed bounds must evaluate to
        // Table 5's ranges: j5 in [2, L+D-1), j4 in
        // [max(1, j5-L+1), min(j5, D)).
        let (n, big_d, big_l, h) = (2i64, 3i64, 4i64, 8i64);
        let (distances, maps, extents) = gamma4(n, big_d, big_l, h);
        // Interior domain: d >= 1, l >= 1 (region3's hull restriction).
        let reads: Vec<&AffineMap> = maps.iter().collect();
        let r = reorder_with(4, &extents, &distances, &reads, "gamma4").unwrap();
        // The transformed *hull* outer bound: j5 = d + l over [0,D) x [0,L)
        // ranges in [0, D+L-1); restricted to the interior region it is
        // [2, D+L-1) as in Table 5. Check the interior case explicitly.
        let mut interior = ConstraintSet::from_box(&[0, 1, 1, 0], &[n, big_d, big_l, h]).unwrap();
        interior = interior.transform_by(&r.t).unwrap();
        let bounds = interior.loop_bounds().unwrap();
        assert_eq!(bounds[0].eval_lower(&[]), 2);
        assert_eq!(bounds[0].eval_upper_exclusive(&[]), big_l + big_d - 1);
        // j4 (the depth dim) at j5 = 2: [max(1, 2-L+1), min(2, D)) = [1, 2).
        assert_eq!(bounds[1].eval_lower(&[2, 0, 0, 0]), 1);
        assert_eq!(bounds[1].eval_upper_exclusive(&[2, 0, 0, 0]), 2);
        // At j5 = 5 (= L+D-2): [max(1, 5-3), min(5, 3)) = [2, 3).
        assert_eq!(bounds[1].eval_lower(&[5, 0, 0, 0]), 2);
        assert_eq!(bounds[1].eval_upper_exclusive(&[5, 0, 0, 0]), 3);
    }

    #[test]
    fn running_example_region3_reorders_to_wavefront() {
        let p = stacked_rnn_program(2, 3, 4, 8);
        let g = parse_program(&p).unwrap();
        let r = reorder_block(&g, BlockId(3)).unwrap();
        assert_eq!(r.sequential_dims, 1);
        assert_eq!(r.hyperplane, vec![0, 1, 1]);
        // Batch is a reuse dim (weights invariant across it).
        assert!(r.reuse_dims.contains(&0));
        // Round trip: T^{-1} (T t) = t.
        for t in [[0i64, 1, 1], [1, 2, 3]] {
            let j = r.t.matvec(&t).unwrap();
            assert_eq!(r.to_original(&j).unwrap(), t.to_vec());
        }
    }

    #[test]
    fn pure_map_nest_needs_no_sequential_dim() {
        let r = reorder_with(2, &[4, 5], &[], &[], "maps").unwrap();
        assert_eq!(r.sequential_dims, 0);
        assert_eq!(r.t, IntMat::identity(2));
        assert_eq!(r.wavefront_range(), (0, 1));
    }

    #[test]
    fn transformed_points_biject_with_original() {
        let (distances, maps, extents) = gamma4(2, 3, 4, 2);
        let reads: Vec<&AffineMap> = maps.iter().collect();
        let r = reorder_with(4, &extents, &distances, &reads, "gamma4").unwrap();
        let points = r.domain.enumerate().unwrap();
        let total: usize = extents.iter().product();
        assert_eq!(points.len(), total);
        // Every transformed point maps back inside the hull.
        for j in &points {
            let t = r.to_original(j).unwrap();
            for (v, &e) in t.iter().zip(extents.iter()) {
                assert!(*v >= 0 && (*v as usize) < e, "{t:?} outside hull");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_schedule_is_legal(
            d in 2usize..5,
            dep_mask in 1u8..15,
            seed in 0u64..100,
        ) {
            // Random subset of dims carries unit distances (scan-like) and
            // occasionally a strided distance.
            let mut distances = Vec::new();
            for i in 0..d {
                if dep_mask & (1 << i) != 0 {
                    let mut delta = vec![0i64; d];
                    delta[i] = 1 + (seed % 3) as i64;
                    distances.push(delta);
                }
            }
            prop_assume!(!distances.is_empty());
            let extents = vec![3usize; d];
            let r = reorder_with(d, &extents, &distances, &[], "prop").unwrap();
            // The transform is unimodular and every distance becomes
            // lex-positive with its first component >= 1 (carried by the
            // single sequential dim).
            prop_assert!(r.t.is_unimodular());
            for delta in &distances {
                let td = r.t.matvec(delta).unwrap();
                prop_assert!(td[0] >= 1, "distance {delta:?} -> {td:?}");
            }
            // Point count is preserved.
            let pts = r.domain.enumerate().unwrap();
            prop_assert_eq!(pts.len(), extents.iter().product::<usize>());
        }
    }
}
