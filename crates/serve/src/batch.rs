//! Materialised outer-axis concatenation and splitting of FractalTensors.
//!
//! Dynamic batching (DESIGN.md §10) fuses K same-family requests into one
//! launch of the family's `instance(Σ extents)`, whose parts are read in
//! place ([`ft_backend::Executor::run_parts`]): batched inputs are
//! addressed where each request holds them and each member gets back its
//! own output rows, so the runtime calls neither helper here. They build
//! the concatenated tree and split it back explicitly, which is what the
//! benchmark's replay of a fused launch (`serve.concat_us`,
//! `serve.split_parts_us`) still times; that replay is their only user.
//!
//! Parts may differ in outer extent (ragged): [`concat_outer`] fuses parts
//! of any lengths and [`split_outer_parts`] splits a fused tree back using
//! the per-part extents recorded at concat time.

use ft_core::{CoreError, FractalTensor};

/// Concatenates per-request FractalTensors along the outermost list.
/// Parts may have different outer lengths (ragged batching); record
/// `parts[i].len()` at concat time to split the result back with
/// [`split_outer_parts`].
pub fn concat_outer(parts: &[&FractalTensor]) -> ft_core::Result<FractalTensor> {
    let first = parts
        .first()
        .ok_or_else(|| CoreError::Adt("concat of zero parts".into()))?;
    match first {
        FractalTensor::Leaves(_) => {
            let mut leaves = Vec::new();
            for p in parts {
                match p {
                    FractalTensor::Leaves(v) => leaves.extend(v.iter().cloned()),
                    FractalTensor::Nested(_) => {
                        return Err(CoreError::Adt("concat parts differ in depth".into()))
                    }
                }
            }
            FractalTensor::from_tensors(leaves)
        }
        FractalTensor::Nested(_) => {
            let mut elems = Vec::new();
            for p in parts {
                match p {
                    FractalTensor::Nested(v) => elems.extend(v.iter().cloned()),
                    FractalTensor::Leaves(_) => {
                        return Err(CoreError::Adt("concat parts differ in depth".into()))
                    }
                }
            }
            FractalTensor::nested(elems)
        }
    }
}

/// Splits a fused output back into per-request chunks along the outermost
/// list, using the per-part outer extents recorded when the batch was
/// concatenated. Offset-aware: parts may differ (ragged batches); the sum
/// of `parts` must equal the fused outer length and no part may be empty.
pub fn split_outer_parts(
    ft: &FractalTensor,
    parts: &[usize],
) -> ft_core::Result<Vec<FractalTensor>> {
    let n = ft.len();
    let total: usize = parts.iter().sum();
    if parts.is_empty() || total != n || parts.contains(&0) {
        return Err(CoreError::Adt(format!(
            "cannot split outer length {n} into parts {parts:?}"
        )));
    }
    fn ranges<T: Clone>(v: &[T], parts: &[usize]) -> Vec<Vec<T>> {
        let mut out = Vec::with_capacity(parts.len());
        let mut off = 0usize;
        for &p in parts {
            out.push(v[off..off + p].to_vec());
            off += p;
        }
        out
    }
    match ft {
        FractalTensor::Leaves(v) => ranges(v, parts)
            .into_iter()
            .map(FractalTensor::from_tensors)
            .collect(),
        FractalTensor::Nested(v) => ranges(v, parts)
            .into_iter()
            .map(FractalTensor::nested)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::builders::stacked_rnn_program;
    use ft_core::poly::analyze_outer;
    use ft_tensor::Tensor;

    #[test]
    fn mismatched_outer_extents_are_not_batchable() {
        let mut p = stacked_rnn_program(2, 3, 4, 8);
        if let Some(n) = p.nests.first_mut() {
            n.extents[0] = 3;
        }
        assert!(analyze_outer(&p).is_none());
    }

    /// A fused launch of three extent-2 requests is the family's
    /// instance at extent 6: batched outer dims scale, shared dims do not.
    #[test]
    fn fused_instance_scales_only_batched_dims() {
        let p = stacked_rnn_program(2, 3, 4, 8);
        let family = ft_passes::PolyPlan::family(&p).unwrap();
        let fused = family.instance(3 * 2).unwrap();
        for block in &fused.etdg.blocks {
            assert_eq!(block.extents[0], 6);
        }
        for (layout, (decl, &batched)) in fused
            .memory
            .buffers
            .iter()
            .zip(p.buffers.iter().zip(&family.info().batched))
        {
            if batched {
                assert_eq!(layout.dims[0], decl.dims[0] * 3);
                assert_eq!(layout.dims[1..], decl.dims[1..]);
            } else {
                assert_eq!(layout.dims, decl.dims);
            }
        }
        assert!(ft_verify::verify(&fused).is_ok());
    }

    fn seq(base: f32, outer: usize) -> FractalTensor {
        FractalTensor::nested(
            (0..outer)
                .map(|i| {
                    FractalTensor::from_tensors(vec![
                        Tensor::full(&[1, 2], base + 2.0 * i as f32),
                        Tensor::full(&[1, 2], base + 2.0 * i as f32 + 1.0),
                    ])
                    .unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn concat_then_split_round_trips() {
        let a = seq(0.0, 2);
        let b = seq(10.0, 2);
        let cat = concat_outer(&[&a, &b]).unwrap();
        assert_eq!(cat.prog_dims(), vec![4, 2]);
        let back = split_outer_parts(&cat, &[2, 2]).unwrap();
        assert_eq!(back, vec![a, b]);
        assert!(split_outer_parts(&cat, &[2, 1]).is_err());
        assert!(split_outer_parts(&cat, &[4, 0]).is_err());
    }

    #[test]
    fn ragged_concat_then_split_round_trips() {
        let a = seq(0.0, 1);
        let b = seq(10.0, 3);
        let c = seq(100.0, 2);
        let cat = concat_outer(&[&a, &b, &c]).unwrap();
        assert_eq!(cat.len(), 6);
        let back = split_outer_parts(&cat, &[1, 3, 2]).unwrap();
        assert_eq!(back, vec![a, b, c]);
        // Wrong totals and zero-length parts are rejected.
        assert!(split_outer_parts(&cat, &[1, 3]).is_err());
        assert!(split_outer_parts(&cat, &[1, 3, 1]).is_err());
        assert!(split_outer_parts(&cat, &[0, 3, 3]).is_err());
    }

    #[test]
    fn split_outer_parts_handles_flat_leaf_lists() {
        let flat =
            FractalTensor::from_tensors((0..5).map(|i| Tensor::full(&[1, 2], i as f32)).collect())
                .unwrap();
        let back = split_outer_parts(&flat, &[2, 3]).unwrap();
        assert_eq!(back[0].len(), 2);
        assert_eq!(back[1].len(), 3);
    }
}
