//! The eager FractalTensor ADT: nested lists of static-shape tensors with
//! the paper's array compute and access operators (§4.1–§4.2, Table 1).

use ft_tensor::{Shape, Tensor};

use crate::program::CoreError;
use crate::Result;

/// A FractalTensor: a linearly ordered list whose elements are either
/// static-shape tensors (depth 1) or further FractalTensors (depth > 1).
///
/// Once constructed the depth is fixed, all sibling elements have the same
/// depth, and all leaves share one static shape — the invariants of §4.1.
/// Math operations exist only on leaves; the *programmable dimensions* are
/// traversed exclusively through the compute operators below.
#[derive(Debug, Clone, PartialEq)]
pub enum FractalTensor {
    /// Depth-1: a list of static-shape tensors.
    Leaves(Vec<Tensor>),
    /// Depth-d (d > 1): a list of depth-(d-1) FractalTensors.
    Nested(Vec<FractalTensor>),
}

impl FractalTensor {
    /// Builds a depth-1 FractalTensor, checking that all leaves share one
    /// shape.
    pub fn from_tensors(elems: Vec<Tensor>) -> Result<Self> {
        if let Some(first) = elems.first() {
            let shape = first.shape().clone();
            for (i, t) in elems.iter().enumerate() {
                if t.shape() != &shape {
                    return Err(CoreError::Adt(format!(
                        "leaf {i} has shape {:?}, expected {:?}",
                        t.dims(),
                        shape.dims()
                    )));
                }
            }
        }
        Ok(FractalTensor::Leaves(elems))
    }

    /// Builds a nested FractalTensor, checking uniform depth and leaf shape.
    pub fn nested(elems: Vec<FractalTensor>) -> Result<Self> {
        if let Some(first) = elems.first() {
            let depth = first.depth();
            let shape = first.leaf_shape();
            for (i, e) in elems.iter().enumerate() {
                if e.depth() != depth {
                    return Err(CoreError::Adt(format!(
                        "element {i} has depth {}, expected {depth}",
                        e.depth()
                    )));
                }
                if e.leaf_shape() != shape {
                    return Err(CoreError::Adt(format!("element {i} leaf shape differs")));
                }
            }
        }
        Ok(FractalTensor::Nested(elems))
    }

    /// Builds a depth-`prog_dims.len()` FractalTensor from a flat tensor
    /// whose leading dimensions are the programmable ones. E.g.
    /// `from_flat(t[[N, L, 1, 512]], 2)` gives an `[N, L]` list of `[1,512]`
    /// leaves.
    pub fn from_flat(t: &Tensor, prog_depth: usize) -> Result<Self> {
        if prog_depth == 0 || prog_depth > t.rank() {
            return Err(CoreError::Adt(format!(
                "prog_depth {prog_depth} invalid for rank {}",
                t.rank()
            )));
        }
        // Leaves stay zero-copy views into the flat buffer (`Tensor` is
        // copy-on-write, so later mutation cannot alias), each built once
        // from its offset; they share one shape by construction, so the
        // lists are nested around them without re-validation.
        let mut leaves = t
            .leading_views(prog_depth)
            .map_err(|e| CoreError::Adt(e.to_string()))?
            .into_iter();
        Ok(Self::nest(&t.dims()[..prog_depth], &mut leaves))
    }

    /// Nests the next `dims.iter().product()` leaves of `leaves` into lists
    /// of extents `dims`, outermost first.
    fn nest(dims: &[usize], leaves: &mut impl Iterator<Item = Tensor>) -> Self {
        match dims {
            [extent, rest @ ..] if !rest.is_empty() => {
                FractalTensor::Nested((0..*extent).map(|_| Self::nest(rest, leaves)).collect())
            }
            _ => FractalTensor::Leaves(leaves.take(dims.iter().product()).collect()),
        }
    }

    /// Nesting depth: 1 for a list of tensors.
    pub fn depth(&self) -> usize {
        match self {
            FractalTensor::Leaves(_) => 1,
            FractalTensor::Nested(v) => 1 + v.first().map_or(0, FractalTensor::depth),
        }
    }

    /// Length of the outermost list.
    pub fn len(&self) -> usize {
        match self {
            FractalTensor::Leaves(v) => v.len(),
            FractalTensor::Nested(v) => v.len(),
        }
    }

    /// True when the outermost list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The static shape shared by all leaves (empty shape if the list is
    /// empty).
    pub fn leaf_shape(&self) -> Shape {
        match self {
            FractalTensor::Leaves(v) => v
                .first()
                .map_or_else(|| Shape::new(&[]), |t| t.shape().clone()),
            FractalTensor::Nested(v) => v
                .first()
                .map_or_else(|| Shape::new(&[]), FractalTensor::leaf_shape),
        }
    }

    /// The extents of all programmable dimensions, outermost first.
    pub fn prog_dims(&self) -> Vec<usize> {
        let mut dims = vec![self.len()];
        match self {
            FractalTensor::Leaves(_) => {}
            FractalTensor::Nested(v) => {
                if let Some(first) = v.first() {
                    dims.extend(first.prog_dims());
                }
            }
        }
        dims
    }

    /// Element accessor (depth > 1).
    pub fn get(&self, i: usize) -> Result<&FractalTensor> {
        match self {
            FractalTensor::Nested(v) => v
                .get(i)
                .ok_or_else(|| CoreError::Adt(format!("index {i} out of {}", v.len()))),
            FractalTensor::Leaves(_) => Err(CoreError::Adt(
                "get() on a depth-1 FractalTensor; use leaf()".into(),
            )),
        }
    }

    /// Leaf accessor (depth 1).
    pub fn leaf(&self, i: usize) -> Result<&Tensor> {
        match self {
            FractalTensor::Leaves(v) => v
                .get(i)
                .ok_or_else(|| CoreError::Adt(format!("index {i} out of {}", v.len()))),
            FractalTensor::Nested(_) => Err(CoreError::Adt(
                "leaf() on a nested FractalTensor; use get()".into(),
            )),
        }
    }

    /// Leaf accessor through a full multi-level index.
    pub fn leaf_at(&self, index: &[usize]) -> Result<&Tensor> {
        match (self, index) {
            (FractalTensor::Leaves(_), [i]) => self.leaf(*i),
            (FractalTensor::Nested(_), [i, rest @ ..]) => self.get(*i)?.leaf_at(rest),
            _ => Err(CoreError::Adt(format!(
                "index {index:?} does not match depth {}",
                self.depth()
            ))),
        }
    }

    /// Flattens into a dense tensor `[prog dims..., leaf dims...]`.
    pub fn to_flat(&self) -> Result<Tensor> {
        match self {
            FractalTensor::Leaves(v) => Tensor::stack(v).map_err(|e| CoreError::Adt(e.to_string())),
            FractalTensor::Nested(v) => {
                let parts = v
                    .iter()
                    .map(FractalTensor::to_flat)
                    .collect::<Result<Vec<_>>>()?;
                Tensor::stack(&parts).map_err(|e| CoreError::Adt(e.to_string()))
            }
        }
    }

    // ---------------------------------------------------------------------
    // Second-order array compute operators (Table 1). All operate on the
    // *outermost* programmable dimension; nesting is expressed by calling
    // them inside the user-provided closures, exactly as in Listings 1-4.
    // ---------------------------------------------------------------------

    /// `map(f, xs) = [f(x0), ..., f(xm)]`: the fully parallel apply-to-each
    /// operator.
    pub fn map<F>(&self, f: F) -> Result<FractalTensor>
    where
        F: FnMut(Elem<'_>) -> Result<FractalTensor>,
    {
        let out = self
            .elems()
            .map(f)
            .collect::<Result<Vec<FractalTensor>>>()?;
        FractalTensor::nested_or_flatten(out)
    }

    /// `map` whose body produces a single leaf tensor.
    pub fn map_leaf<F>(&self, f: F) -> Result<FractalTensor>
    where
        F: FnMut(Elem<'_>) -> Result<Tensor>,
    {
        let out = self.elems().map(f).collect::<Result<Vec<_>>>()?;
        FractalTensor::from_tensors(out)
    }

    /// `foldl(⊕, s0, xs) = s0 ⊕ x0 ⊕ x1 ... ⊕ xm`: left fold returning only
    /// the final accumulator.
    pub fn foldl<S, F>(&self, init: S, mut f: F) -> Result<S>
    where
        F: FnMut(S, Elem<'_>) -> Result<S>,
    {
        let mut acc = init;
        for e in self.elems() {
            acc = f(acc, e)?;
        }
        Ok(acc)
    }

    /// `foldr(⊕, s0, xs)`: right fold.
    pub fn foldr<S, F>(&self, init: S, mut f: F) -> Result<S>
    where
        F: FnMut(S, Elem<'_>) -> Result<S>,
    {
        let mut acc = init;
        let elems: Vec<Elem<'_>> = self.elems().collect();
        for e in elems.into_iter().rev() {
            acc = f(acc, e)?;
        }
        Ok(acc)
    }

    /// `scanl(⊕, s0, xs) = [s0⊕x0, s0⊕x0⊕x1, ...]`: left scan emitting every
    /// intermediate accumulator (the accumulators must be leaf tensors).
    pub fn scanl<F>(&self, init: Tensor, mut f: F) -> Result<FractalTensor>
    where
        F: FnMut(&Tensor, Elem<'_>) -> Result<Tensor>,
    {
        let mut acc = init;
        let mut out = Vec::with_capacity(self.len());
        for e in self.elems() {
            acc = f(&acc, e)?;
            out.push(acc.clone());
        }
        FractalTensor::from_tensors(out)
    }

    /// `scanr(⊕, s0, xs)`: right scan (results in original element order).
    pub fn scanr<F>(&self, init: Tensor, mut f: F) -> Result<FractalTensor>
    where
        F: FnMut(&Tensor, Elem<'_>) -> Result<Tensor>,
    {
        let mut acc = init;
        let elems: Vec<Elem<'_>> = self.elems().collect();
        let mut out = Vec::with_capacity(self.len());
        for e in elems.into_iter().rev() {
            acc = f(&acc, e)?;
            out.push(acc.clone());
        }
        out.reverse();
        FractalTensor::from_tensors(out)
    }

    /// Generic `scanl` whose accumulator is any state type; emits the state
    /// sequence. Used when a scan carries tuples (e.g. the LSTM's `(c, h)`).
    pub fn scanl_state<S: Clone, F>(&self, init: S, mut f: F) -> Result<Vec<S>>
    where
        F: FnMut(&S, Elem<'_>) -> Result<S>,
    {
        let mut acc = init;
        let mut out = Vec::with_capacity(self.len());
        for e in self.elems() {
            acc = f(&acc, e)?;
            out.push(acc.clone());
        }
        Ok(out)
    }

    /// `reduce(⊕, s0, xs)`: order-insensitive aggregate (the binary operator
    /// must be associative — the eager executor applies it left to right).
    pub fn reduce<S, F>(&self, init: S, f: F) -> Result<S>
    where
        F: FnMut(S, Elem<'_>) -> Result<S>,
    {
        self.foldl(init, f)
    }

    /// `foldl(⊕, xs) = x0 ⊕ x1 ⊕ ... ⊕ xm`: Table 1's no-initializer form,
    /// seeded with the first leaf (errors on an empty list).
    pub fn foldl1<F>(&self, mut f: F) -> Result<Tensor>
    where
        F: FnMut(&Tensor, Elem<'_>) -> Result<Tensor>,
    {
        let FractalTensor::Leaves(v) = self else {
            return Err(CoreError::Adt(
                "foldl1 needs a depth-1 FractalTensor".into(),
            ));
        };
        let first = v
            .first()
            .ok_or_else(|| CoreError::Adt("foldl1 of an empty list".into()))?;
        let mut acc = first.clone();
        for t in &v[1..] {
            acc = f(&acc, Elem::Leaf(t))?;
        }
        Ok(acc)
    }

    /// `scanl(⊕, xs) = [x0, x0 ⊕ x1, ...]`: Table 1's no-initializer scan.
    pub fn scanl1<F>(&self, mut f: F) -> Result<FractalTensor>
    where
        F: FnMut(&Tensor, Elem<'_>) -> Result<Tensor>,
    {
        let FractalTensor::Leaves(v) = self else {
            return Err(CoreError::Adt(
                "scanl1 needs a depth-1 FractalTensor".into(),
            ));
        };
        let first = v
            .first()
            .ok_or_else(|| CoreError::Adt("scanl1 of an empty list".into()))?;
        let mut acc = first.clone();
        let mut out = vec![acc.clone()];
        for t in &v[1..] {
            acc = f(&acc, Elem::Leaf(t))?;
            out.push(acc.clone());
        }
        FractalTensor::from_tensors(out)
    }

    /// `reduce(⊕, xs)` without an initializer (Table 1's first form).
    pub fn reduce1<F>(&self, f: F) -> Result<Tensor>
    where
        F: FnMut(&Tensor, Elem<'_>) -> Result<Tensor>,
    {
        self.foldl1(f)
    }

    // ---------------------------------------------------------------------
    // First-order array access operators (§4.2). Pure functions preparing
    // data for compute operators; the staged compiler defers their
    // materialization, the eager ADT applies them directly.
    // ---------------------------------------------------------------------

    /// Contiguously linear access: a shifted sub-list `xs[start..end]`.
    pub fn slice(&self, start: usize, end: usize) -> Result<FractalTensor> {
        if start > end || end > self.len() {
            return Err(CoreError::Adt(format!(
                "slice {start}..{end} out of {}",
                self.len()
            )));
        }
        Ok(match self {
            FractalTensor::Leaves(v) => FractalTensor::Leaves(v[start..end].to_vec()),
            FractalTensor::Nested(v) => FractalTensor::Nested(v[start..end].to_vec()),
        })
    }

    /// Reverse access order.
    pub fn reverse(&self) -> FractalTensor {
        match self {
            FractalTensor::Leaves(v) => FractalTensor::Leaves(v.iter().rev().cloned().collect()),
            FractalTensor::Nested(v) => FractalTensor::Nested(v.iter().rev().cloned().collect()),
        }
    }

    /// Constantly strided access: elements `start, start+step, ...`.
    pub fn stride(&self, start: usize, step: usize) -> Result<FractalTensor> {
        if step == 0 {
            return Err(CoreError::Adt("stride step must be > 0".into()));
        }
        let idx: Vec<usize> = (start..self.len()).step_by(step).collect();
        self.gather(&idx)
    }

    /// Window access: overlapping windows of `size` elements advancing by
    /// `step` (the convolution/stencil pattern). Returns a FractalTensor one
    /// level deeper.
    pub fn window(&self, size: usize, step: usize) -> Result<FractalTensor> {
        if size == 0 || step == 0 || size > self.len() {
            return Err(CoreError::Adt(format!(
                "window size {size} step {step} out of {}",
                self.len()
            )));
        }
        let windows = (0..=self.len() - size)
            .step_by(step)
            .map(|s| self.slice(s, s + size))
            .collect::<Result<Vec<_>>>()?;
        FractalTensor::nested(windows)
    }

    /// BigBird's `shifted_slide`: for each position, the window of `size`
    /// neighbours centred on it, clamped at the boundaries (so the output
    /// has the same outer length).
    pub fn shifted_slide(&self, size: usize) -> Result<FractalTensor> {
        if size == 0 || size > self.len() {
            return Err(CoreError::Adt(format!(
                "shifted_slide size {size} out of {}",
                self.len()
            )));
        }
        let half = size / 2;
        let n = self.len();
        let windows = (0..n)
            .map(|i| {
                let start = i.saturating_sub(half).min(n - size);
                self.slice(start, start + size)
            })
            .collect::<Result<Vec<_>>>()?;
        FractalTensor::nested(windows)
    }

    /// Indirect access: elements selected by an index array (gather).
    pub fn gather(&self, indices: &[usize]) -> Result<FractalTensor> {
        for &i in indices {
            if i >= self.len() {
                return Err(CoreError::Adt(format!(
                    "gather index {i} out of {}",
                    self.len()
                )));
            }
        }
        Ok(match self {
            FractalTensor::Leaves(v) => {
                FractalTensor::Leaves(indices.iter().map(|&i| v[i].clone()).collect())
            }
            FractalTensor::Nested(v) => {
                FractalTensor::Nested(indices.iter().map(|&i| v[i].clone()).collect())
            }
        })
    }

    // ---------------------------------------------------------------------
    // Internals.
    // ---------------------------------------------------------------------

    fn elems(&self) -> Box<dyn Iterator<Item = Elem<'_>> + '_> {
        match self {
            FractalTensor::Leaves(v) => Box::new(v.iter().map(Elem::Leaf)),
            FractalTensor::Nested(v) => Box::new(v.iter().map(Elem::Sub)),
        }
    }

    /// When every produced element is a depth-1 singleton this keeps the
    /// natural depth; otherwise nests.
    fn nested_or_flatten(elems: Vec<FractalTensor>) -> Result<FractalTensor> {
        FractalTensor::nested(elems)
    }
}

/// One element yielded by a compute operator: a leaf tensor (depth-1 input)
/// or a sub-FractalTensor (nested input).
#[derive(Debug, Clone, Copy)]
pub enum Elem<'a> {
    /// A static-shape leaf.
    Leaf(&'a Tensor),
    /// A nested sub-list.
    Sub(&'a FractalTensor),
}

impl<'a> Elem<'a> {
    /// The leaf tensor, or an error for nested elements.
    pub fn leaf(&self) -> Result<&'a Tensor> {
        match self {
            Elem::Leaf(t) => Ok(t),
            Elem::Sub(_) => Err(CoreError::Adt("expected a leaf element".into())),
        }
    }

    /// The sub-FractalTensor, or an error for leaf elements.
    pub fn sub(&self) -> Result<&'a FractalTensor> {
        match self {
            Elem::Sub(f) => Ok(f),
            Elem::Leaf(_) => Err(CoreError::Adt("expected a nested element".into())),
        }
    }
}

/// Zips two equal-length FractalTensors elementwise under `f` (the paper's
/// `zip(xs, ys).map`).
pub fn zip_map<F>(a: &FractalTensor, b: &FractalTensor, mut f: F) -> Result<FractalTensor>
where
    F: FnMut(Elem<'_>, Elem<'_>) -> Result<FractalTensor>,
{
    if a.len() != b.len() {
        return Err(CoreError::Adt(format!(
            "zip of lengths {} and {}",
            a.len(),
            b.len()
        )));
    }
    let out = a
        .elems()
        .zip(b.elems())
        .map(|(x, y)| f(x, y))
        .collect::<Result<Vec<_>>>()?;
    FractalTensor::nested(out)
}

/// Zip-map whose body produces a leaf tensor.
pub fn zip_map_leaf<F>(a: &FractalTensor, b: &FractalTensor, mut f: F) -> Result<FractalTensor>
where
    F: FnMut(Elem<'_>, Elem<'_>) -> Result<Tensor>,
{
    if a.len() != b.len() {
        return Err(CoreError::Adt(format!(
            "zip of lengths {} and {}",
            a.len(),
            b.len()
        )));
    }
    let out = a
        .elems()
        .zip(b.elems())
        .map(|(x, y)| f(x, y))
        .collect::<Result<Vec<_>>>()?;
    FractalTensor::from_tensors(out)
}

/// Three-way zip-map with a leaf-producing body (used by the LSTM gates and
/// BigBird score combination).
pub fn zip3_map_leaf<F>(
    a: &FractalTensor,
    b: &FractalTensor,
    c: &FractalTensor,
    mut f: F,
) -> Result<FractalTensor>
where
    F: FnMut(Elem<'_>, Elem<'_>, Elem<'_>) -> Result<Tensor>,
{
    if a.len() != b.len() || b.len() != c.len() {
        return Err(CoreError::Adt(format!(
            "zip3 of lengths {}, {}, {}",
            a.len(),
            b.len(),
            c.len()
        )));
    }
    let mut out = Vec::with_capacity(a.len());
    for ((x, y), z) in a.elems().zip(b.elems()).zip(c.elems()) {
        out.push(f(x, y, z)?);
    }
    FractalTensor::from_tensors(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_tensor::assert_allclose;

    fn seq(n: usize) -> FractalTensor {
        FractalTensor::from_tensors((0..n).map(|i| Tensor::full(&[2], i as f32)).collect()).unwrap()
    }

    #[test]
    fn construction_invariants() {
        let ok = FractalTensor::from_tensors(vec![Tensor::zeros(&[2]), Tensor::ones(&[2])]);
        assert!(ok.is_ok());
        let bad = FractalTensor::from_tensors(vec![Tensor::zeros(&[2]), Tensor::ones(&[3])]);
        assert!(bad.is_err());
        let nested_bad =
            FractalTensor::nested(vec![seq(2), FractalTensor::nested(vec![seq(2)]).unwrap()]);
        assert!(nested_bad.is_err());
    }

    #[test]
    fn depth_and_dims() {
        let d1 = seq(3);
        assert_eq!(d1.depth(), 1);
        assert_eq!(d1.prog_dims(), vec![3]);
        let d2 = FractalTensor::nested(vec![seq(3), seq(3)]).unwrap();
        assert_eq!(d2.depth(), 2);
        assert_eq!(d2.prog_dims(), vec![2, 3]);
        assert_eq!(d2.leaf_shape().dims(), &[2]);
    }

    #[test]
    fn flat_round_trip() {
        let t = Tensor::randn(&[2, 3, 4, 5], 9);
        let f = FractalTensor::from_flat(&t, 2).unwrap();
        assert_eq!(f.depth(), 2);
        assert_eq!(f.prog_dims(), vec![2, 3]);
        assert_eq!(f.leaf_shape().dims(), &[4, 5]);
        assert_allclose(&f.to_flat().unwrap(), &t, 0.0);
        assert_allclose(
            f.leaf_at(&[1, 2]).unwrap(),
            &t.select(0, 1)
                .unwrap()
                .select(0, 2)
                .unwrap()
                .to_contiguous(),
            0.0,
        );
    }

    /// The level-by-level construction `from_flat` replaced: one `select`
    /// per nesting level, validated lists.
    fn from_flat_recursive(t: &Tensor, prog_depth: usize) -> FractalTensor {
        let subs = (0..t.dims()[0]).map(|i| t.select(0, i).unwrap());
        if prog_depth == 1 {
            FractalTensor::from_tensors(subs.collect()).unwrap()
        } else {
            FractalTensor::nested(
                subs.map(|s| from_flat_recursive(&s, prog_depth - 1))
                    .collect(),
            )
            .unwrap()
        }
    }

    #[test]
    fn from_flat_single_pass_equals_recursive_construction() {
        // Depth 1-3, extent-1 axes in every position, contiguous and
        // strided sources.
        let sources = [
            Tensor::randn(&[3, 1, 4, 2, 5], 11),
            Tensor::randn(&[1, 3, 1, 6], 12),
            Tensor::randn(&[2, 3, 4, 6], 13).slice(3, 1, 4).unwrap(),
            Tensor::randn(&[4, 5], 14).t().unwrap(),
        ];
        for t in &sources {
            for depth in 1..=3.min(t.rank()) {
                let got = FractalTensor::from_flat(t, depth).unwrap();
                let want = from_flat_recursive(t, depth);
                assert_eq!(got.depth(), depth);
                assert_eq!(got.prog_dims(), want.prog_dims());
                assert_eq!(got.prog_dims(), t.dims()[..depth]);
                assert_eq!(got.leaf_shape(), want.leaf_shape());
                assert_eq!(got, want, "dims {:?} depth {depth}", t.dims());
                assert_allclose(&got.to_flat().unwrap(), &t.to_contiguous(), 0.0);
            }
        }
        // Leaves are views of the source buffer, not copies.
        let t = Tensor::randn(&[2, 3, 4], 15);
        let f = FractalTensor::from_flat(&t, 2).unwrap();
        let (leaf_buf, off) = f.leaf_at(&[1, 2]).unwrap().shared_contiguous();
        assert!(std::sync::Arc::ptr_eq(&leaf_buf, &t.shared_contiguous().0));
        assert_eq!(off, 20);
        assert!(FractalTensor::from_flat(&t, 0).is_err());
        assert!(FractalTensor::from_flat(&t, 4).is_err());
    }

    #[test]
    fn map_applies_to_each() {
        let xs = seq(4);
        let ys = xs.map_leaf(|e| Ok(e.leaf()?.mul_scalar(2.0))).unwrap();
        assert_eq!(ys.leaf(3).unwrap().get(&[0]).unwrap(), 6.0);
        assert_eq!(ys.len(), 4);
    }

    #[test]
    fn foldl_and_foldr_definitions() {
        // Table 1: foldl(⊕, s0, xs) = s0 ⊕ x0 ⊕ ... ⊕ xm.
        let xs = seq(3); // leaves [0,0],[1,1],[2,2]
        let suml = xs
            .foldl(Tensor::zeros(&[2]), |acc, e| {
                acc.add(e.leaf()?)
                    .map_err(|e| CoreError::Adt(e.to_string()))
            })
            .unwrap();
        assert_eq!(suml.to_vec(), vec![3.0, 3.0]);
        // For a non-commutative op, foldr differs.
        let catl = xs
            .foldl(String::new(), |acc, e| {
                Ok(format!("{acc}{}", e.leaf()?.get(&[0]).unwrap()))
            })
            .unwrap();
        let catr = xs
            .foldr(String::new(), |acc, e| {
                Ok(format!("{acc}{}", e.leaf()?.get(&[0]).unwrap()))
            })
            .unwrap();
        assert_eq!(catl, "012");
        assert_eq!(catr, "210");
    }

    #[test]
    fn scanl_emits_prefixes() {
        // Table 1: scanl(⊕, s0, xs) = [s0⊕x0, s0⊕x0⊕x1, ...].
        let xs = seq(3);
        let ys = xs
            .scanl(Tensor::full(&[2], 10.0), |s, e| {
                s.add(e.leaf()?).map_err(|e| CoreError::Adt(e.to_string()))
            })
            .unwrap();
        assert_eq!(ys.leaf(0).unwrap().get(&[0]).unwrap(), 10.0);
        assert_eq!(ys.leaf(1).unwrap().get(&[0]).unwrap(), 11.0);
        assert_eq!(ys.leaf(2).unwrap().get(&[0]).unwrap(), 13.0);
    }

    #[test]
    fn scanr_reverses_direction() {
        let xs = seq(3);
        let ys = xs
            .scanr(Tensor::zeros(&[2]), |s, e| {
                s.add(e.leaf()?).map_err(|e| CoreError::Adt(e.to_string()))
            })
            .unwrap();
        // Rightmost prefix first: out[2] = x2, out[1] = x2+x1, out[0] = sum.
        assert_eq!(ys.leaf(2).unwrap().get(&[0]).unwrap(), 2.0);
        assert_eq!(ys.leaf(1).unwrap().get(&[0]).unwrap(), 3.0);
        assert_eq!(ys.leaf(0).unwrap().get(&[0]).unwrap(), 3.0);
    }

    #[test]
    fn no_initializer_forms() {
        // Table 1: foldl(⊕, xs) = x0 ⊕ x1 ⊕ ... ⊕ xm and
        // scanl(⊕, xs) = [x0, x0 ⊕ x1, ...].
        let xs = seq(4); // leaves 0, 1, 2, 3.
        let total = xs
            .foldl1(|a, e| a.add(e.leaf()?).map_err(|e| CoreError::Adt(e.to_string())))
            .unwrap();
        assert_eq!(total.get(&[0]).unwrap(), 6.0);
        let prefixes = xs
            .scanl1(|a, e| a.add(e.leaf()?).map_err(|e| CoreError::Adt(e.to_string())))
            .unwrap();
        assert_eq!(prefixes.len(), 4);
        assert_eq!(prefixes.leaf(0).unwrap().get(&[0]).unwrap(), 0.0);
        assert_eq!(prefixes.leaf(3).unwrap().get(&[0]).unwrap(), 6.0);
        // reduce1 agrees with foldl1 for associative ops.
        let r = xs
            .reduce1(|a, e| a.add(e.leaf()?).map_err(|e| CoreError::Adt(e.to_string())))
            .unwrap();
        assert_eq!(r.get(&[0]).unwrap(), 6.0);
        // Empty and nested inputs are rejected.
        let empty = FractalTensor::from_tensors(vec![]).unwrap();
        assert!(empty.foldl1(|a, _| Ok(a.clone())).is_err());
        let nested = FractalTensor::nested(vec![seq(2)]).unwrap();
        assert!(nested.scanl1(|a, _| Ok(a.clone())).is_err());
    }

    #[test]
    fn scan_fold_consistency() {
        // The last element of scanl equals foldl (Table 1 definitional
        // relationship).
        let xs = seq(5);
        let scan = xs
            .scanl(Tensor::zeros(&[2]), |s, e| {
                s.add(e.leaf()?).map_err(|e| CoreError::Adt(e.to_string()))
            })
            .unwrap();
        let fold = xs
            .foldl(Tensor::zeros(&[2]), |acc, e| {
                acc.add(e.leaf()?)
                    .map_err(|e| CoreError::Adt(e.to_string()))
            })
            .unwrap();
        assert_allclose(scan.leaf(4).unwrap(), &fold, 0.0);
    }

    #[test]
    fn access_operators() {
        let xs = seq(6);
        assert_eq!(xs.slice(2, 5).unwrap().len(), 3);
        assert_eq!(
            xs.slice(2, 5).unwrap().leaf(0).unwrap().get(&[0]).unwrap(),
            2.0
        );
        assert!(xs.slice(4, 3).is_err());
        let rev = xs.reverse();
        assert_eq!(rev.leaf(0).unwrap().get(&[0]).unwrap(), 5.0);
        let st = xs.stride(1, 2).unwrap();
        assert_eq!(st.len(), 3);
        assert_eq!(st.leaf(2).unwrap().get(&[0]).unwrap(), 5.0);
        let g = xs.gather(&[3, 0, 3]).unwrap();
        assert_eq!(g.leaf(0).unwrap().get(&[0]).unwrap(), 3.0);
        assert!(xs.gather(&[6]).is_err());
    }

    #[test]
    fn window_access() {
        let xs = seq(5);
        let w = xs.window(3, 1).unwrap();
        assert_eq!(w.depth(), 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w.get(1).unwrap().leaf(0).unwrap().get(&[0]).unwrap(), 1.0);
        assert!(xs.window(6, 1).is_err());
    }

    #[test]
    fn shifted_slide_keeps_length_and_clamps() {
        let xs = seq(6);
        let w = xs.shifted_slide(3).unwrap();
        assert_eq!(w.len(), 6);
        // Position 0 clamps to window [0..3).
        assert_eq!(w.get(0).unwrap().leaf(0).unwrap().get(&[0]).unwrap(), 0.0);
        // Position 3 is centred: window [2..5).
        assert_eq!(w.get(3).unwrap().leaf(0).unwrap().get(&[0]).unwrap(), 2.0);
        // Position 5 clamps to window [3..6).
        assert_eq!(w.get(5).unwrap().leaf(0).unwrap().get(&[0]).unwrap(), 3.0);
    }

    #[test]
    fn zip_maps() {
        let a = seq(3);
        let b = seq(3);
        let s = zip_map_leaf(&a, &b, |x, y| {
            x.leaf()?
                .add(y.leaf()?)
                .map_err(|e| CoreError::Adt(e.to_string()))
        })
        .unwrap();
        assert_eq!(s.leaf(2).unwrap().get(&[0]).unwrap(), 4.0);
        assert!(zip_map_leaf(&a, &seq(4), |x, _| Ok(x.leaf()?.clone())).is_err());
    }
}
