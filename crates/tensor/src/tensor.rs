//! The dense tensor type: an `Arc`-shared buffer plus a strided view.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{Result, Shape, TensorError};

/// A dense `f32` tensor.
///
/// A `Tensor` is a view — shape, per-axis strides (in elements) and a start
/// offset — over a reference-counted flat buffer. Slicing ([`Tensor::slice`]),
/// selecting ([`Tensor::select`]) and transposing ([`Tensor::transpose`])
/// produce new views that share the buffer without copying. Mutation goes
/// through [`Tensor::set`] / [`Tensor::fill_from`], which copy-on-write if
/// the buffer is shared.
///
/// Cloning a `Tensor` is O(1).
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Shape,
    strides: Vec<usize>,
    offset: usize,
}

impl Tensor {
    // ---------------------------------------------------------------------
    // Constructors.
    // ---------------------------------------------------------------------

    /// Creates a tensor from a flat row-major vector.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::BadReshape {
                from: vec![data.len()],
                to: dims.to_vec(),
            });
        }
        let strides = shape.row_major_strides();
        Ok(Tensor {
            data: Arc::new(data),
            shape,
            strides,
            offset: 0,
        })
    }

    /// An all-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let strides = shape.row_major_strides();
        Tensor {
            data: Arc::new(vec![0.0; shape.numel()]),
            shape,
            strides,
            offset: 0,
        }
    }

    /// An all-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A constant-filled tensor.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let strides = shape.row_major_strides();
        Tensor {
            data: Arc::new(vec![value; shape.numel()]),
            shape,
            strides,
            offset: 0,
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::full(&[], value)
    }

    /// Deterministic pseudo-normal initialization (Box–Muller over a seeded
    /// [`StdRng`]); all workloads derive their data from this so every
    /// experiment is reproducible bit-for-bit.
    pub fn randn(dims: &[usize], seed: u64) -> Self {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.random::<f32>().max(1e-12);
            let u2: f32 = rng.random();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        let strides = shape.row_major_strides();
        Tensor {
            data: Arc::new(data),
            shape,
            strides,
            offset: 0,
        }
    }

    /// Uniform values in `[lo, hi)` from a seeded RNG.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..shape.numel())
            .map(|_| lo + (hi - lo) * rng.random::<f32>())
            .collect();
        let strides = shape.row_major_strides();
        Tensor {
            data: Arc::new(data),
            shape,
            strides,
            offset: 0,
        }
    }

    /// `0, 1, 2, ...` as a 1-D tensor of length `n`.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n])
            .expect("arange shape always valid")
    }

    // ---------------------------------------------------------------------
    // Accessors.
    // ---------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Per-axis strides, in elements.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// True when the view covers its buffer contiguously in row-major order.
    pub fn is_contiguous(&self) -> bool {
        self.strides == self.shape.row_major_strides()
    }

    /// Borrows the elements as one row-major slice when the view is
    /// contiguous (possibly at a non-zero offset). Returns `None` for
    /// strided views; callers fall back to [`Tensor::to_contiguous`].
    pub fn contiguous_slice(&self) -> Option<&[f32]> {
        if self.is_contiguous() {
            Some(&self.data[self.offset..self.offset + self.numel()])
        } else {
            None
        }
    }

    /// Shares the backing buffer without copying when the view is
    /// contiguous, otherwise materializes one. Returns the buffer and the
    /// element offset the view starts at. The executor uses this to hand
    /// extern-input leaves to worker threads as `'static` borrows.
    pub fn shared_contiguous(&self) -> (Arc<Vec<f32>>, usize) {
        if self.is_contiguous() {
            (Arc::clone(&self.data), self.offset)
        } else {
            (Arc::new(self.to_vec()), 0)
        }
    }

    /// Reads one element.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.element_offset(index)?])
    }

    /// Reads a scalar (rank-0) tensor's value.
    pub fn item(&self) -> Result<f32> {
        if self.numel() != 1 {
            return Err(TensorError::Invalid(format!(
                "item() on tensor with {} elements",
                self.numel()
            )));
        }
        Ok(self.iter().next().expect("numel checked to be 1"))
    }

    /// Writes one element, copy-on-write if the buffer is shared.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.element_offset(index)?;
        Arc::make_mut(&mut self.data)[off] = value;
        Ok(())
    }

    fn element_offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims().to_vec(),
            });
        }
        let mut off = self.offset;
        for ((&i, &d), &s) in index
            .iter()
            .zip(self.dims().iter())
            .zip(self.strides.iter())
        {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.dims().to_vec(),
                });
            }
            off += i * s;
        }
        Ok(off)
    }

    /// Iterates elements in row-major order of the *view*.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        let shape = self.shape.clone();
        let n = shape.numel();
        (0..n).map(move |flat| {
            let idx = shape.unflatten_index(flat);
            let off: usize = self.offset
                + idx
                    .iter()
                    .zip(self.strides.iter())
                    .map(|(i, s)| i * s)
                    .sum::<usize>();
            self.data[off]
        })
    }

    /// Materializes the view into a fresh contiguous vector.
    ///
    /// Contiguous views (any offset) are one bulk copy; strided views are
    /// walked axis by axis, copying whole dense innermost rows. Both paths
    /// produce the exact row-major element order [`Tensor::iter`] defines.
    pub fn to_vec(&self) -> Vec<f32> {
        if let Some(s) = self.contiguous_slice() {
            return s.to_vec();
        }
        let mut out = Vec::with_capacity(self.numel());
        self.append_rows(0, self.offset, &mut out);
        out
    }

    /// Depth-first row-major copy: dense innermost rows go as slices, a
    /// strided innermost axis degrades to per-element reads.
    fn append_rows(&self, dim: usize, off: usize, out: &mut Vec<f32>) {
        let dims = self.shape.dims();
        if dim == dims.len() {
            out.push(self.data[off]);
            return;
        }
        if dim + 1 == dims.len() && self.strides[dim] == 1 {
            out.extend_from_slice(&self.data[off..off + dims[dim]]);
            return;
        }
        let stride = self.strides[dim];
        for i in 0..dims[dim] {
            self.append_rows(dim + 1, off + i * stride, out);
        }
    }

    /// Returns a contiguous copy if the view is strided, otherwise a cheap
    /// clone.
    pub fn to_contiguous(&self) -> Tensor {
        if self.is_contiguous() && self.offset == 0 && self.data.len() == self.numel() {
            return self.clone();
        }
        Tensor::from_vec(self.to_vec(), self.dims()).expect("same numel")
    }

    // ---------------------------------------------------------------------
    // Views.
    // ---------------------------------------------------------------------

    /// Reshapes to `dims` (same element count). Copies only when the view is
    /// non-contiguous.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::BadReshape {
                from: self.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        let base = self.to_contiguous();
        Ok(Tensor {
            data: base.data,
            strides: new_shape.row_major_strides(),
            shape: new_shape,
            offset: base.offset,
        })
    }

    /// Swaps two axes without copying.
    pub fn transpose(&self, a: usize, b: usize) -> Result<Tensor> {
        let rank = self.rank();
        if a >= rank || b >= rank {
            return Err(TensorError::AxisOutOfBounds {
                axis: a.max(b),
                rank,
            });
        }
        let mut dims = self.dims().to_vec();
        let mut strides = self.strides.clone();
        dims.swap(a, b);
        strides.swap(a, b);
        Ok(Tensor {
            data: self.data.clone(),
            shape: Shape::from(dims),
            strides,
            offset: self.offset,
        })
    }

    /// 2-D matrix transpose (`transpose(0, 1)` on a rank-2 tensor).
    pub fn t(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "t",
                expected: 2,
                actual: self.rank(),
            });
        }
        self.transpose(0, 1)
    }

    /// Restricts one axis to `start..end` without copying.
    pub fn slice(&self, axis: usize, start: usize, end: usize) -> Result<Tensor> {
        let extent = self.shape.dim(axis)?;
        if start >= end || end > extent {
            return Err(TensorError::BadSlice {
                axis,
                start,
                end,
                extent,
            });
        }
        let mut dims = self.dims().to_vec();
        dims[axis] = end - start;
        Ok(Tensor {
            data: self.data.clone(),
            shape: Shape::from(dims),
            strides: self.strides.clone(),
            offset: self.offset + start * self.strides[axis],
        })
    }

    /// Indexes one axis, dropping it (e.g. row `i` of a matrix).
    pub fn select(&self, axis: usize, index: usize) -> Result<Tensor> {
        let extent = self.shape.dim(axis)?;
        if index >= extent {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![index],
                shape: self.dims().to_vec(),
            });
        }
        let mut dims = self.dims().to_vec();
        let mut strides = self.strides.clone();
        dims.remove(axis);
        strides.remove(axis);
        Ok(Tensor {
            data: self.data.clone(),
            shape: Shape::from(dims),
            strides,
            offset: self.offset + index * self.strides[axis],
        })
    }

    /// Every view obtained by fixing the leading `depth` axes, in row-major
    /// order of those axes, without copying: the leaves of a flat tensor
    /// whose leading axes are programmable dimensions. Equal to chaining
    /// `depth` [`select`](Self::select)s per index, but each view is built
    /// once from its offset.
    pub fn leading_views(&self, depth: usize) -> Result<Vec<Tensor>> {
        if depth > self.rank() {
            return Err(TensorError::AxisOutOfBounds {
                axis: depth,
                rank: self.rank(),
            });
        }
        let lead = &self.dims()[..depth];
        let shape = Shape::new(&self.dims()[depth..]);
        let strides = self.strides[depth..].to_vec();
        let count: usize = lead.iter().product();
        let mut views = Vec::with_capacity(count);
        let mut index = vec![0usize; depth];
        let mut offset = self.offset;
        for _ in 0..count {
            views.push(Tensor {
                data: self.data.clone(),
                shape: shape.clone(),
                strides: strides.clone(),
                offset,
            });
            // Odometer step, keeping `offset` in sync with `index`.
            for axis in (0..depth).rev() {
                index[axis] += 1;
                offset += self.strides[axis];
                if index[axis] < lead[axis] {
                    break;
                }
                offset -= index[axis] * self.strides[axis];
                index[axis] = 0;
            }
        }
        Ok(views)
    }

    /// Takes every `step`-th index of `axis` starting at `start`, without
    /// copying. This is the materialized form of the paper's *constantly
    /// strided* access operator.
    pub fn stride_view(&self, axis: usize, start: usize, step: usize) -> Result<Tensor> {
        let extent = self.shape.dim(axis)?;
        if step == 0 {
            return Err(TensorError::Invalid("stride step must be > 0".into()));
        }
        if start >= extent {
            return Err(TensorError::BadSlice {
                axis,
                start,
                end: extent,
                extent,
            });
        }
        let count = (extent - start).div_ceil(step);
        let mut dims = self.dims().to_vec();
        let mut strides = self.strides.clone();
        dims[axis] = count;
        let offset = self.offset + start * strides[axis];
        strides[axis] *= step;
        Ok(Tensor {
            data: self.data.clone(),
            shape: Shape::from(dims),
            strides,
            offset,
        })
    }

    /// Overwrites this tensor's elements with `src`'s (same shape),
    /// copy-on-write if shared. Used by executors writing into preallocated
    /// output buffers.
    pub fn fill_from(&mut self, src: &Tensor) -> Result<()> {
        if self.shape != *src.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "fill_from",
                lhs: self.dims().to_vec(),
                rhs: src.dims().to_vec(),
            });
        }
        let values: Vec<f32> = src.iter().collect();
        // Compute destination offsets before taking the mutable borrow.
        let offsets: Vec<usize> = (0..self.numel())
            .map(|flat| {
                let idx = self.shape.unflatten_index(flat);
                self.offset
                    + idx
                        .iter()
                        .zip(self.strides.iter())
                        .map(|(i, s)| i * s)
                        .sum::<usize>()
            })
            .collect();
        let data = Arc::make_mut(&mut self.data);
        for (off, v) in offsets.into_iter().zip(values) {
            data[off] = v;
        }
        Ok(())
    }

    /// Concatenates tensors along `axis`. All inputs must agree on every
    /// other dimension.
    pub fn concat(parts: &[Tensor], axis: usize) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::Invalid("concat of zero tensors".into()))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfBounds { axis, rank });
        }
        let mut out_dims = first.dims().to_vec();
        out_dims[axis] = 0;
        for p in parts {
            if p.rank() != rank {
                return Err(TensorError::RankMismatch {
                    op: "concat",
                    expected: rank,
                    actual: p.rank(),
                });
            }
            for (ax, (&d, &e)) in p.dims().iter().zip(first.dims().iter()).enumerate() {
                if ax != axis && d != e {
                    return Err(TensorError::ShapeMismatch {
                        op: "concat",
                        lhs: first.dims().to_vec(),
                        rhs: p.dims().to_vec(),
                    });
                }
            }
            out_dims[axis] += p.dims()[axis];
        }
        let mut out = Tensor::zeros(&out_dims);
        let mut cursor = 0usize;
        for p in parts {
            out.write_region(axis, cursor, p)?;
            cursor += p.dims()[axis];
        }
        Ok(out)
    }

    /// Writes `src` into `self` starting at `start` along `axis`. The other
    /// dimensions must match exactly.
    pub fn write_region(&mut self, axis: usize, start: usize, src: &Tensor) -> Result<()> {
        let extent = src.shape.dim(axis)?;
        // Bounds/shape validation via a throw-away slice view.
        let probe = self.slice(axis, start, start + extent)?;
        if probe.shape() != src.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "write_region",
                lhs: probe.dims().to_vec(),
                rhs: src.dims().to_vec(),
            });
        }
        drop(probe);
        for flat in 0..src.numel() {
            let idx = src.shape().unflatten_index(flat);
            let v = src.get(&idx)?;
            let mut dst_idx = idx;
            dst_idx[axis] += start;
            self.set(&dst_idx, v)?;
        }
        Ok(())
    }

    /// Stacks equally-shaped tensors along a fresh leading axis.
    pub fn stack(parts: &[Tensor]) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::Invalid("stack of zero tensors".into()))?;
        let mut dims = vec![parts.len()];
        dims.extend_from_slice(first.dims());
        let mut data = Vec::with_capacity(first.numel() * parts.len());
        for p in parts {
            if p.shape() != first.shape() {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            data.extend(p.iter());
        }
        Tensor::from_vec(data, &dims)
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.to_vec())
        } else {
            let head: Vec<f32> = self.iter().take(8).collect();
            write!(f, "{head:?}...")
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        if self.shape != other.shape {
            return false;
        }
        // Identity fast path: two views with the same geometry over one
        // shared buffer are equal without reading a single element. This
        // is the hot case for serving, where a weight handle is cloned
        // across every request of a fused batch and the batcher verifies
        // the shared inputs match — O(1) here instead of an elementwise
        // walk per batch member.
        if Arc::ptr_eq(&self.data, &other.data)
            && self.offset == other.offset
            && self.strides == other.strides
        {
            return true;
        }
        // Contiguous views compare as flat slices (memcmp-speed);
        // strided views fall back to the index-computing iterator.
        if let (Some(a), Some(b)) = (self.contiguous_slice(), other.contiguous_slice()) {
            return a == b;
        }
        self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.get(&[0, 0, 0]).unwrap(), 0.0);
        assert_eq!(t.get(&[1, 2, 3]).unwrap(), 23.0);
        assert_eq!(t.get(&[0, 1, 2]).unwrap(), 6.0);
        assert!(t.get(&[2, 0, 0]).is_err());
    }

    #[test]
    fn from_vec_rejects_wrong_count() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn set_is_copy_on_write() {
        let a = Tensor::zeros(&[2, 2]);
        let mut b = a.clone();
        b.set(&[0, 0], 7.0).unwrap();
        assert_eq!(a.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(b.get(&[0, 0]).unwrap(), 7.0);
    }

    #[test]
    fn slice_shares_and_offsets() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]).unwrap();
        let s = t.slice(0, 1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 4]);
        assert_eq!(s.get(&[0, 0]).unwrap(), 4.0);
        assert_eq!(s.get(&[1, 3]).unwrap(), 11.0);
        assert!(t.slice(0, 2, 2).is_err());
        assert!(t.slice(1, 0, 5).is_err());
    }

    #[test]
    fn leading_views_equal_chained_selects() {
        let t = Tensor::randn(&[2, 1, 3, 4], 3).slice(3, 1, 3).unwrap();
        for depth in 0..=3 {
            let views = t.leading_views(depth).unwrap();
            let lead = &t.dims()[..depth];
            assert_eq!(views.len(), lead.iter().product::<usize>());
            for (flat, v) in views.iter().enumerate() {
                let mut want = t.clone();
                let mut rem = flat;
                for axis in 0..depth {
                    let below: usize = lead[axis + 1..].iter().product();
                    want = want.select(0, rem / below).unwrap();
                    rem %= below;
                }
                assert_eq!(v.dims(), want.dims());
                assert_eq!(v.to_vec(), want.to_vec(), "depth {depth} view {flat}");
            }
        }
        assert!(t.leading_views(5).is_err());
        assert!(Tensor::zeros(&[2, 0, 3])
            .leading_views(2)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn select_drops_axis() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]).unwrap();
        let row = t.select(0, 2).unwrap();
        assert_eq!(row.dims(), &[4]);
        assert_eq!(row.to_vec(), vec![8.0, 9.0, 10.0, 11.0]);
        let col = t.select(1, 1).unwrap();
        assert_eq!(col.to_vec(), vec![1.0, 5.0, 9.0]);
    }

    #[test]
    fn transpose_is_view() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let tt = t.t().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.get(&[2, 1]).unwrap(), t.get(&[1, 2]).unwrap());
        assert!(!tt.is_contiguous());
        let c = tt.to_contiguous();
        assert!(c.is_contiguous());
        assert_eq!(c.to_vec(), vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn reshape_checks_numel() {
        let t = Tensor::zeros(&[2, 6]);
        assert_eq!(t.reshape(&[3, 4]).unwrap().dims(), &[3, 4]);
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn stride_view_selects_every_kth() {
        let t = Tensor::arange(10);
        let s = t.stride_view(0, 1, 3).unwrap();
        assert_eq!(s.to_vec(), vec![1.0, 4.0, 7.0]);
        assert!(t.stride_view(0, 0, 0).is_err());
    }

    #[test]
    fn stack_and_concat() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let c = Tensor::concat(&[a, b], 0).unwrap();
        assert_eq!(c.dims(), &[4]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]).unwrap();
        let c = Tensor::concat(&[a, b], 1).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn randn_is_deterministic() {
        let a = Tensor::randn(&[16], 42);
        let b = Tensor::randn(&[16], 42);
        let c = Tensor::randn(&[16], 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::scalar(3.5).item().unwrap(), 3.5);
        assert!(Tensor::zeros(&[2]).item().is_err());
    }

    #[test]
    fn fill_from_through_view() {
        let mut t = Tensor::zeros(&[3, 3]);
        let src = Tensor::ones(&[3]);
        let mut row = t.slice(0, 1, 2).unwrap().reshape(&[3]).unwrap();
        row.fill_from(&src).unwrap();
        // The row view copied-on-write, so t itself is unchanged...
        assert_eq!(t.get(&[1, 0]).unwrap(), 0.0);
        // ...but write_region mutates in place.
        let block = Tensor::ones(&[1, 3]);
        t.write_region(0, 1, &block).unwrap();
        assert_eq!(t.get(&[1, 0]).unwrap(), 1.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(t.get(&[2, 2]).unwrap(), 0.0);
    }
}
