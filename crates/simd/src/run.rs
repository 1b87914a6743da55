//! [`Run`]: `len` equally spaced leaves of one buffer, the operand shape
//! of the rows-batched kernels.
//!
//! A wavefront executor that walks consecutive points along one loop
//! dimension sees every operand as an affine sequence of leaves: leaf `i`
//! starts at `start + i·stride`. A stride of zero is a broadcast — the
//! same leaf (a shared weight) for the whole run — which is what lets one
//! kernel call load it once for all `len` rows (CuTe's `(length, stride)`
//! mode with a stride-0 broadcast).

/// `len` leaves of `leaf` elements each inside `data`, leaf `i` starting
/// at element `start + i·stride` (the stride may be zero or negative).
///
/// Both end leaves are bounds-checked at construction and the offsets are
/// affine in `i`, so every leaf lies inside `data`; the fields are private
/// so the vector kernels may rely on that.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    data: &'a [f32],
    start: usize,
    stride: isize,
    leaf: usize,
    len: usize,
}

impl<'a> Run<'a> {
    /// A run of `len` leaves of `leaf` elements.
    ///
    /// # Panics
    /// If `len` is zero or either end leaf leaves `data`.
    pub fn new(data: &'a [f32], start: usize, stride: isize, leaf: usize, len: usize) -> Self {
        assert!(len >= 1, "empty run");
        let last = (len as isize - 1)
            .checked_mul(stride)
            .and_then(|d| (start as isize).checked_add(d));
        assert!(
            matches!(last, Some(l) if l >= 0
                && start.max(l as usize).checked_add(leaf).is_some_and(|e| e <= data.len())),
            "run leaves its buffer"
        );
        Run {
            data,
            start,
            stride,
            leaf,
            len,
        }
    }

    /// The whole of `data` as a run of one leaf.
    pub fn single(data: &'a [f32]) -> Self {
        Run {
            data,
            start: 0,
            stride: 0,
            leaf: data.len(),
            len: 1,
        }
    }

    /// Number of leaves.
    #[allow(clippy::len_without_is_empty)] // a run is never empty
    pub fn len(&self) -> usize {
        self.len
    }

    /// Elements per leaf.
    pub fn leaf_len(&self) -> usize {
        self.leaf
    }

    /// True when every position of the run names the same leaf.
    pub fn is_shared(&self) -> bool {
        self.stride == 0 || self.len == 1
    }

    /// Element offset of leaf `i` (`i < len`).
    #[inline]
    pub(crate) fn offset(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        (self.start as isize + i as isize * self.stride) as usize
    }

    /// The backing buffer.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(crate) fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Leaf `i` as a slice.
    #[inline]
    pub fn leaf(&self, i: usize) -> &'a [f32] {
        assert!(i < self.len);
        let off = self.offset(i);
        &self.data[off..off + self.leaf]
    }

    /// All leaves as one slice when they are packed back to back in run
    /// order (always true for a run of one).
    pub fn dense(&self) -> Option<&'a [f32]> {
        (self.len == 1 || self.stride == self.leaf as isize)
            .then(|| &self.data[self.start..self.start + self.len * self.leaf])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_follow_the_stride() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let fwd = Run::new(&data, 1, 3, 2, 4);
        assert_eq!(fwd.leaf(0), &[1.0, 2.0]);
        assert_eq!(fwd.leaf(3), &[10.0, 11.0]);
        assert!(fwd.dense().is_none());
        let back = Run::new(&data, 10, -5, 2, 3);
        assert_eq!(back.leaf(2), &[0.0, 1.0]);
        let shared = Run::new(&data, 4, 0, 3, 5);
        assert!(shared.is_shared());
        assert_eq!(shared.leaf(4), &[4.0, 5.0, 6.0]);
        let packed = Run::new(&data, 2, 2, 2, 5);
        assert_eq!(packed.dense(), Some(&data[2..12]));
        assert_eq!(Run::single(&data[4..6]).dense(), Some(&data[4..6]));
    }

    #[test]
    #[should_panic(expected = "run leaves its buffer")]
    fn far_end_is_checked() {
        let data = [0.0f32; 8];
        Run::new(&data, 0, 3, 3, 3);
    }

    #[test]
    #[should_panic(expected = "run leaves its buffer")]
    fn negative_end_is_checked() {
        let data = [0.0f32; 8];
        Run::new(&data, 2, -2, 1, 3);
    }
}
