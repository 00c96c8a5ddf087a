//! Row-major tensor shapes and stride computation.

use std::fmt;

/// A row-major tensor shape.
///
/// Shapes are immutable after construction; the element count and strides
/// are derived on demand.
///
/// # Example
///
/// ```
/// use duet_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension slice.
    ///
    /// Zero-sized dimensions are allowed: a `[0, d]` shape is the empty
    /// batch a serving-layer micro-batcher can legitimately flush, holding
    /// zero elements. Rank zero is not.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        Self {
            dims: dims.to_vec(),
        }
    }

    /// The dimensions of the shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape holds zero elements (some dimension is zero,
    /// e.g. an empty `[0, d]` batch).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Flattens a multi-dimensional index into a linear offset.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "index rank {} != shape rank {}",
            index.len(),
            self.dims.len()
        );
        // Horner's rule over the dims: the same Σ index·stride as
        // `strides()` without building the stride vector per access.
        let mut off = 0;
        for (i, (&ix, &d)) in index.iter().zip(&self.dims).enumerate() {
            assert!(ix < d, "index {ix} out of bounds for dim {i} of size {d}");
            off = off * d + ix;
        }
        off
    }

    /// Returns a new shape with the same element count, reshaped to `dims`.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Shape {
        let next = Shape::new(dims);
        assert_eq!(
            self.len(),
            next.len(),
            "cannot reshape {self} ({} elems) to {next} ({} elems)",
            self.len(),
            next.len()
        );
        next
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[3, 5]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..3 {
            for j in 0..5 {
                let off = s.offset(&[i, j]);
                assert!(off < s.len());
                assert!(seen.insert(off), "duplicate offset {off}");
            }
        }
        assert_eq!(seen.len(), 15);
        // Every index of shapes of rank 1–4: offset = Σ index·stride,
        // visited in row-major order.
        for dims in [
            &[7][..],
            &[1, 6],
            &[4, 3],
            &[2, 3, 4],
            &[3, 1, 5],
            &[2, 3, 1, 4],
            &[3, 2, 4, 2],
        ] {
            let s = Shape::new(dims);
            let strides = s.strides();
            let mut index = vec![0usize; dims.len()];
            for expected in 0..s.len() {
                let sum: usize = index.iter().zip(&strides).map(|(i, st)| i * st).sum();
                assert_eq!(sum, expected, "{s} at {index:?}");
                assert_eq!(s.offset(&index), sum, "{s} at {index:?}");
                for axis in (0..dims.len()).rev() {
                    index[axis] += 1;
                    if index[axis] < dims[axis] {
                        break;
                    }
                    index[axis] = 0;
                }
            }
        }
    }

    #[test]
    fn scalar_like_1d() {
        let s = Shape::new(&[1]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(&[0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn zero_sized_dims_are_empty() {
        // An empty batch ([0, d]) is representable: zero elements, rank 2.
        let s = Shape::new(&[0, 3]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.rank(), 2);
        assert_eq!(s.dim(0), 0);
        assert_eq!(s.to_string(), "[0x3]");
        // but rank zero is still rejected
        assert!(std::panic::catch_unwind(|| Shape::new(&[])).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_mismatch_panics() {
        Shape::new(&[2, 3]).reshape(&[7]);
    }

    #[test]
    fn reshape_preserves_len() {
        let s = Shape::new(&[4, 6]).reshape(&[2, 12]);
        assert_eq!(s.dims(), &[2, 12]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2x3]");
    }
}
