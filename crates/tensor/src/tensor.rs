//! Contiguous row-major `f32` tensors.

use crate::shape::Shape;
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// This is the numeric workhorse of the workspace: the trainable network
/// library, the dual-module algorithm, and the workload generators all
/// operate on `Tensor`s. The representation is deliberately simple — a
/// `Vec<f32>` plus a [`Shape`] — so kernels stay easy to audit against the
/// paper's equations.
///
/// # Example
///
/// ```
/// use duet_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Self { data, shape }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor by evaluating `f` at each linear offset.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(&mut f).collect();
        Self { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (a zero-sized dimension, e.g.
    /// an empty `[0, d]` batch).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Returns a reshaped copy sharing the same data order.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshaped(&self, dims: &[usize]) -> Tensor {
        Tensor {
            data: self.data.clone(),
            shape: self.shape.reshape(dims),
        }
    }

    /// Reshapes in place (metadata only).
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape_inplace(&mut self, dims: &[usize]) {
        self.shape = self.shape.reshape(dims);
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary combination with another tensor of the same
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose requires a 2-D tensor");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Returns row `i` of a 2-D tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if not 2-D or `i` out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.rank(), 2, "row() requires a 2-D tensor");
        let c = self.shape.dim(1);
        assert!(i < self.shape.dim(0), "row {i} out of bounds");
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable row `i` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if not 2-D or `i` out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.shape.rank(), 2, "row_mut() requires a 2-D tensor");
        let c = self.shape.dim(1);
        assert!(i < self.shape.dim(0), "row {i} out of bounds");
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum absolute value (0 for an all-zero tensor).
    pub fn max_abs(&self) -> f32 {
        max_abs(&self.data)
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Fraction of elements equal to zero.
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&x| x == 0.0).count() as f32 / self.len() as f32
    }
}

/// The largest `|v|` in `x` (0.0 if empty or all NaN), scanned as eight
/// partial maxima so the loop vectorizes. Bitwise the sequential
/// `fold(0.0, max)`: a maximum ignores order, and `f32::max` ignores NaN.
pub(crate) fn max_abs(x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = x.chunks_exact(8);
    for chunk in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v.abs());
        }
    }
    for (m, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        *m = m.max(v.abs());
    }
    lanes.iter().fold(0.0f32, |m, &v| m.max(v))
}

impl Default for Tensor {
    /// A single-element zero tensor.
    fn default() -> Self {
        Tensor::zeros(&[1])
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} {{", self.shape)?;
        let n = self.data.len().min(8);
        for (i, v) in self.data[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, " {v:.4}")?;
        }
        if self.data.len() > n {
            write!(f, ", …")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transposed().transposed();
        assert_eq!(t, tt);
    }

    #[test]
    fn transpose_maps_indices() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tr = t.transposed();
        assert_eq!(tr.shape().dims(), &[3, 2]);
        assert_eq!(tr.at(&[2, 1]), t.at(&[1, 2]));
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let b = a.map(|x| x * 2.0);
        assert_eq!(b.data(), &[2.0, -4.0]);
        let c = a.zip_map(&b, |x, y| x + y);
        assert_eq!(c.data(), &[3.0, -6.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -3.0, 0.0, 2.0], &[4]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.norm_sq(), 14.0);
        assert!((t.sparsity() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn set_then_get() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 7.5);
        assert_eq!(t.at(&[1, 0]), 7.5);
        assert_eq!(t.at(&[0, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_mismatch_panics() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        a.zip_map(&b, |x, _| x);
    }

    #[test]
    fn reshape_keeps_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).reshaped(&[4]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.shape().rank(), 1);
    }

    #[test]
    fn from_fn_uses_linear_offsets() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
