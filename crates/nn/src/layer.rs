//! The [`Layer`] trait and [`Param`] — a trainable tensor with gradient
//! and optimizer state.

use duet_tensor::Tensor;

/// A trainable parameter: value, accumulated gradient, and the first/second
/// moment buffers used by momentum and Adam.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// First-moment buffer (momentum / Adam m).
    pub moment1: Tensor,
    /// Second-moment buffer (Adam v).
    pub moment2: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with zeroed gradient and moments.
    pub fn new(value: Tensor) -> Self {
        let dims: Vec<usize> = value.shape().dims().to_vec();
        Self {
            grad: Tensor::zeros(&dims),
            moment1: Tensor::zeros(&dims),
            moment2: Tensor::zeros(&dims),
            value,
        }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// Accumulates an outer product into a gradient matrix:
/// `grad[n,d] += a[n] ⊗ b[d]`, skipping rows where `a[i] == 0`. Shared by
/// the recurrent cells and any model doing manual backprop (the seq2seq
/// head, the transformer LM); the operands are slices so trace rows need
/// no copy.
///
/// # Panics
///
/// Panics (debug builds) if `grad.len() != a.len() * b.len()`.
pub fn outer_accumulate(grad: &mut Tensor, a: &[f32], b: &[f32]) {
    let d = b.len();
    debug_assert_eq!(grad.len(), a.len() * d, "outer accumulate shape mismatch");
    let gd = grad.data_mut();
    for (i, &av) in a.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let row = &mut gd[i * d..(i + 1) * d];
        for (g, &bv) in row.iter_mut().zip(b) {
            *g += av * bv;
        }
    }
}

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches whatever `backward` needs, so a
/// `forward` must precede each `backward`. Parameters expose themselves via
/// [`Layer::visit_params`] so optimizers can update them without the layer
/// knowing which optimizer is in use.
pub trait Layer {
    /// Runs the layer on a batched input and caches activations for
    /// backprop.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the layer's output) backward,
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every trainable parameter.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_buffers_match_shape() {
        let p = Param::new(Tensor::zeros(&[3, 4]));
        assert_eq!(p.grad.shape(), p.value.shape());
        assert_eq!(p.moment1.shape(), p.value.shape());
        assert_eq!(p.moment2.shape(), p.value.shape());
        assert_eq!(p.len(), 12);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.grad = Tensor::full(&[2], 3.0);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }
}
