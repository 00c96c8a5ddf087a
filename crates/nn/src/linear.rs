//! Fully-connected (feed-forward) layer with backprop.

use crate::init;
use crate::layer::{Layer, Param};
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// A fully-connected layer `y = x Wᵀ + b` over batched inputs `[B, d]`.
///
/// The weight is stored `[n, d]` ("output-major"), matching the paper's
/// `W ∈ R^{n×d}` convention so a single PE row in the simulator maps to a
/// single weight row.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, r: &mut Rng) -> Self {
        Self {
            weight: Param::new(init::xavier_uniform(r, out_features, in_features)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
        }
    }

    /// Creates a layer from explicit weight `[n, d]` and bias `[n]`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().rank(), 2, "weight must be [n, d]");
        assert_eq!(
            weight.shape().dim(0),
            bias.len(),
            "bias length must equal output features"
        );
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_input: None,
        }
    }

    /// Input feature count `d`.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// Output feature count `n`.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// The weight matrix `[n, d]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias vector `[n]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// Forward pass for a single (unbatched) input vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[d]`.
    pub fn forward_vec(&self, x: &Tensor) -> Tensor {
        ops::affine(&self.weight.value, x, &self.bias.value)
    }

    /// The parameter half of [`Layer::backward`]: accumulates `dW += gᵀ·x`
    /// and `db += Σ_b g[b]` from `grad_out` `[B, n]`, the gradient w.r.t.
    /// the last forward's output.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Layer::forward`] or if `grad_out` is not
    /// `[B, n]`.
    pub(crate) fn accumulate_grads(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let b = x.shape().dim(0);
        assert_eq!(grad_out.shape().dims(), &[b, self.out_features()]);

        // dW[n,d] += gᵀ[n,B] · x[B,d]
        let dw = ops::matmul_tn(grad_out, x);
        ops::axpy(1.0, &dw, &mut self.weight.grad);

        // db[n] += column sums of g
        let db = self.bias.grad.data_mut();
        for bi in 0..b {
            for (g, r) in db.iter_mut().zip(grad_out.row(bi)) {
                *g += r;
            }
        }
    }

    /// The input half of [`Layer::backward`]: `dx[B,d] = g[B,n] · W[n,d]`.
    pub(crate) fn input_grad(&self, grad_out: &Tensor) -> Tensor {
        ops::matmul(grad_out, &self.weight.value)
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "Linear expects [B, d] input");
        assert_eq!(
            x.shape().dim(1),
            self.in_features(),
            "Linear input features {} != expected {}",
            x.shape().dim(1),
            self.in_features()
        );
        self.cached_input = Some(x.clone());
        // y[B,n] = x[B,d] · Wᵀ[d,n] + b
        let wt = self.weight.value.transposed();
        let mut y = ops::matmul(x, &wt);
        let n = self.out_features();
        for bi in 0..y.shape().dim(0) {
            let row = y.row_mut(bi);
            for (v, b) in row.iter_mut().zip(self.bias.value.data()) {
                *v += b;
            }
        }
        let _ = n;
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.accumulate_grads(grad_out);
        self.input_grad(grad_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::seeded;

    #[test]
    fn forward_matches_manual_affine() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let mut l = Linear::from_parts(w.clone(), b.clone());
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 3]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[6.5, 14.5]);
        // vector path agrees
        let yv = l.forward_vec(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]));
        assert_eq!(yv.data(), &[6.5, 14.5]);
    }

    #[test]
    fn gradient_check_weights() {
        let mut r = seeded(11);
        let mut l = Linear::new(4, 3, &mut r);
        let x = duet_tensor::rng::normal(&mut r, &[2, 4], 0.0, 1.0);

        // loss = 0.5 * ||y||²  => dL/dy = y
        let y = l.forward(&x);
        let _ = l.backward(&y);

        let eps = 1e-3f32;
        let w0 = l.weight().clone();
        for idx in [0usize, 5, 11] {
            let mut wp = w0.clone();
            wp.data_mut()[idx] += eps;
            let mut lp = Linear::from_parts(wp, l.bias().clone());
            let fp = 0.5 * lp.forward(&x).norm_sq();

            let mut wm = w0.clone();
            wm.data_mut()[idx] -= eps;
            let mut lm = Linear::from_parts(wm, l.bias().clone());
            let fm = 0.5 * lm.forward(&x).norm_sq();

            let fd = (fp - fm) / (2.0 * eps);
            let an = l.weight.grad.data()[idx];
            assert!((fd - an).abs() < 1e-2, "idx {idx}: fd {fd} vs an {an}");
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut r = seeded(12);
        let mut l = Linear::new(3, 2, &mut r);
        let x = duet_tensor::rng::normal(&mut r, &[1, 3], 0.0, 1.0);
        let y = l.forward(&x);
        let dx = l.backward(&y);

        let eps = 1e-3f32;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let fp = 0.5 * l.forward(&xp).norm_sq();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fm = 0.5 * l.forward(&xm).norm_sq();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - dx.data()[idx]).abs() < 1e-2);
        }
    }

    /// Both halves of `backward` are bitwise the transposed-copy products
    /// they replace: `dW += matmul(gᵀ, x)`, `db += Σ_b g[b]` in batch
    /// order, `dx = g·W`, on a gradient with zero and −0.0 entries.
    #[test]
    fn backward_is_bitwise_the_transposed_copy_products() {
        let mut r = seeded(13);
        let mut l = Linear::new(7, 5, &mut r);
        let x = duet_tensor::rng::normal(&mut r, &[4, 7], 0.0, 1.0);
        let _ = l.forward(&x);
        let mut g = duet_tensor::rng::normal(&mut r, &[4, 5], 0.0, 1.0);
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            match i % 3 {
                0 => *v = 0.0,
                1 if i % 2 == 0 => *v = -0.0,
                _ => {}
            }
        }
        l.weight.grad = duet_tensor::rng::normal(&mut r, &[5, 7], 0.0, 1.0);
        l.bias.grad = duet_tensor::rng::normal(&mut r, &[5], 0.0, 1.0);
        let mut want_w = l.weight.grad.clone();
        ops::axpy(1.0, &ops::matmul(&g.transposed(), &x), &mut want_w);
        let mut want_b = l.bias.grad.clone();
        for bi in 0..4 {
            for (b, &gv) in want_b.data_mut().iter_mut().zip(g.row(bi)) {
                *b += gv;
            }
        }
        let want_dx = ops::matmul(&g, l.weight());

        let dx = l.backward(&g);

        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&l.weight.grad), bits(&want_w), "dW");
        assert_eq!(bits(&l.bias.grad), bits(&want_b), "db");
        assert_eq!(bits(&dx), bits(&want_dx), "dx");
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut l = Linear::from_parts(Tensor::zeros(&[2, 2]), Tensor::zeros(&[2]));
        let x = Tensor::zeros(&[3, 2]);
        let _ = l.forward(&x);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let _ = l.backward(&g);
        assert_eq!(l.bias.grad.data(), &[9.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut r = seeded(0);
        let mut l = Linear::new(2, 2, &mut r);
        l.backward(&Tensor::zeros(&[1, 2]));
    }
}
