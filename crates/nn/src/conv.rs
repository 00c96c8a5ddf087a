//! 2-D convolution layer (im2col + GEMM) with backprop.

use crate::init;
use crate::layer::{Layer, Param};
use duet_tensor::im2col::{col2im, im2col, ConvGeometry};
use duet_tensor::rng::Rng;
use duet_tensor::{ops, parallel, Tensor};

/// A 2-D convolution over batched `[B, C, H, W]` inputs, lowered to GEMM
/// via [`im2col`] exactly as §II-B prescribes for dual-module processing.
#[derive(Debug, Clone)]
pub struct Conv2d {
    geom: ConvGeometry,
    out_channels: usize,
    weight: Param, // [K, C·R·S]
    bias: Param,   // [K]
    cached_cols: Vec<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-initialized filters.
    pub fn new(geom: ConvGeometry, out_channels: usize, r: &mut Rng) -> Self {
        let fan_in = geom.patch_len();
        Self {
            weight: Param::new(init::he_normal(r, &[out_channels, fan_in], fan_in)),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            geom,
            out_channels,
            cached_cols: Vec::new(),
        }
    }

    /// Creates a convolution from an explicit `[K, C, R, S]` filter bank
    /// and `[K]` bias.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with `geom`.
    pub fn from_parts(geom: ConvGeometry, filters: Tensor, bias: Tensor) -> Self {
        assert_eq!(filters.shape().rank(), 4, "filters must be [K,C,R,S]");
        let k = filters.shape().dim(0);
        assert_eq!(filters.shape().dim(1), geom.in_channels);
        assert_eq!(filters.shape().dim(2), geom.kernel_h);
        assert_eq!(filters.shape().dim(3), geom.kernel_w);
        assert_eq!(bias.len(), k, "bias length must equal filter count");
        Self {
            weight: Param::new(filters.reshaped(&[k, geom.patch_len()])),
            bias: Param::new(bias),
            geom,
            out_channels: k,
            cached_cols: Vec::new(),
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The filter matrix in GEMM form `[K, C·R·S]`.
    pub fn weight_matrix(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias vector `[K]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// Output shape `[K, oh, ow]` for a single sample.
    pub fn out_dims(&self) -> [usize; 3] {
        [self.out_channels, self.geom.out_h(), self.geom.out_w()]
    }

    /// Checks `grad_out` against the last forward's batch; returns the
    /// length of one sample's `[K, oh·ow]` gradient.
    fn sample_grad_len(&self, grad_out: &Tensor) -> usize {
        assert!(
            !self.cached_cols.is_empty(),
            "backward called before forward"
        );
        let [k, oh, ow] = self.out_dims();
        assert_eq!(
            grad_out.shape().dims(),
            &[self.cached_cols.len(), k, oh, ow],
            "grad shape mismatch"
        );
        k * oh * ow
    }

    /// The parameter half of [`Layer::backward`]: accumulates, sample by
    /// sample, `dW += g·colsᵀ` and `db[k] += Σ_p g[k, p]` from `grad_out`
    /// `[B, K, oh, ow]`, the gradient w.r.t. the last forward's output.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Layer::forward`] or on a shape mismatch.
    pub(crate) fn accumulate_grads(&mut self, grad_out: &Tensor) {
        let out_len = self.sample_grad_len(grad_out);
        let positions = self.geom.out_h() * self.geom.out_w();
        let mut dw = Tensor::zeros(&[self.out_channels, self.geom.patch_len()]);
        let mut sums = vec![0.0f32; self.out_channels];
        for (bi, cols) in self.cached_cols.iter().enumerate() {
            let g = &grad_out.data()[bi * out_len..(bi + 1) * out_len];

            // dW[K, CRS] += g[K, P] · colsᵀ[P, CRS], over g's nonzeros
            ops::matmul_nt_into(g, cols, &mut dw);
            ops::axpy(1.0, &dw, &mut self.weight.grad);

            // db[k] += sum over positions, the K sums side by side: each
            // still folds its row from −0.0 in position order.
            sums.fill(-0.0);
            for p in 0..positions {
                for (k, s) in sums.iter_mut().enumerate() {
                    *s += g[k * positions + p];
                }
            }
            for (b, s) in self.bias.grad.data_mut().iter_mut().zip(&sums) {
                *b += s;
            }
        }
    }

    /// The input half of [`Layer::backward`]: per sample,
    /// `dcols[CRS, P] = Wᵀ·g` and `dx = col2im(dcols)`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Layer::forward`] or on a shape mismatch.
    pub(crate) fn input_grad(&self, grad_out: &Tensor) -> Tensor {
        let out_len = self.sample_grad_len(grad_out);
        let b = self.cached_cols.len();
        let (c, h, w) = (self.geom.in_channels, self.geom.in_h, self.geom.in_w);
        let in_len = c * h * w;
        let mut dx = Tensor::zeros(&[b, c, h, w]);
        let mut dcols =
            Tensor::zeros(&[self.geom.patch_len(), self.geom.out_h() * self.geom.out_w()]);
        for bi in 0..b {
            let g = &grad_out.data()[bi * out_len..(bi + 1) * out_len];
            ops::matmul_tn_into(&self.weight.value, g, &mut dcols);
            let dxi = col2im(&dcols, &self.geom);
            dx.data_mut()[bi * in_len..(bi + 1) * in_len].copy_from_slice(dxi.data());
        }
        dx
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "Conv2d expects [B, C, H, W]");
        let b = x.shape().dim(0);
        let (c, h, w) = (x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
        assert_eq!(c, self.geom.in_channels, "channel mismatch");
        assert_eq!(h, self.geom.in_h, "height mismatch");
        assert_eq!(w, self.geom.in_w, "width mismatch");

        let (oh, ow) = (self.geom.out_h(), self.geom.out_w());
        let mut out = Tensor::zeros(&[b, self.out_channels, oh, ow]);
        let sample_len = c * h * w;
        let out_len = self.out_channels * oh * ow;

        // Fused im2col + GEMM + bias per sample. Parallelism is placed at
        // the batch level when there are several samples and the batch
        // holds at least `ops::PAR_MIN_FLOPS` multiplies (each worker runs
        // its GEMM serially to avoid nested thread fan-out); otherwise the
        // samples run in turn, each GEMM with the full thread budget.
        let threads = parallel::num_threads();
        let macs = b * self.out_channels * self.geom.patch_len() * oh * ow;
        let batch_threads = if macs >= ops::PAR_MIN_FLOPS {
            threads.min(b)
        } else {
            1
        };
        let gemm_threads = if batch_threads > 1 { 1 } else { threads };
        let geom = &self.geom;
        let weight = &self.weight.value;
        let bias = self.bias.value.data();
        let results = parallel::map_indexed(b, batch_threads, |bi| {
            let sample = Tensor::from_vec(
                x.data()[bi * sample_len..(bi + 1) * sample_len].to_vec(),
                &[c, h, w],
            );
            let cols = im2col(&sample, geom);
            let mut y = ops::matmul_with_threads(weight, &cols, gemm_threads); // [K, oh·ow]
            for (k, &bk) in bias.iter().enumerate() {
                for v in y.row_mut(k) {
                    *v += bk;
                }
            }
            (y, cols)
        });

        self.cached_cols.clear();
        for (bi, (y, cols)) in results.into_iter().enumerate() {
            out.data_mut()[bi * out_len..(bi + 1) * out_len].copy_from_slice(y.data());
            self.cached_cols.push(cols);
        }
        out
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
    use duet_tensor::im2col::conv2d_direct;
    use duet_tensor::rng::{self, seeded};

    fn small_geom() -> ConvGeometry {
        ConvGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        }
    }

    #[test]
    fn forward_matches_direct_convolution() {
        let mut r = seeded(5);
        let g = small_geom();
        let filters = rng::normal(&mut r, &[3, 2, 3, 3], 0.0, 0.5);
        let mut conv = Conv2d::from_parts(g, filters.clone(), Tensor::zeros(&[3]));
        let x = rng::normal(&mut r, &[1, 2, 5, 5], 0.0, 1.0);
        let y = conv.forward(&x);

        let sample = Tensor::from_vec(x.data().to_vec(), &[2, 5, 5]);
        let direct = conv2d_direct(&sample, &filters, &g);
        for (a, b) in y.data().iter().zip(direct.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn bias_is_added_per_channel() {
        let g = small_geom();
        let mut conv = Conv2d::from_parts(
            g,
            Tensor::zeros(&[2, 2, 3, 3]),
            Tensor::from_vec(vec![1.0, -2.0], &[2]),
        );
        let y = conv.forward(&Tensor::zeros(&[1, 2, 5, 5]));
        let (oh, ow) = (g.out_h(), g.out_w());
        assert!(y.data()[..oh * ow].iter().all(|&v| v == 1.0));
        assert!(y.data()[oh * ow..].iter().all(|&v| v == -2.0));
    }

    /// Both halves of `backward` are bitwise the transposed-copy products
    /// they replace, sample by sample: `dW += g·colsᵀ`, `db[k] += Σ_p
    /// g[k, p]` folded from −0.0, and `dx = col2im(Wᵀ·g)`. The gradient is
    /// mostly zeros, as behind ReLU and max-pool; channel 0 is all −0.0
    /// over a −0.0 bias gradient, where only a −0.0 fold start keeps the
    /// sign.
    #[test]
    fn backward_is_bitwise_the_transposed_copy_products() {
        let mut r = seeded(23);
        let g = small_geom();
        let mut conv = Conv2d::new(g, 3, &mut r);
        let x = rng::normal(&mut r, &[3, 2, 5, 5], 0.0, 1.0);
        let y = conv.forward(&x);
        let mut grad = rng::normal(&mut r, y.shape().dims(), 0.0, 1.0);
        for (i, v) in grad.data_mut().iter_mut().enumerate() {
            if i % 75 < 25 {
                *v = -0.0;
            } else if i % 4 != 0 {
                *v = if i % 3 == 0 { -0.0 } else { 0.0 };
            }
        }
        conv.weight.grad = rng::normal(&mut r, &[3, 18], 0.0, 1.0);
        conv.bias.grad = Tensor::from_vec(vec![-0.0, 0.5, -1.5], &[3]);
        let mut want_w = conv.weight.grad.clone();
        let mut want_b = conv.bias.grad.clone();

        let dx = conv.backward(&grad);

        let mut want_dx = Tensor::zeros(x.shape().dims());
        let wt = conv.weight.value.transposed();
        for (bi, cols) in conv.cached_cols.iter().enumerate() {
            let gb = Tensor::from_vec(grad.data()[bi * 75..(bi + 1) * 75].to_vec(), &[3, 25]);
            ops::axpy(1.0, &ops::matmul(&gb, &cols.transposed()), &mut want_w);
            for k in 0..3 {
                let s: f32 = gb.row(k).iter().sum();
                want_b.data_mut()[k] += s;
            }
            let dxi = col2im(&ops::matmul(&wt, &gb), &g);
            want_dx.data_mut()[bi * 50..(bi + 1) * 50].copy_from_slice(dxi.data());
        }
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&conv.weight.grad), bits(&want_w), "dW");
        assert_eq!(bits(&conv.bias.grad), bits(&want_b), "db");
        assert_eq!(conv.bias.grad.data()[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(bits(&dx), bits(&want_dx), "dx");
    }

    #[test]
    fn gradient_check_filters() {
        let mut r = seeded(21);
        let g = ConvGeometry {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 0,
        };
        let mut conv = Conv2d::new(g, 2, &mut r);
        let x = rng::normal(&mut r, &[2, 1, 4, 4], 0.0, 1.0);
        let y = conv.forward(&x);
        let _ = conv.backward(&y); // loss = 0.5||y||²

        let eps = 1e-3f32;
        let w0 = conv.weight.value.clone();
        for idx in [0usize, 7, 17] {
            let mut wp = w0.clone();
            wp.data_mut()[idx] += eps;
            let mut cp = conv.clone();
            cp.weight.value = wp;
            let fp = 0.5 * cp.forward(&x).norm_sq();

            let mut wm = w0.clone();
            wm.data_mut()[idx] -= eps;
            let mut cm = conv.clone();
            cm.weight.value = wm;
            let fm = 0.5 * cm.forward(&x).norm_sq();

            let fd = (fp - fm) / (2.0 * eps);
            let an = conv.weight.grad.data()[idx];
            assert!((fd - an).abs() < 2e-2, "idx {idx}: fd {fd} vs an {an}");
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut r = seeded(22);
        let g = ConvGeometry {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            kernel_h: 2,
            kernel_w: 2,
            stride: 2,
            padding: 0,
        };
        let mut conv = Conv2d::new(g, 1, &mut r);
        let x = rng::normal(&mut r, &[1, 1, 4, 4], 0.0, 1.0);
        let y = conv.forward(&x);
        let dx = conv.backward(&y);

        let eps = 1e-3f32;
        for idx in [0usize, 5, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let fp = 0.5 * conv.forward(&xp).norm_sq();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fm = 0.5 * conv.forward(&xm).norm_sq();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - dx.data()[idx]).abs() < 2e-2);
        }
    }
}
