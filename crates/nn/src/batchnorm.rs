//! Batch normalization (inference form) and conv-BN folding.
//!
//! ResNet-class accurate modules are conv+BN pairs; at inference the BN
//! affine folds into the convolution weights, which is how the
//! dual-module distillation sees them (one linear teacher per layer).

use crate::conv::Conv2d;
use duet_tensor::Tensor;

/// Per-channel batch-norm parameters in inference form.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm2d {
    /// Learned scale γ, one per channel.
    pub gamma: Tensor,
    /// Learned shift β, one per channel.
    pub beta: Tensor,
    /// Running mean μ, one per channel.
    pub running_mean: Tensor,
    /// Running variance σ², one per channel.
    pub running_var: Tensor,
    /// Numerical stabilizer ε.
    pub eps: f32,
}

impl BatchNorm2d {
    /// Identity normalization for `channels` channels.
    pub fn identity(channels: usize) -> Self {
        Self {
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            eps: 1e-5,
        }
    }

    /// Creates from explicit statistics.
    ///
    /// # Panics
    ///
    /// Panics if the tensors' lengths disagree or any variance is
    /// negative.
    pub fn from_stats(gamma: Tensor, beta: Tensor, mean: Tensor, var: Tensor) -> Self {
        let c = gamma.len();
        assert_eq!(beta.len(), c, "beta length mismatch");
        assert_eq!(mean.len(), c, "mean length mismatch");
        assert_eq!(var.len(), c, "var length mismatch");
        assert!(
            var.data().iter().all(|&v| v >= 0.0),
            "variance must be non-negative"
        );
        Self {
            gamma,
            beta,
            running_mean: mean,
            running_var: var,
            eps: 1e-5,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Applies inference-mode normalization to a `[B, C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the channel dimension disagrees.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "BatchNorm2d expects [B, C, H, W]");
        let (b, c, h, w) = (
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
        );
        assert_eq!(c, self.channels(), "channel mismatch");
        let mut out = x.clone();
        let plane = h * w;
        for bi in 0..b {
            for ci in 0..c {
                let scale = self.gamma.data()[ci] / (self.running_var.data()[ci] + self.eps).sqrt();
                let shift = self.beta.data()[ci] - self.running_mean.data()[ci] * scale;
                let base = (bi * c + ci) * plane;
                for v in &mut out.data_mut()[base..base + plane] {
                    *v = *v * scale + shift;
                }
            }
        }
        out
    }

    /// Folds this BN into a convolution, returning a new conv whose
    /// output equals `bn(conv(x))`. This produces the single linear
    /// "accurate module" the dual-module distillation consumes.
    ///
    /// # Panics
    ///
    /// Panics if channel counts disagree.
    pub fn fold_into(&self, conv: &Conv2d) -> Conv2d {
        assert_eq!(
            conv.out_channels(),
            self.channels(),
            "conv output channels must match BN channels"
        );
        let k = conv.out_channels();
        let patch = conv.geometry().patch_len();
        let mut w = conv.weight_matrix().clone();
        let mut b = conv.bias().clone();
        for ci in 0..k {
            let scale = self.gamma.data()[ci] / (self.running_var.data()[ci] + self.eps).sqrt();
            for v in &mut w.data_mut()[ci * patch..(ci + 1) * patch] {
                *v *= scale;
            }
            b.data_mut()[ci] =
                (b.data()[ci] - self.running_mean.data()[ci]) * scale + self.beta.data()[ci];
        }
        let g = *conv.geometry();
        let filters = w.reshaped(&[k, g.in_channels, g.kernel_h, g.kernel_w]);
        Conv2d::from_parts(g, filters, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use duet_tensor::im2col::ConvGeometry;
    use duet_tensor::rng::{self, seeded};

    fn geom() -> ConvGeometry {
        ConvGeometry {
            in_channels: 2,
            in_h: 6,
            in_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        }
    }

    #[test]
    fn identity_bn_is_noop() {
        let mut r = seeded(1);
        let bn = BatchNorm2d::identity(3);
        let x = rng::normal(&mut r, &[2, 3, 4, 4], 0.0, 1.0);
        let y = bn.forward(&x);
        // ε in the denominator perturbs the scale by ~5e-6
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn normalizes_to_unit_stats() {
        let mut r = seeded(2);
        // a channel with mean 5, var 4 normalized by matching stats
        let x = rng::normal(&mut r, &[1, 1, 32, 32], 5.0, 2.0);
        let bn = BatchNorm2d::from_stats(
            Tensor::full(&[1], 1.0),
            Tensor::zeros(&[1]),
            Tensor::full(&[1], 5.0),
            Tensor::full(&[1], 4.0),
        );
        let y = bn.forward(&x);
        let mean = y.mean();
        let var = y
            .data()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / y.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn folding_matches_sequential_application() {
        let mut r = seeded(3);
        let mut conv = Conv2d::new(geom(), 4, &mut r);
        let bn = BatchNorm2d::from_stats(
            rng::uniform(&mut r, &[4], 0.5, 1.5),
            rng::normal(&mut r, &[4], 0.0, 0.3),
            rng::normal(&mut r, &[4], 0.0, 0.2),
            rng::uniform(&mut r, &[4], 0.5, 2.0),
        );
        let x = rng::normal(&mut r, &[2, 2, 6, 6], 0.0, 1.0);

        let reference = bn.forward(&conv.forward(&x));
        let mut folded = bn.fold_into(&conv);
        let direct = folded.forward(&x);
        for (a, b) in reference.data().iter().zip(direct.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_variance_rejected() {
        BatchNorm2d::from_stats(
            Tensor::full(&[1], 1.0),
            Tensor::zeros(&[1]),
            Tensor::zeros(&[1]),
            Tensor::full(&[1], -1.0),
        );
    }
}
