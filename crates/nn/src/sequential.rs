//! A feed-forward network container with a training loop.

use crate::activation::Activation;
use crate::conv::Conv2d;
use crate::layer::{Layer, Param};
use crate::linear::Linear;
use crate::loss;
use crate::optim::Optimizer;
use crate::pool::MaxPool2d;
use duet_tensor::Tensor;

/// One stage in a [`Sequential`] network.
#[derive(Debug)]
enum Stage {
    Linear(Linear),
    Conv(Conv2d),
    Pool(MaxPool2d),
    Act {
        act: Activation,
        cached_pre: Option<Tensor>,
    },
    Flatten {
        cached_dims: Option<Vec<usize>>,
    },
}

/// A feed-forward stack of layers (linear / conv / pool / activation /
/// flatten) with joint forward, backward, and a mini-batch training loop.
///
/// This is the "accurate module" trainer: the workloads crate uses it to
/// produce real pre-trained CNN/MLP classifiers whose layers then become
/// teachers for dual-module distillation.
#[derive(Debug, Default)]
pub struct Sequential {
    stages: Vec<Stage>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { stages: Vec::new() }
    }

    /// Appends a fully-connected layer.
    pub fn push_linear(&mut self, l: Linear) -> &mut Self {
        self.stages.push(Stage::Linear(l));
        self
    }

    /// Appends a convolution layer.
    pub fn push_conv(&mut self, c: Conv2d) -> &mut Self {
        self.stages.push(Stage::Conv(c));
        self
    }

    /// Appends a max-pooling layer.
    pub fn push_pool(&mut self, p: MaxPool2d) -> &mut Self {
        self.stages.push(Stage::Pool(p));
        self
    }

    /// Appends an element-wise activation.
    pub fn push_activation(&mut self, act: Activation) -> &mut Self {
        self.stages.push(Stage::Act {
            act,
            cached_pre: None,
        });
        self
    }

    /// Appends a flatten stage (`[B, …] → [B, prod]`).
    pub fn push_flatten(&mut self) -> &mut Self {
        self.stages.push(Stage::Flatten { cached_dims: None });
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the network has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Returns references to the linear layers in order (used by the
    /// dual-module extractor).
    pub fn linear_layers(&self) -> Vec<&Linear> {
        self.stages
            .iter()
            .filter_map(|s| match s {
                Stage::Linear(l) => Some(l),
                _ => None,
            })
            .collect()
    }

    /// Returns references to the conv layers in order.
    pub fn conv_layers(&self) -> Vec<&Conv2d> {
        self.stages
            .iter()
            .filter_map(|s| match s {
                Stage::Conv(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    /// Forward pass over a batch.
    ///
    /// # Panics
    ///
    /// Panics if an intermediate shape is incompatible with the next stage.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for stage in &mut self.stages {
            cur = match stage {
                Stage::Linear(l) => l.forward(&cur),
                Stage::Conv(c) => c.forward(&cur),
                Stage::Pool(p) => p.forward(&cur),
                Stage::Act { act, cached_pre } => {
                    *cached_pre = Some(cur.clone());
                    act.apply(&cur)
                }
                Stage::Flatten { cached_dims } => {
                    let dims = cur.shape().dims().to_vec();
                    let b = dims[0];
                    let rest: usize = dims[1..].iter().product();
                    *cached_dims = Some(dims);
                    cur.reshaped(&[b, rest])
                }
            };
        }
        cur
    }

    /// Backward pass; accumulates gradients in every stage.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sequential::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for stage in self.stages.iter_mut().rev() {
            g = match stage {
                Stage::Linear(l) => l.backward(&g),
                Stage::Conv(c) => c.backward(&g),
                Stage::Pool(p) => p.backward(&g),
                Stage::Act { act, cached_pre } => {
                    let pre = cached_pre.as_ref().expect("backward before forward");
                    assert_eq!(g.shape(), pre.shape(), "activation grad shape mismatch");
                    for (gv, &p) in g.data_mut().iter_mut().zip(pre.data()) {
                        *gv *= act.derivative_scalar(p);
                    }
                    g
                }
                Stage::Flatten { cached_dims } => {
                    let dims = cached_dims.as_ref().expect("backward before forward");
                    g.reshaped(dims)
                }
            };
        }
        g
    }

    /// Visits every parameter in the network.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for stage in &mut self.stages {
            match stage {
                Stage::Linear(l) => l.visit_params(f),
                Stage::Conv(c) => c.visit_params(f),
                Stage::Pool(p) => p.visit_params(f),
                _ => {}
            }
        }
    }

    /// Zeroes all gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// One cross-entropy training step on a mini-batch; returns the loss.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the batch size.
    pub fn train_step(&mut self, x: &Tensor, targets: &[usize], opt: &mut Optimizer) -> f32 {
        let logits = self.forward(x);
        let (l, grad) = loss::cross_entropy(&logits, targets);
        self.zero_grads();
        self.backward(&grad);
        opt.tick();
        self.visit_params(&mut |p| opt.step(p));
        l
    }

    /// Classification accuracy on a batch.
    pub fn evaluate(&mut self, x: &Tensor, targets: &[usize]) -> f64 {
        let logits = self.forward(x);
        loss::accuracy(&logits, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::im2col::ConvGeometry;
    use duet_tensor::rng::{self, seeded};

    #[test]
    fn mlp_learns_linearly_separable_data() {
        let mut r = seeded(7);
        let mut net = Sequential::new();
        net.push_linear(Linear::new(2, 16, &mut r));
        net.push_activation(Activation::Relu);
        net.push_linear(Linear::new(16, 2, &mut r));

        // class = (x0 + x1 > 0)
        let n = 128;
        let x = rng::normal(&mut r, &[n, 2], 0.0, 1.0);
        let targets: Vec<usize> = (0..n)
            .map(|i| usize::from(x.at(&[i, 0]) + x.at(&[i, 1]) > 0.0))
            .collect();

        let mut opt = Optimizer::adam(0.01);
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for e in 0..200 {
            let l = net.train_step(&x, &targets, &mut opt);
            if e == 0 {
                first_loss = l;
            }
            last_loss = l;
        }
        assert!(last_loss < first_loss * 0.2, "{first_loss} -> {last_loss}");
        assert!(net.evaluate(&x, &targets) > 0.95);
    }

    #[test]
    fn cnn_pipeline_shapes() {
        let mut r = seeded(8);
        let g = ConvGeometry {
            in_channels: 1,
            in_h: 8,
            in_w: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let mut net = Sequential::new();
        net.push_conv(Conv2d::new(g, 4, &mut r));
        net.push_activation(Activation::Relu);
        net.push_pool(MaxPool2d::new(2));
        net.push_flatten();
        net.push_linear(Linear::new(4 * 4 * 4, 3, &mut r));

        let x = rng::normal(&mut r, &[2, 1, 8, 8], 0.0, 1.0);
        let y = net.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 3]);

        // one training step runs end-to-end
        let mut opt = Optimizer::sgd(0.01);
        let l = net.train_step(&x, &[0, 2], &mut opt);
        assert!(l.is_finite());
    }

    #[test]
    fn whole_network_gradient_check() {
        let mut r = seeded(9);
        let mut net = Sequential::new();
        net.push_linear(Linear::new(3, 4, &mut r));
        net.push_activation(Activation::Tanh);
        net.push_linear(Linear::new(4, 2, &mut r));

        let x = rng::normal(&mut r, &[1, 3], 0.0, 1.0);
        let y = net.forward(&x);
        net.zero_grads();
        let dx = net.backward(&y); // loss = 0.5||y||²

        let eps = 1e-3f32;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let fp = 0.5 * net.forward(&xp).norm_sq();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fm = 0.5 * net.forward(&xm).norm_sq();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[idx]).abs() < 1e-2,
                "fd {fd} vs {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn param_count_adds_up() {
        let mut r = seeded(10);
        let mut net = Sequential::new();
        net.push_linear(Linear::new(10, 5, &mut r)); // 50 + 5
        net.push_linear(Linear::new(5, 2, &mut r)); // 10 + 2
        assert_eq!(net.param_count(), 67);
    }

    #[test]
    fn layer_accessors() {
        let mut r = seeded(11);
        let mut net = Sequential::new();
        net.push_linear(Linear::new(4, 4, &mut r));
        net.push_activation(Activation::Relu);
        net.push_linear(Linear::new(4, 2, &mut r));
        assert_eq!(net.linear_layers().len(), 2);
        assert_eq!(net.conv_layers().len(), 0);
        assert_eq!(net.len(), 3);
    }
}
