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

impl Stage {
    /// Backpropagates `g`, the gradient w.r.t. this stage's output:
    /// accumulates the stage's parameter gradients and returns the
    /// gradient w.r.t. its input.
    fn backward(&mut self, mut g: Tensor) -> Tensor {
        match self {
            Stage::Linear(l) => l.backward(&g),
            Stage::Conv(c) => c.backward(&g),
            Stage::Pool(p) => p.backward(&g),
            Stage::Act { act, cached_pre } => {
                let pre = cached_pre.as_ref().expect("backward before forward");
                assert_eq!(g.shape(), pre.shape(), "activation grad shape mismatch");
                act.scale_by_derivative(pre.data(), g.data_mut());
                g
            }
            Stage::Flatten { cached_dims } => {
                let dims = cached_dims.as_ref().expect("backward before forward");
                g.reshape_inplace(dims);
                g
            }
        }
    }

    /// The parameter half of [`Stage::backward`], for the first stage,
    /// whose input gradient nothing reads.
    fn accumulate_grads(&mut self, g: &Tensor) {
        match self {
            Stage::Linear(l) => l.accumulate_grads(g),
            Stage::Conv(c) => c.accumulate_grads(g),
            Stage::Pool(_) | Stage::Act { .. } | Stage::Flatten { .. } => {}
        }
    }
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

    /// Backward pass; accumulates gradients in every stage and returns
    /// the gradient w.r.t. the network's input.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sequential::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for stage in self.stages.iter_mut().rev() {
            g = stage.backward(g);
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
        let (l, mut grad) = loss::cross_entropy(&logits, targets);
        self.zero_grads();
        // [`Sequential::backward`] without its last product: the gradient
        // w.r.t. the batch, which nothing reads, so stage 0 only
        // accumulates its parameter gradients.
        if let Some((first, rest)) = self.stages.split_first_mut() {
            for stage in rest.iter_mut().rev() {
                grad = stage.backward(grad);
            }
            first.accumulate_grads(&grad);
        }
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

    /// `train_step` is bitwise the public steps it stands for — forward,
    /// cross-entropy, `zero_grads`, `backward`, `tick`, `step` — though it
    /// never computes stage 0's input gradient: after every step the loss
    /// and each parameter's value, gradient and moments agree. On an MLP
    /// (stage 0 a `Linear`) and a two-conv net (stage 0 a `Conv2d`, and
    /// the second conv's input gradient still computed).
    #[test]
    fn train_step_is_bitwise_the_public_steps() {
        fn state(net: &mut Sequential) -> Vec<u32> {
            let mut bits = Vec::new();
            net.visit_params(&mut |p| {
                for t in [&p.value, &p.grad, &p.moment1, &p.moment2] {
                    bits.extend(t.data().iter().map(|v| v.to_bits()));
                }
            });
            bits
        }
        fn check(what: &str, build: impl Fn() -> Sequential, x: &Tensor, targets: &[usize]) {
            let (mut fast, mut slow) = (build(), build());
            let (mut opt_fast, mut opt_slow) = (Optimizer::adam(0.05), Optimizer::adam(0.05));
            for step in 0..4 {
                let l_fast = fast.train_step(x, targets, &mut opt_fast);
                let logits = slow.forward(x);
                let (l_slow, grad) = loss::cross_entropy(&logits, targets);
                slow.zero_grads();
                slow.backward(&grad);
                opt_slow.tick();
                slow.visit_params(&mut |p| opt_slow.step(p));
                assert_eq!(
                    l_fast.to_bits(),
                    l_slow.to_bits(),
                    "{what}: loss, step {step}"
                );
                assert!(
                    state(&mut fast) == state(&mut slow),
                    "{what}: params, step {step}"
                );
            }
        }

        let mut r = seeded(12);
        let x = rng::normal(&mut r, &[6, 5], 0.0, 1.0);
        let mlp = || {
            let mut r = seeded(13);
            let mut net = Sequential::new();
            net.push_linear(Linear::new(5, 9, &mut r));
            net.push_activation(Activation::Relu);
            net.push_linear(Linear::new(9, 3, &mut r));
            net
        };
        check("mlp", mlp, &x, &[0, 1, 2, 2, 1, 0]);

        let geom = |c| ConvGeometry {
            in_channels: c,
            in_h: 6,
            in_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let x = rng::normal(&mut r, &[3, 1, 6, 6], 0.0, 1.0);
        let two_conv = || {
            let mut r = seeded(14);
            let mut net = Sequential::new();
            net.push_conv(Conv2d::new(geom(1), 3, &mut r));
            net.push_activation(Activation::Relu);
            net.push_conv(Conv2d::new(geom(3), 3, &mut r));
            net.push_activation(Activation::Relu);
            net.push_pool(MaxPool2d::new(2));
            net.push_flatten();
            net.push_linear(Linear::new(27, 2, &mut r));
            net
        };
        check("two-conv", two_conv, &x, &[1, 0, 1]);
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
