//! Optimizers: SGD, SGD-with-momentum, Adam.

use crate::layer::Param;

/// Gradient-descent optimizers. One `Optimizer` value is shared across all
/// parameters of a model; per-parameter state lives in [`Param`].
#[derive(Debug, Clone, PartialEq)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// SGD with classical momentum.
    Momentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (e.g. 0.9).
        momentum: f32,
    },
    /// Adam (Kingma & Ba).
    Adam {
        /// Learning rate.
        lr: f32,
        /// Exponential decay for the first moment.
        beta1: f32,
        /// Exponential decay for the second moment.
        beta2: f32,
        /// Numerical stabilizer.
        eps: f32,
        /// Step counter (starts at 0, incremented by [`Optimizer::tick`]).
        t: u64,
    },
}

impl Optimizer {
    /// Standard Adam with the usual defaults.
    pub fn adam(lr: f32) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Plain SGD.
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd { lr }
    }

    /// SGD with momentum 0.9.
    pub fn momentum(lr: f32) -> Self {
        Optimizer::Momentum { lr, momentum: 0.9 }
    }

    /// Advances the shared step counter. Call once per optimization step,
    /// **before** updating parameters (Adam bias correction needs `t ≥ 1`).
    pub fn tick(&mut self) {
        if let Optimizer::Adam { t, .. } = self {
            *t += 1;
        }
    }

    /// Applies one update to a parameter from its accumulated gradient.
    /// Does not zero the gradient.
    pub fn step(&self, p: &mut Param) {
        match *self {
            Optimizer::Sgd { lr } => {
                for (v, g) in p.value.data_mut().iter_mut().zip(p.grad.data()) {
                    *v -= lr * g;
                }
            }
            Optimizer::Momentum { lr, momentum } => {
                for ((v, m), g) in p
                    .value
                    .data_mut()
                    .iter_mut()
                    .zip(p.moment1.data_mut())
                    .zip(p.grad.data())
                {
                    *m = momentum * *m + g;
                    *v -= lr * *m;
                }
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
            } => {
                assert!(t >= 1, "call tick() before step() when using Adam");
                let bc1 = 1.0 - beta1.powi(t as i32);
                let bc2 = 1.0 - beta2.powi(t as i32);
                for (((v, m), s), g) in p
                    .value
                    .data_mut()
                    .iter_mut()
                    .zip(p.moment1.data_mut())
                    .zip(p.moment2.data_mut())
                    .zip(p.grad.data())
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *s = beta2 * *s + (1.0 - beta2) * g * g;
                    let m_hat = *m / bc1;
                    let s_hat = *s / bc2;
                    *v -= lr * m_hat / (s_hat.sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::Tensor;

    /// Minimize f(x) = (x - 3)² from x = 0 with each optimizer.
    fn minimize(opt: &mut Optimizer, steps: usize) -> f32 {
        let mut p = Param::new(Tensor::zeros(&[1]));
        for _ in 0..steps {
            let x = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (x - 3.0);
            opt.tick();
            opt.step(&mut p);
            p.zero_grad();
        }
        p.value.data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = minimize(&mut Optimizer::sgd(0.1), 100);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let x = minimize(&mut Optimizer::momentum(0.02), 200);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = minimize(&mut Optimizer::adam(0.1), 400);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    #[should_panic(expected = "tick()")]
    fn adam_requires_tick() {
        let opt = Optimizer::adam(0.1);
        let mut p = Param::new(Tensor::zeros(&[1]));
        opt.step(&mut p);
    }

    #[test]
    fn sgd_step_is_linear_in_lr() {
        let mut p1 = Param::new(Tensor::zeros(&[1]));
        p1.grad.data_mut()[0] = 1.0;
        Optimizer::sgd(0.5).step(&mut p1);
        assert!((p1.value.data()[0] + 0.5).abs() < 1e-7);
    }
}
