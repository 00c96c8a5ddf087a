//! Non-linear activation functions and their noise-sensitivity structure.
//!
//! The paper's premise (Fig. 1): ReLU is insensitive to pre-activation
//! noise for inputs below zero; sigmoid and tanh are insensitive in their
//! saturation regions. [`Activation::noise_gain`] quantifies this and is
//! used by the Fig. 1 reproduction.

use duet_tensor::Tensor;

/// Activation functions used by the paper's benchmark models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit — CNN workhorse.
    Relu,
    /// Logistic sigmoid — LSTM/GRU gates.
    Sigmoid,
    /// Hyperbolic tangent — LSTM/GRU candidate states.
    Tanh,
    /// Gaussian error linear unit (tanh approximation) — transformer
    /// FFN workhorse. Like ReLU it collapses deep-negative inputs, so
    /// its insensitive region is the same one-sided band.
    Gelu,
    /// Identity (no non-linearity).
    Identity,
}

/// `√(2/π)`, the constant in the tanh approximation of GELU.
const GELU_C: f32 = 0.797_884_6;
/// Cubic coefficient of the tanh approximation of GELU.
const GELU_A: f32 = 0.044_715;

/// GELU (tanh approximation) at `x`, with the `t = tanh(√(2/π)·(x +
/// 0.044715·x³))` it is built from: `(0.5·x·(1 + t), t)`. The one copy of
/// the formula: [`Activation::apply_scalar`] returns the first value, and
/// a trainer that keeps `t` hands it to [`gelu_derivative`] instead of
/// evaluating `tanh` again.
#[inline]
pub fn gelu_with_tanh(x: f32) -> (f32, f32) {
    let t = (GELU_C * (x + GELU_A * x * x * x)).tanh();
    (0.5 * x * (1.0 + t), t)
}

/// GELU's derivative at `x`, given the `t` that [`gelu_with_tanh`]
/// returned for it; bitwise [`Activation::derivative_scalar`] of
/// [`Activation::Gelu`].
#[inline]
pub fn gelu_derivative(x: f32, t: f32) -> f32 {
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x)
}

impl Activation {
    /// Applies the function to a scalar.
    pub fn apply_scalar(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Gelu => gelu_with_tanh(x).0,
            Activation::Identity => x,
        }
    }

    /// Applies the function element-wise.
    pub fn apply(self, x: &Tensor) -> Tensor {
        x.map(|v| self.apply_scalar(v))
    }

    /// Derivative at pre-activation `x`.
    #[inline]
    pub fn derivative_scalar(self, x: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                let s = self.apply_scalar(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Gelu => gelu_derivative(x, gelu_with_tanh(x).1),
            Activation::Identity => 1.0,
        }
    }

    /// Backpropagates through the function: multiplies each `grad[i]` by
    /// the derivative at `pre[i]`, bitwise as
    /// `grad[i] *= self.derivative_scalar(pre[i])` element by element,
    /// with one `match` per slice instead of one per element.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn scale_by_derivative(self, pre: &[f32], grad: &mut [f32]) {
        assert_eq!(pre.len(), grad.len(), "activation grad length mismatch");
        fn scale(pre: &[f32], grad: &mut [f32], derivative: impl Fn(f32) -> f32) {
            for (g, &p) in grad.iter_mut().zip(pre) {
                *g *= derivative(p);
            }
        }
        // Each arm names its variant, so its loop inlines that one
        // derivative and nothing is dispatched per element.
        match self {
            Activation::Relu => scale(pre, grad, |p| Activation::Relu.derivative_scalar(p)),
            Activation::Sigmoid => scale(pre, grad, |p| Activation::Sigmoid.derivative_scalar(p)),
            Activation::Tanh => scale(pre, grad, |p| Activation::Tanh.derivative_scalar(p)),
            Activation::Gelu => scale(pre, grad, |p| Activation::Gelu.derivative_scalar(p)),
            Activation::Identity => scale(pre, grad, |p| Activation::Identity.derivative_scalar(p)),
        }
    }

    /// Post-activation error produced by a pre-activation perturbation:
    /// `|φ(x + eps) − φ(x)|`.
    ///
    /// This is the quantity Fig. 1 plots: near zero it approaches `|eps|`
    /// for all three functions; in the insensitive regions (negative side
    /// of ReLU, saturation tails of sigmoid/tanh) it collapses toward 0.
    pub fn noise_gain(self, x: f32, eps: f32) -> f32 {
        (self.apply_scalar(x + eps) - self.apply_scalar(x)).abs()
    }

    /// Whether a *pre-activation* value lies in the paper's insensitive
    /// region for this function, given switching threshold `theta`
    /// (Eq. 3): ReLU/GELU ⇒ `x < theta`; sigmoid/tanh ⇒ `|x| > theta`;
    /// identity ⇒ `|x| < theta` — the Precision-Gating-style magnitude
    /// rule for linear projections feeding scale-bounded mixers (e.g.
    /// attention logits: small-magnitude entries move the softmax
    /// little). At `theta = 0` this is vacuous (nothing satisfies
    /// `|x| < 0`), so [`crate::Activation::Identity`]-based
    /// never-switch policies stay all-sensitive.
    pub fn is_insensitive(self, x: f32, theta: f32) -> bool {
        match self {
            Activation::Relu | Activation::Gelu => x < theta,
            Activation::Sigmoid | Activation::Tanh => x.abs() > theta,
            Activation::Identity => x.abs() < theta,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Gelu => "gelu",
            Activation::Identity => "identity",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Row-wise softmax over a `[B, n]` tensor of logits, numerically
/// stabilized.
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "softmax expects [B, n] logits");
    let (b, n) = (logits.shape().dim(0), logits.shape().dim(1));
    let mut out = logits.clone();
    for i in 0..b {
        let row = &mut out.data_mut()[i * n..(i + 1) * n];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_values() {
        assert_eq!(Activation::Relu.apply_scalar(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(3.0), 3.0);
    }

    #[test]
    fn sigmoid_symmetry() {
        let s = Activation::Sigmoid;
        for &x in &[0.0f32, 1.0, 2.5, -4.0] {
            assert!((s.apply_scalar(x) + s.apply_scalar(-x) - 1.0).abs() < 1e-6);
        }
        assert!((s.apply_scalar(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn tanh_odd() {
        let t = Activation::Tanh;
        for &x in &[0.5f32, 1.0, 3.0] {
            assert!((t.apply_scalar(x) + t.apply_scalar(-x)).abs() < 1e-6);
        }
    }

    #[test]
    fn gelu_values() {
        let g = Activation::Gelu;
        // GELU(0) = 0; deep negative inputs die; large positives pass through
        assert_eq!(g.apply_scalar(0.0), 0.0);
        assert!(g.apply_scalar(-6.0).abs() < 1e-4);
        assert!((g.apply_scalar(6.0) - 6.0).abs() < 1e-4);
        // reference value: GELU(1) ≈ 0.8412 (tanh approximation)
        assert!((g.apply_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn derivatives_match_finite_difference() {
        let eps = 1e-3f32;
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Gelu,
        ] {
            for &x in &[-2.0f32, -0.5, 0.7, 1.5, 3.0] {
                let fd = (act.apply_scalar(x + eps) - act.apply_scalar(x - eps)) / (2.0 * eps);
                let an = act.derivative_scalar(x);
                assert!((fd - an).abs() < 1e-2, "{act} at {x}: fd {fd} vs {an}");
            }
        }
    }

    #[test]
    fn scale_by_derivative_is_bitwise_per_element() {
        // Every pre-activation against every gradient, specials included:
        // signed zeros, ±∞, NaNs of both signs and a payload, a subnormal,
        // and values deep in each saturation region.
        let values = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -2.5,
            30.0,
            -30.0,
            1e-40,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
        ];
        let pre: Vec<f32> = values.iter().flat_map(|&p| values.map(|_| p)).collect();
        let grad: Vec<f32> = values.iter().flat_map(|_| values).collect();
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Gelu,
            Activation::Identity,
        ] {
            let mut got = grad.clone();
            act.scale_by_derivative(&pre, &mut got);
            for ((&g, &p), &v) in grad.iter().zip(&pre).zip(&got) {
                let want = g * act.derivative_scalar(p);
                // Bit for bit, except that Rust leaves the sign and
                // payload of a computed NaN unspecified.
                assert!(
                    v.to_bits() == want.to_bits() || (v.is_nan() && want.is_nan()),
                    "{act}: grad {g} at {p}: {v} vs {want}"
                );
            }
        }
    }

    #[test]
    fn gelu_helpers_keep_the_formula_bits() {
        // The expressions `apply_scalar` and `derivative_scalar` evaluated
        // before they shared the helpers, written out as the oracle.
        for x in [-6.0f32, -1.0, -0.0, 0.0, 0.3, 2.0, f32::INFINITY, f32::NAN] {
            let y = 0.5 * x * (1.0 + (GELU_C * (x + GELU_A * x * x * x)).tanh());
            let t = (GELU_C * (x + GELU_A * x * x * x)).tanh();
            let d =
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x);
            let g = Activation::Gelu;
            assert_eq!(g.apply_scalar(x).to_bits(), y.to_bits(), "gelu({x})");
            assert_eq!(g.derivative_scalar(x).to_bits(), d.to_bits(), "gelu'({x})");
            let (yh, th) = gelu_with_tanh(x);
            assert_eq!((yh.to_bits(), th.to_bits()), (y.to_bits(), t.to_bits()));
            assert_eq!(gelu_derivative(x, th).to_bits(), d.to_bits(), "gelu'({x})");
        }
    }

    #[test]
    fn noise_gain_collapses_in_insensitive_regions() {
        // Fig. 1: deep in the insensitive regions a pre-activation
        // perturbation barely changes the output.
        let eps = 0.1;
        assert!(Activation::Relu.noise_gain(-3.0, eps) == 0.0);
        assert!(Activation::Relu.noise_gain(1.0, eps) > 0.09);
        assert!(Activation::Sigmoid.noise_gain(6.0, eps) < 0.001);
        assert!(Activation::Sigmoid.noise_gain(0.0, eps) > 0.02);
        assert!(Activation::Tanh.noise_gain(4.0, eps) < 0.001);
        assert!(Activation::Tanh.noise_gain(0.0, eps) > 0.09);
        // GELU shares ReLU's one-sided insensitive region
        assert!(Activation::Gelu.noise_gain(-6.0, eps) < 0.001);
        assert!(Activation::Gelu.noise_gain(1.0, eps) > 0.09);
    }

    #[test]
    fn insensitive_region_rules() {
        assert!(Activation::Relu.is_insensitive(-0.1, 0.0));
        assert!(!Activation::Relu.is_insensitive(0.1, 0.0));
        assert!(Activation::Sigmoid.is_insensitive(5.0, 3.0));
        assert!(Activation::Sigmoid.is_insensitive(-5.0, 3.0));
        assert!(!Activation::Tanh.is_insensitive(1.0, 3.0));
        assert!(Activation::Gelu.is_insensitive(-0.1, 0.0));
        assert!(!Activation::Gelu.is_insensitive(0.1, 0.0));
        assert!(!Activation::Identity.is_insensitive(100.0, 0.0));
    }

    #[test]
    fn identity_magnitude_rule() {
        // |x| < θ is insensitive; θ = 0 (never-switch) and θ = −∞ keep
        // everything sensitive.
        assert!(Activation::Identity.is_insensitive(0.05, 0.1));
        assert!(Activation::Identity.is_insensitive(-0.05, 0.1));
        assert!(!Activation::Identity.is_insensitive(0.2, 0.1));
        assert!(!Activation::Identity.is_insensitive(0.0, 0.0));
        assert!(!Activation::Identity.is_insensitive(0.0, f32::NEG_INFINITY));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = softmax(&logits);
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(i).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let p = softmax(&logits);
        assert!(p.data().iter().all(|v| v.is_finite()));
        assert!(p.at(&[0, 1]) > p.at(&[0, 0]));
    }
}
