//! Dual-module execution of a feed-forward layer (Fig. 3).
//!
//! The flow is: approximate module → switching map → sparse accurate
//! GEMV over sensitive rows only → Eq. (2) mix → activation.

use crate::approx::ApproxLinear;
use crate::dual_proj::DualProjection;
use crate::engine::{MacMode, SpeculationEngine};
use crate::metrics::SavingsReport;
use crate::switching::{SwitchingMap, SwitchingPolicy};
use duet_nn::Activation;
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// Result of one dual-module forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DualOutput {
    /// Post-activation outputs (mixed accurate/approximate, Eq. 2).
    pub output: Tensor,
    /// Pre-activation mixed values.
    pub pre_activation: Tensor,
    /// The switching map that drove execution.
    pub map: SwitchingMap,
    /// Operation / byte accounting.
    pub report: SavingsReport,
}

/// A feed-forward layer with its distilled approximate module: one
/// [`DualProjection`] plus an activation.
#[derive(Debug, Clone)]
pub struct DualModuleLayer {
    proj: DualProjection,
    activation: Activation,
}

impl DualModuleLayer {
    /// Wraps an existing accurate layer and a pre-distilled approximate
    /// module.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn new(weight: Tensor, bias: Tensor, activation: Activation, approx: ApproxLinear) -> Self {
        Self {
            // Zero weights (from a pruned accurate module, §VI) are
            // statically removed from the MAC-instruction LUT, so they
            // cost neither a MAC nor a weight fetch — dual-module
            // processing composes with static compression for free.
            proj: DualProjection::new(weight, bias, approx, MacMode::SkipZeroWeights),
            activation,
        }
    }

    /// Distills an approximate module from the accurate layer (standard-
    /// normal calibration inputs) and wraps both. `reduced_dim` is the
    /// projection size `k`, `samples` the distillation sample count.
    pub fn learn(
        weight: &Tensor,
        bias: &Tensor,
        activation: Activation,
        reduced_dim: usize,
        samples: usize,
        rng: &mut Rng,
    ) -> Self {
        Self {
            proj: DualProjection::learn(
                weight,
                bias,
                MacMode::SkipZeroWeights,
                reduced_dim,
                samples,
                rng,
            ),
            activation,
        }
    }

    /// Distills using recorded calibration activations `[s, d]`.
    pub fn learn_from_activations(
        weight: &Tensor,
        bias: &Tensor,
        activation: Activation,
        reduced_dim: usize,
        activations: &Tensor,
        rng: &mut Rng,
    ) -> Self {
        Self {
            proj: DualProjection::learn_from_activations(
                weight,
                bias,
                MacMode::SkipZeroWeights,
                reduced_dim,
                activations,
                rng,
            ),
            activation,
        }
    }

    /// The accurate weight matrix `[n, d]`.
    pub fn weight(&self) -> &Tensor {
        self.proj.weight()
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        self.proj.bias()
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The approximate module.
    pub fn approx(&self) -> &ApproxLinear {
        self.proj.approx()
    }

    /// The underlying speculated projection.
    pub fn projection(&self) -> &DualProjection {
        &self.proj
    }

    /// Replaces the approximate module — the write-back half of fault
    /// injection and speculator-corruption studies (the accurate module is
    /// untouched, so §II's resilience argument can be probed directly).
    ///
    /// # Panics
    ///
    /// Panics if the replacement's dimensions disagree with the layer.
    pub fn set_approx(&mut self, approx: ApproxLinear) {
        self.proj.set_approx(approx);
    }

    /// Output dimension `n`.
    pub fn output_dim(&self) -> usize {
        self.proj.output_dim()
    }

    /// Input dimension `d`.
    pub fn input_dim(&self) -> usize {
        self.proj.input_dim()
    }

    /// Dense (single-module) reference execution.
    pub fn forward_dense(&self, x: &Tensor) -> Tensor {
        self.activation
            .apply(&ops::affine(self.proj.weight(), x, self.proj.bias()))
    }

    /// Dual-module forward pass.
    ///
    /// The accurate GEMV touches only the weight rows of sensitive
    /// neurons: for a memory-bound layer this is the §IV-B saving — "only
    /// the rows related to the accurate output activations need to be
    /// fetched from DRAM".
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward(&self, x: &Tensor, policy: &SwitchingPolicy) -> DualOutput {
        let mut engine = SpeculationEngine::new();

        // Speculate → switching map → sparse exact rows over the
        // approximate buffer (Eq. 2 mix) — the single-projection
        // lifecycle, owned by DualProjection.
        let (pre, map) = self.proj.forward(&mut engine, policy, x);

        // Activation on the mixed pre-activations.
        let output = self.activation.apply(&pre);

        let report = engine.finish(self.proj.costs().engine_costs());

        DualOutput {
            output,
            pre_activation: pre,
            map,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    fn make_layer(act: Activation, seed: u64) -> (DualModuleLayer, Rng) {
        let mut r = seeded(seed);
        let w = rng::normal(&mut r, &[40, 80], 0.0, 0.2);
        let b = rng::normal(&mut r, &[40], 0.0, 0.05);
        let layer = DualModuleLayer::learn(&w, &b, act, 32, 400, &mut r);
        (layer, r)
    }

    #[test]
    fn never_switch_equals_dense() {
        let (layer, mut r) = make_layer(Activation::Relu, 1);
        let x = rng::normal(&mut r, &[80], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::never_switch());
        let dense = layer.forward_dense(&x);
        for (a, b) in out.output.data().iter().zip(dense.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        assert_eq!(out.report.outputs_exact, 40);
        assert_eq!(out.report.executor_macs, out.report.dense_macs);
    }

    #[test]
    fn sensitive_outputs_are_exact() {
        let (layer, mut r) = make_layer(Activation::Relu, 2);
        let x = rng::normal(&mut r, &[80], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0));
        let dense_pre = ops::affine(layer.weight(), &x, layer.bias());
        for i in 0..40 {
            if out.map.is_sensitive(i) {
                assert!(
                    (out.pre_activation.data()[i] - dense_pre.data()[i]).abs() < 1e-5,
                    "sensitive neuron {i} not exact"
                );
            }
        }
    }

    #[test]
    fn relu_switching_saves_work_with_small_error() {
        let (layer, mut r) = make_layer(Activation::Relu, 3);
        let mut total_err = 0.0f32;
        let mut total_norm = 0.0f32;
        let mut saved = 0.0;
        let trials = 20;
        for _ in 0..trials {
            let x = rng::normal(&mut r, &[80], 0.0, 1.0);
            let out = layer.forward(&x, &SwitchingPolicy::relu(0.0));
            let dense = layer.forward_dense(&x);
            total_err += ops::sub(&out.output, &dense).norm_sq();
            total_norm += dense.norm_sq();
            saved += out.report.mac_skip_fraction();
        }
        let rel = total_err / total_norm.max(1e-9);
        let avg_saved = saved / trials as f64;
        assert!(avg_saved > 0.25, "too little saving: {avg_saved}");
        assert!(rel < 0.15, "too much post-ReLU error: {rel}");
    }

    #[test]
    fn tanh_saturation_switching_is_cheap_and_accurate() {
        // A trained-looking low-rank teacher, scaled so many
        // pre-activations saturate — the regime Fig. 2 reports for RNNs.
        let mut r = seeded(4);
        let u = rng::normal(&mut r, &[32, 6], 0.0, 1.0);
        let v = rng::normal(&mut r, &[6, 64], 0.0, 0.25);
        let w = ops::matmul(&u, &v);
        let b = Tensor::zeros(&[32]);
        let layer = DualModuleLayer::learn(&w, &b, Activation::Tanh, 32, 600, &mut r);
        let x = rng::normal(&mut r, &[64], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::tanh(2.5));
        let dense = layer.forward_dense(&x);
        let rel = ops::sub(&out.output, &dense).norm_sq() / dense.norm_sq();
        assert!(rel < 0.05, "tanh mix error {rel}");
        assert!(out.report.approximate_fraction() > 0.05);
    }

    #[test]
    fn report_row_skipping_reduces_weight_bytes() {
        let (layer, mut r) = make_layer(Activation::Relu, 5);
        let x = rng::normal(&mut r, &[80], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0));
        let exact = out.report.outputs_exact;
        assert_eq!(out.report.executor_weight_bytes, exact * 80 * 2);
        assert!(out.report.weight_access_reduction() > 1.0);
    }

    #[test]
    fn extreme_theta_drives_everything_approximate() {
        let (layer, mut r) = make_layer(Activation::Relu, 6);
        let x = rng::normal(&mut r, &[80], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(f32::INFINITY));
        assert_eq!(out.report.outputs_exact, 0);
        assert_eq!(out.report.executor_macs, 0);
    }
}

#[cfg(test)]
mod pruning_composition_tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    /// §VI: "dual-module processing can be combined with other model
    /// compression techniques by taking compressed layers as accurate
    /// modules" — zero weights cost neither MACs nor fetches.
    #[test]
    fn pruned_accurate_module_compounds_savings() {
        let mut r = seeded(31);
        let mut w = rng::normal(&mut r, &[32, 64], 0.0, 0.2);
        // prune half the weights
        for (i, v) in w.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::zeros(&[32]);
        let layer = DualModuleLayer::learn(&w, &b, Activation::Relu, 24, 300, &mut r);
        let x = rng::normal(&mut r, &[64], 0.0, 1.0);

        // even with every output sensitive, the executor only runs the
        // non-zero half of the MACs
        let out = layer.forward(&x, &SwitchingPolicy::never_switch());
        assert_eq!(out.report.executor_macs, 32 * 32);
        assert_eq!(out.report.executor_weight_bytes, 32 * 32 * 2);
        // and the result still matches the dense reference exactly
        let dense = layer.forward_dense(&x);
        for (a, b) in out.output.data().iter().zip(dense.data()) {
            assert!((a - b).abs() < 1e-5);
        }

        // with switching on top, savings compound
        let dual = layer.forward(&x, &SwitchingPolicy::relu(0.0));
        assert!(dual.report.executor_macs < out.report.executor_macs);
    }
}
