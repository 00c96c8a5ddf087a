//! Dual-module execution of a convolutional layer (§II-B, §III-C).
//!
//! The CONV layer is lowered with im2col and runs as one
//! [`DualProjection`] batched over the patch columns, so the approximate
//! module works on the patch matrix exactly as on an FF input. The
//! switching map is per output *element* (channel × position); after ReLU
//! it doubles as the next layer's input-sparsity map (IMap) including the
//! §III-C correction step.
//!
//! The speculator's patch matrix is built the way DUET's Quantizer sees
//! its input: the `[C, H, W]` feature map is quantized once, as it would
//! stream out of the global buffer (§III-B step 1), and the codes are
//! lowered. That is bitwise quantizing the lowered copy at a fraction of
//! the work (a 3×3 kernel repeats each pixel up to nine times): the
//! quantizer is elementwise at one scale, the scale is the max over the
//! pixels some patch reads ([`patch_max_abs`], the patch matrix's own
//! max, since padding zeros cannot raise it), and the padding is the
//! quantized +0.0, which is NaN when an infinite input makes the scale
//! infinite, as it is in the quantized patch matrix. The executor reads
//! the exact patch matrix.

use crate::approx::ApproxLinear;
use crate::dual_proj::DualProjection;
use crate::engine::{MacMode, SpeculationEngine};
use crate::metrics::SavingsReport;
use crate::switching::{SwitchingMap, SwitchingPolicy};
use duet_tensor::im2col::{im2col, im2col_into, patch_max_abs, ConvGeometry};
use duet_tensor::quantize::ActivationQuantizer;
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// Conv rows skip zero inputs. Whether the skipped MACs still issue
/// depends on the call's IMap, so [`DualProjection::forward_columns`]
/// takes that per call; this is the no-IMap mode.
const MODE: MacMode = MacMode::SkipZeroInputs {
    count_skipped: true,
};

/// Result of one dual-module convolution.
#[derive(Debug, Clone)]
pub struct DualConvOutput {
    /// Post-ReLU output feature map `[K, oh, ow]`.
    pub output: Tensor,
    /// Per-element output switching map (length `K · oh · ow`), after the
    /// post-ReLU correction step — ready to serve as the next layer's
    /// IMap.
    pub omap: SwitchingMap,
    /// Per-channel sensitive-output counts — what the Reorder Unit's
    /// adder trees compute for adaptive mapping (§IV-A).
    pub channel_workloads: Vec<usize>,
    /// Operation / byte accounting.
    pub report: SavingsReport,
}

/// A convolutional layer: its geometry and one [`DualProjection`] whose
/// accurate weights are the filter bank in GEMM form `[K, C·R·S]`.
#[derive(Debug, Clone)]
pub struct DualConvLayer {
    geom: ConvGeometry,
    proj: DualProjection,
}

impl DualConvLayer {
    /// Wraps an accurate filter bank in GEMM form (`filters [K, C·R·S]`)
    /// and a pre-distilled approximate module over the patch dimension.
    ///
    /// # Panics
    ///
    /// Panics on shape inconsistencies.
    pub fn new(geom: ConvGeometry, filters: Tensor, bias: Tensor, approx: ApproxLinear) -> Self {
        let proj = DualProjection::new(filters, bias, approx, MODE);
        assert_eq!(
            proj.input_dim(),
            geom.patch_len(),
            "filters must be [K, C·R·S]"
        );
        Self { geom, proj }
    }

    /// Distills the approximate module from the filter bank
    /// (`filters [K, C, R, S]`) using standard-normal patch samples.
    pub fn learn(
        geom: ConvGeometry,
        filters: &Tensor,
        bias: &Tensor,
        reduced_dim: usize,
        samples: usize,
        rng: &mut Rng,
    ) -> Self {
        let fmat = filters.reshaped(&[filters.shape().dim(0), geom.patch_len()]);
        let proj = DualProjection::learn(&fmat, bias, MODE, reduced_dim, samples, rng);
        Self { geom, proj }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geom
    }

    /// Output channel count `K`.
    pub fn out_channels(&self) -> usize {
        self.proj.output_dim()
    }

    /// The approximate module.
    pub fn approx(&self) -> &ApproxLinear {
        self.proj.approx()
    }

    /// Replaces the approximate module (fault injection / corrupted-
    /// speculator studies); the accurate filter bank is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the replacement's dimensions disagree with the layer.
    pub fn set_approx(&mut self, approx: ApproxLinear) {
        self.proj.set_approx(approx);
    }

    /// The filter matrix in GEMM form `[K, C·R·S]`.
    pub fn filter_matrix(&self) -> &Tensor {
        self.proj.weight()
    }

    /// Dense reference execution (with ReLU).
    pub fn forward_dense(&self, input: &Tensor) -> Tensor {
        let mut y = ops::matmul(self.proj.weight(), &im2col(input, &self.geom));
        let positions = y.shape().dim(1);
        for (kk, &b) in self.proj.bias().data().iter().enumerate() {
            for v in &mut y.data_mut()[kk * positions..(kk + 1) * positions] {
                *v = (*v + b).max(0.0);
            }
        }
        y.reshaped(&[self.out_channels(), self.geom.out_h(), self.geom.out_w()])
    }

    /// Dual-module forward pass.
    ///
    /// `imap`, when given, is the previous layer's corrected OMap reused as
    /// the input-sparsity map: MACs whose input element is flagged
    /// ineffectual (zero) are skipped in the accounting, mirroring the
    /// per-PE tag-bit logic of Fig. 6. It must have length
    /// `C·H·W` of this layer's input.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `[C, H, W]` matching the geometry, or the
    /// imap length disagrees.
    pub fn forward(
        &self,
        input: &Tensor,
        policy: &SwitchingPolicy,
        imap: Option<&SwitchingMap>,
    ) -> DualConvOutput {
        if let Some(m) = imap {
            assert_eq!(
                m.len(),
                input.len(),
                "imap length must equal input element count"
            );
        }
        let (k, oh, ow) = (self.out_channels(), self.geom.out_h(), self.geom.out_w());
        let positions = oh * ow;

        // Speculate and mix over every output element. Skipping a zero
        // input costs nothing extra (ineffectual values are exact zeros),
        // but only an IMap stops the PE from still issuing the MAC.
        let mut engine = SpeculationEngine::new();
        let cols = im2col(input, &self.geom);
        let spec_cols = self.speculator_columns(input);
        let (mut output, mut omap) = self.proj.forward_columns(
            &mut engine,
            policy,
            &cols,
            spec_cols.as_ref().unwrap_or(&cols),
            imap.is_none(),
        );

        // The workloads count the speculated map, before the correction.
        let channel_workloads = (0..k)
            .map(|kk| omap.sensitive_count_in(kk * positions, (kk + 1) * positions))
            .collect();
        // ReLU + §III-C correction step: predicted-effectual neurons that
        // die in ReLU flip to insensitive in the stored OMap, and every
        // insensitive output is set to zero.
        omap.relu_correct(output.data_mut());
        let report = engine.finish(self.proj.costs().column_engine_costs(positions as u64));
        output.reshape_inplace(&[k, oh, ow]);
        DualConvOutput {
            output,
            omap,
            channel_workloads,
            report,
        }
    }

    /// The speculator's patch matrix, bitwise the activation quantizer
    /// run over `im2col(input)` at that matrix's scale, built from the
    /// feature map: its scale from the pixels some patch reads, each
    /// pixel quantized once, the codes lowered with the padding set to the
    /// quantized +0.0. `None` at 16-bit activations, where the speculator
    /// reads the exact patch matrix.
    fn speculator_columns(&self, input: &Tensor) -> Option<Tensor> {
        let bits = self.proj.approx().config().activation_bits;
        let quantizer = ActivationQuantizer::new(bits, || patch_max_abs(input, &self.geom));
        if quantizer.is_exact() {
            return None;
        }
        let mut spec = Tensor::zeros(&[self.geom.patch_len(), self.geom.out_positions()]);
        im2col_into(
            &quantizer.fake_quantize_tensor(input),
            &self.geom,
            quantizer.fake_quantize(0.0),
            spec.data_mut(),
        );
        Some(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    fn geom() -> ConvGeometry {
        ConvGeometry {
            in_channels: 3,
            in_h: 8,
            in_w: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        }
    }

    fn make_layer(seed: u64) -> (DualConvLayer, Rng) {
        let mut r = seeded(seed);
        let g = geom();
        let filters = rng::normal(&mut r, &[8, 3, 3, 3], 0.0, 0.25);
        let bias = rng::normal(&mut r, &[8], 0.0, 0.05);
        let layer = DualConvLayer::learn(g, &filters, &bias, 16, 500, &mut r);
        (layer, r)
    }

    #[test]
    fn never_switch_matches_dense() {
        let (layer, mut r) = make_layer(1);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::never_switch(), None);
        let dense = layer.forward_dense(&x);
        for (a, b) in out.output.data().iter().zip(dense.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn switching_saves_macs_with_bounded_error() {
        let (layer, mut r) = make_layer(2);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        let dense = layer.forward_dense(&x);
        let rel = ops::sub(&out.output, &dense).norm_sq() / dense.norm_sq();
        assert!(
            out.report.mac_skip_fraction() > 0.2,
            "skip {}",
            out.report.mac_skip_fraction()
        );
        assert!(rel < 0.2, "error {rel}");
    }

    #[test]
    fn corrected_omap_matches_output_zeros() {
        let (layer, mut r) = make_layer(3);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        for (i, &v) in out.output.data().iter().enumerate() {
            if out.omap.is_sensitive(i) {
                assert!(v > 0.0, "sensitive output {i} is zero");
            } else {
                assert_eq!(v, 0.0, "insensitive output {i} non-zero");
            }
        }
    }

    #[test]
    fn imap_reduces_counted_macs() {
        let (layer, mut r) = make_layer(4);
        let mut x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        // zero out half the input (as a previous ReLU would)
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let imap = SwitchingMap::from_flags(x.data().iter().map(|&v| v != 0.0).collect());
        let with = layer.forward(&x, &SwitchingPolicy::relu(0.0), Some(&imap));
        let without = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        assert!(with.report.executor_macs < without.report.executor_macs);
        // results identical — skipping zeros is exact
        for (a, b) in with.output.data().iter().zip(without.output.data()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn channel_workloads_sum_to_sensitive_count() {
        let (layer, mut r) = make_layer(5);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        let total: usize = out.channel_workloads.iter().sum();
        assert_eq!(total as u64, out.report.outputs_exact);
        assert_eq!(out.channel_workloads.len(), 8);
    }

    #[test]
    fn output_shape() {
        let (layer, mut r) = make_layer(6);
        let x = rng::normal(&mut r, &[3, 8, 8], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(0.0), None);
        assert_eq!(out.output.shape().dims(), &[8, 8, 8]);
        assert_eq!(out.omap.len(), 8 * 8 * 8);
    }
}
