//! Converting trained networks into dual-module form and measuring the
//! true quality-vs-savings trade-off (the data behind Fig. 10).
//!
//! A [`DualCharLm`] runs its dual cell inside its [`CharLm`]'s own
//! sequence loop and output head — the ones [`CharLm::nll`] runs the
//! teacher cell in — so the dense and the dual LM differ only in the
//! recurrent step.

use crate::datasets::Classification;
use crate::trainer::CharLm;
use duet_core::dual_rnn::{DualGruCell, DualLstmCell, DualRnnStepOutput, RnnThresholds};
use duet_core::{DualConvLayer, DualModuleLayer, SavingsReport, SwitchingMap, SwitchingPolicy};
use duet_nn::lstm::LstmState;
use duet_nn::{loss, Activation, Conv2d, Sequential};
use duet_tensor::im2col::im2col;
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// A dual-module MLP: hidden ReLU layers run dual-module, the final
/// logits layer stays dense (no non-linearity to exploit).
#[derive(Debug, Clone)]
pub struct DualMlp {
    hidden: Vec<DualModuleLayer>,
    final_w: Tensor,
    final_b: Tensor,
}

impl DualMlp {
    /// Builds from a trained `linear → ReLU → … → linear` [`Sequential`],
    /// distilling each hidden layer's approximate module from calibration
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if the network has no linear layers.
    pub fn from_sequential(
        net: &Sequential,
        calibration: &Classification,
        reduced_ratio: f64,
        r: &mut Rng,
    ) -> Self {
        let linears = net.linear_layers();
        let Some((last, hidden_layers)) = linears.split_last() else {
            panic!("network has no linear layers");
        };

        // Collect calibration activations layer by layer.
        let n = calibration.len().min(256);
        let d0 = calibration.inputs.shape().dim(1);
        let mut acts = Tensor::from_vec(calibration.inputs.data()[..n * d0].to_vec(), &[n, d0]);
        let mut hidden = Vec::with_capacity(hidden_layers.len());
        for l in hidden_layers {
            let k = ((l.in_features() as f64 * reduced_ratio) as usize).clamp(8, l.in_features());
            let dual = DualModuleLayer::learn_from_activations(
                l.weight(),
                l.bias(),
                Activation::Relu,
                k,
                &acts,
                r,
            );
            // propagate calibration data through the dense layer + ReLU
            let mut next = Tensor::zeros(&[n, l.out_features()]);
            for i in 0..n {
                let x = Tensor::from_vec(acts.row(i).to_vec(), &[l.in_features()]);
                let y = Activation::Relu.apply(&ops::affine(l.weight(), &x, l.bias()));
                next.row_mut(i).copy_from_slice(y.data());
            }
            acts = next;
            hidden.push(dual);
        }
        Self {
            hidden,
            final_w: last.weight().clone(),
            final_b: last.bias().clone(),
        }
    }

    /// Mutable access to the dualized hidden layers — lets fault-injection
    /// harnesses corrupt or replace speculator state in place.
    pub fn hidden_layers_mut(&mut self) -> &mut [DualModuleLayer] {
        &mut self.hidden
    }

    /// Forward pass for one input vector at threshold θ.
    pub fn forward(&self, x: &Tensor, theta: f32) -> (Tensor, SavingsReport) {
        let mut cur = x.clone();
        let mut report = SavingsReport::new();
        for layer in &self.hidden {
            let out = layer.forward(&cur, &SwitchingPolicy::relu(theta));
            report += out.report;
            cur = out.output;
        }
        let logits = ops::affine(&self.final_w, &cur, &self.final_b);
        (logits, report)
    }

    /// Accuracy and aggregate savings over a dataset at threshold θ.
    pub fn evaluate(&self, data: &Classification, theta: f32) -> (f64, SavingsReport) {
        let d = data.inputs.shape().dim(1);
        let mut correct = 0usize;
        let mut report = SavingsReport::new();
        for i in 0..data.len() {
            let x = Tensor::from_vec(data.inputs.row(i).to_vec(), &[d]);
            let (logits, rep) = self.forward(&x, theta);
            report += rep;
            if ops::argmax(&logits) == data.labels[i] {
                correct += 1;
            }
        }
        (correct as f64 / data.len() as f64, report)
    }
}

/// The max-pool window between the last conv and the classifier head.
const POOL: usize = 2;

/// A dual-module CNN classifier: every conv layer runs dual-module, each
/// one's corrected OMap serving as the next one's IMap (§III-C); the max
/// pool after the last conv and the classifier head stay dense.
#[derive(Debug, Clone)]
pub struct DualCnn {
    convs: Vec<DualConvLayer>,
    head_w: Tensor,
    head_b: Tensor,
}

impl DualCnn {
    /// Builds from a trained `(conv → ReLU)+ → pool → flatten → linear`
    /// [`Sequential`], distilling each conv's approximate module from real
    /// im2col patches of that conv's calibration inputs: the calibration
    /// images for the first conv, the dense feature maps of the convs
    /// before it for each later one.
    ///
    /// # Panics
    ///
    /// Panics if the network has no conv layer or other than one linear
    /// head.
    pub fn from_sequential(
        net: &Sequential,
        calibration: &Classification,
        reduced_ratio: f64,
        r: &mut Rng,
    ) -> Self {
        let convs = net.conv_layers();
        let linears = net.linear_layers();
        assert!(!convs.is_empty(), "expected at least one conv layer");
        assert_eq!(linears.len(), 1, "expected exactly one linear head");

        let dims = calibration.inputs.shape().dims();
        let img: usize = dims[1..].iter().product();
        let mut inputs: Vec<Tensor> = calibration.inputs.data()[..calibration.len().min(8) * img]
            .chunks_exact(img)
            .map(|x| Tensor::from_vec(x.to_vec(), &dims[1..]))
            .collect();
        let mut duals: Vec<DualConvLayer> = Vec::with_capacity(convs.len());
        for conv in convs {
            if let Some(prev) = duals.last() {
                inputs = inputs.iter().map(|x| prev.forward_dense(x)).collect();
            }
            duals.push(distill_conv(conv, &inputs, reduced_ratio, r));
        }
        Self {
            convs: duals,
            head_w: linears[0].weight().clone(),
            head_b: linears[0].bias().clone(),
        }
    }

    /// Forward pass for one `[C, H, W]` image at threshold θ; the report
    /// sums the conv layers'.
    pub fn forward(&self, image: &Tensor, theta: f32) -> (Tensor, SavingsReport) {
        let policy = SwitchingPolicy::relu(theta);
        let mut out = self.convs[0].forward(image, &policy, None);
        let mut report = out.report;
        for conv in &self.convs[1..] {
            out = conv.forward(&out.output, &policy, Some(&out.omap));
            report += out.report;
        }
        // max pool
        let (kk, oh, ow) = (
            out.output.shape().dim(0),
            out.output.shape().dim(1),
            out.output.shape().dim(2),
        );
        let (ph, pw) = (oh / POOL, ow / POOL);
        let mut pooled = Tensor::zeros(&[kk * ph * pw]);
        let (od, pd) = (out.output.data(), pooled.data_mut());
        for ch in 0..kk {
            let plane = &od[ch * oh * ow..(ch + 1) * oh * ow];
            for y in 0..ph {
                for x in 0..pw {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..POOL {
                        let row = (y * POOL + dy) * ow + x * POOL;
                        for &v in &plane[row..row + POOL] {
                            best = best.max(v);
                        }
                    }
                    pd[(ch * ph + y) * pw + x] = best;
                }
            }
        }
        let logits = ops::affine(&self.head_w, &pooled, &self.head_b);
        (logits, report)
    }

    /// Accuracy and savings over a dataset at threshold θ.
    pub fn evaluate(&self, data: &Classification, theta: f32) -> (f64, SavingsReport) {
        let dims = data.inputs.shape().dims().to_vec();
        let img: usize = dims[1..].iter().product();
        let mut correct = 0usize;
        let mut report = SavingsReport::new();
        for i in 0..data.len() {
            let x = Tensor::from_vec(
                data.inputs.data()[i * img..(i + 1) * img].to_vec(),
                &[dims[1], dims[2], dims[3]],
            );
            let (logits, rep) = self.forward(&x, theta);
            report += rep;
            if ops::argmax(&logits) == data.labels[i] {
                correct += 1;
            }
        }
        (correct as f64 / data.len() as f64, report)
    }

    /// The first dual-module conv layer (for direct access to switching
    /// maps and the approximate module).
    pub fn conv_layer(&self) -> &DualConvLayer {
        &self.convs[0]
    }

    /// Every dual-module conv layer, in forward order.
    pub fn conv_layers(&self) -> &[DualConvLayer] {
        &self.convs
    }
}

/// Distills the dual form of a trained conv from every third im2col
/// patch column of its calibration inputs.
fn distill_conv(
    conv: &Conv2d,
    inputs: &[Tensor],
    reduced_ratio: f64,
    r: &mut Rng,
) -> DualConvLayer {
    let geom = *conv.geometry();
    let d = geom.patch_len();
    let mut patches: Vec<f32> = Vec::new();
    for x in inputs {
        let cols = im2col(x, &geom); // [patch, positions]
        let positions = cols.shape().dim(1);
        for p in (0..positions).step_by(3) {
            patches.extend((0..d).map(|row| cols.data()[row * positions + p]));
        }
    }
    let rows = patches.len() / d;
    let acts = Tensor::from_vec(patches, &[rows, d]);

    let k = ((d as f64 * reduced_ratio) as usize).clamp(4, d);
    let fmat = conv.weight_matrix().clone();
    let approx = duet_core::distill::distill_linear_from_activations(
        &fmat,
        conv.bias(),
        duet_core::ApproxConfig::paper_default(k),
        &acts,
        r,
    );
    DualConvLayer::new(geom, fmat, conv.bias().clone(), approx)
}

/// Which dual recurrent cell a [`DualCharLm`] wraps.
#[derive(Debug, Clone)]
pub enum DualLmCell {
    /// Dual-module LSTM.
    Lstm(DualLstmCell),
    /// Dual-module GRU.
    Gru(DualGruCell),
}

/// A dual-module language model: the recurrent cell runs dual-module,
/// embedding and output projection stay dense.
#[derive(Debug, Clone)]
pub struct DualCharLm {
    lm: CharLm,
    cell: DualLmCell,
}

impl DualCharLm {
    /// Distills dual-module cells from a trained [`CharLm`].
    pub fn from_char_lm(lm: &CharLm, reduced_dim: usize, samples: usize, r: &mut Rng) -> Self {
        let cell = if let Some(c) = lm.lstm_cell() {
            DualLmCell::Lstm(DualLstmCell::learn(c, reduced_dim, samples, r))
        } else {
            DualLmCell::Gru(DualGruCell::learn(
                lm.gru_cell().expect("lm must hold lstm or gru"),
                reduced_dim,
                samples,
                r,
            ))
        };
        Self {
            lm: lm.clone(),
            cell,
        }
    }

    /// Mean NLL (nats/token) and savings over a token sequence at the
    /// given per-gate thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() < 2`.
    pub fn nll(&self, tokens: &[usize], thresholds: &RnnThresholds) -> (f32, SavingsReport) {
        let mut state = LstmState::zeros(self.lm.hidden());
        let mut report = SavingsReport::new();
        let nll = self.lm.nll_with(tokens, |x| {
            let (h, _, rep) = self.step(x, &mut state, thresholds);
            report += rep;
            h
        });
        // The Speculator's QDR weights stay resident in its weight buffer
        // across time steps (§III-B pre-step); the per-step reports each
        // counted a fresh load, so amortize them back to a single fetch.
        report.speculator_weight_bytes /= (tokens.len() - 1) as u64;
        (nll, report)
    }

    /// Perplexity and savings at the given thresholds.
    pub fn perplexity(&self, tokens: &[usize], thresholds: &RnnThresholds) -> (f32, SavingsReport) {
        let (nll, rep) = self.nll(tokens, thresholds);
        (loss::perplexity(nll), rep)
    }

    /// Records per-step gate maps for trace building.
    pub fn record_gate_maps(
        &self,
        tokens: &[usize],
        thresholds: &RnnThresholds,
    ) -> Vec<Vec<SwitchingMap>> {
        let mut state = LstmState::zeros(self.lm.hidden());
        let mut all = Vec::new();
        self.lm
            .hidden_states(tokens, |x| {
                let (h, maps, _) = self.step(x, &mut state, thresholds);
                all.push(maps);
                h
            })
            .for_each(drop);
        all
    }

    /// One dual step from `state`, which it advances (a GRU reads only
    /// `state.h`): the new hidden state, the gate maps and the step's
    /// savings.
    fn step(
        &self,
        x: &Tensor,
        state: &mut LstmState,
        thresholds: &RnnThresholds,
    ) -> (Tensor, Vec<SwitchingMap>, SavingsReport) {
        let DualRnnStepOutput {
            h,
            c,
            gate_maps,
            report,
        } = match &self.cell {
            DualLmCell::Lstm(cell) => cell.step(x, state, thresholds),
            DualLmCell::Gru(cell) => cell.step(x, &state.h, thresholds),
        };
        *state = LstmState { h: h.clone(), c };
        (h, gate_maps, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::trainer;
    use duet_tensor::rng::seeded;

    #[test]
    fn dual_mlp_matches_dense_at_never_switch() {
        let mut r = seeded(1);
        let data = datasets::gaussian_clusters(3, 12, 200, 5.0, &mut r);
        let mut net = trainer::train_mlp(&data, 24, 25, &mut r);
        let dense_acc = trainer::evaluate_classifier(&mut net, &data);

        let dual = DualMlp::from_sequential(&net, &data, 0.5, &mut r);
        // θ = −∞ keeps every ReLU output sensitive → identical accuracy
        let (acc, rep) = dual.evaluate(&data, f32::NEG_INFINITY);
        assert!((acc - dense_acc).abs() < 1e-9, "{acc} vs {dense_acc}");
        assert_eq!(rep.approximate_fraction(), 0.0);
    }

    #[test]
    fn dual_mlp_saves_flops_with_small_accuracy_loss() {
        let mut r = seeded(2);
        let data = datasets::gaussian_clusters(3, 12, 300, 5.0, &mut r);
        let mut net = trainer::train_mlp(&data, 32, 30, &mut r);
        let dense_acc = trainer::evaluate_classifier(&mut net, &data);

        let dual = DualMlp::from_sequential(&net, &data, 0.5, &mut r);
        let (acc, rep) = dual.evaluate(&data, 0.0);
        assert!(
            rep.flops_reduction() > 1.2,
            "reduction {}",
            rep.flops_reduction()
        );
        assert!(
            acc >= dense_acc - 0.05,
            "accuracy {acc} vs dense {dense_acc}"
        );
    }

    #[test]
    fn dual_mlp_quality_degrades_monotonically_in_theta() {
        let mut r = seeded(3);
        let data = datasets::gaussian_clusters(4, 10, 200, 4.0, &mut r);
        let net = trainer::train_mlp(&data, 24, 25, &mut r);
        let dual = DualMlp::from_sequential(&net, &data, 0.5, &mut r);

        let (_, rep_low) = dual.evaluate(&data, -10.0);
        let (_, rep_high) = dual.evaluate(&data, 10.0);
        assert!(rep_high.approximate_fraction() > rep_low.approximate_fraction());
        assert!(rep_high.flops_reduction() > rep_low.flops_reduction());
    }

    #[test]
    fn dual_cnn_roundtrip() {
        let mut r = seeded(4);
        let data = datasets::shape_images(120, 9, 0.05, &mut r);
        let mut net = trainer::train_cnn(&data, 6, 10, &mut r);
        let dense_acc = trainer::evaluate_classifier(&mut net, &data);
        let dual = DualCnn::from_sequential(&net, &data, 0.5, &mut r);
        let (acc_exact, _) = dual.evaluate(&data, f32::NEG_INFINITY);
        assert!(
            (acc_exact - dense_acc).abs() < 0.02,
            "{acc_exact} vs {dense_acc}"
        );
        let (acc, rep) = dual.evaluate(&data, 0.0);
        assert!(rep.mac_skip_fraction() > 0.1);
        assert!(acc >= dense_acc - 0.1, "{acc} vs {dense_acc}");
    }

    #[test]
    fn dual_lm_tracks_dense_perplexity_when_conservative() {
        let mut r = seeded(5);
        let source = datasets::MarkovText::new(12, 3, &mut r);
        let lm = trainer::train_char_lm(&source, true, 12, 24, 50, 20, &mut r);
        let test = source.sample(150, &mut r);
        let dense_ppl = lm.perplexity(&test);

        let dual = DualCharLm::from_char_lm(&lm, 16, 300, &mut r);
        let (ppl, rep) = dual.perplexity(&test, &RnnThresholds::never_switch());
        assert!(
            (ppl - dense_ppl).abs() < dense_ppl * 0.02,
            "{ppl} vs {dense_ppl}"
        );
        assert_eq!(rep.approximate_fraction(), 0.0);
    }

    #[test]
    fn dual_lm_saves_weight_accesses_with_bounded_ppl_loss() {
        let mut r = seeded(6);
        let source = datasets::MarkovText::new(12, 3, &mut r);
        let lm = trainer::train_char_lm(&source, true, 12, 32, 150, 25, &mut r);
        let test = source.sample(150, &mut r);
        let dense_ppl = lm.perplexity(&test);

        let dual = DualCharLm::from_char_lm(&lm, 24, 400, &mut r);
        let th = RnnThresholds {
            theta_sigmoid: 2.0,
            theta_tanh: 1.5,
        };
        let (ppl, rep) = dual.perplexity(&test, &th);
        assert!(rep.approximate_fraction() > 0.02, "no switching happened");
        assert!(ppl < dense_ppl * 1.5, "ppl {ppl} vs dense {dense_ppl}");
    }

    #[test]
    fn char_lm_nll_keeps_its_bits() {
        // Golden pins of the recurrent LMs' full-precision NLL and
        // accounting: the dense LM and its dual form at never-switch and
        // at one switching θ, for both cells. The maps recorded at that θ
        // are the ones its NLL pass counted.
        let source = datasets::MarkovText::new(8, 2, &mut seeded(60));
        for (lstm, theta_sigmoid, theta_tanh, want) in [
            (
                true,
                0.8,
                0.6,
                [
                    (1, 0x756e_50d4_e0f8_7039),
                    (1, 0xedd0_d741_f56b_ddf6),
                    (1, 0xdd01_64a3_8fbf_87cb),
                ],
            ),
            (
                false,
                0.3,
                0.2,
                [
                    (1, 0xf6fa_ecd1_8dad_7340),
                    (1, 0x3561_b0ab_1ddc_33fd),
                    (1, 0xef03_03e6_960d_ea92),
                ],
            ),
        ] {
            let lm = trainer::train_char_lm(&source, lstm, 6, 12, 40, 16, &mut seeded(61));
            let dual = DualCharLm::from_char_lm(&lm, 8, 150, &mut seeded(62));
            let tokens = source.sample(48, &mut seeded(63));
            let th = RnnThresholds {
                theta_sigmoid,
                theta_tanh,
            };
            let fold =
                |nll: f32, rep: &SavingsReport| crate::output_fingerprint([nll.to_bits()], rep);
            let (never, never_rep) = dual.nll(&tokens, &RnnThresholds::never_switch());
            let (nll, rep) = dual.nll(&tokens, &th);
            assert!(rep.approximate_fraction() > 0.1, "lstm = {lstm}");
            let got = [
                fold(lm.nll(&tokens), &SavingsReport::new()),
                fold(never, &never_rep),
                fold(nll, &rep),
            ];
            assert_eq!(got, want, "lstm = {lstm}");
            let maps = dual.record_gate_maps(&tokens, &th);
            let sensitive: usize = maps.iter().flatten().map(|m| m.sensitive_count()).sum();
            assert_eq!(sensitive as u64, rep.outputs_exact, "lstm = {lstm}");
        }
    }

    #[test]
    fn recorded_gate_maps_have_right_shape() {
        let mut r = seeded(7);
        let source = datasets::MarkovText::new(10, 2, &mut r);
        let lm = trainer::train_char_lm(&source, false, 10, 16, 30, 15, &mut r);
        let dual = DualCharLm::from_char_lm(&lm, 12, 200, &mut r);
        let tokens = source.sample(10, &mut r);
        let maps = dual.record_gate_maps(&tokens, &RnnThresholds::never_switch());
        assert_eq!(maps.len(), 9);
        assert_eq!(maps[0].len(), 3); // GRU gates
        assert_eq!(maps[0][0].len(), 16);
    }
}
