//! `cnn`: fig10's shape classifier with its dual conv layer, one
//! closed-loop client, one seeded 11×11 image per request. The dense twin
//! is the trained `Sequential`.
//!
//! This is the only path through im2col, the column-batched speculator
//! (`ApproxLinear::forward_columns`) and the column-gather
//! `SkipZeroInputs` executor, and the layer kind a re-backing of
//! `DualConvLayer` on `DualProjection` must show costs nothing on.

use crate::harness::{self, layer, Args, ClosedLoop, Det, Outcome};
use crate::spans::Recorder;
use duet_core::engine::{EngineCosts, ExecutorWeightBytes, Gather, MacMode};
use duet_core::{SavingsReport, SpeculationEngine, SwitchingPolicy};
use duet_nn::Sequential;
use duet_tensor::im2col::im2col;
use duet_tensor::rng::seeded;
use duet_tensor::{ops, Tensor};
use duet_workloads::datasets::{gaussian_clusters, shape_images};
use duet_workloads::dualize::{DualCnn, DualMlp};
use duet_workloads::trainer::{evaluate_classifier, train_cnn, train_mlp};

/// fig10's seed for the classifiers (its MLP is trained first from the
/// same stream, so it is rebuilt here to reach the same CNN).
const MODEL_SEED: u64 = 1010;
/// fig10's best CNN θ within a 1% accuracy budget (3.76× FLOPs).
const THETA: f32 = 0.5;
const SIZE: usize = 11;
/// Distinct request images per run.
const IMAGES: usize = 2048;

/// The built workload and its seeded request images.
pub struct Cnn {
    net: Sequential,
    dual: DualCnn,
    /// `[1, 11, 11]` images for the dual path.
    images: Vec<Tensor>,
    /// The same images as `[1, 1, 11, 11]` batches for the dense twin.
    batches: Vec<Tensor>,
    labels: Vec<usize>,
}

fn build() -> (Sequential, DualCnn) {
    let mut r = seeded(MODEL_SEED);
    let all = gaussian_clusters(4, 24, 900, 4.5, &mut r);
    let (train, test) = all.split_at(600);
    let mut mlp = train_mlp(&train, 64, 40, &mut r);
    evaluate_classifier(&mut mlp, &test);
    DualMlp::from_sequential(&mlp, &train, 0.5, &mut r);
    let all_imgs = shape_images(600, SIZE, 0.20, &mut r);
    let (imgs, _test_imgs) = all_imgs.split_at(400);
    let net = train_cnn(&imgs, 8, 30, &mut r);
    let dual = DualCnn::from_sequential(&net, &imgs, 0.5, &mut r);
    (net, dual)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    harness::run_closed_loop(
        args,
        || {
            let (net, dual) = build();
            let data = shape_images(IMAGES, SIZE, 0.20, &mut seeded(seed));
            let img = SIZE * SIZE;
            let images: Vec<Tensor> = (0..IMAGES)
                .map(|i| {
                    Tensor::from_vec(
                        data.inputs.data()[i * img..(i + 1) * img].to_vec(),
                        &[1, SIZE, SIZE],
                    )
                })
                .collect();
            let batches = images
                .iter()
                .map(|t| t.reshaped(&[1, 1, SIZE, SIZE]))
                .collect();
            Cnn {
                net,
                dual,
                images,
                batches,
                labels: data.labels,
            }
        },
        // The filter bank is loaded once per image (`Fixed` accounting,
        // 2 bytes per word) and read as f32, plus the speculator weights.
        |det| {
            let r = &det.report;
            det.per_request(2 * r.executor_weight_bytes + r.speculator_weight_bytes)
        },
    )
}

impl Cnn {
    /// The dual forward replayed from the conv layer's public pieces, one
    /// span per layer call; mirrors `DualCnn::forward` over
    /// `DualConvLayer::forward` (no IMap).
    fn replay(&self, rec: &mut Recorder, image: &Tensor) -> (Tensor, SavingsReport) {
        let conv = self.dual.conv_layer();
        let geom = *conv.geometry();
        let k = conv.out_channels();
        let d = geom.patch_len();
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let positions = oh * ow;
        let policy = SwitchingPolicy::relu(THETA);
        let filters = conv.filter_matrix().data();
        let bias = self.net.conv_layers()[0].bias().data();

        let mut engine = SpeculationEngine::new();
        let cols = rec.span(layer::IM2COL, || im2col(image, &geom));
        let mut y = rec.span(layer::SPEC, || conv.approx().forward_columns(&cols));
        let map = rec.span(layer::MAP, || {
            engine.speculate(&policy, &y.reshaped(&[k * positions]))
        });
        rec.span(layer::EXEC, || {
            let cd = cols.data();
            engine.execute_into(&map, y.data_mut(), |idx, kernel| {
                let (kk, p) = (idx / positions, idx % positions);
                kernel.dot(
                    bias[kk],
                    &filters[kk * d..(kk + 1) * d],
                    Gather::Column {
                        data: cd,
                        stride: positions,
                        col: p,
                    },
                    MacMode::SkipZeroInputs {
                        count_skipped: true,
                    },
                )
            });
        });
        let output = rec.span(layer::ACT, || {
            // ReLU with the §III-C correction: outputs that die in ReLU,
            // and insensitive outputs, read as zero.
            let mut omap = map.clone();
            let mut out = y;
            for (i, v) in out.data_mut().iter_mut().enumerate() {
                *v = v.max(0.0);
                if *v == 0.0 && omap.is_sensitive(i) {
                    omap.correct_to_insensitive(i);
                }
            }
            for i in 0..omap.len() {
                if !omap.is_sensitive(i) {
                    out.data_mut()[i] = 0.0;
                }
            }
            out
        });
        let workloads: Vec<usize> = (0..k)
            .map(|kk| map.sensitive_count_in(kk * positions, (kk + 1) * positions))
            .collect();
        std::hint::black_box(workloads);
        let approx = conv.approx();
        let report = engine.finish(EngineCosts {
            dense_macs: (k * positions * d) as u64,
            dense_weight_bytes: (k * d * 2) as u64,
            speculator_macs: (k * approx.config().reduced_dim * positions) as u64,
            speculator_adds: (approx.projection().additions_per_projection() * positions) as u64,
            speculator_weight_bytes: approx.weight_bytes() as u64,
            executor_weight_bytes: ExecutorWeightBytes::Fixed((k * d * 2) as u64),
        });

        // 2×2 max pool and the dense head, as `DualCnn::forward` does.
        let output = output.reshaped(&[k, oh, ow]);
        let (ph, pw) = (oh / 2, ow / 2);
        let mut pooled = Tensor::zeros(&[k * ph * pw]);
        for ch in 0..k {
            for py in 0..ph {
                for px in 0..pw {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            best = best.max(output.at(&[ch, py * 2 + dy, px * 2 + dx]));
                        }
                    }
                    pooled.data_mut()[(ch * ph + py) * pw + px] = best;
                }
            }
        }
        let head = self.net.linear_layers()[0];
        (ops::affine(head.weight(), &pooled, head.bias()), report)
    }
}

impl ClosedLoop for Cnn {
    type Out = Tensor;
    const BLOCK: usize = 500;

    fn inputs(&self) -> usize {
        self.images.len()
    }

    fn dual(&mut self, i: usize) -> Tensor {
        self.dual.forward(&self.images[i], THETA).0
    }

    fn dense(&mut self, i: usize) -> Tensor {
        self.net.forward(&self.batches[i])
    }

    fn finite(out: &Tensor) -> bool {
        out.data().iter().all(|v| v.is_finite())
    }

    fn check(&mut self, out: &mut Outcome) {
        // At θ = −∞ every conv output runs exactly; the dual classifier
        // must then match the trained network up to summation order.
        for i in (0..self.images.len()).step_by(64) {
            let (never, rep) = self.dual.forward(&self.images[i], f32::NEG_INFINITY);
            let dense = self.net.forward(&self.batches[i]);
            let close = never.len() == dense.len()
                && never
                    .data()
                    .iter()
                    .zip(dense.data())
                    .all(|(a, b)| (a - b).abs() <= 1e-3 * b.abs().max(1.0));
            out.check(close && rep.approximate_fraction() == 0.0, || {
                format!("cnn image {i}: θ = −∞ logits differ from the trained net")
            });
        }
    }

    fn deterministic(&mut self) -> Det {
        let (mut report, mut ticks) = (SavingsReport::new(), Vec::new());
        let (mut dual_hits, mut dense_hits) = (0usize, 0usize);
        for i in 0..self.images.len() {
            let (logits, rep) = self.dual.forward(&self.images[i], THETA);
            dual_hits += usize::from(ops::argmax(&logits) == self.labels[i]);
            let dense = self.net.forward(&self.batches[i]);
            let dense = Tensor::from_vec(dense.data().to_vec(), &[dense.len()]);
            dense_hits += usize::from(ops::argmax(&dense) == self.labels[i]);
            ticks.push(harness::closed_loop_ticks(&rep));
            report += rep;
        }
        ticks.sort_unstable();
        Det {
            report,
            requests: self.images.len() as u64,
            quality_pct: 100.0 * dual_hits as f64 / dense_hits.max(1) as f64,
            ticks,
        }
    }

    fn traced(&mut self, rec: &mut Recorder, i: usize) -> bool {
        let (logits, _) = self.replay(rec, &self.images[i]);
        Self::finite(&logits)
    }

    fn replay_matches(&mut self, i: usize) -> bool {
        let (logits, report) = self.dual.forward(&self.images[i], THETA);
        let (replayed, replay_report) = self.replay(&mut Recorder::scratch(), &self.images[i]);
        logits.data() == replayed.data() && report == replay_report
    }

    fn sim_speedup(&mut self) -> f64 {
        0.0
    }
}
