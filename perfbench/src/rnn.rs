//! `rnn`: fig10's LSTM language model (h = 48, k = 32) at one fixed pair
//! of gate thresholds, one closed-loop client, one seeded token sequence
//! per request. The dense twin is the trained `CharLm`.
//!
//! Gate rows are dense two-segment rows (`W_ih·x + W_hh·h`) and most stay
//! sensitive, so the executor does the most work here: an executor
//! change shows on this workload, and so does a speculator change that
//! costs executor rows.

use crate::harness::{self, layer, Args, ClosedLoop, Det, Outcome};
use crate::spans::Recorder;
use duet_core::dual_rnn::RnnThresholds;
use duet_core::engine::{Gather, MacMode, RowSegment};
use duet_core::{
    ApproxLinear, DualLstmCell, ProjectionCosts, SavingsReport, SpeculationEngine, SwitchingPolicy,
};
use duet_nn::lstm::LstmState;
use duet_nn::{loss, Activation, LstmCell};
use duet_sim::config::ArchConfig;
use duet_sim::energy::EnergyTable;
use duet_sim::rnn::run_rnn_layer;
use duet_sim::trace::RnnLayerTrace;
use duet_tensor::rng::{seeded, Rng};
use duet_tensor::{ops, Tensor};
use duet_workloads::datasets::MarkovText;
use duet_workloads::dualize::DualCharLm;
use duet_workloads::trainer::{train_char_lm, CharLm};

/// fig10's seed for the recurrent language models.
const MODEL_SEED: u64 = 1011;
/// Speculator reduced dimension (fig10's `k`).
const REDUCED: usize = 32;
/// Distillation samples (fig10).
const SAMPLES: usize = 500;
/// The gate thresholds, taken once from the fig10 LSTM sweep: the
/// 2.0/1.5 row (+5.8% perplexity, 1.54× weight-access reduction, 35% of
/// gate outputs approximate).
const THRESHOLDS: RnnThresholds = RnnThresholds {
    theta_sigmoid: 2.0,
    theta_tanh: 1.5,
};
/// Tokens per request sequence (16 steps plus the last target).
const SEQ: usize = 17;
/// Distinct request sequences per run.
const SEQUENCES: usize = 512;
/// Sequences fed to the simulator for `sim.speedup`.
const SIM_SEQUENCES: usize = 32;

/// The built workload and its seeded request sequences.
pub struct Rnn {
    lm: CharLm,
    dual: DualCharLm,
    /// The generator state `dual`'s cell was distilled from.
    cell_rng: Rng,
    /// The same distilled cell `dual` wraps, built on first use by the
    /// traced replay (so it stays out of `setup_s`).
    cell: Option<DualLstmCell>,
    seqs: Vec<Vec<usize>>,
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    harness::run_closed_loop(
        args,
        || {
            let mut r = seeded(MODEL_SEED);
            let source = MarkovText::new(16, 3, &mut r);
            // fig10 draws its test stream before training.
            let _test = source.sample(300, &mut r);
            let lm = train_char_lm(&source, true, 16, 48, 180, 30, &mut r);
            let cell_rng = r.clone();
            let dual = DualCharLm::from_char_lm(&lm, REDUCED, SAMPLES, &mut r);
            let mut r = seeded(seed);
            let seqs = (0..SEQUENCES).map(|_| source.sample(SEQ, &mut r)).collect();
            Rnn {
                lm,
                dual,
                cell_rng,
                cell: None,
                seqs,
            }
        },
        weight_bytes,
    )
}

/// Weight bytes fetched per request: f32 gate rows actually touched plus
/// the speculators' packed weights, from the run's own counts.
fn weight_bytes(det: &Det) -> f64 {
    let r = &det.report;
    det.per_request(2 * r.executor_weight_bytes + r.speculator_weight_bytes)
}

fn costs(approx: &ApproxLinear) -> ProjectionCosts {
    let (n, d) = (approx.output_dim(), approx.input_dim());
    ProjectionCosts {
        dense_macs: (n * d) as u64,
        dense_weight_bytes: (n * d * 2) as u64,
        speculator_macs: (n * approx.config().reduced_dim) as u64,
        speculator_adds: approx.projection().additions_per_projection() as u64,
        speculator_weight_bytes: approx.weight_bytes() as u64,
    }
}

impl Rnn {
    fn teacher(&self) -> &LstmCell {
        self.lm.lstm_cell().expect("fig10's first LM is an LSTM")
    }

    fn cell(&mut self) -> &DualLstmCell {
        if self.cell.is_none() {
            let cell =
                DualLstmCell::learn(self.teacher(), REDUCED, SAMPLES, &mut self.cell_rng.clone());
            self.cell = Some(cell);
        }
        self.cell.as_ref().expect("cell built above")
    }

    fn embed(&self, token: usize) -> Tensor {
        let vocab = self.lm.vocab();
        let emb = self.lm.embed.value.shape().dim(0);
        Tensor::from_fn(&[emb], |i| self.lm.embed.value.data()[i * vocab + token])
    }

    /// The dual sequence NLL replayed from the cell's public pieces, one
    /// span per layer call; mirrors `DualCharLm::nll` over
    /// `DualLstmCell::step`.
    fn replay(&self, rec: &mut Recorder, tokens: &[usize]) -> (f32, SavingsReport) {
        let cell = self.cell.as_ref().expect("replay needs the distilled cell");
        let teacher = self.teacher();
        let h = self.lm.hidden();
        let vocab = self.lm.vocab();
        let steps = tokens.len() - 1;
        let policies = [
            SwitchingPolicy::sigmoid(THRESHOLDS.theta_sigmoid),
            SwitchingPolicy::sigmoid(THRESHOLDS.theta_sigmoid),
            SwitchingPolicy::tanh(THRESHOLDS.theta_tanh),
            SwitchingPolicy::sigmoid(THRESHOLDS.theta_sigmoid),
        ];
        let step_costs = (costs(cell.approx_ih()) + costs(cell.approx_hh())).engine_costs();
        let mut state = LstmState::zeros(h);
        let mut total = 0.0f32;
        let mut report = SavingsReport::new();
        for t in 0..steps {
            let x = self.embed(tokens[t]);
            let mut engine = SpeculationEngine::new();
            let mut a = rec.span(layer::SPEC, || cell.approx_preactivations(&x, &state.h));
            let segments = [
                RowSegment {
                    weights: teacher.w_ih.value.data(),
                    d: x.len(),
                    x: Gather::Dense(x.data()),
                    mode: MacMode::Dense,
                },
                RowSegment {
                    weights: teacher.w_hh.value.data(),
                    d: h,
                    x: Gather::Dense(state.h.data()),
                    mode: MacMode::Dense,
                },
            ];
            for (gi, policy) in policies.iter().enumerate() {
                let map = rec.span(layer::MAP, || {
                    let slice = Tensor::from_vec(a.data()[gi * h..(gi + 1) * h].to_vec(), &[h]);
                    engine.speculate(policy, &slice)
                });
                rec.span(layer::EXEC, || {
                    engine.execute_rows_into(
                        &map,
                        &mut a.data_mut()[gi * h..(gi + 1) * h],
                        gi * h,
                        teacher.bias.value.data(),
                        &segments,
                    );
                });
            }
            state = rec.span(layer::ACT, || combine(&a, &state, h));
            report += engine.finish(step_costs);
            let logits = ops::affine(&self.lm.w_out.value, &state.h, &self.lm.b_out.value);
            total += loss::cross_entropy(&logits.reshaped(&[1, vocab]), &[tokens[t + 1]]).0;
        }
        report.speculator_weight_bytes /= steps as u64;
        (total / steps as f32, report)
    }
}

/// LSTM gate combine on mixed pre-activations; mirrors the cell's own.
fn combine(a: &Tensor, state: &LstmState, h: usize) -> LstmState {
    let seg = |k: usize| Tensor::from_vec(a.data()[k * h..(k + 1) * h].to_vec(), &[h]);
    let i = seg(0).map(|v| Activation::Sigmoid.apply_scalar(v));
    let f = seg(1).map(|v| Activation::Sigmoid.apply_scalar(v));
    let g = seg(2).map(|v| v.tanh());
    let o = seg(3).map(|v| Activation::Sigmoid.apply_scalar(v));
    let c = ops::add(&ops::hadamard(&f, &state.c), &ops::hadamard(&i, &g));
    let h_new = ops::hadamard(&o, &c.map(|v| v.tanh()));
    LstmState { h: h_new, c }
}

impl ClosedLoop for Rnn {
    type Out = f32;
    const BLOCK: usize = 100;

    fn inputs(&self) -> usize {
        self.seqs.len()
    }

    fn dual(&mut self, i: usize) -> f32 {
        self.dual.nll(&self.seqs[i], &THRESHOLDS).0
    }

    fn dense(&mut self, i: usize) -> f32 {
        self.lm.nll(&self.seqs[i])
    }

    fn finite(out: &f32) -> bool {
        out.is_finite()
    }

    fn check(&mut self, out: &mut Outcome) {
        // The dual LM at thresholds that never switch runs every gate row
        // exactly: it must track the trained LM to float rounding.
        for (i, s) in self.seqs.iter().enumerate().step_by(64) {
            let (never, rep) = self.dual.nll(s, &RnnThresholds::never_switch());
            let dense = self.lm.nll(s);
            out.check(
                (never - dense).abs() <= 1e-4 * dense.abs().max(1.0)
                    && rep.approximate_fraction() == 0.0,
                || format!("rnn sequence {i}: never-switch NLL {never} vs dense {dense}"),
            );
        }
    }

    fn deterministic(&mut self) -> Det {
        let (mut report, mut ticks) = (SavingsReport::new(), Vec::new());
        let (mut dual_nll, mut dense_nll) = (0.0f64, 0.0f64);
        for s in &self.seqs {
            let (nll, rep) = self.dual.nll(s, &THRESHOLDS);
            dual_nll += f64::from(nll);
            dense_nll += f64::from(self.lm.nll(s));
            ticks.push(harness::closed_loop_ticks(&rep));
            report += rep;
        }
        ticks.sort_unstable();
        let n = self.seqs.len() as f64;
        // Perplexity retained: dense perplexity over dual perplexity.
        let quality_pct = 100.0 * ((dense_nll - dual_nll) / n).exp();
        Det {
            report,
            requests: self.seqs.len() as u64,
            quality_pct,
            ticks,
        }
    }

    fn traced(&mut self, rec: &mut Recorder, i: usize) -> bool {
        self.cell();
        let (nll, _) = self.replay(rec, &self.seqs[i]);
        nll.is_finite()
    }

    fn replay_matches(&mut self, i: usize) -> bool {
        self.cell();
        let s = &self.seqs[i];
        let (nll, report) = self.dual.nll(s, &THRESHOLDS);
        let (replayed, replay_report) = self.replay(&mut Recorder::scratch(), s);
        nll.to_bits() == replayed.to_bits() && report == replay_report
    }

    fn sim_speedup(&mut self) -> f64 {
        let (cfg, energy) = (ArchConfig::duet(), EnergyTable::default());
        let input = self.lm.embed.value.shape().dim(0);
        let (mut base, mut duet) = (0u64, 0u64);
        for s in self.seqs.iter().take(SIM_SEQUENCES) {
            let maps = self.dual.record_gate_maps(s, &THRESHOLDS);
            let trace = RnnLayerTrace::from_step_maps("lstm", input, &maps);
            base += run_rnn_layer(&trace, &cfg, &energy, false)
                .perf
                .latency_cycles;
            duet += run_rnn_layer(&trace, &cfg, &energy, true)
                .perf
                .latency_cycles;
        }
        base as f64 / duet.max(1) as f64
    }
}
