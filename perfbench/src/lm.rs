//! `lm`: transformer_bench's distilled dual transformer LM at its
//! calibrated θ = 0.40, one closed-loop client, one ctx-8 window of a
//! seeded Markov stream per request. The dense twin is
//! `DualTransformerLm::reference_logits`.
//!
//! Six tiny projections per position make the speculator the largest
//! cost here, so a speculator change must show on this workload.

use crate::harness::{self, layer, Args, ClosedLoop, Det, Outcome};
use crate::spans::Recorder;
use duet_core::{
    DualProjection, SavingsReport, SpeculationEngine, SwitchingMap, SwitchingPolicy,
    TransformerThresholds,
};
use duet_nn::attention::attend;
use duet_nn::Activation;
use duet_sim::config::ArchConfig;
use duet_sim::energy::EnergyTable;
use duet_sim::transformer::{run_transformer_block, TransformerBlockTrace};
use duet_tensor::rng::seeded;
use duet_tensor::{ops, Tensor};
use duet_workloads::datasets::MarkovText;
use duet_workloads::transformer::{train_transformer, DualTransformerLm, TransformerLm};

/// transformer_bench's master seed: source, training and distillation.
const MODEL_SEED: u64 = 4242;
/// transformer_bench's calibrated uniform θ (2.30× MAC reduction).
const THETA: f32 = 0.40;
const VOCAB: usize = 12;
const MODEL: usize = 16;
const HIDDEN: usize = 32;
const CTX: usize = 8;
/// Distinct request windows per run.
const WINDOWS: usize = 2048;
/// Windows fed to the simulator for `sim.speedup`.
const SIM_WINDOWS: usize = 32;

/// The built workload and its seeded request windows.
pub struct Lm {
    lm: TransformerLm,
    dual: DualTransformerLm,
    windows: Vec<Vec<usize>>,
    th: TransformerThresholds,
}

fn build() -> (TransformerLm, DualTransformerLm, MarkovText) {
    let mut r = seeded(MODEL_SEED);
    let source = MarkovText::new(VOCAB, 3, &mut r);
    let lm = train_transformer(&source, MODEL, HIDDEN, CTX, 400, &mut r);
    // transformer_bench draws its evaluation stream before distilling.
    let _eval = source.sample(1025, &mut r);
    let dual = DualTransformerLm::from_lm(&lm, &source, 0.5, 24, &mut r);
    (lm, dual, source)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    harness::run_closed_loop(
        args,
        || {
            let (lm, dual, source) = build();
            // One seeded stream, cut into consecutive ctx-8 windows (each
            // window carries its next-token targets).
            let stream = source.sample(WINDOWS * CTX + 1, &mut seeded(seed));
            let windows = (0..WINDOWS)
                .map(|i| stream[i * CTX..=(i + 1) * CTX].to_vec())
                .collect();
            Lm {
                lm,
                dual,
                windows,
                th: TransformerThresholds::uniform(THETA),
            }
        },
        weight_bytes,
    )
}

/// Weight bytes fetched per request: f32 executor rows actually touched
/// plus the speculators' packed weights, from the run's own counts.
fn weight_bytes(det: &Det) -> f64 {
    let r = &det.report;
    // `executor_weight_bytes` counts 2 bytes per touched word; the
    // executor reads f32 words.
    det.per_request(2 * r.executor_weight_bytes + r.speculator_weight_bytes)
}

fn argmax_hits(logits: &[Tensor], window: &[usize]) -> usize {
    logits
        .iter()
        .enumerate()
        .filter(|(t, l)| ops::argmax(l) == window[t + 1])
        .count()
}

impl Lm {
    fn embed(&self, tokens: &[usize]) -> Tensor {
        let m = self.lm.model_dim();
        let (embed, pos) = (self.lm.embed.value.data(), self.lm.pos.value.data());
        Tensor::from_fn(&[tokens.len(), m], |k| {
            let (t, i) = (k / m, k % m);
            embed[i * VOCAB + tokens[t]] + pos[t * m + i]
        })
    }

    /// The dual forward replayed from the block's public pieces, one span
    /// per layer call; mirrors `DualTransformerLm::forward_logits` on one
    /// window.
    fn replay(&self, rec: &mut Recorder, window: &[usize]) -> (Vec<Tensor>, SavingsReport) {
        let th = self.th;
        let block = self.dual.block();
        let (attn, ffn) = (block.attention(), block.ffn());
        let m = block.model_dim();
        let tokens = &window[..window.len() - 1];
        let t_len = tokens.len();
        let xs = self.embed(tokens);
        let row =
            |t: &Tensor, i: usize| Tensor::from_vec(t.data()[i * m..(i + 1) * m].to_vec(), &[m]);

        let mut engine = SpeculationEngine::new();
        let policy = SwitchingPolicy::magnitude(th.theta_attn);
        let (mut q_all, mut k_all, mut v_all) = (Vec::new(), Vec::new(), Vec::new());
        for t in 0..t_len {
            let x_t = row(&xs, t);
            q_all.extend_from_slice(project(rec, &mut engine, attn.wq(), &policy, &x_t).data());
            k_all.extend_from_slice(project(rec, &mut engine, attn.wk(), &policy, &x_t).data());
            v_all.extend_from_slice(project(rec, &mut engine, attn.wv(), &policy, &x_t).data());
        }
        let mut a = xs.clone();
        for t in 0..t_len {
            let q_t = Tensor::from_vec(q_all[t * m..(t + 1) * m].to_vec(), &[m]);
            let keys = Tensor::from_vec(k_all[..(t + 1) * m].to_vec(), &[t + 1, m]);
            let values = Tensor::from_vec(v_all[..(t + 1) * m].to_vec(), &[t + 1, m]);
            let ctx = rec.span(layer::ATTEND, || attend(&q_t, &keys, &values).0);
            let o = project(rec, &mut engine, attn.wo(), &policy, &ctx);
            for (av, &ov) in a.data_mut()[t * m..(t + 1) * m].iter_mut().zip(o.data()) {
                *av += ov;
            }
        }
        let mut y = a.clone();
        let (gelu, out_policy) = (
            SwitchingPolicy::gelu(th.theta_gelu),
            SwitchingPolicy::magnitude(th.theta_ffn_out),
        );
        for t in 0..t_len {
            let a_t = row(&a, t);
            let h_pre = project(rec, &mut engine, ffn.expand(), &gelu, &a_t);
            let h = rec.span(layer::ACT, || Activation::Gelu.apply(&h_pre));
            let f = project(rec, &mut engine, ffn.contract(), &out_policy, &h);
            for (yv, &fv) in y.data_mut()[t * m..(t + 1) * m].iter_mut().zip(f.data()) {
                *yv += fv;
            }
        }
        let mut report = engine.finish(block.costs().times(t_len as u64).engine_costs());
        report.speculator_weight_bytes /= t_len as u64;
        let logits = (0..t_len)
            .map(|t| ops::affine(&self.lm.w_out.value, &row(&y, t), &self.lm.b_out.value))
            .collect();
        (logits, report)
    }
}

/// One projection's speculate → map → execute-and-mix, each in its span;
/// mirrors `DualProjection::forward`.
fn project(
    rec: &mut Recorder,
    engine: &mut SpeculationEngine,
    proj: &DualProjection,
    policy: &SwitchingPolicy,
    x: &Tensor,
) -> Tensor {
    let mut pre = rec.span(layer::SPEC, || proj.speculate(x));
    let map: SwitchingMap = rec.span(layer::MAP, || engine.speculate(policy, &pre));
    rec.span(layer::EXEC, || {
        let segments = [proj.segment(x.data())];
        engine.execute_rows_into(&map, pre.data_mut(), 0, proj.bias().data(), &segments);
    });
    pre
}

impl ClosedLoop for Lm {
    type Out = Vec<Tensor>;
    const BLOCK: usize = 500;

    fn inputs(&self) -> usize {
        self.windows.len()
    }

    fn dual(&mut self, i: usize) -> Vec<Tensor> {
        self.dual.forward_logits(&self.windows[i], &self.th).0
    }

    fn dense(&mut self, i: usize) -> Vec<Tensor> {
        self.dual.reference_logits(&self.windows[i])
    }

    fn finite(out: &Vec<Tensor>) -> bool {
        out.iter().all(|l| l.data().iter().all(|v| v.is_finite()))
    }

    fn check(&mut self, out: &mut Outcome) {
        let never = TransformerThresholds::never_switch();
        for (i, w) in self.windows.iter().enumerate().step_by(64) {
            let (dual, _) = self.dual.forward_logits(w, &never);
            let dense = self.dual.reference_logits(w);
            let same = dual.len() == dense.len()
                && dual.iter().zip(&dense).all(|(a, b)| a.data() == b.data());
            out.check(same, || {
                format!("lm window {i}: θ = −∞ logits differ from reference_logits")
            });
        }
    }

    fn deterministic(&mut self) -> Det {
        let (mut report, mut ticks) = (SavingsReport::new(), Vec::new());
        let (mut dual_hits, mut dense_hits) = (0usize, 0usize);
        for w in &self.windows {
            let (logits, rep) = self.dual.forward_logits(w, &self.th);
            dual_hits += argmax_hits(&logits, w);
            dense_hits += argmax_hits(&self.dual.reference_logits(w), w);
            ticks.push(harness::closed_loop_ticks(&rep));
            report += rep;
        }
        ticks.sort_unstable();
        Det {
            report,
            requests: self.windows.len() as u64,
            quality_pct: 100.0 * dual_hits as f64 / dense_hits.max(1) as f64,
            ticks,
        }
    }

    fn traced(&mut self, rec: &mut Recorder, i: usize) -> bool {
        let (logits, _) = self.replay(rec, &self.windows[i]);
        Self::finite(&logits)
    }

    fn replay_matches(&mut self, i: usize) -> bool {
        let w = &self.windows[i];
        let (logits, report) = self.dual.forward_logits(w, &self.th);
        let (replayed, replay_report) = self.replay(&mut Recorder::scratch(), w);
        report == replay_report
            && logits.len() == replayed.len()
            && logits
                .iter()
                .zip(&replayed)
                .all(|(a, b)| a.data() == b.data())
    }

    fn sim_speedup(&mut self) -> f64 {
        let block = self.dual.block();
        let (cfg, energy) = (ArchConfig::duet(), EnergyTable::default());
        let (mut base, mut duet) = (0u64, 0u64);
        for w in self.windows.iter().take(SIM_WINDOWS) {
            let xs = self.embed(&w[..w.len() - 1]);
            let maps = block.forward(&xs, &self.th).maps;
            let trace = TransformerBlockTrace::from_block_maps(
                "lm",
                MODEL,
                HIDDEN,
                maps,
                (MODEL / 2).max(4),
            );
            base += run_transformer_block(&trace, &cfg, &energy, false)
                .perf
                .latency_cycles;
            duet += run_transformer_block(&trace, &cfg, &energy, true)
                .perf
                .latency_cycles;
        }
        base as f64 / duet.max(1) as f64
    }
}
