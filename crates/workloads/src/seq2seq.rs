//! A GNMT-class sequence-to-sequence substrate: LSTM encoder, LSTM
//! decoder with dot-product attention, trained on a synthetic
//! "translation" task (sequence reversal — the classic diagnostic that
//! genuinely requires attention/memory).
//!
//! The paper evaluates DUET on GNMT / WMT16 machine translation; this is
//! the faithful small-scale stand-in (DESIGN.md §2): the same
//! architecture class, a measurable quality metric (token accuracy), and
//! dual-module processing applied to both recurrent cells.
//!
//! [`DualSeq2Seq`] decodes through [`Seq2Seq`]'s own greedy loop and
//! scoring loop with its dual cells as the recurrent steps, so the
//! embeddings, attention, output head and scoring are the dense model's.

use duet_core::dual_rnn::{DualLstmCell, RnnThresholds};
use duet_core::SavingsReport;
use duet_nn::attention::{attend, attend_backward_self};
use duet_nn::layer::{outer_accumulate, Param};
use duet_nn::loss;
use duet_nn::lstm::LstmState;
use duet_nn::{LstmCell, Optimizer};
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// The beginning-of-sequence token (index 0).
pub const BOS: usize = 0;

/// A synthetic translation task: target = reverse(source). Source tokens
/// are drawn from `1..vocab` (0 is reserved for BOS).
#[derive(Debug, Clone, Copy)]
pub struct ReversalTask {
    /// Vocabulary size (including BOS).
    pub vocab: usize,
    /// Sequence length.
    pub len: usize,
}

impl ReversalTask {
    /// Samples a (source, target) pair.
    pub fn sample(&self, r: &mut Rng) -> (Vec<usize>, Vec<usize>) {
        let src: Vec<usize> = (0..self.len)
            .map(|_| r.random_range(1..self.vocab))
            .collect();
        let mut tgt = src.clone();
        tgt.reverse();
        (src, tgt)
    }

    /// Token accuracy of `translate` (source, target length) → prediction
    /// over `samples` sampled instances: the scoring loop of both models.
    fn score(
        &self,
        samples: usize,
        r: &mut Rng,
        mut translate: impl FnMut(&[usize], usize) -> Vec<usize>,
    ) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for _ in 0..samples {
            let (src, tgt) = self.sample(r);
            let pred = translate(&src, tgt.len());
            for (p, t) in pred.iter().zip(&tgt) {
                if p == t {
                    correct += 1;
                }
                total += 1;
            }
        }
        correct as f64 / total as f64
    }
}

/// LSTM encoder–decoder with dot-product attention.
#[derive(Debug, Clone)]
pub struct Seq2Seq {
    embed_src: Param, // [emb, vocab]
    embed_tgt: Param, // [emb, vocab]
    encoder: LstmCell,
    decoder: LstmCell,
    w_combine: Param, // [h, 2h]
    b_combine: Param, // [h]
    w_out: Param,     // [vocab, h]
    b_out: Param,     // [vocab]
    vocab: usize,
    emb: usize,
    hidden: usize,
}

impl Seq2Seq {
    /// Creates an untrained model.
    pub fn new(vocab: usize, emb: usize, hidden: usize, r: &mut Rng) -> Self {
        Self {
            embed_src: Param::new(duet_nn::init::lecun_uniform(r, &[emb, vocab], vocab)),
            embed_tgt: Param::new(duet_nn::init::lecun_uniform(r, &[emb, vocab], vocab)),
            encoder: LstmCell::new(emb, hidden, r),
            decoder: LstmCell::new(emb, hidden, r),
            w_combine: Param::new(duet_nn::init::lecun_uniform(
                r,
                &[hidden, 2 * hidden],
                2 * hidden,
            )),
            b_combine: Param::new(Tensor::zeros(&[hidden])),
            w_out: Param::new(duet_nn::init::lecun_uniform(r, &[vocab, hidden], hidden)),
            b_out: Param::new(Tensor::zeros(&[vocab])),
            vocab,
            emb,
            hidden,
        }
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The encoder cell (teacher for dual-module distillation).
    pub fn encoder(&self) -> &LstmCell {
        &self.encoder
    }

    /// The decoder cell.
    pub fn decoder(&self) -> &LstmCell {
        &self.decoder
    }

    fn embed(&self, table: &Param, token: usize) -> Tensor {
        Tensor::from_vec(
            (0..self.emb)
                .map(|i| table.value.data()[i * self.vocab + token])
                .collect(),
            &[self.emb],
        )
    }

    fn output_head(&self, h_dec: &Tensor, ctx: &Tensor) -> (Tensor, Tensor, Tensor) {
        let mut cat = Tensor::zeros(&[2 * self.hidden]);
        cat.data_mut()[..self.hidden].copy_from_slice(h_dec.data());
        cat.data_mut()[self.hidden..].copy_from_slice(ctx.data());
        let pre = ops::affine(&self.w_combine.value, &cat, &self.b_combine.value);
        let comb = pre.map(|v| v.tanh());
        let logits = ops::affine(&self.w_out.value, &comb, &self.b_out.value);
        (logits, comb, cat)
    }

    /// One teacher-forced training step on a (source, target) pair;
    /// returns the mean token loss.
    ///
    /// # Panics
    ///
    /// Panics if source or target is empty.
    pub fn train_step(&mut self, src: &[usize], tgt: &[usize], opt: &mut Optimizer) -> f32 {
        assert!(!src.is_empty() && !tgt.is_empty(), "empty sequence");
        let h = self.hidden;
        let steps = tgt.len();

        // --- encoder forward ---
        let xs_src: Vec<Tensor> = src
            .iter()
            .map(|&t| self.embed(&self.embed_src, t))
            .collect();
        let (enc_states, enc_caches) = self.encoder.forward_sequence(&xs_src);
        let mut enc_hs = Tensor::zeros(&[src.len(), h]);
        for (t, s) in enc_states.iter().enumerate() {
            enc_hs.row_mut(t).copy_from_slice(s.h.data());
        }

        // --- decoder forward (teacher forcing) ---
        let dec_inputs: Vec<usize> = std::iter::once(BOS)
            .chain(tgt[..steps - 1].iter().copied())
            .collect();
        let xs_tgt: Vec<Tensor> = dec_inputs
            .iter()
            .map(|&t| self.embed(&self.embed_tgt, t))
            .collect();
        let (dec_states, dec_caches) = self.decoder.forward_sequence(&xs_tgt);

        // --- attention + head, accumulating grads ---
        self.zero_grads();
        let mut total_loss = 0.0f32;
        let mut dh_dec = vec![Tensor::zeros(&[h]); steps];
        let mut d_enc = Tensor::zeros(&[src.len(), h]);
        for t in 0..steps {
            let h_dec = &dec_states[t].h;
            let (ctx, cache) = attend(h_dec, &enc_hs, &enc_hs);
            let (logits, comb, cat) = self.output_head(h_dec, &ctx);
            let (l, dlogits_row) =
                loss::cross_entropy(&logits.reshaped(&[1, self.vocab]), &[tgt[t]]);
            total_loss += l;
            let dlogits = dlogits_row.reshaped(&[self.vocab]);

            // head backward
            outer_accumulate(&mut self.w_out.grad, dlogits.data(), comb.data());
            ops::axpy(1.0, &dlogits, &mut self.b_out.grad);
            let dcomb = ops::gemv_t(&self.w_out.value, &dlogits);
            let dpre = ops::hadamard(&dcomb, &comb.map(|v| 1.0 - v * v));
            outer_accumulate(&mut self.w_combine.grad, dpre.data(), cat.data());
            ops::axpy(1.0, &dpre, &mut self.b_combine.grad);
            let dcat = ops::gemv_t(&self.w_combine.value, &dpre);
            let dh_part = Tensor::from_vec(dcat.data()[..h].to_vec(), &[h]);
            let dctx = Tensor::from_vec(dcat.data()[h..].to_vec(), &[h]);

            // attention backward
            let (dq, denc_t) = attend_backward_self(&cache, &dctx);
            ops::axpy(1.0, &dh_part, &mut dh_dec[t]);
            ops::axpy(1.0, &dq, &mut dh_dec[t]);
            ops::axpy(1.0, &denc_t, &mut d_enc);
        }

        // --- BPTT through decoder and encoder ---
        let dxs_dec = self.decoder.backward_sequence(&dec_caches, &dh_dec);
        for (t, dx) in dxs_dec.iter().enumerate() {
            let token = dec_inputs[t];
            for i in 0..self.emb {
                self.embed_tgt.grad.data_mut()[i * self.vocab + token] += dx.data()[i];
            }
        }
        let denc_rows: Vec<Tensor> = (0..src.len())
            .map(|t| Tensor::from_vec(d_enc.row(t).to_vec(), &[h]))
            .collect();
        let dxs_enc = self.encoder.backward_sequence(&enc_caches, &denc_rows);
        for (t, dx) in dxs_enc.iter().enumerate() {
            let token = src[t];
            for i in 0..self.emb {
                self.embed_src.grad.data_mut()[i * self.vocab + token] += dx.data()[i];
            }
        }

        opt.tick();
        self.visit_params(&mut |p| opt.step(p));
        total_loss / steps as f32
    }

    /// Greedy decoding: returns the predicted target sequence.
    pub fn translate(&self, src: &[usize], max_len: usize) -> Vec<usize> {
        let enc_hs = self.encode(src, |x, s| self.encoder.step(x, s).0);
        self.greedy(&enc_hs, max_len, |x, s| self.decoder.step(x, s).0)
    }

    /// Token accuracy of greedy decoding over sampled task instances.
    pub fn token_accuracy(&self, task: &ReversalTask, samples: usize, r: &mut Rng) -> f64 {
        task.score(samples, r, |src, len| self.translate(src, len))
    }

    /// The encoder half of greedy decoding, shared with [`DualSeq2Seq`]:
    /// each source token is embedded and run through `step`, which
    /// advances the encoder state from zero; returns the hidden states as
    /// `[src, h]` rows.
    fn encode(
        &self,
        src: &[usize],
        mut step: impl FnMut(&Tensor, &LstmState) -> LstmState,
    ) -> Tensor {
        let h = self.hidden;
        let mut enc_hs = Tensor::zeros(&[src.len(), h]);
        let mut state = LstmState::zeros(h);
        for (t, &tok) in src.iter().enumerate() {
            state = step(&self.embed(&self.embed_src, tok), &state);
            enc_hs.row_mut(t).copy_from_slice(state.h.data());
        }
        enc_hs
    }

    /// The decoder half: from BOS, each step runs the previous token's
    /// embedding through `step`, attends over `enc_hs` and emits the
    /// head's argmax.
    fn greedy(
        &self,
        enc_hs: &Tensor,
        max_len: usize,
        mut step: impl FnMut(&Tensor, &LstmState) -> LstmState,
    ) -> Vec<usize> {
        let mut out = Vec::with_capacity(max_len);
        let mut state = LstmState::zeros(self.hidden);
        let mut prev = BOS;
        for _ in 0..max_len {
            state = step(&self.embed(&self.embed_tgt, prev), &state);
            let (ctx, _) = attend(&state.h, enc_hs, enc_hs);
            let (logits, _, _) = self.output_head(&state.h, &ctx);
            let tok = ops::argmax(&logits);
            out.push(tok);
            prev = tok;
        }
        out
    }

    /// Visits every trainable parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.embed_src);
        f(&mut self.embed_tgt);
        self.encoder.visit_params(f);
        self.decoder.visit_params(f);
        f(&mut self.w_combine);
        f(&mut self.b_combine);
        f(&mut self.w_out);
        f(&mut self.b_out);
    }

    /// Zeroes all gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Trains a [`Seq2Seq`] on the reversal task.
pub fn train_seq2seq(
    task: &ReversalTask,
    emb: usize,
    hidden: usize,
    iterations: usize,
    r: &mut Rng,
) -> Seq2Seq {
    let mut model = Seq2Seq::new(task.vocab, emb, hidden, r);
    let mut opt = Optimizer::adam(0.005);
    for iteration in 0..iterations {
        let _window_span = duet_obs::span_lazy("workloads.train.window", || {
            format!("seq2seq/it{iteration}")
        });
        let (src, tgt) = task.sample(r);
        model.train_step(&src, &tgt, &mut opt);
    }
    model
}

/// A dual-module seq2seq: both recurrent cells distilled, attention and
/// output head dense.
#[derive(Debug, Clone)]
pub struct DualSeq2Seq {
    model: Seq2Seq,
    dual_encoder: DualLstmCell,
    dual_decoder: DualLstmCell,
}

impl DualSeq2Seq {
    /// Distills dual cells from a trained model.
    pub fn from_model(model: &Seq2Seq, reduced_dim: usize, samples: usize, r: &mut Rng) -> Self {
        Self {
            model: model.clone(),
            dual_encoder: DualLstmCell::learn(&model.encoder, reduced_dim, samples, r),
            dual_decoder: DualLstmCell::learn(&model.decoder, reduced_dim, samples, r),
        }
    }

    /// Greedy decoding through the dual cells; returns the prediction and
    /// aggregate savings.
    pub fn translate(
        &self,
        src: &[usize],
        max_len: usize,
        thresholds: &RnnThresholds,
    ) -> (Vec<usize>, SavingsReport) {
        let mut report = SavingsReport::new();
        let mut step = |cell: &DualLstmCell, x: &Tensor, state: &LstmState| {
            let out = cell.step(x, state, thresholds);
            report += out.report;
            LstmState { h: out.h, c: out.c }
        };
        let enc_hs = self
            .model
            .encode(src, |x, s| step(&self.dual_encoder, x, s));
        let tokens = self
            .model
            .greedy(&enc_hs, max_len, |x, s| step(&self.dual_decoder, x, s));
        // QDR weights are buffer-resident across steps: amortize
        report.speculator_weight_bytes /= (src.len() + max_len).max(1) as u64;
        (tokens, report)
    }

    /// Token accuracy and savings over sampled task instances.
    pub fn token_accuracy(
        &self,
        task: &ReversalTask,
        samples: usize,
        thresholds: &RnnThresholds,
        r: &mut Rng,
    ) -> (f64, SavingsReport) {
        let mut report = SavingsReport::new();
        let accuracy = task.score(samples, r, |src, len| {
            let (pred, rep) = self.translate(src, len, thresholds);
            report += rep;
            pred
        });
        (accuracy, report)
    }
}

/// BLEU-like n-gram precision proxy (unigram + bigram geometric mean) —
/// the quality axis the paper uses for GNMT, approximated for short
/// synthetic sequences.
pub fn bleu2(pred: &[usize], reference: &[usize]) -> f64 {
    if pred.is_empty() || reference.is_empty() {
        return 0.0;
    }
    let unigram = {
        let hit = pred.iter().filter(|t| reference.contains(t)).count();
        hit as f64 / pred.len() as f64
    };
    if pred.len() < 2 || reference.len() < 2 {
        return unigram;
    }
    let ref_bigrams: Vec<(usize, usize)> = reference.windows(2).map(|w| (w[0], w[1])).collect();
    let hit2 = pred
        .windows(2)
        .filter(|w| ref_bigrams.contains(&(w[0], w[1])))
        .count();
    let bigram = hit2 as f64 / (pred.len() - 1) as f64;
    (unigram * bigram).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::seeded;

    #[test]
    fn untrained_model_is_near_chance() {
        let mut r = seeded(1);
        let task = ReversalTask { vocab: 10, len: 4 };
        let model = Seq2Seq::new(10, 12, 16, &mut r);
        let acc = model.token_accuracy(&task, 20, &mut r);
        assert!(acc < 0.45, "untrained accuracy {acc}");
    }

    #[test]
    fn training_reduces_loss() {
        let mut r = seeded(2);
        let task = ReversalTask { vocab: 8, len: 4 };
        let mut model = Seq2Seq::new(8, 12, 20, &mut r);
        let mut opt = Optimizer::adam(0.01);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..300 {
            let (src, tgt) = task.sample(&mut r);
            let l = model.train_step(&src, &tgt, &mut opt);
            if i == 0 {
                first = l;
            }
            last = l;
        }
        assert!(last < first * 0.9, "{first} -> {last}");
    }

    #[test]
    fn learns_reversal_above_chance() {
        let mut r = seeded(3);
        let task = ReversalTask { vocab: 8, len: 4 };
        let model = train_seq2seq(&task, 16, 32, 2500, &mut r);
        let acc = model.token_accuracy(&task, 30, &mut r);
        // chance ≈ 1/7 ≈ 0.14; 2 500 Adam steps reach ~0.86, 4 000 reach 1.0
        assert!(acc > 0.7, "trained accuracy {acc}");
    }

    #[test]
    fn dual_never_switch_matches_dense_translation() {
        let mut r = seeded(4);
        let task = ReversalTask { vocab: 8, len: 4 };
        let model = train_seq2seq(&task, 12, 20, 150, &mut r);
        let dual = DualSeq2Seq::from_model(&model, 16, 300, &mut r);
        for _ in 0..5 {
            let (src, tgt) = task.sample(&mut r);
            let dense = model.translate(&src, tgt.len());
            let (pred, rep) = dual.translate(&src, tgt.len(), &RnnThresholds::never_switch());
            assert_eq!(dense, pred, "conservative dual decode diverged");
            assert_eq!(rep.approximate_fraction(), 0.0);
        }
    }

    #[test]
    fn dual_switching_saves_with_bounded_quality_loss() {
        let mut r = seeded(5);
        let task = ReversalTask { vocab: 8, len: 4 };
        let model = train_seq2seq(&task, 16, 32, 1200, &mut r);
        let dense_acc = model.token_accuracy(&task, 30, &mut seeded(50));
        let dual = DualSeq2Seq::from_model(&model, 24, 400, &mut r);
        // Autoregressive decoding compounds errors, so translation
        // tolerates less approximation than language modeling — exactly
        // the tighter GNMT trade-off visible in the paper's Fig. 10.
        // Conservative thresholds keep quality while still skipping rows.
        let th = RnnThresholds {
            theta_sigmoid: 4.0,
            theta_tanh: 3.0,
        };
        let (acc, rep) = dual.token_accuracy(&task, 30, &th, &mut seeded(50));
        assert!(
            acc > dense_acc - 0.15,
            "dual accuracy {acc} vs dense {dense_acc}"
        );
        assert!(
            rep.approximate_fraction() > 0.05,
            "no switching happened: {}",
            rep.approximate_fraction()
        );
        assert!(
            rep.weight_access_reduction() > 1.0,
            "no fetch saving: {}",
            rep.weight_access_reduction()
        );
    }

    #[test]
    fn train_seq2seq_keeps_its_bits() {
        // Golden pin of a whole training run: the fingerprint of every
        // trained weight, the same at any DUET_NUM_THREADS.
        let task = ReversalTask { vocab: 6, len: 3 };
        let mut model = train_seq2seq(&task, 8, 12, 9, &mut seeded(41));
        assert_eq!(
            crate::param_fingerprint(|f| model.visit_params(f)),
            (2490, 0xb017_9abc_e411_d63f)
        );
    }

    #[test]
    fn translate_keeps_its_bits() {
        // Golden pins of greedy decoding: the tokens the dense model and
        // its dual form emit over seeded sources, with the dual passes'
        // accounting, at never-switch and at one switching θ.
        let task = ReversalTask { vocab: 8, len: 4 };
        let model = train_seq2seq(&task, 10, 16, 120, &mut seeded(70));
        let dual = DualSeq2Seq::from_model(&model, 12, 150, &mut seeded(71));
        let th = RnnThresholds {
            theta_sigmoid: 1.0,
            theta_tanh: 0.7,
        };
        let mut r = seeded(72);
        let srcs: Vec<Vec<usize>> = (0..8).map(|_| task.sample(&mut r).0).collect();
        let fold = |out: Vec<Vec<usize>>, rep: &SavingsReport| {
            crate::output_fingerprint(out.into_iter().flatten().map(|t| t as u32), rep)
        };
        let dense = srcs.iter().map(|s| model.translate(s, task.len)).collect();
        let mut got = vec![fold(dense, &SavingsReport::new())];
        for th in [RnnThresholds::never_switch(), th] {
            let mut report = SavingsReport::new();
            let out = srcs
                .iter()
                .map(|s| {
                    let (pred, rep) = dual.translate(s, task.len, &th);
                    report += rep;
                    pred
                })
                .collect();
            got.push(fold(out, &report));
            assert_eq!(
                report.approximate_fraction() > 0.1,
                th.theta_sigmoid.is_finite()
            );
        }
        assert_eq!(
            got,
            [
                (32, 0xe1c4_fae7_5226_3365),
                (32, 0xa17b_8ea8_08aa_a6ce),
                (32, 0x2d4f_f902_c5b8_ebcc),
            ]
        );
    }

    #[test]
    fn bleu2_properties() {
        let a = [1usize, 2, 3, 4];
        assert!((bleu2(&a, &a) - 1.0).abs() < 1e-9);
        assert_eq!(bleu2(&a, &[9, 9, 9, 9]), 0.0);
        let half = bleu2(&[1, 2, 9, 9], &a);
        assert!(half > 0.0 && half < 1.0);
    }
}
