//! Real training of the small models behind the quality experiments.
//!
//! The paper reports accuracy/perplexity degradation on trained networks;
//! we train real (small) networks on the synthetic datasets so the
//! dual-module pipeline is measured end-to-end on genuinely learned
//! weights, not random ones.

use crate::datasets::{Classification, MarkovText};
use duet_nn::layer::{outer_accumulate, Param};
use duet_nn::lstm::LstmState;
use duet_nn::{
    loss, Activation, Conv2d, GruCell, Linear, LstmCell, MaxPool2d, Optimizer, Sequential,
};
use duet_tensor::im2col::ConvGeometry;
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// Trains a one-hidden-layer ReLU MLP classifier; returns the trained
/// network.
pub fn train_mlp(data: &Classification, hidden: usize, epochs: usize, r: &mut Rng) -> Sequential {
    let d = data.inputs.shape().dim(1);
    let mut net = Sequential::new();
    net.push_linear(Linear::new(d, hidden, r));
    net.push_activation(Activation::Relu);
    net.push_linear(Linear::new(hidden, data.classes, r));

    let mut opt = Optimizer::adam(0.01);
    let n = data.len();
    let batch = 32.min(n);
    let mut order: Vec<usize> = (0..n).collect();
    for epoch in 0..epochs {
        let _epoch_span =
            duet_obs::span_lazy("workloads.train.epoch", || format!("mlp/epoch{epoch}"));
        r.shuffle(&mut order);
        for chunk in order.chunks(batch) {
            let mut x = Tensor::zeros(&[chunk.len(), d]);
            let mut y = Vec::with_capacity(chunk.len());
            for (bi, &i) in chunk.iter().enumerate() {
                x.data_mut()[bi * d..(bi + 1) * d]
                    .copy_from_slice(&data.inputs.data()[i * d..(i + 1) * d]);
                y.push(data.labels[i]);
            }
            net.train_step(&x, &y, &mut opt);
        }
    }
    net
}

/// Trains a tiny CNN (conv → ReLU → pool → flatten → linear) on image
/// data shaped `[n, 1, s, s]`.
pub fn train_cnn(data: &Classification, channels: usize, epochs: usize, r: &mut Rng) -> Sequential {
    let dims = data.inputs.shape().dims().to_vec();
    assert_eq!(dims.len(), 4, "image data must be [n, c, h, w]");
    let (c, s) = (dims[1], dims[2]);
    let geom = ConvGeometry {
        in_channels: c,
        in_h: s,
        in_w: s,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let mut net = Sequential::new();
    net.push_conv(Conv2d::new(geom, channels, r));
    net.push_activation(Activation::Relu);
    net.push_pool(MaxPool2d::new(2));
    net.push_flatten();
    net.push_linear(Linear::new(channels * (s / 2) * (s / 2), data.classes, r));

    let mut opt = Optimizer::adam(0.01);
    let n = data.len();
    let img = c * s * s;
    let batch = 16.min(n);
    let mut order: Vec<usize> = (0..n).collect();
    for epoch in 0..epochs {
        let _epoch_span =
            duet_obs::span_lazy("workloads.train.epoch", || format!("cnn/epoch{epoch}"));
        r.shuffle(&mut order);
        for chunk in order.chunks(batch) {
            let mut x = Tensor::zeros(&[chunk.len(), c, s, s]);
            let mut y = Vec::with_capacity(chunk.len());
            for (bi, &i) in chunk.iter().enumerate() {
                x.data_mut()[bi * img..(bi + 1) * img]
                    .copy_from_slice(&data.inputs.data()[i * img..(i + 1) * img]);
                y.push(data.labels[i]);
            }
            net.train_step(&x, &y, &mut opt);
        }
    }
    net
}

/// Evaluates a classifier on a dataset, batching internally.
pub fn evaluate_classifier(net: &mut Sequential, data: &Classification) -> f64 {
    net.evaluate(&data.inputs, &data.labels)
}

/// Which recurrent cell a [`CharLm`] uses.
#[derive(Debug, Clone)]
pub enum LmCell {
    /// LSTM-based language model.
    Lstm(LstmCell),
    /// GRU-based language model.
    Gru(GruCell),
}

/// A character/token-level recurrent language model:
/// embedding → LSTM/GRU → output projection.
#[derive(Debug, Clone)]
pub struct CharLm {
    /// Embedding matrix `[emb, vocab]` (one-hot input ⇒ column select).
    pub embed: Param,
    /// The recurrent cell.
    pub cell: LmCell,
    /// Output projection `[vocab, hidden]`.
    pub w_out: Param,
    /// Output bias `[vocab]`.
    pub b_out: Param,
    vocab: usize,
    emb: usize,
    hidden: usize,
}

impl CharLm {
    /// Creates an untrained LM.
    pub fn new(vocab: usize, emb: usize, hidden: usize, lstm: bool, r: &mut Rng) -> Self {
        let cell = if lstm {
            LmCell::Lstm(LstmCell::new(emb, hidden, r))
        } else {
            LmCell::Gru(GruCell::new(emb, hidden, r))
        };
        Self {
            embed: Param::new(duet_nn::init::lecun_uniform(r, &[emb, vocab], vocab)),
            cell,
            w_out: Param::new(duet_nn::init::lecun_uniform(r, &[vocab, hidden], hidden)),
            b_out: Param::new(Tensor::zeros(&[vocab])),
            vocab,
            emb,
            hidden,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The LSTM cell, if this LM uses one.
    pub fn lstm_cell(&self) -> Option<&LstmCell> {
        match &self.cell {
            LmCell::Lstm(c) => Some(c),
            LmCell::Gru(_) => None,
        }
    }

    /// The GRU cell, if this LM uses one.
    pub fn gru_cell(&self) -> Option<&GruCell> {
        match &self.cell {
            LmCell::Gru(c) => Some(c),
            LmCell::Lstm(_) => None,
        }
    }

    fn embed_token(&self, token: usize) -> Tensor {
        Tensor::from_vec(
            (0..self.emb)
                .map(|i| self.embed.value.data()[i * self.vocab + token])
                .collect(),
            &[self.emb],
        )
    }

    fn logits(&self, h: &Tensor) -> Tensor {
        ops::affine(&self.w_out.value, h, &self.b_out.value)
    }

    /// One truncated-BPTT training step over `tokens` (predict-next);
    /// returns the mean loss (nats/token).
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() < 2`.
    pub fn train_step(&mut self, tokens: &[usize], opt: &mut Optimizer) -> f32 {
        assert!(tokens.len() >= 2, "need at least two tokens");
        let steps = tokens.len() - 1;
        let xs: Vec<Tensor> = tokens[..steps]
            .iter()
            .map(|&t| self.embed_token(t))
            .collect();

        // forward
        enum Caches {
            Lstm(Vec<duet_nn::lstm::LstmStepCache>),
            Gru(Vec<duet_nn::gru::GruStepCache>),
        }
        let (hs, caches): (Vec<Tensor>, Caches) = match &self.cell {
            LmCell::Lstm(c) => {
                let (states, caches) = c.forward_sequence(&xs);
                (
                    states.into_iter().map(|s| s.h).collect(),
                    Caches::Lstm(caches),
                )
            }
            LmCell::Gru(c) => {
                let (hs, caches) = c.forward_sequence(&xs);
                (hs, Caches::Gru(caches))
            }
        };

        // output layer + loss + dh per step
        let mut total_loss = 0.0f32;
        let mut dhs = Vec::with_capacity(steps);
        self.zero_grads();
        for (t, h) in hs.iter().enumerate() {
            let target = tokens[t + 1];
            let logits = self.logits(h);
            let (l, dlogits_row) =
                loss::cross_entropy(&logits.reshaped(&[1, self.vocab]), &[target]);
            total_loss += l;
            let dlogits = dlogits_row.reshaped(&[self.vocab]);
            // dW_out += dlogits ⊗ h ; db_out += dlogits ; dh = W_outᵀ d
            outer_accumulate(&mut self.w_out.grad, dlogits.data(), h.data());
            ops::axpy(1.0, &dlogits, &mut self.b_out.grad);
            dhs.push(ops::gemv_t(&self.w_out.value, &dlogits));
        }

        // BPTT
        let dxs = match (&mut self.cell, &caches) {
            (LmCell::Lstm(c), Caches::Lstm(cc)) => c.backward_sequence(cc, &dhs),
            (LmCell::Gru(c), Caches::Gru(cc)) => c.backward_sequence(cc, &dhs),
            _ => unreachable!("cell/cache variant mismatch"),
        };

        // embedding gradient: dW_embed[:, token_t] += dx_t
        for (t, dx) in dxs.iter().enumerate() {
            let token = tokens[t];
            for i in 0..self.emb {
                self.embed.grad.data_mut()[i * self.vocab + token] += dx.data()[i];
            }
        }

        // update
        opt.tick();
        self.visit_params(&mut |p| opt.step(p));
        total_loss / steps as f32
    }

    /// Mean negative log-likelihood (nats/token) over a token sequence.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() < 2`.
    pub fn nll(&self, tokens: &[usize]) -> f32 {
        let mut state = LstmState::zeros(self.hidden);
        self.nll_with(tokens, |x| {
            match &self.cell {
                LmCell::Lstm(c) => state = c.step(x, &state).0,
                LmCell::Gru(c) => state.h = c.step(x, &state.h).0,
            }
            state.h.clone()
        })
    }

    /// The hidden states of one pass over `tokens`: every token but the
    /// last is embedded and handed to `step`, which advances the caller's
    /// recurrent state and returns `h_t`. The one sequence loop of
    /// [`CharLm::nll`] and the dual LM's passes.
    pub(crate) fn hidden_states<'a>(
        &'a self,
        tokens: &'a [usize],
        mut step: impl FnMut(&Tensor) -> Tensor + 'a,
    ) -> impl Iterator<Item = Tensor> + 'a {
        let inputs = &tokens[..tokens.len().saturating_sub(1)];
        inputs.iter().map(move |&t| step(&self.embed_token(t)))
    }

    /// Mean next-token NLL (nats/token) of the hidden states `step`
    /// produces over `tokens` (see [`CharLm::hidden_states`]), through
    /// this LM's output head.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() < 2`.
    pub(crate) fn nll_with(&self, tokens: &[usize], step: impl FnMut(&Tensor) -> Tensor) -> f32 {
        assert!(tokens.len() >= 2, "need at least two tokens");
        let mut total = 0.0f32;
        for (h, &next) in self.hidden_states(tokens, step).zip(&tokens[1..]) {
            let logits = self.logits(&h);
            let (l, _) = loss::cross_entropy(&logits.reshaped(&[1, self.vocab]), &[next]);
            total += l;
        }
        total / (tokens.len() - 1) as f32
    }

    /// Perplexity over a token sequence.
    pub fn perplexity(&self, tokens: &[usize]) -> f32 {
        loss::perplexity(self.nll(tokens))
    }

    /// Visits all trainable parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.embed);
        match &mut self.cell {
            LmCell::Lstm(c) => c.visit_params(f),
            LmCell::Gru(c) => c.visit_params(f),
        }
        f(&mut self.w_out);
        f(&mut self.b_out);
    }

    /// Zeroes all gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Trains a [`CharLm`] on a Markov source with truncated BPTT windows.
pub fn train_char_lm(
    source: &MarkovText,
    lstm: bool,
    emb: usize,
    hidden: usize,
    windows: usize,
    window_len: usize,
    r: &mut Rng,
) -> CharLm {
    let mut lm = CharLm::new(source.vocab, emb, hidden, lstm, r);
    let mut opt = Optimizer::adam(0.005);
    for window in 0..windows {
        let _window_span =
            duet_obs::span_lazy("workloads.train.window", || format!("char_lm/win{window}"));
        let seq = source.sample(window_len, r);
        lm.train_step(&seq, &mut opt);
    }
    lm
}

/// Trains a two-conv CNN (conv → ReLU → conv → ReLU → pool → flatten →
/// linear) on image data shaped `[n, 1, s, s]` — the smallest network
/// that exercises the §III-C OMap→IMap chain on trained weights.
pub fn train_deep_cnn(
    data: &Classification,
    channels: usize,
    epochs: usize,
    r: &mut Rng,
) -> Sequential {
    let dims = data.inputs.shape().dims().to_vec();
    assert_eq!(dims.len(), 4, "image data must be [n, c, h, w]");
    let (c, s) = (dims[1], dims[2]);
    let g1 = ConvGeometry {
        in_channels: c,
        in_h: s,
        in_w: s,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let g2 = ConvGeometry {
        in_channels: channels,
        in_h: s,
        in_w: s,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let mut net = Sequential::new();
    net.push_conv(Conv2d::new(g1, channels, r));
    net.push_activation(Activation::Relu);
    net.push_conv(Conv2d::new(g2, channels, r));
    net.push_activation(Activation::Relu);
    net.push_pool(MaxPool2d::new(2));
    net.push_flatten();
    net.push_linear(Linear::new(channels * (s / 2) * (s / 2), data.classes, r));

    let mut opt = Optimizer::adam(0.01);
    let n = data.len();
    let img = c * s * s;
    let batch = 16.min(n);
    let mut order: Vec<usize> = (0..n).collect();
    for epoch in 0..epochs {
        let _epoch_span =
            duet_obs::span_lazy("workloads.train.epoch", || format!("deep_cnn/epoch{epoch}"));
        r.shuffle(&mut order);
        for chunk in order.chunks(batch) {
            let mut x = Tensor::zeros(&[chunk.len(), c, s, s]);
            let mut y = Vec::with_capacity(chunk.len());
            for (bi, &i) in chunk.iter().enumerate() {
                x.data_mut()[bi * img..(bi + 1) * img]
                    .copy_from_slice(&data.inputs.data()[i * img..(i + 1) * img]);
                y.push(data.labels[i]);
            }
            net.train_step(&x, &y, &mut opt);
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use duet_tensor::rng::seeded;

    #[test]
    fn mlp_learns_clusters() {
        let mut r = seeded(1);
        let train = datasets::gaussian_clusters(4, 16, 256, 5.0, &mut r);
        let test = datasets::gaussian_clusters(4, 16, 128, 5.0, &mut seeded(1));
        let mut net = train_mlp(&train, 32, 30, &mut r);
        let acc = evaluate_classifier(&mut net, &test);
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn cnn_learns_shapes() {
        let mut r = seeded(2);
        let train = datasets::shape_images(240, 9, 0.05, &mut r);
        let test = datasets::shape_images(90, 9, 0.05, &mut r);
        let mut net = train_cnn(&train, 8, 12, &mut r);
        let acc = evaluate_classifier(&mut net, &test);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn lstm_lm_beats_uniform() {
        let mut r = seeded(3);
        let source = datasets::MarkovText::new(16, 3, &mut r);
        let lm = train_char_lm(&source, true, 16, 32, 200, 30, &mut r);
        let test = source.sample(300, &mut r);
        let ppl = lm.perplexity(&test);
        let uniform = 16.0;
        assert!(ppl < uniform * 0.6, "perplexity {ppl} vs uniform {uniform}");
        // and should approach the source entropy floor within a factor
        let floor = source.entropy_nats().exp() as f32;
        assert!(ppl < floor * 3.0, "perplexity {ppl} vs floor {floor}");
    }

    #[test]
    fn gru_lm_trains_too() {
        let mut r = seeded(4);
        let source = datasets::MarkovText::new(12, 2, &mut r);
        let lm = train_char_lm(&source, false, 12, 24, 50, 20, &mut r);
        let test = source.sample(200, &mut r);
        assert!(lm.perplexity(&test) < 12.0 * 0.7);
    }

    #[test]
    fn train_mlp_keeps_its_bits() {
        // Golden pin of a whole training run: the fingerprint of every
        // trained weight, the same at any DUET_NUM_THREADS.
        let train = datasets::gaussian_clusters(4, 16, 96, 5.0, &mut seeded(20));
        let mut net = train_mlp(&train, 16, 6, &mut seeded(21));
        assert_eq!(
            crate::param_fingerprint(|f| net.visit_params(f)),
            (340, 0xb10b_5ddb_c312_fef5)
        );
    }

    #[test]
    fn train_cnn_keeps_its_bits() {
        let train = datasets::shape_images(40, 8, 0.05, &mut seeded(22));
        let mut net = train_cnn(&train, 4, 2, &mut seeded(23));
        assert_eq!(
            crate::param_fingerprint(|f| net.visit_params(f)),
            (235, 0x093f_3896_746a_c886)
        );
    }

    #[test]
    fn train_deep_cnn_keeps_its_bits() {
        let train = datasets::shape_images(40, 8, 0.05, &mut seeded(24));
        let mut net = train_deep_cnn(&train, 3, 2, &mut seeded(25));
        assert_eq!(
            crate::param_fingerprint(|f| net.visit_params(f)),
            (261, 0x72f4_65df_33fa_6550)
        );
    }

    #[test]
    fn train_char_lm_keeps_its_bits() {
        // Both cells: the LSTM and GRU backward passes and the head's Wᵀ·v.
        let source = datasets::MarkovText::new(8, 2, &mut seeded(26));
        for (lstm, want) in [
            (true, (816, 0xee4c_ff40_aa2f_a6b7)),
            (false, (676, 0x8e28_fdb5_b9e4_b89c)),
        ] {
            let mut lm = train_char_lm(&source, lstm, 6, 10, 6, 12, &mut seeded(27));
            assert_eq!(
                crate::param_fingerprint(|f| lm.visit_params(f)),
                want,
                "lstm = {lstm}"
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut r = seeded(5);
        let source = datasets::MarkovText::new(10, 2, &mut r);
        let mut lm = CharLm::new(10, 8, 16, true, &mut r);
        let mut opt = Optimizer::adam(0.01);
        let first = lm.train_step(&source.sample(30, &mut r), &mut opt);
        for _ in 0..40 {
            lm.train_step(&source.sample(30, &mut r), &mut opt);
        }
        let last = lm.train_step(&source.sample(30, &mut r), &mut opt);
        assert!(last < first, "{first} -> {last}");
    }
}
