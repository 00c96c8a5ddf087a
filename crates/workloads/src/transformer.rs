//! A tiny decoder-only transformer language model, trained end-to-end,
//! and its dual-module form.
//!
//! This is the attention-workload counterpart of [`crate::trainer`]'s
//! recurrent language models: one causal single-head transformer block
//! (attention + residual + GELU FFN + residual) between an embedding
//! and an output head, trained on the Markov text source with
//! next-token cross-entropy and hand-written backprop.
//!
//! The dual form ([`DualTransformerLm`]) distills an INT4 speculator
//! for each of the block's six projections from *recorded* calibration
//! activations (each projection sees its own input distribution — block
//! inputs for Q/K/V, attention contexts for the output projection, FFN
//! inputs and hidden activations for expand/contract) and composes them
//! into a [`DualTransformerBlock`]. Embedding, positional table and the
//! logits head stay dense.

use crate::datasets::MarkovText;
use duet_core::engine::MacMode;
use duet_core::{
    DualAttention, DualFfn, DualProjection, DualTransformerBlock, SavingsReport,
    TransformerThresholds,
};
use duet_nn::activation::{gelu_derivative, gelu_with_tanh};
use duet_nn::attention::{attend, attend_backward, AttentionCache};
use duet_nn::layer::{outer_accumulate, Param};
use duet_nn::{loss, Optimizer};
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// A decoder-only transformer LM: embedding + learned positions, one
/// causal single-head block, dense logits head.
#[derive(Debug, Clone)]
pub struct TransformerLm {
    /// Token embedding `[m, vocab]` (one-hot input ⇒ column select).
    pub embed: Param,
    /// Learned positional table `[ctx, m]`.
    pub pos: Param,
    /// Query projection `[m, m]` / bias `[m]`.
    pub wq: Param,
    /// Query bias.
    pub bq: Param,
    /// Key projection `[m, m]`.
    pub wk: Param,
    /// Key bias.
    pub bk: Param,
    /// Value projection `[m, m]`.
    pub wv: Param,
    /// Value bias.
    pub bv: Param,
    /// Attention output projection `[m, m]`.
    pub wo: Param,
    /// Attention output bias.
    pub bo: Param,
    /// FFN expand `[f, m]`.
    pub w1: Param,
    /// FFN expand bias `[f]`.
    pub b1: Param,
    /// FFN contract `[m, f]`.
    pub w2: Param,
    /// FFN contract bias `[m]`.
    pub b2: Param,
    /// Output head `[vocab, m]`.
    pub w_out: Param,
    /// Output head bias `[vocab]`.
    pub b_out: Param,
    vocab: usize,
    model: usize,
    hidden: usize,
    ctx: usize,
}

/// Everything the backward pass (or activation recording) needs from a
/// dense block forward over one window.
struct BlockTrace {
    xs: Tensor, // [L, m] block inputs (embed + pos)
    caches: Vec<AttentionCache>,
    ctx: Tensor,    // [L, m] attention mixer outputs
    a: Tensor,      // [L, m] post-attention residual
    h_pre: Tensor,  // [L, f]
    h: Tensor,      // [L, f] gelu(h_pre)
    h_tanh: Tensor, // [L, f] the tanh inside gelu(h_pre), for its derivative
    y: Tensor,      // [L, m] block outputs
}

fn row(t: &Tensor, i: usize, w: usize) -> Tensor {
    Tensor::from_vec(t.data()[i * w..(i + 1) * w].to_vec(), &[w])
}

/// `acc += x`, element-wise.
fn add_assign(acc: &mut [f32], x: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// `y = W·x + b` into a trace row, through `ops::affine`'s own row loop.
fn affine_forward(w: &Param, b: &Param, x: &[f32], y: &mut [f32]) {
    ops::affine_into(&w.value, x, b.value.data(), y);
}

/// Backward of [`affine_forward`] at one position: `dW += dy ⊗ x`,
/// `db += dy`, and `dx = Wᵀ·dy` overwrites `dx`.
fn affine_backward(w: &mut Param, b: &mut Param, dy: &[f32], x: &[f32], dx: &mut [f32]) {
    outer_accumulate(&mut w.grad, dy, x);
    add_assign(b.grad.data_mut(), dy);
    ops::gemv_t_into(&w.value, dy, dx);
}

impl TransformerLm {
    /// Creates an untrained model. `ctx` is the maximum window length.
    pub fn new(vocab: usize, model: usize, hidden: usize, ctx: usize, r: &mut Rng) -> Self {
        let lecun = duet_nn::init::lecun_uniform;
        Self {
            embed: Param::new(lecun(r, &[model, vocab], vocab)),
            pos: Param::new(lecun(r, &[ctx, model], model)),
            wq: Param::new(lecun(r, &[model, model], model)),
            bq: Param::new(Tensor::zeros(&[model])),
            wk: Param::new(lecun(r, &[model, model], model)),
            bk: Param::new(Tensor::zeros(&[model])),
            wv: Param::new(lecun(r, &[model, model], model)),
            bv: Param::new(Tensor::zeros(&[model])),
            wo: Param::new(lecun(r, &[model, model], model)),
            bo: Param::new(Tensor::zeros(&[model])),
            w1: Param::new(lecun(r, &[hidden, model], model)),
            b1: Param::new(Tensor::zeros(&[hidden])),
            w2: Param::new(lecun(r, &[model, hidden], hidden)),
            b2: Param::new(Tensor::zeros(&[model])),
            w_out: Param::new(lecun(r, &[vocab, model], model)),
            b_out: Param::new(Tensor::zeros(&[vocab])),
            vocab,
            model,
            hidden,
            ctx,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Model dimension `m`.
    pub fn model_dim(&self) -> usize {
        self.model
    }

    /// FFN hidden dimension `f`.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Maximum window length.
    pub fn context(&self) -> usize {
        self.ctx
    }

    fn embed_token(&self, token: usize, position: usize) -> Tensor {
        let m = self.model;
        Tensor::from_vec(
            (0..m)
                .map(|i| {
                    self.embed.value.data()[i * self.vocab + token]
                        + self.pos.value.data()[position * m + i]
                })
                .collect(),
            &[m],
        )
    }

    /// Dense block forward over one window of input tokens (length ≤
    /// `ctx`), caching every intermediate. The affines write straight
    /// into the trace's rows.
    fn block_forward(&self, tokens_in: &[usize]) -> BlockTrace {
        let (l, m, f) = (tokens_in.len(), self.model, self.hidden);
        assert!(l <= self.ctx, "window longer than context");
        let mut xs = Tensor::zeros(&[l, m]);
        let mut q = Tensor::zeros(&[l, m]);
        let mut k = Tensor::zeros(&[l, m]);
        let mut v = Tensor::zeros(&[l, m]);
        for (t, &tok) in tokens_in.iter().enumerate() {
            let x_t = self.embed_token(tok, t);
            affine_forward(&self.wq, &self.bq, x_t.data(), q.row_mut(t));
            affine_forward(&self.wk, &self.bk, x_t.data(), k.row_mut(t));
            affine_forward(&self.wv, &self.bv, x_t.data(), v.row_mut(t));
            xs.row_mut(t).copy_from_slice(x_t.data());
        }
        let mut caches = Vec::with_capacity(l);
        let mut ctx = Tensor::zeros(&[l, m]);
        let mut a = Tensor::zeros(&[l, m]);
        for t in 0..l {
            let q_t = row(&q, t, m);
            let keys = Tensor::from_vec(k.data()[..(t + 1) * m].to_vec(), &[t + 1, m]);
            let values = Tensor::from_vec(v.data()[..(t + 1) * m].to_vec(), &[t + 1, m]);
            let (c_t, cache) = attend(&q_t, &keys, &values);
            let a_t = a.row_mut(t);
            affine_forward(&self.wo, &self.bo, c_t.data(), a_t);
            add_assign(a_t, xs.row(t));
            ctx.row_mut(t).copy_from_slice(c_t.data());
            caches.push(cache);
        }
        let mut h_pre = Tensor::zeros(&[l, f]);
        let mut h = Tensor::zeros(&[l, f]);
        let mut h_tanh = Tensor::zeros(&[l, f]);
        let mut y = Tensor::zeros(&[l, m]);
        for t in 0..l {
            let a_t = a.row(t);
            affine_forward(&self.w1, &self.b1, a_t, h_pre.row_mut(t));
            let h_t = h.row_mut(t);
            for ((hv, tv), &pre) in h_t.iter_mut().zip(h_tanh.row_mut(t)).zip(h_pre.row(t)) {
                (*hv, *tv) = gelu_with_tanh(pre);
            }
            let y_t = y.row_mut(t);
            affine_forward(&self.w2, &self.b2, h.row(t), y_t);
            add_assign(y_t, a_t);
        }
        BlockTrace {
            xs,
            caches,
            ctx,
            a,
            h_pre,
            h,
            h_tanh,
            y,
        }
    }

    /// One teacher-forced training step over a token window (predict
    /// next); returns the mean loss (nats/token).
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() < 2` or the window exceeds the context.
    pub fn train_step(&mut self, tokens: &[usize], opt: &mut Optimizer) -> f32 {
        assert!(tokens.len() >= 2, "need at least two tokens");
        let steps = tokens.len() - 1;
        let (m, f) = (self.model, self.hidden);
        let trace = self.block_forward(&tokens[..steps]);

        self.zero_grads();
        let mut total_loss = 0.0f32;
        let mut dx = Tensor::zeros(&[steps, m]);
        let mut dk_all = Tensor::zeros(&[steps, m]);
        let mut dv_all = Tensor::zeros(&[steps, m]);
        // Per-position buffers, overwritten at every position.
        let mut logits = Tensor::zeros(&[1, self.vocab]);
        let (mut dy, mut da, mut dxq) = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
        let mut dh = vec![0.0; f];
        let mut dctx = Tensor::zeros(&[m]);
        for t in 0..steps {
            let y_t = trace.y.row(t);
            affine_forward(&self.w_out, &self.b_out, y_t, logits.data_mut());
            let (l, dlogits) = loss::cross_entropy(&logits, &[tokens[t + 1]]);
            total_loss += l;

            // head backward
            let dlogits = dlogits.data();
            affine_backward(&mut self.w_out, &mut self.b_out, dlogits, y_t, &mut dy);

            // FFN backward: y = a + W2·gelu(W1·a + b1) + b2
            affine_backward(&mut self.w2, &mut self.b2, &dy, trace.h.row(t), &mut dh);
            for ((d, &hp), &ht) in dh
                .iter_mut()
                .zip(trace.h_pre.row(t))
                .zip(trace.h_tanh.row(t))
            {
                *d *= gelu_derivative(hp, ht);
            }
            affine_backward(&mut self.w1, &mut self.b1, &dh, trace.a.row(t), &mut da);
            add_assign(&mut da, &dy); // residual 2

            // attention output backward: a = x + Wo·ctx + bo
            let ctx_t = trace.ctx.row(t);
            affine_backward(&mut self.wo, &mut self.bo, &da, ctx_t, dctx.data_mut());

            // softmax mixer backward
            let g = attend_backward(&trace.caches[t], &dctx);
            let x_t = trace.xs.row(t);
            affine_backward(&mut self.wq, &mut self.bq, g.d_query.data(), x_t, &mut dxq);
            let dx_t = dx.row_mut(t);
            add_assign(dx_t, &dxq);
            // keys/values of every position ≤ t accumulate across queries
            add_assign(&mut dk_all.data_mut()[..(t + 1) * m], g.d_keys.data());
            add_assign(&mut dv_all.data_mut()[..(t + 1) * m], g.d_values.data());
            // residual 1 into x
            add_assign(dx_t, &da);
        }

        // K/V projection backward + embedding/positional gradients
        let (mut dxk, mut dxv) = (vec![0.0; m], vec![0.0; m]);
        for (s, &token) in tokens[..steps].iter().enumerate() {
            let x_s = trace.xs.row(s);
            affine_backward(&mut self.wk, &mut self.bk, dk_all.row(s), x_s, &mut dxk);
            affine_backward(&mut self.wv, &mut self.bv, dv_all.row(s), x_s, &mut dxv);
            for i in 0..m {
                let g = dx.row(s)[i] + dxk[i] + dxv[i];
                self.embed.grad.data_mut()[i * self.vocab + token] += g;
                self.pos.grad.data_mut()[s * m + i] += g;
            }
        }

        opt.tick();
        self.visit_params(&mut |p| opt.step(p));
        total_loss / steps as f32
    }

    /// Mean negative log-likelihood (nats/token) over a token sequence,
    /// evaluated in consecutive non-overlapping windows of `ctx` steps.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() < 2`.
    pub fn nll(&self, tokens: &[usize]) -> f32 {
        assert!(tokens.len() >= 2, "need at least two tokens");
        let steps = tokens.len() - 1;
        let mut total = 0.0f32;
        let mut start = 0usize;
        while start < steps {
            let end = (start + self.ctx).min(steps);
            let trace = self.block_forward(&tokens[start..end]);
            for t in 0..(end - start) {
                let y_t = row(&trace.y, t, self.model);
                let logits = ops::affine(&self.w_out.value, &y_t, &self.b_out.value);
                let (l, _) = loss::cross_entropy(
                    &logits.reshaped(&[1, self.vocab]),
                    &[tokens[start + t + 1]],
                );
                total += l;
            }
            start = end;
        }
        total / steps as f32
    }

    /// Perplexity over a token sequence.
    pub fn perplexity(&self, tokens: &[usize]) -> f32 {
        loss::perplexity(self.nll(tokens))
    }

    /// Greedy next-token accuracy over a sequence, block-windowed like
    /// [`TransformerLm::nll`].
    pub fn next_token_accuracy(&self, tokens: &[usize]) -> f64 {
        assert!(tokens.len() >= 2, "need at least two tokens");
        let steps = tokens.len() - 1;
        let mut correct = 0usize;
        let mut start = 0usize;
        while start < steps {
            let end = (start + self.ctx).min(steps);
            let trace = self.block_forward(&tokens[start..end]);
            for t in 0..(end - start) {
                let y_t = row(&trace.y, t, self.model);
                let logits = ops::affine(&self.w_out.value, &y_t, &self.b_out.value);
                if ops::argmax(&logits) == tokens[start + t + 1] {
                    correct += 1;
                }
            }
            start = end;
        }
        correct as f64 / steps as f64
    }

    /// Visits all trainable parameters in a fixed order (the order the
    /// optimizer steps them in).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.embed);
        f(&mut self.pos);
        f(&mut self.wq);
        f(&mut self.bq);
        f(&mut self.wk);
        f(&mut self.bk);
        f(&mut self.wv);
        f(&mut self.bv);
        f(&mut self.wo);
        f(&mut self.bo);
        f(&mut self.w1);
        f(&mut self.b1);
        f(&mut self.w2);
        f(&mut self.b2);
        f(&mut self.w_out);
        f(&mut self.b_out);
    }

    /// Zeroes all gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Trains a [`TransformerLm`] on a Markov source with full-context
/// windows (one window per Adam step).
pub fn train_transformer(
    source: &MarkovText,
    model: usize,
    hidden: usize,
    ctx: usize,
    windows: usize,
    r: &mut Rng,
) -> TransformerLm {
    let mut lm = TransformerLm::new(source.vocab, model, hidden, ctx, r);
    let mut opt = Optimizer::adam(0.005);
    for window in 0..windows {
        let _window_span = duet_obs::span_lazy("workloads.train.window", || {
            format!("transformer/win{window}")
        });
        let seq = source.sample(ctx + 1, r);
        lm.train_step(&seq, &mut opt);
    }
    lm
}

/// A dual-module transformer LM: the block's six projections speculate,
/// embedding/positions/head stay dense.
#[derive(Debug, Clone)]
pub struct DualTransformerLm {
    lm: TransformerLm,
    block: DualTransformerBlock,
}

impl DualTransformerLm {
    /// Distills per-projection INT4 speculators from a trained LM using
    /// recorded calibration activations: `calib_windows` windows are
    /// sampled from `source` and run dense, and each projection learns
    /// from the inputs it actually sees (block inputs for Q/K/V,
    /// attention contexts for the output projection, post-residual
    /// activations for the FFN expand, GELU outputs for the contract).
    /// `reduced_ratio` sets each speculator's reduced dimension as a
    /// fraction of its input dimension.
    pub fn from_lm(
        lm: &TransformerLm,
        source: &MarkovText,
        reduced_ratio: f64,
        calib_windows: usize,
        r: &mut Rng,
    ) -> Self {
        let (m, f, ctx) = (lm.model_dim(), lm.hidden_dim(), lm.context());
        let mut xs_rows: Vec<f32> = Vec::new();
        let mut ctx_rows: Vec<f32> = Vec::new();
        let mut a_rows: Vec<f32> = Vec::new();
        let mut h_rows: Vec<f32> = Vec::new();
        let mut count = 0usize;
        for _ in 0..calib_windows {
            let seq = source.sample(ctx + 1, r);
            let trace = lm.block_forward(&seq[..seq.len() - 1]);
            xs_rows.extend_from_slice(trace.xs.data());
            ctx_rows.extend_from_slice(trace.ctx.data());
            a_rows.extend_from_slice(trace.a.data());
            h_rows.extend_from_slice(trace.h.data());
            count += seq.len() - 1;
        }
        let xs_acts = Tensor::from_vec(xs_rows, &[count, m]);
        let ctx_acts = Tensor::from_vec(ctx_rows, &[count, m]);
        let a_acts = Tensor::from_vec(a_rows, &[count, m]);
        let h_acts = Tensor::from_vec(h_rows, &[count, f]);

        let k_m = ((m as f64 * reduced_ratio) as usize).clamp(4, m);
        let k_f = ((f as f64 * reduced_ratio) as usize).clamp(4, f);
        let mode = MacMode::SkipZeroWeights;
        let learn = |w: &Param, b: &Param, k: usize, acts: &Tensor, r: &mut Rng| {
            DualProjection::learn_from_activations(&w.value, &b.value, mode, k, acts, r)
        };
        let attn = DualAttention::new(
            learn(&lm.wq, &lm.bq, k_m, &xs_acts, r),
            learn(&lm.wk, &lm.bk, k_m, &xs_acts, r),
            learn(&lm.wv, &lm.bv, k_m, &xs_acts, r),
            learn(&lm.wo, &lm.bo, k_m, &ctx_acts, r),
        );
        let ffn = DualFfn::new(
            learn(&lm.w1, &lm.b1, k_m, &a_acts, r),
            learn(&lm.w2, &lm.b2, k_f, &h_acts, r),
        );
        Self {
            lm: lm.clone(),
            block: DualTransformerBlock::new(attn, ffn),
        }
    }

    /// The dual block (its projections, costs and per-block forward).
    pub fn block(&self) -> &DualTransformerBlock {
        &self.block
    }

    /// Per-position logits over a sequence through the dual block,
    /// block-windowed like [`TransformerLm::nll`], with aggregate
    /// savings. Speculator weight fetches are amortized across the
    /// window's positions (the QDR weights stay buffer-resident).
    pub fn forward_logits(
        &self,
        tokens: &[usize],
        thresholds: &TransformerThresholds,
    ) -> (Vec<Tensor>, SavingsReport) {
        let mut report = SavingsReport::new();
        let logits = self.windowed_logits(tokens, |xs| {
            let out = self.block.forward(xs, thresholds);
            let mut rep = out.report;
            rep.speculator_weight_bytes /= xs.shape().dim(0) as u64;
            report += rep;
            out.output
        });
        (logits, report)
    }

    /// The dense reference for [`DualTransformerLm::forward_logits`]:
    /// the same windows and head around the block's dense pass — equal to
    /// the dual path at `TransformerThresholds::never_switch()`.
    pub fn reference_logits(&self, tokens: &[usize]) -> Vec<Tensor> {
        self.windowed_logits(tokens, |xs| self.block.forward_dense(xs))
    }

    /// The windowing and head loop both passes share: consecutive windows
    /// of up to `ctx` input tokens, each embedded into `[T, m]` and run
    /// through `block`, then every output row through the dense head.
    fn windowed_logits(
        &self,
        tokens: &[usize],
        mut block: impl FnMut(&Tensor) -> Tensor,
    ) -> Vec<Tensor> {
        assert!(tokens.len() >= 2, "need at least two tokens");
        let steps = tokens.len() - 1;
        let (m, ctx) = (self.lm.model_dim(), self.lm.context());
        let mut logits = Vec::with_capacity(steps);
        let mut start = 0usize;
        while start < steps {
            let end = (start + ctx).min(steps);
            let mut xs = Tensor::zeros(&[end - start, m]);
            for (t, &tok) in tokens[start..end].iter().enumerate() {
                xs.row_mut(t)
                    .copy_from_slice(self.lm.embed_token(tok, t).data());
            }
            let out = block(&xs);
            for t in 0..(end - start) {
                let y_t = row(&out, t, m);
                logits.push(ops::affine(
                    &self.lm.w_out.value,
                    &y_t,
                    &self.lm.b_out.value,
                ));
            }
            start = end;
        }
        logits
    }

    /// Greedy next-token accuracy and aggregate savings at the given
    /// thresholds.
    pub fn next_token_accuracy(
        &self,
        tokens: &[usize],
        thresholds: &TransformerThresholds,
    ) -> (f64, SavingsReport) {
        let (logits, report) = self.forward_logits(tokens, thresholds);
        let correct = logits
            .iter()
            .enumerate()
            .filter(|(t, l)| ops::argmax(l) == tokens[t + 1])
            .count();
        (correct as f64 / logits.len() as f64, report)
    }

    /// Mean NLL (nats/token) and savings at the given thresholds.
    pub fn nll(
        &self,
        tokens: &[usize],
        thresholds: &TransformerThresholds,
    ) -> (f32, SavingsReport) {
        let (logits, report) = self.forward_logits(tokens, thresholds);
        let vocab = self.lm.vocab();
        let total: f32 = logits
            .iter()
            .enumerate()
            .map(|(t, l)| loss::cross_entropy(&l.reshaped(&[1, vocab]), &[tokens[t + 1]]).0)
            .sum();
        (total / logits.len() as f32, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use duet_tensor::rng::seeded;

    #[test]
    fn training_reduces_loss() {
        let mut r = seeded(1);
        let source = datasets::MarkovText::new(8, 2, &mut r);
        let mut lm = TransformerLm::new(8, 16, 24, 8, &mut r);
        let mut opt = Optimizer::adam(0.01);
        let first = lm.train_step(&source.sample(9, &mut r), &mut opt);
        for _ in 0..60 {
            lm.train_step(&source.sample(9, &mut r), &mut opt);
        }
        let last = lm.train_step(&source.sample(9, &mut r), &mut opt);
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn gradient_check_full_model() {
        // Finite differences through the whole block: embedding, all six
        // projections, positions and head.
        let mut r = seeded(2);
        let source = datasets::MarkovText::new(6, 1, &mut r);
        let mut lm = TransformerLm::new(6, 8, 12, 4, &mut r);
        let tokens = source.sample(5, &mut r);

        // capture analytic grads with a zero-lr step (no weight motion)
        let mut opt = Optimizer::sgd(0.0);
        lm.train_step(&tokens, &mut opt);
        let steps = (tokens.len() - 1) as f32;

        let eps = 1e-2f32;
        let loss_of = |lm: &TransformerLm| lm.nll(&tokens);
        let mut checked = 0;
        let mut grads: Vec<(Tensor, Tensor)> = Vec::new();
        lm.visit_params(&mut |p| grads.push((p.value.clone(), p.grad.clone())));
        // probe a few entries of every parameter
        let mut failures = Vec::new();
        for (param_idx, (value, grad)) in grads.iter().enumerate() {
            let probes = [0usize, value.len() / 2, value.len() - 1];
            for &idx in &probes {
                let mut plus = lm.clone();
                let mut minus = lm.clone();
                let bump = |model: &mut TransformerLm, delta: f32| {
                    let mut i = 0usize;
                    model.visit_params(&mut |p| {
                        if i == param_idx {
                            p.value.data_mut()[idx] += delta;
                        }
                        i += 1;
                    });
                };
                bump(&mut plus, eps);
                bump(&mut minus, -eps);
                let fd = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
                let analytic = grad.data()[idx] / steps;
                if (fd - analytic).abs() > 3e-2_f32.max(0.2 * fd.abs()) {
                    failures.push((param_idx, idx, fd, analytic));
                }
                checked += 1;
            }
        }
        assert!(checked > 40);
        assert!(failures.is_empty(), "gradient mismatches: {failures:?}");
    }

    #[test]
    fn trained_lm_beats_uniform() {
        let mut r = seeded(3);
        let source = datasets::MarkovText::new(10, 2, &mut r);
        let lm = train_transformer(&source, 16, 32, 8, 250, &mut r);
        let test = source.sample(200, &mut r);
        let ppl = lm.perplexity(&test);
        assert!(ppl < 10.0 * 0.8, "perplexity {ppl} vs uniform 10");
        let acc = lm.next_token_accuracy(&test);
        assert!(acc > 0.15, "accuracy {acc} vs chance 0.1");
    }

    #[test]
    fn dual_never_switch_is_bitwise_reference() {
        let mut r = seeded(4);
        let source = datasets::MarkovText::new(8, 2, &mut r);
        let lm = train_transformer(&source, 16, 24, 6, 60, &mut r);
        let dual = DualTransformerLm::from_lm(&lm, &source, 0.5, 6, &mut r);
        let test = source.sample(40, &mut r);
        let (dual_logits, rep) = dual.forward_logits(&test, &TransformerThresholds::never_switch());
        let dense_logits = dual.reference_logits(&test);
        assert_eq!(dual_logits.len(), dense_logits.len());
        for (a, b) in dual_logits.iter().zip(&dense_logits) {
            assert_eq!(a.data(), b.data(), "θ=−∞ logits diverged from dense");
        }
        assert_eq!(rep.approximate_fraction(), 0.0);
    }

    #[test]
    fn dual_switching_saves_with_bounded_accuracy_loss() {
        let mut r = seeded(5);
        let source = datasets::MarkovText::new(10, 2, &mut r);
        let lm = train_transformer(&source, 16, 32, 8, 250, &mut r);
        let dual = DualTransformerLm::from_lm(&lm, &source, 0.5, 10, &mut r);
        let test = source.sample(240, &mut r);
        let (dense_acc, _) =
            dual.next_token_accuracy(&test, &TransformerThresholds::never_switch());
        let th = TransformerThresholds {
            theta_attn: 0.05,
            theta_gelu: -1.0,
            theta_ffn_out: 0.05,
        };
        let (acc, rep) = dual.next_token_accuracy(&test, &th);
        assert!(
            rep.approximate_fraction() > 0.02,
            "no switching happened: {}",
            rep.approximate_fraction()
        );
        assert!(
            rep.flops_reduction() > 1.0,
            "no effective saving: {}",
            rep.flops_reduction()
        );
        assert!(
            acc >= dense_acc - 0.05,
            "accuracy {acc} vs dense {dense_acc}"
        );
    }

    #[test]
    fn dual_logits_keep_their_bits() {
        // Golden pins of the dual LM's full-precision logits and
        // accounting at never-switch and at one switching θ, and of its
        // dense reference, over two whole windows and a partial one.
        let source = datasets::MarkovText::new(8, 2, &mut seeded(80));
        let lm = train_transformer(&source, 12, 16, 6, 30, &mut seeded(81));
        let dual = DualTransformerLm::from_lm(&lm, &source, 0.5, 4, &mut seeded(82));
        let tokens = source.sample(16, &mut seeded(83));
        let fold = |logits: &[Tensor], rep: &SavingsReport| {
            let bits = logits.iter().flat_map(|l| l.data()).map(|v| v.to_bits());
            crate::output_fingerprint(bits, rep)
        };
        let (never, never_rep) =
            dual.forward_logits(&tokens, &TransformerThresholds::never_switch());
        let (logits, rep) = dual.forward_logits(&tokens, &TransformerThresholds::uniform(0.4));
        assert!(rep.approximate_fraction() > 0.1);
        let got = [
            fold(&dual.reference_logits(&tokens), &SavingsReport::new()),
            fold(&never, &never_rep),
            fold(&logits, &rep),
        ];
        assert_eq!(
            got,
            [
                (120, 0x2427_7a5d_6464_63eb),
                (120, 0x58f6_8394_1cd7_541e),
                (120, 0x5e6a_76c1_c387_2372),
            ]
        );
    }

    #[test]
    fn train_transformer_keeps_its_bits() {
        // Golden pin of a whole training run: the fingerprint of every
        // trained weight, the same at any DUET_NUM_THREADS.
        let source = datasets::MarkovText::new(8, 2, &mut seeded(30));
        let mut lm = train_transformer(&source, 12, 16, 6, 8, &mut seeded(31));
        assert_eq!(
            crate::param_fingerprint(|f| lm.visit_params(f)),
            (1308, 0xf986_2e11_523f_5fe6)
        );
    }
}
