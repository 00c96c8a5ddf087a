//! Dual-module attention and FFN blocks — speculated projections around
//! a dense softmax mixer.
//!
//! A single-head causal transformer block is, per position, six GEMVs
//! and one softmax mix:
//!
//! ```text
//! q_t = W_q·x_t + b_q   k_t = W_k·x_t + b_k   v_t = W_v·x_t + b_v
//! ctx_t = Σ_{s≤t} softmax(q_t·k_s / √m) v_s          (dense mixer)
//! attn_t = W_o·ctx_t + b_o
//! a_t = x_t + attn_t                                  (residual)
//! y_t = a_t + W_2·gelu(W_1·a_t + b_1) + b_2           (FFN + residual)
//! ```
//!
//! Every GEMV is a [`DualProjection`] and speculates under Eq. 2–3:
//!
//! * **Q/K/V and the output projection** use the *magnitude* rule
//!   (`|y'| < θ` keeps the approximate value). The mixer bounds their
//!   influence: attention logits pass through a `1/√m`-scaled softmax,
//!   so a small-magnitude entry of `q`/`k` moves the weights little,
//!   and small entries of `v`/`ctx` contribute proportionally little
//!   to the convex combination — the Precision Gating observation.
//! * **The FFN expand projection** uses the *GELU* band (`y' < θ` dies
//!   in the one-sided tail), exactly ReLU's rule in the paper.
//! * **The FFN contract projection** uses the magnitude rule again
//!   (its output feeds a residual sum).
//!
//! The softmax itself stays dense: it is O(T·m) against the
//! projections' O(T·m²), has no insensitive region (weights must sum
//! to 1, and a wrong max shifts every weight), and reuses no weight
//! bytes — there is nothing for a speculator to save.
//!
//! Attention, FFN and block are each written once, as a private
//! composition that runs every projection through a step: speculated
//! ([`DualProjection::forward_into`] on the pass's engine, its map
//! appended to the pass's list) for [`DualTransformerBlock::forward`], or
//! dense ([`DualProjection::forward_reference_into`], the engine's own
//! element order) for [`DualTransformerBlock::forward_dense`]. The dense
//! pass is thus the dual pass with every lane exact — bitwise-equal to it
//! at θ = −∞ by construction — and runs no engine, opens no span and
//! collects no maps.

use crate::dual_proj::{DualProjection, ProjectionCosts};
use crate::engine::SpeculationEngine;
use crate::metrics::SavingsReport;
use crate::switching::{SwitchingMap, SwitchingPolicy};
use duet_nn::attention::attend;
use duet_nn::Activation;
use duet_tensor::Tensor;

/// Per-band thresholds for a dual transformer block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerThresholds {
    /// θ for the magnitude rule on Q/K/V and output projections
    /// (insensitive iff `|y'| < theta_attn`).
    pub theta_attn: f32,
    /// θ for the GELU band on the FFN expand projection (insensitive
    /// iff `y' < theta_gelu`).
    pub theta_gelu: f32,
    /// θ for the magnitude rule on the FFN contract projection.
    pub theta_ffn_out: f32,
}

impl TransformerThresholds {
    /// Thresholds that never switch (dense baseline): `−∞` satisfies
    /// neither `|y'| < θ` nor `y' < θ`, so every lane is sensitive.
    pub fn never_switch() -> Self {
        Self {
            theta_attn: f32::NEG_INFINITY,
            theta_gelu: f32::NEG_INFINITY,
            theta_ffn_out: f32::NEG_INFINITY,
        }
    }

    /// A uniform starting point: magnitude bands at `theta`, GELU band
    /// at `-theta` (the one-sided analogue).
    pub fn uniform(theta: f32) -> Self {
        Self {
            theta_attn: theta,
            theta_gelu: -theta,
            theta_ffn_out: theta,
        }
    }
}

/// Single-head causal self-attention with speculated Q/K/V/output
/// projections and a dense softmax mixer.
#[derive(Debug, Clone)]
pub struct DualAttention {
    wq: DualProjection,
    wk: DualProjection,
    wv: DualProjection,
    wo: DualProjection,
    m: usize,
}

impl DualAttention {
    /// Composes four pre-built `[m, m]` projections.
    ///
    /// # Panics
    ///
    /// Panics if any projection is not square `[m, m]` with a shared
    /// model dimension.
    pub fn new(
        wq: DualProjection,
        wk: DualProjection,
        wv: DualProjection,
        wo: DualProjection,
    ) -> Self {
        let m = wq.input_dim();
        for (name, p) in [("wq", &wq), ("wk", &wk), ("wv", &wv), ("wo", &wo)] {
            assert_eq!(p.input_dim(), m, "{name} input dim mismatch");
            assert_eq!(p.output_dim(), m, "{name} output dim mismatch");
        }
        Self { wq, wk, wv, wo, m }
    }

    /// Model dimension `m`.
    pub fn model_dim(&self) -> usize {
        self.m
    }

    /// The query projection.
    pub fn wq(&self) -> &DualProjection {
        &self.wq
    }

    /// The key projection.
    pub fn wk(&self) -> &DualProjection {
        &self.wk
    }

    /// The value projection.
    pub fn wv(&self) -> &DualProjection {
        &self.wv
    }

    /// The output projection.
    pub fn wo(&self) -> &DualProjection {
        &self.wo
    }

    /// Speculator-side costs of one *position* (all four projections);
    /// scale by the sequence length for a whole pass.
    pub fn costs(&self) -> ProjectionCosts {
        self.wq.costs() + self.wk.costs() + self.wv.costs() + self.wo.costs()
    }

    /// The attention composition over a `[T, m]` sequence: Q/K/V per
    /// position, the dense causal [`attend`] mix, the output projection,
    /// each projection through `step`. With `Step::Dual` the maps come
    /// in (q, k, v per position, then o per position) order.
    fn compose(&self, step: &mut Step, xs: &Tensor, theta_attn: f32) -> Tensor {
        let (t_len, m) = (xs.shape().dim(0), self.m);
        let policy = SwitchingPolicy::magnitude(theta_attn);

        let mut q_all = vec![0.0f32; t_len * m];
        let mut k_all = vec![0.0f32; t_len * m];
        let mut v_all = vec![0.0f32; t_len * m];
        for t in 0..t_len {
            let rows = t * m..(t + 1) * m;
            let x_t = &xs.data()[rows.clone()];
            for (proj, out) in [
                (&self.wq, &mut q_all),
                (&self.wk, &mut k_all),
                (&self.wv, &mut v_all),
            ] {
                step.project(proj, &policy, x_t, &mut out[rows.clone()]);
            }
        }

        let mut out = Tensor::zeros(&[t_len, m]);
        for t in 0..t_len {
            let ctx = Self::context(&q_all, &k_all, &v_all, t, m);
            let out_t = &mut out.data_mut()[t * m..(t + 1) * m];
            step.project(&self.wo, &policy, ctx.data(), out_t);
        }
        out
    }

    /// Position `t`'s causal context: its query against the key/value
    /// prefix `0..=t`.
    fn context(q_all: &[f32], k_all: &[f32], v_all: &[f32], t: usize, m: usize) -> Tensor {
        let q_t = Tensor::from_vec(q_all[t * m..(t + 1) * m].to_vec(), &[m]);
        let keys = Tensor::from_vec(k_all[..(t + 1) * m].to_vec(), &[t + 1, m]);
        let values = Tensor::from_vec(v_all[..(t + 1) * m].to_vec(), &[t + 1, m]);
        attend(&q_t, &keys, &values).0
    }
}

/// A position-wise feed-forward block: a speculated expand projection
/// with a GELU band and a speculated contract projection with a
/// magnitude band.
#[derive(Debug, Clone)]
pub struct DualFfn {
    expand: DualProjection,   // [f, m]
    contract: DualProjection, // [m, f]
}

impl DualFfn {
    /// Composes a pre-built expand/contract pair.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions don't chain (`[f, m]` then `[m, f]`).
    pub fn new(expand: DualProjection, contract: DualProjection) -> Self {
        assert_eq!(
            expand.output_dim(),
            contract.input_dim(),
            "hidden dim mismatch"
        );
        assert_eq!(
            expand.input_dim(),
            contract.output_dim(),
            "model dim mismatch"
        );
        Self { expand, contract }
    }

    /// Model dimension `m`.
    pub fn model_dim(&self) -> usize {
        self.expand.input_dim()
    }

    /// Hidden (expanded) dimension `f`.
    pub fn hidden_dim(&self) -> usize {
        self.expand.output_dim()
    }

    /// The expand projection `[f, m]`.
    pub fn expand(&self) -> &DualProjection {
        &self.expand
    }

    /// The contract projection `[m, f]`.
    pub fn contract(&self) -> &DualProjection {
        &self.contract
    }

    /// Speculator-side costs of one position (both projections).
    pub fn costs(&self) -> ProjectionCosts {
        self.expand.costs() + self.contract.costs()
    }

    /// One position through the FFN composition into `out` (`[m]`):
    /// `W_2·gelu(W_1·x + b_1) + b_2`, each projection through `step`
    /// (maps in (expand, contract) order).
    fn compose(&self, step: &mut Step, x: &[f32], out: &mut [f32], th: &TransformerThresholds) {
        let mut h = vec![0.0f32; self.hidden_dim()];
        step.project(
            &self.expand,
            &SwitchingPolicy::gelu(th.theta_gelu),
            x,
            &mut h,
        );
        gelu_in_place(&mut h);
        let contract = SwitchingPolicy::magnitude(th.theta_ffn_out);
        step.project(&self.contract, &contract, &h, out);
    }
}

/// [`Activation::Gelu`] element-wise, in place.
fn gelu_in_place(h: &mut [f32]) {
    for v in h {
        *v = Activation::Gelu.apply_scalar(*v);
    }
}

/// How a composition runs each projection: speculated on the pass's
/// engine with the map appended to the pass's list, or dense.
enum Step<'a> {
    Dual {
        engine: &'a mut SpeculationEngine,
        maps: &'a mut Vec<SwitchingMap>,
    },
    Dense,
}

impl Step<'_> {
    /// `out = proj(x)`: [`DualProjection::forward_into`] under `policy`,
    /// or [`DualProjection::forward_reference_into`].
    fn project(
        &mut self,
        proj: &DualProjection,
        policy: &SwitchingPolicy,
        x: &[f32],
        out: &mut [f32],
    ) {
        match self {
            Step::Dual { engine, maps } => maps.push(proj.forward_into(engine, policy, x, out)),
            Step::Dense => proj.forward_reference_into(x, out),
        }
    }
}

/// Result of one dual transformer block pass over a sequence.
#[derive(Debug, Clone)]
pub struct DualBlockOutput {
    /// Block outputs `[T, m]` (after both residual sums).
    pub output: Tensor,
    /// All switching maps: attention maps (q, k, v per position, then o
    /// per position), then (expand, contract) per position.
    pub maps: Vec<SwitchingMap>,
    /// Operation / byte accounting for the whole pass.
    pub report: SavingsReport,
}

/// One pre-norm-free transformer block: dual attention + residual +
/// dual FFN + residual, accounted on a single [`SpeculationEngine`].
#[derive(Debug, Clone)]
pub struct DualTransformerBlock {
    attn: DualAttention,
    ffn: DualFfn,
}

impl DualTransformerBlock {
    /// Composes an attention and an FFN block.
    ///
    /// # Panics
    ///
    /// Panics if model dimensions disagree.
    pub fn new(attn: DualAttention, ffn: DualFfn) -> Self {
        assert_eq!(
            attn.model_dim(),
            ffn.model_dim(),
            "attention/FFN model dim mismatch"
        );
        Self { attn, ffn }
    }

    /// The attention half.
    pub fn attention(&self) -> &DualAttention {
        &self.attn
    }

    /// The FFN half.
    pub fn ffn(&self) -> &DualFfn {
        &self.ffn
    }

    /// Model dimension `m`.
    pub fn model_dim(&self) -> usize {
        self.attn.model_dim()
    }

    /// Speculator-side costs of one position (all six projections).
    pub fn costs(&self) -> ProjectionCosts {
        self.attn.costs() + self.ffn.costs()
    }

    /// Full dual pass over a `[T, m]` sequence.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not `[T, m]`.
    pub fn forward(&self, xs: &Tensor, thresholds: &TransformerThresholds) -> DualBlockOutput {
        let t_len = self.seq_len(xs);
        let mut engine = SpeculationEngine::new();
        // Four attention maps and two FFN maps per position.
        let mut maps = Vec::with_capacity(6 * t_len);
        let mut step = Step::Dual {
            engine: &mut engine,
            maps: &mut maps,
        };
        let output = self.compose(&mut step, xs, thresholds);
        let report = engine.finish(self.costs().times(t_len as u64).engine_costs());
        DualBlockOutput {
            output,
            maps,
            report,
        }
    }

    /// The dense block: [`DualTransformerBlock::forward`]'s composition
    /// with every projection run by
    /// [`DualProjection::forward_reference_into`], which accumulates in the
    /// engine's order — bitwise-equal to the dual pass at
    /// [`TransformerThresholds::never_switch`].
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not `[T, m]`.
    pub fn forward_dense(&self, xs: &Tensor) -> Tensor {
        self.compose(&mut Step::Dense, xs, &TransformerThresholds::never_switch())
    }

    /// `T` of a `[T, m]` input.
    fn seq_len(&self, xs: &Tensor) -> usize {
        assert_eq!(xs.shape().rank(), 2, "input must be [T, m]");
        assert_eq!(xs.shape().dim(1), self.model_dim(), "model dim mismatch");
        xs.shape().dim(0)
    }

    /// The block composition both passes share: attention, residual
    /// `a = x + attn(x)`, then the FFN per position and residual
    /// `y = a + ffn(a)`.
    fn compose(&self, step: &mut Step, xs: &Tensor, th: &TransformerThresholds) -> Tensor {
        let (t_len, m) = (self.seq_len(xs), self.model_dim());
        let attn_out = self.attn.compose(step, xs, th.theta_attn);

        // residual 1: a = x + attn(x)
        let mut a = xs.clone();
        for (av, &bv) in a.data_mut().iter_mut().zip(attn_out.data()) {
            *av += bv;
        }

        // FFN per position + residual 2
        let mut out = a.clone();
        let mut y_t = vec![0.0f32; m];
        for t in 0..t_len {
            let rows = t * m..(t + 1) * m;
            self.ffn
                .compose(step, &a.data()[rows.clone()], &mut y_t, th);
            for (ov, &yv) in out.data_mut()[rows].iter_mut().zip(&y_t) {
                *ov += yv;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MacMode;
    use duet_tensor::rng::{self, seeded, Rng};

    fn proj(r: &mut Rng, n: usize, d: usize, k: usize) -> DualProjection {
        let w = rng::normal(r, &[n, d], 0.0, 0.3);
        let b = rng::normal(r, &[n], 0.0, 0.05);
        DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, k, 200, r)
    }

    fn block(seed: u64, m: usize, f: usize) -> (DualTransformerBlock, Rng) {
        let mut r = seeded(seed);
        let k = (m / 2).max(4);
        let attn = DualAttention::new(
            proj(&mut r, m, m, k),
            proj(&mut r, m, m, k),
            proj(&mut r, m, m, k),
            proj(&mut r, m, m, k),
        );
        let ffn = DualFfn::new(proj(&mut r, f, m, k), proj(&mut r, m, f, (f / 2).max(4)));
        (DualTransformerBlock::new(attn, ffn), r)
    }

    #[test]
    fn never_switch_is_bitwise_dense() {
        let (blk, mut r) = block(1, 16, 32);
        let xs = rng::normal(&mut r, &[5, 16], 0.0, 1.0);
        let out = blk.forward(&xs, &TransformerThresholds::never_switch());
        let dense = blk.forward_dense(&xs);
        assert_eq!(out.output.data(), dense.data());
        assert_eq!(out.report.outputs_exact, out.report.outputs_total);
        assert_eq!(out.report.executor_macs, out.report.dense_macs);
    }

    #[test]
    fn switching_saves_macs_with_bounded_error() {
        let (blk, mut r) = block(2, 16, 32);
        let xs = rng::normal(&mut r, &[6, 16], 0.0, 1.0);
        let th = TransformerThresholds {
            theta_attn: 0.05,
            theta_gelu: -1.0,
            theta_ffn_out: 0.05,
        };
        let out = blk.forward(&xs, &th);
        let dense = blk.forward_dense(&xs);
        assert!(
            out.report.executor_macs < out.report.dense_macs,
            "no MACs saved"
        );
        assert!(out.report.flops_reduction() > 1.0);
        let mut err = 0.0f32;
        let mut norm = 0.0f32;
        for (a, b) in out.output.data().iter().zip(dense.data()) {
            err += (a - b) * (a - b);
            norm += b * b;
        }
        assert!(
            err / norm.max(1e-9) < 0.1,
            "error too large: {}",
            err / norm
        );
    }

    #[test]
    fn map_and_cost_accounting_match_shape() {
        let (blk, mut r) = block(3, 8, 16);
        let t_len = 4;
        let xs = rng::normal(&mut r, &[t_len, 8], 0.0, 1.0);
        let out = blk.forward(&xs, &TransformerThresholds::never_switch());
        // 4 attention maps + 2 FFN maps per position
        assert_eq!(out.maps.len(), 6 * t_len);
        // outputs: 4 [m] projections + expand [f] + contract [m] per pos
        assert_eq!(out.report.outputs_total, (t_len * (4 * 8 + 16 + 8)) as u64);
        assert_eq!(
            out.report.dense_macs,
            blk.costs().times(t_len as u64).dense_macs
        );
    }

    #[test]
    fn empty_sequence_is_well_defined() {
        let (blk, _) = block(4, 8, 16);
        let xs = Tensor::zeros(&[0, 8]);
        let out = blk.forward(&xs, &TransformerThresholds::never_switch());
        assert_eq!(out.output.shape().dims(), &[0, 8]);
        assert!(out.maps.is_empty());
        assert_eq!(out.report.outputs_total, 0);
        assert_eq!(out.report.flops_reduction(), 1.0);
        assert_eq!(blk.forward_dense(&xs).shape().dims(), &[0, 8]);
    }

    #[test]
    fn higher_theta_saves_more() {
        let (blk, mut r) = block(6, 16, 32);
        let xs = rng::normal(&mut r, &[5, 16], 0.0, 1.0);
        let low = blk.forward(&xs, &TransformerThresholds::uniform(0.02));
        let high = blk.forward(&xs, &TransformerThresholds::uniform(0.2));
        assert!(high.report.executor_macs <= low.report.executor_macs);
        assert!(high.report.approximate_fraction() >= low.report.approximate_fraction());
    }
}
