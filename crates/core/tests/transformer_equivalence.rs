//! Dual-attention equivalence contract: at θ = −∞ every projection lane
//! is sensitive, so the speculated transformer block must be **bitwise**
//! equal to its dense pass `forward_dense` — the same composition with
//! every projection run by its dense reference — and the refactored
//! `DualModuleLayer` to the shared `DualProjection` it is backed by. The
//! dense pass itself is checked against a reference rebuilt outside the
//! shared composition from the projections' dense references, the dense
//! [`duet_nn::attention::attend`] and GELU.
//!
//! `scripts/verify.sh` runs this suite under `DUET_NUM_THREADS` ∈
//! {1, 4, 7}: the dense references are single-threaded by construction,
//! so passing at every width pins the engine path's thread-invariance
//! too.

use duet_core::engine::{MacMode, SpeculationEngine};
use duet_core::{
    DualAttention, DualFfn, DualModuleLayer, DualProjection, DualTransformerBlock, SwitchingPolicy,
    TransformerThresholds,
};
use duet_nn::attention::attend;
use duet_nn::Activation;
use duet_tensor::rng::{self, seeded, Rng};
use duet_tensor::Tensor;

fn proj(r: &mut Rng, n: usize, d: usize, k: usize) -> DualProjection {
    let w = rng::normal(r, &[n, d], 0.0, 0.3);
    let b = rng::normal(r, &[n], 0.0, 0.05);
    DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, k, 200, r)
}

fn attention(r: &mut Rng, m: usize) -> DualAttention {
    let k = (m / 2).max(2);
    DualAttention::new(
        proj(r, m, m, k),
        proj(r, m, m, k),
        proj(r, m, m, k),
        proj(r, m, m, k),
    )
}

fn ffn(r: &mut Rng, m: usize, f: usize) -> DualFfn {
    DualFfn::new(proj(r, f, m, (m / 2).max(2)), proj(r, m, f, (f / 2).max(2)))
}

#[test]
fn dual_block_never_switch_is_bitwise_forward_dense() {
    for &(m, f, t_len, seed) in &[
        (4usize, 8usize, 3usize, 7u64),
        (8, 16, 6, 8),
        (6, 18, 11, 9),
    ] {
        let mut r = seeded(seed);
        let block = DualTransformerBlock::new(attention(&mut r, m), ffn(&mut r, m, f));
        let xs = rng::normal(&mut r, &[t_len, m], 0.0, 1.0);
        let out = block.forward(&xs, &TransformerThresholds::never_switch());
        let dense = block.forward_dense(&xs);
        assert_eq!(
            out.output.data(),
            dense.data(),
            "m={m} f={f} T={t_len}: θ=-inf block must be bitwise dense"
        );
        assert_eq!(out.report.outputs_exact, out.report.outputs_total);
        assert_eq!(out.report.executor_macs, out.report.dense_macs);
    }
}

/// The refactor contract for the FF layer: `DualModuleLayer` is now a
/// `DualProjection` plus an activation, and its dual path must stay
/// bitwise-equal to running that projection directly — no behavior may
/// have moved in the extraction.
#[test]
fn dual_layer_is_bitwise_its_projection_plus_activation() {
    for &(n, d, seed) in &[(6usize, 10usize, 10u64), (16, 24, 11), (33, 7, 12)] {
        let mut r = seeded(seed);
        let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
        let b = rng::normal(&mut r, &[n], 0.0, 0.05);
        let layer = DualModuleLayer::learn(&w, &b, Activation::Relu, (d / 2).max(2), 200, &mut r);
        let x = rng::normal(&mut r, &[d], 0.0, 1.0);
        for policy in [SwitchingPolicy::never_switch(), SwitchingPolicy::relu(0.3)] {
            let out = layer.forward(&x, &policy);
            let mut engine = SpeculationEngine::new();
            let (pre, map) = layer.projection().forward(&mut engine, &policy, &x);
            assert_eq!(
                out.output.data(),
                Activation::Relu.apply(&pre).data(),
                "n={n} d={d} θ={}: layer must equal projection + activation",
                policy.theta
            );
            assert_eq!(out.map, map);
        }
        // and the projection's engine path matches its scalar reference
        let reference = layer.projection().forward_reference(&x);
        let mut engine = SpeculationEngine::new();
        let (pre, _) =
            layer
                .projection()
                .forward(&mut engine, &SwitchingPolicy::never_switch(), &x);
        assert_eq!(pre.data(), reference.data());
    }
}

/// Residual wiring: the dense block must be exactly
/// `a = x + W_o·attend(W_q·x, W_k·x, W_v·x)` and `y = a + W_2·gelu(W_1·a)`
/// lane by lane, rebuilt here from the projections' dense references, the
/// dense [`attend`] and GELU, outside the composition the block's two
/// passes share — a wrong residual would still "look dense" at θ = −∞
/// but change every value.
#[test]
fn dense_block_composes_attention_and_ffn_with_residuals() {
    let (m, f, t_len) = (6usize, 12usize, 4usize);
    let mut r = seeded(13);
    let block = DualTransformerBlock::new(attention(&mut r, m), ffn(&mut r, m, f));
    let xs = rng::normal(&mut r, &[t_len, m], 0.0, 1.0);
    let dense = block.forward_dense(&xs);

    let (attn, ffn) = (block.attention(), block.ffn());
    let rows: Vec<Tensor> = (0..t_len)
        .map(|t| Tensor::from_vec(xs.data()[t * m..(t + 1) * m].to_vec(), &[m]))
        .collect();
    let project = |p: &DualProjection| -> Vec<f32> {
        rows.iter()
            .flat_map(|x| p.forward_reference(x).data().to_vec())
            .collect()
    };
    let (q, k, v) = (project(attn.wq()), project(attn.wk()), project(attn.wv()));
    for (t, x_t) in rows.iter().enumerate() {
        let prefix = |all: &[f32]| Tensor::from_vec(all[..(t + 1) * m].to_vec(), &[t + 1, m]);
        let q_t = Tensor::from_vec(q[t * m..(t + 1) * m].to_vec(), &[m]);
        let (ctx, _) = attend(&q_t, &prefix(&k), &prefix(&v));
        let o = attn.wo().forward_reference(&ctx);
        let a: Vec<f32> = x_t
            .data()
            .iter()
            .zip(o.data())
            .map(|(x, o)| x + o)
            .collect();
        let a_t = Tensor::from_vec(a.clone(), &[m]);
        let h = Activation::Gelu.apply(&ffn.expand().forward_reference(&a_t));
        let y = ffn.contract().forward_reference(&h);
        for (i, (&a_i, &y_i)) in a.iter().zip(y.data()).enumerate() {
            assert_eq!(
                dense.data()[t * m + i],
                a_i + y_i,
                "t={t} lane {i}: residual composition mismatch"
            );
        }
    }
}
