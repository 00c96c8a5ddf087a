//! Dual-attention equivalence contract: at θ = −∞ every projection lane
//! is sensitive, so the speculated transformer pieces must be **bitwise**
//! equal to their dense references — `DualAttention`/`DualFfn` against
//! the reference path built on dense [`duet_nn::attention::attend`], the
//! whole block against `forward_dense`, and the refactored
//! `DualModuleLayer` against the shared `DualProjection` it is now
//! backed by.
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
fn dual_attention_never_switch_is_bitwise_dense_attend() {
    for &(m, t_len, seed) in &[(4usize, 1usize, 1u64), (8, 5, 2), (12, 9, 3)] {
        let mut r = seeded(seed);
        let attn = attention(&mut r, m);
        let xs = rng::normal(&mut r, &[t_len, m], 0.0, 1.0);
        let mut engine = SpeculationEngine::new();
        let (out, maps) = attn.forward_with(&mut engine, &xs, f32::NEG_INFINITY);
        let reference = attn.forward_reference(&xs);
        assert_eq!(
            out.data(),
            reference.data(),
            "m={m} T={t_len}: θ=-inf attention must be bitwise dense"
        );
        assert_eq!(maps.len(), 4 * t_len);
        assert!(
            maps.iter().all(|map| map.sensitive_count() == map.len()),
            "θ=-inf leaves no insensitive lane"
        );
    }
}

#[test]
fn dual_ffn_never_switch_is_bitwise_reference() {
    for &(m, f, seed) in &[(4usize, 8usize, 4u64), (8, 16, 5), (10, 30, 6)] {
        let mut r = seeded(seed);
        let ffn = ffn(&mut r, m, f);
        let x = rng::normal(&mut r, &[m], 0.0, 1.0);
        let mut engine = SpeculationEngine::new();
        let (y, [m1, m2]) = ffn.forward_with(&mut engine, &x, f32::NEG_INFINITY, f32::NEG_INFINITY);
        assert_eq!(
            y.data(),
            ffn.forward_reference(&x).data(),
            "m={m} f={f}: θ=-inf FFN must be bitwise dense"
        );
        assert_eq!(m1.sensitive_count(), f);
        assert_eq!(m2.sensitive_count(), m);
    }
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

/// Residual wiring: the block output must be exactly
/// `x + attn(x) + ffn(x + attn(x))` lane by lane — a wrong residual
/// would still "look dense" at θ = −∞ but change every value.
#[test]
fn dense_block_composes_attention_and_ffn_with_residuals() {
    let (m, f, t_len) = (6usize, 12usize, 4usize);
    let mut r = seeded(13);
    let block = DualTransformerBlock::new(attention(&mut r, m), ffn(&mut r, m, f));
    let xs = rng::normal(&mut r, &[t_len, m], 0.0, 1.0);
    let dense = block.forward_dense(&xs);

    let attn_out = block.attention().forward_reference(&xs);
    for t in 0..t_len {
        let a: Vec<f32> = (0..m)
            .map(|i| xs.data()[t * m + i] + attn_out.data()[t * m + i])
            .collect();
        let a_t = Tensor::from_vec(a.clone(), &[m]);
        let y = block.ffn().forward_reference(&a_t);
        for (i, (&a_i, &y_i)) in a.iter().zip(y.data()).enumerate() {
            assert_eq!(
                dense.data()[t * m + i],
                a_i + y_i,
                "t={t} lane {i}: residual composition mismatch"
            );
        }
    }
}
