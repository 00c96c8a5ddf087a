//! The NaN contract of the switching rule: a Speculator whose every
//! output is NaN must make every lane sensitive, so the Executor
//! recomputes the whole layer and its outputs are bitwise the
//! never-switch path's — for every layer kind, with no watchdog.
//!
//! Each rule is a negated comparison (`!(y' < θ)`, `!(|y'| > θ)`,
//! `!(|y'| < θ)`), and every comparison with NaN is false, so a broken
//! Speculator costs efficiency, never correctness (§II).

use duet_core::dual_rnn::RnnThresholds;
use duet_core::engine::MacMode;
use duet_core::{
    ApproxLinear, DualAttention, DualConvLayer, DualFfn, DualGruCell, DualLstmCell,
    DualModuleLayer, DualProjection, DualTransformerBlock, SwitchingMap, SwitchingPolicy,
    TransformerThresholds,
};
use duet_nn::lstm::LstmState;
use duet_nn::{Activation, GruCell, LstmCell};
use duet_tensor::im2col::ConvGeometry;
use duet_tensor::rng::{self, seeded, Rng};
use duet_tensor::Tensor;

/// Rebuilds an approximate module with a NaN bias: every speculator
/// output becomes NaN while the projection and weights stay intact.
fn nan_poisoned(approx: &ApproxLinear) -> ApproxLinear {
    ApproxLinear::from_quantized(
        approx.projection().clone(),
        approx.weights().clone(),
        Tensor::full(&[approx.output_dim()], f32::NAN),
        *approx.config(),
    )
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_all_sensitive(maps: &[SwitchingMap], what: &str) {
    for (i, m) in maps.iter().enumerate() {
        assert_eq!(
            m.sensitive_count(),
            m.len(),
            "{what}: map {i} has insensitive lanes"
        );
    }
}

#[test]
fn ff_nan_speculator_is_bitwise_never_switch_under_every_rule() {
    for (seed, activation, policy) in [
        (101u64, Activation::Relu, SwitchingPolicy::relu(0.0)),
        (102, Activation::Tanh, SwitchingPolicy::tanh(1.5)),
        (103, Activation::Identity, SwitchingPolicy::magnitude(0.3)),
    ] {
        let mut r = seeded(seed);
        let w = rng::normal(&mut r, &[20, 40], 0.0, 0.2);
        let b = rng::normal(&mut r, &[20], 0.0, 0.05);
        let layer = DualModuleLayer::learn(&w, &b, activation, 12, 200, &mut r);
        let x = rng::normal(&mut r, &[40], 0.0, 1.0);
        let reference = layer.forward(&x, &SwitchingPolicy::never_switch());

        let mut poisoned = layer.clone();
        poisoned.set_approx(nan_poisoned(layer.approx()));
        let out = poisoned.forward(&x, &policy);

        let what = format!("{activation} rule");
        assert_all_sensitive(std::slice::from_ref(&out.map), &what);
        assert_eq!(
            bits(&out.pre_activation),
            bits(&reference.pre_activation),
            "{what}"
        );
        assert_eq!(bits(&out.output), bits(&reference.output), "{what}");
        assert_eq!(out.map, reference.map, "{what}");
        assert_eq!(out.report, reference.report, "{what}");
        assert!(out.output.data().iter().all(|v| v.is_finite()), "{what}");
    }
}

#[test]
fn conv_nan_speculator_is_bitwise_never_switch() {
    let mut r = seeded(104);
    let geom = ConvGeometry {
        in_channels: 2,
        in_h: 6,
        in_w: 6,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let filters = rng::normal(&mut r, &[4, 2, 3, 3], 0.0, 0.25);
    let bias = rng::normal(&mut r, &[4], 0.0, 0.05);
    let layer = DualConvLayer::learn(geom, &filters, &bias, 8, 200, &mut r);
    let x = rng::normal(&mut r, &[2, 6, 6], 0.0, 1.0);
    let reference = layer.forward(&x, &SwitchingPolicy::never_switch(), None);

    let mut poisoned = layer.clone();
    poisoned.set_approx(nan_poisoned(layer.approx()));
    let out = poisoned.forward(&x, &SwitchingPolicy::relu(0.0), None);

    // Every element was speculated sensitive; the stored OMap is the
    // never-switch one after the same ReLU correction.
    assert_eq!(out.channel_workloads, vec![36; 4]);
    assert_eq!(out.channel_workloads, reference.channel_workloads);
    assert_eq!(bits(&out.output), bits(&reference.output));
    assert_eq!(out.omap, reference.omap);
    assert_eq!(out.report, reference.report);
    assert!(out.output.data().iter().all(|v| v.is_finite()));
}

#[test]
fn lstm_nan_speculator_is_bitwise_never_switch() {
    let mut r = seeded(105);
    let cell = LstmCell::new(10, 8, &mut r);
    let dual = DualLstmCell::learn(&cell, 8, 200, &mut r);
    let x = rng::normal(&mut r, &[10], 0.0, 1.0);
    let mut state = LstmState::zeros(8);
    state.h = rng::normal(&mut r, &[8], 0.0, 0.5);
    state.c = rng::normal(&mut r, &[8], 0.0, 0.5);
    let reference = dual.step(&x, &state, &RnnThresholds::never_switch());

    let mut poisoned = dual.clone();
    poisoned.set_approx(
        nan_poisoned(dual.approx_ih()),
        nan_poisoned(dual.approx_hh()),
    );
    let th = RnnThresholds {
        theta_sigmoid: 2.0,
        theta_tanh: 1.5,
    };
    let out = poisoned.step(&x, &state, &th);

    assert_eq!(out.gate_maps.len(), 4);
    assert_all_sensitive(&out.gate_maps, "lstm");
    assert_eq!(bits(&out.h), bits(&reference.h));
    assert_eq!(bits(&out.c), bits(&reference.c));
    assert!(out.h.data().iter().all(|v| v.is_finite()));
}

#[test]
fn gru_nan_speculator_is_bitwise_never_switch() {
    let mut r = seeded(106);
    let cell = GruCell::new(9, 7, &mut r);
    let dual = DualGruCell::learn(&cell, 7, 200, &mut r);
    let x = rng::normal(&mut r, &[9], 0.0, 1.0);
    let h_prev = rng::normal(&mut r, &[7], 0.0, 0.5);
    let reference = dual.step(&x, &h_prev, &RnnThresholds::never_switch());

    let mut poisoned = dual.clone();
    poisoned.set_approx(
        nan_poisoned(dual.approx_ih()),
        nan_poisoned(dual.approx_hh()),
    );
    let th = RnnThresholds {
        theta_sigmoid: 2.0,
        theta_tanh: 1.5,
    };
    let out = poisoned.step(&x, &h_prev, &th);

    // r, z and the candidate n: the candidate's pre-activation mixes the
    // r gate into a still-NaN hidden half, so it stays sensitive too.
    assert_eq!(out.gate_maps.len(), 3);
    assert_all_sensitive(&out.gate_maps, "gru");
    assert_eq!(bits(&out.h), bits(&reference.h));
    assert!(out.h.data().iter().all(|v| v.is_finite()));
}

#[test]
fn transformer_block_of_nan_projections_is_bitwise_never_switch() {
    let (m, f) = (8usize, 16usize);
    let mut r = seeded(107);
    let proj = |r: &mut Rng, n: usize, d: usize| {
        let w = rng::normal(r, &[n, d], 0.0, 0.3);
        let b = rng::normal(r, &[n], 0.0, 0.05);
        DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, (d / 2).max(4), 200, r)
    };
    let healthy = [
        proj(&mut r, m, m),
        proj(&mut r, m, m),
        proj(&mut r, m, m),
        proj(&mut r, m, m),
        proj(&mut r, f, m),
        proj(&mut r, m, f),
    ];
    let block = |p: &[DualProjection; 6]| {
        let [q, k, v, o, e, c] = p.clone();
        DualTransformerBlock::new(DualAttention::new(q, k, v, o), DualFfn::new(e, c))
    };
    let poisoned = healthy.clone().map(|mut p| {
        p.set_approx(nan_poisoned(p.approx()));
        p
    });
    let xs = rng::normal(&mut r, &[5, m], 0.0, 1.0);
    let reference = block(&healthy).forward(&xs, &TransformerThresholds::never_switch());

    let out = block(&poisoned).forward(&xs, &TransformerThresholds::uniform(0.4));

    assert_eq!(out.maps.len(), 6 * 5);
    assert_all_sensitive(&out.maps, "transformer block");
    assert_eq!(out.maps, reference.maps);
    assert_eq!(bits(&out.output), bits(&reference.output));
    assert_eq!(out.report, reference.report);
    assert!(out.output.data().iter().all(|v| v.is_finite()));
}
