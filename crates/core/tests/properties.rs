//! Property-style tests of the dual-module algorithm's invariants,
//! driven by the in-tree seeded RNG (no external property-testing crate).

use duet_core::{distill, ApproxConfig, DualModuleLayer, SwitchingPolicy, TernaryProjection};
use duet_nn::Activation;
use duet_tensor::{ops, rng, Tensor};

const CASES: u64 = 24;

/// The ternary projection is linear: P(αx + βy) = αPx + βPy.
#[test]
fn projection_linearity() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let alpha = r.random_range(-3.0f32..3.0);
        let beta = r.random_range(-3.0f32..3.0);
        let p = TernaryProjection::sample(24, 8, &mut r);
        let x = rng::normal(&mut r, &[24], 0.0, 1.0);
        let y = rng::normal(&mut r, &[24], 0.0, 1.0);
        let combo = ops::add(&ops::scale(&x, alpha), &ops::scale(&y, beta));
        let lhs = p.project(&combo);
        let rhs = ops::add(
            &ops::scale(&p.project(&x), alpha),
            &ops::scale(&p.project(&y), beta),
        );
        for (a, b) in lhs.data().iter().zip(rhs.data()) {
            assert!((a - b).abs() < 1e-2, "seed {seed}: {a} vs {b}");
        }
    }
}

/// Projection entries are exactly ternary and the density is near 1/3
/// for any seed.
#[test]
fn projection_structure() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let p = TernaryProjection::sample(120, 30, &mut r);
        assert!(p.entries().iter().all(|&e| (-1..=1).contains(&e)));
        let d = p.density();
        assert!((0.2..0.5).contains(&d), "seed {seed}: density {d}");
    }
}

/// Distillation of a rank-deficient teacher on matching calibration
/// data never fails and never produces NaNs (the ridge keeps the
/// normal equations positive definite).
#[test]
fn distillation_numerically_robust() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let latent = r.random_range(1usize..6);
        let d = 16;
        let basis = rng::normal(&mut r, &[d, latent], 0.0, 1.0);
        let mut acts = Tensor::zeros(&[40, d]);
        for i in 0..40 {
            let z = rng::normal(&mut r, &[latent], 0.0, 1.0);
            let x = ops::gemv(&basis, &z);
            acts.row_mut(i).copy_from_slice(x.data());
        }
        let w = rng::normal(&mut r, &[8, d], 0.0, 0.3);
        let b = Tensor::zeros(&[8]);
        let student = distill::distill_linear_from_activations(
            &w,
            &b,
            ApproxConfig::paper_default(8),
            &acts,
            &mut r,
        );
        let out = student.forward(&Tensor::from_vec(acts.row(0).to_vec(), &[d]));
        assert!(out.data().iter().all(|v| v.is_finite()), "seed {seed}");
    }
}

/// Dual-layer guarantee: at θ = −∞ (ReLU) the output matches the
/// dense reference bit-for-bit in the sensitive sense, for any layer.
#[test]
fn conservative_threshold_is_lossless() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let w = rng::normal(&mut r, &[10, 14], 0.0, 0.4);
        let b = rng::normal(&mut r, &[10], 0.0, 0.1);
        let layer = DualModuleLayer::learn(&w, &b, Activation::Relu, 7, 60, &mut r);
        let x = rng::normal(&mut r, &[14], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(f32::NEG_INFINITY));
        let dense = layer.forward_dense(&x);
        for (a, b) in out.output.data().iter().zip(dense.data()) {
            assert!((a - b).abs() < 1e-4, "seed {seed}");
        }
        assert_eq!(out.report.outputs_exact, 10, "seed {seed}");
    }
}

/// Savings accounting is internally consistent for any threshold:
/// executor MACs ≤ dense MACs, exact outputs ≤ total outputs, and
/// the approximate fraction matches the map.
#[test]
fn report_consistency() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let theta = r.random_range(-3.0f32..3.0);
        let w = rng::normal(&mut r, &[12, 20], 0.0, 0.3);
        let b = Tensor::zeros(&[12]);
        let layer = DualModuleLayer::learn(&w, &b, Activation::Relu, 10, 80, &mut r);
        let x = rng::normal(&mut r, &[20], 0.0, 1.0);
        let out = layer.forward(&x, &SwitchingPolicy::relu(theta));
        assert!(out.report.executor_macs <= out.report.dense_macs);
        assert!(out.report.outputs_exact <= out.report.outputs_total);
        let frac = out.report.approximate_fraction();
        let map_frac = out.map.insensitive_fraction();
        assert!((frac - map_frac).abs() < 1e-9, "seed {seed}");
        assert!(out.report.flops_reduction() >= 0.0, "seed {seed}");
    }
}

/// Sigmoid and tanh share the |y| > θ rule; their maps agree for the
/// same threshold.
#[test]
fn saturation_rules_agree() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let n = r.random_range(1usize..64);
        let theta = r.random_range(0.5f32..4.0);
        let y = rng::uniform(&mut r, &[n], -6.0, 6.0);
        let sig = SwitchingPolicy::sigmoid(theta).map(&y);
        let tan = SwitchingPolicy::tanh(theta).map(&y);
        assert_eq!(sig, tan, "seed {seed}");
    }
}

/// Eq. 2–3 on a ReLU layer, across θ and speculator weight widths
/// INT2–INT4: every sensitive pre-activation is the exact one and every
/// insensitive one the speculator's, bit for bit; ReLU never amplifies
/// the speculator's error on an insensitive output; and at θ ≤ 0 an
/// insensitive output is exactly zero after ReLU.
#[test]
fn relu_switching_bounds_insensitive_error() {
    let (n, d) = (24, 32);
    let (mut sensitive, mut insensitive) = (0usize, 0usize);
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
        let b = rng::normal(&mut r, &[n], 0.0, 0.1);
        let learned = DualModuleLayer::learn(&w, &b, Activation::Relu, 12, 120, &mut r);
        let x = rng::normal(&mut r, &[d], 0.0, 1.0);
        for bits in [2, 3, 4] {
            let mut layer = learned.clone();
            layer.set_approx(learned.approx().requantized(bits));
            let exact = layer.projection().forward_reference(&x);
            let approx = layer.projection().speculate(&x);
            for theta in [-0.5f32, 0.0, 0.25, 1.0] {
                let out = layer.forward(&x, &SwitchingPolicy::relu(theta));
                for i in 0..n {
                    let what = format!("seed {seed} INT{bits} θ {theta} output {i}");
                    let pre = out.pre_activation.data()[i];
                    if out.map.is_sensitive(i) {
                        sensitive += 1;
                        assert_eq!(pre.to_bits(), exact.data()[i].to_bits(), "{what}");
                        continue;
                    }
                    insensitive += 1;
                    let (y_approx, y) = (approx.data()[i], exact.data()[i]);
                    assert_eq!(pre.to_bits(), y_approx.to_bits(), "{what}");
                    let relu_err = (y_approx.max(0.0) - y.max(0.0)).abs();
                    assert!(relu_err <= (y_approx - y).abs(), "{what}");
                    if theta <= 0.0 {
                        assert_eq!(out.output.data()[i].to_bits(), 0.0f32.to_bits(), "{what}");
                    }
                }
            }
        }
    }
    assert!(
        sensitive > 0 && insensitive > 0,
        "{sensitive} / {insensitive}"
    );
}
