//! End-to-end CNN integration test: real training → distillation → dual
//! -module inference with measured switching maps → cycle-level
//! simulation. This exercises every crate in the workspace in one flow.

use duet::core::SwitchingPolicy;
use duet::sim::cnn::run_cnn;
use duet::sim::config::ArchConfig;
use duet::sim::energy::EnergyTable;
use duet::sim::trace::ConvLayerTrace;
use duet::tensor::{rng, Tensor};
use duet::workloads::datasets;
use duet::workloads::dualize::DualCnn;
use duet::workloads::trainer;

#[test]
fn trained_cnn_to_simulator_pipeline() {
    let mut r = rng::seeded(101);

    // Train (same regime as the Fig. 10 harness).
    let all = datasets::shape_images(600, 11, 0.2, &mut r);
    let (train, test) = all.split_at(400);
    let mut net = trainer::train_cnn(&train, 8, 15, &mut r);
    let dense_acc = trainer::evaluate_classifier(&mut net, &test);
    assert!(dense_acc > 0.8, "dense training failed: {dense_acc}");

    // Distill + dual-module inference.
    let dual = DualCnn::from_sequential(&net, &train, 0.5, &mut r);
    let (acc, report) = dual.evaluate(&test, 0.0);
    assert!(
        acc >= dense_acc - 0.12,
        "dual accuracy collapsed: {acc} vs {dense_acc}"
    );
    assert!(report.mac_skip_fraction() > 0.1, "no MACs skipped");

    // Build a trace from a real measured OMap and simulate.
    let g = *dual.conv_layer().geometry();
    let img = Tensor::from_vec(
        test.inputs.data()[..g.in_channels * g.in_h * g.in_w].to_vec(),
        &[g.in_channels, g.in_h, g.in_w],
    );
    let out = dual
        .conv_layer()
        .forward(&img, &SwitchingPolicy::relu(0.0), None);
    let trace = ConvLayerTrace::from_dual_conv(
        "conv1",
        out.output.shape().dim(0),
        out.output.shape().dim(1) * out.output.shape().dim(2),
        g.patch_len(),
        g.in_channels * g.in_h * g.in_w,
        &out.omap,
        1.0,
        dual.conv_layer().approx().config().reduced_dim,
    );
    assert!(trace.sensitive_fraction() > 0.0 && trace.sensitive_fraction() < 1.0);

    // A single tiny layer cannot hide its own speculation (no previous
    // layer to overlap with), so simulate a small stack — the layer
    // pipeline of Fig. 7 — as a real network would present.
    let stack: Vec<ConvLayerTrace> = (0..4)
        .map(|i| {
            let mut t = trace.clone();
            t.name = format!("conv{}", i + 1);
            t
        })
        .collect();
    let energy = EnergyTable::default();
    let base = run_cnn("e2e", &stack, &ArchConfig::single_module(), &energy);
    let duet = run_cnn("e2e", &stack, &ArchConfig::duet(), &energy);
    assert!(
        duet.speedup_over(&base) > 1.0,
        "DUET not faster on a real map: {:.3}",
        duet.speedup_over(&base)
    );
    assert!(duet.total_energy().total_pj() < base.total_energy().total_pj());
}

#[test]
fn dual_mlp_end_to_end_quality_vs_savings_curve() {
    use duet::workloads::dualize::DualMlp;
    let mut r = rng::seeded(102);
    let all = datasets::gaussian_clusters(3, 16, 450, 5.0, &mut r);
    let (train, test) = all.split_at(300);
    let mut net = trainer::train_mlp(&train, 32, 30, &mut r);
    let dense_acc = trainer::evaluate_classifier(&mut net, &test);
    assert!(dense_acc > 0.85, "dense training failed: {dense_acc}");

    let dual = DualMlp::from_sequential(&net, &train, 0.5, &mut r);

    // More aggressive thresholds must monotonically increase savings …
    let (acc_cons, rep_cons) = dual.evaluate(&test, -1.0);
    let (acc_aggr, rep_aggr) = dual.evaluate(&test, 2.0);
    assert!(rep_aggr.flops_reduction() > rep_cons.flops_reduction());
    // … and the conservative end must track dense accuracy closely.
    assert!(acc_cons >= dense_acc - 0.05, "{acc_cons} vs {dense_acc}");
    // The aggressive end may lose accuracy but the FLOPs reduction must
    // be substantial.
    assert!(rep_aggr.flops_reduction() > 2.0);
    let _ = acc_aggr;
}
