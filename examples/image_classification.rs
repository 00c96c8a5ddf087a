//! End-to-end CNN scenario: train a real (small) CNN classifier, distill
//! its dual-module form, then feed the *measured* switching maps into the
//! cycle-level DUET simulator — algorithm and architecture connected the
//! way the paper's co-design intends.
//!
//! ```text
//! cargo run --release --example image_classification
//! ```

use duet::core::SwitchingPolicy;
use duet::sim::cnn::run_cnn;
use duet::sim::config::ArchConfig;
use duet::sim::energy::EnergyTable;
use duet::sim::trace::ConvLayerTrace;
use duet::tensor::{rng, Tensor};
use duet::workloads::datasets;
use duet::workloads::dualize::DualCnn;
use duet::workloads::trainer;

fn main() {
    let mut r = rng::seeded(7);

    // 1. Train a real CNN on procedurally generated shape images.
    println!("training CNN on shape images...");
    let all = datasets::shape_images(600, 11, 0.2, &mut r);
    let (train, test) = all.split_at(400);
    let mut net = trainer::train_cnn(&train, 8, 15, &mut r);
    let dense_acc = trainer::evaluate_classifier(&mut net, &test);
    println!("dense test accuracy: {dense_acc:.3}\n");

    // 2. Distill the dual-module form from real calibration patches.
    let dual = DualCnn::from_sequential(&net, &train, 0.5, &mut r);

    // 3. Measure quality + savings, and record a real switching map.
    let theta = 0.0f32;
    let (acc, report) = dual.evaluate(&test, theta);
    println!(
        "dual-module accuracy at theta {theta}: {acc:.3} (loss {:+.1}%)",
        (dense_acc - acc) * 100.0
    );
    println!(
        "measured MAC skip fraction: {:.1}%  FLOPs reduction: {:.2}x\n",
        report.mac_skip_fraction() * 100.0,
        report.flops_reduction()
    );

    // 4. Drive the cycle-level simulator with a real OMap.
    let g = *dual.conv_layer().geometry();
    // Re-run the conv over a batch of test images and stack the measured
    // OMaps along the channel dimension — the accelerator "sequentially
    // processes batches of ifmap" (§IV-A), so a batch of B images fills
    // B × K PE-row assignments.
    let img_len = g.in_channels * g.in_h * g.in_w;
    let mut omap = duet::core::SwitchingMap::empty();
    let mut out_dims = (0usize, 0usize);
    for bi in 0..8 {
        let img = Tensor::from_vec(
            test.inputs.data()[bi * img_len..(bi + 1) * img_len].to_vec(),
            &[g.in_channels, g.in_h, g.in_w],
        );
        let out = dual
            .conv_layer()
            .forward(&img, &SwitchingPolicy::relu(theta), None);
        out_dims = (
            out.output.shape().dim(0),
            out.output.shape().dim(1) * out.output.shape().dim(2),
        );
        omap.extend_from_map(&out.omap);
    }
    let trace = ConvLayerTrace::from_dual_conv(
        "conv1(batch8)",
        out_dims.0 * 8,
        out_dims.1,
        g.patch_len(),
        img_len * 8,
        &omap,
        1.0,
        dual.conv_layer().approx().config().reduced_dim,
    );
    println!(
        "real switching map: {} of {} outputs sensitive ({:.1}%)",
        trace.sensitive_outputs(),
        trace.outputs(),
        trace.sensitive_fraction() * 100.0
    );

    // A single tiny layer cannot hide its own speculation (there is no
    // previous layer to overlap with), so present the simulator with the
    // realistic case: a stack of such layers in the Fig. 7 pipeline.
    let stack: Vec<ConvLayerTrace> = (0..4)
        .map(|i| {
            let mut t = trace.clone();
            t.name = format!("conv{}", i + 1);
            t
        })
        .collect();
    let energy = EnergyTable::default();
    let base = run_cnn("shapes-cnn", &stack, &ArchConfig::single_module(), &energy);
    let duet = run_cnn("shapes-cnn", &stack, &ArchConfig::duet(), &energy);
    println!(
        "simulated 4-layer stack on DUET: {:.2}x speedup, {:.2}x energy efficiency over the single-module baseline",
        duet.speedup_over(&base),
        duet.energy_efficiency_over(&base)
    );
    println!("(a 3x3x1-patch toy conv is below DUET's sweet spot: one output costs a single");
    println!(" PE-row cycle, so there is little computation for the switching map to skip)\n");

    // 5. Scale up: drive an AlexNet-conv3-shaped layer with the
    //    *measured* sparsity statistics from our trained network.
    let measured_sensitive = trace.sensitive_fraction();
    let mut r2 = rng::seeded(99);
    let big = ConvLayerTrace::synthetic(
        "alexnet-conv3-shape",
        384,
        13 * 13,
        192 * 3 * 3,
        192 * 13 * 13,
        measured_sensitive,
        0.3,
        0.45,
        (192 * 3 * 3) / 8,
        &mut r2,
    );
    let big_stack: Vec<ConvLayerTrace> = (0..4).map(|_| big.clone()).collect();
    let base = run_cnn(
        "alexnet-scale",
        &big_stack,
        &ArchConfig::single_module(),
        &energy,
    );
    let duet = run_cnn("alexnet-scale", &big_stack, &ArchConfig::duet(), &energy);
    println!(
        "same measured sensitivity ({:.1}%) on an AlexNet-conv3-shaped layer: {:.2}x speedup, {:.2}x energy efficiency",
        measured_sensitive * 100.0,
        duet.speedup_over(&base),
        duet.energy_efficiency_over(&base)
    );
}
