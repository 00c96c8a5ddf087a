//! Integration test: the §III-C OMap→IMap chain measured on a *trained*
//! two-conv CNN through [`DualCnn`] — chaining must save work without
//! changing a value, and θ = −∞ must be the trained network.

use duet::core::{SavingsReport, SwitchingPolicy};
use duet::nn::Sequential;
use duet::tensor::{rng, Tensor};
use duet::workloads::datasets::{self, Classification};
use duet::workloads::dualize::DualCnn;
use duet::workloads::trainer;

/// A trained two-conv CNN, its dual form, the held-out images and the
/// dense accuracy on them.
fn trained() -> (Sequential, DualCnn, Classification, f64) {
    let mut r = rng::seeded(302);
    let all = datasets::shape_images(450, 10, 0.15, &mut r);
    let (train, test) = all.split_at(300);
    let mut net = trainer::train_deep_cnn(&train, 6, 12, &mut r);
    let dense_acc = trainer::evaluate_classifier(&mut net, &test);
    assert!(dense_acc > 0.8, "deep CNN failed to train: {dense_acc}");
    let dual = DualCnn::from_sequential(&net, &train, 0.5, &mut r);
    assert_eq!(dual.conv_layers().len(), 2);
    (net, dual, test, dense_acc)
}

/// The `[C, H, W]` images of a dataset.
fn images(data: &Classification) -> Vec<Tensor> {
    let dims = data.inputs.shape().dims();
    let img: usize = dims[1..].iter().product();
    data.inputs
        .data()
        .chunks_exact(img)
        .map(|x| Tensor::from_vec(x.to_vec(), &dims[1..]))
        .collect()
}

#[test]
fn chained_dual_net_preserves_trained_accuracy() {
    let (_, dual, test, dense_acc) = trained();
    let policy = SwitchingPolicy::relu(0.0);
    let [first, second] = dual.conv_layers() else {
        panic!("expected two dual convs");
    };
    let mut imap_saved = false;
    for (i, x) in images(&test).iter().enumerate() {
        let o1 = first.forward(x, &policy, None);
        let chained = second.forward(&o1.output, &policy, Some(&o1.omap));
        let unchained = second.forward(&o1.output, &policy, None);
        // IMap skipping only skips exact zeros, so no value moves.
        assert!(
            chained
                .output
                .data()
                .iter()
                .zip(unchained.output.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "image {i}: the IMap changed a value"
        );
        assert_eq!(chained.omap, unchained.omap, "image {i}");
        assert!(
            chained.report.executor_macs <= unchained.report.executor_macs,
            "image {i}: chained {} vs unchained {} MACs",
            chained.report.executor_macs,
            unchained.report.executor_macs
        );
        imap_saved |= chained.report.executor_macs < unchained.report.executor_macs;

        let (_, report) = dual.forward(x, 0.0);
        let layers: SavingsReport = [o1.report, chained.report].into_iter().sum();
        assert_eq!(report, layers, "image {i}");
    }
    assert!(imap_saved, "the chained IMap never saved a MAC");

    let (acc, _) = dual.evaluate(&test, 0.0);
    assert!(
        acc >= dense_acc - 0.15,
        "chained accuracy {acc} vs dense {dense_acc}"
    );
}

#[test]
fn never_switch_dual_cnn_matches_trained_net() {
    // At θ = −∞ every conv output runs exactly, so the chain is the trained
    // network up to summation order — which pins each conv's weights to
    // its place in the chain.
    let (mut net, dual, test, _) = trained();
    for (i, x) in images(&test).iter().enumerate() {
        let (logits, report) = dual.forward(x, f32::NEG_INFINITY);
        let batch: Vec<usize> = [1].iter().chain(x.shape().dims()).copied().collect();
        let dense = net.forward(&x.reshaped(&batch));
        assert_eq!(logits.len(), dense.len(), "image {i}");
        for (a, b) in logits.data().iter().zip(dense.data()) {
            assert!(
                (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                "image {i}: {a} vs {b}"
            );
        }
        assert_eq!(report.approximate_fraction(), 0.0, "image {i}");
    }
}
