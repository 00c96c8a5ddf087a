//! # duet-workloads
//!
//! The benchmark model zoo and data substrate for the DUET reproduction:
//!
//! * [`models`] — layer-shape-faithful configs for AlexNet, VGG16,
//!   ResNet18, ResNet50 and the PTB-style LSTM/GRU and GNMT-style
//!   recurrent stacks the paper evaluates (§V-A),
//! * [`sparsity`] — per-layer activation-sensitivity calibration following
//!   the paper's Fig. 2 measurements,
//! * [`datasets`] — synthetic stand-ins for ImageNet/PTB/WMT16: Gaussian
//!   cluster classification, procedurally rendered shape images, and a
//!   Markov-chain text source (see DESIGN.md for the substitution
//!   rationale),
//! * [`trainer`] — real end-to-end training of small classifiers and
//!   language models whose layers become dual-module teachers,
//! * [`dualize`] — converting trained networks into dual-module form and
//!   measuring true accuracy/perplexity vs. savings (the Fig. 10 data),
//! * [`transformer`] — a tiny decoder-only transformer LM trained
//!   end-to-end and distilled per-projection into a dual transformer
//!   block (speculated Q/K/V/output and FFN projections, dense softmax).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod dualize;
pub mod models;
pub mod seq2seq;
pub mod sparsity;
pub mod trainer;
pub mod transformer;

pub use models::{ConvShape, ModelZoo, RnnShape};
pub use sparsity::SparsityCalibration;

/// The FNV-1a-64 offset basis the fingerprints start from.
#[cfg(test)]
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a-64 state `h`.
#[cfg(test)]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a-64 over the little-endian bits of every parameter value that
/// `visit` walks, in walk order, with the number of values: one word
/// that pins a whole training run bit for bit.
#[cfg(test)]
pub(crate) fn param_fingerprint(
    visit: impl FnOnce(&mut dyn FnMut(&mut duet_nn::layer::Param)),
) -> (usize, u64) {
    let (mut count, mut h) = (0usize, FNV_BASIS);
    visit(&mut |p| {
        for v in p.value.data() {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
            count += 1;
        }
    });
    (count, h)
}

/// FNV-1a-64 over the little-endian bytes of `words` (an `f32` output
/// enters as its bits, a token as its index), then of every counter of
/// `report` in declaration order, with the number of words: one word that
/// pins a model's full-precision outputs and its accounting bit for bit.
#[cfg(test)]
pub(crate) fn output_fingerprint(
    words: impl IntoIterator<Item = u32>,
    report: &duet_core::SavingsReport,
) -> (usize, u64) {
    let (mut count, mut h) = (0usize, FNV_BASIS);
    for w in words {
        h = fnv1a(h, &w.to_le_bytes());
        count += 1;
    }
    for c in [
        report.dense_macs,
        report.executor_macs,
        report.speculator_macs,
        report.speculator_adds,
        report.dense_weight_bytes,
        report.executor_weight_bytes,
        report.speculator_weight_bytes,
        report.outputs_total,
        report.outputs_exact,
    ] {
        h = fnv1a(h, &c.to_le_bytes());
    }
    (count, h)
}
