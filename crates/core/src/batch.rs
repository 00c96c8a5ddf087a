//! Batched dual-module execution.
//!
//! The single-vector [`DualModuleLayer::forward`] mirrors the hardware's
//! per-inference flow; this module adds the batched form used by the
//! software evaluation harness (throughput) and by CONV layers after
//! im2col, where the "batch" is the set of output positions.

use crate::dual_layer::DualModuleLayer;
use crate::metrics::SavingsReport;
use crate::switching::{SwitchingMap, SwitchingPolicy};
use duet_tensor::{parallel, Tensor};

/// Result of a batched dual-module forward pass.
#[derive(Debug, Clone)]
pub struct BatchDualOutput {
    /// Post-activation outputs `[B, n]`.
    pub output: Tensor,
    /// Per-sample switching maps.
    pub maps: Vec<SwitchingMap>,
    /// Aggregate accounting over the batch.
    pub report: SavingsReport,
}

/// Runs a dual-module layer over a batch `[B, d]`, sample-parallel,
/// sharing the (already loaded) approximate module across the batch.
///
/// Samples are distributed over [`parallel::num_threads`] scoped threads;
/// results are merged in sample order, so the output (and every map and
/// counter in the report) is identical to the serial row-by-row loop.
///
/// # Panics
///
/// Panics if `x` is not `[B, d]` with `d` matching the layer.
pub fn forward_batch(
    layer: &DualModuleLayer,
    x: &Tensor,
    policy: &SwitchingPolicy,
) -> BatchDualOutput {
    assert_eq!(x.shape().rank(), 2, "batched input must be [B, d]");
    let b = x.shape().dim(0);
    let d = x.shape().dim(1);
    assert_eq!(d, layer.input_dim(), "input width mismatch");
    let n = layer.output_dim();

    // A micro-batcher can legitimately flush an empty batch; it performs
    // no work and reports none (no thread fan-out, no per-batch weight
    // amortization to divide by zero on).
    if b == 0 {
        return BatchDualOutput {
            output: Tensor::zeros(&[0, n]),
            maps: Vec::new(),
            report: SavingsReport::new(),
        };
    }

    let mut output = Tensor::zeros(&[b, n]);
    let mut maps = Vec::with_capacity(b);
    let mut report = SavingsReport::new();
    // Per-sample engines run on pool threads, which do not inherit this
    // thread's recorder scope; re-install it so their EngineFinish events
    // keep the caller's request/batch attribution. Recorder off: no TLS
    // touched.
    let scope = duet_obs::recorder_enabled().then(duet_obs::event::current_scope);
    let results = parallel::map_indexed(b, parallel::num_threads().min(b), |bi| {
        let _scope = scope.map(|(request, tenant)| duet_obs::event::scoped(request, tenant));
        let row = Tensor::from_vec(x.row(bi).to_vec(), &[d]);
        layer.forward(&row, policy)
    });
    for (bi, out) in results.into_iter().enumerate() {
        output.row_mut(bi).copy_from_slice(out.output.data());
        maps.push(out.map);
        report += out.report;
    }
    // the approximate module's weights are loaded once per batch, not
    // once per sample
    report.speculator_weight_bytes /= b as u64;
    // likewise the executor's weight rows are reused across the batch in
    // a weight-stationary schedule: count the union of touched rows
    let mut touched = SwitchingMap::all_insensitive(n);
    for m in &maps {
        touched.union_in_place(m);
    }
    let touched_rows = touched.sensitive_count() as u64;
    report.executor_weight_bytes = touched_rows * d as u64 * 2;
    report.dense_weight_bytes = (n * d * 2) as u64;

    BatchDualOutput {
        output,
        maps,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_nn::Activation;
    use duet_tensor::rng::{self, seeded};

    fn layer() -> (DualModuleLayer, duet_tensor::rng::Rng) {
        let mut r = seeded(5);
        let w = rng::normal(&mut r, &[24, 48], 0.0, 0.2);
        let b = Tensor::zeros(&[24]);
        (
            DualModuleLayer::learn(&w, &b, Activation::Relu, 24, 300, &mut r),
            r,
        )
    }

    #[test]
    fn batch_matches_per_sample() {
        let (layer, mut r) = layer();
        let x = rng::normal(&mut r, &[6, 48], 0.0, 1.0);
        let batch = forward_batch(&layer, &x, &SwitchingPolicy::relu(0.0));
        for bi in 0..6 {
            let row = Tensor::from_vec(x.row(bi).to_vec(), &[48]);
            let single = layer.forward(&row, &SwitchingPolicy::relu(0.0));
            for (a, b) in batch.output.row(bi).iter().zip(single.output.data()) {
                assert_eq!(a, b);
            }
            assert_eq!(batch.maps[bi], single.map);
        }
    }

    #[test]
    fn never_switch_equals_dense_batch() {
        let (layer, mut r) = layer();
        let x = rng::normal(&mut r, &[4, 48], 0.0, 1.0);
        let dual = forward_batch(&layer, &x, &SwitchingPolicy::never_switch());
        for bi in 0..4 {
            let row = Tensor::from_vec(x.row(bi).to_vec(), &[48]);
            let dense = layer.forward_dense(&row);
            for (a, b) in dual.output.row(bi).iter().zip(dense.data()) {
                assert!((a - b).abs() < 1e-5, "row {bi}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn weight_bytes_count_touched_union() {
        let (layer, mut r) = layer();
        let x = rng::normal(&mut r, &[8, 48], 0.0, 1.0);
        let out = forward_batch(&layer, &x, &SwitchingPolicy::relu(0.0));
        // union of touched rows ≤ n, and weight bytes reflect it
        assert!(out.report.executor_weight_bytes <= out.report.dense_weight_bytes);
        let touched = out.report.executor_weight_bytes / (48 * 2);
        assert!(touched <= 24);
        // at least one sample's sensitive count is ≤ union
        let max_single = out
            .maps
            .iter()
            .map(|m| m.sensitive_count() as u64)
            .max()
            .unwrap();
        assert!(touched >= max_single);
    }

    #[test]
    fn empty_batch_returns_empty_output() {
        // A micro-batcher can flush an empty batch: no panic, no
        // zero-thread fan-out, no divide-by-zero amortization.
        let (layer, _) = layer();
        let x = Tensor::zeros(&[0, 48]);
        let out = forward_batch(&layer, &x, &SwitchingPolicy::relu(0.0));
        assert_eq!(out.output.shape().dims(), &[0, 24]);
        assert!(out.output.is_empty());
        assert!(out.maps.is_empty());
        assert_eq!(out.report, SavingsReport::new());
        // the empty aggregate report keeps its neutral ratios (the PR 3
        // empty-report guards cover aggregation over zero samples)
        assert_eq!(out.report.flops_reduction(), 1.0);
        assert_eq!(out.report.weight_access_reduction(), 1.0);
        assert_eq!(out.report.approximate_fraction(), 0.0);
    }

    #[test]
    fn single_sample_batch_matches_forward() {
        let (layer, mut r) = layer();
        let x = rng::normal(&mut r, &[1, 48], 0.0, 1.0);
        let batch = forward_batch(&layer, &x, &SwitchingPolicy::relu(0.0));
        let row = Tensor::from_vec(x.row(0).to_vec(), &[48]);
        let single = layer.forward(&row, &SwitchingPolicy::relu(0.0));
        assert_eq!(batch.output.row(0), single.output.data());
        assert_eq!(batch.maps.len(), 1);
        assert_eq!(batch.maps[0], single.map);
        // B == 1 amortizes nothing: the speculator loads once either way
        assert_eq!(
            batch.report.speculator_weight_bytes,
            single.report.speculator_weight_bytes
        );
    }

    #[test]
    fn aggregate_report_sums_macs() {
        let (layer, mut r) = layer();
        let x = rng::normal(&mut r, &[3, 48], 0.0, 1.0);
        let out = forward_batch(&layer, &x, &SwitchingPolicy::relu(0.0));
        assert_eq!(out.report.dense_macs, 3 * 24 * 48);
        assert_eq!(out.report.outputs_total, 3 * 24);
    }
}
