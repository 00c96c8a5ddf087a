//! FLOP and memory-access accounting for dual-module execution.
//!
//! Every savings number in the paper's evaluation (Fig. 10's FLOPs
//! reduction, §IV-B's weight-fetch reduction) is derived from these
//! counters.

use std::ops::AddAssign;

/// Operation and byte counters for one dual-module layer execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SavingsReport {
    /// MACs a dense (single-module) execution would perform.
    pub dense_macs: u64,
    /// MACs the Executor actually performed (sensitive outputs only,
    /// minus input-sparsity skips where applicable).
    pub executor_macs: u64,
    /// Low-precision multiply-accumulates performed by the Speculator's
    /// systolic array.
    pub speculator_macs: u64,
    /// Additions performed by the Speculator's dimension-reduction adder
    /// trees.
    pub speculator_adds: u64,
    /// Weight bytes a dense execution would fetch.
    pub dense_weight_bytes: u64,
    /// Weight bytes actually fetched for the Executor (skipped rows are
    /// never loaded, §IV-B).
    pub executor_weight_bytes: u64,
    /// QDR weight + projection bytes fetched for the Speculator.
    pub speculator_weight_bytes: u64,
    /// Total output neurons.
    pub outputs_total: u64,
    /// Output neurons computed exactly by the Executor.
    pub outputs_exact: u64,
}

impl SavingsReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// FLOPs-reduction factor of the accurate path, counting the
    /// Speculator's low-precision work at its native cost ratio
    /// (an INT4 MAC ≈ 1/16 the energy/area of an INT16 MAC; we charge it
    /// 1/16 of a MAC, and an add 1/32).
    pub fn flops_reduction(&self) -> f64 {
        let effective = self.executor_macs as f64
            + self.speculator_macs as f64 / 16.0
            + self.speculator_adds as f64 / 32.0;
        if effective == 0.0 {
            // An empty report reduces nothing — a neutral 1.0, never
            // 0/0. Real work done entirely by free speculation is a
            // genuinely unbounded reduction.
            return if self.dense_macs == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.dense_macs as f64 / effective
    }

    /// Weight-access reduction factor (DRAM traffic for memory-bound
    /// layers).
    pub fn weight_access_reduction(&self) -> f64 {
        let fetched = self.executor_weight_bytes + self.speculator_weight_bytes;
        if fetched == 0 {
            // Same guard as [`Self::flops_reduction`]: no dense traffic
            // and no fetches is a no-op layer, not an infinite saving.
            return if self.dense_weight_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.dense_weight_bytes as f64 / fetched as f64
    }

    /// Fraction of outputs that kept the approximate value.
    pub fn approximate_fraction(&self) -> f64 {
        if self.outputs_total == 0 {
            return 0.0;
        }
        1.0 - self.outputs_exact as f64 / self.outputs_total as f64
    }

    /// Fraction of dense MACs the Executor skipped.
    pub fn mac_skip_fraction(&self) -> f64 {
        if self.dense_macs == 0 {
            return 0.0;
        }
        1.0 - self.executor_macs as f64 / self.dense_macs as f64
    }
}

impl AddAssign for SavingsReport {
    fn add_assign(&mut self, rhs: Self) {
        self.dense_macs += rhs.dense_macs;
        self.executor_macs += rhs.executor_macs;
        self.speculator_macs += rhs.speculator_macs;
        self.speculator_adds += rhs.speculator_adds;
        self.dense_weight_bytes += rhs.dense_weight_bytes;
        self.executor_weight_bytes += rhs.executor_weight_bytes;
        self.speculator_weight_bytes += rhs.speculator_weight_bytes;
        self.outputs_total += rhs.outputs_total;
        self.outputs_exact += rhs.outputs_exact;
    }
}

impl std::iter::Sum for SavingsReport {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        let mut acc = SavingsReport::new();
        for r in iter {
            acc += r;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SavingsReport {
        SavingsReport {
            dense_macs: 1000,
            executor_macs: 250,
            speculator_macs: 160,
            speculator_adds: 320,
            dense_weight_bytes: 2000,
            executor_weight_bytes: 500,
            speculator_weight_bytes: 100,
            outputs_total: 100,
            outputs_exact: 25,
        }
    }

    #[test]
    fn reductions() {
        let r = sample();
        // effective = 250 + 10 + 10 = 270
        assert!((r.flops_reduction() - 1000.0 / 270.0).abs() < 1e-9);
        assert!((r.weight_access_reduction() - 2000.0 / 600.0).abs() < 1e-9);
        assert!((r.approximate_fraction() - 0.75).abs() < 1e-12);
        assert!((r.mac_skip_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn accumulation() {
        let mut a = sample();
        a += sample();
        assert_eq!(a.dense_macs, 2000);
        assert_eq!(a.outputs_exact, 50);
        let s: SavingsReport = vec![sample(), sample(), sample()].into_iter().sum();
        assert_eq!(s.dense_macs, 3000);
    }

    #[test]
    fn empty_report_edge_cases() {
        // A fresh report is a no-op, not an infinite (or NaN) saving:
        // every ratio helper must return a finite neutral value.
        let r = SavingsReport::new();
        assert_eq!(r.approximate_fraction(), 0.0);
        assert_eq!(r.mac_skip_fraction(), 0.0);
        assert_eq!(r.flops_reduction(), 1.0);
        assert_eq!(r.weight_access_reduction(), 1.0);
        assert!(r.flops_reduction().is_finite());
        assert!(r.weight_access_reduction().is_finite());
    }

    #[test]
    fn fully_speculative_real_work_is_unbounded() {
        // dense work done with zero executor cost is a true ∞ reduction
        let r = SavingsReport {
            dense_macs: 1000,
            dense_weight_bytes: 2000,
            outputs_total: 10,
            ..SavingsReport::new()
        };
        assert!(r.flops_reduction().is_infinite());
        assert!(r.weight_access_reduction().is_infinite());
        assert_eq!(r.approximate_fraction(), 1.0);
    }
}
