//! Threshold calibration (the "tuning phase" of §II-A).
//!
//! The paper tunes θ on a validation set to trade model quality against
//! savings (Fig. 10). This module provides the generic sweep machinery:
//! evaluate a quality metric and a [`SavingsReport`] at each candidate
//! threshold, then pick the most aggressive threshold that stays within a
//! quality budget.

use crate::metrics::SavingsReport;

/// One point of a threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The threshold evaluated.
    pub theta: f32,
    /// Task quality at this threshold (higher is better: accuracy,
    /// negative perplexity, …).
    pub quality: f64,
    /// Aggregate savings at this threshold.
    pub report: SavingsReport,
}

impl SweepPoint {
    /// FLOPs-reduction factor at this point.
    pub fn flops_reduction(&self) -> f64 {
        self.report.flops_reduction()
    }
}

/// Evaluates `eval` at every candidate threshold.
///
/// `eval` receives θ and returns `(quality, savings)`.
pub fn sweep<F>(thetas: &[f32], mut eval: F) -> Vec<SweepPoint>
where
    F: FnMut(f32) -> (f64, SavingsReport),
{
    thetas
        .iter()
        .map(|&theta| {
            let (quality, report) = eval(theta);
            SweepPoint {
                theta,
                quality,
                report,
            }
        })
        .collect()
}

/// Picks the sweep point with the highest FLOPs reduction whose quality is
/// at least `min_quality`. Returns `None` if no point qualifies.
pub fn best_within_budget(points: &[SweepPoint], min_quality: f64) -> Option<SweepPoint> {
    points
        .iter()
        .filter(|p| p.quality >= min_quality)
        .max_by(|a, b| {
            a.flops_reduction()
                .partial_cmp(&b.flops_reduction())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .copied()
}

/// Picks the point with the highest *weight-access* reduction within the
/// quality budget (the RNN selection criterion, §IV-B).
pub fn best_memory_within_budget(points: &[SweepPoint], min_quality: f64) -> Option<SweepPoint> {
    points
        .iter()
        .filter(|p| p.quality >= min_quality)
        .max_by(|a, b| {
            a.report
                .weight_access_reduction()
                .partial_cmp(&b.report.weight_access_reduction())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .copied()
}

/// Builds a linearly spaced threshold grid.
///
/// Returns `None` for a degenerate grid (`n < 2` or `lo >= hi`) instead
/// of panicking — grid shapes often come from CLI flags or sweep configs,
/// i.e. caller-supplied data.
pub fn linspace(lo: f32, hi: f32, n: usize) -> Option<Vec<f32>> {
    if n < 2 || lo >= hi {
        return None;
    }
    Some(
        (0..n)
            .map(|i| lo + (hi - lo) * i as f32 / (n - 1) as f32)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_eval(theta: f32) -> (f64, SavingsReport) {
        // quality decreases, savings increase with theta
        let quality = 1.0 - theta as f64 * 0.1;
        let report = SavingsReport {
            dense_macs: 1000,
            executor_macs: (1000.0 / (1.0 + theta as f64)) as u64,
            ..SavingsReport::new()
        };
        (quality, report)
    }

    #[test]
    fn sweep_evaluates_each_theta() {
        let pts = sweep(&[0.0, 1.0, 2.0], fake_eval);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].quality > pts[2].quality);
        assert!(pts[2].flops_reduction() > pts[0].flops_reduction());
    }

    #[test]
    fn budget_selection_respects_quality_floor() {
        let pts = sweep(&linspace(0.0, 5.0, 11).expect("valid grid"), fake_eval);
        let best = best_within_budget(&pts, 0.8).expect("some point qualifies");
        assert!(best.quality >= 0.8);
        // the most aggressive qualifying theta is 2.0
        assert!((best.theta - 2.0).abs() < 1e-6, "theta {}", best.theta);
    }

    #[test]
    fn budget_selection_none_when_impossible() {
        let pts = sweep(&[5.0], fake_eval);
        assert!(best_within_budget(&pts, 0.99).is_none());
    }

    #[test]
    fn memory_budget_selection() {
        let mk = |theta: f32, fetched: u64| SweepPoint {
            theta,
            quality: 1.0,
            report: SavingsReport {
                dense_weight_bytes: 1000,
                executor_weight_bytes: fetched,
                ..SavingsReport::new()
            },
        };
        let pts = vec![mk(1.0, 800), mk(2.0, 400)];
        let best = best_memory_within_budget(&pts, 0.5).unwrap();
        assert_eq!(best.theta, 2.0);
    }

    #[test]
    fn linspace_endpoints() {
        let g = linspace(-1.0, 1.0, 5).expect("valid grid");
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], -1.0);
        assert_eq!(g[4], 1.0);
        assert!((g[2]).abs() < 1e-7);
    }

    #[test]
    fn linspace_rejects_degenerate_grids() {
        assert_eq!(linspace(0.0, 1.0, 1), None);
        assert_eq!(linspace(0.0, 1.0, 0), None);
        assert_eq!(linspace(1.0, 1.0, 5), None);
        assert_eq!(linspace(2.0, 1.0, 5), None);
    }
}
