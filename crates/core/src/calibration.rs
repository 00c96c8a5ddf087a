//! Per-layer threshold calibration against a global quality budget.
//!
//! §II-A: "the threshold can be obtained by tuning with the validation
//! set." A network has one θ per layer; greedily calibrating layer by
//! layer — most savings first, re-checking the end-to-end quality after
//! each move — is the standard knob-turning procedure and what this
//! module automates on top of [`crate::tuning`].

use crate::guard::SwitchRateBand;
use crate::metrics::SavingsReport;

/// A calibrated per-layer threshold assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Chosen threshold per layer.
    pub thetas: Vec<f32>,
    /// End-to-end quality at the chosen assignment.
    pub quality: f64,
    /// Aggregate savings at the chosen assignment.
    pub report: SavingsReport,
}

impl Calibration {
    /// Derives the healthy switch-rate operating band for a
    /// [`crate::guard::SpeculationGuard`]: the insensitive fraction
    /// observed at the calibrated assignment, widened by ±`margin`
    /// (clamped to `[0, 1]`). A deployed layer whose smoothed switch rate
    /// leaves this band is running far from where it was validated.
    pub fn insensitive_band(&self, margin: f64) -> SwitchRateBand {
        let center = self.report.approximate_fraction();
        SwitchRateBand {
            lo: (center - margin).max(0.0),
            hi: (center + margin).min(1.0),
        }
    }
}

/// Greedy coordinate-ascent calibration.
///
/// * `layers` — number of layers (thresholds) to calibrate,
/// * `candidates` — the candidate θ grid, ordered from conservative to
///   aggressive (index 0 must be the "never switch" extreme),
/// * `evaluate` — maps a full threshold assignment to
///   `(quality, savings)`; called O(layers × candidates) times,
/// * `min_quality` — the quality floor the result must respect.
///
/// Starting from all-conservative, each layer in turn is pushed to the
/// most aggressive candidate that keeps end-to-end quality above the
/// floor. Returns the final assignment (which always satisfies the floor
/// if the all-conservative assignment does; otherwise returns `None`).
/// An empty candidate grid is infeasible and also returns `None`.
pub fn calibrate<F>(
    layers: usize,
    candidates: &[f32],
    mut evaluate: F,
    min_quality: f64,
) -> Option<Calibration>
where
    F: FnMut(&[f32]) -> (f64, SavingsReport),
{
    let first = *candidates.first()?;
    let mut thetas = vec![first; layers];
    let (q0, r0) = evaluate(&thetas);
    if q0 < min_quality {
        return None;
    }
    let mut best = Calibration {
        thetas: thetas.clone(),
        quality: q0,
        report: r0,
    };

    for layer in 0..layers {
        // try successively more aggressive candidates for this layer
        for &cand in &candidates[1..] {
            let mut trial = best.thetas.clone();
            trial[layer] = cand;
            let (q, r) = evaluate(&trial);
            if q >= min_quality {
                best = Calibration {
                    thetas: trial,
                    quality: q,
                    report: r,
                };
            } else {
                break; // candidates are ordered; further ones only worse
            }
        }
        thetas.clone_from(&best.thetas);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy two-layer "network": quality drops by 0.05·θ per layer,
    /// savings grow linearly; layer 1 is twice as sensitive.
    fn toy_eval(thetas: &[f32]) -> (f64, SavingsReport) {
        let quality = 1.0 - 0.05 * thetas[0] as f64 - 0.10 * thetas[1] as f64;
        let saved = (thetas[0] + thetas[1]) as f64;
        let report = SavingsReport {
            dense_macs: 1000,
            executor_macs: (1000.0 / (1.0 + saved)) as u64,
            ..SavingsReport::new()
        };
        (quality, report)
    }

    #[test]
    fn calibrates_within_budget() {
        let grid = [0.0f32, 1.0, 2.0, 3.0];
        let cal = calibrate(2, &grid, toy_eval, 0.70).expect("feasible");
        assert!(cal.quality >= 0.70);
        // greedy should exploit the less sensitive layer 0 more
        assert!(cal.thetas[0] >= cal.thetas[1]);
        // must beat the all-conservative baseline on savings
        let (_, base) = toy_eval(&[0.0, 0.0]);
        assert!(cal.report.flops_reduction() > base.flops_reduction());
    }

    #[test]
    fn infeasible_floor_returns_none() {
        let grid = [0.0f32, 1.0];
        assert!(calibrate(2, &grid, toy_eval, 1.5).is_none());
    }

    #[test]
    fn empty_candidate_grid_returns_none() {
        assert!(calibrate(2, &[], toy_eval, 0.0).is_none());
    }

    #[test]
    fn insensitive_band_centers_on_approximate_fraction() {
        let cal = Calibration {
            thetas: vec![1.0],
            quality: 0.9,
            report: SavingsReport {
                outputs_total: 100,
                outputs_exact: 60, // 40% kept approximate
                ..SavingsReport::new()
            },
        };
        let band = cal.insensitive_band(0.15);
        assert!((band.lo - 0.25).abs() < 1e-9);
        assert!((band.hi - 0.55).abs() < 1e-9);
        assert!(band.contains(0.4));
        // clamping at the edges
        let wide = cal.insensitive_band(0.9);
        assert_eq!(wide.lo, 0.0);
        assert_eq!(wide.hi, 1.0);
    }

    #[test]
    fn tight_floor_keeps_conservative() {
        let grid = [0.0f32, 1.0, 2.0];
        let cal = calibrate(2, &grid, toy_eval, 0.9999).expect("baseline ok");
        assert_eq!(cal.thetas, vec![0.0, 0.0]);
    }

    #[test]
    fn single_layer_matches_scan() {
        let grid = [0.0f32, 1.0, 2.0, 3.0];
        let cal = calibrate(1, &grid, toy_eval_single, 0.86).unwrap();
        // quality = 1 − 0.05θ ≥ 0.86 ⇒ θ ≤ 2.8 ⇒ best grid point 2.0
        assert_eq!(cal.thetas, vec![2.0]);
    }

    fn toy_eval_single(thetas: &[f32]) -> (f64, SavingsReport) {
        let quality = 1.0 - 0.05 * thetas[0] as f64;
        let report = SavingsReport {
            dense_macs: 100,
            executor_macs: (100.0 / (1.0 + thetas[0] as f64)) as u64,
            ..SavingsReport::new()
        };
        (quality, report)
    }
}
