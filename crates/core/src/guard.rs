//! Speculation watchdog: when to stop trusting the Speculator.
//!
//! DUET's resilience argument (§II) is structural: the approximate module
//! only *steers* execution, and every sensitive output is recomputed
//! exactly — so a broken Speculator should cost efficiency, never
//! correctness. Within a layer the switching rule keeps that promise on
//! its own: each rule is a negated comparison, so a NaN pre-activation
//! stays sensitive and is recomputed ([`crate::SwitchingPolicy::map_slice`]).
//! What a layer cannot see is a Speculator that has drifted: a switch
//! rate far outside the calibrated operating band silently trades
//! quality for skipped work. This module detects that across
//! invocations:
//!
//! * **non-finite detection** — a non-finite output trips the guard
//!   immediately;
//! * **switch-rate anomaly detection** — an EWMA of the per-observation
//!   insensitive fraction is compared against the calibrated band (see
//!   [`crate::calibration::Calibration::insensitive_band`]); a sustained
//!   excursion trips the guard;
//! * **hysteresis** — a tripped guard keeps observing the *raw* policy
//!   map's fraction and clears only after a run of healthy
//!   observations.
//!
//! The guard only decides; its owner acts on the decision. The serving
//! replica (`duet_serve::replica::Replica`) owns one, feeds it each
//! batch's outputs and raw switch rate, and serves its batches through
//! the never-switch path while it is tripped.

/// The calibrated operating band for a layer's insensitive fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchRateBand {
    /// Lowest healthy insensitive fraction (inclusive).
    pub lo: f64,
    /// Highest healthy insensitive fraction (inclusive).
    pub hi: f64,
}

impl SwitchRateBand {
    /// A band that accepts every fraction — useful when only non-finite
    /// detection is wanted.
    pub fn any() -> Self {
        Self { lo: 0.0, hi: 1.0 }
    }

    /// Whether `fraction` lies inside the band.
    pub fn contains(&self, fraction: f64) -> bool {
        (self.lo..=self.hi).contains(&fraction)
    }
}

/// Tuning knobs of the watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Healthy band for the EWMA of the insensitive fraction.
    pub band: SwitchRateBand,
    /// EWMA smoothing factor in (0, 1]; 1.0 means no smoothing.
    pub ewma_alpha: f64,
    /// Consecutive out-of-band observations before a switch-rate trip.
    pub trip_after: u32,
    /// Consecutive healthy observations before a tripped guard clears
    /// (hysteresis; non-finite observations reset the run).
    pub clear_after: u32,
}

impl GuardConfig {
    /// Default watchdog over `band`; its owner serves dense while it is
    /// tripped.
    pub fn fallback_dense(band: SwitchRateBand) -> Self {
        Self {
            band,
            ewma_alpha: 0.2,
            trip_after: 3,
            clear_after: 8,
        }
    }

    /// Replaces the healthy band.
    pub fn with_band(mut self, band: SwitchRateBand) -> Self {
        self.band = band;
        self
    }
}

/// Running counters of one guard (monotonic over its lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Observations made (one per [`SpeculationGuard::observe`]).
    pub checks: u64,
    /// Healthy→tripped transitions.
    pub trips: u64,
}

/// What one observation decided; its owner emits the trip event.
#[derive(Debug, Clone, Copy)]
pub struct GuardObservation {
    /// The observation carried a non-finite value.
    pub nonfinite: bool,
    /// The guard transitioned healthy→tripped on this observation.
    pub newly_tripped: bool,
}

/// One speculation watchdog. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct SpeculationGuard {
    config: GuardConfig,
    ewma: Option<f64>,
    anomalous_streak: u32,
    healthy_streak: u32,
    tripped: bool,
    stats: GuardStats,
}

impl SpeculationGuard {
    /// Creates a guard with `config`.
    pub fn new(config: GuardConfig) -> Self {
        Self {
            config,
            ewma: None,
            anomalous_streak: 0,
            healthy_streak: 0,
            tripped: false,
            stats: GuardStats::default(),
        }
    }

    /// Whether the guard is currently tripped.
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Lifetime counters.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// Total healthy→tripped transitions so far.
    pub fn trips(&self) -> u64 {
        self.stats.trips
    }

    /// Current EWMA of the insensitive fraction, if any finite observation
    /// has been made.
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }

    /// Trips the guard from outside the observation path — the fault-
    /// injection hook chaos campaigns use to quarantine a healthy
    /// replica. Counted in [`GuardStats::trips`] like an observed trip;
    /// recovery goes through the normal hysteretic clear (a run of
    /// [`GuardConfig::clear_after`] healthy observations). A no-op when
    /// already tripped.
    pub fn force_trip(&mut self) {
        if self.tripped {
            return;
        }
        self.tripped = true;
        self.healthy_streak = 0;
        self.stats.trips += 1;
    }

    /// Feeds one observation into the watchdog: whether the observed
    /// outputs contained a non-finite value, and the *raw* policy map's
    /// insensitive fraction (what the policy chose, not what ran, so a
    /// tripped guard can observe recovery).
    pub fn observe(&mut self, nonfinite: bool, insensitive_fraction: f64) -> GuardObservation {
        self.stats.checks += 1;

        let anomalous = if nonfinite {
            true
        } else {
            // EWMA only over finite observations; a non-finite round says
            // nothing about the switch rate.
            let alpha = self.config.ewma_alpha.clamp(f64::EPSILON, 1.0);
            let ewma = match self.ewma {
                Some(prev) => prev + alpha * (insensitive_fraction - prev),
                None => insensitive_fraction,
            };
            self.ewma = Some(ewma);
            !self.config.band.contains(ewma)
        };

        let was_tripped = self.tripped;
        if anomalous {
            self.anomalous_streak = self.anomalous_streak.saturating_add(1);
            self.healthy_streak = 0;
            // A non-finite output would corrupt kept values directly —
            // trip immediately rather than waiting out a streak.
            if nonfinite || self.anomalous_streak >= self.config.trip_after {
                self.tripped = true;
            }
        } else {
            self.healthy_streak = self.healthy_streak.saturating_add(1);
            self.anomalous_streak = 0;
            if self.tripped && self.healthy_streak >= self.config.clear_after {
                self.tripped = false;
                self.healthy_streak = 0;
            }
        }

        let newly_tripped = self.tripped && !was_tripped;
        if newly_tripped {
            self.stats.trips += 1;
        }
        GuardObservation {
            nonfinite,
            newly_tripped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band() -> SwitchRateBand {
        SwitchRateBand { lo: 0.2, hi: 0.6 }
    }

    #[test]
    fn nonfinite_trips_immediately() {
        let mut g = SpeculationGuard::new(GuardConfig::fallback_dense(band()));
        let obs = g.observe(true, 0.4);
        assert!(obs.newly_tripped && obs.nonfinite);
        assert!(g.is_tripped());
        assert_eq!(g.trips(), 1);
        assert_eq!(g.ewma(), None, "a non-finite round leaves the EWMA alone");
    }

    #[test]
    fn out_of_band_needs_a_streak() {
        let cfg = GuardConfig {
            ewma_alpha: 1.0, // no smoothing: each observation is the EWMA
            ..GuardConfig::fallback_dense(band())
        };
        let mut g = SpeculationGuard::new(cfg);
        assert!(!g.observe(false, 0.95).newly_tripped);
        assert!(!g.observe(false, 0.95).newly_tripped);
        assert!(!g.is_tripped());
        let third = g.observe(false, 0.95);
        assert!(third.newly_tripped && !third.nonfinite);
        assert!(g.is_tripped());
        assert_eq!(g.trips(), 1);
        assert_eq!(g.stats().checks, 3);
    }

    #[test]
    fn hysteresis_clears_after_healthy_run() {
        let cfg = GuardConfig {
            ewma_alpha: 1.0,
            clear_after: 2,
            ..GuardConfig::fallback_dense(band())
        };
        let mut g = SpeculationGuard::new(cfg);
        for _ in 0..3 {
            g.observe(false, 0.95);
        }
        assert!(g.is_tripped());
        // one healthy observation is not enough (hysteresis) ...
        g.observe(false, 0.4);
        assert!(g.is_tripped());
        // ... the second clears the trip
        g.observe(false, 0.4);
        assert!(!g.is_tripped());
        // and a fresh excursion can trip again
        for _ in 0..3 {
            g.observe(false, 0.0);
        }
        assert!(g.is_tripped());
        assert_eq!(g.trips(), 2);
    }

    #[test]
    fn ewma_smooths_single_excursions() {
        let cfg = GuardConfig {
            ewma_alpha: 0.1,
            trip_after: 1,
            ..GuardConfig::fallback_dense(band())
        };
        let mut g = SpeculationGuard::new(cfg);
        g.observe(false, 0.4);
        // one wild observation barely moves the smoothed rate, so even a
        // guard that trips on the first anomaly stays healthy
        g.observe(false, 1.0);
        assert!(!g.is_tripped(), "ewma {:?}", g.ewma());
    }

    #[test]
    fn force_trip_counts_once_and_clears_hysteretically() {
        let cfg = GuardConfig {
            ewma_alpha: 1.0,
            clear_after: 2,
            ..GuardConfig::fallback_dense(band())
        };
        let mut g = SpeculationGuard::new(cfg);
        g.force_trip();
        g.force_trip(); // idempotent while tripped
        assert!(g.is_tripped());
        assert_eq!(g.trips(), 1);
        // recovery is the normal healthy-streak clear
        g.observe(false, 0.4);
        assert!(g.is_tripped());
        g.observe(false, 0.4);
        assert!(!g.is_tripped());
    }
}
