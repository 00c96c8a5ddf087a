//! Speculation watchdog: graceful degradation when the Speculator
//! misbehaves.
//!
//! DUET's resilience argument (§II) is structural: the approximate module
//! only *steers* execution, and every sensitive output is recomputed
//! exactly — so a broken Speculator should cost efficiency, never
//! correctness. That argument has a hole in deployment: a collapsed
//! approximate module (non-finite outputs from corrupted QDR weights, or a
//! switch rate drifted far outside the calibrated operating band) silently
//! degrades *quality* because the insensitive outputs keep its garbage
//! values. This module closes the hole with a per-layer watchdog:
//!
//! * **non-finite detection** — any NaN/∞ in the approximate
//!   pre-activations trips the guard immediately;
//! * **switch-rate anomaly detection** — an EWMA of the per-invocation
//!   insensitive fraction is compared against the calibrated band (see
//!   [`crate::calibration::Calibration::insensitive_band`]); a sustained
//!   excursion trips the guard;
//! * **graceful degradation** — a tripped layer under
//!   [`DegradationPolicy::FallbackDense`] reroutes through the existing
//!   bitwise-dense path by forcing an all-sensitive switching map, so the
//!   Executor recomputes every output exactly. Recovery is hysteretic: the
//!   guard keeps observing the *raw* policy map while tripped and clears
//!   only after a run of healthy observations.
//!
//! The guard is caller-owned and long-lived (one per layer/cell), threaded
//! into [`crate::SpeculationEngine::speculate_guarded`] — the single call
//! site that also emits all `core.guard.*` telemetry. With
//! [`DegradationPolicy::Off`] the guarded path is byte-for-byte the
//! unguarded one.

/// What a tripped guard does to the layer it watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Watchdog disabled: no checks, no telemetry, bitwise identical to
    /// the unguarded path.
    Off,
    /// Detect and count anomalies/trips but never alter execution.
    WarnOnly,
    /// On trip, force an all-sensitive switching map so the layer runs
    /// bitwise-dense until the guard clears.
    FallbackDense,
}

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
    /// What a trip does.
    pub policy: DegradationPolicy,
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
    /// A disabled guard.
    pub fn off() -> Self {
        Self {
            policy: DegradationPolicy::Off,
            band: SwitchRateBand::any(),
            ewma_alpha: 0.2,
            trip_after: 3,
            clear_after: 8,
        }
    }

    /// Default watchdog with dense fallback over `band`.
    pub fn fallback_dense(band: SwitchRateBand) -> Self {
        Self {
            policy: DegradationPolicy::FallbackDense,
            ..Self::off()
        }
        .with_band(band)
    }

    /// Default watchdog that only counts anomalies over `band`.
    pub fn warn_only(band: SwitchRateBand) -> Self {
        Self {
            policy: DegradationPolicy::WarnOnly,
            ..Self::off()
        }
        .with_band(band)
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
    /// Observations made (one per guarded `speculate`).
    pub checks: u64,
    /// Observations containing a non-finite approximate pre-activation.
    pub nonfinite: u64,
    /// Observations flagged anomalous (non-finite or out-of-band EWMA).
    pub anomalies: u64,
    /// Healthy→tripped transitions.
    pub trips: u64,
    /// Switching maps replaced by the all-sensitive fallback map.
    pub fallback_maps: u64,
}

/// What one observation decided; consumed by the engine to build the map
/// and emit telemetry.
#[derive(Debug, Clone, Copy)]
pub struct GuardObservation {
    /// This observation was anomalous.
    pub anomalous: bool,
    /// The approximate pre-activations contained a non-finite value.
    pub nonfinite: bool,
    /// The guard transitioned healthy→tripped on this observation.
    pub newly_tripped: bool,
    /// The switching map must be replaced by the all-sensitive fallback.
    pub fallback: bool,
}

/// Per-layer speculation watchdog. See the module docs for semantics.
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

    /// The guard's configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
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

    /// Clears the trip state and streaks (counters are kept).
    pub fn reset(&mut self) {
        self.ewma = None;
        self.anomalous_streak = 0;
        self.healthy_streak = 0;
        self.tripped = false;
    }

    /// Feeds one layer invocation into the watchdog: whether the
    /// approximate pre-activations contained a non-finite value, and the
    /// *raw* policy map's insensitive fraction (pre-override, so a tripped
    /// guard can observe recovery).
    ///
    /// Called by [`crate::SpeculationEngine::speculate_guarded`]; exposed
    /// for tests and custom integrations.
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
            // A non-finite Speculator output would corrupt kept values
            // directly — trip immediately rather than waiting out a
            // streak.
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
        if nonfinite {
            self.stats.nonfinite += 1;
        }
        if anomalous {
            self.stats.anomalies += 1;
        }
        if newly_tripped {
            self.stats.trips += 1;
        }
        let fallback =
            self.tripped && matches!(self.config.policy, DegradationPolicy::FallbackDense);
        if fallback {
            self.stats.fallback_maps += 1;
        }

        GuardObservation {
            anomalous,
            nonfinite,
            newly_tripped,
            fallback,
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
        assert!(obs.newly_tripped && obs.fallback && obs.nonfinite);
        assert!(g.is_tripped());
        assert_eq!(g.trips(), 1);
        assert_eq!(g.stats().nonfinite, 1);
    }

    #[test]
    fn out_of_band_needs_a_streak() {
        let cfg = GuardConfig {
            ewma_alpha: 1.0, // no smoothing: each observation is the EWMA
            ..GuardConfig::fallback_dense(band())
        };
        let mut g = SpeculationGuard::new(cfg);
        assert!(!g.observe(false, 0.95).fallback);
        assert!(!g.observe(false, 0.95).fallback);
        let third = g.observe(false, 0.95);
        assert!(third.newly_tripped && third.fallback);
        assert_eq!(g.trips(), 1);
        assert_eq!(g.stats().anomalies, 3);
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
        assert!(g.observe(false, 0.4).fallback);
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
    fn warn_only_never_falls_back() {
        let cfg = GuardConfig {
            ewma_alpha: 1.0,
            ..GuardConfig::warn_only(band())
        };
        let mut g = SpeculationGuard::new(cfg);
        let obs = g.observe(true, 0.4);
        assert!(obs.newly_tripped && !obs.fallback);
        assert!(g.is_tripped());
        assert_eq!(g.stats().fallback_maps, 0);
    }

    #[test]
    fn ewma_smooths_single_excursions() {
        let cfg = GuardConfig {
            ewma_alpha: 0.1,
            ..GuardConfig::fallback_dense(band())
        };
        let mut g = SpeculationGuard::new(cfg);
        g.observe(false, 0.4);
        // one wild observation barely moves the smoothed rate
        let obs = g.observe(false, 1.0);
        assert!(!obs.anomalous, "ewma {:?}", g.ewma());
        assert!(!g.is_tripped());
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
        assert!(g.observe(false, 0.4).fallback);
        g.observe(false, 0.4);
        assert!(!g.is_tripped());
    }

    #[test]
    fn reset_keeps_counters() {
        let mut g = SpeculationGuard::new(GuardConfig::fallback_dense(band()));
        g.observe(true, 0.4);
        assert!(g.is_tripped());
        g.reset();
        assert!(!g.is_tripped());
        assert_eq!(g.trips(), 1);
        assert_eq!(g.ewma(), None);
    }
}
