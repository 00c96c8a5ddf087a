//! Closed-loop θ-control: graduated precision degradation.
//!
//! The guard ([`crate::guard`]) is binary — healthy speculation or
//! bitwise-dense fallback. This module adds the *graduated* rungs in
//! between: a per-projection feedback controller that consumes the
//! guard's EWMA switch-rate signal and nudges θ (and optionally the
//! speculator's weight precision) toward a calibrated setpoint, so
//! saturation and drift move the accuracy–efficiency knob smoothly
//! instead of slamming it.
//!
//! The loop is a proportional controller with three stabilisers:
//!
//! * **hysteresis** — errors inside the deadband cause no actuation, so
//!   θ cannot limit-cycle around the setpoint;
//! * **slew-rate limiting** — one update moves θ by at most
//!   [`ControlConfig::max_step`], so a transient cannot yank the policy
//!   across its whole range;
//! * **clamping** — θ stays inside `[theta_min, theta_max]`; a
//!   persistent error against a pinned θ is *saturation*, which (when a
//!   [`PrecisionLadder`] is configured) escalates to the next-cheaper
//!   speculator bit width rather than being silently ignored.
//!
//! The setpoint itself comes from calibration:
//! [`ControlConfig::from_calibration`] centers the loop on
//! [`Calibration::insensitive_band`], the same band the guard polices.
//! The controller is a pure function of its observation sequence — no
//! clocks, no randomness — so control trajectories replay
//! byte-identically at any thread count.

use crate::calibration::Calibration;
use crate::guard::SwitchRateBand;
use crate::switching::SwitchingPolicy;
use duet_nn::Activation;

/// Speculator weight precisions the controller may walk through when θ
/// saturates: `full_bits` down to `min_bits`, one bit at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecisionLadder {
    /// Bit width at full quality (the paper's default speculator is 4).
    pub full_bits: u32,
    /// Cheapest width the controller may degrade to (≥ 1).
    pub min_bits: u32,
    /// Consecutive saturated updates before dropping one bit.
    pub escalate_after: u32,
    /// Consecutive in-band updates before restoring one bit.
    pub recover_after: u32,
}

impl PrecisionLadder {
    /// The paper-default ladder: INT4 down to INT2, escalating after 4
    /// saturated updates and recovering after 6 healthy ones.
    pub fn int4_to_int2() -> Self {
        Self {
            full_bits: 4,
            min_bits: 2,
            escalate_after: 4,
            recover_after: 6,
        }
    }
}

/// Tuning of one [`ThetaController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Target insensitive fraction (the center of the calibrated band).
    pub setpoint: f64,
    /// Hysteresis half-width: errors with `|e| ≤ deadband` cause no
    /// actuation.
    pub deadband: f64,
    /// Proportional gain in θ-units per unit of switch-rate error.
    pub gain: f32,
    /// Largest |Δθ| one update may apply (slew-rate limit).
    pub max_step: f32,
    /// Lower θ clamp.
    pub theta_min: f32,
    /// Upper θ clamp.
    pub theta_max: f32,
    /// Optional speculator bit-width escalation when θ saturates.
    pub precision: Option<PrecisionLadder>,
}

impl ControlConfig {
    /// A controller centered on `band`: setpoint at the band's midpoint,
    /// deadband at its half-width, unit gain, quarter-θ slew limit, no
    /// θ clamps, no precision ladder.
    pub fn for_band(band: SwitchRateBand) -> Self {
        Self {
            setpoint: 0.5 * (band.lo + band.hi),
            deadband: 0.5 * (band.hi - band.lo),
            gain: 1.0,
            max_step: 0.25,
            theta_min: f32::NEG_INFINITY,
            theta_max: f32::INFINITY,
            precision: None,
        }
    }

    /// Centers the loop on a calibration's operating band
    /// ([`Calibration::insensitive_band`] with `margin`).
    pub fn from_calibration(cal: &Calibration, margin: f64) -> Self {
        Self::for_band(cal.insensitive_band(margin))
    }

    /// Replaces the θ clamps.
    pub fn with_theta_bounds(mut self, theta_min: f32, theta_max: f32) -> Self {
        self.theta_min = theta_min;
        self.theta_max = theta_max;
        self
    }

    /// Installs a precision ladder.
    pub fn with_precision(mut self, ladder: PrecisionLadder) -> Self {
        self.precision = Some(ladder);
        self
    }
}

/// What one [`ThetaController::update`] did, in precedence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// No actuation: no signal yet, error inside the deadband, or a
    /// non-actuating activation.
    Hold,
    /// θ moved by the proportional (slew-limited) step.
    Step,
    /// The step wanted to widen past a pinned θ clamp (counted toward
    /// precision escalation when a ladder is configured).
    Saturated,
    /// Sustained saturation dropped the speculator one bit.
    BitsDropped,
    /// A sustained in-band run restored the speculator one bit.
    BitsRestored,
}

/// Lifetime actuation counters of one controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Updates received (including holds).
    pub updates: u64,
    /// Updates that caused no actuation.
    pub holds: u64,
    /// Updates that moved θ.
    pub steps: u64,
    /// Updates whose proportional step was cut by a θ clamp.
    pub clamped: u64,
    /// Precision escalations (one bit dropped each).
    pub bits_drops: u64,
    /// Precision recoveries (one bit restored each).
    pub bits_restores: u64,
}

/// The θ and bit width a caller should apply after an update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlDecision {
    /// Current θ.
    pub theta: f32,
    /// Current speculator bit width.
    pub bits: u32,
    /// What this update did.
    pub action: ControlAction,
}

/// Which way θ moves to *widen* the activation's insensitive region
/// (mirrors [`crate::switching::SwitchingPolicy`] semantics): ReLU/GELU
/// mark `y' < θ` insensitive so widening raises θ; sigmoid/tanh mark
/// `|y'| > θ` insensitive so widening lowers θ; the Identity
/// magnitude band has no overload convention and is never actuated.
fn widen_direction(activation: Activation) -> f32 {
    match activation {
        Activation::Relu | Activation::Gelu => 1.0,
        Activation::Sigmoid | Activation::Tanh => -1.0,
        Activation::Identity => 0.0,
    }
}

/// Per-projection closed-loop θ-controller. See the module docs.
#[derive(Debug, Clone)]
pub struct ThetaController {
    cfg: ControlConfig,
    activation: Activation,
    theta: f32,
    bits: u32,
    saturated_streak: u32,
    recover_streak: u32,
    last_error: Option<f64>,
    stats: ControlStats,
}

impl ThetaController {
    /// Creates a controller starting from `base` (its θ clamped into the
    /// configured bounds).
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent: negative deadband,
    /// non-positive gain or slew limit, inverted θ bounds, or a
    /// precision ladder with `min_bits` of zero or above `full_bits`.
    pub fn new(base: SwitchingPolicy, cfg: ControlConfig) -> Self {
        assert!(cfg.deadband >= 0.0, "deadband must be non-negative");
        assert!(cfg.gain > 0.0, "gain must be positive");
        assert!(cfg.max_step > 0.0, "max_step must be positive");
        assert!(cfg.theta_min <= cfg.theta_max, "inverted theta bounds");
        if let Some(p) = &cfg.precision {
            assert!(p.min_bits >= 1, "min_bits must be at least 1");
            assert!(p.min_bits <= p.full_bits, "min_bits above full_bits");
        }
        let bits = cfg.precision.as_ref().map_or(4, |p| p.full_bits);
        Self {
            theta: base.theta.clamp(cfg.theta_min, cfg.theta_max),
            activation: base.activation,
            cfg,
            bits,
            saturated_streak: 0,
            recover_streak: 0,
            last_error: None,
            stats: ControlStats::default(),
        }
    }

    /// One controller per calibrated layer, each seeded from that
    /// layer's tuned θ, sharing `template` for every other knob (the
    /// setpoint stays the template's — per-layer switch rates are
    /// calibrated against the same network-level band the guard uses).
    pub fn per_layer(
        cal: &Calibration,
        activation: Activation,
        template: ControlConfig,
    ) -> Vec<ThetaController> {
        cal.thetas
            .iter()
            .map(|&theta| ThetaController::new(SwitchingPolicy { activation, theta }, template))
            .collect()
    }

    /// The configuration this controller runs with.
    pub fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    /// The current switching policy (actuated θ over the base
    /// activation).
    pub fn policy(&self) -> SwitchingPolicy {
        SwitchingPolicy {
            activation: self.activation,
            theta: self.theta,
        }
    }

    /// Current θ.
    pub fn theta(&self) -> f32 {
        self.theta
    }

    /// Current speculator bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Setpoint error of the last update with a signal
    /// (`setpoint − measured`; positive means below-target insensitive
    /// fraction), or `None` when the last update had no signal.
    pub fn last_error(&self) -> Option<f64> {
        self.last_error
    }

    /// Lifetime actuation counters.
    pub fn stats(&self) -> ControlStats {
        self.stats
    }

    /// Feeds one EWMA switch-rate observation into the loop and returns
    /// the θ/bit-width decision.
    ///
    /// `measured` is the guard's EWMA insensitive fraction — `None`
    /// (no signal yet, e.g. cold start) is an explicit hold, **not** a
    /// 0.0 reading. `setpoint_shift` is added to the configured setpoint
    /// before the error is computed (clamped to `[0, 1]`); admission
    /// control uses it to ask for cheaper batches under backlog without
    /// touching θ directly.
    pub fn update(&mut self, measured: Option<f64>, setpoint_shift: f64) -> ControlDecision {
        self.stats.updates += 1;
        let Some(measured) = measured else {
            // Cold start: no observation has reached the guard yet.
            // Holding (rather than treating "no signal" as a 0.0 switch
            // rate) keeps a false full-dense error term out of the loop.
            self.last_error = None;
            self.stats.holds += 1;
            return self.decision(ControlAction::Hold);
        };
        let setpoint = (self.cfg.setpoint + setpoint_shift).clamp(0.0, 1.0);
        let error = setpoint - measured;
        self.last_error = Some(error);

        if error.abs() <= self.cfg.deadband {
            // Inside the deadband: hysteresis holds θ, and sustained
            // health walks any degraded precision back up.
            self.stats.holds += 1;
            self.saturated_streak = 0;
            if let Some(p) = self.cfg.precision {
                if self.bits < p.full_bits {
                    self.recover_streak += 1;
                    if self.recover_streak >= p.recover_after {
                        self.bits += 1;
                        self.recover_streak = 0;
                        self.stats.bits_restores += 1;
                        return self.decision(ControlAction::BitsRestored);
                    }
                }
            }
            return self.decision(ControlAction::Hold);
        }
        self.recover_streak = 0;

        let dir = widen_direction(self.activation);
        if dir == 0.0 {
            self.stats.holds += 1;
            return self.decision(ControlAction::Hold);
        }
        // Proportional step, slew-limited, applied along the widening
        // direction, then clamped.
        #[allow(clippy::cast_possible_truncation)]
        let raw = (self.cfg.gain * error as f32).clamp(-self.cfg.max_step, self.cfg.max_step);
        let proposed = self.theta + dir * raw;
        let clamped = proposed.clamp(self.cfg.theta_min, self.cfg.theta_max);
        let moved = clamped != self.theta;
        let cut = clamped != proposed;
        self.theta = clamped;
        if moved {
            self.stats.steps += 1;
        }
        if cut {
            self.stats.clamped += 1;
        }

        // Saturation: the loop still wants a wider insensitive region,
        // but θ is pinned at its widening clamp.
        let pinned = (dir > 0.0 && self.theta >= self.cfg.theta_max)
            || (dir < 0.0 && self.theta <= self.cfg.theta_min);
        if error > self.cfg.deadband && pinned {
            if let Some(p) = self.cfg.precision {
                self.saturated_streak += 1;
                if self.saturated_streak >= p.escalate_after && self.bits > p.min_bits {
                    self.bits -= 1;
                    self.saturated_streak = 0;
                    self.stats.bits_drops += 1;
                    return self.decision(ControlAction::BitsDropped);
                }
            }
            return self.decision(ControlAction::Saturated);
        }
        self.saturated_streak = 0;
        self.decision(if moved {
            ControlAction::Step
        } else {
            ControlAction::Hold
        })
    }

    fn decision(&self, action: ControlAction) -> ControlDecision {
        ControlDecision {
            theta: self.theta,
            bits: self.bits,
            action,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band() -> SwitchRateBand {
        SwitchRateBand { lo: 0.4, hi: 0.5 }
    }

    fn relu_controller(cfg: ControlConfig) -> ThetaController {
        ThetaController::new(SwitchingPolicy::relu(0.0), cfg)
    }

    /// A monotone synthetic plant: higher θ → higher insensitive
    /// fraction (the ReLU shape), saturating at `cap`.
    fn plant(theta: f32, cap: f64) -> f64 {
        (0.45 + 0.2 * f64::from(theta)).clamp(0.0, cap)
    }

    #[test]
    fn converges_to_setpoint_and_stops_stepping() {
        let cfg = ControlConfig {
            deadband: 0.02,
            gain: 2.0,
            ..ControlConfig::for_band(band())
        };
        let mut c = relu_controller(cfg);
        let mut post_convergence_steps = 0u64;
        let mut converged_at = None;
        for i in 0..200 {
            let steps_before = c.stats().steps;
            c.update(Some(plant(c.theta(), 1.0)), 0.0);
            if converged_at.is_some() {
                post_convergence_steps += c.stats().steps - steps_before;
            } else if c.last_error().is_some_and(|e| e.abs() <= 0.02) {
                converged_at = Some(i);
            }
        }
        let at = converged_at.expect("controller never converged");
        assert!(at < 50, "convergence too slow: {at} updates");
        // Hysteresis: once inside the deadband against a stationary
        // plant, θ must not oscillate.
        assert_eq!(post_convergence_steps, 0, "θ oscillated around setpoint");
    }

    #[test]
    fn no_signal_is_a_hold_not_a_zero_reading() {
        let mut c = relu_controller(ControlConfig::for_band(band()));
        let before = c.theta();
        let d = c.update(None, 0.0);
        assert_eq!(d.action, ControlAction::Hold);
        assert_eq!(c.theta(), before);
        assert_eq!(c.last_error(), None);
        assert_eq!(c.stats().holds, 1);
    }

    #[test]
    fn slew_rate_limits_each_step() {
        let cfg = ControlConfig {
            gain: 100.0, // a huge gain the slew limit must contain
            max_step: 0.1,
            ..ControlConfig::for_band(band())
        };
        let mut c = relu_controller(cfg);
        c.update(Some(0.0), 0.0); // error ≈ 0.45, wants a huge step
        assert!((c.theta() - 0.1).abs() < 1e-6, "theta {}", c.theta());
        c.update(Some(0.0), 0.0);
        assert!((c.theta() - 0.2).abs() < 1e-6, "theta {}", c.theta());
    }

    #[test]
    fn saturating_activations_actuate_downward() {
        let cfg = ControlConfig {
            theta_min: 0.0,
            ..ControlConfig::for_band(band())
        };
        let mut c = ThetaController::new(SwitchingPolicy::tanh(2.0), cfg);
        // Below-target insensitive fraction: tanh widens by *lowering* θ.
        c.update(Some(0.1), 0.0);
        assert!(c.theta() < 2.0);
        // Above-target: quality pullback raises θ.
        let low = c.theta();
        c.update(Some(0.95), 0.0);
        assert!(c.theta() > low);
    }

    #[test]
    fn clamping_pins_theta_and_counts() {
        let cfg = ControlConfig {
            gain: 10.0,
            max_step: 5.0,
            ..ControlConfig::for_band(band())
        }
        .with_theta_bounds(-1.0, 1.0);
        let mut c = relu_controller(cfg);
        for _ in 0..4 {
            c.update(Some(0.0), 0.0);
        }
        assert_eq!(c.theta(), 1.0);
        assert!(c.stats().clamped >= 1);
        // Saturated, but without a ladder the action stays `Saturated`.
        let d = c.update(Some(0.0), 0.0);
        assert_eq!(d.action, ControlAction::Saturated);
        assert_eq!(d.bits, 4);
    }

    #[test]
    fn saturation_walks_the_precision_ladder_and_recovers() {
        let cfg = ControlConfig {
            gain: 10.0,
            max_step: 5.0,
            ..ControlConfig::for_band(band())
        }
        .with_theta_bounds(-1.0, 1.0)
        .with_precision(PrecisionLadder {
            full_bits: 4,
            min_bits: 2,
            escalate_after: 3,
            recover_after: 2,
        });
        let mut c = relu_controller(cfg);
        // Persistent under-target signal pins θ at +1 and then walks
        // 4 → 3 → 2 bits, holding at min_bits.
        let mut actions = Vec::new();
        for _ in 0..12 {
            actions.push(c.update(Some(0.0), 0.0).action);
        }
        assert_eq!(
            actions
                .iter()
                .filter(|a| **a == ControlAction::BitsDropped)
                .count(),
            2
        );
        assert_eq!(c.bits(), 2);
        // Healthy in-band signal restores one bit per `recover_after`
        // run, back to full precision.
        let mid = 0.5 * (band().lo + band().hi);
        let mut restores = 0;
        for _ in 0..8 {
            if c.update(Some(mid), 0.0).action == ControlAction::BitsRestored {
                restores += 1;
            }
        }
        assert_eq!(restores, 2);
        assert_eq!(c.bits(), 4);
        assert_eq!(c.stats().bits_drops, 2);
        assert_eq!(c.stats().bits_restores, 2);
    }

    #[test]
    fn setpoint_shift_requests_a_wider_band() {
        let cfg = ControlConfig {
            deadband: 0.02,
            ..ControlConfig::for_band(band())
        };
        let mut c = relu_controller(cfg);
        let mid = 0.45;
        // At the unshifted setpoint: hold.
        assert_eq!(c.update(Some(mid), 0.0).action, ControlAction::Hold);
        // An overload shift asks for a higher insensitive fraction: the
        // same measurement now reads as below target, so θ widens.
        let d = c.update(Some(mid), 0.3);
        assert_eq!(d.action, ControlAction::Step);
        assert!(c.theta() > 0.0);
        assert!(c.last_error().is_some_and(|e| e > 0.0));
    }

    #[test]
    fn identity_activation_never_actuates() {
        let mut c = ThetaController::new(
            SwitchingPolicy::never_switch(),
            ControlConfig::for_band(band()),
        );
        let d = c.update(Some(0.0), 0.5);
        assert_eq!(d.action, ControlAction::Hold);
        assert_eq!(c.theta(), 0.0);
    }

    #[test]
    fn per_layer_seeds_each_theta_from_calibration() {
        use crate::metrics::SavingsReport;
        let cal = Calibration {
            thetas: vec![0.1, 0.7, -0.2],
            quality: 0.99,
            report: SavingsReport::new(),
        };
        let cfg = ControlConfig::for_band(band());
        let cs = ThetaController::per_layer(&cal, Activation::Relu, cfg);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0].theta(), 0.1);
        assert_eq!(cs[1].theta(), 0.7);
        assert_eq!(cs[2].theta(), -0.2);
    }

    #[test]
    fn deterministic_trajectory() {
        let cfg = ControlConfig::for_band(band()).with_theta_bounds(-1.0, 2.0);
        let run = || {
            let mut c = relu_controller(cfg);
            let mut trail = Vec::new();
            for i in 0..64 {
                let sig = plant(c.theta(), 0.9) + if i % 7 == 0 { 0.05 } else { -0.01 };
                let d = c.update(Some(sig), f64::from(u8::from(i % 5 == 0)) * 0.1);
                trail.push((d.theta.to_bits(), d.bits));
            }
            (trail, c.stats())
        };
        assert_eq!(run(), run());
    }
}
