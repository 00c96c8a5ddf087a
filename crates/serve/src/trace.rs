//! Seeded open-loop request trace generation.
//!
//! An *open-loop* load submits requests on its own schedule regardless of
//! how fast the server drains them — the regime where overload is real
//! and admission control matters. Each tenant draws inter-arrival gaps
//! and inputs from its own sub-generator (seeded from the trace seed and
//! the tenant index), so the trace is a pure function of its config and
//! replays byte-identically anywhere.
//!
//! Two knobs shape the load beyond the uniform default: a
//! [`Pareto`](ArrivalModel::Pareto) inter-arrival model (heavy-tailed
//! gaps — long lulls punctuated by tight request trains, the shape real
//! serving traffic has) and an optional [`Diurnal`] rate modulation
//! (a slow sinusoid over the horizon, the day/night cycle compressed
//! into virtual time). Both feed the same per-tenant generator, so a
//! trace stays a pure function of its config.

use crate::request::{InferenceRequest, ModelId, RequestId, TenantId};
use duet_tensor::rng::{self, seeded};

/// How a tenant draws inter-arrival gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Uniform gap on `[1, 2·mean − 1]`: bursty enough to exercise the
    /// batcher, tame enough for steady-state studies.
    Uniform,
    /// Pareto-distributed gap with tail index `alpha` (> 1 so the mean
    /// is finite), scaled so the mean stays `mean_interarrival_ticks`.
    /// Smaller `alpha` means heavier tails: rare very long lulls paid
    /// for by tight request trains that spike the backlog.
    Pareto {
        /// Tail index (> 1). `1.5` is a typical heavy-tailed setting;
        /// large values converge toward constant gaps.
        alpha: f64,
    },
}

/// Sinusoidal rate-of-day modulation applied on top of a tenant's
/// arrival model: the instantaneous request rate is scaled by
/// `1 + amplitude · sin(2π·t / period_ticks)`, so gaps shrink at the
/// peak and stretch in the trough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Length of one full cycle in virtual ticks (≥ 1).
    pub period_ticks: u64,
    /// Peak rate swing in `[0, 1)`; 0 disables the modulation.
    pub amplitude: f64,
}

/// Load profile of one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantProfile {
    /// Display name (used for per-tenant metric keys and reports).
    pub name: String,
    /// Mean virtual ticks between consecutive requests (≥ 1).
    pub mean_interarrival_ticks: u64,
    /// Inter-arrival gap distribution.
    pub arrivals: ArrivalModel,
}

impl TenantProfile {
    /// A uniform-arrival profile (the pre-existing default shape).
    pub fn uniform(name: &str, mean_interarrival_ticks: u64) -> Self {
        Self {
            name: name.into(),
            mean_interarrival_ticks,
            arrivals: ArrivalModel::Uniform,
        }
    }

    /// A heavy-tailed profile with Pareto tail index `alpha`.
    pub fn pareto(name: &str, mean_interarrival_ticks: u64, alpha: f64) -> Self {
        Self {
            name: name.into(),
            mean_interarrival_ticks,
            arrivals: ArrivalModel::Pareto { alpha },
        }
    }
}

/// Configuration of a generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Seed for the whole trace.
    pub seed: u64,
    /// Arrivals stop at this tick (exclusive).
    pub horizon_ticks: u64,
    /// One profile per tenant; tenant `i` gets [`TenantId`]`(i)`.
    pub tenants: Vec<TenantProfile>,
    /// Optional trace-wide rate-of-day modulation.
    pub diurnal: Option<Diurnal>,
}

/// Generates an open-loop trace over `models`, given as
/// `(ModelId, input_dim)` pairs.
///
/// Requests are sorted by `(arrival_tick, tenant, per-tenant sequence)`
/// and assigned ids in that order, so the returned vector is already in
/// the deterministic submission order the server expects.
///
/// # Panics
///
/// Panics if `models` or `cfg.tenants` is empty, or if any tenant's mean
/// inter-arrival is zero.
pub fn generate(cfg: &TraceConfig, models: &[(ModelId, usize)]) -> Vec<InferenceRequest> {
    assert!(!models.is_empty(), "trace needs at least one model");
    assert!(!cfg.tenants.is_empty(), "trace needs at least one tenant");
    if let Some(d) = cfg.diurnal {
        assert!(d.period_ticks >= 1, "diurnal period must be >= 1 tick");
        assert!(
            (0.0..1.0).contains(&d.amplitude),
            "diurnal amplitude must be in [0, 1)"
        );
    }
    let mut all: Vec<(u64, u32, u64, ModelId, duet_tensor::Tensor)> = Vec::new();
    for (ti, profile) in cfg.tenants.iter().enumerate() {
        let mean = profile.mean_interarrival_ticks;
        assert!(mean >= 1, "mean inter-arrival must be >= 1 tick");
        if let ArrivalModel::Pareto { alpha } = profile.arrivals {
            assert!(alpha > 1.0, "Pareto tail index must exceed 1 (finite mean)");
        }
        // Decorrelate tenants without making one tenant's stream depend
        // on another's draw count.
        let mut r = seeded(cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(ti as u64 + 1)));
        let mut t = 0u64;
        let mut seq = 0u64;
        loop {
            let raw_gap = match profile.arrivals {
                // Uniform gap on [1, 2·mean - 1] has mean `mean` and
                // keeps arrivals bursty enough to exercise the batcher.
                ArrivalModel::Uniform => r.random_range(1..2 * mean) as f64,
                // Inverse-CDF sample of Pareto(x_m, α) with x_m chosen
                // so the mean is `mean`: x_m = mean·(α−1)/α.
                ArrivalModel::Pareto { alpha } => {
                    let x_m = mean as f64 * (alpha - 1.0) / alpha;
                    let u = r.random::<f64>();
                    x_m / (1.0 - u).powf(1.0 / alpha)
                }
            };
            // Diurnal modulation stretches/shrinks the gap by the
            // instantaneous rate at the previous arrival; the uniform
            // model without modulation keeps its exact integer gap
            // (bit-compatible with pre-diurnal traces).
            let gap = match cfg.diurnal {
                None => raw_gap,
                Some(d) => {
                    let phase = t as f64 / d.period_ticks as f64 * std::f64::consts::TAU;
                    raw_gap / (1.0 + d.amplitude * phase.sin())
                }
            };
            t += (gap.round() as u64).max(1);
            if t >= cfg.horizon_ticks {
                break;
            }
            let (model, d) = models[r.random_range(0..models.len())];
            let input = rng::normal(&mut r, &[d], 0.0, 1.0);
            all.push((t, ti as u32, seq, model, input));
            seq += 1;
        }
    }
    all.sort_by_key(|(t, ti, seq, _, _)| (*t, *ti, *seq));
    all.into_iter()
        .enumerate()
        .map(|(id, (t, ti, _, model, input))| InferenceRequest {
            id: RequestId(id as u64),
            tenant: TenantId(ti),
            model,
            input,
            arrival_tick: t,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TraceConfig {
        TraceConfig {
            seed: 42,
            horizon_ticks: 500,
            tenants: vec![
                TenantProfile::uniform("alpha", 7),
                TenantProfile::uniform("beta", 13),
            ],
            diurnal: None,
        }
    }

    #[test]
    fn trace_is_deterministic_and_ordered() {
        let models = [(ModelId(0), 16), (ModelId(1), 16)];
        let a = generate(&cfg(), &models);
        let b = generate(&cfg(), &models);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].arrival_tick <= w[1].arrival_tick);
            assert_eq!(w[0].id.0 + 1, w[1].id.0);
        }
        for r in &a {
            assert!(r.arrival_tick < 500);
            assert_eq!(r.input.len(), 16);
        }
    }

    #[test]
    fn faster_tenant_sends_more() {
        let models = [(ModelId(0), 8)];
        let trace = generate(&cfg(), &models);
        let alpha = trace.iter().filter(|r| r.tenant == TenantId(0)).count();
        let beta = trace.iter().filter(|r| r.tenant == TenantId(1)).count();
        assert!(alpha > beta, "alpha {alpha} should outpace beta {beta}");
    }

    /// Sorted per-tenant gaps of a single-tenant trace.
    fn gaps(trace: &[InferenceRequest]) -> Vec<u64> {
        let mut ticks: Vec<u64> = trace.iter().map(|r| r.arrival_tick).collect();
        ticks.insert(0, 0);
        ticks.windows(2).map(|w| w[1] - w[0]).collect()
    }

    #[test]
    fn pareto_arrivals_are_heavier_tailed_than_uniform() {
        let models = [(ModelId(0), 8)];
        let mk = |arrivals: ArrivalModel| TraceConfig {
            seed: 42,
            horizon_ticks: 20_000,
            tenants: vec![TenantProfile {
                name: "alpha".into(),
                mean_interarrival_ticks: 7,
                arrivals,
            }],
            diurnal: None,
        };
        let pareto = generate(&mk(ArrivalModel::Pareto { alpha: 1.5 }), &models);
        assert_eq!(
            pareto,
            generate(&mk(ArrivalModel::Pareto { alpha: 1.5 }), &models)
        );
        let uniform = generate(&mk(ArrivalModel::Uniform), &models);
        let pareto_max = gaps(&pareto).into_iter().max().unwrap();
        let uniform_max = gaps(&uniform).into_iter().max().unwrap();
        // uniform gaps are bounded by 2·mean − 1; the Pareto tail blows
        // far past that while trains of near-minimum gaps fill the mean
        assert!(uniform_max < 2 * 7);
        assert!(
            pareto_max > 4 * uniform_max,
            "pareto max gap {pareto_max} should dwarf uniform max {uniform_max}"
        );
        let pareto_min_gaps = gaps(&pareto).iter().filter(|&&g| g <= 3).count();
        assert!(pareto_min_gaps > 0, "heavy tail implies tight trains too");
    }

    #[test]
    fn diurnal_modulation_concentrates_load_at_the_peak() {
        let models = [(ModelId(0), 8)];
        let period = 1000u64;
        let mk = |diurnal| TraceConfig {
            seed: 7,
            horizon_ticks: period,
            tenants: vec![TenantProfile::uniform("alpha", 5)],
            diurnal,
        };
        let flat = generate(&mk(None), &models);
        let modulated = generate(
            &mk(Some(Diurnal {
                period_ticks: period,
                amplitude: 0.8,
            })),
            &models,
        );
        // first half-period is the rate peak (sin > 0), second the trough
        let first_half = |tr: &[InferenceRequest]| {
            tr.iter().filter(|r| r.arrival_tick < period / 2).count() as f64 / tr.len() as f64
        };
        assert!(
            first_half(&modulated) > first_half(&flat) + 0.15,
            "peak half should hold the bulk of modulated arrivals: {} vs {}",
            first_half(&modulated),
            first_half(&flat)
        );
    }
}
