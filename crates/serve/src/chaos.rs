//! Seeded chaos campaigns against the serving stack.
//!
//! Robustness claims need adversarial evidence: the closed-loop
//! θ-controller ([`duet_core::control`]) promises graduated degradation
//! and recovery, and this module manufactures the faults that test it —
//! replica guard trips, speculator weight corruption mid-flight,
//! batcher stalls, and backlog spikes. A campaign is *planned* up front
//! ([`plan`]): every event draws its tick and parameters from its own
//! sub-generator, seeded from the campaign seed and the event's
//! (category, instance) index — the same index-derived-seed discipline
//! as `duet-sim`'s `FaultCampaign` — so the plan, and therefore the
//! whole chaos run, is byte-identical at any `DUET_NUM_THREADS`.
//!
//! Application happens inside the server's virtual-time loop
//! ([`crate::server::DuetServer::run_trace_chaos`]): events fire when
//! the clock reaches their tick, before arrivals and dispatch, so a
//! fault lands at the same point of the schedule on every replay.

use crate::replica::ModelVariant;
use duet_tensor::rng::seeded;

/// What a chaos event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// Force-trip one replica's guard (as if it had observed a burst of
    /// anomalies): the replica serves dense and is quarantined until the
    /// guard clears hysteretically.
    GuardTrip {
        /// Replica index (taken modulo the pool size when applied).
        replica: usize,
    },
    /// Flip bits in the shared speculator weights of one FC-layer model
    /// — every replica of the model sees the corruption.
    CorruptSpeculator {
        /// Model index (must be an FC-layer model).
        model: usize,
        /// Per-stored-bit flip probability.
        rate: f64,
        /// Seed of the bit-flip stream.
        seed: u64,
    },
    /// Restore the model's pristine speculator weights (the repair that
    /// follows a [`ChaosKind::CorruptSpeculator`] after the configured
    /// delay).
    RepairSpeculator {
        /// Model index.
        model: usize,
    },
    /// Freeze dispatch for `ticks` virtual ticks; queues hold, nothing
    /// drops, and the backlog surge exercises admission + control.
    BatcherStall {
        /// Stall duration in ticks.
        ticks: u64,
    },
    /// Inject a burst of well-formed requests from one tenant at the
    /// event tick.
    BacklogSpike {
        /// Tenant index.
        tenant: usize,
        /// Model index the burst targets.
        model: usize,
        /// Number of requests in the burst.
        count: usize,
        /// Seed of the burst's input generator.
        seed: u64,
    },
}

/// One planned fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// Virtual tick at which the event fires (applied when the server
    /// clock first reaches it).
    pub tick: u64,
    /// What happens.
    pub kind: ChaosKind,
}

/// Campaign shape: how many of each fault class to plan over a horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Campaign seed; everything below derives from it.
    pub seed: u64,
    /// Events are placed in `[horizon/10, horizon)` — the warm-up tenth
    /// is left fault-free so the controller reaches steady state first.
    pub horizon_ticks: u64,
    /// Forced guard trips.
    pub guard_trips: usize,
    /// Speculator corruptions (each paired with a repair).
    pub corruptions: usize,
    /// Per-stored-bit flip probability of each corruption.
    pub corruption_rate: f64,
    /// Ticks between a corruption and its repair.
    pub repair_delay_ticks: u64,
    /// Dispatch freezes.
    pub stalls: usize,
    /// Duration of each freeze.
    pub stall_ticks: u64,
    /// Request bursts.
    pub spikes: usize,
    /// Requests per burst.
    pub spike_requests: usize,
}

impl ChaosConfig {
    /// A campaign with one event of every class — the smallest plan
    /// that still exercises every degradation path.
    pub fn light(seed: u64, horizon_ticks: u64) -> Self {
        Self {
            seed,
            horizon_ticks,
            guard_trips: 1,
            corruptions: 1,
            corruption_rate: 0.02,
            repair_delay_ticks: horizon_ticks / 10,
            stalls: 1,
            stall_ticks: horizon_ticks / 20,
            spikes: 1,
            spike_requests: 24,
        }
    }
}

/// What the planner needs to know about the server it targets
/// ([`crate::server::DuetServer::chaos_topology`] provides it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosTopology {
    /// Total replicas in the pool.
    pub replicas: usize,
    /// Deployed models.
    pub models: usize,
    /// Indices of FC-layer models (the only corruption targets — the
    /// transformer block has no per-layer speculator write-back).
    pub layer_models: Vec<usize>,
    /// Tenants the server was built with.
    pub tenants: usize,
}

/// Counters of what a campaign actually did when applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Guards force-tripped.
    pub guard_trips: u64,
    /// Corruption events applied.
    pub corruptions: u64,
    /// Weight bits flipped across all corruptions.
    pub flipped_bits: u64,
    /// Repairs applied.
    pub repairs: u64,
    /// Stall events applied.
    pub stalls: u64,
    /// Requests injected by backlog spikes.
    pub spike_requests: u64,
}

/// The per-event seed: campaign seed, splitmix-style decorrelated by
/// fault category and instance index — never by anything execution-order
/// dependent, so the plan is a pure function of `(cfg, topology)`.
fn event_seed(seed: u64, category: u64, instance: u64) -> u64 {
    seed.wrapping_add((category + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((instance + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// Plans a campaign: a tick-sorted fault schedule, pure in
/// `(cfg, topology)`.
///
/// # Panics
///
/// Panics if the horizon is shorter than 10 ticks, the topology is
/// empty, or corruptions are requested against a topology with no
/// FC-layer model.
pub fn plan(cfg: &ChaosConfig, topology: &ChaosTopology) -> Vec<ChaosEvent> {
    assert!(cfg.horizon_ticks >= 10, "horizon too short for a campaign");
    assert!(topology.replicas >= 1, "topology has no replicas");
    assert!(topology.models >= 1, "topology has no models");
    assert!(topology.tenants >= 1, "topology has no tenants");
    assert!(
        cfg.corruptions == 0 || !topology.layer_models.is_empty(),
        "corruption events need at least one FC-layer model"
    );
    assert!(
        (0.0..=1.0).contains(&cfg.corruption_rate),
        "corruption rate must be in [0, 1]"
    );
    let lo = cfg.horizon_ticks / 10;
    let mut events: Vec<(u64, u64, u64, ChaosKind)> = Vec::new();
    let draw_tick = |r: &mut duet_tensor::rng::Rng| lo + r.random_range(0..cfg.horizon_ticks - lo);
    for ei in 0..cfg.guard_trips {
        let mut r = seeded(event_seed(cfg.seed, 0, ei as u64));
        let tick = draw_tick(&mut r);
        let replica = r.random_range(0..topology.replicas);
        events.push((tick, 0, ei as u64, ChaosKind::GuardTrip { replica }));
    }
    for ei in 0..cfg.corruptions {
        let seed = event_seed(cfg.seed, 1, ei as u64);
        let mut r = seeded(seed);
        let tick = draw_tick(&mut r);
        let model = topology.layer_models[r.random_range(0..topology.layer_models.len())];
        events.push((
            tick,
            1,
            ei as u64,
            ChaosKind::CorruptSpeculator {
                model,
                rate: cfg.corruption_rate,
                seed,
            },
        ));
        // the repair fires after the delay but inside the horizon, so
        // every corruption has a recovery to measure
        let repair = (tick + cfg.repair_delay_ticks).min(cfg.horizon_ticks - 1);
        events.push((repair, 2, ei as u64, ChaosKind::RepairSpeculator { model }));
    }
    for ei in 0..cfg.stalls {
        let mut r = seeded(event_seed(cfg.seed, 3, ei as u64));
        let tick = draw_tick(&mut r);
        events.push((
            tick,
            3,
            ei as u64,
            ChaosKind::BatcherStall {
                ticks: cfg.stall_ticks,
            },
        ));
    }
    for ei in 0..cfg.spikes {
        let seed = event_seed(cfg.seed, 4, ei as u64);
        let mut r = seeded(seed);
        let tick = draw_tick(&mut r);
        let tenant = r.random_range(0..topology.tenants);
        let model = r.random_range(0..topology.models);
        events.push((
            tick,
            4,
            ei as u64,
            ChaosKind::BacklogSpike {
                tenant,
                model,
                count: cfg.spike_requests,
                seed,
            },
        ));
    }
    events.sort_by_key(|&(tick, cat, inst, _)| (tick, cat, inst));
    events
        .into_iter()
        .map(|(tick, _, _, kind)| ChaosEvent { tick, kind })
        .collect()
}

/// Flips each stored bit of an FC-layer model's speculator weights with
/// probability `rate`
/// ([`duet_tensor::fixed::Int4Tensor::with_flipped_bits`] on a generator
/// seeded from `seed`, the corruption model of `duet-sim`'s fault
/// injector) and reassembles the approximate module around the
/// corrupted tensor. Returns the number of flipped bits; `None` targets
/// (transformer blocks have no speculator write-back) leave the model
/// untouched and return 0.
pub fn corrupt_variant(model: &mut ModelVariant, rate: f64, seed: u64) -> u64 {
    let ModelVariant::Layer(layer) = model else {
        return 0;
    };
    let approx = layer.approx();
    let (corrupted, flips) = approx.weights().with_flipped_bits(rate, &mut seeded(seed));
    let rebuilt = duet_core::ApproxLinear::from_quantized(
        approx.projection().clone(),
        corrupted,
        approx.bias().clone(),
        *approx.config(),
    );
    layer.set_approx(rebuilt);
    flips
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_core::dual_layer::DualModuleLayer;
    use duet_nn::Activation;
    use duet_tensor::{rng, Tensor};

    fn topology() -> ChaosTopology {
        ChaosTopology {
            replicas: 4,
            models: 2,
            layer_models: vec![0],
            tenants: 2,
        }
    }

    #[test]
    fn plan_is_deterministic_sorted_and_complete() {
        let cfg = ChaosConfig {
            seed: 99,
            horizon_ticks: 1000,
            guard_trips: 3,
            corruptions: 2,
            corruption_rate: 0.01,
            repair_delay_ticks: 100,
            stalls: 2,
            stall_ticks: 40,
            spikes: 2,
            spike_requests: 16,
        };
        let a = plan(&cfg, &topology());
        let b = plan(&cfg, &topology());
        assert_eq!(a, b);
        assert_eq!(a.len(), 3 + 2 * 2 + 2 + 2);
        assert!(a.windows(2).all(|w| w[0].tick <= w[1].tick));
        let lo = cfg.horizon_ticks / 10;
        for ev in &a {
            assert!(ev.tick >= lo && ev.tick < cfg.horizon_ticks);
            match ev.kind {
                ChaosKind::GuardTrip { replica } => assert!(replica < 4),
                ChaosKind::CorruptSpeculator { model, .. } => assert_eq!(model, 0),
                ChaosKind::RepairSpeculator { model } => assert_eq!(model, 0),
                ChaosKind::BatcherStall { ticks } => assert_eq!(ticks, 40),
                ChaosKind::BacklogSpike {
                    tenant,
                    model,
                    count,
                    ..
                } => {
                    assert!(tenant < 2 && model < 2);
                    assert_eq!(count, 16);
                }
            }
        }
        // every corruption has a repair no earlier than itself
        let corrupt_tick = a
            .iter()
            .find(|e| matches!(e.kind, ChaosKind::CorruptSpeculator { .. }))
            .map(|e| e.tick)
            .expect("plan has corruption");
        let repair_tick = a
            .iter()
            .find(|e| matches!(e.kind, ChaosKind::RepairSpeculator { .. }))
            .map(|e| e.tick)
            .expect("plan has repair");
        assert!(repair_tick >= corrupt_tick);
    }

    #[test]
    fn seed_changes_move_the_schedule() {
        let mut cfg = ChaosConfig::light(1, 500);
        let a = plan(&cfg, &topology());
        cfg.seed = 2;
        let b = plan(&cfg, &topology());
        assert_ne!(a, b);
    }

    #[test]
    fn corrupt_variant_flips_bits_and_repair_restores() {
        let mut r = rng::seeded(5);
        let w = rng::normal(&mut r, &[12, 20], 0.0, 0.3);
        let b = Tensor::zeros(&[12]);
        let layer = DualModuleLayer::learn(&w, &b, Activation::Relu, 10, 150, &mut r);
        let mut variant = ModelVariant::Layer(layer);
        let pristine = variant.clone();
        let flips = corrupt_variant(&mut variant, 0.05, 77);
        assert!(flips > 0, "5% over 240 nibbles should flip something");
        let (ModelVariant::Layer(ref got), ModelVariant::Layer(ref want)) = (&variant, &pristine)
        else {
            unreachable!()
        };
        assert_ne!(
            got.approx().weights().data(),
            want.approx().weights().data()
        );
        // identical seed → identical corruption (the campaign replay
        // property), and restoring the pristine copy undoes it exactly
        let mut again = pristine.clone();
        let flips2 = corrupt_variant(&mut again, 0.05, 77);
        assert_eq!(flips, flips2);
        let ModelVariant::Layer(ref again) = again else {
            unreachable!()
        };
        assert_eq!(
            got.approx().weights().data(),
            again.approx().weights().data()
        );
        variant = pristine.clone();
        let (ModelVariant::Layer(ref restored), ModelVariant::Layer(ref orig)) =
            (&variant, &pristine)
        else {
            unreachable!()
        };
        assert_eq!(
            restored.approx().weights().data(),
            orig.approx().weights().data()
        );
    }

    #[test]
    fn transformer_targets_are_left_untouched() {
        // corruption silently no-ops on non-layer variants; the planner
        // never emits these, but the actuator must still be total
        let cfg = ChaosConfig {
            corruptions: 0,
            ..ChaosConfig::light(3, 200)
        };
        let topo = ChaosTopology {
            layer_models: vec![],
            ..topology()
        };
        let events = plan(&cfg, &topo);
        assert!(events
            .iter()
            .all(|e| !matches!(e.kind, ChaosKind::CorruptSpeculator { .. })));
    }
}
