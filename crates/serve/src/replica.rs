//! Model replicas: batch execution, overload → θ mapping, guard wiring.
//!
//! Each replica executes batches against its model's [`ModelVariant`] —
//! a dual-module FC layer or a dual transformer block — with its
//! own [`SpeculationGuard`], the one speculation watchdog the system
//! runs. Under overload the admission level shifts the switching
//! threshold θ toward the activation's insensitive region (more outputs
//! keep the speculator value → cheaper batch); a tripped guard overrides
//! everything and the replica serves through the never-switch path,
//! bitwise-dense, until the guard clears.
//!
//! With the closed loop on ([`crate::server::ServeControl`]) each
//! replica additionally carries a [`ThetaController`] that replaces the
//! static level → θ table, plus an optionally bit-degraded copy of its
//! model's speculator (the controller's precision ladder). Even while a
//! replica is quarantined dense, the guard keeps observing the **raw**
//! policy map ([`BatchExecution::raw_insensitive_fraction`]), which is
//! what makes hysteretic re-admission possible at all: the post-override
//! fraction of a dense batch is always 0, and a guard fed that under a
//! real band would never clear.

use crate::request::InferenceRequest;
use duet_core::batch::{forward_batch, BatchDualOutput};
use duet_core::control::ThetaController;
use duet_core::dual_attention::{DualTransformerBlock, TransformerThresholds};
use duet_core::dual_layer::DualModuleLayer;
use duet_core::guard::{GuardConfig, GuardObservation, SpeculationGuard};
use duet_core::metrics::SavingsReport;
use duet_core::switching::SwitchingPolicy;
use duet_nn::Activation;
use duet_tensor::Tensor;

/// The executable model a [`crate::server::ServedModel`] deploys.
///
/// Speculation is a property of a projection, not a layer type, so the
/// serving layer is agnostic to what it hosts: anything that turns a
/// flat input vector into a flat output vector under a
/// [`SwitchingPolicy`] fits behind the same queue → batcher → replica
/// pipeline.
// One variant per served model, built once at configuration time and
// only ever borrowed afterwards — the size spread between an FC layer
// and a boxed transformer block never moves per request.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ModelVariant {
    /// A single dual-module FC layer, executed batch-parallel through
    /// [`duet_core::batch::forward_batch`].
    Layer(DualModuleLayer),
    /// A dual transformer block served over fixed-length token windows.
    /// Request inputs are flattened `[seq_len * m]` sequences; the
    /// overload policy's θ drives the FFN GELU band while the magnitude
    /// bands stay at their tuned values.
    Transformer {
        /// The block replicas execute (boxed: the six projections make
        /// the variant an order of magnitude larger than `Layer`).
        block: Box<DualTransformerBlock>,
        /// Fixed sequence length per request.
        seq_len: usize,
        /// Tuned magnitude-band θ for the Q/K/V/output projections.
        theta_attn: f32,
        /// Tuned magnitude-band θ for the FFN contract projection.
        theta_ffn_out: f32,
    },
}

impl ModelVariant {
    /// Flat input width `d` a request must carry.
    pub fn input_dim(&self) -> usize {
        match self {
            ModelVariant::Layer(layer) => layer.input_dim(),
            ModelVariant::Transformer { block, seq_len, .. } => seq_len * block.model_dim(),
        }
    }

    /// Flat output width `n` a response carries.
    pub fn output_dim(&self) -> usize {
        match self {
            ModelVariant::Layer(layer) => layer.output_dim(),
            ModelVariant::Transformer { block, seq_len, .. } => seq_len * block.model_dim(),
        }
    }

    /// The block thresholds a degraded [`SwitchingPolicy`] maps to:
    /// the policy θ drives the GELU band, the magnitude bands are fixed
    /// per model. `never_switch` policies map to `never_switch`
    /// thresholds so the dense fallback stays bitwise-dense end to end.
    fn thresholds_for(&self, policy: &SwitchingPolicy) -> TransformerThresholds {
        match self {
            ModelVariant::Layer(_) => TransformerThresholds::never_switch(),
            ModelVariant::Transformer {
                theta_attn,
                theta_ffn_out,
                ..
            } => {
                if *policy == SwitchingPolicy::never_switch() {
                    TransformerThresholds::never_switch()
                } else {
                    TransformerThresholds {
                        theta_attn: *theta_attn,
                        theta_gelu: policy.theta,
                        theta_ffn_out: *theta_ffn_out,
                    }
                }
            }
        }
    }
}

/// How overload degrades θ, per admission level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Full-quality policy at level 0 (tuned offline per model).
    pub base: SwitchingPolicy,
    /// θ shift applied per degradation level, always toward the
    /// activation's insensitive region.
    pub theta_step: f32,
}

impl OverloadPolicy {
    /// The switching policy for a given degradation level.
    ///
    /// ReLU/GELU mark `y' < θ` insensitive, so degradation *raises* θ;
    /// sigmoid/tanh mark `|y'| > θ` insensitive, so degradation *lowers*
    /// θ (floored at 0). The never-switch baseline (Identity with θ = 0)
    /// has no insensitive region to widen and is returned unchanged —
    /// transformer models degrade through their GELU-band FFN policy
    /// instead.
    pub fn policy_for(&self, level: u8) -> SwitchingPolicy {
        let shift = self.theta_step * f32::from(level);
        let theta = match self.base.activation {
            Activation::Relu | Activation::Gelu => self.base.theta + shift,
            Activation::Sigmoid | Activation::Tanh => (self.base.theta - shift).max(0.0),
            Activation::Identity => self.base.theta,
        };
        SwitchingPolicy {
            activation: self.base.activation,
            theta,
        }
    }
}

/// Converts a batch's accounted work into virtual service ticks.
///
/// The cost model mirrors the hardware's relative rates: executor MACs
/// at full precision, speculator MACs at the cheap approximate rate
/// (16× denser per tick), ternary adds cheaper still. Integer arithmetic
/// only — this is what keeps replayed latencies byte-identical at any
/// thread count.
pub fn service_ticks(report: &SavingsReport, macs_per_tick: u64, overhead_ticks: u64) -> u64 {
    service_ticks_scaled(report, macs_per_tick, overhead_ticks, 4)
}

/// [`service_ticks`] with an explicit speculator weight width: a `b`-bit
/// speculator MAC costs `b/64` of an executor MAC (the INT4 default is
/// the familiar 1/16), so the controller's precision ladder buys real
/// virtual throughput, not just a smaller weight buffer.
///
/// # Panics
///
/// Panics (debug) unless `1 ≤ weight_bits ≤ 16`.
pub fn service_ticks_scaled(
    report: &SavingsReport,
    macs_per_tick: u64,
    overhead_ticks: u64,
    weight_bits: u32,
) -> u64 {
    debug_assert!(macs_per_tick > 0, "macs_per_tick must be positive");
    debug_assert!(
        (1..=16).contains(&weight_bits),
        "weight_bits out of range: {weight_bits}"
    );
    let work = report.executor_macs
        + report.speculator_macs * u64::from(weight_bits) / 64
        + report.speculator_adds / 32;
    overhead_ticks + work.div_ceil(macs_per_tick)
}

/// Result of running one batch on a replica.
#[derive(Debug)]
pub struct BatchExecution {
    /// The batched dual-module result (output `[B, n]`, maps, report).
    pub result: BatchDualOutput,
    /// Whether the batch ran bitwise-dense (guard fallback).
    pub dense: bool,
    /// Whether any output element was non-finite.
    pub nonfinite: bool,
    /// Mean insensitive fraction over the batch's *executed* maps
    /// (0 for empty; always 0 for a dense batch, whose effective map is
    /// all-sensitive).
    pub insensitive_fraction: f64,
    /// Mean insensitive fraction the **raw** policy would have produced
    /// — equal to [`BatchExecution::insensitive_fraction`] for a
    /// non-dense batch, and measured by a speculation probe for a dense
    /// one. This is the guard's observation signal: it keeps watching
    /// speculator health through the fallback, so a quarantined replica
    /// can earn hysteretic re-admission.
    pub raw_insensitive_fraction: f64,
}

/// Packs a batch of requests into a `[B, d]` tensor (possibly `[0, d]`)
/// and runs it through the model under `policy`.
///
/// # Panics
///
/// Panics if any request's input is not `[d]` with `d` matching the
/// model.
pub fn execute_batch(
    model: &ModelVariant,
    requests: &[InferenceRequest],
    policy: &SwitchingPolicy,
    dense: bool,
) -> BatchExecution {
    let d = model.input_dim();
    let b = requests.len();
    for req in requests {
        assert_eq!(
            req.input.shape().dims(),
            [d],
            "request {} input must be [{d}]",
            req.id
        );
    }
    let effective = if dense {
        SwitchingPolicy::never_switch()
    } else {
        *policy
    };
    let run = |eff: &SwitchingPolicy| -> BatchDualOutput {
        match model {
            ModelVariant::Layer(layer) => {
                let mut data = Vec::with_capacity(b * d);
                for req in requests {
                    data.extend_from_slice(req.input.data());
                }
                let x = Tensor::from_vec(data, &[b, d]);
                forward_batch(layer, &x, eff)
            }
            ModelVariant::Transformer { block, seq_len, .. } => {
                let thresholds = model.thresholds_for(eff);
                let m = block.model_dim();
                let mut data = Vec::with_capacity(b * d);
                let mut maps = Vec::new();
                let mut report = SavingsReport::new();
                for req in requests {
                    let xs = Tensor::from_vec(req.input.data().to_vec(), &[*seq_len, m]);
                    let out = block.forward(&xs, &thresholds);
                    data.extend_from_slice(out.output.data());
                    maps.extend(out.maps);
                    report += out.report;
                }
                BatchDualOutput {
                    output: Tensor::from_vec(data, &[b, d]),
                    maps,
                    report,
                }
            }
        }
    };
    let fraction = |maps: &[duet_core::switching::SwitchingMap]| {
        if maps.is_empty() {
            0.0
        } else {
            maps.iter().map(|m| m.insensitive_fraction()).sum::<f64>() / maps.len() as f64
        }
    };
    let result = run(&effective);
    let nonfinite = result.output.data().iter().any(|v| !v.is_finite());
    let insensitive_fraction = fraction(&result.maps);
    // A dense batch's executed maps are all-sensitive by construction,
    // which says nothing about speculator health. Probe the raw policy
    // (same path a non-dense batch would take; outputs and accounting
    // are discarded, so service cost and responses are untouched) so
    // the guard observes the pre-override fraction.
    let raw_insensitive_fraction = if dense && *policy != SwitchingPolicy::never_switch() {
        fraction(&run(policy).maps)
    } else {
        insensitive_fraction
    };
    BatchExecution {
        result,
        dense,
        nonfinite,
        insensitive_fraction,
        raw_insensitive_fraction,
    }
}

/// Rebuilds `model` with its speculator re-quantized at `weight_bits`
/// — the serving-side actuator of the controller's precision ladder.
/// Returns `None` for variants without a per-layer speculator write-back
/// hook (the transformer block degrades through θ only).
pub fn degrade_variant(model: &ModelVariant, weight_bits: u32) -> Option<ModelVariant> {
    match model {
        ModelVariant::Layer(layer) => {
            let mut degraded = layer.clone();
            degraded.set_approx(layer.approx().requantized(weight_bits));
            Some(ModelVariant::Layer(degraded))
        }
        ModelVariant::Transformer { .. } => None,
    }
}

/// One replica of a served model.
#[derive(Debug)]
pub struct Replica {
    /// Index into the server's model table.
    pub model: usize,
    /// Watchdog deciding when this replica must fall back dense.
    pub guard: SpeculationGuard,
    /// Closed-loop θ-controller (present when the server runs with
    /// [`crate::server::ServeControl`]; `None` replays the static
    /// level → θ table bitwise).
    pub controller: Option<ThetaController>,
    /// Virtual tick at which the current batch completes (idle when no
    /// batch is in flight).
    pub busy_until: u64,
    /// Batches this replica has served.
    pub served_batches: u64,
    /// Bit-degraded copy of the shared model at the controller's current
    /// width, rebuilt on every width transition (and after chaos
    /// corruption/repair of the shared speculator).
    degraded: Option<(u32, ModelVariant)>,
}

impl Replica {
    /// Creates an idle replica for `model` with its own guard.
    pub fn new(model: usize, guard: GuardConfig) -> Self {
        Self {
            model,
            guard: SpeculationGuard::new(guard),
            controller: None,
            busy_until: 0,
            served_batches: 0,
            degraded: None,
        }
    }

    /// Whether the next batch must run bitwise-dense: the guard is
    /// tripped.
    pub fn must_serve_dense(&self) -> bool {
        self.guard.is_tripped()
    }

    /// The speculator width batches on this replica execute at.
    pub fn effective_bits(&self) -> u32 {
        self.degraded.as_ref().map_or(4, |(bits, _)| *bits)
    }

    /// The model this replica executes: the bit-degraded copy when the
    /// precision ladder is engaged, the shared variant otherwise.
    pub fn effective_model<'a>(&'a self, shared: &'a ModelVariant) -> &'a ModelVariant {
        self.degraded.as_ref().map_or(shared, |(_, m)| m)
    }

    /// Re-derives this replica's execution copy of `shared` at
    /// `weight_bits`: a degraded clone below full width, the shared
    /// variant itself at 4 bits or for variants without a speculator
    /// write-back hook.
    pub fn set_precision(&mut self, shared: &ModelVariant, weight_bits: u32) {
        self.degraded = if weight_bits >= 4 {
            None
        } else {
            degrade_variant(shared, weight_bits).map(|m| (weight_bits, m))
        };
    }

    /// Rebuilds any degraded copy from the (possibly mutated) shared
    /// variant — called after chaos corrupts or repairs the shared
    /// speculator so the low-bit copy tracks it.
    pub fn refresh_degraded(&mut self, shared: &ModelVariant) {
        if let Some((bits, _)) = self.degraded {
            self.set_precision(shared, bits);
        }
    }

    /// Feeds one batch's health signals to the guard and returns what
    /// the guard decided (so the server can emit trip/clear events).
    /// Empty batches are skipped — a zero-length output says nothing
    /// about speculator health, and an empty batch's synthetic 0.0
    /// fraction would drag the EWMA out of band — and return `None`.
    /// The switch-rate signal is the **raw** policy fraction, so the
    /// guard keeps observing speculator health through a dense fallback.
    pub fn observe(&mut self, exec: &BatchExecution) -> Option<GuardObservation> {
        if exec.result.output.is_empty() {
            return None;
        }
        Some(
            self.guard
                .observe(exec.nonfinite, exec.raw_insensitive_fraction),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ModelId, TenantId};
    use duet_core::guard::SwitchRateBand;
    use duet_tensor::rng::{self, seeded};

    fn layer() -> ModelVariant {
        let mut r = seeded(11);
        let w = rng::normal(&mut r, &[12, 20], 0.0, 0.3);
        let b = Tensor::zeros(&[12]);
        ModelVariant::Layer(DualModuleLayer::learn(
            &w,
            &b,
            Activation::Relu,
            12,
            200,
            &mut r,
        ))
    }

    fn transformer(seq_len: usize) -> ModelVariant {
        use duet_core::dual_proj::DualProjection;
        use duet_core::engine::MacMode;
        use duet_core::{DualAttention, DualFfn};
        let m = 6usize;
        let f = 12usize;
        let mut r = seeded(23);
        let mut proj = |n: usize, d: usize| {
            let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
            let b = rng::normal(&mut r, &[n], 0.0, 0.05);
            DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, 3, 200, &mut r)
        };
        let block = DualTransformerBlock::new(
            DualAttention::new(proj(m, m), proj(m, m), proj(m, m), proj(m, m)),
            DualFfn::new(proj(f, m), proj(m, f)),
        );
        ModelVariant::Transformer {
            block: Box::new(block),
            seq_len,
            theta_attn: 0.05,
            theta_ffn_out: 0.05,
        }
    }

    fn req(id: u64, input: Tensor) -> InferenceRequest {
        InferenceRequest {
            id: crate::request::RequestId(id),
            tenant: TenantId(0),
            model: ModelId(0),
            input,
            arrival_tick: 0,
        }
    }

    #[test]
    fn relu_degradation_raises_theta() {
        let p = OverloadPolicy {
            base: SwitchingPolicy::relu(-0.5),
            theta_step: 0.25,
        };
        assert_eq!(p.policy_for(0).theta, -0.5);
        assert_eq!(p.policy_for(2).theta, 0.0);
        assert_eq!(p.policy_for(2).activation, Activation::Relu);
    }

    #[test]
    fn saturation_degradation_lowers_theta_floored() {
        let p = OverloadPolicy {
            base: SwitchingPolicy::tanh(1.5),
            theta_step: 1.0,
        };
        assert_eq!(p.policy_for(1).theta, 0.5);
        assert_eq!(p.policy_for(3).theta, 0.0);
        let ns = OverloadPolicy {
            base: SwitchingPolicy::never_switch(),
            theta_step: 1.0,
        };
        assert_eq!(ns.policy_for(3), SwitchingPolicy::never_switch());
    }

    #[test]
    fn degraded_policy_skips_at_least_as_much() {
        let layer = layer();
        let mut r = seeded(3);
        let reqs: Vec<_> = (0..6)
            .map(|i| req(i, rng::normal(&mut r, &[20], 0.0, 1.0)))
            .collect();
        let p = OverloadPolicy {
            base: SwitchingPolicy::relu(-1.0),
            theta_step: 0.5,
        };
        let full = execute_batch(&layer, &reqs, &p.policy_for(0), false);
        let degraded = execute_batch(&layer, &reqs, &p.policy_for(3), false);
        assert!(degraded.insensitive_fraction >= full.insensitive_fraction);
        assert!(degraded.result.report.executor_macs <= full.result.report.executor_macs);
    }

    #[test]
    fn empty_batch_executes_and_skips_guard() {
        let layer = layer();
        let exec = execute_batch(&layer, &[], &SwitchingPolicy::relu(0.0), false);
        assert_eq!(exec.result.output.shape().dims(), &[0, 12]);
        assert_eq!(exec.insensitive_fraction, 0.0);
        let mut replica = Replica::new(0, GuardConfig::fallback_dense(SwitchRateBand::any()));
        assert!(replica.observe(&exec).is_none());
        assert_eq!(replica.guard.stats().checks, 0);
        assert!(!replica.must_serve_dense());
    }

    /// The watchdog's switch-rate trip, driven through the serving path:
    /// θ = +∞ marks every output insensitive (fraction 1.0, out of the
    /// {0, 0.8} band); two such batches trip the replica, which then
    /// serves bitwise never-switch batches until two healthy raw maps
    /// clear it.
    #[test]
    fn switch_rate_collapse_trips_serves_dense_and_clears() {
        let layer = layer();
        let mut r = seeded(41);
        let reqs: Vec<_> = (0..4)
            .map(|i| req(i, rng::normal(&mut r, &[20], 0.0, 1.0)))
            .collect();
        let mut replica = Replica::new(
            0,
            GuardConfig {
                ewma_alpha: 1.0,
                trip_after: 2,
                clear_after: 2,
                ..GuardConfig::fallback_dense(SwitchRateBand { lo: 0.0, hi: 0.8 })
            },
        );
        let collapse = SwitchingPolicy::relu(f32::INFINITY);
        let healthy = SwitchingPolicy::relu(0.0);
        let bits = |e: &BatchExecution| -> Vec<u32> {
            e.result.output.data().iter().map(|v| v.to_bits()).collect()
        };
        let never = execute_batch(&layer, &reqs, &SwitchingPolicy::never_switch(), false);
        let plain = execute_batch(&layer, &reqs, &healthy, false);
        let serve = |replica: &mut Replica, policy: &SwitchingPolicy| {
            let exec = execute_batch(&layer, &reqs, policy, replica.must_serve_dense());
            let obs = replica.observe(&exec);
            (exec, obs)
        };

        // one out-of-band batch is not a streak
        let (first, obs) = serve(&mut replica, &collapse);
        assert!(!first.dense);
        assert_eq!(first.result.report.outputs_exact, 0);
        assert!(!obs.is_some_and(|o| o.newly_tripped));
        assert!(!replica.must_serve_dense(), "not tripped after one batch");

        // the second trips the replica
        let (_, obs) = serve(&mut replica, &collapse);
        assert!(obs.is_some_and(|o| o.newly_tripped && !o.nonfinite));
        assert!(replica.must_serve_dense(), "dense after two batches");

        // tripped: the batch runs never-switch, bit for bit, while the
        // raw map still reads out of band
        let (dense, _) = serve(&mut replica, &collapse);
        assert!(dense.dense);
        assert_eq!(dense.raw_insensitive_fraction, 1.0);
        assert_eq!(bits(&dense), bits(&never));
        assert_eq!(dense.result.maps, never.result.maps);
        assert_eq!(dense.result.report, never.result.report);
        assert!(replica.must_serve_dense());

        // two healthy raw maps clear it (hysteresis: one is not enough)
        let (still_dense, _) = serve(&mut replica, &healthy);
        assert!(still_dense.dense);
        assert!(still_dense.raw_insensitive_fraction <= 0.8);
        assert_eq!(bits(&still_dense), bits(&never));
        assert!(replica.must_serve_dense());
        serve(&mut replica, &healthy);
        assert!(
            !replica.must_serve_dense(),
            "cleared after two healthy batches"
        );

        // and the next batch is the plain policy's again
        let (after, _) = serve(&mut replica, &healthy);
        assert!(!after.dense);
        assert_eq!(bits(&after), bits(&plain));
        assert_eq!(after.result.maps, plain.result.maps);
        assert_eq!(after.result.report, plain.result.report);
        assert_eq!(replica.guard.trips(), 1);
        assert_eq!(replica.guard.stats().checks, 6);
    }

    #[test]
    fn service_ticks_integer_cost() {
        let mut rep = SavingsReport::new();
        rep.executor_macs = 1000;
        rep.speculator_macs = 1600;
        rep.speculator_adds = 3200;
        // 1000 + 100 + 100 = 1200 work units at 500/tick → 3 ticks + 2
        assert_eq!(service_ticks(&rep, 500, 2), 5);
        assert_eq!(service_ticks(&SavingsReport::new(), 500, 2), 2);
    }

    #[test]
    fn dense_flag_forces_never_switch() {
        let layer = layer();
        let mut r = seeded(9);
        let reqs: Vec<_> = (0..3)
            .map(|i| req(i, rng::normal(&mut r, &[20], 0.0, 1.0)))
            .collect();
        let exec = execute_batch(&layer, &reqs, &SwitchingPolicy::relu(0.0), true);
        assert!(exec.dense);
        // never-switch recomputes everything: nothing insensitive
        assert_eq!(exec.insensitive_fraction, 0.0);
        assert_eq!(
            exec.result.report.outputs_exact,
            exec.result.report.outputs_total
        );
    }

    #[test]
    fn transformer_variant_shapes_and_dense_fallback() {
        let seq = 4usize;
        let model = transformer(seq);
        let d = model.input_dim();
        assert_eq!(d, seq * 6);
        assert_eq!(model.output_dim(), d);
        let mut r = seeded(31);
        let reqs: Vec<_> = (0..3)
            .map(|i| req(i, rng::normal(&mut r, &[d], 0.0, 1.0)))
            .collect();
        let dense = execute_batch(&model, &reqs, &SwitchingPolicy::gelu(0.1), true);
        assert!(dense.dense);
        assert_eq!(dense.result.output.shape().dims(), &[3, d]);
        // dense fallback is bitwise the never-switch block
        let ModelVariant::Transformer { block, .. } = &model else {
            unreachable!()
        };
        for (bi, rq) in reqs.iter().enumerate() {
            let xs = Tensor::from_vec(rq.input.data().to_vec(), &[seq, 6]);
            let want = block.forward_dense(&xs);
            assert_eq!(dense.result.output.row(bi), want.data());
        }
        assert_eq!(
            dense.result.report.outputs_exact,
            dense.result.report.outputs_total
        );
    }

    #[test]
    fn transformer_degradation_widens_the_gelu_band() {
        let model = transformer(5);
        let d = model.input_dim();
        let mut r = seeded(37);
        let reqs: Vec<_> = (0..4)
            .map(|i| req(i, rng::normal(&mut r, &[d], 0.0, 1.0)))
            .collect();
        let p = OverloadPolicy {
            base: SwitchingPolicy::gelu(-0.5),
            theta_step: 0.5,
        };
        let full = execute_batch(&model, &reqs, &p.policy_for(0), false);
        let degraded = execute_batch(&model, &reqs, &p.policy_for(4), false);
        assert!(degraded.insensitive_fraction >= full.insensitive_fraction);
        assert!(degraded.result.report.executor_macs <= full.result.report.executor_macs);
    }
}
