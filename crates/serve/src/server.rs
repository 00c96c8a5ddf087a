//! The discrete-event multi-tenant inference server.
//!
//! `DuetServer` runs a virtual-time event loop: arrivals enter per-model
//! queues, the micro-batcher releases batches (full or waited-out), idle
//! replicas pick them up, and every batch dispatched in the same
//! scheduling round fans out over a scoped-thread worker pool
//! ([`parallel::map_indexed`], the workspace threading model). Service
//! time is charged in virtual ticks from the batch's own
//! [`SavingsReport`](duet_core::metrics::SavingsReport) accounting, so
//! a seeded trace replays byte-identically — responses, latencies, and
//! percentiles — at any `DUET_NUM_THREADS`.
//!
//! Overload never drops: admission maps backlog to a degradation level,
//! the level shifts θ toward the insensitive region (cheaper batches),
//! and a tripped replica guard forces bitwise-dense service until it
//! clears. That is the degradation ladder: full quality → degraded θ →
//! dense fallback.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::batcher::{BatcherConfig, MicroBatcher};
use crate::chaos::{self, ChaosEvent, ChaosKind, ChaosReport, ChaosTopology};
use crate::replica::{execute_batch, service_ticks_scaled, ModelVariant, OverloadPolicy, Replica};
use crate::request::{InferenceRequest, InferenceResponse, ModelId, RequestId, TenantId};
use crate::stats::{ServeReport, TenantSlo};
use duet_core::control::{ControlAction, ControlConfig, PrecisionLadder, ThetaController};
use duet_core::guard::{GuardConfig, SwitchRateBand};
use duet_core::switching::SwitchingPolicy;
use duet_nn::Activation;
use duet_obs::event::{self, EventKind};
use duet_obs::registry::{Gauge, Histogram};
use duet_obs::{counter, gauge, histogram};
use duet_tensor::{parallel, Tensor};
use std::fmt;

/// One model as deployed on the server.
#[derive(Debug)]
pub struct ServedModel {
    /// Display name (reports only).
    pub name: String,
    /// What the replicas execute: an FC layer or a transformer block.
    pub model: ModelVariant,
    /// How admission levels map to θ for this model.
    pub overload: OverloadPolicy,
    /// Healthy switch-rate operating band from offline calibration
    /// ([`duet_core::calibration::Calibration::insensitive_band`]).
    /// Tightens each replica's guard and, when the server runs with
    /// [`ServeControl`], centers the θ-controller's setpoint. `None`
    /// keeps the server-wide guard band and disables the controller for
    /// this model.
    pub band: Option<SwitchRateBand>,
}

/// Why [`DuetServer::submit`] rejected a request before it entered the
/// queue. Rejection here is *validation*, not load shedding — admission
/// still never drops a request that made it into the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Tenant index out of range.
    UnknownTenant {
        /// The offending tenant id.
        tenant: u32,
        /// How many tenants the server was built with.
        tenants: usize,
    },
    /// Model index out of range.
    UnknownModel {
        /// The offending model id.
        model: u32,
        /// How many models are deployed.
        models: usize,
    },
    /// Input width does not match the model's input dimension.
    ShapeMismatch {
        /// The submitted input's length.
        got: usize,
        /// The model's expected input width.
        want: usize,
    },
    /// The input carries a NaN or infinity. Accepting it would poison
    /// the batch it lands in (one bad request trips the replica guard
    /// for seven innocent neighbours), so it is refused at the door.
    NonFiniteInput {
        /// Index of the first non-finite element.
        index: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTenant { tenant, tenants } => {
                write!(f, "tenant {tenant} out of range (server has {tenants})")
            }
            Self::UnknownModel { model, models } => {
                write!(f, "model {model} out of range (server has {models})")
            }
            Self::ShapeMismatch { got, want } => {
                write!(f, "input width {got} does not match model input dim {want}")
            }
            Self::NonFiniteInput { index } => {
                write!(f, "input element {index} is not finite")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Closed-loop θ-control knobs (see [`duet_core::control`]).
///
/// With `Some(ServeControl)` in [`ServeConfig`], every replica of a
/// model with a calibration band runs its own [`ThetaController`]: the
/// guard's EWMA switch rate is the measurement, the band midpoint the
/// setpoint, and admission pressure shifts the setpoint toward the
/// insensitive region instead of jumping θ through the static
/// level table. `None` (the default) replays the static
/// level → θ table bitwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeControl {
    /// Proportional gain mapping switch-rate error to a θ step.
    pub gain: f32,
    /// Per-update slew limit on θ.
    pub max_step: f32,
    /// θ clamp half-width around each model's base policy θ.
    pub theta_span: f32,
    /// Setpoint shift per admission degradation level (graduated
    /// pressure response replacing the static `level → θ-step` table).
    pub setpoint_step: f64,
    /// Optional speculator bit-width ladder engaged when θ saturates
    /// (FC-layer models only — the transformer block has no per-layer
    /// speculator write-back and degrades through θ alone).
    pub precision: Option<PrecisionLadder>,
}

impl ServeControl {
    /// Gentle defaults: half gain, a 0.1 slew limit, θ clamped to ±1 of
    /// the base policy, 5 points of setpoint per admission level, and
    /// the INT4 → INT2 precision ladder.
    pub fn balanced() -> Self {
        Self {
            gain: 0.5,
            max_step: 0.1,
            theta_span: 1.0,
            setpoint_step: 0.05,
            precision: Some(PrecisionLadder::int4_to_int2()),
        }
    }
}

/// One controller observation, appended every time a replica's
/// controller runs (batch commit). The control bench reads this log to
/// assert setpoint tracking and post-fault recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSample {
    /// Virtual tick of the update.
    pub tick: u64,
    /// Replica index.
    pub replica: usize,
    /// θ after the update.
    pub theta: f32,
    /// Setpoint error (setpoint − EWMA); `None` while the guard has no
    /// finite observation yet.
    pub error: Option<f64>,
    /// Speculator weight width after the update.
    pub bits: u32,
    /// Whether the replica's guard was tripped at the update.
    pub tripped: bool,
}

/// Server-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Replicas instantiated per model (≥ 1).
    pub replicas_per_model: usize,
    /// Micro-batching knobs.
    pub batcher: BatcherConfig,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Guard configuration cloned into every replica.
    pub guard: GuardConfig,
    /// Virtual MAC throughput of one replica per tick.
    pub macs_per_tick: u64,
    /// Fixed per-batch dispatch cost in ticks.
    pub dispatch_overhead_ticks: u64,
    /// Worker threads for same-round batch fan-out; 0 means
    /// [`parallel::num_threads`] (the `DUET_NUM_THREADS` setting).
    pub workers: usize,
    /// Closed-loop θ-control; `None` keeps the static level → θ table.
    pub control: Option<ServeControl>,
}

impl ServeConfig {
    /// A balanced default: 2 replicas per model, batches of 8 with an
    /// 8-tick wait cap, lenient admission, nonfinite-only dense-fallback
    /// guard.
    pub fn balanced() -> Self {
        Self {
            replicas_per_model: 2,
            batcher: BatcherConfig {
                max_batch: 8,
                max_wait_ticks: 8,
            },
            admission: AdmissionConfig::lenient(),
            guard: GuardConfig::fallback_dense(duet_core::guard::SwitchRateBand::any()),
            macs_per_tick: 4096,
            dispatch_overhead_ticks: 2,
            workers: 0,
            control: None,
        }
    }
}

/// A batch occupying a replica until its completion tick.
#[derive(Debug)]
struct InFlight {
    batch_id: u64,
    requests: Vec<InferenceRequest>,
    outputs: Tensor,
    level: u8,
    dense: bool,
}

/// Per-tenant serving state.
#[derive(Debug)]
struct TenantState {
    name: String,
    latencies: Vec<u64>,
    degraded: u64,
    latency_hist: &'static Histogram,
}

/// The multi-tenant inference server.
#[derive(Debug)]
pub struct DuetServer {
    models: Vec<ServedModel>,
    tenants: Vec<TenantState>,
    replicas: Vec<Replica>,
    in_flight: Vec<Option<InFlight>>,
    batcher: MicroBatcher,
    admission: AdmissionController,
    cfg: ServeConfig,
    now: u64,
    next_id: u64,
    batch_seq: u64,
    last_levels: Vec<u8>,
    submitted: u64,
    batches: u64,
    occupancy_sum: u64,
    degraded_batches: u64,
    dense_fallback_batches: u64,
    max_queue_depth: u64,
    /// Per-replica θ gauges, interned once at construction (the metric
    /// registry leaks names on first use; interning in the commit loop
    /// would leak one string per batch). Empty when control is off.
    replica_theta: Vec<&'static Gauge>,
    control_log: Vec<ControlSample>,
    /// Dispatch is frozen until this tick (chaos batcher stall).
    stall_until: u64,
    /// Tick-sorted chaos schedule; empty outside chaos runs.
    chaos_plan: Vec<ChaosEvent>,
    /// Next unapplied entry of `chaos_plan`.
    chaos_next: usize,
    chaos_report: ChaosReport,
    /// Pristine speculator copies, saved per model at first corruption
    /// so a repair restores the exact original.
    pristine: Vec<Option<ModelVariant>>,
}

/// Interns a runtime-built metric name. The registry is keyed by string
/// content, so re-interning the same tenant name finds the same metric;
/// the leak is one small string per tenant per server construction,
/// matching the registry's own leak-on-first-use design.
fn intern(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// Builds the per-replica θ-controller for one served model, or `None`
/// when the model cannot be actuated (Identity activation never
/// switches, so θ has nothing to control).
///
/// # Panics
///
/// Panics when the model has an actuatable activation but no
/// calibration band — the controller would have no setpoint.
fn controller_for(model: &ServedModel, ctl: ServeControl) -> Option<ThetaController> {
    let base = model.overload.base;
    if base.activation == Activation::Identity {
        return None;
    }
    let band = model.band.unwrap_or_else(|| {
        panic!(
            "control requires a calibration band (ServedModel::band) for model {}",
            model.name
        )
    });
    let (lo, hi) = match base.activation {
        Activation::Relu | Activation::Gelu => {
            (base.theta - ctl.theta_span, base.theta + ctl.theta_span)
        }
        // sigmoid/tanh actuate downward and the magnitude rule floors
        // θ at 0, mirroring OverloadPolicy::policy_for.
        Activation::Sigmoid | Activation::Tanh => (
            (base.theta - ctl.theta_span).max(0.0),
            base.theta + ctl.theta_span,
        ),
        Activation::Identity => unreachable!(),
    };
    let mut cfg = ControlConfig::for_band(band).with_theta_bounds(lo, hi);
    cfg.gain = ctl.gain;
    cfg.max_step = ctl.max_step;
    if let (ModelVariant::Layer(_), Some(ladder)) = (&model.model, ctl.precision) {
        cfg = cfg.with_precision(ladder);
    }
    Some(ThetaController::new(base, cfg))
}

impl DuetServer {
    /// Builds a server over `models` for `tenant_names` tenants.
    ///
    /// # Panics
    ///
    /// Panics if `models` or `tenant_names` is empty, or if
    /// `cfg.replicas_per_model` or `cfg.macs_per_tick` is zero.
    pub fn new(models: Vec<ServedModel>, tenant_names: &[String], cfg: ServeConfig) -> Self {
        assert!(!models.is_empty(), "server needs at least one model");
        assert!(!tenant_names.is_empty(), "server needs at least one tenant");
        assert!(cfg.replicas_per_model >= 1, "need at least one replica");
        assert!(cfg.macs_per_tick >= 1, "macs_per_tick must be positive");
        let replicas: Vec<Replica> = (0..models.len())
            .flat_map(|m| (0..cfg.replicas_per_model).map(move |_| m))
            .map(|m| {
                let guard = models[m].band.map_or(cfg.guard, |b| {
                    let mut band = b;
                    // The controller may *command* a switch rate up to
                    // setpoint_step · max_level above the calibrated
                    // band (graduated overload degradation); the guard
                    // must not read that intentional shift as anomaly.
                    if let Some(ctl) = cfg.control {
                        let reach = ctl.setpoint_step * f64::from(cfg.admission.max_level);
                        band.hi = (band.hi + reach).min(1.0);
                    }
                    cfg.guard.with_band(band)
                });
                let mut replica = Replica::new(m, guard);
                if let Some(ctl) = cfg.control {
                    replica.controller = controller_for(&models[m], ctl);
                }
                replica
            })
            .collect();
        let replica_theta = if cfg.control.is_some() {
            (0..replicas.len())
                .map(|ri| {
                    duet_obs::registry::gauge(intern(format!("serve.replica.{ri}.theta_milli")))
                })
                .collect()
        } else {
            Vec::new()
        };
        let in_flight = (0..replicas.len()).map(|_| None).collect();
        let tenants = tenant_names
            .iter()
            .map(|name| TenantState {
                name: name.clone(),
                latencies: Vec::new(),
                degraded: 0,
                latency_hist: duet_obs::registry::histogram(intern(format!(
                    "serve.tenant.{name}.latency_ticks"
                ))),
            })
            .collect();
        let batcher = MicroBatcher::new(models.len(), cfg.batcher);
        let admission = AdmissionController::new(tenant_names.len(), cfg.admission);
        let pristine = (0..models.len()).map(|_| None).collect();
        Self {
            models,
            tenants,
            replicas,
            in_flight,
            batcher,
            admission,
            cfg,
            now: 0,
            next_id: 0,
            batch_seq: 0,
            last_levels: vec![0; tenant_names.len()],
            submitted: 0,
            batches: 0,
            occupancy_sum: 0,
            degraded_batches: 0,
            dense_fallback_batches: 0,
            max_queue_depth: 0,
            replica_theta,
            control_log: Vec::new(),
            stall_until: 0,
            chaos_plan: Vec::new(),
            chaos_next: 0,
            chaos_report: ChaosReport::default(),
            pristine,
        }
    }

    /// Current virtual tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// `(ModelId, input_dim)` pairs in deployment order — the argument
    /// [`crate::trace::generate`] expects.
    pub fn model_dims(&self) -> Vec<(ModelId, usize)> {
        self.models
            .iter()
            .enumerate()
            .map(|(i, m)| (ModelId(i as u32), m.model.input_dim()))
            .collect()
    }

    /// Submits one request at the current tick and returns its id.
    /// Admission never rejects for *load* — under pressure the request
    /// is served degraded instead. Submission only refuses invalid
    /// requests (unknown ids, wrong shape, non-finite values), before
    /// any server state changes.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the tenant or model index is out of range,
    /// the input width mismatches the model, or the input carries a NaN
    /// or infinity.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        model: ModelId,
        input: Tensor,
    ) -> Result<RequestId, SubmitError> {
        let t = tenant.0 as usize;
        let m = model.0 as usize;
        if t >= self.tenants.len() {
            return Err(SubmitError::UnknownTenant {
                tenant: tenant.0,
                tenants: self.tenants.len(),
            });
        }
        if m >= self.models.len() {
            return Err(SubmitError::UnknownModel {
                model: model.0,
                models: self.models.len(),
            });
        }
        let want = self.models[m].model.input_dim();
        if input.shape().dims() != [want] {
            return Err(SubmitError::ShapeMismatch {
                got: input.len(),
                want,
            });
        }
        if let Some(index) = input.data().iter().position(|v| !v.is_finite()) {
            counter!("serve.requests.rejected_nonfinite").inc();
            return Err(SubmitError::NonFiniteInput { index });
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let req = InferenceRequest {
            id,
            tenant,
            model,
            input,
            arrival_tick: self.now,
        };
        self.ingest(req);
        Ok(id)
    }

    /// The θ-controller observation log, one sample per controller
    /// update, in commit order.
    pub fn control_samples(&self) -> &[ControlSample] {
        &self.control_log
    }

    /// Read access to a replica (guard and controller state).
    ///
    /// # Panics
    ///
    /// Panics if `ri` is out of range.
    pub fn replica(&self, ri: usize) -> &Replica {
        &self.replicas[ri]
    }

    /// How many replicas the server runs (models × replicas-per-model).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Replays a trace (sorted by arrival tick, as
    /// [`crate::trace::generate`] produces) to completion and returns the
    /// responses in completion order plus the end-of-run report.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival tick or arrives in
    /// the past (before the server's current tick).
    pub fn run_trace(
        &mut self,
        trace: &[InferenceRequest],
    ) -> (Vec<InferenceResponse>, ServeReport) {
        assert!(
            trace
                .windows(2)
                .all(|w| w[0].arrival_tick <= w[1].arrival_tick),
            "trace must be sorted by arrival tick"
        );
        if let Some(first) = trace.first() {
            assert!(first.arrival_tick >= self.now, "trace arrives in the past");
        }
        let mut responses = Vec::with_capacity(trace.len());
        let mut next_arrival = 0usize;
        loop {
            self.complete_due(&mut responses);
            self.apply_chaos_due();
            while next_arrival < trace.len() && trace[next_arrival].arrival_tick <= self.now {
                self.ingest(trace[next_arrival].clone());
                next_arrival += 1;
            }
            self.dispatch();
            let mut next_tick: Option<u64> = trace.get(next_arrival).map(|r| r.arrival_tick);
            for (ri, fl) in self.in_flight.iter().enumerate() {
                if fl.is_some() {
                    let t = self.replicas[ri].busy_until;
                    next_tick = Some(next_tick.map_or(t, |n| n.min(t)));
                }
            }
            if self.batcher.total_depth() > 0 {
                if let Some(t) = self.batcher.next_expiry() {
                    next_tick = Some(next_tick.map_or(t, |n| n.min(t)));
                }
                // a stalled dispatcher wakes exactly when the stall ends
                if self.now < self.stall_until {
                    next_tick =
                        Some(next_tick.map_or(self.stall_until, |n| n.min(self.stall_until)));
                }
            }
            // unapplied chaos events keep the clock moving even when no
            // work is pending (a repair must land after the last batch)
            if let Some(ev) = self.chaos_plan.get(self.chaos_next) {
                next_tick = Some(next_tick.map_or(ev.tick, |n| n.min(ev.tick)));
            }
            match next_tick {
                // A waited-out queue behind all-busy replicas can yield a
                // candidate in the past; the clock only moves forward.
                Some(t) => self.now = t.max(self.now + 1),
                None => break,
            }
        }
        (responses, self.report())
    }

    /// Drains everything already submitted (no further arrivals) and
    /// returns the responses in completion order.
    pub fn run_until_idle(&mut self) -> Vec<InferenceResponse> {
        self.run_trace(&[]).0
    }

    /// What the chaos planner needs to know about this deployment.
    pub fn chaos_topology(&self) -> ChaosTopology {
        ChaosTopology {
            replicas: self.replicas.len(),
            models: self.models.len(),
            layer_models: self
                .models
                .iter()
                .enumerate()
                .filter(|(_, m)| matches!(m.model, ModelVariant::Layer(_)))
                .map(|(i, _)| i)
                .collect(),
            tenants: self.tenants.len(),
        }
    }

    /// Replays `trace` under a chaos campaign: `plan` events fire when
    /// the virtual clock reaches their ticks, interleaved with arrivals
    /// and dispatch at deterministic points of the schedule. Returns the
    /// responses, the serving report, and what the campaign did.
    ///
    /// # Panics
    ///
    /// Panics on an unsorted trace (see [`Self::run_trace`]) or an
    /// unsorted plan.
    pub fn run_trace_chaos(
        &mut self,
        trace: &[InferenceRequest],
        plan: &[ChaosEvent],
    ) -> (Vec<InferenceResponse>, ServeReport, ChaosReport) {
        assert!(
            plan.windows(2).all(|w| w[0].tick <= w[1].tick),
            "chaos plan must be tick-sorted"
        );
        // spike requests mint ids above the trace's so they never collide
        self.next_id = self
            .next_id
            .max(trace.iter().map(|r| r.id.0 + 1).max().unwrap_or(0));
        self.chaos_plan = plan.to_vec();
        self.chaos_next = 0;
        let (responses, report) = self.run_trace(trace);
        let chaos_report = self.chaos_report;
        (responses, report, chaos_report)
    }

    /// Applies every chaos event whose tick has been reached, in plan
    /// order.
    fn apply_chaos_due(&mut self) {
        while let Some(&ChaosEvent { tick, kind }) = self.chaos_plan.get(self.chaos_next) {
            if tick > self.now {
                break;
            }
            self.chaos_next += 1;
            match kind {
                ChaosKind::GuardTrip { replica } => {
                    let ri = replica % self.replicas.len();
                    self.replicas[ri].guard.force_trip();
                    self.chaos_report.guard_trips += 1;
                    counter!("serve.chaos.guard_trips").inc();
                    // c = 2 marks an injected trip (0/1 are the organic
                    // nonfinite flag)
                    event::emit(
                        EventKind::GuardTrip,
                        event::NO_SCOPE,
                        event::NO_TENANT,
                        self.now,
                        ri as u64,
                        2,
                        self.replicas[ri].guard.ewma().unwrap_or(-1.0),
                    );
                }
                ChaosKind::CorruptSpeculator { model, rate, seed } => {
                    let m = model % self.models.len();
                    if self.pristine[m].is_none() {
                        self.pristine[m] = Some(self.models[m].model.clone());
                    }
                    let flips = chaos::corrupt_variant(&mut self.models[m].model, rate, seed);
                    self.chaos_report.corruptions += 1;
                    self.chaos_report.flipped_bits += flips;
                    counter!("serve.chaos.corruptions").inc();
                    let (models, replicas) = (&self.models, &mut self.replicas);
                    for r in replicas.iter_mut().filter(|r| r.model == m) {
                        r.refresh_degraded(&models[m].model);
                    }
                }
                ChaosKind::RepairSpeculator { model } => {
                    let m = model % self.models.len();
                    if let Some(p) = self.pristine[m].take() {
                        self.models[m].model = p;
                        self.chaos_report.repairs += 1;
                        counter!("serve.chaos.repairs").inc();
                        let (models, replicas) = (&self.models, &mut self.replicas);
                        for r in replicas.iter_mut().filter(|r| r.model == m) {
                            r.refresh_degraded(&models[m].model);
                        }
                    }
                }
                ChaosKind::BatcherStall { ticks } => {
                    self.stall_until = self.stall_until.max(self.now + ticks);
                    self.chaos_report.stalls += 1;
                    counter!("serve.chaos.stalls").inc();
                }
                ChaosKind::BacklogSpike {
                    tenant,
                    model,
                    count,
                    seed,
                } => {
                    let t = tenant % self.tenants.len();
                    let m = model % self.models.len();
                    let d = self.models[m].model.input_dim();
                    let mut r = duet_tensor::rng::seeded(seed);
                    for _ in 0..count {
                        let input = duet_tensor::rng::normal(&mut r, &[d], 0.0, 1.0);
                        let id = RequestId(self.next_id);
                        self.next_id += 1;
                        self.ingest(InferenceRequest {
                            id,
                            tenant: TenantId(t as u32),
                            model: ModelId(m as u32),
                            input,
                            arrival_tick: self.now,
                        });
                    }
                    self.chaos_report.spike_requests += count as u64;
                    counter!("serve.chaos.spike_requests").add(count as u64);
                }
            }
        }
    }

    /// Builds the end-of-run report from the state accumulated so far.
    pub fn report(&self) -> ServeReport {
        let completed: u64 = self.tenants.iter().map(|t| t.latencies.len() as u64).sum();
        ServeReport {
            submitted: self.submitted,
            completed,
            // structurally zero: there is no rejection path
            dropped: 0,
            drained_at_tick: self.now,
            batches: self.batches,
            mean_occupancy_milli: (self.occupancy_sum * 1000)
                .checked_div(self.batches)
                .unwrap_or(0),
            max_queue_depth: self.max_queue_depth,
            degraded_batches: self.degraded_batches,
            dense_fallback_batches: self.dense_fallback_batches,
            guard_trips: self.replicas.iter().map(|r| r.guard.trips()).sum(),
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantSlo::from_latencies(&t.name, &t.latencies, t.degraded))
                .collect(),
        }
    }

    fn ingest(&mut self, req: InferenceRequest) {
        let t = req.tenant.0 as usize;
        let m = req.model.0 as usize;
        assert!(t < self.tenants.len(), "tenant {t} out of range");
        assert!(m < self.models.len(), "model {m} out of range");
        assert_eq!(
            req.input.shape().dims(),
            [self.models[m].model.input_dim()],
            "request {} input width mismatch for model {m}",
            req.id
        );
        self.submitted += 1;
        self.admission.enqueued(t);
        let id = req.id;
        let tenant = req.tenant;
        let arrival = req.arrival_tick;
        self.batcher.push(req);
        let depth = self.batcher.total_depth() as u64;
        self.max_queue_depth = self.max_queue_depth.max(depth);
        counter!("serve.requests.enqueued").inc();
        gauge!("serve.queue.depth").set(depth as i64);
        event::emit(
            EventKind::Enqueue,
            id.0,
            tenant.0,
            arrival,
            depth,
            m as u64,
            0.0,
        );
        event::emit(
            EventKind::Admit,
            id.0,
            tenant.0,
            arrival,
            u64::from(self.admission.level_of(t)),
            0,
            0.0,
        );
        self.note_level(t);
    }

    /// Emits an [`EventKind::AdmissionLevel`] event when a tenant's
    /// degradation level moved since the last time it was observed.
    /// Called after every admission state change (enqueue, completion) —
    /// dispatch moves work without changing the outstanding count.
    fn note_level(&mut self, t: usize) {
        let level = self.admission.level_of(t);
        let old = self.last_levels[t];
        if level != old {
            self.last_levels[t] = level;
            event::emit(
                EventKind::AdmissionLevel,
                event::NO_SCOPE,
                t as u32,
                self.now,
                u64::from(level),
                u64::from(old),
                0.0,
            );
        }
    }

    /// Releases every ready batch onto an idle replica and executes the
    /// whole round on the worker pool. Plans are built serially (queue
    /// and admission state), executed in parallel (pure layer math), and
    /// committed serially in plan order — the order never depends on the
    /// thread count.
    fn dispatch(&mut self) {
        if self.now < self.stall_until {
            return; // chaos batcher stall: queues hold, nothing drops
        }
        struct Plan {
            replica: usize,
            batch_id: u64,
            requests: Vec<InferenceRequest>,
            level: u8,
            policy: SwitchingPolicy,
            dense: bool,
            bits: u32,
        }
        let mut plans: Vec<Plan> = Vec::new();
        let mut claimed = vec![false; self.replicas.len()];
        for m in 0..self.models.len() {
            while self.batcher.ready(m, self.now) {
                // Under closed-loop control a tripped replica is
                // quarantined: batches prefer healthy peers, but a
                // tripped replica still serves (dense) when it is the
                // only idle one — zero dropped requests beats purity.
                // Controller-off keeps the original first-idle pick
                // bitwise.
                let healthy = if self.cfg.control.is_some() {
                    (0..self.replicas.len()).find(|&ri| {
                        !claimed[ri]
                            && self.replicas[ri].model == m
                            && self.in_flight[ri].is_none()
                            && !self.replicas[ri].guard.is_tripped()
                    })
                } else {
                    None
                };
                let Some(ri) = healthy.or_else(|| {
                    (0..self.replicas.len()).find(|&ri| {
                        !claimed[ri] && self.replicas[ri].model == m && self.in_flight[ri].is_none()
                    })
                }) else {
                    break;
                };
                let requests = self.batcher.flush(m);
                debug_assert!(!requests.is_empty(), "ready() implies a non-empty flush");
                let batch_id = self.batch_seq;
                self.batch_seq += 1;
                let level = requests
                    .iter()
                    .map(|r| self.admission.level_of(r.tenant.0 as usize))
                    .max()
                    .unwrap_or(0);
                // The tick this batch became releasable: full when its
                // last member arrived, or its head waited out. Dispatch
                // may happen later (all replicas busy); the gap is the
                // batch-wait stage of the latency waterfall.
                let seal = if requests.len() >= self.cfg.batcher.max_batch {
                    requests.last().map_or(self.now, |r| r.arrival_tick)
                } else {
                    requests.first().map_or(self.now, |r| {
                        r.arrival_tick + self.cfg.batcher.max_wait_ticks
                    })
                }
                .min(self.now);
                let occupancy = requests.len() as u64;
                for r in &requests {
                    self.admission.dispatched(r.tenant.0 as usize);
                    // A member that joined after the head waited out
                    // cannot have sealed before it arrived.
                    event::emit(
                        EventKind::BatchSeal,
                        r.id.0,
                        r.tenant.0,
                        seal.max(r.arrival_tick),
                        batch_id,
                        occupancy,
                        0.0,
                    );
                    event::emit(
                        EventKind::ExecStart,
                        r.id.0,
                        r.tenant.0,
                        self.now,
                        batch_id,
                        u64::from(level),
                        0.0,
                    );
                }
                claimed[ri] = true;
                // With a controller the policy is its current θ (the
                // setpoint shift below absorbs the admission level);
                // without one, the static level → θ table.
                let policy = match &self.replicas[ri].controller {
                    Some(c) => c.policy(),
                    None => self.models[m].overload.policy_for(level),
                };
                plans.push(Plan {
                    replica: ri,
                    batch_id,
                    requests,
                    level,
                    policy,
                    dense: self.replicas[ri].must_serve_dense(),
                    bits: self.replicas[ri].effective_bits(),
                });
            }
        }
        if plans.is_empty() {
            return;
        }
        let workers = if self.cfg.workers == 0 {
            parallel::num_threads()
        } else {
            self.cfg.workers
        };
        let models = &self.models;
        let replicas = &self.replicas;
        let executions = parallel::map_indexed(plans.len(), workers.min(plans.len()), |i| {
            let p = &plans[i];
            // Attribute engine-level recorder events (EngineFinish)
            // emitted during this batch to its batch scope.
            let _scope = event::scoped(event::BATCH_SCOPE | p.batch_id, event::NO_TENANT);
            execute_batch(
                replicas[p.replica].effective_model(&models[replicas[p.replica].model].model),
                &p.requests,
                &p.policy,
                p.dense,
            )
        });
        for (plan, exec) in plans.into_iter().zip(executions) {
            let ri = plan.replica;
            let was_tripped = self.replicas[ri].guard.is_tripped();
            let observation = self.replicas[ri].observe(&exec);
            // The EWMA is `None` until the guard's first finite
            // observation; events carry the −1.0 sentinel for that cold
            // start (fractions live in [0, 1]) while the controller
            // consumes the `Option` and holds instead of reading 0.
            let ewma = self.replicas[ri].guard.ewma();
            if let Some(obs) = observation {
                if obs.newly_tripped {
                    event::emit(
                        EventKind::GuardTrip,
                        event::BATCH_SCOPE | plan.batch_id,
                        event::NO_TENANT,
                        self.now,
                        ri as u64,
                        u64::from(obs.nonfinite),
                        ewma.unwrap_or(-1.0),
                    );
                } else if was_tripped && !self.replicas[ri].guard.is_tripped() {
                    event::emit(
                        EventKind::GuardClear,
                        event::BATCH_SCOPE | plan.batch_id,
                        event::NO_TENANT,
                        self.now,
                        ri as u64,
                        0,
                        ewma.unwrap_or(-1.0),
                    );
                }
            }
            self.update_controller(ri, plan.level, plan.batch_id, ewma);
            let cost = service_ticks_scaled(
                &exec.result.report,
                self.cfg.macs_per_tick,
                self.cfg.dispatch_overhead_ticks,
                plan.bits,
            )
            .max(1);
            self.replicas[ri].busy_until = self.now + cost;
            self.replicas[ri].served_batches += 1;
            let occupancy = plan.requests.len() as u64;
            self.batches += 1;
            self.occupancy_sum += occupancy;
            if plan.level > 0 {
                self.degraded_batches += 1;
                counter!("serve.degraded.batches").inc();
            }
            if exec.dense {
                self.dense_fallback_batches += 1;
                counter!("serve.dense_fallback.batches").inc();
            }
            histogram!("serve.batch.occupancy").record(occupancy);
            histogram!("serve.batch.service_ticks").record(cost);
            event::emit(
                EventKind::BatchExec,
                event::BATCH_SCOPE | plan.batch_id,
                event::NO_TENANT,
                self.now,
                exec.result.report.executor_macs,
                exec.result.report.speculator_macs,
                exec.result.report.approximate_fraction() * 10_000.0,
            );
            self.in_flight[ri] = Some(InFlight {
                batch_id: plan.batch_id,
                requests: plan.requests,
                outputs: exec.result.output,
                level: plan.level,
                dense: exec.dense,
            });
        }
        gauge!("serve.queue.depth").set(self.batcher.total_depth() as i64);
    }

    /// Runs one θ-controller update on replica `ri` after it committed a
    /// batch at admission `level`, actuating the precision ladder on a
    /// width change and recording the sample for observability.
    fn update_controller(&mut self, ri: usize, level: u8, batch_id: u64, ewma: Option<f64>) {
        let Some(ctl) = self.cfg.control else {
            return;
        };
        let shift = ctl.setpoint_step * f64::from(level);
        let old_bits = self.replicas[ri].effective_bits();
        let Some(decision) = self.replicas[ri]
            .controller
            .as_mut()
            .map(|c| c.update(ewma, shift))
        else {
            return;
        };
        if decision.bits != old_bits {
            // Disjoint field borrows: the degraded copy is rebuilt from
            // the shared model table.
            let (models, replicas) = (&self.models, &mut self.replicas);
            let m = replicas[ri].model;
            replicas[ri].set_precision(&models[m].model, decision.bits);
        }
        match decision.action {
            ControlAction::Hold => counter!("serve.control.holds").inc(),
            ControlAction::Step => counter!("serve.control.steps").inc(),
            ControlAction::Saturated => counter!("serve.control.saturated").inc(),
            ControlAction::BitsDropped => counter!("serve.control.bits_drops").inc(),
            ControlAction::BitsRestored => counter!("serve.control.bits_restores").inc(),
        }
        if let Some(g) = self.replica_theta.get(ri) {
            g.set(i64::from((decision.theta * 1000.0).round() as i32));
        }
        let error = self.replicas[ri]
            .controller
            .as_ref()
            .and_then(|c| c.last_error());
        let theta_milli = i64::from((decision.theta * 1000.0).round() as i32);
        event::emit(
            EventKind::ControlUpdate,
            event::BATCH_SCOPE | batch_id,
            event::NO_TENANT,
            self.now,
            ri as u64,
            theta_milli as u64,
            error.unwrap_or(0.0),
        );
        self.control_log.push(ControlSample {
            tick: self.now,
            replica: ri,
            theta: decision.theta,
            error,
            bits: decision.bits,
            tripped: self.replicas[ri].guard.is_tripped(),
        });
    }

    /// Completes every batch whose service interval has elapsed, in
    /// replica order (deterministic).
    fn complete_due(&mut self, responses: &mut Vec<InferenceResponse>) {
        for ri in 0..self.replicas.len() {
            if self.in_flight[ri].is_none() || self.replicas[ri].busy_until > self.now {
                continue;
            }
            let Some(fl) = self.in_flight[ri].take() else {
                continue;
            };
            let done = self.replicas[ri].busy_until;
            let n = self.models[self.replicas[ri].model].model.output_dim();
            for (bi, req) in fl.requests.iter().enumerate() {
                let t = req.tenant.0 as usize;
                let latency = done - req.arrival_tick;
                self.tenants[t].latencies.push(latency);
                if fl.level > 0 {
                    self.tenants[t].degraded += 1;
                }
                self.tenants[t].latency_hist.record(latency);
                self.admission.completed(t);
                self.note_level(t);
                counter!("serve.requests.completed").inc();
                histogram!("serve.request.latency_ticks").record(latency);
                event::emit(
                    EventKind::ExecEnd,
                    req.id.0,
                    req.tenant.0,
                    done,
                    fl.batch_id,
                    u64::from(fl.dense),
                    0.0,
                );
                event::emit(
                    EventKind::Respond,
                    req.id.0,
                    req.tenant.0,
                    done,
                    latency,
                    u64::from(fl.level),
                    0.0,
                );
                responses.push(InferenceResponse {
                    id: req.id,
                    tenant: req.tenant,
                    model: req.model,
                    output: Tensor::from_vec(fl.outputs.row(bi).to_vec(), &[n]),
                    arrival_tick: req.arrival_tick,
                    completion_tick: done,
                    degradation_level: fl.level,
                    served_dense: fl.dense,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_nn::Activation;
    use duet_tensor::rng::{self, seeded};

    fn model(name: &str, seed: u64) -> ServedModel {
        use duet_core::dual_layer::DualModuleLayer;
        let mut r = seeded(seed);
        let w = rng::normal(&mut r, &[16, 24], 0.0, 0.3);
        let b = Tensor::zeros(&[16]);
        ServedModel {
            name: name.into(),
            model: ModelVariant::Layer(DualModuleLayer::learn(
                &w,
                &b,
                Activation::Relu,
                16,
                200,
                &mut r,
            )),
            overload: OverloadPolicy {
                base: SwitchingPolicy::relu(0.0),
                theta_step: 0.5,
            },
            band: None,
        }
    }

    fn transformer_model(name: &str, seed: u64) -> ServedModel {
        use duet_core::dual_proj::DualProjection;
        use duet_core::engine::MacMode;
        use duet_core::{DualAttention, DualFfn, DualTransformerBlock};
        let m = 6usize;
        let f = 12usize;
        let mut r = seeded(seed);
        let mut proj = |n: usize, d: usize| {
            let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
            let b = rng::normal(&mut r, &[n], 0.0, 0.05);
            DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, 3, 200, &mut r)
        };
        let block = DualTransformerBlock::new(
            DualAttention::new(proj(m, m), proj(m, m), proj(m, m), proj(m, m)),
            DualFfn::new(proj(f, m), proj(m, f)),
        );
        ServedModel {
            name: name.into(),
            model: ModelVariant::Transformer {
                block: Box::new(block),
                seq_len: 4,
                theta_attn: 0.05,
                theta_ffn_out: 0.05,
            },
            overload: OverloadPolicy {
                base: SwitchingPolicy::gelu(-0.5),
                theta_step: 0.5,
            },
            band: None,
        }
    }

    fn server(cfg: ServeConfig) -> DuetServer {
        DuetServer::new(
            vec![model("m0", 1), model("m1", 2)],
            &["alpha".to_string(), "beta".to_string()],
            cfg,
        )
    }

    #[test]
    fn submit_and_drain_completes_everything() {
        let mut cfg = ServeConfig::balanced();
        cfg.workers = 1;
        let mut s = server(cfg);
        let mut r = seeded(7);
        for i in 0..10 {
            let x = rng::normal(&mut r, &[24], 0.0, 1.0);
            s.submit(TenantId(i % 2), ModelId(i % 2), x).unwrap();
        }
        let responses = s.run_until_idle();
        assert_eq!(responses.len(), 10);
        let report = s.report();
        assert_eq!(report.submitted, 10);
        assert_eq!(report.completed, 10);
        assert_eq!(report.dropped, 0);
        assert!(report.batches >= 2);
        assert!(report.drained_at_tick > 0);
        for resp in &responses {
            assert!(resp.completion_tick > resp.arrival_tick);
            assert_eq!(resp.output.len(), 16);
        }
    }

    #[test]
    fn overload_degrades_instead_of_dropping() {
        let mut cfg = ServeConfig::balanced();
        cfg.workers = 1;
        cfg.admission = AdmissionConfig {
            backlog_target: 2,
            level_step: 2,
            max_level: 3,
        };
        // slow service so backlog builds
        cfg.macs_per_tick = 64;
        let mut s = server(cfg);
        let mut r = seeded(13);
        for _ in 0..40 {
            let x = rng::normal(&mut r, &[24], 0.0, 1.0);
            s.submit(TenantId(0), ModelId(0), x).unwrap();
        }
        let responses = s.run_until_idle();
        let report = s.report();
        assert_eq!(report.completed, 40);
        assert_eq!(report.dropped, 0);
        assert!(
            report.degraded_batches > 0,
            "sustained overload must degrade: {report:?}"
        );
        assert!(responses.iter().any(|r| r.degradation_level > 0));
    }

    #[test]
    fn responses_identical_across_worker_counts() {
        let trace = {
            let s = server(ServeConfig::balanced());
            let cfg = crate::trace::TraceConfig {
                seed: 99,
                horizon_ticks: 300,
                tenants: vec![
                    crate::trace::TenantProfile::uniform("alpha", 3),
                    crate::trace::TenantProfile::uniform("beta", 5),
                ],
                diurnal: None,
            };
            crate::trace::generate(&cfg, &s.model_dims())
        };
        let mut outcomes = Vec::new();
        for workers in [1, 4, 7] {
            let mut cfg = ServeConfig::balanced();
            cfg.workers = workers;
            let mut s = server(cfg);
            outcomes.push(s.run_trace(&trace));
        }
        let (ref base_resp, ref base_rep) = outcomes[0];
        for (resp, rep) in &outcomes[1..] {
            assert_eq!(resp, base_resp);
            assert_eq!(rep, base_rep);
        }
    }

    #[test]
    fn transformer_model_serves_degrades_and_replays_identically() {
        let mk = |workers: usize| {
            let mut cfg = ServeConfig::balanced();
            cfg.workers = workers;
            cfg.admission = AdmissionConfig {
                backlog_target: 2,
                level_step: 2,
                max_level: 3,
            };
            cfg.macs_per_tick = 64; // slow service so backlog builds
            DuetServer::new(
                vec![model("m0", 1), transformer_model("tiny-lm", 5)],
                &["alpha".to_string()],
                cfg,
            )
        };
        let trace = {
            let s = mk(1);
            let cfg = crate::trace::TraceConfig {
                seed: 41,
                horizon_ticks: 200,
                tenants: vec![crate::trace::TenantProfile::uniform("alpha", 2)],
                diurnal: None,
            };
            crate::trace::generate(&cfg, &s.model_dims())
        };
        assert!(
            trace.iter().any(|r| r.model == ModelId(1)),
            "trace must exercise the transformer model"
        );
        let mut outcomes = Vec::new();
        for workers in [1, 4, 7] {
            let mut s = mk(workers);
            outcomes.push(s.run_trace(&trace));
        }
        let (ref base_resp, ref base_rep) = outcomes[0];
        assert_eq!(base_rep.completed, base_rep.submitted);
        assert_eq!(base_rep.dropped, 0);
        assert!(
            base_rep.degraded_batches > 0,
            "sustained overload must degrade the transformer too: {base_rep:?}"
        );
        let d = mk(1).model_dims()[1].1;
        assert!(base_resp
            .iter()
            .any(|r| r.model == ModelId(1) && r.output.len() == d));
        for (resp, rep) in &outcomes[1..] {
            assert_eq!(resp, base_resp);
            assert_eq!(rep, base_rep);
        }
    }

    #[test]
    fn report_on_fresh_server_is_all_zero() {
        let s = server(ServeConfig::balanced());
        let report = s.report();
        assert_eq!(report.submitted, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.mean_occupancy_milli, 0);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].p99_ticks, 0);
    }

    #[test]
    fn submit_rejects_invalid_requests_with_typed_errors() {
        let mut s = server(ServeConfig::balanced());
        assert_eq!(
            s.submit(TenantId(0), ModelId(0), Tensor::zeros(&[23])),
            Err(SubmitError::ShapeMismatch { got: 23, want: 24 })
        );
        assert_eq!(
            s.submit(TenantId(9), ModelId(0), Tensor::zeros(&[24])),
            Err(SubmitError::UnknownTenant {
                tenant: 9,
                tenants: 2
            })
        );
        assert_eq!(
            s.submit(TenantId(0), ModelId(5), Tensor::zeros(&[24])),
            Err(SubmitError::UnknownModel {
                model: 5,
                models: 2
            })
        );
        let mut bad = vec![0.0f32; 24];
        bad[7] = f32::NAN;
        let err = s
            .submit(TenantId(0), ModelId(0), Tensor::from_vec(bad, &[24]))
            .unwrap_err();
        assert_eq!(err, SubmitError::NonFiniteInput { index: 7 });
        assert!(err.to_string().contains("not finite"));
        // nothing entered the queue and no id was minted
        let report = s.report();
        assert_eq!(report.submitted, 0);
        assert_eq!(s.run_until_idle().len(), 0);
        let ok = s
            .submit(TenantId(0), ModelId(0), Tensor::zeros(&[24]))
            .unwrap();
        assert_eq!(ok, RequestId(0));
    }

    #[test]
    fn controller_tracks_setpoint_and_quarantines_off() {
        let mut cfg = ServeConfig::balanced();
        cfg.workers = 1;
        cfg.control = Some(ServeControl::balanced());
        let mut models = vec![model("m0", 1)];
        models[0].band = Some(SwitchRateBand { lo: 0.3, hi: 0.5 });
        let mut s = DuetServer::new(models, &["alpha".to_string()], cfg);
        let mut r = seeded(21);
        for _ in 0..60 {
            let x = rng::normal(&mut r, &[24], 0.0, 1.0);
            s.submit(TenantId(0), ModelId(0), x).unwrap();
        }
        let responses = s.run_until_idle();
        assert_eq!(responses.len(), 60);
        let samples = s.control_samples();
        assert!(!samples.is_empty(), "controller must have run");
        // by the end the measured switch rate sits inside the deadband
        let last = samples.last().unwrap();
        assert!(
            last.error.is_some_and(|e| e.abs() <= 0.1 + 1e-9),
            "controller should settle into the band: {last:?}"
        );
        assert_eq!(last.bits, 4, "no fault: full precision throughout");
    }
}
