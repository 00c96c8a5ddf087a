//! # duet-serve — multi-tenant inference serving over dual-module layers
//!
//! The DUET mechanism is a per-request accuracy–efficiency knob; this
//! crate is the serving layer that turns the knob under load. The
//! pipeline is
//!
//! ```text
//! requests ──▶ per-model queues ──▶ micro-batcher ──▶ replica pool
//!                  │                                      │
//!            admission control ──── degradation level ────┘
//!                  (never drops; overload shifts θ)
//! ```
//!
//! * [`batcher::MicroBatcher`] coalesces same-model requests into
//!   batches; a replica runs a batch's requests in turn through its
//!   model's own forward ([`replica::execute_batch`]),
//! * [`replica::Replica`] shards each model over cloned replicas, each
//!   with its own [`SpeculationGuard`](duet_core::guard::SpeculationGuard)
//!   (non-finite outputs or an out-of-band switch rate force
//!   bitwise-dense service until cleared);
//!   a [`replica::ModelVariant`] is either a dual FC layer or a dual
//!   transformer block served over fixed-length token windows,
//! * [`admission::AdmissionController`] maps per-tenant backlog to a
//!   degradation level; [`replica::OverloadPolicy`] maps the level to a
//!   θ shift toward the activation's insensitive region — saturation
//!   degrades precision instead of dropping requests,
//! * [`server::DuetServer`] ties it together as a virtual-time
//!   discrete-event loop whose same-round batches fan out over at most
//!   [`ServeConfig::workers`](server::ServeConfig::workers) scoped
//!   threads — serving's one fan-out,
//! * with [`server::ServeControl`] set, each replica carries a
//!   closed-loop [`ThetaController`](duet_core::control::ThetaController)
//!   steering its switch rate toward the calibrated band midpoint —
//!   admission pressure shifts the *setpoint* instead of stepping a
//!   static θ table, and saturation degrades speculator precision
//!   (INT4 → INT3 → INT2) before anything falls back dense,
//! * [`chaos`] plans seeded fault campaigns (injected guard trips,
//!   mid-flight weight corruption, batcher stalls, backlog spikes)
//!   that replay byte-identically at any thread count; tripped
//!   replicas are quarantined and re-admitted once their guard clears.
//!
//! Everything is accounted in **virtual ticks** derived from the
//! batches' own MAC counts, so a seeded trace ([`trace::generate`])
//! replays byte-identically — outputs, latencies, p50/p90/p99 — at any
//! `DUET_NUM_THREADS`. Per-tenant SLO metrics flow through the
//! `duet-obs` registry (enable with `DUET_METRICS=1`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod chaos;
pub mod replica;
pub mod report;
pub mod request;
pub mod server;
pub mod stats;
pub mod trace;

pub use admission::{AdmissionConfig, AdmissionController};
pub use batcher::{BatcherConfig, MicroBatcher};
pub use chaos::{ChaosConfig, ChaosEvent, ChaosKind, ChaosReport, ChaosTopology};
pub use replica::{ModelVariant, OverloadPolicy, Replica};
pub use report::{Journey, ServeObservability, Stages, TenantWaterfall};
pub use request::{InferenceRequest, InferenceResponse, ModelId, RequestId, TenantId};
pub use server::{ControlSample, DuetServer, ServeConfig, ServeControl, ServedModel, SubmitError};
pub use stats::{ServeReport, TenantSlo};
pub use trace::{ArrivalModel, Diurnal, TenantProfile, TraceConfig};
