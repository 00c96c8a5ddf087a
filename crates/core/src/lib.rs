//! # duet-core
//!
//! The algorithmic half of the DUET co-design (§II of the paper):
//! *dual-module processing*.
//!
//! Every DNN layer (the **accurate module**) gets a lightweight
//! **approximate module** distilled from it offline. At inference time the
//! approximate module runs first — on quantized, dimension-reduced (QDR)
//! inputs — and a threshold test on its outputs produces a binary
//! *switching map* deciding, neuron by neuron, which outputs may keep the
//! cheap approximate value (the activation function's insensitive region)
//! and which must be recomputed exactly.
//!
//! * [`TernaryProjection`] — Achlioptas random projection with ternary
//!   entries, computable with additions only (§II-A),
//! * [`ApproxLinear`] — the approximate module: INT4 weights over the
//!   projected input,
//! * [`distill`] — least-squares knowledge distillation of approximate
//!   modules from their teachers (Eq. 1),
//! * [`SwitchingPolicy`] / [`SwitchingMap`] — Eq. (2)–(3) dynamic
//!   switching,
//! * [`DualProjection`] — one speculated GEMV (weights + INT4
//!   speculator + engine call site), or a batch of them over im2col
//!   columns; every layer below is a composition of projections,
//! * [`DualModuleLayer`], [`DualConvLayer`], [`DualLstmCell`],
//!   [`DualGruCell`] — dual-module execution for FF, CONV, LSTM and GRU
//!   layers,
//! * [`DualAttention`], [`DualFfn`], [`DualTransformerBlock`] —
//!   speculated Q/K/V/output and FFN projections around a dense
//!   softmax mixer,
//! * [`metrics`] — FLOP and byte accounting behind every savings number in
//!   the evaluation,
//! * [`tuning`] — threshold calibration against a quality budget
//!   (the "tuned with the validation set" step of §II-A).
//!
//! # Example
//!
//! ```
//! use duet_core::{DualModuleLayer, SwitchingPolicy};
//! use duet_nn::Activation;
//! use duet_tensor::{rng, Tensor};
//!
//! let mut r = rng::seeded(7);
//! let w = rng::normal(&mut r, &[32, 64], 0.0, 0.2);
//! let b = Tensor::zeros(&[32]);
//! let layer = DualModuleLayer::learn(&w, &b, Activation::Relu, 16, 256, &mut r);
//! let x = rng::normal(&mut r, &[64], 0.0, 1.0);
//! let out = layer.forward(&x, &SwitchingPolicy::relu(0.0));
//! // every sensitive neuron is exact, every insensitive one approximate
//! assert_eq!(out.output.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod calibration;
pub mod control;
pub mod distill;
pub mod dual_attention;
pub mod dual_conv;
pub mod dual_layer;
pub mod dual_proj;
pub mod dual_rnn;
pub mod engine;
pub mod guard;
pub mod metrics;
pub mod projection;
pub mod switching;
pub mod tuning;

pub use approx::{ApproxConfig, ApproxLinear};
pub use control::{
    ControlAction, ControlConfig, ControlDecision, ControlStats, PrecisionLadder, ThetaController,
};
pub use dual_attention::{DualAttention, DualFfn, DualTransformerBlock, TransformerThresholds};
pub use dual_conv::{DualConvLayer, DualConvOutput};
pub use dual_layer::{DualModuleLayer, DualOutput};
pub use dual_proj::{DualProjection, ProjectionCosts};
pub use dual_rnn::{DualGruCell, DualLstmCell};
pub use engine::SpeculationEngine;
pub use guard::{GuardConfig, SpeculationGuard, SwitchRateBand};
pub use metrics::SavingsReport;
pub use projection::TernaryProjection;
pub use switching::{SwitchingMap, SwitchingPolicy};
