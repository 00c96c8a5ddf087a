//! # duet
//!
//! Umbrella crate for the DUET dual-module DNN accelerator reproduction
//! (Liu Liu et al., *DUET: Boosting Deep Neural Network Efficiency on
//! Dual-Module Architecture*, MICRO 2020).
//!
//! The workspace is organized bottom-up:
//!
//! * [`tensor`] — dense `f32` tensors, GEMM/GEMV, im2col, INT16/INT4
//!   fixed-point types ([`duet_tensor`]),
//! * [`nn`] — a small trainable NN library: linear/conv/pool layers, LSTM
//!   and GRU cells with BPTT, losses and optimizers ([`duet_nn`]),
//! * [`core`] — the paper's algorithmic contribution: ternary random
//!   projection, QDR, approximate-module distillation, threshold-based
//!   dynamic switching, and dual-module FF/CONV/LSTM/GRU execution
//!   ([`duet_core`]),
//! * [`sim`] — the cycle-level DUET accelerator simulator (Executor,
//!   Speculator, Reorder Unit, GLB capacity, and one speculated-GEMV
//!   stage that prices the DRAM row fetches of FC layers, RNN gates and
//!   transformer projections) plus baseline accelerators ([`duet_sim`]),
//! * [`workloads`] — the benchmark model zoo and synthetic dataset
//!   generators ([`duet_workloads`]),
//! * [`obs`] — zero-dependency runtime telemetry: metrics registry, RAII
//!   span timers, Chrome-trace export, enabled via `DUET_METRICS=1` /
//!   `DUET_TRACE=out.json` ([`duet_obs`]).
//!
//! # Quickstart
//!
//! ```
//! use duet::core::{DualModuleLayer, SwitchingPolicy};
//! use duet::nn::Activation;
//! use duet::tensor::{rng, Tensor};
//!
//! let mut r = rng::seeded(1);
//! let w = rng::normal(&mut r, &[64, 128], 0.0, 0.1);
//! let b = Tensor::zeros(&[64]);
//! let layer = DualModuleLayer::learn(&w, &b, Activation::Relu, 32, 200, &mut r);
//! let x = rng::normal(&mut r, &[128], 0.0, 1.0);
//! let out = layer.forward(&x, &SwitchingPolicy::relu(0.0));
//! assert_eq!(out.output.len(), 64);
//! ```

#![forbid(unsafe_code)]

pub use duet_core as core;
pub use duet_nn as nn;
pub use duet_obs as obs;
pub use duet_sim as sim;
pub use duet_tensor as tensor;
pub use duet_workloads as workloads;
