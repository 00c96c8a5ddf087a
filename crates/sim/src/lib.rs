//! # duet-sim
//!
//! Cycle-level simulator of the DUET dual-module accelerator (§III–§IV of
//! the paper) and of the comparison designs used in its evaluation.
//!
//! The simulator is organized around the paper's block diagram (Fig. 4):
//!
//! * [`config`] — architecture knobs: 16×16 Executor PE array, 16×32 INT4
//!   Speculator systolic array, 1 MiB GLB at 512 B/cycle, and the
//!   BASE/OS/BOS/IOS/DUET feature ladder,
//! * [`executor`] — the Executor PE array with MAC-instruction-LUT
//!   skipping and step-level imbalance,
//! * [`speculator`] — the Speculator pipeline (quantizer → adder trees →
//!   systolic array → MFU → reorder unit),
//! * [`reorder`] — the bucketed adaptive-mapping Reorder Unit (§IV-A),
//! * [`cnn`] / [`rnn`] — the layer-pipelined CNN dataflow and the
//!   gate-pipelined memory-bound RNN dataflow (both two-phase: parallel
//!   simulate, serial compose),
//! * [`fc`] / [`transformer`] — the memory-bound FC GEMV and the dual
//!   transformer block (six speculated projections per position plus a
//!   dense softmax mixer), driven by real `DualBlockOutput` maps; an FC
//!   layer, an RNN gate and a transformer projection are each one
//!   speculated GEMV stage, priced by one crate-private model (row
//!   fetches from DRAM, PE-array cycles, the speculation the previous
//!   stage hides, and the energy breakdown),
//! * [`sweep`] — the design-space-exploration driver fanning a
//!   (config × workload) grid out over `duet_tensor::parallel`,
//! * [`glb`] — the GLB capacity model behind the RNN weight-fit
//!   decision,
//! * [`fault`] — seeded fault injection (INT4 weight bits, map bits, GLB
//!   words) and the fault campaign over a sweep grid,
//! * [`pe`] / [`systolic`] / [`adder_tree`] — functional models of the
//!   Executor PE, the Speculator's systolic array and its adder trees,
//! * [`energy`] / [`area`] — the CACTI-style constant tables behind the
//!   energy breakdowns and Table I,
//! * [`baselines`] — Eyeriss, Cnvlutin, SnaPEA, Predict(+Cnvlutin),
//! * [`trace`] — the workload descriptors that connect `duet-core`'s real
//!   switching maps (or calibrated synthetic ones) to the hardware model.
//!
//! # Example
//!
//! ```
//! use duet_sim::config::ArchConfig;
//! use duet_sim::energy::EnergyTable;
//! use duet_sim::trace::ConvLayerTrace;
//! use duet_sim::cnn::run_cnn;
//! use duet_tensor::rng;
//!
//! let mut r = rng::seeded(1);
//! let trace = ConvLayerTrace::synthetic(
//!     "conv1", 64, 196, 288, 12544, 0.45, 0.3, 0.55, 32, &mut r,
//! );
//! let duet = run_cnn("demo", &[trace.clone()], &ArchConfig::duet(), &EnergyTable::default());
//! let base = run_cnn("demo", &[trace], &ArchConfig::single_module(), &EnergyTable::default());
//! assert!(duet.speedup_over(&base) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder_tree;
pub mod area;
pub mod baselines;
pub mod cnn;
pub mod config;
pub mod energy;
pub mod executor;
pub mod fault;
pub mod fc;
pub mod glb;
pub mod pe;
pub mod reorder;
pub mod report;
pub mod rnn;
pub mod speculator;
mod stage;
pub mod sweep;
pub mod systolic;
pub mod trace;
pub mod transformer;

pub use area::{AreaModel, AreaReport};
pub use config::{ArchConfig, ExecutorFeatures, SpeculatorConfig};
pub use energy::{EnergyBreakdown, EnergyTable};
pub use report::{LayerPerf, ModelPerf};
pub use sweep::{SweepCell, SweepGrid, SweepPoint, SweepWorkload};
pub use trace::{ConvLayerTrace, RnnLayerTrace};
