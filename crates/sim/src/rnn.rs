//! Memory-bound RNN execution (§IV-B, Fig. 9).
//!
//! The dataflow is element-by-element, layer-by-layer, gate-by-gate.
//! Gate weight matrices exceed the GLB, so every step re-streams weights
//! from DRAM — unless the switching map says a row's output is
//! insensitive, in which case the row is *never fetched*. The Speculator
//! runs one gate ahead (gate-level dual-module pipeline); only the first
//! gate's speculation per step is exposed.
//!
//! Simulation is two-phase: time steps are mutually independent (the
//! gate-pipeline state `prev_gate_latency` resets at every step), so the
//! per-step trace walk fans out over [`duet_tensor::parallel::map_indexed`]
//! and the per-step partials are folded *in step order* on the calling
//! thread. Because each partial is computed by the same code regardless of
//! which worker runs it, and the fold order is fixed, results are bitwise
//! identical across thread counts.

use crate::config::ArchConfig;
use crate::energy::EnergyTable;
use crate::glb::GlbPlan;
use crate::report::{LayerPerf, ModelPerf};
use crate::speculator::{speculate_rnn_gate, SpeculatorResult};
use crate::stage::{RowStage, StageCost};
use crate::trace::RnnLayerTrace;
use duet_tensor::parallel;

/// Detailed latency split for an RNN run — the Fig. 12(d) data.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RnnLatencySplit {
    /// Cycles the DRAM channel is the bottleneck.
    pub memory_cycles: u64,
    /// Cycles on-chip compute is the bottleneck.
    pub compute_cycles: u64,
    /// Exposed speculation cycles.
    pub speculation_cycles: u64,
}

impl RnnLatencySplit {
    /// Total latency.
    pub fn total(&self) -> u64 {
        self.memory_cycles + self.compute_cycles + self.speculation_cycles
    }
}

/// Result of simulating one RNN layer trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnRunResult {
    /// Standard per-layer report.
    pub perf: LayerPerf,
    /// Memory/compute/speculation latency split.
    pub split: RnnLatencySplit,
    /// Total weight bytes fetched from DRAM.
    pub weight_bytes_fetched: u64,
}

/// Options for an RNN simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RnnOptions {
    /// Dual-module execution (switching maps gate compute and fetches).
    pub dual: bool,
    /// Gate-level dual-module pipelining (§IV-B): speculation for gate
    /// g+1 hides behind gate g's execution. Disabling it is the ablation
    /// where every gate's speculation sits on the critical path.
    pub gate_pipeline: bool,
}

impl RnnOptions {
    /// The BASE single-module design.
    pub fn base() -> Self {
        Self {
            dual: false,
            gate_pipeline: false,
        }
    }

    /// The full DUET design.
    pub fn duet() -> Self {
        Self {
            dual: true,
            gate_pipeline: true,
        }
    }

    /// Dual-module but with speculation serialized before each gate
    /// (the pipeline ablation).
    pub fn duet_unpipelined() -> Self {
        Self {
            dual: true,
            gate_pipeline: false,
        }
    }
}

/// Simulates one recurrent layer. With `dual == false` every row is
/// fetched and computed (the BASE design); with `dual == true` the
/// switching maps in the trace gate both compute and weight fetches.
/// Uses the full gate pipeline; see [`run_rnn_layer_with`] for the
/// ablation knobs.
pub fn run_rnn_layer(
    trace: &RnnLayerTrace,
    config: &ArchConfig,
    energy: &EnergyTable,
    dual: bool,
) -> RnnRunResult {
    run_rnn_layer_with(
        trace,
        config,
        energy,
        RnnOptions {
            dual,
            gate_pipeline: true,
        },
    )
}

/// Simulates one recurrent layer with explicit [`RnnOptions`], using the
/// process-wide thread count ([`parallel::num_threads`]).
pub fn run_rnn_layer_with(
    trace: &RnnLayerTrace,
    config: &ArchConfig,
    energy: &EnergyTable,
    options: RnnOptions,
) -> RnnRunResult {
    run_rnn_layer_with_threads(trace, config, energy, options, parallel::num_threads())
}

/// Walks the gates of one time step; the only cross-step coupling is the
/// `step == 0` cold-fetch special case, decided from the step index alone.
fn simulate_rnn_step(
    step: usize,
    trace: &RnnLayerTrace,
    config: &ArchConfig,
    energy: &EnergyTable,
    options: RnnOptions,
    streamed: bool,
    spec: Option<SpeculatorResult>,
) -> StageCost {
    let rows_per_gate = trace.hidden as u64;
    let row_bytes = trace.row_weight_bytes();
    let mut step_cost = StageCost::default();
    let mut prev_gate_latency = 0u64;
    for gate in 0..trace.gates {
        let rows = if options.dual {
            trace.sensitive_rows(step, gate) as u64
        } else {
            rows_per_gate
        };
        // DRAM: fetch only sensitive rows (or everything when the
        // matrix would fit — it never does for real LSTM sizes).
        let fetch_bytes = if streamed {
            rows * row_bytes
        } else if step == 0 {
            rows_per_gate * row_bytes
        } else {
            0
        };
        // Speculation for this gate hides behind the previous gate's
        // execution; the step's first gate is exposed.
        let cost = RowStage {
            rows,
            row_macs: trace.row_macs(),
            fetch_bytes,
            glb_words: (trace.input + trace.hidden) as u64,
            spec,
            hidden_behind: if options.gate_pipeline {
                prev_gate_latency
            } else {
                0
            },
        }
        .cost(config, energy);
        prev_gate_latency = cost.latency();
        step_cost += cost;
    }
    step_cost
}

/// Simulates one recurrent layer with explicit [`RnnOptions`] on an
/// explicit thread count. The result is bitwise identical for any
/// `threads` value: per-step partials are computed independently and
/// folded in step order.
pub fn run_rnn_layer_with_threads(
    trace: &RnnLayerTrace,
    config: &ArchConfig,
    energy: &EnergyTable,
    options: RnnOptions,
    threads: usize,
) -> RnnRunResult {
    let _layer_span = duet_obs::span_lazy("sim.rnn.layer", || trace.name.clone());
    let rows_per_gate = trace.hidden as u64;

    // Weight matrices never fit: h×(d+h) INT16 per gate.
    let plan = GlbPlan {
        weight_bytes: rows_per_gate * trace.row_weight_bytes(),
        input_bytes: (trace.input + trace.hidden) as u64 * 2,
        output_bytes: trace.hidden as u64 * 2,
        speculator_bytes: GlbPlan::speculator_partition_bytes(config),
    };
    let streamed = !plan.fits(config);

    // Speculation for one gate: both students, reduced dim paper-style
    // k = h/8 clamped.
    let k = (trace.hidden / 8).clamp(16, 256);
    let spec = options
        .dual
        .then(|| speculate_rnn_gate(trace.hidden, trace.input, k, config, energy));

    // Phase 1 (parallel): independent per-step trace walks.
    let partials = parallel::map_indexed(trace.steps, threads, |step| {
        simulate_rnn_step(step, trace, config, energy, options, streamed, spec)
    });

    // Phase 2 (serial): fold partials in step order so float accumulation
    // order — and therefore every bit of the result — is thread-count
    // independent.
    let mut total = StageCost::default();
    for p in partials {
        total += p;
    }

    duet_obs::counter!("sim.rnn.steps_simulated").add(trace.steps as u64);
    duet_obs::counter!("sim.dram.bytes").add(total.fetched_bytes);
    duet_obs::counter!("sim.spec.exposed_cycles").add(total.split.speculation_cycles);

    let dense_macs = (trace.steps * trace.gates) as u64 * rows_per_gate * trace.row_macs();
    RnnRunResult {
        perf: total.perf(&trace.name, dense_macs, config),
        split: total.split,
        weight_bytes_fetched: total.fetched_bytes,
    }
}

/// Runs a multi-layer RNN model (sequence of layer traces) and aggregates
/// into a [`ModelPerf`].
pub fn run_rnn(
    model: &str,
    traces: &[RnnLayerTrace],
    config: &ArchConfig,
    energy: &EnergyTable,
    dual: bool,
) -> ModelPerf {
    run_rnn_with_threads(model, traces, config, energy, dual, parallel::num_threads())
}

/// [`run_rnn`] on an explicit thread count (each layer fans its steps out
/// over that many threads; layers run in sequence). Bitwise identical
/// across thread counts.
pub fn run_rnn_with_threads(
    model: &str,
    traces: &[RnnLayerTrace],
    config: &ArchConfig,
    energy: &EnergyTable,
    dual: bool,
    threads: usize,
) -> ModelPerf {
    let options = RnnOptions {
        dual,
        gate_pipeline: true,
    };
    let mut layers = Vec::with_capacity(traces.len());
    let mut total = 0u64;
    for t in traces {
        let r = run_rnn_layer_with_threads(t, config, energy, options, threads);
        total += r.perf.latency_cycles;
        layers.push(r.perf);
    }
    ModelPerf {
        design: if dual { "DUET" } else { "BASE" }.to_string(),
        model: model.to_string(),
        layers,
        total_latency_cycles: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::seeded;

    fn trace(sensitive: f64) -> RnnLayerTrace {
        RnnLayerTrace::synthetic("lstm", 4, 1024, 1024, 20, sensitive, &mut seeded(7))
    }

    #[test]
    fn base_is_memory_bound() {
        let t = trace(0.5);
        let r = run_rnn_layer(&t, &ArchConfig::duet(), &EnergyTable::default(), false);
        assert!(
            r.split.memory_cycles > r.split.compute_cycles,
            "memory {} vs compute {}",
            r.split.memory_cycles,
            r.split.compute_cycles
        );
        assert_eq!(r.split.speculation_cycles, 0);
        assert_eq!(
            r.weight_bytes_fetched,
            20 * 4 * 1024 * (2048 * 2) // steps × gates × rows × row bytes
        );
    }

    #[test]
    fn dual_reduces_weight_fetches_proportionally() {
        let t = trace(0.45);
        let cfg = ArchConfig::duet();
        let et = EnergyTable::default();
        let base = run_rnn_layer(&t, &cfg, &et, false);
        let dual = run_rnn_layer(&t, &cfg, &et, true);
        let ratio = dual.weight_bytes_fetched as f64 / base.weight_bytes_fetched as f64;
        assert!((ratio - 0.45).abs() < 0.05, "fetch ratio {ratio}");
        assert!(dual.perf.latency_cycles < base.perf.latency_cycles);
    }

    #[test]
    fn fig12d_shape_memory_latency_halves() {
        // Paper: off-chip weight access latency 0.65 ms → 0.30 ms at
        // ~46% sensitivity.
        let t = trace(0.46);
        let cfg = ArchConfig::duet();
        let et = EnergyTable::default();
        let base = run_rnn_layer(&t, &cfg, &et, false);
        let dual = run_rnn_layer(&t, &cfg, &et, true);
        let ratio = dual.split.memory_cycles as f64 / base.split.memory_cycles as f64;
        assert!((0.35..0.6).contains(&ratio), "memory ratio {ratio}");
    }

    #[test]
    fn dual_energy_lower_dram_dominated() {
        let t = trace(0.45);
        let cfg = ArchConfig::duet();
        let et = EnergyTable::default();
        let base = run_rnn_layer(&t, &cfg, &et, false);
        let dual = run_rnn_layer(&t, &cfg, &et, true);
        assert!(dual.perf.energy.dram_pj < base.perf.energy.dram_pj * 0.6);
        assert!(dual.perf.energy.total_pj() < base.perf.energy.total_pj());
        // speculator share < 1% of on-chip for RNNs (paper §V-D)
        let frac = dual.perf.energy.speculator_fraction_on_chip();
        assert!(frac < 0.05, "speculator fraction {frac}");
    }

    #[test]
    fn multi_layer_model_aggregates() {
        let ts = vec![trace(0.5), trace(0.4)];
        let m = run_rnn(
            "lstm2",
            &ts,
            &ArchConfig::duet(),
            &EnergyTable::default(),
            true,
        );
        assert_eq!(m.layers.len(), 2);
        assert_eq!(
            m.total_latency_cycles,
            m.layers.iter().map(|l| l.latency_cycles).sum::<u64>()
        );
    }

    #[test]
    fn speculation_mostly_hidden_in_gate_pipeline() {
        let t = trace(0.45);
        let dual = run_rnn_layer(&t, &ArchConfig::duet(), &EnergyTable::default(), true);
        let spec_total = dual.perf.speculator_cycles;
        assert!(
            dual.split.speculation_cycles < spec_total / 2,
            "exposed {} of {}",
            dual.split.speculation_cycles,
            spec_total
        );
    }
}

#[cfg(test)]
mod pipeline_ablation_tests {
    use super::*;
    use duet_tensor::rng::seeded;

    #[test]
    fn unpipelined_speculation_is_slower() {
        let t = RnnLayerTrace::synthetic("l", 4, 1024, 1024, 10, 0.46, &mut seeded(8));
        let cfg = ArchConfig::duet();
        let e = EnergyTable::default();
        let piped = run_rnn_layer_with(&t, &cfg, &e, RnnOptions::duet());
        let serial = run_rnn_layer_with(&t, &cfg, &e, RnnOptions::duet_unpipelined());
        assert!(
            serial.perf.latency_cycles > piped.perf.latency_cycles,
            "serial {} vs piped {}",
            serial.perf.latency_cycles,
            piped.perf.latency_cycles
        );
        // same work, only scheduling differs
        assert_eq!(serial.perf.executed_macs, piped.perf.executed_macs);
        assert_eq!(serial.weight_bytes_fetched, piped.weight_bytes_fetched);
    }

    #[test]
    fn options_constructors() {
        assert!(!RnnOptions::base().dual);
        assert!(RnnOptions::duet().gate_pipeline);
        assert!(!RnnOptions::duet_unpipelined().gate_pipeline);
    }
}
