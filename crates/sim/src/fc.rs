//! Memory-bound fully-connected (FC) layer execution.
//!
//! §VI: "our design can also save memory access of FC and RNN layers."
//! An FC layer at batch size 1 is a single GEMV whose weight matrix is
//! used exactly once — like an RNN gate without the recurrence, it is
//! DRAM-bound, and the switching map lets DUET skip fetching the weight
//! rows of insensitive outputs entirely.

use crate::config::ArchConfig;
use crate::energy::EnergyBreakdown;
use crate::energy::EnergyTable;
use crate::glb::GlbPlan;
use crate::report::LayerPerf;
use crate::speculator::speculate_rnn_gate;
use duet_core::switching::SwitchingMap;

/// Workload of one FC layer at batch size 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FcLayerTrace {
    /// Layer name.
    pub name: String,
    /// Input features `d`.
    pub input: usize,
    /// Output features `n`.
    pub output: usize,
    /// Sensitive flag per output row, bit-packed.
    pub omap: SwitchingMap,
    /// Reduced dimension of the approximate module.
    pub reduced_dim: usize,
}

impl FcLayerTrace {
    /// Builds a trace from explicit flags.
    ///
    /// # Panics
    ///
    /// Panics if `omap.len() != output`.
    pub fn new(
        name: impl Into<String>,
        input: usize,
        output: usize,
        omap: SwitchingMap,
        reduced_dim: usize,
    ) -> Self {
        assert_eq!(omap.len(), output, "omap length must equal output count");
        Self {
            name: name.into(),
            input,
            output,
            omap,
            reduced_dim,
        }
    }

    /// Synthesizes a trace with i.i.d. sensitivity.
    pub fn synthetic(
        name: impl Into<String>,
        input: usize,
        output: usize,
        sensitive_fraction: f64,
        reduced_dim: usize,
        rng: &mut duet_tensor::rng::Rng,
    ) -> Self {
        let omap: SwitchingMap = (0..output)
            .map(|_| rng.random::<f64>() < sensitive_fraction)
            .collect();
        Self::new(name, input, output, omap, reduced_dim)
    }

    /// Sensitive output rows.
    pub fn sensitive_rows(&self) -> usize {
        self.omap.sensitive_count()
    }

    /// Weight bytes per row at INT16.
    pub fn row_bytes(&self) -> u64 {
        self.input as u64 * 2
    }
}

/// Result of simulating one FC layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FcRunResult {
    /// Standard per-layer report.
    pub perf: LayerPerf,
    /// Weight bytes fetched from DRAM.
    pub weight_bytes_fetched: u64,
}

/// Simulates an FC layer; with `dual == true` only sensitive weight rows
/// are fetched and computed.
pub fn run_fc_layer(
    trace: &FcLayerTrace,
    config: &ArchConfig,
    energy: &EnergyTable,
    dual: bool,
) -> FcRunResult {
    let rows = if dual {
        trace.sensitive_rows() as u64
    } else {
        trace.output as u64
    };
    let row_macs = trace.input as u64;

    let plan = GlbPlan {
        weight_bytes: trace.output as u64 * trace.row_bytes(),
        input_bytes: trace.input as u64 * 2,
        output_bytes: trace.output as u64 * 2,
        speculator_bytes: 64 << 10,
    };
    // FC weights are used once per inference: even when they fit they
    // must be brought on-chip once.
    let fetch_bytes = rows * trace.row_bytes();
    let _ = plan;
    let dram_cycles = fetch_bytes.div_ceil(config.dram_bytes_per_cycle as u64);

    let row_batches = rows.div_ceil(config.pe_rows as u64);
    let compute_cycles = row_batches * row_macs.div_ceil(config.pe_cols as u64);

    let (spec_cycles, spec_energy) = if dual {
        let s = speculate_rnn_gate(trace.output, trace.input, trace.reduced_dim, config, energy);
        // FC speculation needs only the input-side student: halve the
        // RNN-gate estimate (which assumes two students).
        (s.cycles / 2, s.energy.scaled(0.5))
    } else {
        (0, EnergyBreakdown::default())
    };

    // No preceding gate to hide behind at batch 1: the speculation is
    // exposed, but it is tiny next to the weight streaming.
    let latency = dram_cycles.max(compute_cycles) + spec_cycles;

    let executed_macs = rows * row_macs;
    let energy_bd = EnergyBreakdown {
        executor_compute_pj: executed_macs as f64 * energy.mac_int16_pj,
        executor_rf_pj: executed_macs as f64 * energy.rf_16b_pj,
        glb_pj: (executed_macs as f64 / 16.0 + trace.input as f64) * energy.glb_16b_pj,
        noc_pj: fetch_bytes as f64 / 2.0 * energy.noc_16b_pj,
        dram_pj: fetch_bytes as f64 / 2.0 * energy.dram_16b_pj,
        speculator_pj: 0.0,
        control_pj: compute_cycles as f64
            * config.pe_count() as f64
            * energy.control_pj_per_cycle
            * 0.1,
    } + spec_energy;

    let perf = LayerPerf {
        name: trace.name.clone(),
        executor_cycles: compute_cycles,
        speculator_cycles: spec_cycles,
        dram_cycles,
        latency_cycles: latency,
        executed_macs,
        dense_macs: trace.output as u64 * row_macs,
        mac_utilization: if compute_cycles == 0 {
            0.0
        } else {
            executed_macs as f64 / (compute_cycles * config.pe_count() as u64) as f64
        },
        energy: energy_bd,
    };

    FcRunResult {
        perf,
        weight_bytes_fetched: fetch_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::seeded;

    fn trace(frac: f64) -> FcLayerTrace {
        FcLayerTrace::synthetic("fc6", 9216, 4096, frac, 256, &mut seeded(3))
    }

    #[test]
    fn fc_is_memory_bound() {
        let t = trace(0.5);
        let r = run_fc_layer(&t, &ArchConfig::duet(), &EnergyTable::default(), false);
        assert!(
            r.perf.dram_cycles > r.perf.executor_cycles,
            "dram {} vs compute {}",
            r.perf.dram_cycles,
            r.perf.executor_cycles
        );
    }

    #[test]
    fn dual_fetches_only_sensitive_rows() {
        let t = trace(0.4);
        let cfg = ArchConfig::duet();
        let e = EnergyTable::default();
        let base = run_fc_layer(&t, &cfg, &e, false);
        let dual = run_fc_layer(&t, &cfg, &e, true);
        let ratio = dual.weight_bytes_fetched as f64 / base.weight_bytes_fetched as f64;
        assert!((ratio - 0.4).abs() < 0.03, "fetch ratio {ratio}");
        assert!(dual.perf.latency_cycles < base.perf.latency_cycles);
        assert!(dual.perf.energy.dram_pj < base.perf.energy.dram_pj);
    }

    #[test]
    fn all_sensitive_equals_base_fetch() {
        let t = FcLayerTrace::new("fc", 128, 64, SwitchingMap::all_sensitive(64), 32);
        let cfg = ArchConfig::duet();
        let e = EnergyTable::default();
        let base = run_fc_layer(&t, &cfg, &e, false);
        let dual = run_fc_layer(&t, &cfg, &e, true);
        assert_eq!(base.weight_bytes_fetched, dual.weight_bytes_fetched);
    }

    #[test]
    #[should_panic(expected = "omap length")]
    fn bad_omap_length_panics() {
        FcLayerTrace::new("x", 4, 4, SwitchingMap::all_sensitive(3), 2);
    }
}
