//! Memory-bound fully-connected (FC) layer execution.
//!
//! §VI: "our design can also save memory access of FC and RNN layers."
//! An FC layer at batch size 1 is a single GEMV whose weight matrix is
//! used exactly once — like an RNN gate without the recurrence, it is
//! DRAM-bound, and the switching map lets DUET skip fetching the weight
//! rows of insensitive outputs entirely.

use crate::config::ArchConfig;
use crate::energy::EnergyTable;
use crate::report::LayerPerf;
use crate::speculator::speculate_gemv;
use crate::stage::RowStage;
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
    // FC weights are used once per inference: even when they fit they
    // must be brought on-chip once. No preceding gate to hide behind at
    // batch 1: the speculation is exposed, but it is tiny next to the
    // weight streaming.
    let cost = RowStage {
        rows,
        row_macs,
        fetch_bytes: rows * trace.row_bytes(),
        glb_words: trace.input as u64,
        spec: dual
            .then(|| speculate_gemv(trace.output, trace.input, trace.reduced_dim, config, energy)),
        hidden_behind: 0,
    }
    .cost(config, energy);
    FcRunResult {
        perf: cost.perf(&trace.name, trace.output as u64 * row_macs, config),
        weight_bytes_fetched: cost.fetched_bytes,
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
