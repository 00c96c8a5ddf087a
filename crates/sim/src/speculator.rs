//! Cycle-level model of the Speculator (§III-B, Fig. 5).
//!
//! The Speculator pipeline: Quantizer (INT16→INT4 truncation) → Alignment
//! Units + Adder Trees (ternary projection) → INT4 systolic array (QDR
//! GEMM) → MFU (activation + threshold compare) → switching maps (+
//! Reorder Unit for CNNs, Dequantizer for RNN approximate results).

use crate::config::ArchConfig;
use crate::energy::{EnergyBreakdown, EnergyTable};
use crate::reorder::ReorderUnit;
use crate::trace::ConvLayerTrace;

/// Result of one Speculator pass over a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculatorResult {
    /// Total Speculator cycles (pipelined stages, slowest stage dominates;
    /// includes the Reorder Unit when adaptive mapping is on).
    pub cycles: u64,
    /// INT4 MACs performed by the systolic array.
    pub macs: u64,
    /// Adder-tree additions performed for dimension reduction.
    pub adds: u64,
    /// Energy attributed to the Speculator.
    pub energy: EnergyBreakdown,
}

/// Per-cycle throughput of the dimension-reduction adder trees, in
/// additions (wide carry-save trees operating in pipeline).
const ADDER_TREE_ADDS_PER_CYCLE: u64 = 512;

/// MFU activations evaluated per cycle.
const MFU_OUTPUTS_PER_CYCLE: u64 = 16;

/// Simulates speculation for a CONV layer: producing approximate results
/// and the switching map for **this** trace (run while the previous layer
/// executes).
pub fn speculate_conv_layer(
    trace: &ConvLayerTrace,
    config: &ArchConfig,
    energy: &EnergyTable,
) -> SpeculatorResult {
    let spec = &config.speculator;
    let outputs = trace.outputs() as u64;

    // Quantizer: truncation is a wiring operation; throughput-matched.
    // Dimension reduction: each output position needs k·d/3 adds
    // (projection density 1/3).
    let adds =
        (trace.positions as u64) * (trace.reduced_dim as u64 * trace.patch_len as u64).div_ceil(3);
    let add_cycles = adds.div_ceil(ADDER_TREE_ADDS_PER_CYCLE);

    // Systolic array: K × positions outputs, k MACs each.
    let macs = outputs * trace.reduced_dim as u64;
    let mac_cycles =
        macs.div_ceil(spec.macs_per_cycle()) + (spec.systolic_rows + spec.systolic_cols) as u64; // fill/drain

    // MFU: activation + threshold per output.
    let mfu_cycles = outputs.div_ceil(MFU_OUTPUTS_PER_CYCLE);

    // Reorder Unit (only wired in when adaptive mapping is enabled).
    let reorder_cycles = if config.features.adaptive_mapping {
        ReorderUnit::new(config.pe_rows)
            .reorder(&trace.channel_workloads(), trace.outputs())
            .cycles
    } else {
        0
    };

    // The stages stream tile by tile (Fig. 7): the slowest stage
    // dominates, the others hide beneath it; reorder is a short
    // post-pass.
    let cycles = add_cycles.max(mac_cycles).max(mfu_cycles) + reorder_cycles;

    let energy_bd = speculator_energy(macs, adds, outputs, trace, energy);

    SpeculatorResult {
        cycles,
        macs,
        adds,
        energy: energy_bd,
    }
}

/// Simulates speculation for one RNN gate: `hidden` outputs, each needing
/// `k_ih + k_hh` INT4 MACs, plus dimension reduction of the input and
/// hidden vectors.
pub fn speculate_rnn_gate(
    hidden: usize,
    input: usize,
    reduced_dim: usize,
    config: &ArchConfig,
    energy: &EnergyTable,
) -> SpeculatorResult {
    let spec = &config.speculator;
    let outputs = hidden as u64;
    let k = reduced_dim as u64;

    let adds = (k * input as u64).div_ceil(3) + (k * hidden as u64).div_ceil(3);
    let add_cycles = adds.div_ceil(ADDER_TREE_ADDS_PER_CYCLE);

    let macs = outputs * 2 * k; // input-side + hidden-side students
    let mac_cycles =
        macs.div_ceil(spec.macs_per_cycle()) + (spec.systolic_rows + spec.systolic_cols) as u64;

    let mfu_cycles = outputs.div_ceil(MFU_OUTPUTS_PER_CYCLE);
    // Dequantizer: RNN approximate results are written back (§III-B
    // step 4); same throughput as the MFU.
    let deq_cycles = outputs.div_ceil(MFU_OUTPUTS_PER_CYCLE);

    let cycles = add_cycles.max(mac_cycles).max(mfu_cycles) + deq_cycles;

    // Energy: QDR weights for both students + map/result writes.
    let qdr_weight_words = (outputs * 2 * k).div_ceil(4); // INT4 packed into 16b words
    let glb_words = qdr_weight_words + outputs.div_ceil(16) + outputs; // weights + map + results
    let energy_bd = EnergyBreakdown {
        speculator_pj: macs as f64 * energy.mac_int4_pj
            + adds as f64 * energy.add_int4_pj
            + glb_words as f64 * energy.glb_16b_pj * 0.25, // small QDR buffers
        glb_pj: glb_words as f64 * energy.glb_16b_pj,
        ..Default::default()
    };

    SpeculatorResult {
        cycles,
        macs,
        adds,
        energy: energy_bd,
    }
}

/// Simulates speculation for a GEMV with one student (an FC layer or a
/// transformer projection has no recurrent input to project): half of
/// [`speculate_rnn_gate`]'s two-student estimate.
pub(crate) fn speculate_gemv(
    outputs: usize,
    input: usize,
    reduced_dim: usize,
    config: &ArchConfig,
    energy: &EnergyTable,
) -> SpeculatorResult {
    let s = speculate_rnn_gate(outputs, input, reduced_dim, config, energy);
    SpeculatorResult {
        cycles: s.cycles / 2,
        macs: s.macs / 2,
        adds: s.adds / 2,
        energy: s.energy.scaled(0.5),
    }
}

fn speculator_energy(
    macs: u64,
    adds: u64,
    outputs: u64,
    trace: &ConvLayerTrace,
    energy: &EnergyTable,
) -> EnergyBreakdown {
    // QDR weights (INT4 packed 4-per-word) + input activations read, maps
    // written.
    let qdr_weight_words = ((trace.out_channels * trace.reduced_dim) as u64).div_ceil(4);
    let act_words = trace.positions as u64 * trace.patch_len as u64 / 4; // INT4 reads
    let map_words = outputs.div_ceil(16);
    let glb_words = qdr_weight_words + map_words;
    EnergyBreakdown {
        speculator_pj: macs as f64 * energy.mac_int4_pj
            + adds as f64 * energy.add_int4_pj
            + act_words as f64 * energy.rf_16b_pj * 0.25 // activation buffer (small)
            + outputs as f64 * 0.01, // MFU
        glb_pj: glb_words as f64 * energy.glb_16b_pj,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::seeded;

    fn trace() -> ConvLayerTrace {
        ConvLayerTrace::synthetic("t", 64, 196, 576, 25088, 0.45, 0.3, 0.6, 32, &mut seeded(5))
    }

    #[test]
    fn speculation_is_cheaper_than_execution() {
        let t = trace();
        let cfg = ArchConfig::duet();
        let et = EnergyTable::default();
        let spec = speculate_conv_layer(&t, &cfg, &et);
        let exec =
            crate::executor::run_conv_layer(&t, &crate::executor::natural_order(&t), &cfg, &et);
        assert!(
            spec.cycles < exec.compute_cycles,
            "speculator {} must hide under executor {}",
            spec.cycles,
            exec.compute_cycles
        );
        assert!(spec.energy.speculator_pj < exec.energy.executor_compute_pj);
    }

    #[test]
    fn smaller_systolic_array_is_slower() {
        let t = trace();
        let et = EnergyTable::default();
        let big = speculate_conv_layer(&t, &ArchConfig::duet(), &et);
        let mut small_cfg = ArchConfig::duet();
        small_cfg.speculator.systolic_rows = 8;
        small_cfg.speculator.systolic_cols = 8;
        let small = speculate_conv_layer(&t, &small_cfg, &et);
        assert!(small.cycles > big.cycles);
        assert_eq!(small.macs, big.macs); // same work, lower throughput
    }

    #[test]
    fn adaptive_mapping_adds_reorder_cycles() {
        let t = trace();
        let et = EnergyTable::default();
        let with = speculate_conv_layer(&t, &ArchConfig::duet(), &et);
        let without = speculate_conv_layer(
            &t,
            &ArchConfig::duet().with_features(crate::config::ExecutorFeatures::os()),
            &et,
        );
        assert!(with.cycles > without.cycles);
    }

    #[test]
    fn rnn_gate_speculation_counts() {
        let cfg = ArchConfig::duet();
        let et = EnergyTable::default();
        let r = speculate_rnn_gate(1024, 1024, 128, &cfg, &et);
        assert_eq!(r.macs, 1024 * 2 * 128);
        assert!(r.cycles > 0);
        assert!(r.energy.speculator_pj > 0.0);
    }

    #[test]
    fn rnn_gate_scales_with_reduced_dim() {
        let cfg = ArchConfig::duet();
        let et = EnergyTable::default();
        let small = speculate_rnn_gate(512, 512, 32, &cfg, &et);
        let large = speculate_rnn_gate(512, 512, 128, &cfg, &et);
        assert!(large.macs > small.macs);
        assert!(large.cycles >= small.cycles);
    }
}
