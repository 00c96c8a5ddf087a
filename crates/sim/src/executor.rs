//! Cycle-level model of the Executor 2-D PE array running one CONV layer
//! (§III-C, §IV-A).
//!
//! Mapping (Fig. 7a): channels are processed in *steps* of `pe_rows`
//! channels; each channel occupies one PE row. The PEs of a row
//! *collaborate* on each output element — "the output partial sum will be
//! horizontally accumulated" — so one output costs
//! `ceil(patch_len / pe_cols)` row-cycles, and an insensitive output is
//! skipped by the whole row at once. A step finishes when its slowest
//! *row* finishes: this inter-row (channel) imbalance is what adaptive
//! mapping fixes by grouping channels with similar switching-map
//! workloads.
//!
//! Input-sparsity skipping removes MACs for zero inputs, but zeros are
//! spread unevenly over the row's PEs, so the row advances at the pace of
//! its densest PE — the intra-row imbalance the paper observes for IOS
//! ("Inside each row, there will still be imbalance within the PEs due to
//! input sparsity", §IV-A).
//!
//! Each PE executes MAC micro-instructions from its local LUT; an
//! instruction whose tag bit is cleared (insensitive output with OS, or
//! zero input with IS) is skipped for free.

use crate::config::ArchConfig;
use crate::energy::{EnergyBreakdown, EnergyTable};
use crate::trace::ConvLayerTrace;

/// Result of executing one CONV layer on the Executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorLayerResult {
    /// Compute cycles (including imbalance stalls).
    pub compute_cycles: u64,
    /// Cycles the GLB needs to stream the layer's operands.
    pub glb_stream_cycles: u64,
    /// MACs actually executed.
    pub executed_macs: u64,
    /// MACs a dense execution would execute.
    pub dense_macs: u64,
    /// Energy breakdown of the Executor side (compute, RF, GLB, NoC,
    /// DRAM, control).
    pub energy: EnergyBreakdown,
    /// Bytes moved from DRAM for this layer.
    pub dram_bytes: u64,
}

impl ExecutorLayerResult {
    /// MAC-array utilization: executed MACs over issue slots
    /// (`compute_cycles × PE count`) — the metric of Fig. 12(b).
    pub fn mac_utilization(&self, config: &ArchConfig) -> f64 {
        crate::report::mac_utilization(self.executed_macs, self.compute_cycles, config)
    }

    /// Layer latency in cycles: compute and data streaming overlap via
    /// double buffering, so the slower one dominates.
    pub fn latency_cycles(&self, dram_cycles: u64) -> u64 {
        self.compute_cycles
            .max(self.glb_stream_cycles)
            .max(dram_cycles)
    }
}

/// Simulates one CONV layer on the Executor.
///
/// `order` gives the channel computation order (identity for the natural
/// order, or the Reorder Unit's output under adaptive mapping).
///
/// # Panics
///
/// Panics if `order` is not a permutation of the layer's channels.
pub fn run_conv_layer(
    trace: &ConvLayerTrace,
    order: &[usize],
    config: &ArchConfig,
    energy: &EnergyTable,
) -> ExecutorLayerResult {
    assert_eq!(
        order.len(),
        trace.out_channels,
        "order must cover every channel"
    );
    let rows = config.pe_rows;
    let cols = config.pe_cols;
    let feats = config.features;

    // Row-cycles one *sensitive* output costs, and the MACs it actually
    // executes. Without input skipping the row always walks the full
    // patch. With input skipping, MACs shrink to `patch · density`, but
    // the row's latency follows its densest PE: zero inputs cluster, so
    // the slowest PE carries `1 + (1 − density) · jitter` times its fair
    // share — a deterministic per-(channel, position) hash in
    // [0.55, 1.25] keeps the model reproducible while eroding utilization
    // exactly where Fig. 12(b) shows it.
    let dense_output_cycles = (trace.patch_len as u64).div_ceil(cols as u64);
    let output_cost = |channel: usize, position: usize| -> (u64, u64) {
        if !feats.input_skipping {
            return (dense_output_cycles, trace.patch_len as u64);
        }
        let macs = (trace.patch_len as f64 * trace.input_density)
            .round()
            .max(1.0);
        // Channel-persistent component: some channels watch denser input
        // regions. The Reorder Unit balances by OMap workload only, so
        // this component re-imbalances even adaptively mapped rows —
        // matching the paper's smaller IS gain under DUET (3.05/1.93)
        // than under IOS (2.36/1.20).
        let hc = (channel.wrapping_mul(2654435761) >> 3) % 1024;
        let hp = (position.wrapping_mul(40503).wrapping_add(channel) >> 2) % 1024;
        let jitter = 0.35 + 0.50 * (hc as f64 / 1023.0) + 0.15 * (hp as f64 / 1023.0);
        let slowdown = 1.0 + (1.0 - trace.input_density) * jitter;
        let cycles = ((macs * slowdown) / cols as f64).ceil().max(1.0) as u64;
        (cycles, macs as u64)
    };

    let mut compute_cycles = 0u64;
    let mut executed_macs = 0u64;

    // The accounting consumes the packed switching map a `u64` word at a
    // time instead of branching on `is_sensitive` per position, mirroring
    // the LUT tag hardware: when the per-output cost is
    // position-independent (no input skipping) a channel's cycles/MACs
    // are `popcount × cost`, and with input skipping only the *sensitive*
    // positions are visited via masked bit extraction. Every total is
    // bitwise identical to the historical per-position branch loop
    // (integer sums over the same visit set).
    for group in order.chunks(rows) {
        // each row's accumulated cycles for this step
        let mut step_max = 0u64;
        for &ch in group {
            let mut row_cycles = 0u64;
            if !feats.output_switching {
                // dense walk: every position is an output
                for p in 0..trace.positions {
                    let (cycles, macs) = output_cost(ch, p);
                    row_cycles += cycles;
                    executed_macs += macs;
                }
            } else {
                let lo = ch * trace.positions;
                let hi = lo + trace.positions;
                if !feats.input_skipping {
                    // position-independent cost: one popcount per map word
                    let sensitive = trace.omap.sensitive_count_in(lo, hi) as u64;
                    row_cycles = sensitive * dense_output_cycles;
                    executed_macs += sensitive * trace.patch_len as u64;
                } else {
                    // the channel's map words, walked here rather than
                    // through `for_each_sensitive_in`, whose closure
                    // must be inlined across crates to keep this fast
                    let first = lo / 64;
                    let words = &trace.omap.words()[first..hi.div_ceil(64)];
                    for (wi, &word) in (first..).zip(words) {
                        let mut w = word;
                        if wi == first {
                            w &= u64::MAX << (lo % 64);
                        }
                        let end = wi * 64 + 64;
                        if end > hi {
                            w &= u64::MAX >> (end - hi);
                        }
                        while w != 0 {
                            let idx = wi * 64 + w.trailing_zeros() as usize;
                            let (cycles, macs) = output_cost(ch, idx - lo);
                            row_cycles += cycles;
                            executed_macs += macs;
                            w &= w - 1;
                        }
                    }
                }
            }
            step_max = step_max.max(row_cycles);
        }
        compute_cycles += step_max;
    }

    // GLB traffic (16-bit words): inputs multicast once per column group,
    // weights once per channel, outputs written once, maps read once.
    let input_words = trace.input_elems as u64;
    let weight_words = trace.weight_elems as u64;
    let output_words = trace.outputs() as u64;
    let map_words = (trace.outputs() as u64).div_ceil(16); // 1 bit each
    let glb_words = input_words + weight_words + output_words + 2 * map_words;
    let glb_stream_cycles = (glb_words * 2).div_ceil(config.glb_bytes_per_cycle as u64);

    // DRAM traffic: ifmap + weights in, ofmap + map out.
    let dram_bytes = 2 * (input_words + weight_words + output_words) + map_words * 2;

    duet_obs::counter!("sim.glb.words").add(glb_words);
    // the NoC carries every GLB word to/from the PE array in this model
    duet_obs::counter!("sim.noc.words").add(glb_words);
    duet_obs::counter!("sim.executor.macs").add(executed_macs);

    // Energy. Two-level hierarchy: MACs hit the local RF (~1.5 accesses
    // per MAC amortized by Eyeriss-style reuse), GLB pays per streamed
    // word.
    let energy_bd = EnergyBreakdown {
        executor_compute_pj: executed_macs as f64 * energy.mac_int16_pj,
        executor_rf_pj: executed_macs as f64 * 1.5 * energy.rf_16b_pj,
        glb_pj: glb_words as f64 * energy.glb_16b_pj,
        noc_pj: glb_words as f64 * energy.noc_16b_pj,
        dram_pj: dram_bytes as f64 / 2.0 * energy.dram_16b_pj,
        speculator_pj: 0.0,
        control_pj: compute_cycles as f64 * config.pe_count() as f64 * energy.control_pj_per_cycle,
    };

    ExecutorLayerResult {
        compute_cycles,
        glb_stream_cycles,
        executed_macs,
        dense_macs: trace.dense_macs(),
        energy: energy_bd,
        dram_bytes,
    }
}

/// Natural (identity) channel order for a trace.
pub fn natural_order(trace: &ConvLayerTrace) -> Vec<usize> {
    (0..trace.out_channels).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutorFeatures;
    use crate::reorder::ReorderUnit;
    use duet_tensor::rng::seeded;

    fn trace(mean_sensitive: f64, spread: f64, density: f64) -> ConvLayerTrace {
        ConvLayerTrace::synthetic(
            "t",
            64,
            196,
            576,
            32 * 28 * 28,
            mean_sensitive,
            spread,
            density,
            32,
            &mut seeded(11),
        )
    }

    #[test]
    fn dense_baseline_is_fully_utilized() {
        let t = trace(0.5, 0.25, 0.6);
        let cfg = ArchConfig::single_module();
        let r = run_conv_layer(&t, &natural_order(&t), &cfg, &EnergyTable::default());
        assert_eq!(r.executed_macs, r.dense_macs);
        let u = r.mac_utilization(&cfg);
        // positions (196) don't divide cols (16) evenly → slight loss
        assert!(u > 0.9, "utilization {u}");
    }

    #[test]
    fn output_switching_cuts_macs_but_imbalance_limits_speedup() {
        let t = trace(0.45, 0.35, 0.6);
        let base_cfg = ArchConfig::single_module();
        let os_cfg = ArchConfig::duet().with_features(ExecutorFeatures::os());
        let et = EnergyTable::default();
        let base = run_conv_layer(&t, &natural_order(&t), &base_cfg, &et);
        let os = run_conv_layer(&t, &natural_order(&t), &os_cfg, &et);
        assert!(os.executed_macs < base.executed_macs / 2 + base.executed_macs / 10);
        let speedup = base.compute_cycles as f64 / os.compute_cycles as f64;
        let theoretical = base.executed_macs as f64 / os.executed_macs as f64;
        assert!(speedup > 1.0);
        // imbalance gap: actual speedup clearly below theoretical
        assert!(
            speedup < theoretical * 0.8,
            "speedup {speedup} vs theoretical {theoretical}"
        );
    }

    #[test]
    fn adaptive_mapping_improves_speedup() {
        let t = trace(0.45, 0.35, 0.6);
        let os_cfg = ArchConfig::duet().with_features(ExecutorFeatures::os());
        let bos_cfg = ArchConfig::duet().with_features(ExecutorFeatures::bos());
        let et = EnergyTable::default();
        let os = run_conv_layer(&t, &natural_order(&t), &os_cfg, &et);
        let order = ReorderUnit::new(os_cfg.pe_rows)
            .reorder(&t.channel_workloads(), t.outputs())
            .order;
        let bos = run_conv_layer(&t, &order, &bos_cfg, &et);
        assert!(
            bos.compute_cycles < os.compute_cycles,
            "BOS {} vs OS {}",
            bos.compute_cycles,
            os.compute_cycles
        );
        assert_eq!(bos.executed_macs, os.executed_macs); // same work, less waiting
    }

    #[test]
    fn input_skipping_reduces_work_further() {
        let t = trace(0.45, 0.3, 0.55);
        let et = EnergyTable::default();
        let os = run_conv_layer(
            &t,
            &natural_order(&t),
            &ArchConfig::duet().with_features(ExecutorFeatures::os()),
            &et,
        );
        let ios = run_conv_layer(
            &t,
            &natural_order(&t),
            &ArchConfig::duet().with_features(ExecutorFeatures::ios()),
            &et,
        );
        assert!(ios.executed_macs < os.executed_macs);
        assert!(ios.compute_cycles < os.compute_cycles);
    }

    #[test]
    fn energy_tracks_work() {
        let t = trace(0.4, 0.3, 0.6);
        let et = EnergyTable::default();
        let base = run_conv_layer(&t, &natural_order(&t), &ArchConfig::single_module(), &et);
        let duet = run_conv_layer(&t, &natural_order(&t), &ArchConfig::duet(), &et);
        assert!(duet.energy.executor_compute_pj < base.energy.executor_compute_pj);
        assert!(duet.energy.executor_rf_pj < base.energy.executor_rf_pj);
        // same layer tensors stream through GLB either way
        assert_eq!(duet.energy.glb_pj, base.energy.glb_pj);
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn bad_order_panics() {
        let t = trace(0.5, 0.1, 1.0);
        run_conv_layer(&t, &[0, 1], &ArchConfig::duet(), &EnergyTable::default());
    }

    /// The historical per-position accounting loop, kept verbatim as the
    /// reference for the word-driven rewrite.
    fn reference_totals(
        trace: &ConvLayerTrace,
        order: &[usize],
        config: &ArchConfig,
    ) -> (u64, u64) {
        let rows = config.pe_rows;
        let cols = config.pe_cols;
        let feats = config.features;
        let dense_output_cycles = (trace.patch_len as u64).div_ceil(cols as u64);
        let output_cost = |channel: usize, position: usize| -> (u64, u64) {
            if !feats.input_skipping {
                return (dense_output_cycles, trace.patch_len as u64);
            }
            let macs = (trace.patch_len as f64 * trace.input_density)
                .round()
                .max(1.0);
            let hc = (channel.wrapping_mul(2654435761) >> 3) % 1024;
            let hp = (position.wrapping_mul(40503).wrapping_add(channel) >> 2) % 1024;
            let jitter = 0.35 + 0.50 * (hc as f64 / 1023.0) + 0.15 * (hp as f64 / 1023.0);
            let slowdown = 1.0 + (1.0 - trace.input_density) * jitter;
            let cycles = ((macs * slowdown) / cols as f64).ceil().max(1.0) as u64;
            (cycles, macs as u64)
        };
        let mut compute_cycles = 0u64;
        let mut executed_macs = 0u64;
        for group in order.chunks(rows) {
            let mut step_max = 0u64;
            for &ch in group {
                let mut row_cycles = 0u64;
                for p in 0..trace.positions {
                    if feats.output_switching && !trace.is_sensitive(ch, p) {
                        continue;
                    }
                    let (cycles, macs) = output_cost(ch, p);
                    row_cycles += cycles;
                    executed_macs += macs;
                }
                step_max = step_max.max(row_cycles);
            }
            compute_cycles += step_max;
        }
        (compute_cycles, executed_macs)
    }

    #[test]
    fn word_driven_accounting_matches_bit_loop_bitwise() {
        let et = EnergyTable::default();
        let configs = [
            ArchConfig::single_module(),
            ArchConfig::duet().with_features(ExecutorFeatures::os()),
            ArchConfig::duet().with_features(ExecutorFeatures::bos()),
            ArchConfig::duet().with_features(ExecutorFeatures::ios()),
            ArchConfig::duet(),
        ];
        let mut traces = vec![
            trace(0.05, 0.02, 0.6),
            trace(0.45, 0.35, 0.55),
            trace(0.95, 0.02, 1.0),
        ];
        // density extremes the synthetic generator can't produce
        for omap in [
            duet_core::SwitchingMap::all_insensitive(64 * 196),
            duet_core::SwitchingMap::all_sensitive(64 * 196),
        ] {
            traces.push(ConvLayerTrace::from_dual_conv(
                "edge",
                64,
                196,
                576,
                32 * 28 * 28,
                &omap,
                0.6,
                32,
            ));
        }
        for t in &traces {
            for cfg in &configs {
                let order = if cfg.features.adaptive_mapping {
                    ReorderUnit::new(cfg.pe_rows)
                        .reorder(&t.channel_workloads(), t.outputs())
                        .order
                } else {
                    natural_order(t)
                };
                let (ref_cycles, ref_macs) = reference_totals(t, &order, cfg);
                let r = run_conv_layer(t, &order, cfg, &et);
                assert_eq!(r.compute_cycles, ref_cycles, "cycles diverge: {cfg:?}");
                assert_eq!(r.executed_macs, ref_macs, "macs diverge: {cfg:?}");
            }
        }
    }
}
