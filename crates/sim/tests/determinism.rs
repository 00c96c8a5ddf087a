//! Determinism and regression integration tests for the simulator:
//! identical seeds must produce identical reports, the CNN feature
//! ladder must keep its order, and the memory-bound runners must keep
//! every bit of a fixed set of runs.

use duet_sim::cnn::run_cnn;
use duet_sim::config::{ArchConfig, ExecutorFeatures};
use duet_sim::energy::EnergyTable;
use duet_sim::fc::{run_fc_layer, FcLayerTrace};
use duet_sim::report::LayerPerf;
use duet_sim::rnn::{run_rnn_layer_with, RnnLatencySplit, RnnOptions};
use duet_sim::trace::{ConvLayerTrace, RnnLayerTrace};
use duet_sim::transformer::{run_transformer_block, TransformerBlockTrace};
use duet_tensor::rng::seeded;

fn conv_trace(seed: u64) -> ConvLayerTrace {
    ConvLayerTrace::synthetic(
        "conv",
        64,
        196,
        288,
        12544,
        0.45,
        0.3,
        0.5,
        36,
        &mut seeded(seed),
    )
}

#[test]
fn identical_seeds_identical_reports() {
    let energy = EnergyTable::default();
    let cfg = ArchConfig::duet();
    let a = run_cnn("m", &[conv_trace(7)], &cfg, &energy);
    let b = run_cnn("m", &[conv_trace(7)], &cfg, &energy);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let energy = EnergyTable::default();
    let cfg = ArchConfig::duet();
    let a = run_cnn("m", &[conv_trace(7)], &cfg, &energy);
    let b = run_cnn("m", &[conv_trace(8)], &cfg, &energy);
    assert_ne!(a.total_latency_cycles, b.total_latency_cycles);
}

#[test]
fn feature_ladder_is_deterministic_and_ordered() {
    // A coarse end-to-end regression net: the canonical ladder must hold
    // on this fixed workload forever (catches accidental model drift).
    let energy = EnergyTable::default();
    let traces: Vec<ConvLayerTrace> = (0..3).map(|i| conv_trace(20 + i)).collect();
    let run = |f: ExecutorFeatures| {
        run_cnn(
            "reg",
            &traces,
            &ArchConfig::duet().with_features(f),
            &energy,
        )
        .total_latency_cycles
    };
    let base = run(ExecutorFeatures::base());
    let os = run(ExecutorFeatures::os());
    let bos = run(ExecutorFeatures::bos());
    let duet = run(ExecutorFeatures::duet());
    assert!(base > os, "base {base} vs os {os}");
    assert!(os > bos, "os {os} vs bos {bos}");
    assert!(bos > duet, "bos {bos} vs duet {duet}");
}

/// Order-sensitive fold of 64-bit words: a moved, dropped or reordered
/// word changes the result.
struct Fold(u64);

impl Fold {
    fn word(&mut self, v: u64) {
        self.0 = self.0.rotate_left(7) ^ v;
    }

    /// The `LayerPerf` fields in declaration order; floats by their bits.
    fn perf(&mut self, p: &LayerPerf) {
        for v in [
            p.executor_cycles,
            p.speculator_cycles,
            p.dram_cycles,
            p.latency_cycles,
            p.executed_macs,
            p.dense_macs,
        ] {
            self.word(v);
        }
        let e = &p.energy;
        for v in [
            p.mac_utilization,
            e.executor_compute_pj,
            e.executor_rf_pj,
            e.glb_pj,
            e.noc_pj,
            e.dram_pj,
            e.speculator_pj,
            e.control_pj,
        ] {
            self.word(v.to_bits());
        }
    }

    fn split(&mut self, s: &RnnLatencySplit) {
        self.word(s.memory_cycles);
        self.word(s.compute_cycles);
        self.word(s.speculation_cycles);
    }
}

#[test]
fn memory_bound_models_keep_their_bits() {
    // Golden pin of the FC, RNN and transformer runners: every cycle
    // count, MAC count, energy term, latency split and fetched byte of
    // a fixed set of runs, folded in order. Nothing in results/ prints
    // FC's or the transformer's energy terms, so this is their only
    // regression net.
    let cfg = ArchConfig::duet();
    let energy = EnergyTable::default();
    let mut rng = seeded(2025);
    let mut fold = Fold(0);

    for (input, output, frac) in [(9216, 4096, 0.4), (4096, 1000, 0.55), (300, 77, 0.3)] {
        let t = FcLayerTrace::synthetic("fc", input, output, frac, 256, &mut rng);
        for dual in [false, true] {
            let r = run_fc_layer(&t, &cfg, &energy, dual);
            fold.perf(&r.perf);
            fold.word(r.weight_bytes_fetched);
        }
    }

    for (gates, hidden, input, steps) in [(4, 1024, 1024, 6), (3, 40, 24, 5)] {
        let t = RnnLayerTrace::synthetic("rnn", gates, hidden, input, steps, 0.46, &mut rng);
        for options in [
            RnnOptions::base(),
            RnnOptions::duet(),
            RnnOptions::duet_unpipelined(),
        ] {
            let r = run_rnn_layer_with(&t, &cfg, &energy, options);
            fold.perf(&r.perf);
            fold.split(&r.split);
            fold.word(r.weight_bytes_fetched);
        }
    }

    for (model, hidden, seq_len) in [(1024, 4096, 4), (16, 32, 8)] {
        let t = TransformerBlockTrace::synthetic(
            "block", model, hidden, seq_len, 0.5, 0.35, 64, &mut rng,
        );
        for dual in [false, true] {
            let r = run_transformer_block(&t, &cfg, &energy, dual);
            fold.perf(&r.perf);
            fold.split(&r.split);
            fold.word(r.weight_bytes_fetched);
        }
    }

    assert_eq!(fold.0, 0x77cc_a56f_e0b2_ecf3, "got {:#018x}", fold.0);
}
