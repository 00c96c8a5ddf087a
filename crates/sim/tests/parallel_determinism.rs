//! Thread-count determinism integration tests.
//!
//! The simulator's parallel paths (`run_cnn_with_threads`,
//! `run_rnn_layer_with_threads`, `SweepGrid::run_with_threads`) promise
//! *bitwise* identical results for any thread count: per-unit partials
//! are computed by the same code regardless of which worker runs them,
//! `map_indexed` returns them in index order, and the serial composition
//! folds in that fixed order. These tests pin that contract at 1 vs 4
//! (and a non-power-of-two) threads over the synthetic paper workloads.

use duet_sim::cnn::run_cnn_with_threads;
use duet_sim::config::{ArchConfig, ExecutorFeatures};
use duet_sim::energy::EnergyTable;
use duet_sim::rnn::{run_rnn_layer_with_threads, run_rnn_with_threads, RnnOptions};
use duet_sim::sweep::{latency_checksum, SweepGrid, SweepPoint, SweepWorkload};
use duet_sim::trace::{ConvLayerTrace, RnnLayerTrace};
use duet_tensor::rng::seeded;

fn conv_traces() -> Vec<ConvLayerTrace> {
    (0..4)
        .map(|i| {
            ConvLayerTrace::synthetic(
                format!("conv{i}"),
                32 + 16 * i,
                196,
                288,
                12544,
                0.45,
                0.3,
                0.5,
                36,
                &mut seeded(40 + i as u64),
            )
        })
        .collect()
}

fn rnn_traces() -> Vec<RnnLayerTrace> {
    (0..2)
        .map(|i| {
            RnnLayerTrace::synthetic(
                format!("l{i}"),
                4,
                256,
                256,
                6,
                0.46,
                &mut seeded(50 + i as u64),
            )
        })
        .collect()
}

#[test]
fn cnn_model_perf_is_thread_count_invariant() {
    let energy = EnergyTable::default();
    let traces = conv_traces();
    for cfg in [ArchConfig::duet(), ArchConfig::single_module()] {
        let serial = run_cnn_with_threads("m", &traces, &cfg, &energy, 1);
        for threads in [2, 4, 7] {
            let parallel = run_cnn_with_threads("m", &traces, &cfg, &energy, threads);
            assert_eq!(serial, parallel, "CNN diverged at {threads} threads");
        }
    }
}

#[test]
fn rnn_layer_result_is_thread_count_invariant() {
    let energy = EnergyTable::default();
    let cfg = ArchConfig::duet();
    let trace = &rnn_traces()[0];
    for options in [
        RnnOptions::duet(),
        RnnOptions {
            dual: true,
            gate_pipeline: false,
        },
        RnnOptions {
            dual: false,
            gate_pipeline: true,
        },
    ] {
        let serial = run_rnn_layer_with_threads(trace, &cfg, &energy, options, 1);
        for threads in [2, 4, 7] {
            let parallel = run_rnn_layer_with_threads(trace, &cfg, &energy, options, threads);
            assert_eq!(serial, parallel, "RNN layer diverged at {threads} threads");
        }
    }
}

#[test]
fn rnn_model_perf_is_thread_count_invariant() {
    let energy = EnergyTable::default();
    let cfg = ArchConfig::duet();
    let traces = rnn_traces();
    let serial = run_rnn_with_threads("lstm", &traces, &cfg, &energy, true, 1);
    let parallel = run_rnn_with_threads("lstm", &traces, &cfg, &energy, true, 4);
    assert_eq!(serial, parallel);
}

fn small_grid() -> SweepGrid {
    let points = vec![
        SweepPoint::new(
            "base",
            ArchConfig::duet().with_features(ExecutorFeatures::base()),
        ),
        SweepPoint::new("duet", ArchConfig::duet()),
    ];
    let workloads = vec![
        SweepWorkload::Cnn {
            name: "cnn".to_string(),
            traces: conv_traces(),
        },
        SweepWorkload::Rnn {
            name: "rnn".to_string(),
            traces: rnn_traces(),
            options: RnnOptions::duet(),
        },
    ];
    SweepGrid::new(points, workloads)
}

#[test]
fn sweep_cells_and_checksum_are_thread_count_invariant() {
    let energy = EnergyTable::default();
    let grid = small_grid();
    let serial = grid.run_with_threads(&energy, 1);
    for threads in [2, 4, 7] {
        let parallel = grid.run_with_threads(&energy, threads);
        assert_eq!(serial, parallel, "sweep diverged at {threads} threads");
        assert_eq!(latency_checksum(&serial), latency_checksum(&parallel));
    }
}

// ---------------------------------------------------------------------
// Fault campaign: grid-scale thread-count determinism.
// ---------------------------------------------------------------------

#[test]
fn fault_campaign_checksum_is_thread_count_invariant() {
    use duet_sim::fault::{campaign_checksum, FaultCampaign};
    let energy = EnergyTable::default();
    let grid = small_grid();
    let campaign = FaultCampaign::default_grid(2026);
    let serial = campaign.run_with_threads(&grid, &energy, 1);
    let sum = campaign_checksum(&serial);
    for threads in [2, 4, 7] {
        let par = campaign.run_with_threads(&grid, &energy, threads);
        assert_eq!(serial, par, "campaign diverged at {threads} threads");
        assert_eq!(sum, campaign_checksum(&par));
    }
}
