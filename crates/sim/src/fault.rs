//! Deterministic fault injection — probing DUET's error-resilience claim.
//!
//! The paper's §II argument is that the Speculator only *steers*
//! execution: faults in the approximate module (QDR weights, switching
//! maps in the GLB) cost efficiency — switch rate and latency move — but
//! never correctness, because the Executor recomputes every sensitive
//! output exactly. This module provides the machinery to quantify that
//! asymmetry:
//!
//! * [`FaultInjector`] — a seeded bit-flipper over the three
//!   speculator-side storage sites ([`FaultSite`]): INT4 weight words,
//!   GLB burst words, and individual switching-map bits. All corruption
//!   is a pure function of the seed, so campaigns are reproducible
//!   bit-for-bit at any thread count.
//! * [`FaultCampaign`] — a (site × rate) grid driver that corrupts every
//!   workload of a [`SweepGrid`] and re-simulates it, producing one
//!   [`FaultCampaignCell`] per (site, rate, point, workload).
//! * [`campaign_checksum`] — an order-sensitive FNV-1a witness over the
//!   campaign results, used by `fault_campaign --smoke` and `verify.sh`
//!   to pin determinism.
//!
//! Accuracy-side injection (corrupting a real model's speculator weights
//! and measuring task accuracy) lives in the `fault_campaign` exhibit bin,
//! which combines [`FaultInjector::corrupt_int4`] with `duet-core`'s
//! `set_approx` reassembly hooks.

use crate::energy::EnergyTable;
use crate::sweep::{SweepGrid, SweepWorkload};
use crate::trace::{ConvLayerTrace, RnnLayerTrace};
use duet_core::switching::SwitchingMap;
use duet_tensor::fixed::Int4Tensor;
use duet_tensor::parallel;
use duet_tensor::rng::Rng;

/// Where a fault lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Bit flips in the Speculator's quantized (INT4/QDR) weight words.
    /// A **core-side** site: it corrupts [`Int4Tensor`] payloads via
    /// [`FaultInjector::corrupt_int4`] and manifests through regenerated
    /// switching maps; recorded simulator traces are unaffected.
    SpeculatorWeights,
    /// Whole-64-bit-word burst corruption of packed switching maps — the
    /// GLB partition holding speculation state (one fault event garbles
    /// one GLB word).
    GlbWords,
    /// Independent single-bit flips in switching maps.
    SwitchingMapBits,
}

impl FaultSite {
    /// Stable label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultSite::SpeculatorWeights => "speculator_weights",
            FaultSite::GlbWords => "glb_words",
            FaultSite::SwitchingMapBits => "map_bits",
        }
    }
}

/// A seeded, deterministic bit-flipper. Fault positions are a pure
/// function of the construction seed and the call sequence; every
/// corruption method counts its fault events in [`FaultInjector::flips`]
/// (bit events for bit-level sites, word events for
/// [`FaultSite::GlbWords`]).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Rng,
    flips: u64,
}

impl FaultInjector {
    /// Creates an injector from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed),
            flips: 0,
        }
    }

    /// Fault events injected so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Flips each stored bit of an INT4/narrow-width weight tensor with
    /// probability `rate`, staying inside the tensor's bit width
    /// ([`Int4Tensor::with_flipped_bits`] on the injector's generator).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside [0, 1].
    pub fn corrupt_int4(&mut self, t: &Int4Tensor, rate: f64) -> Int4Tensor {
        let (corrupted, flips) = t.with_flipped_bits(rate, &mut self.rng);
        self.flips += flips;
        corrupted
    }

    /// Flips each bit of a switching map with probability `rate`
    /// ([`FaultSite::SwitchingMapBits`]).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside [0, 1].
    pub fn corrupt_map_bits(&mut self, m: &SwitchingMap, rate: f64) -> SwitchingMap {
        let mut bytes = m.packed_bytes();
        for i in 0..m.len() {
            if self.rng.random_bool(rate) {
                bytes[i / 8] ^= 1 << (i % 8);
                self.flips += 1;
            }
        }
        SwitchingMap::from_packed(&bytes, m.len())
    }

    /// Garbles whole 64-bit words of a packed switching map with
    /// probability `rate` per word ([`FaultSite::GlbWords`]) — the burst
    /// model of a corrupted GLB read. Each hit XORs the word with a
    /// random nonzero pattern.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside [0, 1].
    pub fn corrupt_map_words(&mut self, m: &SwitchingMap, rate: f64) -> SwitchingMap {
        let mut bytes = m.packed_bytes();
        for chunk in bytes.chunks_mut(8) {
            if self.rng.random_bool(rate) {
                let pattern = (self.rng.next_u64() | 1).to_le_bytes();
                for (b, p) in chunk.iter_mut().zip(pattern) {
                    *b ^= p;
                }
                self.flips += 1;
            }
        }
        SwitchingMap::from_packed(&bytes, m.len())
    }

    /// Corrupts one CONV trace at `site`/`rate`. Geometry is never
    /// faulted — only the speculation state (the switching map).
    pub fn corrupt_conv_trace(
        &mut self,
        t: &ConvLayerTrace,
        site: FaultSite,
        rate: f64,
    ) -> ConvLayerTrace {
        let mut out = t.clone();
        out.omap = match site {
            FaultSite::SwitchingMapBits => self.corrupt_map_bits(&t.omap, rate),
            FaultSite::GlbWords => self.corrupt_map_words(&t.omap, rate),
            FaultSite::SpeculatorWeights => t.omap.clone(),
        };
        out
    }

    /// Corrupts one RNN trace at `site`/`rate`.
    pub fn corrupt_rnn_trace(
        &mut self,
        t: &RnnLayerTrace,
        site: FaultSite,
        rate: f64,
    ) -> RnnLayerTrace {
        let mut out = t.clone();
        out.maps = match site {
            FaultSite::SwitchingMapBits => self.corrupt_map_bits(&t.maps, rate),
            FaultSite::GlbWords => self.corrupt_map_words(&t.maps, rate),
            FaultSite::SpeculatorWeights => t.maps.clone(),
        };
        out
    }

    /// Corrupts every trace of a sweep workload.
    pub fn corrupt_workload(
        &mut self,
        w: &SweepWorkload,
        site: FaultSite,
        rate: f64,
    ) -> SweepWorkload {
        match w {
            SweepWorkload::Cnn { name, traces } => SweepWorkload::Cnn {
                name: name.clone(),
                traces: traces
                    .iter()
                    .map(|t| self.corrupt_conv_trace(t, site, rate))
                    .collect(),
            },
            SweepWorkload::Rnn {
                name,
                traces,
                options,
            } => SweepWorkload::Rnn {
                name: name.clone(),
                traces: traces
                    .iter()
                    .map(|t| self.corrupt_rnn_trace(t, site, rate))
                    .collect(),
                options: *options,
            },
        }
    }
}

/// One cell of a fault campaign: a (site, rate, point, workload)
/// combination with its corrupted-run results.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignCell {
    /// Fault site label ([`FaultSite::label`]).
    pub site: String,
    /// Fault rate (per bit or per word, depending on the site).
    pub rate: f64,
    /// Architecture point label.
    pub point: String,
    /// Workload name.
    pub workload: String,
    /// Fault events injected into this (site, rate) combo's workload set.
    pub flips: u64,
    /// End-to-end latency of the corrupted run.
    pub total_latency_cycles: u64,
    /// Mean sensitive fraction of the corrupted workload's maps.
    pub sensitive_fraction: f64,
}

/// A (site × rate) fault-injection campaign over a sweep grid.
///
/// For every combination, the grid's workloads are corrupted with a seed
/// derived from `(seed, site index, rate index)` — never from thread
/// scheduling — and the corrupted grid is re-simulated through
/// [`SweepGrid::run_with_threads`], whose output is thread-count
/// invariant. Campaign results are therefore byte-identical at any
/// `DUET_NUM_THREADS`.
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    /// Fault sites to sweep (use the trace sites
    /// [`FaultSite::SwitchingMapBits`] / [`FaultSite::GlbWords`] here;
    /// [`FaultSite::SpeculatorWeights`] is core-side and leaves recorded
    /// traces unchanged).
    pub sites: Vec<FaultSite>,
    /// Fault rates to sweep.
    pub rates: Vec<f64>,
    /// Master seed.
    pub seed: u64,
}

impl FaultCampaign {
    /// The default sim-side campaign: both trace sites over a
    /// log-spaced rate ladder.
    pub fn default_grid(seed: u64) -> Self {
        Self {
            sites: vec![FaultSite::SwitchingMapBits, FaultSite::GlbWords],
            rates: vec![1e-4, 1e-3, 1e-2],
            seed,
        }
    }

    /// Runs the campaign with the process-wide thread count.
    pub fn run(&self, grid: &SweepGrid, energy: &EnergyTable) -> Vec<FaultCampaignCell> {
        self.run_with_threads(grid, energy, parallel::num_threads())
    }

    /// Runs the campaign on an explicit thread count. Output is in
    /// (site, rate, point, workload) order and bitwise identical across
    /// thread counts.
    pub fn run_with_threads(
        &self,
        grid: &SweepGrid,
        energy: &EnergyTable,
        threads: usize,
    ) -> Vec<FaultCampaignCell> {
        let _span = duet_obs::span("sim.fault.campaign");
        let mut out = Vec::new();
        for (si, &site) in self.sites.iter().enumerate() {
            for (ri, &rate) in self.rates.iter().enumerate() {
                // Per-combo seed: a pure function of the campaign seed and
                // the combo's grid position.
                let combo_seed = self
                    .seed
                    .wrapping_add((si as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add((ri as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                let mut inj = FaultInjector::new(combo_seed);
                let corrupted: Vec<SweepWorkload> = grid
                    .workloads
                    .iter()
                    .map(|w| inj.corrupt_workload(w, site, rate))
                    .collect();
                let flips = inj.flips();
                duet_obs::counter!("sim.fault.flips").add(flips);
                let fractions: Vec<f64> =
                    corrupted.iter().map(workload_sensitive_fraction).collect();
                let sub = SweepGrid::new(grid.points.clone(), corrupted);
                let cells = sub.run_with_threads(energy, threads);
                let inner = sub.workloads.len();
                for (idx, c) in cells.iter().enumerate() {
                    out.push(FaultCampaignCell {
                        site: site.label().to_string(),
                        rate,
                        point: c.point.clone(),
                        workload: c.workload.clone(),
                        flips,
                        total_latency_cycles: c.perf.total_latency_cycles,
                        sensitive_fraction: fractions[idx % inner],
                    });
                }
            }
        }
        out
    }
}

/// Mean sensitive fraction of a workload's switching maps, weighted by
/// map length.
pub fn workload_sensitive_fraction(w: &SweepWorkload) -> f64 {
    let (sensitive, total) = match w {
        SweepWorkload::Cnn { traces, .. } => traces.iter().fold((0usize, 0usize), |acc, t| {
            (acc.0 + t.omap.sensitive_count(), acc.1 + t.omap.len())
        }),
        SweepWorkload::Rnn { traces, .. } => traces.iter().fold((0usize, 0usize), |acc, t| {
            (acc.0 + t.maps.sensitive_count(), acc.1 + t.maps.len())
        }),
    };
    if total == 0 {
        0.0
    } else {
        sensitive as f64 / total as f64
    }
}

/// Order-sensitive FNV-1a witness over a campaign's results: latency,
/// flip counts, and the map fractions (bit pattern of the f64). Two runs
/// agree on this checksum iff they produced the same cells in the same
/// order.
pub fn campaign_checksum(cells: &[FaultCampaignCell]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for c in cells {
        mix(c.total_latency_cycles);
        mix(c.flips);
        mix(c.sensitive_fraction.to_bits());
        mix(c.rate.to_bits());
        mix(c.site.len() as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;
    use crate::rnn::RnnOptions;
    use duet_tensor::rng::seeded;
    use duet_tensor::Tensor;

    #[test]
    fn int4_corruption_stays_in_range_and_is_seeded() {
        let mut r = seeded(5);
        let t = Int4Tensor::quantize(&duet_tensor::rng::normal(&mut r, &[16, 8], 0.0, 0.5));
        let a = FaultInjector::new(7).corrupt_int4(&t, 0.05);
        let b = FaultInjector::new(7).corrupt_int4(&t, 0.05);
        assert_eq!(a.data(), b.data(), "same seed, same corruption");
        let c = FaultInjector::new(8).corrupt_int4(&t, 0.05);
        assert_ne!(a.data(), c.data(), "different seed, different corruption");
        // range check: every value representable in 4 bits
        assert!(a.data().iter().all(|&v| (-8..=7).contains(&v)));
        assert_eq!(a.scale(), t.scale());
        assert_eq!(a.bits(), t.bits());
    }

    #[test]
    fn zero_rate_is_identity() {
        let mut r = seeded(6);
        let t = Int4Tensor::quantize(&duet_tensor::rng::normal(&mut r, &[4, 4], 0.0, 0.5));
        let mut inj = FaultInjector::new(1);
        assert_eq!(inj.corrupt_int4(&t, 0.0).data(), t.data());
        let m: SwitchingMap = (0..200).map(|i| i % 3 == 0).collect();
        assert_eq!(inj.corrupt_map_bits(&m, 0.0), m);
        assert_eq!(inj.corrupt_map_words(&m, 0.0), m);
        assert_eq!(inj.flips(), 0);
    }

    #[test]
    fn full_rate_flips_every_map_bit() {
        let m: SwitchingMap = (0..130).map(|i| i % 2 == 0).collect();
        let mut inj = FaultInjector::new(3);
        let c = inj.corrupt_map_bits(&m, 1.0);
        assert_eq!(inj.flips(), 130);
        for i in 0..130 {
            assert_eq!(c.is_sensitive(i), !m.is_sensitive(i), "bit {i}");
        }
    }

    #[test]
    fn word_corruption_preserves_length() {
        let m: SwitchingMap = (0..517).map(|i| i % 5 == 0).collect();
        let mut inj = FaultInjector::new(4);
        let c = inj.corrupt_map_words(&m, 1.0);
        assert_eq!(c.len(), m.len());
        assert!(inj.flips() >= 1);
        assert_ne!(c, m);
    }

    #[test]
    fn int4_sign_extension_round_trips_through_quantizer_contract() {
        // Corrupt then re-wrap: from_raw_with_bits range-checks, so this
        // test passing means every corrupted value is a valid word.
        let t = Int4Tensor::from_raw_with_bits(vec![-8, -1, 0, 7], 0.1, &[4], 4);
        let mut inj = FaultInjector::new(11);
        for _ in 0..50 {
            let c = inj.corrupt_int4(&t, 0.5);
            assert!(c.data().iter().all(|&v| (-8..=7).contains(&v)));
        }
    }

    fn small_grid(seed: u64) -> SweepGrid {
        let mut r = seeded(seed);
        let conv = vec![ConvLayerTrace::synthetic(
            "c0", 16, 25, 72, 400, 0.45, 0.3, 0.55, 8, &mut r,
        )];
        let rnn = vec![RnnLayerTrace::synthetic("l0", 4, 64, 64, 4, 0.46, &mut r)];
        SweepGrid::new(
            vec![crate::sweep::SweepPoint::new("duet", ArchConfig::duet())],
            vec![
                SweepWorkload::Cnn {
                    name: "cnn".into(),
                    traces: conv,
                },
                SweepWorkload::Rnn {
                    name: "lstm".into(),
                    traces: rnn,
                    options: RnnOptions::duet(),
                },
            ],
        )
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let grid = small_grid(42);
        let campaign = FaultCampaign {
            sites: vec![FaultSite::SwitchingMapBits, FaultSite::GlbWords],
            rates: vec![1e-3, 1e-2],
            seed: 1234,
        };
        let e = EnergyTable::default();
        let serial = campaign.run_with_threads(&grid, &e, 1);
        assert_eq!(serial.len(), 2 * 2 * 2);
        for threads in [2usize, 4, 7] {
            let par = campaign.run_with_threads(&grid, &e, threads);
            assert_eq!(serial, par, "threads={threads}");
        }
        assert_eq!(
            campaign_checksum(&serial),
            campaign_checksum(&campaign.run_with_threads(&grid, &e, 4))
        );
    }

    #[test]
    fn higher_fault_rate_moves_switch_state_monotonically_in_flips() {
        let grid = small_grid(43);
        let campaign = FaultCampaign {
            sites: vec![FaultSite::SwitchingMapBits],
            rates: vec![1e-3, 1e-1],
            seed: 99,
        };
        let cells = campaign.run_with_threads(&grid, &EnergyTable::default(), 1);
        let low: u64 = cells
            .iter()
            .filter(|c| c.rate == 1e-3)
            .map(|c| c.flips)
            .sum();
        let high: u64 = cells
            .iter()
            .filter(|c| c.rate == 1e-1)
            .map(|c| c.flips)
            .sum();
        assert!(high > low * 10, "flips {low} vs {high}");
    }

    #[test]
    fn speculator_weight_site_leaves_traces_unchanged() {
        let grid = small_grid(44);
        let mut inj = FaultInjector::new(5);
        for w in &grid.workloads {
            let c = inj.corrupt_workload(w, FaultSite::SpeculatorWeights, 0.5);
            assert_eq!(&c, w);
        }
        assert_eq!(inj.flips(), 0);
    }

    #[test]
    fn checksum_detects_any_cell_change() {
        let grid = small_grid(45);
        let campaign = FaultCampaign::default_grid(7);
        let mut cells = campaign.run_with_threads(&grid, &EnergyTable::default(), 1);
        let a = campaign_checksum(&cells);
        cells[0].total_latency_cycles ^= 1;
        assert_ne!(a, campaign_checksum(&cells));
    }

    #[test]
    fn corrupt_int4_preserves_shape() {
        let t = Int4Tensor::quantize(&Tensor::from_fn(&[3, 5], |i| (i as f32 - 7.0) * 0.1));
        let c = FaultInjector::new(2).corrupt_int4(&t, 0.3);
        assert_eq!(c.shape().dims(), t.shape().dims());
        assert_eq!(c.len(), t.len());
    }
}
