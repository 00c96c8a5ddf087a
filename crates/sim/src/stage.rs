//! The speculated GEMV stage every memory-bound layer is made of.
//!
//! §IV-B and §VI: at batch size 1 an FC layer, an RNN gate and a
//! transformer projection are each one GEMV whose weight matrix is
//! streamed from DRAM, and the switching map lets DUET skip fetching and
//! computing the rows of insensitive outputs. A [`RowStage`] is one such
//! GEMV: its executed rows, the bytes its fetch moves, and the
//! speculation that produced its map. [`RowStage::cost`] prices it once,
//! for all three layer kinds; the runners in [`crate::fc`],
//! [`crate::rnn`] and [`crate::transformer`] keep only what differs
//! between them (how many bytes a fetch moves, what the speculation
//! hides behind, how stages chain).

use crate::config::ArchConfig;
use crate::energy::{EnergyBreakdown, EnergyTable};
use crate::report::{mac_utilization, LayerPerf};
use crate::rnn::RnnLatencySplit;
use crate::speculator::SpeculatorResult;
use std::ops::AddAssign;

/// One speculated GEMV on the Executor.
pub(crate) struct RowStage {
    /// Weight rows executed: the sensitive rows under a switching map,
    /// every row on the single-module design.
    pub rows: u64,
    /// MACs per row (the GEMV's input width).
    pub row_macs: u64,
    /// Weight bytes this stage fetches from DRAM.
    pub fetch_bytes: u64,
    /// 16-bit GLB words read besides the weight rows (the input and
    /// output vectors).
    pub glb_words: u64,
    /// The Speculator pass that produced the map, `None` on the
    /// single-module design.
    pub spec: Option<SpeculatorResult>,
    /// Cycles the speculation hides behind (the previous stage's
    /// latency; 0 when it is exposed).
    pub hidden_behind: u64,
}

/// What one or more stages cost; adding two costs runs them in sequence.
#[derive(Clone, Copy, Default)]
pub(crate) struct StageCost {
    /// Cycles the DRAM channel streams weight rows.
    pub dram_cycles: u64,
    /// Executor PE-array cycles.
    pub pe_cycles: u64,
    /// Speculator cycles, hidden or not.
    pub spec_cycles: u64,
    /// MACs executed.
    pub executed_macs: u64,
    /// Weight bytes fetched from DRAM.
    pub fetched_bytes: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Where the latency goes: the bottleneck of each stage, plus its
    /// exposed speculation.
    pub split: RnnLatencySplit,
}

/// PE-array cycles of `rows` rows of `row_macs` MACs: each PE row takes
/// one weight row, and the row's dot product spreads over that row's PEs.
pub(crate) fn pe_cycles(rows: u64, row_macs: u64, config: &ArchConfig) -> u64 {
    rows.div_ceil(config.pe_rows as u64) * row_macs.div_ceil(config.pe_cols as u64)
}

/// Executor-side energy of `macs` MACs over `pe_cycles` cycles that read
/// `glb_words` operand words and fetch `fetch_bytes` weight bytes (every
/// 16-bit weight word crosses DRAM and the NoC once).
fn executor_energy(
    macs: u64,
    glb_words: u64,
    fetch_bytes: u64,
    pe_cycles: u64,
    config: &ArchConfig,
    energy: &EnergyTable,
) -> EnergyBreakdown {
    EnergyBreakdown {
        executor_compute_pj: macs as f64 * energy.mac_int16_pj,
        executor_rf_pj: macs as f64 * energy.rf_16b_pj,
        glb_pj: macs as f64 / 16.0 * energy.glb_16b_pj + glb_words as f64 * energy.glb_16b_pj,
        noc_pj: fetch_bytes as f64 / 2.0 * energy.noc_16b_pj,
        dram_pj: fetch_bytes as f64 / 2.0 * energy.dram_16b_pj,
        speculator_pj: 0.0,
        control_pj: pe_cycles as f64 * config.pe_count() as f64 * energy.control_pj_per_cycle * 0.1,
    }
}

impl RowStage {
    /// Prices the stage. Row streaming is double-buffered, so memory and
    /// compute overlap and the slower one is the stage's bottleneck; the
    /// speculation not hidden behind the previous stage comes on top.
    pub(crate) fn cost(&self, config: &ArchConfig, energy: &EnergyTable) -> StageCost {
        let executed_macs = self.rows * self.row_macs;
        let dram_cycles = self
            .fetch_bytes
            .div_ceil(config.dram_bytes_per_cycle as u64);
        let pe_cycles = pe_cycles(self.rows, self.row_macs, config);
        let (spec_cycles, spec_energy) = self
            .spec
            .map_or((0, EnergyBreakdown::default()), |s| (s.cycles, s.energy));
        let mut split = RnnLatencySplit {
            speculation_cycles: spec_cycles.saturating_sub(self.hidden_behind),
            ..Default::default()
        };
        if dram_cycles >= pe_cycles {
            split.memory_cycles = dram_cycles;
        } else {
            split.compute_cycles = pe_cycles;
        }
        StageCost {
            dram_cycles,
            pe_cycles,
            spec_cycles,
            executed_macs,
            fetched_bytes: self.fetch_bytes,
            energy: executor_energy(
                executed_macs,
                self.glb_words,
                self.fetch_bytes,
                pe_cycles,
                config,
                energy,
            ) + spec_energy,
            split,
        }
    }
}

impl StageCost {
    /// Dense compute on operands already on chip, such as the attention
    /// mixer: no weight fetch and no speculation.
    pub(crate) fn on_chip(
        macs: u64,
        pe_cycles: u64,
        config: &ArchConfig,
        energy: &EnergyTable,
    ) -> Self {
        Self {
            pe_cycles,
            executed_macs: macs,
            energy: executor_energy(macs, 0, 0, pe_cycles, config, energy),
            split: RnnLatencySplit {
                compute_cycles: pe_cycles,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Latency of the stages in sequence.
    pub(crate) fn latency(&self) -> u64 {
        self.split.total()
    }

    /// The per-layer report of these stages.
    pub(crate) fn perf(&self, name: &str, dense_macs: u64, config: &ArchConfig) -> LayerPerf {
        LayerPerf {
            name: name.to_string(),
            executor_cycles: self.pe_cycles,
            speculator_cycles: self.spec_cycles,
            dram_cycles: self.dram_cycles,
            latency_cycles: self.latency(),
            executed_macs: self.executed_macs,
            dense_macs,
            mac_utilization: mac_utilization(self.executed_macs, self.pe_cycles, config),
            energy: self.energy,
        }
    }
}

impl AddAssign for StageCost {
    fn add_assign(&mut self, rhs: Self) {
        self.dram_cycles += rhs.dram_cycles;
        self.pe_cycles += rhs.pe_cycles;
        self.spec_cycles += rhs.spec_cycles;
        self.executed_macs += rhs.executed_macs;
        self.fetched_bytes += rhs.fetched_bytes;
        self.energy += rhs.energy;
        self.split.memory_cycles += rhs.split.memory_cycles;
        self.split.compute_cycles += rhs.split.compute_cycles;
        self.split.speculation_cycles += rhs.split.speculation_cycles;
    }
}
