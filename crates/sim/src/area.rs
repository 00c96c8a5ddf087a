//! Area model reproducing Table I.
//!
//! Component areas scale with their sizing knobs (PE count, buffer bytes,
//! systolic cells) from per-unit constants chosen so the paper's
//! configuration lands on the reported shares: the Speculator at ~6.6% of
//! total area and the Executor at ~40%, with on-chip memory dominating the
//! rest.

use crate::config::ArchConfig;

/// Per-unit area constants (mm², 65 nm-class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// One Executor PE (16-bit MAC + local buffers + LUT control).
    pub pe_mm2: f64,
    /// One byte of SRAM (GLB and large buffers).
    pub sram_mm2_per_byte: f64,
    /// One INT4 systolic cell in the Speculator.
    pub systolic_cell_mm2: f64,
    /// Speculator fixed blocks: quantizer, alignment units, adder trees,
    /// MFU, reorder unit, and QDR buffers.
    pub speculator_fixed_mm2: f64,
    /// NoC + global control.
    pub noc_control_mm2: f64,
}

impl AreaModel {
    /// Default constants calibrated to Table I shares at the paper's
    /// configuration.
    pub fn default_65nm() -> Self {
        Self {
            pe_mm2: 0.0156,
            sram_mm2_per_byte: 4.3e-6,
            systolic_cell_mm2: 0.00065,
            speculator_fixed_mm2: 0.33,
            noc_control_mm2: 0.45,
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::default_65nm()
    }
}

/// Component areas for a configuration — the rows of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Executor PE array.
    pub executor_mm2: f64,
    /// Global buffer SRAM.
    pub glb_mm2: f64,
    /// Speculator (systolic array + fixed blocks).
    pub speculator_mm2: f64,
    /// NoC and control.
    pub noc_control_mm2: f64,
}

impl AreaReport {
    /// Computes the report for an architecture configuration.
    pub fn for_config(config: &ArchConfig, model: &AreaModel) -> Self {
        let executor_mm2 = config.pe_count() as f64 * model.pe_mm2;
        let glb_mm2 = config.glb_bytes as f64 * model.sram_mm2_per_byte;
        let cells = (config.speculator.systolic_rows * config.speculator.systolic_cols) as f64;
        // Fixed Speculator blocks scale mildly with array width (wider
        // adder trees / buffers).
        let width_scale = (cells / 512.0).sqrt();
        let speculator_mm2 =
            cells * model.systolic_cell_mm2 + model.speculator_fixed_mm2 * width_scale;
        Self {
            executor_mm2,
            glb_mm2,
            speculator_mm2,
            noc_control_mm2: model.noc_control_mm2,
        }
    }

    /// Total chip area.
    pub fn total_mm2(&self) -> f64 {
        self.executor_mm2 + self.glb_mm2 + self.speculator_mm2 + self.noc_control_mm2
    }

    /// Executor share of total area.
    pub fn executor_fraction(&self) -> f64 {
        self.executor_mm2 / self.total_mm2()
    }

    /// Speculator share of total area (paper: 6.6%).
    pub fn speculator_fraction(&self) -> f64 {
        self.speculator_mm2 / self.total_mm2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1_shares() {
        let r = AreaReport::for_config(&ArchConfig::duet(), &AreaModel::default());
        let ex = r.executor_fraction();
        let sp = r.speculator_fraction();
        assert!((ex - 0.40).abs() < 0.03, "executor share {ex}");
        assert!((sp - 0.066).abs() < 0.01, "speculator share {sp}");
        // memory should dominate the remainder
        assert!(r.glb_mm2 > r.speculator_mm2);
    }

    #[test]
    fn smaller_speculator_shrinks_share() {
        let mut cfg = ArchConfig::duet();
        cfg.speculator.systolic_rows = 8;
        cfg.speculator.systolic_cols = 8;
        let small = AreaReport::for_config(&cfg, &AreaModel::default());
        let big = AreaReport::for_config(&ArchConfig::duet(), &AreaModel::default());
        assert!(small.speculator_mm2 < big.speculator_mm2);
    }

    #[test]
    fn total_is_sum() {
        let r = AreaReport::for_config(&ArchConfig::duet(), &AreaModel::default());
        let sum = r.executor_mm2 + r.glb_mm2 + r.speculator_mm2 + r.noc_control_mm2;
        assert!((r.total_mm2() - sum).abs() < 1e-12);
    }
}
