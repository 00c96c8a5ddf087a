//! Energy model (§V-B): per-operation and per-access energy constants plus
//! the per-component breakdown used in Fig. 12(e)/(f).
//!
//! The constants follow the published Eyeriss/Horowitz hierarchy ratios:
//! accessing a 16-bit word costs roughly 1× (local PE register file),
//! 6× (global buffer), and 200× (DRAM) a 16-bit MAC. The paper's own
//! evaluation builds on the same ratios ("CACTI and Micron Power
//! Calculators"); we embed them as a constant table so every design is
//! charged identically.

use std::ops::{Add, AddAssign};

/// Per-operation / per-access energy constants in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// One INT16 multiply-accumulate.
    pub mac_int16_pj: f64,
    /// One INT4 multiply-accumulate (Speculator systolic cell).
    pub mac_int4_pj: f64,
    /// One INT4-grade addition (Speculator adder tree).
    pub add_int4_pj: f64,
    /// One 16-bit local (PE register file) access.
    pub rf_16b_pj: f64,
    /// One 16-bit global-buffer access.
    pub glb_16b_pj: f64,
    /// One 16-bit DRAM access.
    pub dram_16b_pj: f64,
    /// One 16-bit word traversal of the NoC (multicast counted once per
    /// destination group).
    pub noc_16b_pj: f64,
    /// Control overhead per PE-cycle of active work.
    pub control_pj_per_cycle: f64,
}

impl EnergyTable {
    /// The default 45 nm-class table.
    pub fn default_45nm() -> Self {
        Self {
            mac_int16_pj: 1.0,
            mac_int4_pj: 0.07,
            add_int4_pj: 0.03,
            rf_16b_pj: 1.0,
            glb_16b_pj: 6.0,
            dram_16b_pj: 200.0,
            noc_16b_pj: 2.0,
            control_pj_per_cycle: 0.05,
        }
    }
}

impl Default for EnergyTable {
    fn default() -> Self {
        Self::default_45nm()
    }
}

/// Energy broken down by component, in picojoules. This is the shape of
/// the stacked bars in Fig. 12(e)/(f).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Executor MAC (and PE adder) energy.
    pub executor_compute_pj: f64,
    /// Executor local-buffer (register file) energy.
    pub executor_rf_pj: f64,
    /// Global-buffer access energy.
    pub glb_pj: f64,
    /// NoC transport energy.
    pub noc_pj: f64,
    /// Off-chip DRAM energy.
    pub dram_pj: f64,
    /// Speculator energy (quantizer, adder trees, systolic array, MFU,
    /// reorder unit, QDR buffers).
    pub speculator_pj: f64,
    /// Control / clocking overhead.
    pub control_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy including DRAM (Fig. 12(e)).
    pub fn total_pj(&self) -> f64 {
        self.on_chip_pj() + self.dram_pj
    }

    /// On-chip energy only (Fig. 12(f)).
    pub fn on_chip_pj(&self) -> f64 {
        self.executor_compute_pj
            + self.executor_rf_pj
            + self.glb_pj
            + self.noc_pj
            + self.speculator_pj
            + self.control_pj
    }

    /// Speculator share of on-chip energy (the paper reports 3.5–6.3% for
    /// CONV layers and <1% for RNNs).
    pub fn speculator_fraction_on_chip(&self) -> f64 {
        if self.on_chip_pj() == 0.0 {
            return 0.0;
        }
        self.speculator_pj / self.on_chip_pj()
    }

    /// Scales every component (used when replicating a layer `n` times).
    pub fn scaled(&self, s: f64) -> Self {
        Self {
            executor_compute_pj: self.executor_compute_pj * s,
            executor_rf_pj: self.executor_rf_pj * s,
            glb_pj: self.glb_pj * s,
            noc_pj: self.noc_pj * s,
            dram_pj: self.dram_pj * s,
            speculator_pj: self.speculator_pj * s,
            control_pj: self.control_pj * s,
        }
    }
}

impl Add for EnergyBreakdown {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            executor_compute_pj: self.executor_compute_pj + rhs.executor_compute_pj,
            executor_rf_pj: self.executor_rf_pj + rhs.executor_rf_pj,
            glb_pj: self.glb_pj + rhs.glb_pj,
            noc_pj: self.noc_pj + rhs.noc_pj,
            dram_pj: self.dram_pj + rhs.dram_pj,
            speculator_pj: self.speculator_pj + rhs.speculator_pj,
            control_pj: self.control_pj + rhs.control_pj,
        }
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for EnergyBreakdown {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_ratios() {
        let t = EnergyTable::default_45nm();
        assert!(t.glb_16b_pj / t.rf_16b_pj >= 4.0);
        assert!(t.dram_16b_pj / t.glb_16b_pj >= 20.0);
        assert!(t.mac_int4_pj < t.mac_int16_pj / 10.0);
    }

    #[test]
    fn totals_and_fractions() {
        let b = EnergyBreakdown {
            executor_compute_pj: 10.0,
            executor_rf_pj: 20.0,
            glb_pj: 30.0,
            noc_pj: 5.0,
            dram_pj: 100.0,
            speculator_pj: 5.0,
            control_pj: 0.0,
        };
        assert!((b.on_chip_pj() - 70.0).abs() < 1e-9);
        assert!((b.total_pj() - 170.0).abs() < 1e-9);
        assert!((b.speculator_fraction_on_chip() - 5.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn addition_and_scaling() {
        let b = EnergyBreakdown {
            executor_compute_pj: 1.0,
            dram_pj: 2.0,
            ..Default::default()
        };
        let s: EnergyBreakdown = vec![b, b, b].into_iter().sum();
        assert!((s.total_pj() - 9.0).abs() < 1e-9);
        assert!((b.scaled(4.0).dram_pj - 8.0).abs() < 1e-9);
    }
}
