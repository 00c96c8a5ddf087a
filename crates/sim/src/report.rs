//! Simulation reports: per-layer and per-model performance/energy.

use crate::config::ArchConfig;
use crate::energy::EnergyBreakdown;

/// Performance and energy of one simulated layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPerf {
    /// Layer name.
    pub name: String,
    /// Executor compute cycles.
    pub executor_cycles: u64,
    /// Speculator cycles (0 when the design has none).
    pub speculator_cycles: u64,
    /// Cycles spent waiting on DRAM (serialized portion).
    pub dram_cycles: u64,
    /// Effective layer latency in cycles after pipeline overlap.
    pub latency_cycles: u64,
    /// MACs executed.
    pub executed_macs: u64,
    /// Dense-equivalent MACs.
    pub dense_macs: u64,
    /// MAC-array utilization (Fig. 12(b) metric).
    pub mac_utilization: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

/// MAC-array utilization: executed MACs over issue slots
/// (`executor_cycles × PE count`), the Fig. 12(b) metric; 0 when the
/// array never ran.
pub(crate) fn mac_utilization(
    executed_macs: u64,
    executor_cycles: u64,
    config: &ArchConfig,
) -> f64 {
    if executor_cycles == 0 {
        0.0
    } else {
        executed_macs as f64 / (executor_cycles * config.pe_count() as u64) as f64
    }
}

/// Whole-model simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPerf {
    /// Design label ("DUET", "BASE", "Eyeriss", …).
    pub design: String,
    /// Model name ("AlexNet", "LSTM-PTB", …).
    pub model: String,
    /// Per-layer results.
    pub layers: Vec<LayerPerf>,
    /// End-to-end latency in cycles (includes pipeline fill).
    pub total_latency_cycles: u64,
}

impl ModelPerf {
    /// Total energy across layers.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.layers.iter().map(|l| l.energy).sum()
    }

    /// Speedup of this result relative to a baseline run of the same
    /// model.
    pub fn speedup_over(&self, baseline: &ModelPerf) -> f64 {
        baseline.total_latency_cycles as f64 / self.total_latency_cycles as f64
    }

    /// Energy-efficiency factor relative to a baseline (baseline energy /
    /// this energy; >1 means this design is more efficient).
    pub fn energy_efficiency_over(&self, baseline: &ModelPerf) -> f64 {
        baseline.total_energy().total_pj() / self.total_energy().total_pj()
    }

    /// Energy-delay product in pJ·cycles.
    pub fn edp(&self) -> f64 {
        self.total_energy().total_pj() * self.total_latency_cycles as f64
    }

    /// Average MAC utilization weighted by executor cycles.
    pub fn avg_mac_utilization(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.executor_cycles).sum();
        if total == 0 {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.mac_utilization * l.executor_cycles as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf(lat: u64, e: f64) -> ModelPerf {
        ModelPerf {
            design: "X".into(),
            model: "m".into(),
            layers: vec![LayerPerf {
                name: "l".into(),
                executor_cycles: lat,
                speculator_cycles: 0,
                dram_cycles: 0,
                latency_cycles: lat,
                executed_macs: 10,
                dense_macs: 10,
                mac_utilization: 0.5,
                energy: EnergyBreakdown {
                    executor_compute_pj: e,
                    ..Default::default()
                },
            }],
            total_latency_cycles: lat,
        }
    }

    #[test]
    fn comparisons() {
        let fast = perf(100, 50.0);
        let slow = perf(250, 100.0);
        assert!((fast.speedup_over(&slow) - 2.5).abs() < 1e-9);
        assert!((fast.energy_efficiency_over(&slow) - 2.0).abs() < 1e-9);
        assert!(fast.edp() < slow.edp());
    }

    #[test]
    fn weighted_utilization() {
        let mut p = perf(100, 1.0);
        p.layers.push(LayerPerf {
            executor_cycles: 300,
            mac_utilization: 0.9,
            ..p.layers[0].clone()
        });
        let u = p.avg_mac_utilization();
        assert!((u - (0.5 * 100.0 + 0.9 * 300.0) / 400.0).abs() < 1e-9);
    }
}
