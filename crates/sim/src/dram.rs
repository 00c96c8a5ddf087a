//! Off-chip DRAM model: bandwidth-limited transfers with per-access
//! energy.

use crate::config::ArchConfig;
use crate::energy::EnergyTable;

/// A DRAM transfer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTransfer {
    /// Bytes moved.
    pub bytes: u64,
}

impl DramTransfer {
    /// Creates a transfer of `bytes`.
    pub fn new(bytes: u64) -> Self {
        Self { bytes }
    }

    /// Cycles the transfer occupies the DRAM channel.
    pub fn cycles(&self, config: &ArchConfig) -> u64 {
        self.bytes.div_ceil(config.dram_bytes_per_cycle as u64)
    }

    /// Energy of the transfer in pJ.
    pub fn energy_pj(&self, energy: &EnergyTable) -> f64 {
        self.bytes as f64 / 2.0 * energy.dram_16b_pj
    }
}

/// Aggregate DRAM channel statistics for a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total bytes read.
    pub read_bytes: u64,
    /// Total bytes written.
    pub write_bytes: u64,
}

impl DramStats {
    /// Records a read.
    pub fn read(&mut self, bytes: u64) -> DramTransfer {
        self.read_bytes += bytes;
        DramTransfer::new(bytes)
    }

    /// Records a write.
    pub fn write(&mut self, bytes: u64) -> DramTransfer {
        self.write_bytes += bytes;
        DramTransfer::new(bytes)
    }

    /// Total traffic.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cycles_respect_bandwidth() {
        let cfg = ArchConfig::duet(); // 32 B/cycle
        assert_eq!(DramTransfer::new(64).cycles(&cfg), 2);
        assert_eq!(DramTransfer::new(65).cycles(&cfg), 3);
        assert_eq!(DramTransfer::new(0).cycles(&cfg), 0);
    }

    #[test]
    fn energy_per_word() {
        let e = EnergyTable::default();
        let t = DramTransfer::new(4); // two 16-bit words
        assert!((t.energy_pj(&e) - 2.0 * e.dram_16b_pj).abs() < 1e-9);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = DramStats::default();
        s.read(100);
        s.read(50);
        s.write(25);
        assert_eq!(s.read_bytes, 150);
        assert_eq!(s.write_bytes, 25);
        assert_eq!(s.total_bytes(), 175);
    }
}
