//! Global-buffer capacity model (§III-A).
//!
//! The 1 MiB GLB holds inputs, weights, outputs, Speculator data and
//! switching maps. A layer whose working set exceeds the GLB must
//! re-stream its weights from DRAM on every pass; this model decides
//! whether it fits (the RNN runner loads a fitting gate matrix once and
//! streams one that does not at every step).

use crate::config::ArchConfig;

/// Working-set layout of one layer in the GLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlbPlan {
    /// Bytes needed resident for weights.
    pub weight_bytes: u64,
    /// Bytes needed for input tiles.
    pub input_bytes: u64,
    /// Bytes needed for output tiles.
    pub output_bytes: u64,
    /// Bytes for switching maps + Speculator QDR data.
    pub speculator_bytes: u64,
}

impl GlbPlan {
    /// The GLB slice reserved for switching maps and Speculator QDR data:
    /// 1/16 of the configured capacity (64 KiB at the paper's 1 MiB GLB).
    /// Derived from the config so GLB sizing sweeps shrink or grow the
    /// partition along with the buffer instead of pinning it at the paper
    /// default.
    pub fn speculator_partition_bytes(config: &ArchConfig) -> u64 {
        config.glb_bytes as u64 / 16
    }

    /// Total working set.
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes + self.input_bytes + self.output_bytes + self.speculator_bytes
    }

    /// Whether the whole working set fits at once.
    pub fn fits(&self, config: &ArchConfig) -> bool {
        self.total_bytes() <= config.glb_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_layer_fits() {
        let p = GlbPlan {
            weight_bytes: 300_000,
            input_bytes: 200_000,
            output_bytes: 200_000,
            speculator_bytes: 50_000,
        };
        assert!(p.fits(&ArchConfig::duet()));
    }

    #[test]
    fn rnn_gate_matrix_does_not_fit() {
        // 1024×2048 INT16 weights = 4 MiB
        let p = GlbPlan {
            weight_bytes: 4 << 20,
            input_bytes: 4096,
            output_bytes: 4096,
            speculator_bytes: 64 << 10,
        };
        assert!(!p.fits(&ArchConfig::duet()));
    }

    #[test]
    fn speculator_partition_scales_with_glb() {
        // Regression: the RNN fit decision used a hardcoded 64 KiB, so GLB
        // sizing sweeps never moved the speculator partition.
        let duet = ArchConfig::duet();
        assert_eq!(GlbPlan::speculator_partition_bytes(&duet), 64 << 10);
        let mut big = duet;
        big.glb_bytes = 4 << 20;
        assert_eq!(GlbPlan::speculator_partition_bytes(&big), 256 << 10);
    }

    #[test]
    fn totals() {
        let p = GlbPlan {
            weight_bytes: 1,
            input_bytes: 2,
            output_bytes: 3,
            speculator_bytes: 4,
        };
        assert_eq!(p.total_bytes(), 10);
    }
}
