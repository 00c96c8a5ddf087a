//! Architecture configuration (§III, Fig. 4).

/// Feature toggles for the Executor's computation-skipping machinery —
/// the ablation axes of Fig. 12(a): OS, BOS, IOS, DUET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorFeatures {
    /// Skip outputs flagged insensitive by the switching map (OS).
    pub output_switching: bool,
    /// Reorder output channels with the Reorder Unit for balanced rows
    /// (the "B" in BOS).
    pub adaptive_mapping: bool,
    /// Skip MACs whose input activation is zero via the IMap tag bits
    /// (the "I" in IOS).
    pub input_skipping: bool,
}

impl ExecutorFeatures {
    /// Dense single-module baseline (BASE): nothing skipped.
    pub fn base() -> Self {
        Self {
            output_switching: false,
            adaptive_mapping: false,
            input_skipping: false,
        }
    }

    /// Output switching only (OS).
    pub fn os() -> Self {
        Self {
            output_switching: true,
            adaptive_mapping: false,
            input_skipping: false,
        }
    }

    /// Balanced output switching (BOS): OS + adaptive mapping.
    pub fn bos() -> Self {
        Self {
            output_switching: true,
            adaptive_mapping: true,
            input_skipping: false,
        }
    }

    /// Integrated input + output switching (IOS), unbalanced.
    pub fn ios() -> Self {
        Self {
            output_switching: true,
            adaptive_mapping: false,
            input_skipping: true,
        }
    }

    /// The full DUET design: IOS + adaptive mapping.
    pub fn duet() -> Self {
        Self {
            output_switching: true,
            adaptive_mapping: true,
            input_skipping: true,
        }
    }

    /// Short label used in reports ("BASE", "OS", "BOS", "IOS", "DUET").
    pub fn label(&self) -> &'static str {
        match (
            self.output_switching,
            self.adaptive_mapping,
            self.input_skipping,
        ) {
            (false, _, false) => "BASE",
            (false, _, true) => "IS",
            (true, false, false) => "OS",
            (true, true, false) => "BOS",
            (true, false, true) => "IOS",
            (true, true, true) => "DUET",
        }
    }
}

/// Speculator sizing (§III-B; swept in Fig. 13(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculatorConfig {
    /// Systolic array rows.
    pub systolic_rows: usize,
    /// Systolic array columns.
    pub systolic_cols: usize,
    /// Compute precision in bits (paper default 4; swept in Fig. 13(b)).
    pub precision_bits: u32,
}

impl SpeculatorConfig {
    /// The paper's chosen point: a 16×32 INT4 systolic array.
    pub fn paper_default() -> Self {
        Self {
            systolic_rows: 16,
            systolic_cols: 32,
            precision_bits: 4,
        }
    }

    /// MAC throughput per cycle.
    pub fn macs_per_cycle(&self) -> u64 {
        (self.systolic_rows * self.systolic_cols) as u64
    }
}

/// Top-level DUET architecture configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchConfig {
    /// Executor PE array rows (one output channel / weight row per row).
    pub pe_rows: usize,
    /// Executor PE array columns.
    pub pe_cols: usize,
    /// Speculator sizing.
    pub speculator: SpeculatorConfig,
    /// Global buffer capacity in bytes (paper: 1 MiB).
    pub glb_bytes: usize,
    /// GLB bandwidth in bytes/cycle (paper: 512 B/cycle).
    pub glb_bytes_per_cycle: usize,
    /// Off-chip DRAM bandwidth in bytes/cycle.
    pub dram_bytes_per_cycle: usize,
    /// Clock frequency in GHz (for cycle → ms conversion).
    pub clock_ghz: f64,
    /// Executor skipping features.
    pub features: ExecutorFeatures,
}

impl ArchConfig {
    /// The paper's DUET configuration: 16×16 Executor, 16×32 INT4
    /// Speculator, 1 MiB GLB at 512 B/cycle, 1 GHz.
    pub fn duet() -> Self {
        Self {
            pe_rows: 16,
            pe_cols: 16,
            speculator: SpeculatorConfig::paper_default(),
            glb_bytes: 1 << 20,
            glb_bytes_per_cycle: 512,
            dram_bytes_per_cycle: 32,
            clock_ghz: 1.0,
            features: ExecutorFeatures::duet(),
        }
    }

    /// Single-module baseline: same Executor, no Speculator benefits.
    pub fn single_module() -> Self {
        Self {
            features: ExecutorFeatures::base(),
            ..Self::duet()
        }
    }

    /// Same architecture with different Executor features.
    pub fn with_features(self, features: ExecutorFeatures) -> Self {
        Self { features, ..self }
    }

    /// Total Executor PE count.
    pub fn pe_count(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Converts a cycle count to milliseconds at the configured clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9) * 1e3
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::duet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ExecutorFeatures::base().label(), "BASE");
        assert_eq!(ExecutorFeatures::os().label(), "OS");
        assert_eq!(ExecutorFeatures::bos().label(), "BOS");
        assert_eq!(ExecutorFeatures::ios().label(), "IOS");
        assert_eq!(ExecutorFeatures::duet().label(), "DUET");
    }

    #[test]
    fn paper_defaults() {
        let c = ArchConfig::duet();
        assert_eq!(c.pe_count(), 256);
        assert_eq!(c.speculator.macs_per_cycle(), 512);
        assert_eq!(c.glb_bytes, 1048576);
    }

    #[test]
    fn cycle_conversion() {
        let c = ArchConfig::duet();
        assert!((c.cycles_to_ms(1_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_builders() {
        let c = ArchConfig::duet().with_features(ExecutorFeatures::os());
        assert_eq!(c.features.label(), "OS");
    }
}
