//! The Speculator's Reorder Unit (§IV-A, Fig. 8): hardware-efficient
//! adaptive mapping.
//!
//! One-bit adder trees sum each output channel's switching indices into a
//! per-channel workload estimate; comparing those sums against preset
//! interval thresholds scatters channel IDs into *buckets*. Draining the
//! buckets from heaviest to lightest yields the new channel computation
//! order, so channels grouped into the same Executor step have comparable
//! workloads.

/// Result of one adaptive-mapping pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderResult {
    /// Channel IDs in their new computation order.
    pub order: Vec<usize>,
    /// Cycles the Reorder Unit spent (adder trees + bucket writes).
    pub cycles: u64,
}

/// The Reorder Unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderUnit {
    /// Number of buckets (the paper sizes this to the PE-row count).
    pub buckets: usize,
    /// Switching-map bits the adder trees consume per cycle.
    pub bits_per_cycle: usize,
}

impl ReorderUnit {
    /// Creates a Reorder Unit with the given bucket count and a default
    /// adder-tree throughput of 256 map bits per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        Self {
            buckets,
            bits_per_cycle: 256,
        }
    }

    /// Reorders channels by bucketed workload (heaviest bucket first).
    ///
    /// Within a bucket, original channel order is preserved (matching the
    /// simple hardware FIFO buckets of Fig. 8). Outputs are still written
    /// back to the GLB in original order, so only the *computation*
    /// sequence changes.
    ///
    /// `map_bits` is the number of switching-map bits summed (for cycle
    /// accounting).
    pub fn reorder(&self, workloads: &[usize], map_bits: usize) -> ReorderResult {
        let n = workloads.len();
        if n == 0 {
            return ReorderResult {
                order: Vec::new(),
                cycles: 0,
            };
        }
        let max = workloads.iter().copied().max().unwrap_or(0);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.buckets];
        for (ch, &w) in workloads.iter().enumerate() {
            // bucket 0 holds the heaviest channels; interval thresholds
            // partition [0, max] into `buckets` ranges
            let b = if max == 0 {
                self.buckets - 1
            } else {
                let level = (w * self.buckets / (max + 1)).min(self.buckets - 1);
                self.buckets - 1 - level
            };
            buckets[b].push(ch);
        }
        let order: Vec<usize> = buckets.into_iter().flatten().collect();
        // adder trees stream the map bits, bucket writes take one cycle
        // per channel
        let cycles = (map_bits as u64).div_ceil(self.bits_per_cycle as u64) + n as u64;
        ReorderResult { order, cycles }
    }
}

/// Imbalance cost of a channel order: the sum over steps (groups of
/// `rows` consecutive channels in the order) of the *maximum* workload in
/// the group — i.e. the row-level execution time, since a step waits for
/// its slowest row.
pub fn grouped_max_cost(workloads: &[usize], order: &[usize], rows: usize) -> u64 {
    assert!(rows > 0, "rows must be positive");
    order
        .chunks(rows)
        .map(|g| g.iter().map(|&c| workloads[c]).max().unwrap_or(0) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_fig7b() {
        // Workload sums 4, 1, 2, 4 for channels 0..4, two buckets (two PE
        // lines). Expected grouping: {0, 3} heavy, {1, 2} light.
        let unit = ReorderUnit::new(2);
        let r = unit.reorder(&[4, 1, 2, 4], 16);
        assert_eq!(r.order, vec![0, 3, 1, 2]);
    }

    #[test]
    fn reorder_reduces_grouped_max_cost() {
        let workloads = vec![9, 1, 8, 2, 7, 3, 6, 4];
        let natural: Vec<usize> = (0..8).collect();
        let unit = ReorderUnit::new(4);
        let r = unit.reorder(&workloads, 64);
        let before = grouped_max_cost(&workloads, &natural, 2);
        let after = grouped_max_cost(&workloads, &r.order, 2);
        assert!(after < before, "cost {before} -> {after}");
    }

    #[test]
    fn order_is_a_permutation() {
        let workloads = vec![3, 0, 5, 5, 2, 8, 1, 1, 9];
        let r = ReorderUnit::new(3).reorder(&workloads, 100);
        let mut sorted = r.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn all_zero_workloads() {
        let r = ReorderUnit::new(2).reorder(&[0, 0, 0], 12);
        assert_eq!(r.order.len(), 3);
    }

    #[test]
    fn cycles_scale_with_map_bits() {
        let unit = ReorderUnit::new(2);
        let small = unit.reorder(&[1, 2], 256).cycles;
        let large = unit.reorder(&[1, 2], 2560).cycles;
        assert!(large > small);
    }

    #[test]
    fn empty_input() {
        let r = ReorderUnit::new(2).reorder(&[], 0);
        assert!(r.order.is_empty());
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn optimal_for_sorted_pairs() {
        // With enough buckets the order approaches sorted-descending,
        // which is optimal for grouped-max.
        let workloads = vec![10, 1, 10, 1, 10, 1];
        let r = ReorderUnit::new(6).reorder(&workloads, 6);
        let cost = grouped_max_cost(&workloads, &r.order, 2);
        assert_eq!(cost, 10 + 10 + 1, "order {:?}", r.order);
    }
}
