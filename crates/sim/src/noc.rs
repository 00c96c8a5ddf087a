//! Network-on-chip model (§III-A): Y-bus feeding 17 X-buses (16 Executor
//! rows + 1 Speculator) with `(row, col)` multicast IDs.
//!
//! The NoC's performance is bandwidth-provisioned to match the GLB
//! (512 B/cycle), so it never throttles; what matters is the *energy* of
//! word deliveries, which depends on how many X-buses a multicast
//! activates (unmatched buses are de-activated to save energy).

use crate::energy::EnergyTable;

/// One multicast delivery on the NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Multicast {
    /// 16-bit words delivered.
    pub words: u64,
    /// Destination X-buses activated (1..=17).
    pub dest_buses: usize,
}

impl Multicast {
    /// Creates a multicast of `words` to `dest_buses` buses.
    ///
    /// # Panics
    ///
    /// Panics if `dest_buses` is 0 or exceeds 17.
    pub fn new(words: u64, dest_buses: usize) -> Self {
        assert!(
            (1..=17).contains(&dest_buses),
            "DUET has 17 X-buses, got {dest_buses}"
        );
        Self { words, dest_buses }
    }

    /// Transport energy: the Y-bus hop plus one hop per activated X-bus.
    /// A unicast (1 bus) costs one noc unit per word; a full broadcast
    /// costs proportionally more but amortizes the shared Y-bus hop.
    pub fn energy_pj(&self, energy: &EnergyTable) -> f64 {
        let per_word = energy.noc_16b_pj * (0.5 + 0.5 * self.dest_buses as f64 / 17.0 * 4.0);
        self.words as f64 * per_word
    }
}

/// Aggregate NoC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NocStats {
    /// Total words moved.
    pub words: u64,
    /// Total transport energy.
    pub energy_pj: f64,
}

impl NocStats {
    /// Records a multicast and accumulates its energy.
    pub fn deliver(&mut self, m: Multicast, energy: &EnergyTable) {
        self.words += m.words;
        self.energy_pj += m.energy_pj(energy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_costs_more_than_unicast() {
        let e = EnergyTable::default();
        let uni = Multicast::new(100, 1).energy_pj(&e);
        let broad = Multicast::new(100, 17).energy_pj(&e);
        assert!(broad > uni);
        // ...but less than 17 unicasts (shared Y-bus)
        assert!(broad < uni * 17.0);
    }

    #[test]
    fn stats_accumulate() {
        let e = EnergyTable::default();
        let mut s = NocStats::default();
        s.deliver(Multicast::new(10, 4), &e);
        s.deliver(Multicast::new(5, 1), &e);
        assert_eq!(s.words, 15);
        assert!(s.energy_pj > 0.0);
    }

    #[test]
    #[should_panic(expected = "17 X-buses")]
    fn too_many_buses_panics() {
        Multicast::new(1, 18);
    }
}
