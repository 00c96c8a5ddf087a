//! Exact per-tenant SLO statistics.
//!
//! The `duet-obs` histograms give cheap pow2-bucketed global quantiles;
//! the serving report additionally wants *exact* per-tenant percentiles
//! over virtual latencies, computed nearest-rank over the full sample
//! set. Everything here is integer arithmetic over integer ticks, so a
//! report compares (and serializes) byte-identically across runs.

/// Nearest-rank percentile (`p` in [0, 100]) of a sample set.
///
/// Returns 0 for an empty set — the degenerate aggregate a brand-new or
/// idle tenant produces (the same zero-samples seam the empty
/// `SavingsReport` guards cover).
pub fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// SLO summary for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSlo {
    /// Tenant display name.
    pub name: String,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Requests served at a degradation level above 0.
    pub degraded: u64,
    /// Median latency in virtual ticks.
    pub p50_ticks: u64,
    /// 90th-percentile latency in virtual ticks.
    pub p90_ticks: u64,
    /// 99th-percentile latency in virtual ticks.
    pub p99_ticks: u64,
    /// Worst-case latency in virtual ticks.
    pub max_ticks: u64,
}

impl TenantSlo {
    /// Builds a summary from a tenant's raw latencies (sorted
    /// internally; the input order doesn't matter).
    pub fn from_latencies(name: &str, latencies: &[u64], degraded: u64) -> Self {
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        Self {
            name: name.to_string(),
            completed: sorted.len() as u64,
            degraded,
            p50_ticks: percentile(&sorted, 50),
            p90_ticks: percentile(&sorted, 90),
            p99_ticks: percentile(&sorted, 99),
            max_ticks: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// End-of-run report of one serving session.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped — structurally always 0: overload degrades θ
    /// instead of rejecting.
    pub dropped: u64,
    /// Virtual tick at which the last batch completed.
    pub drained_at_tick: u64,
    /// Batches dispatched (including guard-forced dense ones).
    pub batches: u64,
    /// Mean requests per dispatched batch, in thousandths (integer so
    /// the report stays byte-stable).
    pub mean_occupancy_milli: u64,
    /// High-water mark of the total queue depth.
    pub max_queue_depth: u64,
    /// Batches that ran at a degradation level above 0.
    pub degraded_batches: u64,
    /// Batches the guard forced bitwise-dense.
    pub dense_fallback_batches: u64,
    /// Guard trips across all replicas.
    pub guard_trips: u64,
    /// Per-tenant SLO summaries, in tenant order.
    pub tenants: Vec<TenantSlo>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50), 50);
        assert_eq!(percentile(&s, 90), 90);
        assert_eq!(percentile(&s, 99), 99);
        assert_eq!(percentile(&s, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 99), 0);
    }

    #[test]
    fn slo_from_unsorted_latencies() {
        let slo = TenantSlo::from_latencies("t", &[30, 10, 20, 40], 1);
        assert_eq!(slo.completed, 4);
        assert_eq!(slo.degraded, 1);
        assert_eq!(slo.p50_ticks, 20);
        assert_eq!(slo.max_ticks, 40);
    }

    #[test]
    fn empty_tenant_reports_zeros() {
        // zero-samples aggregation seam: no panic, all-zero summary
        let slo = TenantSlo::from_latencies("idle", &[], 0);
        assert_eq!(slo.completed, 0);
        assert_eq!(slo.p99_ticks, 0);
        assert_eq!(slo.max_ticks, 0);
    }
}
