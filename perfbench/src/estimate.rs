//! Estimators that turn raw per-request timings into steady figures.
//!
//! The host this benchmark was tuned on slows down in episodes that last
//! seconds (identical back-to-back processes differ by 1.4–1.7×), so a
//! pooled median over a whole run moves with whichever episodes the run
//! happened to catch. Two estimators stay steady under that noise:
//!
//! * [`quiet_pool`]: cut the run into blocks of consecutive requests,
//!   keep the fastest fiftieth of blocks by block median, and pool their
//!   samples. Latencies are read from that pool. A tenth needs two quiet
//!   seconds in a 20-second run, and while the host was busiest one such
//!   run in four had none; a fiftieth needs under half a second.
//! * [`paired_ratio_median`]: time the dual path and its dense twin on
//!   the same input back to back, alternating which goes first, and take
//!   the median of the per-pair ratios. An episode hits both halves of a
//!   pair, so the ratio mostly cancels it; it is read over the pairs of
//!   the quiet blocks, since a slow episode shifts it by up to a tenth.
//!
//! Throughput ([`quiet_throughput`]) ranks blocks by their wall time
//! instead, since a mean is moved by the stalls a median ignores.

/// The quiet pool keeps one block in this many, but at least enough
/// blocks to pool a given number of samples.
pub const QUIET_SHARE: usize = 50;
/// Fewest samples a latency is read from, so that a run of few long
/// requests (`serve`'s replays) is not read off a handful of them.
pub const MIN_POOL: usize = 20;
/// Fewest pairs `speedup_vs_dense` is read from. Per-pair ratios of
/// `serve`'s replays scatter by a tenth, and twenty of them moved the
/// median by 10% run to run; a hundred hold it to 2%.
pub const MIN_RATIO_PAIRS: usize = 100;

/// Samples from the quiet blocks of a run, with how many blocks the
/// estimator set aside.
#[derive(Debug, Clone, PartialEq)]
pub struct QuietPool {
    /// The pooled samples of the kept blocks, sorted ascending.
    pub samples: Vec<f64>,
    /// Indices of the kept blocks, in run order.
    pub kept: Vec<usize>,
    /// Samples per block.
    pub block_len: usize,
    /// Blocks in the run.
    pub blocks: usize,
    /// Blocks whose median exceeds the pooled median by more than 10%:
    /// the run's contended share, reported as a diagnostic.
    pub contended: usize,
}

impl QuietPool {
    /// Median of the pooled samples.
    pub fn median(&self) -> f64 {
        percentile(&self.samples, 50.0)
    }

    /// Share of blocks (in percent) that ran contended.
    pub fn contended_pct(&self) -> f64 {
        100.0 * self.contended as f64 / self.blocks.max(1) as f64
    }

    /// The samples of another series, recorded in step with this one,
    /// that fall in this pool's kept blocks, in run order.
    pub fn same_blocks(&self, series: &[f64]) -> Vec<f64> {
        let n = self.block_len;
        self.kept
            .iter()
            .flat_map(|&b| series[b * n..(b + 1) * n].iter().copied())
            .collect()
    }
}

/// Splits `samples` (in run order) into blocks of `block_len` consecutive
/// samples — a trailing partial block is dropped — and pools the fastest
/// [`QUIET_SHARE`]th of the blocks by block median, and at least
/// `min_samples` samples' worth of blocks (or every block of a short run).
///
/// # Panics
///
/// Panics if `block_len` is zero or `samples` holds fewer than one block.
pub fn quiet_pool(samples: &[f64], block_len: usize, min_samples: usize) -> QuietPool {
    assert!(block_len > 0, "block length must be positive");
    let blocks: Vec<&[f64]> = samples.chunks_exact(block_len).collect();
    assert!(!blocks.is_empty(), "need at least one full block");
    let medians: Vec<f64> = blocks.iter().map(|b| median_of(b)).collect();
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by(|&a, &b| medians[a].total_cmp(&medians[b]).then(a.cmp(&b)));
    let keep = (blocks.len() / QUIET_SHARE)
        .max(min_samples.div_ceil(block_len))
        .min(blocks.len());
    let mut kept = order[..keep].to_vec();
    kept.sort_unstable();
    let mut pooled: Vec<f64> = kept
        .iter()
        .flat_map(|&i| blocks[i].iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let quiet_median = percentile(&pooled, 50.0);
    let contended = medians.iter().filter(|&&m| m > 1.1 * quiet_median).count();
    QuietPool {
        samples: pooled,
        kept,
        block_len,
        blocks: blocks.len(),
        contended,
    }
}

/// Requests per second over the run's quiet stretches: the fastest
/// [`QUIET_SHARE`]th of the blocks by block wall time (at least
/// [`MIN_POOL`] samples' worth). Blocks are ranked by their sum rather
/// than their median, so a block that a single stall hit drops out
/// instead of dragging the mean.
///
/// # Panics
///
/// Panics if `block_len` is zero or `samples` holds fewer than one block.
pub fn quiet_throughput(samples: &[f64], block_len: usize) -> f64 {
    assert!(block_len > 0, "block length must be positive");
    let mut sums: Vec<f64> = samples
        .chunks_exact(block_len)
        .map(|b| b.iter().sum())
        .collect();
    assert!(!sums.is_empty(), "need at least one full block");
    sums.sort_by(f64::total_cmp);
    let keep = (sums.len() / QUIET_SHARE)
        .max(MIN_POOL.div_ceil(block_len))
        .min(sums.len());
    let ns: f64 = sums[..keep].iter().sum();
    1e9 * (keep * block_len) as f64 / ns
}

/// Nearest-rank percentile `p` (0–100) of ascending-sorted samples.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples, in exact
/// integer arithmetic on `p` rounded to a tenth of a percent.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Median of unsorted samples.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median_of(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// The highest of the standard tail percentiles (99.9, 99, 95, 90, 50)
/// that leaves at least ten samples beyond it, with its value. `None`
/// when even the median leaves fewer than ten samples above it.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(sorted.len(), p) >= 10)
        .map(|p| (p, percentile(sorted, p)))
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Median over interleaved pairs of `dense / dual`: pair `i` timed the
/// dual path and the dense twin on the same input back to back.
///
/// # Panics
///
/// Panics if the series differ in length or are empty.
pub fn paired_ratio_median(dual: &[f64], dense: &[f64]) -> f64 {
    assert_eq!(dual.len(), dense.len(), "pairs must line up");
    let ratios: Vec<f64> = dual.iter().zip(dense).map(|(&a, &b)| b / a).collect();
    median_of(&ratios)
}

/// Whether pair `i` runs the dual path first. Alternating the order keeps
/// cache warm-up and frequency ramps from favouring one side.
pub fn dual_first(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// Peak resident set size in MB (`VmHWM` of a `/proc/<pid>/status`
/// text), or `None` if the field is missing or malformed.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's peak resident set size in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_pool_keeps_the_fastest_fiftieth_of_blocks() {
        // 100 blocks of 20; blocks 3 and 77 are the quiet ones.
        let mut samples = Vec::new();
        for b in 0..100 {
            let base = if b == 3 || b == 77 {
                10.0
            } else {
                20.0 + b as f64
            };
            samples.extend((0..20).map(|i| base + i as f64 * 0.25));
        }
        let pool = quiet_pool(&samples, 20, MIN_POOL);
        assert_eq!(pool.blocks, 100);
        assert_eq!(pool.kept, vec![3, 77]);
        assert_eq!(pool.samples.len(), 40);
        assert!(pool.samples.iter().all(|&s| s < 15.0));
        assert_eq!(pool.median(), 12.25);
        assert_eq!(pool.contended, 98);
        assert_eq!(pool.contended_pct(), 98.0);
        let index: Vec<f64> = (0..2000).map(f64::from).collect();
        let same = pool.same_blocks(&index);
        assert_eq!(same.len(), 40);
        assert_eq!((same[0], same[19]), (60.0, 79.0));
        assert_eq!((same[20], same[39]), (1540.0, 1559.0));
    }

    #[test]
    fn quiet_pool_keeps_at_least_the_minimum_samples() {
        // Single-sample blocks: a fiftieth of 200 would be four samples.
        let samples: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let pool = quiet_pool(&samples, 1, MIN_POOL);
        assert_eq!(pool.samples.len(), MIN_POOL);
        assert_eq!(pool.samples[MIN_POOL - 1], (MIN_POOL - 1) as f64);
        assert_eq!(pool.kept, (180..200).collect::<Vec<_>>());
        let wide = quiet_pool(&samples, 2, MIN_RATIO_PAIRS);
        assert_eq!(wide.kept.len(), MIN_RATIO_PAIRS / 2);
        assert_eq!(wide.samples.len(), MIN_RATIO_PAIRS);
    }

    #[test]
    fn quiet_pool_drops_the_partial_block_and_keeps_a_short_run_whole() {
        let samples = [5.0, 4.0, 3.0, 9.0, 9.0, 9.0, 1.0];
        let pool = quiet_pool(&samples, 3, MIN_POOL);
        assert_eq!(pool.blocks, 2);
        assert_eq!(pool.samples, vec![3.0, 4.0, 5.0, 9.0, 9.0, 9.0]);
        assert_eq!(pool.contended, 1);
    }

    #[test]
    fn quiet_pool_ignores_a_slow_episode() {
        // A steady run and the same run with a 1.6x episode over half of
        // it agree on the quiet median.
        let steady: Vec<f64> = (0..1000).map(|i| 100.0 + (i % 7) as f64).collect();
        let mut episodic = steady.clone();
        for s in &mut episodic[200..700] {
            *s *= 1.6;
        }
        assert_eq!(
            quiet_pool(&steady, 50, MIN_POOL).median(),
            quiet_pool(&episodic, 50, MIN_POOL).median()
        );
    }

    #[test]
    fn quiet_throughput_skips_blocks_a_stall_hit() {
        // 100 blocks of 20 requests at 1 µs each; the block with the
        // lowest median (block 5) also holds one 1 ms stall.
        let mut samples = vec![1_000.0; 2000];
        for s in &mut samples[100..120] {
            *s = 900.0;
        }
        samples[110] = 1e6;
        // Two blocks kept: the fastest spike-free ones run at 1 µs, while
        // ranking by median would have kept the stalled block.
        assert_eq!(quiet_throughput(&samples, 20), 1e6);
        assert_eq!(quiet_pool(&samples, 20, MIN_POOL).kept, vec![0, 5]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let sorted = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(&sorted(10_000)), Some((99.9, 9989.0)));
        assert_eq!(tail_percentile(&sorted(1000)), Some((99.0, 989.0)));
        assert_eq!(tail_percentile(&sorted(999)).map(|t| t.0), Some(95.0));
        assert_eq!(tail_percentile(&sorted(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail_percentile(&sorted(20)).map(|t| t.0), Some(50.0));
        assert_eq!(tail_percentile(&sorted(19)), None);
    }

    #[test]
    fn paired_ratio_cancels_episodes_that_hit_both_sides() {
        // dense takes half the dual time; an episode slows a run of pairs
        // by 1.7x on both sides.
        let mut dual = Vec::new();
        let mut dense = Vec::new();
        for i in 0..101 {
            let slow = if (30..80).contains(&i) { 1.7 } else { 1.0 };
            dual.push(10.0 * slow);
            dense.push(5.0 * slow);
        }
        assert_eq!(paired_ratio_median(&dual, &dense), 0.5);
    }

    #[test]
    fn paired_ratio_takes_the_median_not_the_mean() {
        let dual = [1.0, 1.0, 1.0, 1.0, 1.0];
        let dense = [2.0, 2.0, 2.0, 100.0, 0.01];
        assert_eq!(paired_ratio_median(&dual, &dense), 2.0);
    }

    #[test]
    fn pair_order_alternates() {
        let firsts: Vec<bool> = (0..4).map(dual_first).collect();
        assert_eq!(firsts, vec![true, false, true, false]);
        let dual_first_count = (0..1001).filter(|&i| dual_first(i)).count();
        assert_eq!(dual_first_count, 501);
    }

    #[test]
    fn peak_rss_parses_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t2048 MB\n"), None);
        let own = peak_rss_mb().expect("this process has a VmHWM line");
        assert!(own > 0.0);
    }
}
