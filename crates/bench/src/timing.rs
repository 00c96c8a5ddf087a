//! Minimal wall-clock timing harness behind the `kernel_bench` and
//! `sparse_bench` exhibits.
//!
//! The harness auto-calibrates the iteration count so each measurement
//! batch runs for roughly [`TARGET_BATCH`], takes several batches, and
//! reports the median/mean/min per-iteration time. Use
//! [`std::hint::black_box`] around inputs and results to keep the
//! optimizer honest.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock duration of one measurement batch.
pub const TARGET_BATCH: Duration = Duration::from_millis(25);

/// Number of measured batches per benchmark.
pub const BATCHES: usize = 9;

/// One benchmark's aggregated timing result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Iterations per measured batch.
    pub iters_per_batch: u64,
    /// Median per-iteration time in nanoseconds (the headline number).
    pub median_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Fastest per-iteration time in nanoseconds.
    pub min_ns: f64,
}

impl Measurement {
    /// Throughput in GFLOP/s given the number of floating-point operations
    /// one iteration performs (based on the median time).
    pub fn gflops(&self, flops_per_iter: u64) -> f64 {
        flops_per_iter as f64 / self.median_ns
    }

    /// Median per-iteration time in seconds.
    pub fn seconds(&self) -> f64 {
        self.median_ns * 1e-9
    }

    /// A compact human-readable report line.
    pub fn report(&self) -> String {
        format!(
            "{:<40} {:>12.1} ns/iter (min {:>12.1})",
            self.name, self.median_ns, self.min_ns
        )
    }
}

/// Times `f`, returning per-iteration statistics.
///
/// Calibration runs `f` with doubling iteration counts until one batch
/// takes at least [`TARGET_BATCH`]; that count is then used for
/// [`BATCHES`] measured batches (one extra untimed warm-up batch first).
pub fn bench<R, F: FnMut() -> R>(name: &str, mut f: F) -> Measurement {
    // Calibrate the per-batch iteration count.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= TARGET_BATCH || iters >= 1 << 30 {
            break;
        }
        // Jump close to the target once we have a usable estimate.
        iters = if elapsed < TARGET_BATCH / 20 {
            iters * 8
        } else {
            let per_iter = elapsed.as_secs_f64() / iters as f64;
            ((TARGET_BATCH.as_secs_f64() / per_iter).ceil() as u64).max(iters + 1)
        };
    }

    // Warm-up batch, then measured batches.
    for _ in 0..iters {
        black_box(f());
    }
    let mut per_iter_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    Measurement {
        name: name.to_string(),
        iters_per_batch: iters,
        median_ns: per_iter_ns[per_iter_ns.len() / 2],
        mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
        min_ns: per_iter_ns[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let m = bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.iters_per_batch >= 1);
    }

    #[test]
    fn gflops_conversion() {
        let m = Measurement {
            name: "x".into(),
            iters_per_batch: 1,
            median_ns: 1000.0, // 1 µs
            mean_ns: 1000.0,
            min_ns: 900.0,
        };
        // 2000 flops in 1 µs = 2 GFLOP/s
        assert!((m.gflops(2000) - 2.0).abs() < 1e-12);
    }
}
