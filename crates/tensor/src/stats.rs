//! Summary statistics used by the evaluation harness.

/// Basic running statistics over a scalar stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: usize,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance; 0 when empty.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.count as f64 - m * m).max(0.0)
    }

    /// Minimum observation; +∞ when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; −∞ when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// A fixed-width histogram over `[lo, hi)` with out-of-range clamping,
/// used to characterize pre-activation distributions (Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f32,
    hi: f32,
    bins: Vec<usize>,
    total: usize,
}

impl Histogram {
    /// Creates a histogram with `nbins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `nbins == 0` or `lo >= hi`.
    pub fn new(lo: f32, hi: f32, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            bins: vec![0; nbins],
            total: 0,
        }
    }

    /// Adds one observation; out-of-range values clamp into the end bins.
    pub fn push(&mut self, x: f32) {
        let n = self.bins.len();
        let t = ((x - self.lo) / (self.hi - self.lo) * n as f32).floor();
        let idx = (t.max(0.0) as usize).min(n - 1);
        self.bins[idx] += 1;
        self.total += 1;
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Total observation count.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Fraction of observations strictly below `x` (approximated by whole
    /// bins; `x` is rounded down to the containing bin edge).
    pub fn fraction_below(&self, x: f32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.bins.len();
        let t = ((x - self.lo) / (self.hi - self.lo) * n as f32).floor();
        let cutoff = (t.max(0.0) as usize).min(n);
        let below: usize = self.bins[..cutoff].iter().sum();
        below as f64 / self.total as f64
    }

    /// Bin centers, for plotting.
    pub fn centers(&self) -> Vec<f32> {
        let n = self.bins.len() as f32;
        let w = (self.hi - self.lo) / n;
        (0..self.bins.len())
            .map(|i| self.lo + w * (i as f32 + 0.5))
            .collect()
    }
}

/// Geometric mean of a slice of positive values (the paper's "average
/// speedup" convention for ratios). Returns 0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is non-positive.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean requires positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-9);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for &x in &[0.1, 0.3, 0.3, 0.9, -5.0, 5.0] {
            h.push(x);
        }
        assert_eq!(h.bins(), &[2, 2, 0, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_fraction_below() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f32 + 0.5);
        }
        assert!((h.fraction_below(5.0) - 0.5).abs() < 1e-9);
        assert_eq!(h.fraction_below(0.0), 0.0);
        assert_eq!(h.fraction_below(10.0), 1.0);
    }

    #[test]
    fn histogram_centers() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert_eq!(h.centers(), vec![0.25, 0.75]);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        let g = geometric_mean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        geometric_mean(&[1.0, 0.0]);
    }
}
