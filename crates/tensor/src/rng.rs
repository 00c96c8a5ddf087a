//! Seeded random number generation, fully in-tree.
//!
//! Everything in the workspace that needs randomness (weight init, ternary
//! projection matrices, synthetic workloads) threads a seeded [`Rng`]
//! through so every experiment is reproducible bit-for-bit. The generator
//! is xoshiro256++ (Blackman & Vigna) seeded through SplitMix64 — no
//! external crates, so the workspace builds with no registry access.
//!
//! The sampling surface deliberately mirrors the `rand` crate's method
//! names (`random`, `random_range`, `random_bool`) so kernels and
//! workloads read idiomatically.

use crate::tensor::Tensor;

/// A seeded xoshiro256++ pseudo-random generator.
///
/// Streams are deterministic functions of the seed and are stable across
/// platforms and thread counts: parallel kernels never consume randomness,
/// and every sampling helper advances the state a fixed number of steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

impl Rng {
    /// Creates a generator whose state is expanded from `seed` with
    /// SplitMix64, the recommended seeding procedure for xoshiro.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// The next raw 32-bit output (upper half of [`next_u64`](Self::next_u64)).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Samples a value of a primitive type; `f32`/`f64` are uniform in
    /// `[0, 1)`, integers cover their full range, `bool` is a fair coin.
    pub fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from a half-open range, e.g. `0..n` or `0.0..1.0`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_in(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside [0, 1].
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.random::<f64>() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.random_range(0..i + 1);
            slice.swap(i, j);
        }
    }
}

/// Types samplable from the generator's "standard" distribution.
pub trait Standard {
    /// Draws one value.
    fn sample(rng: &mut Rng) -> Self;
}

impl Standard for f32 {
    fn sample(rng: &mut Rng) -> Self {
        // 24 high bits → uniform multiples of 2⁻²⁴ in [0, 1).
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    fn sample(rng: &mut Rng) -> Self {
        // 53 high bits → uniform multiples of 2⁻⁵³ in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u32 {
    fn sample(rng: &mut Rng) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample(rng: &mut Rng) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample(rng: &mut Rng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Half-open ranges samplable with [`Rng::random_range`].
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample_in(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_in(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "random_range needs a non-empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift bounded sampling (Lemire); the slight
                // non-uniformity without rejection is < 2⁻³² for the spans
                // used in this workspace.
                let hi = ((rng.next_u64() >> 32) * span) >> 32;
                self.start + hi as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i64);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_in(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "random_range needs a non-empty range");
                let u: $t = rng.random();
                let v = self.start + (self.end - self.start) * u;
                // Guard the pathological rounding case v == end.
                if v < self.end { v } else { <$t>::next_down(self.end) }
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// Fills a new tensor with uniform values in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform(rng: &mut Rng, dims: &[usize], lo: f32, hi: f32) -> Tensor {
    assert!(lo < hi, "uniform range must be non-empty");
    Tensor::from_fn(dims, |_| rng.random_range(lo..hi))
}

/// Samples one standard-normal value via the Box–Muller transform.
pub fn normal_sample(rng: &mut Rng) -> f32 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f32 = 1.0 - rng.random::<f32>();
    let u2: f32 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Fills a new tensor with N(mean, std²) samples.
///
/// # Panics
///
/// Panics if `std` is negative.
pub fn normal(rng: &mut Rng, dims: &[usize], mean: f32, std: f32) -> Tensor {
    assert!(std >= 0.0, "standard deviation must be non-negative");
    Tensor::from_fn(dims, |_| mean + std * normal_sample(rng))
}

/// Samples an index from an unnormalized non-negative weight slice.
///
/// # Panics
///
/// Panics if weights are empty, contain a negative value, or sum to zero.
pub fn weighted_index(rng: &mut Rng, weights: &[f32]) -> usize {
    assert!(!weights.is_empty(), "weighted_index needs weights");
    assert!(
        weights.iter().all(|&w| w >= 0.0),
        "weights must be non-negative"
    );
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let mut u = rng.random_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a = uniform(&mut seeded(7), &[32], -1.0, 1.0);
        let b = uniform(&mut seeded(7), &[32], -1.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform(&mut seeded(1), &[32], -1.0, 1.0);
        let b = uniform(&mut seeded(2), &[32], -1.0, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded(42);
        let t = normal(&mut rng, &[20000], 2.0, 3.0);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = seeded(3);
        let t = uniform(&mut rng, &[1000], -0.5, 0.5);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn integer_range_covers_and_stays_inside() {
        let mut rng = seeded(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.random_range(2usize..9);
            assert!((2..9).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = seeded(13);
        let heads = (0..10000).filter(|_| rng.random::<bool>()).count();
        assert!((4500..5500).contains(&heads), "{heads}");
        let p_heads = (0..10000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2200..2800).contains(&p_heads), "{p_heads}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = seeded(17);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should move something");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = seeded(9);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[weighted_index(&mut rng, &[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 2, "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_bad_range_panics() {
        uniform(&mut seeded(0), &[1], 1.0, 1.0);
    }
}
