//! Ternary random projection (§II-A).
//!
//! The projection matrix `P ∈ R^{k×d}` has entries drawn from the
//! Achlioptas sparse distribution: each entry is `+s` with probability 1/6,
//! `−s` with probability 1/6, and `0` with probability 2/3, where
//! `s = sqrt(3/k)`. With that scale, `E[‖Px‖²] = ‖x‖²`, so inner products
//! survive the dimension reduction — exactly why the distilled approximate
//! module can track the teacher.
//!
//! Because the entries are ternary, the product `Px` needs only sign flips
//! and additions — the paper's Alignment Units + Adder Trees (§III-B
//! step 2). [`TernaryProjection::project`] mirrors that: no
//! multiplications on the data path. Each row's non-zero entries are
//! listed once, at sampling time, as taps in ascending column order, so a
//! projection visits only the ~d/3 inputs a row actually adds.

use duet_tensor::rng::Rng;
use duet_tensor::Tensor;

/// One non-zero entry of a projection row: the input column it reads and
/// the `f32` sign bit it applies (0 for +1, [`NEGATE`] for −1). Flipping
/// the sign bit and adding is bitwise `acc - v`, IEEE subtraction being
/// addition of the negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tap {
    col: u32,
    sign: u32,
}

/// The `f32` sign bit.
const NEGATE: u32 = 0x8000_0000;

/// A ternary random projection `R^d → R^k`.
#[derive(Debug, Clone, PartialEq)]
pub struct TernaryProjection {
    /// Entries in {-1, 0, +1}, row-major `[k, d]`.
    entries: Vec<i8>,
    /// The non-zero entries, row by row in ascending column order; row
    /// `i`'s taps are `taps[row_start[i]..row_start[i + 1]]`.
    taps: Vec<Tap>,
    row_start: Vec<usize>,
    k: usize,
    d: usize,
    scale: f32,
}

impl TernaryProjection {
    /// Samples a projection from the Achlioptas distribution.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `d == 0`, or `k > d` (a "dimension reduction"
    /// that increases dimension is almost certainly a bug).
    pub fn sample(d: usize, k: usize, rng: &mut Rng) -> Self {
        assert!(k > 0 && d > 0, "projection dims must be positive");
        assert!(
            k <= d,
            "reduced dim k = {k} must not exceed input dim d = {d}"
        );
        let entries: Vec<i8> = (0..k * d)
            .map(|_| {
                let u: f32 = rng.random();
                if u < 1.0 / 6.0 {
                    1i8
                } else if u < 2.0 / 6.0 {
                    -1i8
                } else {
                    0i8
                }
            })
            .collect();
        let mut taps = Vec::new();
        let mut row_start = Vec::with_capacity(k + 1);
        for row in entries.chunks_exact(d) {
            row_start.push(taps.len());
            for (j, &e) in row.iter().enumerate() {
                if e != 0 {
                    let col = u32::try_from(j).expect("input dim fits u32");
                    let sign = if e < 0 { NEGATE } else { 0 };
                    taps.push(Tap { col, sign });
                }
            }
        }
        row_start.push(taps.len());
        Self {
            entries,
            taps,
            row_start,
            k,
            d,
            scale: (3.0 / k as f32).sqrt(),
        }
    }

    /// Row `i`'s taps.
    fn row_taps(&self, i: usize) -> &[Tap] {
        &self.taps[self.row_start[i]..self.row_start[i + 1]]
    }

    /// Input dimension `d`.
    pub fn input_dim(&self) -> usize {
        self.d
    }

    /// Reduced dimension `k`.
    pub fn reduced_dim(&self) -> usize {
        self.k
    }

    /// The common scale `sqrt(3/k)` applied after the integer adder tree.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The ternary entries, row-major `[k, d]`.
    pub fn entries(&self) -> &[i8] {
        &self.entries
    }

    /// Fraction of non-zero entries (expected ≈ 1/3).
    pub fn density(&self) -> f64 {
        self.taps.len() as f64 / self.entries.len() as f64
    }

    /// Projects a vector: `x' = P x`, computed with additions and
    /// subtractions only, then one scalar scale.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != d`.
    pub fn project(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.k]);
        self.project_into(x.data(), out.data_mut());
        out
    }

    /// [`TernaryProjection::project`] into a caller-owned `[k]` slice:
    /// each row sums its taps' sign-flipped inputs in ascending column
    /// order, then applies the scale.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != d` or `out.len() != k`.
    pub(crate) fn project_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.d, "projection input length mismatch");
        assert_eq!(out.len(), self.k, "projection output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for t in self.row_taps(i) {
                acc += f32::from_bits(x[t.col as usize].to_bits() ^ t.sign);
            }
            *o = acc * self.scale;
        }
    }

    /// Projects every column of a `[d, cols]` matrix (the im2col patch
    /// matrix of a CONV layer): returns `[k, cols]`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not `[d, cols]`.
    pub fn project_columns(&self, m: &Tensor) -> Tensor {
        assert_eq!(m.shape().rank(), 2, "project_columns expects a matrix");
        assert_eq!(m.shape().dim(0), self.d, "row count must equal d");
        let cols = m.shape().dim(1);
        let md = m.data();
        let mut out = Tensor::zeros(&[self.k, cols]);
        let od = out.data_mut();
        for i in 0..self.k {
            let orow = &mut od[i * cols..(i + 1) * cols];
            for t in self.row_taps(i) {
                let j = t.col as usize;
                let mrow = &md[j * cols..(j + 1) * cols];
                if t.sign == 0 {
                    for (o, &v) in orow.iter_mut().zip(mrow) {
                        *o += v;
                    }
                } else {
                    for (o, &v) in orow.iter_mut().zip(mrow) {
                        *o -= v;
                    }
                }
            }
            for o in orow.iter_mut() {
                *o *= self.scale;
            }
        }
        out
    }

    /// The projection as a dense `f32` matrix `[k, d]` (for testing and
    /// for the least-squares distillation, which needs `P` explicitly).
    pub fn to_dense(&self) -> Tensor {
        Tensor::from_vec(
            self.entries
                .iter()
                .map(|&e| e as f32 * self.scale)
                .collect(),
            &[self.k, self.d],
        )
    }

    /// Number of add/sub operations one projection costs (non-zero entry
    /// count) — the quantity the Speculator's adder tree actually performs.
    pub fn additions_per_projection(&self) -> usize {
        self.taps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::ops;
    use duet_tensor::rng::{self, seeded};

    #[test]
    fn density_near_one_third() {
        let p = TernaryProjection::sample(300, 100, &mut seeded(1));
        let d = p.density();
        assert!((d - 1.0 / 3.0).abs() < 0.02, "density {d}");
    }

    #[test]
    fn project_matches_dense_matmul() {
        let mut r = seeded(2);
        let p = TernaryProjection::sample(40, 10, &mut r);
        let x = rng::normal(&mut r, &[40], 0.0, 1.0);
        let fast = p.project(&x);
        let dense = ops::gemv(&p.to_dense(), &x);
        for (a, b) in fast.data().iter().zip(dense.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn project_columns_matches_per_column() {
        let mut r = seeded(3);
        let p = TernaryProjection::sample(12, 5, &mut r);
        let m = rng::normal(&mut r, &[12, 7], 0.0, 1.0);
        let fast = p.project_columns(&m);
        for c in 0..7 {
            let col = Tensor::from_vec((0..12).map(|j| m.at(&[j, c])).collect(), &[12]);
            let pc = p.project(&col);
            for i in 0..5 {
                assert!((fast.at(&[i, c]) - pc.data()[i]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn norm_preserved_in_expectation() {
        // Johnson–Lindenstrauss-ish sanity: averaged over many projections,
        // ‖Px‖² ≈ ‖x‖².
        let mut r = seeded(4);
        let x = rng::normal(&mut r, &[64], 0.0, 1.0);
        let norm = x.norm_sq();
        let mut acc = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let p = TernaryProjection::sample(64, 16, &mut r);
            acc += p.project(&x).norm_sq();
        }
        let mean = acc / trials as f32;
        assert!(
            (mean - norm).abs() < norm * 0.1,
            "mean ‖Px‖² = {mean}, ‖x‖² = {norm}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TernaryProjection::sample(20, 5, &mut seeded(9));
        let b = TernaryProjection::sample(20, 5, &mut seeded(9));
        assert_eq!(a, b);
    }

    #[test]
    fn additions_equal_nonzeros() {
        let p = TernaryProjection::sample(50, 10, &mut seeded(5));
        assert_eq!(
            p.additions_per_projection(),
            p.entries().iter().filter(|&&e| e != 0).count()
        );
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn expanding_projection_panics() {
        TernaryProjection::sample(4, 8, &mut seeded(0));
    }
}
