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
//! multiplications on the data path. At sampling time each entry becomes
//! an AND mask and an XOR mask on the input's bits, laid out block-major
//! `[⌈k/8⌉][d][8]`, so eight output rows run side by side, one
//! accumulator each, every row adding its inputs in ascending column
//! order. A zero entry masks its input to −0.0, which changes no sum, so
//! the blocked walk is bitwise a walk over the non-zero entries alone.

use duet_tensor::rng::Rng;
use duet_tensor::Tensor;

/// Output rows per block of the block-major tables: the projection's
/// masks here and the approximate module's GEMV weights
/// (`crate::approx`). A block's rows accumulate side by side.
pub(crate) const BLOCK_ROWS: usize = 8;

/// The `f32` sign bit.
const SIGN: u32 = 0x8000_0000;

/// A ternary random projection `R^d → R^k`.
#[derive(Debug, Clone, PartialEq)]
pub struct TernaryProjection {
    /// Entries in {-1, 0, +1}, row-major `[k, d]`.
    entries: Vec<i8>,
    /// Per entry, block-major `[⌈k/8⌉][d][8]`: the mask ANDed into the
    /// input's bits, all ones for a non-zero entry and 0 for a zero one
    /// (and for the padding rows past `k`).
    and_mask: Vec<[u32; BLOCK_ROWS]>,
    /// Same layout: the mask XORed in after the AND, the sign bit for −1
    /// and for 0, 0 for +1. A −1 entry adds the negated input (IEEE
    /// subtraction being addition of the negation); a zero entry adds
    /// −0.0, the identity of addition (`a + −0.0` is `a` for every `a`,
    /// ±0 included).
    xor_mask: Vec<[u32; BLOCK_ROWS]>,
    /// Non-zero entry count: the adder tree's additions.
    nonzero: usize,
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
        let blocks = k.div_ceil(BLOCK_ROWS);
        let mut and_mask = vec![[0; BLOCK_ROWS]; blocks * d];
        let mut xor_mask = vec![[SIGN; BLOCK_ROWS]; blocks * d];
        for (i, row) in entries.chunks_exact(d).enumerate() {
            let (block, r) = (i / BLOCK_ROWS * d, i % BLOCK_ROWS);
            for (j, &e) in row.iter().enumerate() {
                if e != 0 {
                    and_mask[block + j][r] = u32::MAX;
                    xor_mask[block + j][r] = if e < 0 { SIGN } else { 0 };
                }
            }
        }
        let nonzero = entries.iter().filter(|&&e| e != 0).count();
        Self {
            entries,
            and_mask,
            xor_mask,
            nonzero,
            k,
            d,
            scale: (3.0 / k as f32).sqrt(),
        }
    }

    /// Each eight-row block's `[d][8]` AND and XOR tables, in row order.
    fn blocks(&self) -> impl Iterator<Item = (&[[u32; BLOCK_ROWS]], &[[u32; BLOCK_ROWS]])> {
        let d = self.d;
        self.and_mask
            .chunks_exact(d)
            .zip(self.xor_mask.chunks_exact(d))
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
        self.nonzero as f64 / self.entries.len() as f64
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
    /// each block's eight rows add their masked inputs side by side, each
    /// from +0.0 in ascending column order, then apply the scale.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != d` or `out.len() != k`.
    pub(crate) fn project_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.d, "projection input length mismatch");
        assert_eq!(out.len(), self.k, "projection output length mismatch");
        for (out, (and, xor)) in out.chunks_mut(BLOCK_ROWS).zip(self.blocks()) {
            let mut acc = [0.0f32; BLOCK_ROWS];
            for ((&v, and), xor) in x.iter().zip(and).zip(xor) {
                let v = v.to_bits();
                for ((a, &m), &s) in acc.iter_mut().zip(and).zip(xor) {
                    *a += f32::from_bits((v & m) ^ s);
                }
            }
            for (o, a) in out.iter_mut().zip(acc) {
                *o = a * self.scale;
            }
        }
    }

    /// Projects every column of a `[d, cols]` matrix (the im2col patch
    /// matrix of a CONV layer): returns `[k, cols]`. Each output row adds
    /// or subtracts the matrix rows of its non-zero entries in ascending
    /// order, as [`TernaryProjection::project`] does per column; a block's
    /// eight rows share each matrix row while it is in cache.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not `[d, cols]`.
    pub fn project_columns(&self, m: &Tensor) -> Tensor {
        assert_eq!(m.shape().rank(), 2, "project_columns expects a matrix");
        assert_eq!(m.shape().dim(0), self.d, "row count must equal d");
        let cols = m.shape().dim(1);
        let mut out = Tensor::zeros(&[self.k, cols]);
        if cols == 0 {
            return out;
        }
        let md = m.data();
        let oblocks = out.data_mut().chunks_mut(BLOCK_ROWS * cols);
        for (oblock, (and, xor)) in oblocks.zip(self.blocks()) {
            for ((mrow, and), xor) in md.chunks_exact(cols).zip(and).zip(xor) {
                for ((orow, &a), &s) in oblock.chunks_exact_mut(cols).zip(and).zip(xor) {
                    if a == 0 {
                        continue;
                    }
                    if s == 0 {
                        for (o, &v) in orow.iter_mut().zip(mrow) {
                            *o += v;
                        }
                    } else {
                        for (o, &v) in orow.iter_mut().zip(mrow) {
                            *o -= v;
                        }
                    }
                }
            }
            for o in oblock.iter_mut() {
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
        self.nonzero
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
