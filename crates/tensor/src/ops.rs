//! Linear-algebra kernels: GEMM, GEMV, element-wise helpers.
//!
//! These are the "accurate module" kernels — a feed-forward layer in the
//! paper is `y = Wx + b` computed by [`gemv`]; CONV layers lower to
//! [`matmul`] through [`crate::im2col`].
//!
//! # Kernel architecture
//!
//! [`matmul`] is a row-striped, cache-blocked GEMM parallelized over row
//! ranges of the output via [`crate::parallel`]:
//!
//! * each worker owns a contiguous row range of C and processes it in
//!   stripes of [`MR`] rows: every B row loaded from L2/L3 is reused
//!   against `MR` A elements while it is hot in L1, cutting B traffic
//!   `MR`-fold versus the naive i-k-j loop (the naive kernel re-streams
//!   all of B for every single output row, which makes it bandwidth-bound
//!   for large matrices),
//! * wide outputs are additionally blocked into [`NC`]-column panels so a
//!   stripe's C rows stay L1-resident across the `k` sweep,
//! * the inner loop is a full-width contiguous `c[j] += a·b[j]` update —
//!   the same shape the naive kernel auto-vectorizes well — and each
//!   `c[i][j]` accumulates over `k` in the same fixed order for every
//!   stripe/panel/thread configuration, so results are bitwise identical
//!   to [`matmul_naive`] and across thread counts,
//! * the zero-skip fast path of the naive kernel is preserved per A
//!   element (`a[i,k] == 0` contributes nothing and is skipped), which is
//!   what makes switching-map-masked Executor rows and ReLU-sparse
//!   activations cheap,
//! * tiny products fall back to [`matmul_naive`], and parallelism only
//!   engages above [`PAR_MIN_FLOPS`] work.
//!
//! An earlier iteration of this kernel packed B into zero-padded 8-column
//! panels with an explicit 4×8 register tile; on wide cores it measured
//! *slower* than the naive loop because the narrow inner loop could not
//! keep the vector units fed. The stripe design above keeps the naive
//! kernel's proven inner loop and attacks only its memory traffic.
//!
//! # One set of bits
//!
//! Each kernel has one accumulation order at every thread count: the
//! [`gemv`], [`affine`] and [`dot`] row dots fold from −0.0 in ascending
//! index, as `f32`'s `Sum` does ([`affine`] adds the bias last);
//! [`gemv_t`] folds each output `y[j]` from −0.0 over ascending rows `i`
//! with no zero skip, so it is bitwise `gemv(&w.transposed(), v)`; and
//! [`matmul`] accumulates each output over `k` from +0.0 in the order of
//! [`matmul_naive`]. Rust never contracts `a * b + c` into a fused
//! multiply-add, so the order fixes the bits on every target. Every
//! committed `results/` artifact, checksum and pin comes from this one
//! arithmetic, and so does every dense twin a dual path is compared with.
//!
//! [`matmul_naive`] is the original three-loop kernel, kept as the
//! reference implementation the blocked/parallel paths are tested against
//! (they must agree bit for bit).

use crate::parallel;
use crate::tensor::Tensor;

/// Rows per stripe of the blocked GEMM kernel: how many A rows share one
/// pass over B.
pub const MR: usize = 8;

/// Column-block width: a stripe's `MR` C-row segments (`MR · NC · 4`
/// bytes) stay L1-resident across the full `k` sweep.
pub const NC: usize = 1024;

/// Minimum `m·k·n` multiply count before the striped kernel takes over
/// from [`matmul_naive`]; below this the blocking bookkeeping costs more
/// than it saves.
pub const BLOCKED_MIN_FLOPS: usize = 32 * 32 * 32;

/// Minimum multiply count (`m·k·n` for GEMM, `n·d` for GEMV) before a
/// kernel fans out over threads; below this it runs serially regardless of
/// [`parallel::num_threads`].
pub const PAR_MIN_FLOPS: usize = 64 * 64 * 64;

fn assert_matmul_shapes(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(
        k,
        k2,
        "matmul inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    (m, k, n)
}

/// Matrix multiplication `C = A · B` for 2-D tensors.
///
/// Row-striped, cache-blocked, and parallelized over output rows (see the
/// module docs); thread count comes from [`parallel::num_threads`]. Bitwise
/// equal to [`matmul_naive`] at every thread count.
///
/// # Panics
///
/// Panics if the tensors are not 2-D or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use duet_tensor::{Tensor, ops::matmul};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]);
/// assert_eq!(matmul(&a, &b).data(), &[2.0, 1.0, 4.0, 3.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_with_threads(a, b, parallel::num_threads())
}

/// [`matmul`] with an explicit thread-count cap (1 forces serial).
///
/// # Panics
///
/// Panics if the tensors are not 2-D or the inner dimensions disagree.
pub fn matmul_with_threads(a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
    let (m, k, n) = assert_matmul_shapes(a, b);
    let flops = m * k * n;
    duet_obs::counter!("tensor.gemm.calls").inc();
    duet_obs::counter!("tensor.gemm.flops").add(2 * flops as u64);
    if flops < BLOCKED_MIN_FLOPS {
        duet_obs::counter!("tensor.gemm.serial_fallback").inc();
        return matmul_naive(a, b);
    }
    let threads = if flops >= PAR_MIN_FLOPS {
        threads.clamp(1, m)
    } else {
        1
    };
    duet_obs::gauge!("tensor.gemm.max_threads").set_max(threads as i64);

    let _call = duet_obs::span("tensor.gemm");
    let mut c = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    parallel::for_each_row_chunk(c.data_mut(), m, n, threads, |rows, chunk| {
        // One stripe span per worker chunk: the histogram of these
        // durations exposes load imbalance (max vs. p50), and in a trace
        // the stripes render as parallel slices on per-thread tracks.
        let _stripe = duet_obs::span("tensor.gemm.stripe");
        gemm_rows(ad, bd, chunk, rows.start, rows.len(), k, n);
    });
    c
}

/// The original three-loop i-k-j kernel with the per-element zero-skip
/// fast path, kept as the testing reference for the blocked/parallel
/// kernels (and used by them for small products).
///
/// # Panics
///
/// Panics if the tensors are not 2-D or the inner dimensions disagree.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = assert_matmul_shapes(a, b);
    let mut c = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let cd = c.data_mut();
    for i in 0..m {
        for kk in 0..k {
            let aik = ad[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &bd[kk * n..(kk + 1) * n];
            let crow = &mut cd[i * n..(i + 1) * n];
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
    c
}

/// Computes `rows_len` C rows starting at global row `row0` into `chunk`
/// (the disjoint `[rows_len × n]` window of C owned by this worker).
///
/// Rows are processed in stripes of [`MR`] and columns in blocks of
/// [`NC`]; within one (stripe, block) pair the `k` sweep reuses each B row
/// segment [`MR`] times from L1 while the stripe's C segments also stay
/// L1-resident. The inner update skips zero A elements exactly like
/// [`matmul_naive`] and accumulates in the same order, so the result is
/// bitwise identical to the naive reference.
fn gemm_rows(
    ad: &[f32],
    bd: &[f32],
    chunk: &mut [f32],
    row0: usize,
    rows_len: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i < rows_len {
        let mr = MR.min(rows_len - i);
        let arows = &ad[(row0 + i) * k..(row0 + i + mr) * k];
        let crows = &mut chunk[i * n..(i + mr) * n];
        let mut j0 = 0;
        while j0 < n {
            let w = NC.min(n - j0);
            for kk in 0..k {
                let brow = &bd[kk * n + j0..kk * n + j0 + w];
                for r in 0..mr {
                    let av = arows[r * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    let crow = &mut crows[r * n + j0..r * n + j0 + w];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
            j0 += w;
        }
        i += mr;
    }
}

/// Matrix–vector product `y = W · x`, parallelized over output rows above
/// [`PAR_MIN_FLOPS`] work (each row is an independent dot product, so the
/// result is bitwise identical for every thread count).
///
/// # Panics
///
/// Panics if `w` is not 2-D, `x` is not 1-D, or dimensions disagree.
pub fn gemv(w: &Tensor, x: &Tensor) -> Tensor {
    gemv_with_threads(w, x, parallel::num_threads())
}

/// [`gemv`] with an explicit thread-count cap (1 forces serial).
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn gemv_with_threads(w: &Tensor, x: &Tensor, threads: usize) -> Tensor {
    assert_eq!(x.shape().rank(), 1, "gemv vector must be 1-D");
    let mut y = Tensor::zeros(&[w.shape().dim(0)]);
    gemv_rows(w, x.data(), y.data_mut(), threads);
    y
}

fn gemv_rows(w: &Tensor, xd: &[f32], y: &mut [f32], threads: usize) {
    assert_eq!(w.shape().rank(), 2, "gemv matrix must be 2-D");
    let (n, d) = (w.shape().dim(0), w.shape().dim(1));
    assert_eq!(
        d,
        xd.len(),
        "gemv dimension mismatch: {} vs [{}]",
        w.shape(),
        xd.len()
    );
    assert_eq!(n, y.len(), "gemv output length mismatch");
    let threads = if n * d >= PAR_MIN_FLOPS {
        threads.clamp(1, n)
    } else {
        1
    };
    duet_obs::counter!("tensor.gemv.calls").inc();
    duet_obs::counter!("tensor.gemv.flops").add(2 * (n * d) as u64);
    if threads == 1 {
        duet_obs::counter!("tensor.gemv.serial_fallback").inc();
    }
    let wd = w.data();
    parallel::for_each_row_chunk(y, n, 1, threads, |rows, chunk| {
        for (local, i) in rows.enumerate() {
            chunk[local] = dot_slices(&wd[i * d..(i + 1) * d], xd);
        }
    });
}

#[inline]
fn dot_slices(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Transposed matrix–vector product `y = Wᵀ · v` for `w` of shape
/// `[n, d]` and `v` of length `n`: `y[j] = Σ_i w[i, j]·v[i]`.
///
/// Bitwise `gemv(&w.transposed(), v)` at every thread count, without the
/// transposed copy: each `y[j]` folds from −0.0 over ascending `i` with no
/// zero skip (`0·∞` stays NaN), as row axpys that vectorize across `j`.
/// Above [`PAR_MIN_FLOPS`] work the outputs are striped over threads.
///
/// # Panics
///
/// Panics if `w` is not 2-D, `v` is not 1-D, or dimensions disagree.
pub fn gemv_t(w: &Tensor, v: &Tensor) -> Tensor {
    gemv_t_with_threads(w, v, parallel::num_threads())
}

/// [`gemv_t`] with an explicit thread-count cap (1 forces serial).
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn gemv_t_with_threads(w: &Tensor, v: &Tensor, threads: usize) -> Tensor {
    assert_eq!(v.shape().rank(), 1, "gemv_t vector must be 1-D");
    assert_eq!(w.shape().rank(), 2, "gemv_t matrix must be 2-D");
    let mut y = Tensor::zeros(&[w.shape().dim(1)]);
    gemv_t_cols(w, v.data(), y.data_mut(), threads);
    y
}

/// [`gemv_t`] into a caller's slice: overwrites `out[j]` with
/// `Σ_i w[i, j]·v[i]`, the same bits.
///
/// # Panics
///
/// Panics if `w` is not 2-D or `v`/`out` do not match its rows/columns.
pub fn gemv_t_into(w: &Tensor, v: &[f32], out: &mut [f32]) {
    gemv_t_cols(w, v, out, parallel::num_threads());
}

fn gemv_t_cols(w: &Tensor, vd: &[f32], y: &mut [f32], threads: usize) {
    assert_eq!(w.shape().rank(), 2, "gemv_t matrix must be 2-D");
    let (n, d) = (w.shape().dim(0), w.shape().dim(1));
    assert_eq!(
        n,
        vd.len(),
        "gemv_t dimension mismatch: {} vs [{}]",
        w.shape(),
        vd.len()
    );
    assert_eq!(d, y.len(), "gemv_t output length mismatch");
    let threads = if n * d >= PAR_MIN_FLOPS {
        threads.clamp(1, d)
    } else {
        1
    };
    duet_obs::counter!("tensor.gemv_t.calls").inc();
    duet_obs::counter!("tensor.gemv_t.flops").add(2 * (n * d) as u64);
    let wd = w.data();
    parallel::for_each_row_chunk(y, d, 1, threads, |cols, chunk| {
        chunk.fill(-0.0);
        for (i, &vi) in vd.iter().enumerate() {
            let wrow = &wd[i * d + cols.start..i * d + cols.end];
            for (yv, &wv) in chunk.iter_mut().zip(wrow) {
                *yv += wv * vi;
            }
        }
    });
}

/// Affine transform `y = W · x + b`, the accurate module of an FF layer.
/// The bias add is fused into the row loop and parallelized like [`gemv`].
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn affine(w: &Tensor, x: &Tensor, b: &Tensor) -> Tensor {
    affine_with_threads(w, x, b, parallel::num_threads())
}

/// [`affine`] with an explicit thread-count cap (1 forces serial).
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn affine_with_threads(w: &Tensor, x: &Tensor, b: &Tensor, threads: usize) -> Tensor {
    assert_eq!(w.shape().rank(), 2, "affine matrix must be 2-D");
    assert_eq!(x.shape().rank(), 1, "affine vector must be 1-D");
    let mut y = Tensor::zeros(&[w.shape().dim(0)]);
    affine_rows(w, x.data(), b.data(), y.data_mut(), threads);
    y
}

/// [`affine`] into a caller's slice: overwrites `out` with `W · x + b`
/// through the same row loop, so with the same bits and counters.
///
/// # Panics
///
/// Panics if `w` is not 2-D or `x`/`b`/`out` do not match its shape.
pub fn affine_into(w: &Tensor, x: &[f32], b: &[f32], out: &mut [f32]) {
    affine_rows(w, x, b, out, parallel::num_threads());
}

fn affine_rows(w: &Tensor, xd: &[f32], bd: &[f32], y: &mut [f32], threads: usize) {
    assert_eq!(w.shape().rank(), 2, "affine matrix must be 2-D");
    let (n, d) = (w.shape().dim(0), w.shape().dim(1));
    assert_eq!(
        d,
        xd.len(),
        "affine dimension mismatch: {} vs [{}]",
        w.shape(),
        xd.len()
    );
    assert_eq!(
        n,
        bd.len(),
        "bias length {} does not match output length {}",
        bd.len(),
        n
    );
    assert_eq!(n, y.len(), "affine output length mismatch");
    let threads = if n * d >= PAR_MIN_FLOPS {
        threads.clamp(1, n)
    } else {
        1
    };
    duet_obs::counter!("tensor.affine.calls").inc();
    duet_obs::counter!("tensor.affine.flops").add((2 * n * d + n) as u64);
    let wd = w.data();
    parallel::for_each_row_chunk(y, n, 1, threads, |rows, chunk| {
        for (local, i) in rows.enumerate() {
            chunk[local] = dot_slices(&wd[i * d..(i + 1) * d], xd) + bd[i];
        }
    });
}

/// Element-wise addition.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip_map(b, |x, y| x + y)
}

/// Element-wise subtraction `a - b`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip_map(b, |x, y| x - y)
}

/// Element-wise (Hadamard) product — the `⊙` of Eq. (2).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn hadamard(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip_map(b, |x, y| x * y)
}

/// Scales a tensor by a constant.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// `y += alpha * x`, in place.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yv, xv) in y.data_mut().iter_mut().zip(x.data()) {
        *yv += alpha * xv;
    }
}

/// Dot product of two 1-D tensors.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    dot_slices(a.data(), b.data())
}

/// Mean squared error between two tensors of the same shape.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse(a: &Tensor, b: &Tensor) -> f32 {
    sub(a, b).norm_sq() / a.len() as f32
}

/// Argmax over a 1-D tensor; ties resolve to the lowest index.
///
/// # Panics
///
/// Panics if the tensor is empty.
pub fn argmax(a: &Tensor) -> usize {
    assert!(!a.is_empty(), "argmax of empty tensor");
    let mut best = 0;
    let mut best_v = a.data()[0];
    for (i, &v) in a.data().iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d)
    }

    #[test]
    fn matmul_identity() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let c = matmul(&a, &Tensor::eye(3));
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = t(vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[2, 4]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape().dims(), &[3, 4]);
        assert_eq!(&c.data()[0..4], &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(&c.data()[8..12], &[8.0, 10.0, 12.0, 14.0]);
    }

    fn assert_bitwise(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_above_threshold() {
        let mut r = rng::seeded(100);
        for (m, k, n) in [(33, 40, 37), (64, 64, 64), (61, 128, 5), (4, 100, 90)] {
            let a = rng::normal(&mut r, &[m, k], 0.0, 1.0);
            let b = rng::normal(&mut r, &[k, n], 0.0, 1.0);
            assert_bitwise(&matmul(&a, &b), &matmul_naive(&a, &b));
        }
    }

    #[test]
    fn blocked_preserves_zero_skip_semantics() {
        // A sparse A (masked Executor rows + ReLU-sparse activations) must
        // produce the same result through the skip path as densely.
        let mut r = rng::seeded(101);
        let mut a = rng::normal(&mut r, &[40, 48], 0.0, 1.0);
        for v in a.data_mut().iter_mut() {
            if *v < 0.6 {
                *v = 0.0; // ~70% zeros, plus whole rows below
            }
        }
        for j in 0..48 {
            a.data_mut()[5 * 48 + j] = 0.0;
            a.data_mut()[17 * 48 + j] = 0.0;
        }
        let b = rng::normal(&mut r, &[48, 36], 0.0, 1.0);
        let c = matmul(&a, &b);
        assert_bitwise(&c, &matmul_naive(&a, &b));
        assert!(c.row(5).iter().all(|&v| v == 0.0));
        assert!(c.row(17).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_deterministic_across_thread_counts() {
        let mut r = rng::seeded(102);
        let a = rng::normal(&mut r, &[96, 80], 0.0, 1.0);
        let b = rng::normal(&mut r, &[80, 72], 0.0, 1.0);
        let c1 = matmul_with_threads(&a, &b, 1);
        for threads in [2, 3, 4, 8] {
            let ct = matmul_with_threads(&a, &b, threads);
            assert_eq!(c1, ct, "threads={threads} must be bitwise identical");
        }
    }

    #[test]
    fn gemv_matches_matmul() {
        let w = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let x = t(vec![1.0, 0.5, -1.0], &[3]);
        let y = gemv(&w, &x);
        let xm = x.reshaped(&[3, 1]);
        let ym = matmul(&w, &xm);
        assert_eq!(y.data(), ym.data());
    }

    #[test]
    fn gemv_parallel_is_bitwise_serial() {
        let mut r = rng::seeded(103);
        let w = rng::normal(&mut r, &[300, 1000], 0.0, 1.0);
        let x = rng::normal(&mut r, &[1000], 0.0, 1.0);
        let y1 = gemv_with_threads(&w, &x, 1);
        for threads in [2, 4, 7] {
            assert_eq!(y1, gemv_with_threads(&w, &x, threads));
        }
    }

    #[test]
    fn affine_adds_bias() {
        let w = Tensor::eye(2);
        let x = t(vec![3.0, 4.0], &[2]);
        let b = t(vec![1.0, -1.0], &[2]);
        assert_eq!(affine(&w, &x, &b).data(), &[4.0, 3.0]);
    }

    #[test]
    fn affine_parallel_matches_serial_composition() {
        let mut r = rng::seeded(104);
        let w = rng::normal(&mut r, &[280, 1024], 0.0, 0.5);
        let x = rng::normal(&mut r, &[1024], 0.0, 1.0);
        let b = rng::normal(&mut r, &[280], 0.0, 1.0);
        let fused = affine_with_threads(&w, &x, &b, 4);
        let mut reference = gemv_with_threads(&w, &x, 1);
        axpy(1.0, &b, &mut reference);
        assert_bitwise(&fused, &reference);
    }

    #[test]
    fn hadamard_and_switching_mix() {
        // Eq. (2): y = y ⊙ m + y' ⊙ (1-m)
        let y = t(vec![10.0, 20.0, 30.0], &[3]);
        let yp = t(vec![1.0, 2.0, 3.0], &[3]);
        let m = t(vec![1.0, 0.0, 1.0], &[3]);
        let ones = Tensor::full(&[3], 1.0);
        let mixed = add(&hadamard(&y, &m), &hadamard(&yp, &sub(&ones, &m)));
        assert_eq!(mixed.data(), &[10.0, 2.0, 30.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = t(vec![1.0, 2.0], &[2]);
        let mut y = t(vec![10.0, 10.0], &[2]);
        axpy(0.5, &x, &mut y);
        assert_eq!(y.data(), &[10.5, 11.0]);
    }

    #[test]
    fn dot_and_mse() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = t(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(dot(&a, &b), 32.0);
        assert!((mse(&a, &b) - 9.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_tie() {
        let a = t(vec![0.5, 2.0, 2.0, 1.0], &[4]);
        assert_eq!(argmax(&a), 1);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_mismatch_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 3]));
    }
}
