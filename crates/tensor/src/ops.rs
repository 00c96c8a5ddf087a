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
//! with no zero skip, so it is bitwise `gemv(&w.transposed(), v)`;
//! [`matmul`] accumulates each output over `k` from +0.0 in the order of
//! [`matmul_naive`], skipping the zero elements of its left operand; and
//! the transposed-operand GEMMs keep that order and that skip on the
//! transpose they read in place: [`matmul_tn`] (`Aᵀ·B`, through
//! [`matmul`]'s own naive and stripe kernels) is bitwise
//! `matmul(&a.transposed(), b)`, and
//! [`matmul_nt_into`] (`A·Bᵀ`, which folds each output over the nonzero
//! entries of its A row only) is bitwise `matmul(a, &b.transposed())`.
//! Backprop uses these three products and no transposed copy; training
//! (`duet_nn::Sequential::train_step`) never computes the input gradient
//! of its first stage, which nothing reads. Rust never contracts
//! `a * b + c` into a fused multiply-add, so the order fixes the bits on
//! every target. Every committed `results/` artifact, checksum and pin
//! comes from this one arithmetic, and so does every dense twin a dual
//! path is compared with.
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
        gemm_rows::<false>(ad, bd, chunk, rows.start, rows.len(), m, k, n);
    });
    c
}

/// Transposed-operand GEMM `C = Aᵀ · B` for `a: [k, m]` and `b: [k, n]`:
/// `c[i, j] = Σ_kk a[kk, i]·b[kk, j]` (backprop's `gᵀ·x` and `Wᵀ·g`).
///
/// Bitwise `matmul(&a.transposed(), b)` at every thread count, without
/// the transposed copy: each output accumulates over ascending `kk` from
/// +0.0 and skips the zero elements of `a`, as [`matmul_naive`] skips
/// the zeros of its left operand. Above [`PAR_MIN_FLOPS`] work the output
/// rows are striped over threads.
///
/// # Panics
///
/// Panics if the tensors are not 2-D or their row counts disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_tn lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul_tn rhs must be 2-D");
    assert_eq!(
        a.shape().dim(0),
        b.shape().dim(0),
        "matmul_tn row count mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut c = Tensor::zeros(&[a.shape().dim(1), b.shape().dim(1)]);
    matmul_tn_into(a, b.data(), &mut c);
    c
}

/// [`matmul_tn`] into `out` `[m, n]`, with `b` the row-major `[k, n]`
/// data: `out` is overwritten with the same bits.
///
/// # Panics
///
/// Panics if `a` or `out` is not 2-D or the shapes disagree.
pub fn matmul_tn_into(a: &Tensor, b: &[f32], out: &mut Tensor) {
    assert_eq!(a.shape().rank(), 2, "matmul_tn lhs must be 2-D");
    let (k, m) = (a.shape().dim(0), a.shape().dim(1));
    gemm_t::<false>(a.data(), b, out, m, k, parallel::num_threads());
}

/// Transposed-operand GEMM `C = A · Bᵀ` for row-major `a` `[m, k]` data
/// and `b: [n, k]`: `c[i, j] = Σ_kk a[i, kk]·b[j, kk]` (a convolution's
/// `g·colsᵀ`), overwriting `out` `[m, n]`.
///
/// Bitwise `matmul(a, &b.transposed())` at every thread count, without
/// the transposed copy: each output accumulates over ascending `kk` from
/// +0.0 and skips the zero elements of `a`, so a sparse `a` (a gradient
/// behind ReLU and max-pool) costs only its nonzero entries. Above
/// [`PAR_MIN_FLOPS`] work the output rows are striped over threads.
///
/// # Panics
///
/// Panics if `b` or `out` is not 2-D or the shapes disagree.
pub fn matmul_nt_into(a: &[f32], b: &Tensor, out: &mut Tensor) {
    assert_eq!(b.shape().rank(), 2, "matmul_nt rhs must be 2-D");
    assert_eq!(out.shape().rank(), 2, "matmul_nt output must be 2-D");
    let (m, k) = (out.shape().dim(0), b.shape().dim(1));
    assert_eq!(a.len(), m * k, "matmul_nt lhs must be [{m}, {k}]");
    gemm_t::<true>(a, b.data(), out, m, k, parallel::num_threads());
}

/// The transposed-operand GEMMs' driver: overwrites `out` `[m, n]` with
/// `Aᵀ·B` (`a` stored `[k, m]`, through [`matmul`]'s kernels: the naive
/// loop below [`BLOCKED_MIN_FLOPS`], the stripe kernel [`gemm_rows`]
/// above) or, when `NT`, with `A·Bᵀ` (`b` stored `[n, k]`, through
/// [`gemm_nt_rows`]), striping the output rows over threads above
/// [`PAR_MIN_FLOPS`].
fn gemm_t<const NT: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut Tensor,
    m: usize,
    k: usize,
    threads: usize,
) {
    assert_eq!(out.shape().rank(), 2, "GEMM output must be 2-D");
    assert_eq!(out.shape().dim(0), m, "GEMM output must have {m} rows");
    let n = out.shape().dim(1);
    assert_eq!(a.len(), m * k, "GEMM lhs length mismatch");
    assert_eq!(b.len(), k * n, "GEMM rhs length mismatch");
    let flops = m * k * n;
    let threads = if flops >= PAR_MIN_FLOPS {
        threads.clamp(1, m)
    } else {
        1
    };
    duet_obs::counter!("tensor.gemm_t.calls").inc();
    duet_obs::counter!("tensor.gemm_t.flops").add(2 * flops as u64);
    let c = out.data_mut();
    c.fill(0.0);
    if !NT && flops < BLOCKED_MIN_FLOPS {
        gemm_naive::<true>(a, b, c, m, k, n);
        return;
    }
    parallel::for_each_row_chunk(c, m, n, threads, |rows, chunk| {
        if NT {
            gemm_nt_rows(a, b, chunk, rows.start, k, n);
        } else {
            gemm_rows::<true>(a, b, chunk, rows.start, rows.len(), m, k, n);
        }
    });
}

/// Output columns [`gemm_nt_rows`] folds side by side, one register
/// accumulator each.
const NT_LANES: usize = 8;

/// Overwrites `chunk`, whole `n`-wide C rows from global row `row0` on,
/// with those rows of `C = A·Bᵀ`, for `ad` `[m, k]` and `bd` `[n, k]`.
/// Each row gathers the nonzero entries of its A row once, so a sparse A
/// costs only those; every output then folds them over ascending `kk`
/// from +0.0 as `c += a·b`, [`NT_LANES`] outputs side by side, which is
/// the order and the skip of [`matmul_naive`] on the transposed copy of B.
fn gemm_nt_rows(ad: &[f32], bd: &[f32], chunk: &mut [f32], row0: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let mut nz = vec![(0usize, 0.0f32); k];
    for (local, crow) in chunk.chunks_exact_mut(n).enumerate() {
        let i = row0 + local;
        // Branch-free compaction: every entry is written, only the
        // nonzero ones advance the count (a branch per entry mispredicts
        // on a gradient's scattered zeros).
        let mut len = 0;
        for (kk, &av) in ad[i * k..(i + 1) * k].iter().enumerate() {
            nz[len] = (kk, av);
            len += usize::from(av != 0.0);
        }
        let nz = &nz[..len];
        let (lanes, tail) = crow.split_at_mut(n - n % NT_LANES);
        for (j0, c) in (0..)
            .step_by(NT_LANES)
            .zip(lanes.chunks_exact_mut(NT_LANES))
        {
            c.copy_from_slice(&nt_lanes::<NT_LANES>(nz, bd, k, j0));
        }
        let full = lanes.len();
        for (j, c) in (full..).zip(tail) {
            *c = nt_lanes::<1>(nz, bd, k, j)[0];
        }
    }
}

/// Outputs `j0..j0 + N` of one row of `A·Bᵀ` from that A row's nonzero
/// `(kk, a)` entries in ascending `kk`, each folded from +0.0.
#[inline(always)]
fn nt_lanes<const N: usize>(nz: &[(usize, f32)], bd: &[f32], k: usize, j0: usize) -> [f32; N] {
    let brows: [&[f32]; N] = std::array::from_fn(|jj| &bd[(j0 + jj) * k..(j0 + jj + 1) * k]);
    let mut acc = [0.0f32; N];
    for &(kk, av) in nz {
        for (s, brow) in acc.iter_mut().zip(&brows) {
            *s += av * brow[kk];
        }
    }
    acc
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
    gemm_naive::<false>(a.data(), b.data(), c.data_mut(), m, k, n);
    c
}

/// [`matmul_naive`]'s loop on raw data: accumulates `C = op(A)·B` into
/// `cd` `[m, n]`, with `op(A)` `[m, k]`: `A` is stored `[m, k]`, or
/// `[k, m]` and read transposed when `TA`.
fn gemm_naive<const TA: bool>(
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        for kk in 0..k {
            let aik = if TA { ad[kk * m + i] } else { ad[i * k + kk] };
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
}

/// Computes `rows_len` C rows starting at global row `row0` into `chunk`
/// (the disjoint `[rows_len × n]` window of C owned by this worker), for
/// `C = op(A)·B` with `op(A)` `[m, k]`: `A` is stored `[m, k]`, or
/// `[k, m]` and read transposed when `TA`.
///
/// Rows are processed in stripes of [`MR`] and columns in blocks of
/// [`NC`]; within one (stripe, block) pair the `k` sweep reuses each B row
/// segment [`MR`] times from L1 while the stripe's C segments also stay
/// L1-resident. The inner update skips zero A elements exactly like
/// [`matmul_naive`] and accumulates in the same order, so the result is
/// bitwise identical to the naive reference (of the transposed copy, for
/// `TA`).
#[allow(clippy::too_many_arguments)]
fn gemm_rows<const TA: bool>(
    ad: &[f32],
    bd: &[f32],
    chunk: &mut [f32],
    row0: usize,
    rows_len: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i < rows_len {
        let mr = MR.min(rows_len - i);
        let (a0, a1) = (row0 + i, row0 + i + mr);
        // The stripe's A rows as stored; with `TA` they are columns
        // a0..a1 of the stored [k, m], sliced per `kk` below.
        let arows = if TA { &[][..] } else { &ad[a0 * k..a1 * k] };
        let crows = &mut chunk[i * n..(i + mr) * n];
        let mut j0 = 0;
        while j0 < n {
            let w = NC.min(n - j0);
            for kk in 0..k {
                let acol = if TA {
                    &ad[kk * m + a0..kk * m + a1]
                } else {
                    &[][..]
                };
                let brow = &bd[kk * n + j0..kk * n + j0 + w];
                for r in 0..mr {
                    let av = if TA { acol[r] } else { arows[r * k + kk] };
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

    /// Pins `matmul_tn` and `matmul_nt_into` to `matmul` of the
    /// transposed copy, bit for bit at 1, 4 and 7 threads: the same zero
    /// skip on the left operand, ascending `k`, a +0.0 start. Shapes sit
    /// on both sides of `BLOCKED_MIN_FLOPS` (where the reference switches
    /// from the naive to the blocked kernel) and of `PAR_MIN_FLOPS`;
    /// operands carry zeros, −0.0, ±∞ and NaN.
    #[test]
    fn transposed_operand_gemms_are_bitwise_matmul_of_the_copies() {
        // Bits, with every NaN as one value: Rust leaves the sign and
        // payload of a computed NaN unspecified.
        fn bits(t: &Tensor) -> Vec<u32> {
            t.data()
                .iter()
                .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
                .collect()
        }
        // Zeros of both signs on 40% of the entries; ±∞ and NaN rarer
        // the longer the fold, so an output meets about one of them.
        fn salt(t: &mut Tensor, k: usize, r: &mut crate::rng::Rng) {
            let inf = 0.3 / k.max(1) as f32;
            for v in t.data_mut() {
                let u: f32 = r.random();
                *v = match u {
                    u if u < 0.25 => 0.0,
                    u if u < 0.4 => -0.0,
                    u if u < 0.4 + inf => f32::INFINITY,
                    u if u < 0.4 + 2.0 * inf => f32::NEG_INFINITY,
                    u if u < 0.4 + 3.0 * inf => f32::NAN,
                    _ => *v,
                };
            }
        }
        // (k, m, n): 3·4·5 = 60 and 31·32·32 = 31 744 run the naive
        // loop (the reference's and `matmul_tn`'s), 33·32·32 = 33 792 and 63·64·64 = 258 048 the serial
        // blocked one, 65·64·64 = 266 240 and 300·3·300 = 270 000 (fewer
        // rows than threads) fan out; 0 and 1 are the empty and unit
        // folds.
        let shapes = [
            (3usize, 4usize, 5usize),
            (0, 3, 4),
            (4, 0, 3),
            (1, 1, 1),
            (31, 32, 32),
            (33, 32, 32),
            (63, 64, 64),
            (65, 64, 64),
            (300, 3, 300),
        ];
        let mut r = rng::seeded(3100);
        for (si, &(k, m, n)) in shapes.iter().enumerate() {
            for salted in [false, true] {
                let what = format!("shape {si} (k {k}, m {m}, n {n}), salted {salted}");
                let mut at = rng::normal(&mut r, &[k, m], 0.0, 1.0); // Aᵀ stored [k, m]
                let mut b = rng::normal(&mut r, &[k, n], 0.0, 1.0);
                let mut a = rng::normal(&mut r, &[m, k], 0.0, 1.0);
                let mut bt = rng::normal(&mut r, &[n, k], 0.0, 1.0); // Bᵀ stored [n, k]
                if salted {
                    for t in [&mut at, &mut b, &mut a, &mut bt] {
                        salt(t, k, &mut r);
                    }
                }
                let tn_want = bits(&matmul_with_threads(&at.transposed(), &b, 1));
                let nt_want = bits(&matmul_with_threads(&a, &bt.transposed(), 1));
                for threads in [1usize, 4, 7] {
                    let tn_ref = matmul_with_threads(&at.transposed(), &b, threads);
                    assert_eq!(bits(&tn_ref), tn_want, "{what}: TN reference, {threads}");
                    let nt_ref = matmul_with_threads(&a, &bt.transposed(), threads);
                    assert_eq!(bits(&nt_ref), nt_want, "{what}: NT reference, {threads}");

                    let mut out = Tensor::full(&[m, n], f32::NAN);
                    gemm_t::<false>(at.data(), b.data(), &mut out, m, k, threads);
                    assert_eq!(bits(&out), tn_want, "{what}: TN, threads {threads}");
                    let mut out = Tensor::full(&[m, n], -0.0);
                    gemm_t::<true>(a.data(), bt.data(), &mut out, m, k, threads);
                    assert_eq!(bits(&out), nt_want, "{what}: NT, threads {threads}");
                }
                assert_eq!(bits(&matmul_tn(&at, &b)), tn_want, "{what}: matmul_tn");
                let mut out = Tensor::full(&[m, n], f32::NAN);
                matmul_tn_into(&at, b.data(), &mut out);
                assert_eq!(bits(&out), tn_want, "{what}: matmul_tn_into");
                let mut out = Tensor::full(&[m, n], f32::NAN);
                matmul_nt_into(a.data(), &bt, &mut out);
                assert_eq!(bits(&out), nt_want, "{what}: matmul_nt_into");
            }
        }

        // The cases the salt only hits by chance, spelled out on a 2×2
        // (k = 2): a skipped zero times ∞ stays skipped; a zero of the
        // right operand times ∞ is not skipped; every skipped product
        // leaves the +0.0 start.
        let a = t(vec![0.0, 1.0, -0.0, f32::INFINITY], &[2, 2]);
        let b = t(vec![f32::INFINITY, 2.0, 0.0, f32::NEG_INFINITY], &[2, 2]);
        let c = matmul_with_threads(&a, &b, 1);
        let c_nt = {
            let mut out = Tensor::zeros(&[2, 2]);
            matmul_nt_into(a.data(), &b.transposed(), &mut out);
            out
        };
        let c_tn = matmul_tn(&a.transposed(), &b);
        for got in [&c_nt, &c_tn] {
            assert_eq!(bits(got), bits(&c));
        }
        // Row 0 of A is [0, 1]: 0·∞ is skipped, then 1·0 = 0, 1·(−∞).
        assert_eq!(c.data()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(c.data()[1], f32::NEG_INFINITY);
        // Row 1 is [−0.0, ∞]: −0.0 is skipped, ∞·0 is NaN.
        assert!(c.data()[2].is_nan());
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
