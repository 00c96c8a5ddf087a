//! Knowledge distillation of approximate modules (Eq. 1).
//!
//! The optimization goal is
//! `min Σ_s ‖(W x + b) − (W' P x + b')‖²` — a linear least-squares problem
//! in `W'` once the projection `P` is fixed. We solve it in closed form
//! with ridge-regularized normal equations and a Cholesky factorization:
//! deterministic, fast (the system is only `k×k`), and exactly the
//! "teacher/student" fit the paper describes, with the teacher's bias
//! reused as `b'`.

use crate::approx::{ApproxConfig, ApproxLinear};
use crate::projection::TernaryProjection;
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// Ridge regularizer added to the normal equations for numerical safety.
pub const DEFAULT_RIDGE: f32 = 1e-4;

/// Cholesky factorization of a symmetric positive-definite matrix
/// (lower-triangular `L` with `A = L Lᵀ`).
///
/// # Panics
///
/// Panics if `a` is not square or not positive definite.
pub fn cholesky(a: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "cholesky needs a matrix");
    let n = a.shape().dim(0);
    assert_eq!(n, a.shape().dim(1), "cholesky needs a square matrix");
    let ad = a.data();
    let mut l = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = ad[i * n + j];
            for p in 0..j {
                sum -= l[i * n + p] * l[j * n + p];
            }
            if i == j {
                assert!(
                    sum > 0.0,
                    "matrix not positive definite at pivot {i} (sum {sum})"
                );
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Tensor::from_vec(l, &[n, n])
}

/// Solves `A x = rhs` for SPD `A` via Cholesky (forward + back
/// substitution).
///
/// # Panics
///
/// Panics if dimensions disagree or `A` is not positive definite.
pub fn solve_spd(a: &Tensor, rhs: &Tensor) -> Tensor {
    let n = a.shape().dim(0);
    assert_eq!(rhs.len(), n, "rhs length mismatch");
    let l = cholesky(a);
    let ld = l.data();
    // forward: L y = rhs
    let mut y = vec![0.0f32; n];
    for i in 0..n {
        let mut sum = rhs.data()[i];
        for j in 0..i {
            sum -= ld[i * n + j] * y[j];
        }
        y[i] = sum / ld[i * n + i];
    }
    // backward: Lᵀ x = y
    let mut x = vec![0.0f32; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for j in i + 1..n {
            sum -= ld[j * n + i] * x[j];
        }
        x[i] = sum / ld[i * n + i];
    }
    Tensor::from_vec(x, &[n])
}

/// Fits `W' [n, k]` minimizing `‖Y − W' Z‖² + λ‖W'‖²` where
/// `Z [k, s]` holds projected inputs column-wise and `Y [n, s]` the teacher
/// outputs column-wise.
///
/// # Panics
///
/// Panics if sample counts disagree.
pub fn ridge_fit(z: &Tensor, y: &Tensor, lambda: f32) -> Tensor {
    assert_eq!(z.shape().rank(), 2, "Z must be [k, s]");
    assert_eq!(y.shape().rank(), 2, "Y must be [n, s]");
    let (k, s) = (z.shape().dim(0), z.shape().dim(1));
    assert_eq!(y.shape().dim(1), s, "sample count mismatch");
    let n = y.shape().dim(0);

    // G = Z Zᵀ + λ·scale·I  (k×k),   B = Y Zᵀ  (n×k), both read Z in
    // place (bitwise `matmul` against a transposed copy).
    // The ridge scales with the Gram matrix's mean diagonal so that
    // rank-deficient calibration sets (real activations often live in a
    // low-dimensional subspace) stay numerically positive definite in
    // f32.
    let mut g = Tensor::zeros(&[k, k]);
    ops::matmul_nt_into(z.data(), z, &mut g);
    let mean_diag: f32 = (0..k).map(|i| g.data()[i * k + i]).sum::<f32>() / k as f32;
    let ridge = lambda * mean_diag.max(1.0);
    for i in 0..k {
        let off = i * k + i;
        g.data_mut()[off] += ridge;
    }
    let mut b = Tensor::zeros(&[n, k]);
    ops::matmul_nt_into(y.data(), z, &mut b);

    // Solve G w_iᵀ = b_iᵀ for each output row i.
    let mut w = Tensor::zeros(&[n, k]);
    for i in 0..n {
        let rhs = Tensor::from_vec(b.row(i).to_vec(), &[k]);
        let sol = solve_spd(&g, &rhs);
        w.row_mut(i).copy_from_slice(sol.data());
    }
    w
}

/// Distills an approximate module from a teacher layer `(w [n,d], b [n])`.
///
/// Draws `samples` synthetic inputs from the provided sampler, computes
/// teacher pre-activations, projects the inputs, and ridge-fits the student
/// weights; the teacher's bias is reused as `b'`.
///
/// # Panics
///
/// Panics if `samples == 0` or shapes disagree.
pub fn distill_linear_with_sampler(
    w: &Tensor,
    b: &Tensor,
    config: ApproxConfig,
    samples: usize,
    rng: &mut Rng,
    mut sampler: impl FnMut(&mut Rng) -> Tensor,
) -> ApproxLinear {
    assert!(samples > 0, "need at least one distillation sample");
    assert_eq!(w.shape().rank(), 2, "teacher weight must be [n, d]");
    let (n, d) = (w.shape().dim(0), w.shape().dim(1));
    assert_eq!(b.len(), n, "teacher bias length mismatch");
    let _distill_span = duet_obs::span("core.distill.linear");
    duet_obs::counter!("core.distill.calls").inc();
    duet_obs::counter!("core.distill.samples").add(samples as u64);

    let projection = TernaryProjection::sample(d, config.reduced_dim, rng);
    let k = config.reduced_dim;

    // Build Z [k, s] (projected inputs) and Y [n, s] (teacher outputs
    // minus bias — the student learns the linear part, b' := b).
    let mut z = Tensor::zeros(&[k, samples]);
    let mut y = Tensor::zeros(&[n, samples]);
    for s in 0..samples {
        let x = sampler(rng);
        assert_eq!(x.len(), d, "sampler returned wrong input length");
        let t = ops::gemv(w, &x);
        let p = projection.project(&x);
        for i in 0..k {
            z.data_mut()[i * samples + s] = p.data()[i];
        }
        for i in 0..n {
            y.data_mut()[i * samples + s] = t.data()[i];
        }
    }

    let w_prime = ridge_fit(&z, &y, DEFAULT_RIDGE);
    ApproxLinear::from_parts(projection, &w_prime, b.clone(), config)
}

/// Distills with a standard-normal input sampler — the default when no
/// calibration activations are available.
pub fn distill_linear(
    w: &Tensor,
    b: &Tensor,
    config: ApproxConfig,
    samples: usize,
    rng: &mut Rng,
) -> ApproxLinear {
    let d = w.shape().dim(1);
    distill_linear_with_sampler(w, b, config, samples, rng, move |r| {
        duet_tensor::rng::normal(r, &[d], 0.0, 1.0)
    })
}

/// Distills from recorded calibration activations (one row per sample,
/// `[s, d]`), the setting that matches the paper's use of real layer
/// inputs.
///
/// # Panics
///
/// Panics if `activations` is not `[s, d]` with `s > 0`.
pub fn distill_linear_from_activations(
    w: &Tensor,
    b: &Tensor,
    config: ApproxConfig,
    activations: &Tensor,
    rng: &mut Rng,
) -> ApproxLinear {
    assert_eq!(activations.shape().rank(), 2, "activations must be [s, d]");
    let s = activations.shape().dim(0);
    assert!(s > 0, "need at least one calibration sample");
    let d = activations.shape().dim(1);
    assert_eq!(d, w.shape().dim(1), "activation width mismatch");
    let mut idx = 0usize;
    distill_linear_with_sampler(w, b, config, s, rng, move |_| {
        let row = Tensor::from_vec(activations.row(idx).to_vec(), &[d]);
        idx += 1;
        row
    })
}

/// Relative approximation error of a student against its teacher over
/// fresh samples drawn from `sampler`: `E[‖y − y'‖²] / E[‖y‖²]`.
pub fn relative_error_with_sampler(
    w: &Tensor,
    b: &Tensor,
    student: &ApproxLinear,
    samples: usize,
    rng: &mut Rng,
    mut sampler: impl FnMut(&mut Rng) -> Tensor,
) -> f32 {
    let mut err = 0.0f32;
    let mut norm = 0.0f32;
    for _ in 0..samples {
        let x = sampler(rng);
        let teacher = ops::affine(w, &x, b);
        let approx = student.forward(&x);
        err += ops::sub(&teacher, &approx).norm_sq();
        norm += teacher.norm_sq();
    }
    err / norm.max(1e-12)
}

/// Relative approximation error over standard-normal inputs.
///
/// Note: isotropic inputs are the *worst case* for random projection —
/// `1 − k/d` of the input energy is unrecoverable. Real layer activations
/// are correlated (low intrinsic dimension), which is precisely why the
/// paper's dimension reduction works; use
/// [`relative_error_with_sampler`] with a realistic sampler to see that
/// regime.
pub fn relative_error(
    w: &Tensor,
    b: &Tensor,
    student: &ApproxLinear,
    samples: usize,
    rng: &mut Rng,
) -> f32 {
    let d = w.shape().dim(1);
    relative_error_with_sampler(w, b, student, samples, rng, move |r| {
        duet_tensor::rng::normal(r, &[d], 0.0, 1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    #[test]
    fn cholesky_reconstructs() {
        // A = M Mᵀ + I is SPD
        let mut r = seeded(1);
        let m = rng::normal(&mut r, &[4, 4], 0.0, 1.0);
        let mut a = ops::matmul(&m, &m.transposed());
        for i in 0..4 {
            a.data_mut()[i * 4 + i] += 1.0;
        }
        let l = cholesky(&a);
        let rec = ops::matmul(&l, &l.transposed());
        for (x, y) in a.data().iter().zip(rec.data()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn solve_spd_solves() {
        let a = Tensor::from_vec(vec![4.0, 1.0, 1.0, 3.0], &[2, 2]);
        let rhs = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let x = solve_spd(&a, &rhs);
        let ax = ops::gemv(&a, &x);
        for (p, q) in ax.data().iter().zip(rhs.data()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "not positive definite")]
    fn cholesky_rejects_indefinite() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 2.0, 1.0], &[2, 2]);
        cholesky(&a);
    }

    #[test]
    fn ridge_fit_recovers_exact_linear_map() {
        // If Y = W Z exactly and λ→0, the fit must recover W.
        let mut r = seeded(2);
        let w_true = rng::normal(&mut r, &[3, 4], 0.0, 1.0);
        let z = rng::normal(&mut r, &[4, 50], 0.0, 1.0);
        let y = ops::matmul(&w_true, &z);
        let w_fit = ridge_fit(&z, &y, 1e-8);
        for (a, b) in w_true.data().iter().zip(w_fit.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn ridge_fit_is_bitwise_its_transposed_copy_form() {
        // The Gram and cross products read Z in place; the form that
        // multiplied by a transposed copy of Z is the oracle, bit for bit
        // (zeros in Z are skipped by both).
        let mut r = seeded(3);
        for (k, s, n) in [(8, 192, 6), (16, 257, 9), (32, 300, 12), (64, 500, 16)] {
            let mut z = rng::normal(&mut r, &[k, s], 0.0, 1.0);
            for v in z.data_mut().iter_mut().step_by(5) {
                *v = 0.0;
            }
            let y = rng::normal(&mut r, &[n, s], 0.0, 1.0);
            let zt = z.transposed();
            let mut g = ops::matmul(&z, &zt);
            let mean_diag: f32 = (0..k).map(|i| g.data()[i * k + i]).sum::<f32>() / k as f32;
            for i in 0..k {
                g.data_mut()[i * k + i] += DEFAULT_RIDGE * mean_diag.max(1.0);
            }
            let b = ops::matmul(&y, &zt);
            let w = ridge_fit(&z, &y, DEFAULT_RIDGE);
            for i in 0..n {
                let want = solve_spd(&g, &Tensor::from_vec(b.row(i).to_vec(), &[k]));
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(w.row(i)), bits(want.data()), "k {k} s {s} row {i}");
            }
        }
    }

    /// Builds a realistic "trained-looking" teacher: low-rank structure
    /// plus small full-rank noise (trained weight matrices have rapidly
    /// decaying spectra, which is what makes the paper's dimension
    /// reduction viable).
    fn low_rank_teacher(n: usize, d: usize, rank: usize, r: &mut Rng) -> Tensor {
        let u = rng::normal(r, &[n, rank], 0.0, 1.0 / (rank as f32).sqrt());
        let v = rng::normal(r, &[rank, d], 0.0, 1.0 / (d as f32).sqrt());
        let noise = rng::normal(r, &[n, d], 0.0, 0.02);
        ops::add(&ops::matmul(&u, &v), &noise)
    }

    /// Correlated ("real-activation-like") input sampler: inputs lie near
    /// a `latent`-dimensional subspace of R^d plus small noise.
    fn correlated_sampler(d: usize, latent: usize, seed: u64) -> impl FnMut(&mut Rng) -> Tensor {
        let basis = rng::normal(
            &mut seeded(seed),
            &[d, latent],
            0.0,
            1.0 / (latent as f32).sqrt(),
        );
        move |r: &mut Rng| {
            let z = rng::normal(r, &[latent], 0.0, 1.0);
            let mut x = ops::gemv(&basis, &z);
            let noise = rng::normal(r, &[d], 0.0, 0.05);
            ops::axpy(1.0, &noise, &mut x);
            x
        }
    }

    #[test]
    fn distilled_student_beats_random_student() {
        let mut r = seeded(3);
        let w = low_rank_teacher(24, 48, 8, &mut r);
        let b = rng::normal(&mut r, &[24], 0.0, 0.1);
        let cfg = ApproxConfig::paper_default(24);

        let student =
            distill_linear_with_sampler(&w, &b, cfg, 400, &mut r, correlated_sampler(48, 8, 77));
        let random = crate::approx::ApproxLinear::random(48, 24, cfg, &mut r);

        let e_student = relative_error_with_sampler(
            &w,
            &b,
            &student,
            100,
            &mut r,
            correlated_sampler(48, 8, 77),
        );
        let e_random = relative_error_with_sampler(
            &w,
            &b,
            &random,
            100,
            &mut seeded(42),
            correlated_sampler(48, 8, 77),
        );
        assert!(
            e_student < e_random * 0.5,
            "student {e_student} vs random {e_random}"
        );
        // distilled module should capture most of the signal
        assert!(e_student < 0.3, "relative error {e_student}");
    }

    #[test]
    fn isotropic_inputs_cap_projection_quality() {
        // Documents the JL floor: with isotropic inputs the best possible
        // student still loses ≈ (1 − k/d) of the energy.
        let mut r = seeded(13);
        let w = rng::normal(&mut r, &[16, 40], 0.0, 0.3);
        let b = Tensor::zeros(&[16]);
        let student = distill_linear(&w, &b, ApproxConfig::paper_default(10), 500, &mut r);
        let e = relative_error(&w, &b, &student, 200, &mut r);
        let floor = 1.0 - 10.0 / 40.0;
        assert!(e > 0.3, "error {e} suspiciously below the JL floor");
        assert!(e < floor * 1.4, "error {e} far above the JL floor {floor}");
    }

    #[test]
    fn larger_k_reduces_error() {
        let mut r = seeded(4);
        let w = low_rank_teacher(16, 64, 10, &mut r);
        let b = Tensor::zeros(&[16]);
        let e_small = relative_error(
            &w,
            &b,
            &distill_linear(&w, &b, ApproxConfig::paper_default(8), 400, &mut r),
            100,
            &mut seeded(99),
        );
        let e_large = relative_error(
            &w,
            &b,
            &distill_linear(&w, &b, ApproxConfig::paper_default(48), 400, &mut r),
            100,
            &mut seeded(99),
        );
        assert!(e_large < e_small, "k=48 err {e_large} vs k=8 err {e_small}");
    }

    #[test]
    fn distill_from_activations_uses_their_distribution() {
        let mut r = seeded(5);
        let w = rng::normal(&mut r, &[8, 16], 0.0, 0.3);
        let b = Tensor::zeros(&[8]);
        let acts = rng::normal(&mut r, &[200, 16], 2.0, 0.5); // shifted inputs
        let student =
            distill_linear_from_activations(&w, &b, ApproxConfig::paper_default(12), &acts, &mut r);
        // evaluate on the same shifted distribution
        let mut err = 0.0;
        let mut norm = 0.0;
        let mut r2 = seeded(6);
        for _ in 0..50 {
            let x = rng::normal(&mut r2, &[16], 2.0, 0.5);
            let t = ops::affine(&w, &x, &b);
            let a = student.forward(&x);
            err += ops::sub(&t, &a).norm_sq();
            norm += t.norm_sq();
        }
        assert!(err / norm < 0.35, "relative error {}", err / norm);
    }
}
