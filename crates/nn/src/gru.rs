//! GRU cell with backpropagation-through-time.
//!
//! Gate ordering is **r, z, n** (reset, update, candidate). The candidate
//! follows the "v3" convention used by cuDNN/PyTorch:
//! `n = tanh(W_n x + b_n + r ⊙ (U_n h + b_hn))`, which keeps the
//! hidden-to-hidden product a plain GEMV — the memory-bound operation the
//! DUET Speculator targets.

use crate::activation::Activation;
use crate::layer::{outer_accumulate, Param};
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// Number of GRU gates.
pub const GRU_GATES: usize = 3;

/// Per-step cache for BPTT.
#[derive(Debug, Clone)]
pub struct GruStepCache {
    x: Tensor,
    h_prev: Tensor,
    r: Tensor,
    z: Tensor,
    n: Tensor,
    hn: Tensor, // U_n h_prev + b_hn
}

/// A GRU cell: `W ∈ R^{3h×d}` (input), `U ∈ R^{3h×h}` (hidden), input bias
/// `b ∈ R^{3h}`, hidden bias `b_h ∈ R^{3h}`.
#[derive(Debug, Clone)]
pub struct GruCell {
    /// Input-to-hidden weights (rows: r, z, n).
    pub w_ih: Param,
    /// Hidden-to-hidden weights (rows: r, z, n).
    pub w_hh: Param,
    /// Input-side bias.
    pub b_ih: Param,
    /// Hidden-side bias.
    pub b_hh: Param,
    input: usize,
    hidden: usize,
}

impl GruCell {
    /// Creates a GRU cell with LeCun-uniform weights and zero biases.
    pub fn new(input: usize, hidden: usize, r: &mut Rng) -> Self {
        Self {
            w_ih: Param::new(crate::init::lecun_uniform(
                r,
                &[GRU_GATES * hidden, input],
                input,
            )),
            w_hh: Param::new(crate::init::lecun_uniform(
                r,
                &[GRU_GATES * hidden, hidden],
                hidden,
            )),
            b_ih: Param::new(Tensor::zeros(&[GRU_GATES * hidden])),
            b_hh: Param::new(Tensor::zeros(&[GRU_GATES * hidden])),
            input,
            hidden,
        }
    }

    /// Input size `d`.
    pub fn input_size(&self) -> usize {
        self.input
    }

    /// Hidden size `h`.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// One forward step from hidden state `h_prev`, returning the new
    /// hidden state and a BPTT cache.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn step(&self, x: &Tensor, h_prev: &Tensor) -> (Tensor, GruStepCache) {
        assert_eq!(x.len(), self.input, "input length mismatch");
        assert_eq!(h_prev.len(), self.hidden, "state length mismatch");

        let mut ax = ops::gemv(&self.w_ih.value, x);
        ops::axpy(1.0, &self.b_ih.value, &mut ax);
        let mut ah = ops::gemv(&self.w_hh.value, h_prev);
        ops::axpy(1.0, &self.b_hh.value, &mut ah);
        let (h_new, [r, z, n], hn) = Self::combine(&ax, &ah, h_prev);

        let cache = GruStepCache {
            x: x.clone(),
            h_prev: h_prev.clone(),
            r,
            z,
            n,
            hn,
        };
        (h_new, cache)
    }

    /// The cell's gate arithmetic on the input-side pre-activations
    /// `ax = W x + b` and the hidden-side `ah = U h_prev + b_h` (each
    /// `[3h]` in r, z, n order, however they were computed):
    /// `r = σ(ax_r + ah_r)`, `z = σ(ax_z + ah_z)`,
    /// `n = tanh(ax_n + r ⊙ ah_n)` and `h = (1 − z) ⊙ n + z ⊙ h_prev`.
    /// Returns `h`, the activated gates `[r, z, n]` and `ah_n`.
    /// [`GruCell::step`] runs it on its exact pre-activations, a
    /// dual-module cell on its mixed ones.
    ///
    /// # Panics
    ///
    /// Panics if `ax` or `ah` is not three times `h_prev`'s length.
    pub fn combine(
        ax: &Tensor,
        ah: &Tensor,
        h_prev: &Tensor,
    ) -> (Tensor, [Tensor; GRU_GATES], Tensor) {
        let h = h_prev.len();
        let gates = GRU_GATES * h;
        assert!(
            ax.len() == gates && ah.len() == gates,
            "pre-activation length mismatch"
        );
        let seg =
            |t: &Tensor, k: usize| Tensor::from_vec(t.data()[k * h..(k + 1) * h].to_vec(), &[h]);
        let r = ops::add(&seg(ax, 0), &seg(ah, 0)).map(|v| Activation::Sigmoid.apply_scalar(v));
        let z = ops::add(&seg(ax, 1), &seg(ah, 1)).map(|v| Activation::Sigmoid.apply_scalar(v));
        let hn = seg(ah, 2);
        let n = ops::add(&seg(ax, 2), &ops::hadamard(&r, &hn)).map(|v| v.tanh());

        // h = (1 − z) ⊙ n + z ⊙ h_prev
        let ones = Tensor::full(&[h], 1.0);
        let h_new = ops::add(
            &ops::hadamard(&ops::sub(&ones, &z), &n),
            &ops::hadamard(&z, h_prev),
        );
        (h_new, [r, z, n], hn)
    }

    /// One BPTT step; returns `(dx, dh_prev)` and accumulates parameter
    /// gradients.
    pub fn backward_step(&mut self, cache: &GruStepCache, dh: &Tensor) -> (Tensor, Tensor) {
        let h = self.hidden;

        // h = (1−z)·n + z·h_prev
        let dn = ops::hadamard(dh, &cache.z.map(|z| 1.0 - z));
        let dz = ops::hadamard(dh, &ops::sub(&cache.h_prev, &cache.n));
        let mut dh_prev = ops::hadamard(dh, &cache.z);

        let da_n = ops::hadamard(&dn, &cache.n.map(|n| 1.0 - n * n));
        let da_z = ops::hadamard(&dz, &cache.z.map(|s| s * (1.0 - s)));

        // n = tanh(a_nx + r ⊙ hn)
        let dr = ops::hadamard(&da_n, &cache.hn);
        let da_r = ops::hadamard(&dr, &cache.r.map(|s| s * (1.0 - s)));
        let d_hn = ops::hadamard(&da_n, &cache.r);

        // Assemble gate pre-activation gradients. Input side gets (r,z,n);
        // hidden side gets (r,z,hn-part).
        let mut da_x = Tensor::zeros(&[GRU_GATES * h]);
        da_x.data_mut()[0..h].copy_from_slice(da_r.data());
        da_x.data_mut()[h..2 * h].copy_from_slice(da_z.data());
        da_x.data_mut()[2 * h..3 * h].copy_from_slice(da_n.data());

        let mut da_h = Tensor::zeros(&[GRU_GATES * h]);
        da_h.data_mut()[0..h].copy_from_slice(da_r.data());
        da_h.data_mut()[h..2 * h].copy_from_slice(da_z.data());
        da_h.data_mut()[2 * h..3 * h].copy_from_slice(d_hn.data());

        outer_accumulate(&mut self.w_ih.grad, da_x.data(), cache.x.data());
        outer_accumulate(&mut self.w_hh.grad, da_h.data(), cache.h_prev.data());
        ops::axpy(1.0, &da_x, &mut self.b_ih.grad);
        ops::axpy(1.0, &da_h, &mut self.b_hh.grad);

        let dx = ops::gemv_t(&self.w_ih.value, &da_x);
        let dh_from_gates = ops::gemv_t(&self.w_hh.value, &da_h);
        ops::axpy(1.0, &dh_from_gates, &mut dh_prev);
        (dx, dh_prev)
    }

    /// Runs a full sequence from a zero state.
    pub fn forward_sequence(&self, xs: &[Tensor]) -> (Vec<Tensor>, Vec<GruStepCache>) {
        let mut h = Tensor::zeros(&[self.hidden]);
        let mut hs = Vec::with_capacity(xs.len());
        let mut caches = Vec::with_capacity(xs.len());
        for x in xs {
            let (h_new, cache) = self.step(x, &h);
            h = h_new.clone();
            hs.push(h_new);
            caches.push(cache);
        }
        (hs, caches)
    }

    /// Full BPTT given per-step gradients on the hidden states; returns
    /// per-step input gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dhs.len() != caches.len()`.
    pub fn backward_sequence(&mut self, caches: &[GruStepCache], dhs: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(caches.len(), dhs.len(), "one dh per step required");
        let mut dh_next = Tensor::zeros(&[self.hidden]);
        let mut dxs = vec![Tensor::zeros(&[self.input]); caches.len()];
        for t in (0..caches.len()).rev() {
            let mut dh = dhs[t].clone();
            ops::axpy(1.0, &dh_next, &mut dh);
            let (dx, dh_prev) = self.backward_step(&caches[t], &dh);
            dxs[t] = dx;
            dh_next = dh_prev;
        }
        dxs
    }

    /// Visits trainable parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_ih);
        f(&mut self.w_hh);
        f(&mut self.b_ih);
        f(&mut self.b_hh);
    }

    /// Zeroes parameter gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    #[test]
    fn step_shapes_and_bounds() {
        let mut r = seeded(1);
        let cell = GruCell::new(5, 4, &mut r);
        let x = rng::normal(&mut r, &[5], 0.0, 1.0);
        let (h, _) = cell.step(&x, &Tensor::zeros(&[4]));
        assert_eq!(h.len(), 4);
        // h is a convex mix of tanh output and previous state → within [-1,1]
        assert!(h.max_abs() <= 1.0);
    }

    #[test]
    fn zero_update_gate_keeps_candidate() {
        // With z ≈ 0 (large negative z bias), h ≈ n.
        let mut r = seeded(2);
        let mut cell = GruCell::new(2, 3, &mut r);
        for v in &mut cell.b_ih.value.data_mut()[3..6] {
            *v = -50.0;
        }
        let x = rng::normal(&mut r, &[2], 0.0, 1.0);
        let h_prev = rng::normal(&mut r, &[3], 0.0, 1.0);
        let (h, cache) = cell.step(&x, &h_prev);
        for (a, b) in h.data().iter().zip(cache.n.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn full_update_gate_keeps_state() {
        // With z ≈ 1 (large positive z bias), h ≈ h_prev.
        let mut r = seeded(3);
        let mut cell = GruCell::new(2, 3, &mut r);
        for v in &mut cell.b_ih.value.data_mut()[3..6] {
            *v = 50.0;
        }
        let x = rng::normal(&mut r, &[2], 0.0, 1.0);
        let h_prev = rng::normal(&mut r, &[3], 0.0, 0.5);
        let (h, _) = cell.step(&x, &h_prev);
        for (a, b) in h.data().iter().zip(h_prev.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    /// BPTT gradient check: loss = 0.5·Σ_t ||h_t||².
    #[test]
    fn bptt_gradient_check() {
        let mut r = seeded(4);
        let mut cell = GruCell::new(3, 2, &mut r);
        let xs: Vec<Tensor> = (0..3)
            .map(|_| rng::normal(&mut r, &[3], 0.0, 1.0))
            .collect();

        let loss = |cell: &GruCell, xs: &[Tensor]| -> f32 {
            let (hs, _) = cell.forward_sequence(xs);
            hs.iter().map(|h| 0.5 * h.norm_sq()).sum()
        };

        let (hs, caches) = cell.forward_sequence(&xs);
        let dhs: Vec<Tensor> = hs.clone();
        cell.zero_grads();
        let dxs = cell.backward_sequence(&caches, &dhs);

        let eps = 1e-3f32;
        for idx in [0usize, 5, 11] {
            let mut cp = cell.clone();
            cp.w_ih.value.data_mut()[idx] += eps;
            let fp = loss(&cp, &xs);
            let mut cm = cell.clone();
            cm.w_ih.value.data_mut()[idx] -= eps;
            let fm = loss(&cm, &xs);
            let fd = (fp - fm) / (2.0 * eps);
            let an = cell.w_ih.grad.data()[idx];
            assert!((fd - an).abs() < 2e-2, "w_ih[{idx}]: fd {fd} vs {an}");
        }
        for idx in [0usize, 3, 7] {
            let mut cp = cell.clone();
            cp.w_hh.value.data_mut()[idx] += eps;
            let fp = loss(&cp, &xs);
            let mut cm = cell.clone();
            cm.w_hh.value.data_mut()[idx] -= eps;
            let fm = loss(&cm, &xs);
            let fd = (fp - fm) / (2.0 * eps);
            let an = cell.w_hh.grad.data()[idx];
            assert!((fd - an).abs() < 2e-2, "w_hh[{idx}]: fd {fd} vs {an}");
        }
        for idx in 0..3 {
            let mut xp = xs.clone();
            xp[0].data_mut()[idx] += eps;
            let fp = loss(&cell, &xp);
            let mut xm = xs.clone();
            xm[0].data_mut()[idx] -= eps;
            let fm = loss(&cell, &xm);
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - dxs[0].data()[idx]).abs() < 2e-2);
        }
    }
}
