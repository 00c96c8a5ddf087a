//! LSTM cell with backpropagation-through-time.
//!
//! §II-B: "LSTM layer consists of an input-to-hidden matrix and a
//! hidden-to-hidden matrix and takes current step embedding vector and
//! previous step hidden vector as inputs." Gate ordering throughout the
//! workspace is **i, f, g, o** (input, forget, update/candidate, output),
//! matching the paper's §IV-B dataflow description.

use crate::activation::Activation;
use crate::layer::{outer_accumulate, Param};
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// Number of LSTM gates.
pub const LSTM_GATES: usize = 4;

/// Hidden/cell state pair.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state `h` of length `hidden`.
    pub h: Tensor,
    /// Cell state `c` of length `hidden`.
    pub c: Tensor,
}

impl LstmState {
    /// All-zero state for a given hidden size.
    pub fn zeros(hidden: usize) -> Self {
        Self {
            h: Tensor::zeros(&[hidden]),
            c: Tensor::zeros(&[hidden]),
        }
    }
}

/// Per-step cache for BPTT.
#[derive(Debug, Clone)]
pub struct LstmStepCache {
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    i: Tensor,
    f: Tensor,
    g: Tensor,
    o: Tensor,
    c: Tensor,
}

/// An LSTM cell: `W_ih ∈ R^{4h×d}`, `W_hh ∈ R^{4h×h}`, bias `∈ R^{4h}`.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Input-to-hidden weights.
    pub w_ih: Param,
    /// Hidden-to-hidden weights.
    pub w_hh: Param,
    /// Gate bias.
    pub bias: Param,
    input: usize,
    hidden: usize,
}

impl LstmCell {
    /// Creates an LSTM cell with LeCun-uniform weights and the customary
    /// forget-gate bias of 1.
    pub fn new(input: usize, hidden: usize, r: &mut Rng) -> Self {
        let w_ih = crate::init::lecun_uniform(r, &[LSTM_GATES * hidden, input], input);
        let w_hh = crate::init::lecun_uniform(r, &[LSTM_GATES * hidden, hidden], hidden);
        let mut bias = Tensor::zeros(&[LSTM_GATES * hidden]);
        for v in &mut bias.data_mut()[hidden..2 * hidden] {
            *v = 1.0; // forget-gate bias
        }
        Self {
            w_ih: Param::new(w_ih),
            w_hh: Param::new(w_hh),
            bias: Param::new(bias),
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

    /// Raw pre-activations for all four gates: `W_ih x + W_hh h + b`,
    /// length `4h`. This is what the DUET Speculator approximates gate by
    /// gate.
    pub fn gate_preactivations(&self, x: &Tensor, h_prev: &Tensor) -> Tensor {
        let mut a = ops::gemv(&self.w_ih.value, x);
        let ah = ops::gemv(&self.w_hh.value, h_prev);
        ops::axpy(1.0, &ah, &mut a);
        ops::axpy(1.0, &self.bias.value, &mut a);
        a
    }

    /// One forward step, returning the new state and a BPTT cache.
    ///
    /// # Panics
    ///
    /// Panics if `x` or the state have the wrong length.
    pub fn step(&self, x: &Tensor, state: &LstmState) -> (LstmState, LstmStepCache) {
        assert_eq!(x.len(), self.input, "input length mismatch");
        assert_eq!(state.h.len(), self.hidden, "state length mismatch");
        let a = self.gate_preactivations(x, &state.h);
        let (next, [i, f, g, o]) = Self::combine(&a, state);
        let cache = LstmStepCache {
            x: x.clone(),
            h_prev: state.h.clone(),
            c_prev: state.c.clone(),
            i,
            f,
            g,
            o,
            c: next.c.clone(),
        };
        (next, cache)
    }

    /// The cell's gate arithmetic on pre-activations `a = [i; f; g; o]`
    /// (`[4h]`, however they were computed): `c = σ(f) ⊙ c_prev + σ(i) ⊙
    /// tanh(g)` and `h = σ(o) ⊙ tanh(c)`. Returns the new state and the
    /// activated gates `[i, f, g, o]`. [`LstmCell::step`] runs it on its
    /// exact pre-activations, a dual-module cell on its mixed ones.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not four times the state's length.
    pub fn combine(a: &Tensor, state: &LstmState) -> (LstmState, [Tensor; LSTM_GATES]) {
        let h = state.h.len();
        assert_eq!(a.len(), LSTM_GATES * h, "pre-activation length mismatch");
        let slice = |k: usize| Tensor::from_vec(a.data()[k * h..(k + 1) * h].to_vec(), &[h]);
        let i = slice(0).map(|v| Activation::Sigmoid.apply_scalar(v));
        let f = slice(1).map(|v| Activation::Sigmoid.apply_scalar(v));
        let g = slice(2).map(|v| v.tanh());
        let o = slice(3).map(|v| Activation::Sigmoid.apply_scalar(v));

        let c = ops::add(&ops::hadamard(&f, &state.c), &ops::hadamard(&i, &g));
        let h_new = ops::hadamard(&o, &c.map(|v| v.tanh()));
        (LstmState { h: h_new, c }, [i, f, g, o])
    }

    /// One BPTT step. `dh`/`dc` are gradients flowing into this step's
    /// outputs; returns `(dx, dh_prev, dc_prev)` and accumulates parameter
    /// gradients.
    pub fn backward_step(
        &mut self,
        cache: &LstmStepCache,
        dh: &Tensor,
        dc_in: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let h = self.hidden;
        let tanh_c = cache.c.map(|v| v.tanh());

        // dc = dc_in + dh ⊙ o ⊙ (1 − tanh²(c))
        let mut dc = dc_in.clone();
        let dtanh = tanh_c.map(|t| 1.0 - t * t);
        let dh_o_dtanh = ops::hadamard(&ops::hadamard(dh, &cache.o), &dtanh);
        ops::axpy(1.0, &dh_o_dtanh, &mut dc);

        let d_o = ops::hadamard(dh, &tanh_c);
        let d_i = ops::hadamard(&dc, &cache.g);
        let d_f = ops::hadamard(&dc, &cache.c_prev);
        let d_g = ops::hadamard(&dc, &cache.i);
        let dc_prev = ops::hadamard(&dc, &cache.f);

        // pre-activation grads (sigmoid: s(1−s); tanh: 1−g²)
        let da_i = ops::hadamard(&d_i, &cache.i.map(|s| s * (1.0 - s)));
        let da_f = ops::hadamard(&d_f, &cache.f.map(|s| s * (1.0 - s)));
        let da_g = ops::hadamard(&d_g, &cache.g.map(|g| 1.0 - g * g));
        let da_o = ops::hadamard(&d_o, &cache.o.map(|s| s * (1.0 - s)));

        let mut da = Tensor::zeros(&[LSTM_GATES * h]);
        da.data_mut()[0..h].copy_from_slice(da_i.data());
        da.data_mut()[h..2 * h].copy_from_slice(da_f.data());
        da.data_mut()[2 * h..3 * h].copy_from_slice(da_g.data());
        da.data_mut()[3 * h..4 * h].copy_from_slice(da_o.data());

        // parameter grads: dW_ih += da ⊗ x, dW_hh += da ⊗ h_prev, db += da
        outer_accumulate(&mut self.w_ih.grad, da.data(), cache.x.data());
        outer_accumulate(&mut self.w_hh.grad, da.data(), cache.h_prev.data());
        ops::axpy(1.0, &da, &mut self.bias.grad);

        // dx = W_ihᵀ da, dh_prev = W_hhᵀ da
        let dx = ops::gemv_t(&self.w_ih.value, &da);
        let dh_prev = ops::gemv_t(&self.w_hh.value, &da);
        (dx, dh_prev, dc_prev)
    }

    /// Runs a full sequence from a zero state, returning hidden states per
    /// step and the caches for [`LstmCell::backward_sequence`].
    pub fn forward_sequence(&self, xs: &[Tensor]) -> (Vec<LstmState>, Vec<LstmStepCache>) {
        let mut state = LstmState::zeros(self.hidden);
        let mut states = Vec::with_capacity(xs.len());
        let mut caches = Vec::with_capacity(xs.len());
        for x in xs {
            let (next, cache) = self.step(x, &state);
            state = next.clone();
            states.push(next);
            caches.push(cache);
        }
        (states, caches)
    }

    /// Full BPTT through a sequence given per-step gradients on the hidden
    /// states ("we sum the loss of all time-steps in back-propagation",
    /// §II-B). Returns per-step input gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dhs.len() != caches.len()`.
    pub fn backward_sequence(&mut self, caches: &[LstmStepCache], dhs: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(caches.len(), dhs.len(), "one dh per step required");
        let h = self.hidden;
        let mut dh_next = Tensor::zeros(&[h]);
        let mut dc_next = Tensor::zeros(&[h]);
        let mut dxs = vec![Tensor::zeros(&[self.input]); caches.len()];
        for t in (0..caches.len()).rev() {
            let mut dh = dhs[t].clone();
            ops::axpy(1.0, &dh_next, &mut dh);
            let (dx, dh_prev, dc_prev) = self.backward_step(&caches[t], &dh, &dc_next);
            dxs[t] = dx;
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        dxs
    }

    /// Visits trainable parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_ih);
        f(&mut self.w_hh);
        f(&mut self.bias);
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
        let cell = LstmCell::new(6, 4, &mut r);
        let x = rng::normal(&mut r, &[6], 0.0, 1.0);
        let (s, _) = cell.step(&x, &LstmState::zeros(4));
        assert_eq!(s.h.len(), 4);
        assert_eq!(s.c.len(), 4);
        // h = o ⊙ tanh(c) is bounded by 1
        assert!(s.h.max_abs() <= 1.0);
    }

    #[test]
    fn forget_gate_bias_initialized_to_one() {
        let mut r = seeded(2);
        let cell = LstmCell::new(3, 5, &mut r);
        assert!(cell.bias.value.data()[5..10].iter().all(|&v| v == 1.0));
        assert!(cell.bias.value.data()[..5].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sequence_carries_state() {
        let mut r = seeded(3);
        let cell = LstmCell::new(2, 3, &mut r);
        let xs: Vec<Tensor> = (0..4)
            .map(|_| rng::normal(&mut r, &[2], 0.0, 1.0))
            .collect();
        let (states, caches) = cell.forward_sequence(&xs);
        assert_eq!(states.len(), 4);
        assert_eq!(caches.len(), 4);
        // replay manually and compare final state
        let mut s = LstmState::zeros(3);
        for x in &xs {
            s = cell.step(x, &s).0;
        }
        assert_eq!(s.h, states[3].h);
        assert_eq!(s.c, states[3].c);
    }

    /// Full BPTT gradient check on a small LSTM: loss = 0.5·Σ_t ||h_t||².
    #[test]
    fn bptt_gradient_check() {
        let mut r = seeded(4);
        let mut cell = LstmCell::new(3, 2, &mut r);
        let xs: Vec<Tensor> = (0..3)
            .map(|_| rng::normal(&mut r, &[3], 0.0, 1.0))
            .collect();

        let loss = |cell: &LstmCell, xs: &[Tensor]| -> f32 {
            let (states, _) = cell.forward_sequence(xs);
            states.iter().map(|s| 0.5 * s.h.norm_sq()).sum()
        };

        let (states, caches) = cell.forward_sequence(&xs);
        let dhs: Vec<Tensor> = states.iter().map(|s| s.h.clone()).collect();
        cell.zero_grads();
        let dxs = cell.backward_sequence(&caches, &dhs);

        let eps = 1e-3f32;
        // check a few W_ih entries
        for idx in [0usize, 7, 15] {
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
        // check a W_hh entry and a bias entry
        for idx in [0usize, 3] {
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
        // check input gradient at t=0
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

    #[test]
    fn gate_preactivations_length() {
        let mut r = seeded(5);
        let cell = LstmCell::new(4, 6, &mut r);
        let a = cell.gate_preactivations(&Tensor::zeros(&[4]), &Tensor::zeros(&[6]));
        assert_eq!(a.len(), 24);
        // zero inputs → pre-activations equal the bias
        assert_eq!(a, cell.bias.value);
    }
}
