//! Dual-module LSTM and GRU cells (§II-B, §IV-B).
//!
//! Each recurrent cell gets **two** approximate modules — one for the
//! input-to-hidden matrix and one for the hidden-to-hidden matrix — whose
//! outputs are summed into approximate gate pre-activations. Switching is
//! per gate: sigmoid gates (i, f, o / r, z) use the saturation rule,
//! tanh gates (g / n) likewise with their own threshold.
//!
//! The crucial memory effect (§IV-B): a weight **row** is fetched from
//! DRAM only when its output neuron is sensitive.
//!
//! After the mix, a dual cell runs its teacher's own gate arithmetic,
//! [`LstmCell::combine`] or [`GruCell::combine`], the functions
//! [`LstmCell::step`] and [`GruCell::step`] run on their exact
//! pre-activations; the dense twin of a dual cell is its teacher's
//! `step`. Never switching, the mixed pre-activations are the exact ones
//! accumulated in the engine's element order (bias first), which agrees
//! with the teacher's blocked `ops::gemv` to rounding.

use crate::approx::ApproxLinear;
use crate::dual_proj::DualProjection;
use crate::engine::{MacMode, SpeculationEngine};
use crate::metrics::SavingsReport;
use crate::switching::{SwitchingMap, SwitchingPolicy};
use duet_nn::lstm::LstmState;
use duet_nn::{Activation, GruCell, LstmCell};
use duet_tensor::rng::Rng;
use duet_tensor::{ops, Tensor};

/// Per-gate thresholds for recurrent switching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RnnThresholds {
    /// θ for sigmoid gates (insensitive iff `|y'| > theta_sigmoid`).
    pub theta_sigmoid: f32,
    /// θ for tanh gates.
    pub theta_tanh: f32,
}

impl RnnThresholds {
    /// Thresholds that never switch (dense baseline).
    pub fn never_switch() -> Self {
        Self {
            theta_sigmoid: f32::INFINITY,
            theta_tanh: f32::INFINITY,
        }
    }
}

/// Result of one dual-module recurrent step.
#[derive(Debug, Clone)]
pub struct DualRnnStepOutput {
    /// New hidden state.
    pub h: Tensor,
    /// New cell state (LSTM only; zeros for GRU).
    pub c: Tensor,
    /// Per-gate switching maps in gate order.
    pub gate_maps: Vec<SwitchingMap>,
    /// Operation / byte accounting for the step.
    pub report: SavingsReport,
}

/// An LSTM cell with distilled approximate modules: an input-to-hidden
/// and a hidden-to-hidden [`DualProjection`] whose row segments chain
/// per gate.
#[derive(Debug, Clone)]
pub struct DualLstmCell {
    proj_ih: DualProjection, // [4h, d], carries the gate bias
    proj_hh: DualProjection, // [4h, h], zero bias
    input: usize,
    hidden: usize,
}

impl DualLstmCell {
    /// Distills approximate modules from a trained [`LstmCell`].
    pub fn learn(cell: &LstmCell, reduced_dim: usize, samples: usize, rng: &mut Rng) -> Self {
        let (d, h) = (cell.input_size(), cell.hidden_size());

        let k_ih = reduced_dim.min(d);
        let k_hh = reduced_dim.min(h);
        // The input-side student carries the gate bias; the hidden-side
        // student is purely linear so the sum matches the teacher. The
        // rows are dense (no static pruning in the recurrent teachers),
        // so the §IV-B saving is whole skipped rows.
        let proj_ih = DualProjection::learn(
            &cell.w_ih.value,
            &cell.bias.value,
            MacMode::Dense,
            k_ih,
            samples,
            rng,
        );
        let proj_hh = DualProjection::learn(
            &cell.w_hh.value,
            &Tensor::zeros(&[4 * h]),
            MacMode::Dense,
            k_hh,
            samples,
            rng,
        );
        Self {
            proj_ih,
            proj_hh,
            input: d,
            hidden: h,
        }
    }

    /// Hidden size `h`.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Input size `d`.
    pub fn input_size(&self) -> usize {
        self.input
    }

    /// The input-to-hidden approximate module.
    pub fn approx_ih(&self) -> &ApproxLinear {
        self.proj_ih.approx()
    }

    /// The hidden-to-hidden approximate module.
    pub fn approx_hh(&self) -> &ApproxLinear {
        self.proj_hh.approx()
    }

    /// Replaces both approximate modules (fault injection / corrupted-
    /// speculator studies); the accurate weights are untouched.
    ///
    /// # Panics
    ///
    /// Panics if the replacements' dimensions disagree with the cell.
    pub fn set_approx(&mut self, approx_ih: ApproxLinear, approx_hh: ApproxLinear) {
        self.proj_ih.set_approx(approx_ih);
        self.proj_hh.set_approx(approx_hh);
    }

    /// Approximate gate pre-activations `a' = A_ih(x) + A_hh(h)`.
    pub fn approx_preactivations(&self, x: &Tensor, h_prev: &Tensor) -> Tensor {
        let mut a = self.proj_ih.speculate(x);
        let ah = self.proj_hh.speculate(h_prev);
        ops::axpy(1.0, &ah, &mut a);
        a
    }

    /// One dual-module step: speculate per gate, recompute sensitive rows
    /// exactly, mix, and run [`LstmCell::combine`] on the mixed
    /// pre-activations.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn step(
        &self,
        x: &Tensor,
        state: &LstmState,
        thresholds: &RnnThresholds,
    ) -> DualRnnStepOutput {
        assert_eq!(x.len(), self.input, "input length mismatch");
        assert_eq!(state.h.len(), self.hidden, "state length mismatch");
        let h = self.hidden;

        let mut engine = SpeculationEngine::new();
        let mut a = self.approx_preactivations(x, &state.h);

        // Gate policies in i, f, g, o order.
        let policies = [
            SwitchingPolicy::sigmoid(thresholds.theta_sigmoid),
            SwitchingPolicy::sigmoid(thresholds.theta_sigmoid),
            SwitchingPolicy::tanh(thresholds.theta_tanh),
            SwitchingPolicy::sigmoid(thresholds.theta_sigmoid),
        ];

        let xd = x.data();
        let hd = state.h.data();
        let mut gate_maps = Vec::with_capacity(4);
        for (gi, policy) in policies.iter().enumerate() {
            let gate = &a.data()[gi * h..(gi + 1) * h];
            let map = engine.speculate_slice(policy, gate);
            // A weight row is fetched only when its gate lane is
            // sensitive. Gate lane `r` maps to weight/bias row
            // `gi * h + r`; the two projections' segments chain
            // bias -> W_ih·x -> W_hh·h exactly as the old closure did.
            let segments = [self.proj_ih.segment(xd), self.proj_hh.segment(hd)];
            engine.execute_rows_into(
                &map,
                &mut a.data_mut()[gi * h..(gi + 1) * h],
                gi * h,
                self.proj_ih.bias().data(),
                &segments,
            );
            gate_maps.push(map);
        }

        let (next, _) = LstmCell::combine(&a, state);

        let report = engine.finish((self.proj_ih.costs() + self.proj_hh.costs()).engine_costs());

        DualRnnStepOutput {
            h: next.h,
            c: next.c,
            gate_maps,
            report,
        }
    }
}

/// A GRU cell with distilled approximate modules: two
/// [`DualProjection`]s (input-to-hidden with `b_ih`, hidden-to-hidden
/// with `b_hh`) whose sensitive lanes recompute both halves of a gate's
/// sum.
#[derive(Debug, Clone)]
pub struct DualGruCell {
    proj_ih: DualProjection, // [3h, d], bias b_ih
    proj_hh: DualProjection, // [3h, h], bias b_hh
    input: usize,
    hidden: usize,
}

impl DualGruCell {
    /// Distills approximate modules from a trained [`GruCell`].
    pub fn learn(cell: &GruCell, reduced_dim: usize, samples: usize, rng: &mut Rng) -> Self {
        let (d, h) = (cell.input_size(), cell.hidden_size());
        let proj_ih = DualProjection::learn(
            &cell.w_ih.value,
            &cell.b_ih.value,
            MacMode::Dense,
            reduced_dim.min(d),
            samples,
            rng,
        );
        let proj_hh = DualProjection::learn(
            &cell.w_hh.value,
            &cell.b_hh.value,
            MacMode::Dense,
            reduced_dim.min(h),
            samples,
            rng,
        );
        Self {
            proj_ih,
            proj_hh,
            input: d,
            hidden: h,
        }
    }

    /// Hidden size `h`.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// The input-to-hidden approximate module.
    pub fn approx_ih(&self) -> &ApproxLinear {
        self.proj_ih.approx()
    }

    /// The hidden-to-hidden approximate module.
    pub fn approx_hh(&self) -> &ApproxLinear {
        self.proj_hh.approx()
    }

    /// Replaces both approximate modules (fault injection / corrupted-
    /// speculator studies); the accurate weights are untouched.
    ///
    /// # Panics
    ///
    /// Panics if the replacements' dimensions disagree with the cell.
    pub fn set_approx(&mut self, approx_ih: ApproxLinear, approx_hh: ApproxLinear) {
        self.proj_ih.set_approx(approx_ih);
        self.proj_hh.set_approx(approx_hh);
    }

    /// One dual-module GRU step. Gates r and z use the sigmoid rule; the
    /// candidate n uses the tanh rule on its (r-gated) approximate
    /// pre-activation. [`GruCell::combine`] then runs on the mixed
    /// pre-activations of both streams.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn step(
        &self,
        x: &Tensor,
        h_prev: &Tensor,
        thresholds: &RnnThresholds,
    ) -> DualRnnStepOutput {
        assert_eq!(x.len(), self.input, "input length mismatch");
        assert_eq!(h_prev.len(), self.hidden, "state length mismatch");
        let h = self.hidden;

        let mut engine = SpeculationEngine::new();
        let mut ax = self.proj_ih.speculate(x);
        let mut ah = self.proj_hh.speculate(h_prev);

        let mut gate_maps = Vec::with_capacity(3);
        // One gate's approximate pre-activation at a time.
        let mut pre = vec![0.0f32; h];

        // r and z gates: switch on the summed approximate pre-activation.
        // A sensitive lane recomputes *both* halves of the sum exactly
        // (one row each of W_ih and W_hh); the engine counts the lane as
        // one exact output.
        for gi in 0..2 {
            let policy = SwitchingPolicy::sigmoid(thresholds.theta_sigmoid);
            for (i, p) in pre.iter_mut().enumerate() {
                *p = ax.data()[gi * h + i] + ah.data()[gi * h + i];
            }
            let map = engine.speculate_slice(&policy, &pre);
            let (axd, ahd) = (ax.data_mut(), ah.data_mut());
            engine.execute(&map, |rr, kernel| {
                let row = gi * h + rr;
                axd[row] = self.proj_ih.dot_row(kernel, row, x.data());
                ahd[row] = self.proj_hh.dot_row(kernel, row, h_prev.data());
            });
            gate_maps.push(map);
        }

        // Candidate gate: approximate pre-activation includes the r-gating
        // on the hidden part (r is already mixed/accurate where needed).
        for (i, p) in pre.iter_mut().enumerate() {
            let r_gate = Activation::Sigmoid.apply_scalar(ax.data()[i] + ah.data()[i]);
            *p = ax.data()[2 * h + i] + r_gate * ah.data()[2 * h + i];
        }
        let n_policy = SwitchingPolicy::tanh(thresholds.theta_tanh);
        let n_map = engine.speculate_slice(&n_policy, &pre);
        let (axd, ahd) = (ax.data_mut(), ah.data_mut());
        engine.execute(&n_map, |rr, kernel| {
            let row = 2 * h + rr;
            axd[row] = self.proj_ih.dot_row(kernel, row, x.data());
            ahd[row] = self.proj_hh.dot_row(kernel, row, h_prev.data());
        });
        gate_maps.push(n_map);

        let (h_new, ..) = GruCell::combine(&ax, &ah, h_prev);

        let report = engine.finish((self.proj_ih.costs() + self.proj_hh.costs()).engine_costs());

        DualRnnStepOutput {
            h: h_new,
            c: Tensor::zeros(&[h]),
            gate_maps,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    #[test]
    fn lstm_never_switch_matches_dense() {
        let mut r = seeded(1);
        let cell = LstmCell::new(16, 12, &mut r);
        let dual = DualLstmCell::learn(&cell, 12, 300, &mut r);
        let x = rng::normal(&mut r, &[16], 0.0, 1.0);
        let state = LstmState::zeros(12);
        let out = dual.step(&x, &state, &RnnThresholds::never_switch());
        let (dense, _) = cell.step(&x, &state);
        for (a, b) in out.h.data().iter().zip(dense.h.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        assert_eq!(out.report.outputs_exact, 48);
    }

    #[test]
    fn lstm_switching_saves_rows_with_small_state_error() {
        let mut r = seeded(3);
        let mut cell = LstmCell::new(32, 32, &mut r);
        // Scale weights up to emulate a trained LSTM whose gates saturate
        // (Fig. 2 shows large saturated fractions in trained RNNs).
        cell.w_ih.value.map_inplace(|v| v * 4.0);
        cell.w_hh.value.map_inplace(|v| v * 4.0);
        let dual = DualLstmCell::learn(&cell, 24, 500, &mut r);
        let thresholds = RnnThresholds {
            theta_sigmoid: 2.5,
            theta_tanh: 2.0,
        };
        let mut state = LstmState::zeros(32);
        let mut dense_state = LstmState::zeros(32);
        let mut total = SavingsReport::new();
        for _ in 0..5 {
            let x = rng::normal(&mut r, &[32], 0.0, 1.5);
            let out = dual.step(&x, &state, &thresholds);
            dense_state = cell.step(&x, &dense_state).0;
            state = LstmState {
                h: out.h.clone(),
                c: out.c.clone(),
            };
            total += out.report;
        }
        // rows skipped → weight fetches reduced
        assert!(total.weight_access_reduction() >= 1.0);
        // states stay close to the dense trajectory
        let err = ops::sub(&state.h, &dense_state.h).norm_sq();
        let norm = dense_state.h.norm_sq().max(1e-6);
        assert!(err / norm < 0.5, "trajectory divergence {}", err / norm);
    }

    #[test]
    fn gru_never_switch_matches_dense() {
        let mut r = seeded(4);
        let cell = GruCell::new(10, 8, &mut r);
        let dual = DualGruCell::learn(&cell, 8, 300, &mut r);
        let x = rng::normal(&mut r, &[10], 0.0, 1.0);
        let h_prev = rng::normal(&mut r, &[8], 0.0, 0.5);
        let out = dual.step(&x, &h_prev, &RnnThresholds::never_switch());
        let (dense, _) = cell.step(&x, &h_prev);
        for (a, b) in out.h.data().iter().zip(dense.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn gate_maps_have_gate_lengths() {
        let mut r = seeded(6);
        let cell = LstmCell::new(8, 6, &mut r);
        let dual = DualLstmCell::learn(&cell, 6, 150, &mut r);
        let out = dual.step(
            &Tensor::zeros(&[8]),
            &LstmState::zeros(6),
            &RnnThresholds::never_switch(),
        );
        assert_eq!(out.gate_maps.len(), 4);
        assert!(out.gate_maps.iter().all(|m| m.len() == 6));
    }
}
