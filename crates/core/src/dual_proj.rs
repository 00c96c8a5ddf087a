//! [`DualProjection`] — speculation as a property of a *projection*.
//!
//! Every dual-module variant in this crate is, structurally, one or more
//! speculated GEMVs: an accurate weight matrix `[n, d]` with a bias, a
//! distilled INT4 approximate module and a [`SpeculationEngine`] call
//! site. `DualProjection` owns that bundle once, so a layer is only the
//! *composition* of its projections plus whatever dense glue
//! (activations, gate combines, softmax, im2col) sits between them:
//!
//! * [`crate::DualModuleLayer`] is one projection + an activation,
//! * [`crate::DualConvLayer`] is one projection batched over im2col
//!   columns ([`DualProjection::forward_columns`]) + ReLU with the
//!   §III-C correction,
//! * [`crate::DualLstmCell`] / [`crate::DualGruCell`] are an
//!   input-to-hidden and a hidden-to-hidden projection whose row
//!   segments chain per gate,
//! * [`crate::DualAttention`] is four projections (Q/K/V/output) around
//!   a dense softmax mixer,
//! * [`crate::DualFfn`] is an expand projection with a GELU band and a
//!   contract projection with a magnitude band.
//!
//! The per-row arithmetic runs in element order — through the engine's
//! [`RowKernel`] for FF and RNN rows, and through its column executor
//! ([`SpeculationEngine::execute_columns_into`]) for im2col columns,
//! which reproduces the kernel's `Gather::Column` dot bit for bit — so
//! every layer's outputs are bitwise stable.

use crate::approx::{ApproxConfig, ApproxLinear};
use crate::distill;
use crate::engine::{
    EngineCosts, ExecutorWeightBytes, Gather, MacMode, RowKernel, RowSegment, SpeculationEngine,
};
use crate::switching::{SwitchingMap, SwitchingPolicy};
use duet_tensor::rng::Rng;
use duet_tensor::Tensor;

/// Speculator-side constants of one projection — the per-projection
/// slice of [`EngineCosts`]. Additive: a layer made of several
/// projections sums their costs; a sequence workload scales them by the
/// number of positions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProjectionCosts {
    /// MACs a dense single-module execution of this projection issues.
    pub dense_macs: u64,
    /// Weight bytes a dense execution fetches (INT16 weights).
    pub dense_weight_bytes: u64,
    /// Approximate-module MACs (INT4 over the projected input).
    pub speculator_macs: u64,
    /// Additions of the ternary projection.
    pub speculator_adds: u64,
    /// Approximate-module weight bytes.
    pub speculator_weight_bytes: u64,
}

impl ProjectionCosts {
    /// The costs of `invocations` runs of this projection (e.g. one per
    /// sequence position).
    pub fn times(self, invocations: u64) -> Self {
        Self {
            dense_macs: self.dense_macs * invocations,
            dense_weight_bytes: self.dense_weight_bytes * invocations,
            speculator_macs: self.speculator_macs * invocations,
            speculator_adds: self.speculator_adds * invocations,
            speculator_weight_bytes: self.speculator_weight_bytes * invocations,
        }
    }

    /// Converts to the [`EngineCosts`] handed to
    /// [`SpeculationEngine::finish`], with the memory-bound
    /// row-fetch accounting every projection-backed layer uses
    /// ([`ExecutorWeightBytes::CountedWords`]).
    pub fn engine_costs(self) -> EngineCosts {
        EngineCosts {
            dense_macs: self.dense_macs,
            dense_weight_bytes: self.dense_weight_bytes,
            speculator_macs: self.speculator_macs,
            speculator_adds: self.speculator_adds,
            speculator_weight_bytes: self.speculator_weight_bytes,
            executor_weight_bytes: ExecutorWeightBytes::CountedWords,
        }
    }

    /// The [`EngineCosts`] of one [`DualProjection::forward_columns`]
    /// call over `positions` columns: MACs and adds scale by the
    /// positions, but the weights are loaded once and reused across them
    /// (the compute-bound CONV model, [`ExecutorWeightBytes::Fixed`]).
    pub fn column_engine_costs(self, positions: u64) -> EngineCosts {
        EngineCosts {
            dense_macs: self.dense_macs * positions,
            speculator_macs: self.speculator_macs * positions,
            speculator_adds: self.speculator_adds * positions,
            executor_weight_bytes: ExecutorWeightBytes::Fixed(self.dense_weight_bytes),
            ..self.engine_costs()
        }
    }
}

impl std::ops::Add for ProjectionCosts {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            dense_macs: self.dense_macs + rhs.dense_macs,
            dense_weight_bytes: self.dense_weight_bytes + rhs.dense_weight_bytes,
            speculator_macs: self.speculator_macs + rhs.speculator_macs,
            speculator_adds: self.speculator_adds + rhs.speculator_adds,
            speculator_weight_bytes: self.speculator_weight_bytes + rhs.speculator_weight_bytes,
        }
    }
}

/// One speculated GEMV: accurate weights `[n, d]` + bias `[n]` + the
/// distilled INT4 speculator + the MAC-issue semantics of its rows.
///
/// See the module docs for how layers compose projections; see
/// [`DualProjection::forward`] for the single-projection lifecycle.
#[derive(Debug, Clone)]
pub struct DualProjection {
    weight: Tensor, // [n, d]
    bias: Tensor,   // [n]
    approx: ApproxLinear,
    mode: MacMode,
}

impl DualProjection {
    /// Wraps accurate weights and a pre-distilled approximate module.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn new(weight: Tensor, bias: Tensor, approx: ApproxLinear, mode: MacMode) -> Self {
        assert_eq!(weight.shape().rank(), 2, "weight must be [n, d]");
        assert_eq!(weight.shape().dim(0), bias.len(), "bias length mismatch");
        assert_eq!(
            weight.shape().dim(1),
            approx.input_dim(),
            "approximate module input dim mismatch"
        );
        assert_eq!(
            weight.shape().dim(0),
            approx.output_dim(),
            "approximate module output dim mismatch"
        );
        Self {
            weight,
            bias,
            approx,
            mode,
        }
    }

    /// Distills an INT4 speculator from the accurate weights (standard-
    /// normal calibration inputs) and wraps both. `reduced_dim` is the
    /// projection size `k`, `samples` the distillation sample count.
    pub fn learn(
        weight: &Tensor,
        bias: &Tensor,
        mode: MacMode,
        reduced_dim: usize,
        samples: usize,
        rng: &mut Rng,
    ) -> Self {
        let cfg = ApproxConfig::paper_default(reduced_dim);
        let approx = distill::distill_linear(weight, bias, cfg, samples, rng);
        Self::new(weight.clone(), bias.clone(), approx, mode)
    }

    /// Distills using recorded calibration activations `[s, d]`.
    pub fn learn_from_activations(
        weight: &Tensor,
        bias: &Tensor,
        mode: MacMode,
        reduced_dim: usize,
        activations: &Tensor,
        rng: &mut Rng,
    ) -> Self {
        let cfg = ApproxConfig::paper_default(reduced_dim);
        let approx = distill::distill_linear_from_activations(weight, bias, cfg, activations, rng);
        Self::new(weight.clone(), bias.clone(), approx, mode)
    }

    /// The accurate weight matrix `[n, d]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector `[n]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The approximate module.
    pub fn approx(&self) -> &ApproxLinear {
        &self.approx
    }

    /// MAC-issue semantics of this projection's rows.
    pub fn mode(&self) -> MacMode {
        self.mode
    }

    /// Replaces the approximate module — the write-back half of fault
    /// injection and speculator-corruption studies (the accurate weights
    /// are untouched).
    ///
    /// # Panics
    ///
    /// Panics if the replacement's dimensions disagree.
    pub fn set_approx(&mut self, approx: ApproxLinear) {
        assert_eq!(approx.input_dim(), self.input_dim(), "input dim mismatch");
        assert_eq!(
            approx.output_dim(),
            self.output_dim(),
            "output dim mismatch"
        );
        self.approx = approx;
    }

    /// Output dimension `n`.
    pub fn output_dim(&self) -> usize {
        self.weight.shape().dim(0)
    }

    /// Input dimension `d`.
    pub fn input_dim(&self) -> usize {
        self.weight.shape().dim(1)
    }

    /// Runs the speculator: approximate pre-activations `[n]`.
    pub fn speculate(&self, x: &Tensor) -> Tensor {
        self.approx.forward(x)
    }

    /// This projection as one reduction segment of an accurate row —
    /// composed layers (RNN gates) chain several projections' segments
    /// into one [`SpeculationEngine::execute_rows_into`] call.
    pub fn segment<'a>(&'a self, x: &'a [f32]) -> RowSegment<'a> {
        RowSegment {
            weights: self.weight.data(),
            d: self.input_dim(),
            x: Gather::Dense(x),
            mode: self.mode,
        }
    }

    /// One accurate row through the shared kernel:
    /// `bias[row] + W[row]·x` under this projection's MAC mode — for
    /// composed layers whose sensitive lanes recompute several
    /// projections separately (the GRU r/z gates).
    pub fn dot_row(&self, kernel: &mut RowKernel, row: usize, x: &[f32]) -> f32 {
        let d = self.input_dim();
        kernel.dot(
            self.bias.data()[row],
            &self.weight.data()[row * d..(row + 1) * d],
            Gather::Dense(x),
            self.mode,
        )
    }

    /// The full single-projection lifecycle: speculate, derive the
    /// switching map, and overwrite the sensitive lanes of the
    /// approximate buffer with exact rows (Eq. 2 mix). Returns the mixed
    /// pre-activations and the map.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward(
        &self,
        engine: &mut SpeculationEngine,
        policy: &SwitchingPolicy,
        x: &Tensor,
    ) -> (Tensor, SwitchingMap) {
        let mut pre = Tensor::zeros(&[self.output_dim()]);
        let map = self.forward_into(engine, policy, x.data(), pre.data_mut());
        (pre, map)
    }

    /// [`DualProjection::forward`] into the caller's `out` (`[n]`): the
    /// speculator runs in the engine's scratch, so once that scratch is
    /// warm the only allocation is the returned map's words, and a map of
    /// up to 64 outputs holds its word inline, so it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension or
    /// `out.len()` from the output dimension.
    pub fn forward_into(
        &self,
        engine: &mut SpeculationEngine,
        policy: &SwitchingPolicy,
        x: &[f32],
        out: &mut [f32],
    ) -> SwitchingMap {
        assert_eq!(x.len(), self.input_dim(), "input length mismatch");
        engine.approximate(&self.approx, x, out);
        let map = engine.speculate_slice(policy, out);
        let segments = [self.segment(x)];
        engine.execute_rows_into(&map, out, 0, self.bias.data(), &segments);
        map
    }

    /// The same lifecycle batched over the `P` im2col columns of
    /// `cols` `[d, P]` (a CONV layer, §III-C): one speculator GEMM, one
    /// map over all `n · P` outputs (row-major `[n, P]`), and each
    /// sensitive element recomputed as its row dotted with its column by
    /// [`SpeculationEngine::execute_columns_into`]. The speculator reads
    /// `spec_cols`: `cols` with every entry already through the
    /// approximate module's activation quantizer at one scale (`cols`
    /// itself at 16-bit activations); the executor reads `cols`. Zero
    /// inputs are skipped (exact: their products are zero);
    /// `count_skipped` says whether they still occupy issue slots, as
    /// they do unless an IMap configures the PE tag bits (Fig. 6).
    /// Returns the mixed `[n, P]` pre-activations and the map.
    ///
    /// # Panics
    ///
    /// Panics if `cols` does not have `d` rows or `spec_cols` differs
    /// from it in shape.
    pub fn forward_columns(
        &self,
        engine: &mut SpeculationEngine,
        policy: &SwitchingPolicy,
        cols: &Tensor,
        spec_cols: &Tensor,
        count_skipped: bool,
    ) -> (Tensor, SwitchingMap) {
        assert_eq!(
            spec_cols.shape(),
            cols.shape(),
            "speculator matrix shape mismatch"
        );
        let mut pre = self.approx.forward_quantized_columns(spec_cols);
        let map = engine.speculate_slice(policy, pre.data());
        engine.execute_columns_into(
            &map,
            pre.data_mut(),
            self.weight.data(),
            self.bias.data(),
            cols.data(),
            count_skipped,
        );
        (pre, map)
    }

    /// Dense reference `bias + W·x`, accumulated in exactly the
    /// element order (and zero-weight skipping) of the sparse
    /// [`RowKernel`] — so an all-sensitive [`DualProjection::forward`]
    /// is bitwise-equal to this, and dense fallback paths can share it.
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.output_dim()]);
        self.forward_reference_into(x.data(), out.data_mut());
        out
    }

    /// [`DualProjection::forward_reference`] into the caller's `out`
    /// (`[n]`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension or
    /// `out.len()` from the output dimension.
    pub fn forward_reference_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.input_dim(), "input length mismatch");
        assert_eq!(out.len(), self.output_dim(), "output length mismatch");
        let d = self.input_dim();
        for (row, o) in out.iter_mut().enumerate() {
            let mut acc = self.bias.data()[row];
            let w = &self.weight.data()[row * d..(row + 1) * d];
            match self.mode {
                MacMode::SkipZeroWeights => {
                    for (&wv, &xv) in w.iter().zip(x) {
                        if wv != 0.0 {
                            acc += wv * xv;
                        }
                    }
                }
                _ => {
                    for (&wv, &xv) in w.iter().zip(x) {
                        acc += wv * xv;
                    }
                }
            }
            *o = acc;
        }
    }

    /// This projection's speculator-side cost constants.
    pub fn costs(&self) -> ProjectionCosts {
        let (n, d) = (self.output_dim(), self.input_dim());
        let k = self.approx.config().reduced_dim;
        ProjectionCosts {
            dense_macs: (n * d) as u64,
            dense_weight_bytes: (n * d * 2) as u64, // INT16 weights
            speculator_macs: (n * k) as u64,
            speculator_adds: self.approx.projection().additions_per_projection() as u64,
            speculator_weight_bytes: self.approx.weight_bytes() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    fn make_proj(seed: u64, mode: MacMode) -> (DualProjection, Rng) {
        let mut r = seeded(seed);
        let w = rng::normal(&mut r, &[24, 40], 0.0, 0.2);
        let b = rng::normal(&mut r, &[24], 0.0, 0.05);
        let proj = DualProjection::learn(&w, &b, mode, 16, 300, &mut r);
        (proj, r)
    }

    #[test]
    fn never_switch_forward_is_bitwise_reference() {
        for mode in [MacMode::SkipZeroWeights, MacMode::Dense] {
            let (proj, mut r) = make_proj(1, mode);
            let x = rng::normal(&mut r, &[40], 0.0, 1.0);
            let mut engine = SpeculationEngine::new();
            let (pre, map) = proj.forward(&mut engine, &SwitchingPolicy::never_switch(), &x);
            engine.finish(proj.costs().engine_costs());
            assert_eq!(map.sensitive_count(), 24);
            assert_eq!(pre.data(), proj.forward_reference(&x).data());
        }
    }

    #[test]
    fn insensitive_lanes_keep_speculator_values() {
        let (proj, mut r) = make_proj(2, MacMode::SkipZeroWeights);
        let x = rng::normal(&mut r, &[40], 0.0, 1.0);
        let approx = proj.speculate(&x);
        let mut engine = SpeculationEngine::new();
        let (pre, map) = proj.forward(&mut engine, &SwitchingPolicy::relu(0.0), &x);
        engine.finish(proj.costs().engine_costs());
        let exact = proj.forward_reference(&x);
        for i in 0..24 {
            if map.is_sensitive(i) {
                assert_eq!(pre.data()[i], exact.data()[i], "lane {i} not exact");
            } else {
                assert_eq!(pre.data()[i], approx.data()[i], "lane {i} not approximate");
            }
        }
    }

    #[test]
    fn costs_are_additive_and_scale() {
        let (a, _) = make_proj(3, MacMode::Dense);
        let (b, _) = make_proj(4, MacMode::Dense);
        let sum = a.costs() + b.costs();
        assert_eq!(sum.dense_macs, a.costs().dense_macs + b.costs().dense_macs);
        assert_eq!(
            sum.speculator_adds,
            a.costs().speculator_adds + b.costs().speculator_adds
        );
        assert_eq!(a.costs().times(3).dense_macs, 3 * a.costs().dense_macs);
    }

    #[test]
    fn dot_row_matches_reference() {
        let (proj, mut r) = make_proj(5, MacMode::Dense);
        let x = rng::normal(&mut r, &[40], 0.0, 1.0);
        let exact = proj.forward_reference(&x);
        let mut engine = SpeculationEngine::new();
        let map = SwitchingMap::all_sensitive(24);
        engine.account_map(&map);
        let mut out = vec![0.0f32; 24];
        engine.execute(&map, |i, kernel| {
            out[i] = proj.dot_row(kernel, i, x.data());
        });
        engine.finish(proj.costs().engine_costs());
        assert_eq!(out, exact.data());
    }
}
