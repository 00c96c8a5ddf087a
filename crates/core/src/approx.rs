//! The approximate module: quantized, dimension-reduced linear layer.
//!
//! Mirrors the Speculator pipeline of §III-B: (1) quantize the input to
//! INT4 by truncation, (2) dimension-reduce through the ternary projection
//! (adds only), (3) INT4 GEMV against the QDR weights, (4) dequantize.
//!
//! Everything that does not depend on the input is computed once, when
//! the module is built: the weights are dequantized to `f32` (the codes
//! stay the stored state) and laid out block-major `[⌈n/8⌉][k][8]`, and
//! the projection builds its mask tables in the same eight-row blocks. A
//! forward then makes one quantizer pass, one blocked projection and one
//! blocked GEMV, eight outputs side by side with one accumulator each.
//! Every entry point quantizes through the one
//! [`ActivationQuantizer`] of the module's activation width; the column
//! forward splits into that pass and a forward over already-quantized
//! columns, which the CONV layer calls on a patch matrix it lowered from
//! the quantized feature map.
//! Every output keeps the accumulation order of quantizing, projecting
//! and dequantizing as whole tensors, so it is bitwise that chain
//! computed with a scalar row dot, in every build.

use crate::projection::{TernaryProjection, BLOCK_ROWS};
use duet_tensor::fixed::Int4Tensor;
use duet_tensor::quantize::ActivationQuantizer;
use duet_tensor::rng::Rng;
use duet_tensor::{ops, parallel, Tensor};

/// Precision / size configuration of an approximate module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxConfig {
    /// Reduced input dimension `k`.
    pub reduced_dim: usize,
    /// Weight precision in bits (paper default: 4).
    pub weight_bits: u32,
    /// Activation precision in bits after the Quantizer (paper default: 4).
    pub activation_bits: u32,
}

impl ApproxConfig {
    /// The paper's configuration: INT4 weights, INT4 activations.
    pub fn paper_default(reduced_dim: usize) -> Self {
        Self {
            reduced_dim,
            weight_bits: 4,
            activation_bits: 4,
        }
    }
}

/// An approximate module for a linear (FF / gate) layer:
/// `y' = W' (P x_q) + b'` with `W'` quantized to `weight_bits`.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxLinear {
    projection: TernaryProjection,
    /// Quantized weights `[n, k]`.
    weights: Int4Tensor,
    /// `weights` dequantized once, at construction, block-major
    /// `[⌈n/8⌉][k][8]` with the rows past `n` zero: the GEMV operand.
    dequantized: Vec<[f32; BLOCK_ROWS]>,
    bias: Tensor,
    config: ApproxConfig,
}

impl ApproxLinear {
    /// Builds an approximate module from already-fitted float weights
    /// `w_prime [n, k]` (quantizing them to `config.weight_bits`) and a
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the projection.
    pub fn from_parts(
        projection: TernaryProjection,
        w_prime: &Tensor,
        bias: Tensor,
        config: ApproxConfig,
    ) -> Self {
        let weights = Int4Tensor::quantize_with_bits(w_prime, config.weight_bits);
        Self::from_quantized(projection, weights, bias, config)
    }

    /// Builds an approximate module directly from already-quantized
    /// weights, bypassing the float→INT quantization of
    /// [`ApproxLinear::from_parts`]. This is the reassembly path for fault
    /// injection (`duet-sim`): flip bits in an existing module's
    /// [`weights`](ApproxLinear::weights) payload and rebuild the module
    /// around the corrupted tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the projection.
    pub fn from_quantized(
        projection: TernaryProjection,
        weights: Int4Tensor,
        bias: Tensor,
        config: ApproxConfig,
    ) -> Self {
        assert_eq!(weights.shape().rank(), 2, "weights must be [n, k]");
        assert_eq!(
            weights.shape().dim(1),
            projection.reduced_dim(),
            "weight columns must equal reduced dim"
        );
        assert_eq!(
            weights.shape().dim(0),
            bias.len(),
            "bias must match output count"
        );
        assert_eq!(
            config.reduced_dim,
            projection.reduced_dim(),
            "config reduced_dim disagrees with projection"
        );
        Self {
            projection,
            dequantized: block_major(&weights.dequantize()),
            weights,
            bias,
            config,
        }
    }

    /// The ternary projection.
    pub fn projection(&self) -> &TernaryProjection {
        &self.projection
    }

    /// The quantized weight tensor `[n, k]`.
    pub fn weights(&self) -> &Int4Tensor {
        &self.weights
    }

    /// The bias vector `[n]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The configuration this module was built with.
    pub fn config(&self) -> &ApproxConfig {
        &self.config
    }

    /// Output dimension `n`.
    pub fn output_dim(&self) -> usize {
        self.bias.len()
    }

    /// Input dimension `d` (before reduction).
    pub fn input_dim(&self) -> usize {
        self.projection.input_dim()
    }

    /// Full hardware-faithful forward pass: quantize → project → INT-GEMV
    /// → dequantize → add bias.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = Tensor::zeros(&[self.output_dim()]);
        self.forward_into(x.data(), y.data_mut(), &mut Vec::new());
        y
    }

    /// [`ApproxLinear::forward`] into the caller's `out` (`[n]`), with
    /// `work` as the quantizer and projection scratch. `work` grows to
    /// `d + k` on first use; after that a forward allocates nothing,
    /// unless its GEMV is large enough to fan out over threads
    /// (`ops::PAR_MIN_FLOPS`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension or
    /// `out.len()` from the output dimension.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32], work: &mut Vec<f32>) {
        let (d, k) = (self.input_dim(), self.projection.reduced_dim());
        assert_eq!(x.len(), d, "approximate module input length mismatch");
        assert_eq!(
            out.len(),
            self.output_dim(),
            "approximate module output length mismatch"
        );
        if work.len() < d + k {
            work.resize(d + k, 0.0);
        }
        let (xq, projected) = work[..d + k].split_at_mut(d);
        // Step 1 (Quantizer): the INT16→INT4 truncation at the paper's
        // 4-bit activations, round-to-nearest at other narrow widths.
        let quantizer = ActivationQuantizer::for_input(self.config.activation_bits, x);
        let xq: &[f32] = if quantizer.is_exact() {
            x
        } else {
            quantizer.fake_quantize_into(x, xq);
            xq
        };
        // Step 2 (Alignment Units + Adder Trees): ternary projection.
        self.projection.project_into(xq, projected);
        // Steps 3 and 4 (Systolic Array, then bias): low-precision GEMV.
        // Each output folds its products from −0.0, the identity `f32`'s
        // `Sum` starts from, in ascending `j`, then adds its bias: the
        // scalar `ops::gemv` row dot plus the bias.
        let projected = &*projected;
        for_each_block(out, 1, self.output_dim() * k, |b, out| {
            let mut acc = [-0.0f32; BLOCK_ROWS];
            for (w, &p) in self.block(b).iter().zip(projected) {
                for (a, &w) in acc.iter_mut().zip(w) {
                    *a += w * p;
                }
            }
            let bias = &self.bias.data()[b * BLOCK_ROWS..];
            for ((y, a), &bv) in out.iter_mut().zip(acc).zip(bias) {
                *y = a + bv;
            }
        });
    }

    /// Output block `b`'s `[k][8]` slice of the block-major weights.
    fn block(&self, b: usize) -> &[[f32; BLOCK_ROWS]] {
        let k = self.projection.reduced_dim();
        &self.dequantized[b * k..(b + 1) * k]
    }

    /// Forward for every column of a `[d, cols]` matrix; returns
    /// `[n, cols]`. Used by the CONV path where the im2col patch matrix
    /// replaces the input vector. The matrix is quantized whole, at the
    /// scale of its largest magnitude, then projected, multiplied and
    /// biased by the same forward over already-quantized columns that
    /// [`crate::DualConvLayer`] runs on the patch matrix it lowers from
    /// the quantized feature map.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not `[d, cols]`.
    pub fn forward_columns(&self, m: &Tensor) -> Tensor {
        let quantizer = ActivationQuantizer::new(self.config.activation_bits, || m.max_abs());
        if quantizer.is_exact() {
            self.forward_quantized_columns(m)
        } else {
            self.forward_quantized_columns(&quantizer.fake_quantize_tensor(m))
        }
    }

    /// Steps 2–4 of [`ApproxLinear::forward_columns`] over a `[d, cols]`
    /// matrix whose entries already went through the activation
    /// quantizer: the projection, the GEMM and the bias. The GEMM
    /// accumulates each output as `ops::matmul_naive` does (from +0.0 in
    /// ascending `j`, zero weights skipped), and the bias is added after.
    ///
    /// # Panics
    ///
    /// Panics if `mq` is not `[d, cols]`.
    pub(crate) fn forward_quantized_columns(&self, mq: &Tensor) -> Tensor {
        assert_eq!(mq.shape().dim(0), self.input_dim(), "row count mismatch");
        let projected = self.projection.project_columns(mq);
        let (n, k) = (self.output_dim(), self.projection.reduced_dim());
        let cols = mq.shape().dim(1);
        let mut y = Tensor::zeros(&[n, cols]);
        let pd = projected.data();
        for_each_block(y.data_mut(), cols, n * k * cols, |b, yblock| {
            for (w, prow) in self.block(b).iter().zip(pd.chunks_exact(cols)) {
                for (yrow, &w) in yblock.chunks_exact_mut(cols).zip(w) {
                    if w == 0.0 {
                        continue;
                    }
                    for (v, &p) in yrow.iter_mut().zip(prow) {
                        *v += w * p;
                    }
                }
            }
            let bias = &self.bias.data()[b * BLOCK_ROWS..];
            for (yrow, &bv) in yblock.chunks_exact_mut(cols).zip(bias) {
                for v in yrow {
                    *v += bv;
                }
            }
        });
        y
    }

    /// Parameter count of the approximate module (weights only; the
    /// projection is ternary metadata).
    pub fn param_count(&self) -> usize {
        self.weights.len()
    }

    /// Approximate-module weight storage in bytes (packed nibbles for
    /// ≤4-bit, one byte otherwise) — what the Speculator's QDR Weight
    /// Buffer holds. Delegates to the tensor's own width-aware accounting.
    pub fn weight_bytes(&self) -> usize {
        self.weights.payload_bytes()
    }

    /// Re-quantizes the module's weights at `weight_bits`, keeping the
    /// projection, bias and activation precision — the θ-controller's
    /// graduated-degradation actuator (a saturated controller trades
    /// speculator precision for throughput one bit at a time instead of
    /// falling back dense). Pure and deterministic: requantizing back at
    /// the original width after a round trip through the float domain
    /// reproduces the quantizer's output for that width.
    pub fn requantized(&self, weight_bits: u32) -> Self {
        let config = ApproxConfig {
            weight_bits,
            ..self.config
        };
        Self::from_parts(
            self.projection.clone(),
            &self.weights.dequantize(),
            self.bias.clone(),
            config,
        )
    }

    /// Builds a *random* (undistilled) approximate module — only useful as
    /// a baseline to show distillation matters.
    pub fn random(d: usize, n: usize, config: ApproxConfig, rng: &mut Rng) -> Self {
        let projection = TernaryProjection::sample(d, config.reduced_dim, rng);
        let w = duet_tensor::rng::normal(rng, &[n, config.reduced_dim], 0.0, 0.1);
        Self::from_parts(projection, &w, Tensor::zeros(&[n]), config)
    }
}

/// An `[n, k]` matrix laid out block-major `[⌈n/8⌉][k][8]`: block `b`
/// holds rows `8b..8b + 8`, column by column, with the rows past `n`
/// zero.
fn block_major(w: &Tensor) -> Vec<[f32; BLOCK_ROWS]> {
    let (n, k) = (w.shape().dim(0), w.shape().dim(1));
    let mut blocks = vec![[0.0; BLOCK_ROWS]; n.div_ceil(BLOCK_ROWS) * k];
    for (i, row) in w.data().chunks_exact(k).enumerate() {
        let (block, r) = (i / BLOCK_ROWS * k, i % BLOCK_ROWS);
        for (j, &v) in row.iter().enumerate() {
            blocks[block + j][r] = v;
        }
    }
    blocks
}

/// Calls `f(b, rows)` once per eight-row block `b` of a row-major
/// `[n, row_len]` output, `rows` being the block's `[8, row_len]` window
/// (fewer rows in a last, partial block). Above [`ops::PAR_MIN_FLOPS`]
/// `flops` the full blocks are striped over [`parallel::num_threads`]
/// workers, as `ops::gemv` stripes rows; each block is one call either
/// way, so the result does not depend on the thread count.
fn for_each_block(
    out: &mut [f32],
    row_len: usize,
    flops: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let block_len = BLOCK_ROWS * row_len;
    if block_len == 0 {
        return;
    }
    let full = out.len() / block_len;
    let threads = if flops >= ops::PAR_MIN_FLOPS {
        parallel::num_threads()
    } else {
        1
    };
    let (head, tail) = out.split_at_mut(full * block_len);
    parallel::for_each_row_chunk(head, full, block_len, threads, |blocks, chunk| {
        for (b, rows) in blocks.zip(chunk.chunks_exact_mut(block_len)) {
            f(b, rows);
        }
    });
    if !tail.is_empty() {
        f(full, tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    #[test]
    fn forward_shapes() {
        let mut r = seeded(1);
        let m = ApproxLinear::random(32, 8, ApproxConfig::paper_default(16), &mut r);
        let x = rng::normal(&mut r, &[32], 0.0, 1.0);
        let y = m.forward(&x);
        assert_eq!(y.len(), 8);
        assert_eq!(m.input_dim(), 32);
        assert_eq!(m.output_dim(), 8);
        assert_eq!(m.param_count(), 8 * 16);
    }

    #[test]
    fn forward_columns_matches_vector_path() {
        let mut r = seeded(2);
        let m = ApproxLinear::random(12, 5, ApproxConfig::paper_default(6), &mut r);
        let cols = rng::normal(&mut r, &[12, 4], 0.0, 1.0);
        let batch = m.forward_columns(&cols);
        for c in 0..4 {
            let x = Tensor::from_vec((0..12).map(|j| cols.at(&[j, c])).collect(), &[12]);
            let y = m.forward(&x);
            for i in 0..5 {
                // The two paths quantize at different granularity (whole
                // matrix vs single column), so allow a loose tolerance.
                assert!(
                    (batch.at(&[i, c]) - y.data()[i]).abs() < 0.5,
                    "col {c} row {i}: {} vs {}",
                    batch.at(&[i, c]),
                    y.data()[i]
                );
            }
        }
    }

    #[test]
    fn weight_bytes_packing() {
        let mut r = seeded(3);
        let m4 = ApproxLinear::random(16, 3, ApproxConfig::paper_default(8), &mut r);
        assert_eq!(m4.weight_bytes(), 12); // 24 nibbles → 12 bytes
        let cfg8 = ApproxConfig {
            reduced_dim: 8,
            weight_bits: 8,
            activation_bits: 8,
        };
        let m8 = ApproxLinear::random(16, 3, cfg8, &mut r);
        assert_eq!(m8.weight_bytes(), 24);
    }

    #[test]
    fn bias_flows_through() {
        let mut r = seeded(4);
        let proj = TernaryProjection::sample(8, 4, &mut r);
        let m = ApproxLinear::from_parts(
            proj,
            &Tensor::zeros(&[2, 4]),
            Tensor::from_vec(vec![1.5, -2.5], &[2]),
            ApproxConfig::paper_default(4),
        );
        let y = m.forward(&Tensor::zeros(&[8]));
        assert_eq!(y.data(), &[1.5, -2.5]);
    }

    #[test]
    fn requantized_narrows_storage_and_round_trips() {
        let mut r = seeded(6);
        let m4 = ApproxLinear::random(24, 8, ApproxConfig::paper_default(12), &mut r);
        let m2 = m4.requantized(2);
        assert_eq!(m2.config().weight_bits, 2);
        assert_eq!(m2.config().reduced_dim, m4.config().reduced_dim);
        // storage never grows (sub-nibble widths still pack as nibbles)
        assert!(m2.weight_bytes() <= m4.weight_bytes());
        // 2-bit weights are a strictly coarser grid: outputs still finite
        // and shaped right.
        let x = rng::normal(&mut r, &[24], 0.0, 1.0);
        let y = m2.forward(&x);
        assert_eq!(y.len(), 8);
        assert!(y.data().iter().all(|v| v.is_finite()));
        // Requantizing back at the original width is the identity on the
        // already-quantized grid.
        let back = m2.requantized(2);
        assert_eq!(back.weights().data(), m2.weights().data());
    }

    #[test]
    #[should_panic(expected = "columns must equal reduced dim")]
    fn mismatched_weight_width_panics() {
        let mut r = seeded(5);
        let proj = TernaryProjection::sample(8, 4, &mut r);
        ApproxLinear::from_parts(
            proj,
            &Tensor::zeros(&[2, 5]),
            Tensor::zeros(&[2]),
            ApproxConfig::paper_default(4),
        );
    }
}
