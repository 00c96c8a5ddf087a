//! The speculator's bitwise contract: `ApproxLinear::forward` and
//! `forward_columns` run on state precomputed at build time (weights
//! dequantized once into eight-row blocks, the projection as mask tables
//! in the same blocks, one fused quantizer pass), and must reproduce bit
//! for bit the whole-tensor chain rebuilt here from public pieces:
//!
//! 1. `Fixed16Tensor::quantize(x).truncate_to_int4().dequantize()` at
//!    4-bit activations, `Int4Tensor::quantize_with_bits(x, b)` at other
//!    narrow widths, `x` itself at 16 bits;
//! 2. the ternary projection as a walk over every `entries()` value,
//!    adding on +1 and subtracting on −1, then the scale;
//! 3. `weights().dequantize()` times the projection, each row folding
//!    its products from −0.0 in ascending order (what `ops::gemv`
//!    computes; `ops::matmul` for columns, which is `ops::matmul_naive`
//!    at the sizes swept here);
//! 4. the bias added to each output.
//!
//! Any change to accumulation order shows here. The sweep covers block
//! edges (n and k of 1, 7, 8, 9 and 17), an all-zero weight row with a
//! −0.0 bias, −0.0 and ±∞ inputs, which reach the projection unquantized
//! at 16-bit activations, and one module large enough (n·k ≥
//! `ops::PAR_MIN_FLOPS`) for the GEMV to stripe its blocks over
//! `DUET_NUM_THREADS` workers.

use duet_core::{ApproxConfig, ApproxLinear, TernaryProjection};
use duet_tensor::fixed::{Fixed16Tensor, Int4Tensor};
use duet_tensor::rng::{self, seeded, Rng};
use duet_tensor::{ops, Tensor};

fn quantize_reference(x: &Tensor, bits: u32) -> Tensor {
    if bits >= 16 {
        x.clone()
    } else if bits == 4 {
        Fixed16Tensor::quantize(x).truncate_to_int4().dequantize()
    } else {
        Int4Tensor::quantize_with_bits(x, bits).dequantize()
    }
}

/// Row `i` of the projection applied to a strided input, entry by entry.
fn project_row(p: &TernaryProjection, i: usize, x: impl Fn(usize) -> f32) -> f32 {
    let d = p.input_dim();
    let mut acc = 0.0f32;
    for (j, &e) in p.entries()[i * d..(i + 1) * d].iter().enumerate() {
        match e {
            1 => acc += x(j),
            -1 => acc -= x(j),
            _ => {}
        }
    }
    acc * p.scale()
}

fn forward_reference(a: &ApproxLinear, x: &Tensor) -> Tensor {
    let xq = quantize_reference(x, a.config().activation_bits);
    let p = a.projection();
    let projected = Tensor::from_fn(&[p.reduced_dim()], |i| project_row(p, i, |j| xq.data()[j]));
    let w = a.weights().dequantize();
    let k = p.reduced_dim();
    Tensor::from_fn(&[a.output_dim()], |i| {
        let row = &w.data()[i * k..(i + 1) * k];
        let dot = row
            .iter()
            .zip(projected.data())
            .fold(-0.0f32, |acc, (&w, &p)| acc + w * p);
        dot + a.bias().data()[i]
    })
}

fn forward_columns_reference(
    a: &ApproxLinear,
    m: &Tensor,
    gemm: fn(&Tensor, &Tensor) -> Tensor,
) -> Tensor {
    let mq = quantize_reference(m, a.config().activation_bits);
    let p = a.projection();
    let cols = m.shape().dim(1);
    // Every column accumulates over the entries in the vector form's order.
    let projected = Tensor::from_fn(&[p.reduced_dim(), cols], |o| {
        let (i, c) = (o / cols, o % cols);
        project_row(p, i, |j| mq.data()[j * cols + c])
    });
    let mut y = gemm(&a.weights().dequantize(), &projected);
    for i in 0..a.output_dim() {
        let b = a.bias().data()[i];
        for v in &mut y.data_mut()[i * cols..(i + 1) * cols] {
            *v += b;
        }
    }
    y
}

fn assert_bitwise(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

/// Inputs of one scale: dense normal, half zeroed, and all zero; at
/// 16-bit activations also one with −0.0, +∞ and −∞ entries.
fn inputs(r: &mut Rng, dims: &[usize], scale: f32, activation_bits: u32) -> Vec<Tensor> {
    let dense = rng::normal(r, dims, 0.0, scale);
    let mut half = rng::normal(r, dims, 0.0, scale);
    for v in half.data_mut().iter_mut().step_by(2) {
        *v = 0.0;
    }
    let mut out = vec![dense, half, Tensor::zeros(dims)];
    if activation_bits >= 16 {
        let mut edges = rng::normal(r, dims, 0.0, scale);
        let specials = [-0.0, f32::INFINITY, -0.0, f32::NEG_INFINITY, -0.0];
        for (v, &s) in edges
            .data_mut()
            .iter_mut()
            .step_by(3)
            .zip(specials.iter().cycle())
        {
            *v = s;
        }
        out.push(Tensor::from_vec(vec![-0.0; edges.len()], dims));
        out.push(edges);
    }
    out
}

fn check(a: &ApproxLinear, r: &mut Rng, what: &str) {
    let d = a.input_dim();
    let bits = a.config().activation_bits;
    for scale in [1e-6f32, 1e-3, 0.1, 1.0, 30.0, 300.0] {
        for x in inputs(r, &[d], scale, bits) {
            assert_bitwise(
                &a.forward(&x),
                &forward_reference(a, &x),
                &format!("{what} forward, scale {scale}"),
            );
        }
        for cols in [1, 6, 37] {
            for m in inputs(r, &[d, cols], scale, bits) {
                assert_bitwise(
                    &a.forward_columns(&m),
                    &forward_columns_reference(a, &m, ops::matmul),
                    &format!("{what} forward_columns ×{cols}, scale {scale}"),
                );
            }
        }
    }
}

#[test]
fn forward_is_bitwise_the_whole_tensor_chain() {
    let mut r = seeded(20);
    for d in [4usize, 5, 16, 33, 64] {
        for weight_bits in [2u32, 3, 4, 8] {
            for activation_bits in [4u32, 8, 16] {
                let k = (d / 2).max(1);
                let n = 1 + (d * weight_bits as usize) % 23;
                let config = ApproxConfig {
                    reduced_dim: k,
                    weight_bits,
                    activation_bits,
                };
                let projection = TernaryProjection::sample(d, k, &mut r);
                let w = rng::normal(&mut r, &[n, k], 0.0, 0.5);
                let bias = rng::normal(&mut r, &[n], 0.0, 0.2);
                let a = ApproxLinear::from_parts(projection, &w, bias, config);
                let what = format!("d {d} k {k} n {n} w{weight_bits} a{activation_bits}");
                check(&a, &mut r, &what);

                // The same module reassembled from its codes (the fault
                // injection path) and re-quantized at another width (the
                // precision ladder) must keep the contract.
                let rebuilt = ApproxLinear::from_quantized(
                    a.projection().clone(),
                    a.weights().clone(),
                    a.bias().clone(),
                    *a.config(),
                );
                assert_eq!(rebuilt, a, "{what}: from_quantized round trip");
                check(&rebuilt, &mut r, &format!("{what} from_quantized"));
                let narrower = a.requantized(2);
                check(&narrower, &mut r, &format!("{what} requantized(2)"));
            }
        }
    }
}

/// A module whose middle weight row is all zero, with a −0.0 bias there:
/// that output is the sign of a sum of zeros, which only a fold from
/// −0.0 keeps.
fn module_with_zero_row(r: &mut Rng, d: usize, k: usize, n: usize, bits: u32) -> ApproxLinear {
    let config = ApproxConfig {
        activation_bits: bits,
        ..ApproxConfig::paper_default(k)
    };
    let projection = TernaryProjection::sample(d, k, r);
    let mut w = rng::normal(r, &[n, k], 0.0, 0.5);
    let mut bias = rng::normal(r, &[n], 0.0, 0.2);
    let zero = n / 2;
    w.data_mut()[zero * k..(zero + 1) * k].fill(0.0);
    bias.data_mut()[zero] = -0.0;
    ApproxLinear::from_parts(projection, &w, bias, config)
}

#[test]
fn block_edges_are_bitwise_the_whole_tensor_chain() {
    let mut r = seeded(21);
    for n in [1usize, 7, 8, 9, 17] {
        for k in [1usize, 7, 8, 9, 17] {
            for bits in [4u32, 16] {
                let d = k + 3;
                let a = module_with_zero_row(&mut r, d, k, n, bits);
                check(&a, &mut r, &format!("d {d} k {k} n {n} a{bits}"));
            }
        }
    }
}

#[test]
fn striped_gemv_is_bitwise_the_whole_tensor_chain() {
    // 64 full blocks and a 5-row tail, above the fan-out threshold.
    let (d, k, n) = (530, 509, 517);
    assert!(n * k >= ops::PAR_MIN_FLOPS);
    let mut r = seeded(22);
    for bits in [4u32, 16] {
        let a = module_with_zero_row(&mut r, d, k, n, bits);
        for x in inputs(&mut r, &[d], 1.0, bits) {
            assert_bitwise(
                &a.forward(&x),
                &forward_reference(&a, &x),
                &format!("n {n} k {k} a{bits} forward"),
            );
        }
        // The column GEMM stripes above the threshold too; `ops::matmul`
        // would switch to its blocked kernel at this size, so the
        // reference is the naive kernel itself.
        let m = rng::normal(&mut r, &[d, 2], 0.0, 1.0);
        assert_bitwise(
            &a.forward_columns(&m),
            &forward_columns_reference(&a, &m, ops::matmul_naive),
            &format!("n {n} k {k} a{bits} forward_columns"),
        );
    }
}
