//! The speculator's bitwise contract: `ApproxLinear::forward` and
//! `forward_columns` run on state precomputed at build time (weights
//! dequantized once, the projection as per-row tap lists, one fused
//! quantizer pass), and must reproduce bit for bit the whole-tensor chain
//! rebuilt here from public pieces:
//!
//! 1. `Fixed16Tensor::quantize(x).truncate_to_int4().dequantize()` at
//!    4-bit activations, `Int4Tensor::quantize_with_bits(x, b)` at other
//!    narrow widths, `x` itself at 16 bits;
//! 2. the ternary projection as a walk over every `entries()` value,
//!    adding on +1 and subtracting on −1, then the scale;
//! 3. `weights().dequantize()` times the projection through `ops::gemv`
//!    (`ops::matmul` for columns);
//! 4. the bias through `ops::axpy` (a per-row loop for columns).
//!
//! Any change to accumulation order or to the row dot shows here, in the
//! default build and under `--features duet-tensor/simd` alike.

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
    let mut y = ops::gemv(&a.weights().dequantize(), &projected);
    ops::axpy(1.0, a.bias(), &mut y);
    y
}

fn forward_columns_reference(a: &ApproxLinear, m: &Tensor) -> Tensor {
    let mq = quantize_reference(m, a.config().activation_bits);
    let p = a.projection();
    let cols = m.shape().dim(1);
    // Every column accumulates over the entries in the vector form's order.
    let projected = Tensor::from_fn(&[p.reduced_dim(), cols], |o| {
        let (i, c) = (o / cols, o % cols);
        project_row(p, i, |j| mq.data()[j * cols + c])
    });
    let mut y = ops::matmul(&a.weights().dequantize(), &projected);
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

/// Inputs of one scale: dense normal, half zeroed, and all zero.
fn inputs(r: &mut Rng, dims: &[usize], scale: f32) -> Vec<Tensor> {
    let dense = rng::normal(r, dims, 0.0, scale);
    let mut half = rng::normal(r, dims, 0.0, scale);
    for v in half.data_mut().iter_mut().step_by(2) {
        *v = 0.0;
    }
    vec![dense, half, Tensor::zeros(dims)]
}

fn check(a: &ApproxLinear, r: &mut Rng, what: &str) {
    let d = a.input_dim();
    for scale in [1e-6f32, 1e-3, 0.1, 1.0, 30.0, 300.0] {
        for x in inputs(r, &[d], scale) {
            assert_bitwise(
                &a.forward(&x),
                &forward_reference(a, &x),
                &format!("{what} forward, scale {scale}"),
            );
        }
        for cols in [1, 6, 37] {
            for m in inputs(r, &[d, cols], scale) {
                assert_bitwise(
                    &a.forward_columns(&m),
                    &forward_columns_reference(a, &m),
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
