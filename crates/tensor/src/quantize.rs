//! Quantization helpers shared by the algorithm and simulator layers.
//!
//! The heavy lifting lives on [`Fixed16Tensor`] and
//! [`Int4Tensor`]; this module adds the error metrics and
//! fake-quantization ("quantize-dequantize") utilities the evaluation
//! harness uses to study precision trade-offs (Fig. 13(b)).

use crate::fixed::{Fixed16Tensor, Int4Tensor, TRUNC_BITS, TRUNC_SCALE};
use crate::tensor::Tensor;

/// The INT16 scale that maps `max_abs` to `i16::MAX`; an all-zero input
/// gets scale 1.0.
pub(crate) fn int16_scale(max_abs: f32) -> f32 {
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / i16::MAX as f32
    }
}

/// One element's INT16 code at `scale`: round to nearest (ties away from
/// zero), saturated to the INT16 range — the code of
/// `(x / scale).round().clamp(-32768.0, 32767.0) as i16` for every `f32`.
///
/// Clamping first gives the same code (the bounds are integers) and
/// leaves a value that `as i32` truncates exactly; its fractional part is
/// exact too, so ties-away rounding is two comparisons. `f32::round` is a
/// libm call per element on baseline x86-64; this vectorizes.
#[inline]
pub(crate) fn int16_code(x: f32, scale: f32) -> i16 {
    let c = (x / scale).clamp(i16::MIN as f32, i16::MAX as f32);
    let t = c as i32;
    let frac = c - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i16
}

/// Quantizes to INT16-with-scale and immediately dequantizes, returning the
/// value the Executor datapath would actually see.
pub fn fake_quantize_int16(t: &Tensor) -> Tensor {
    Fixed16Tensor::quantize(t).dequantize()
}

/// Quantizes to the Speculator's INT4 (via the hardware 16→4 truncation
/// path) and dequantizes.
pub fn fake_quantize_int4_truncated(t: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(t.shape().dims());
    fake_quantize_int4_truncated_into(t.data(), out.data_mut());
    out
}

/// [`fake_quantize_int4_truncated`] over a slice, writing into `out`: one
/// max-magnitude scan, then one pass that quantizes each element to INT16,
/// keeps its four MSBs and dequantizes at the grown scale. Bitwise equal
/// to `Fixed16Tensor::quantize(t).truncate_to_int4().dequantize()`
/// without its three intermediate tensors.
///
/// # Panics
///
/// Panics if `x` and `out` differ in length.
pub fn fake_quantize_int4_truncated_into(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "quantizer output length mismatch");
    let scale = int16_scale(x.iter().fold(0.0f32, |m, &v| m.max(v.abs())));
    let scale4 = scale * TRUNC_SCALE;
    for (o, &v) in out.iter_mut().zip(x) {
        // arithmetic shift keeps the sign, as in `truncate_to_int4`
        *o = (int16_code(v, scale) >> TRUNC_BITS) as i8 as f32 * scale4;
    }
}

/// Quantizes to a `bits`-wide integer grid (round-to-nearest) and
/// dequantizes. Used in the Fig. 13(b) precision sweep.
///
/// # Panics
///
/// Panics if `bits` is outside [2, 8].
pub fn fake_quantize_bits(t: &Tensor, bits: u32) -> Tensor {
    Int4Tensor::quantize_with_bits(t, bits).dequantize()
}

/// Signal-to-quantization-noise ratio in dB between a reference and its
/// quantized reconstruction. Higher is better; `f32::INFINITY` when the
/// reconstruction is exact.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn sqnr_db(reference: &Tensor, reconstructed: &Tensor) -> f32 {
    assert_eq!(
        reference.shape(),
        reconstructed.shape(),
        "sqnr shape mismatch"
    );
    let signal = reference.norm_sq();
    let noise = crate::ops::sub(reference, reconstructed).norm_sq();
    if noise == 0.0 {
        f32::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

/// Maximum absolute quantization error.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn max_error(reference: &Tensor, reconstructed: &Tensor) -> f32 {
    crate::ops::sub(reference, reconstructed).max_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Tensor {
        Tensor::from_fn(&[n], |i| (i as f32 / n as f32) * 2.0 - 1.0)
    }

    #[test]
    fn int16_sqnr_much_higher_than_int4() {
        let t = ramp(256);
        let s16 = sqnr_db(&t, &fake_quantize_int16(&t));
        let s4 = sqnr_db(&t, &fake_quantize_int4_truncated(&t));
        assert!(s16 > 80.0, "int16 sqnr {s16}");
        assert!(s4 < 40.0, "int4 sqnr {s4}");
        assert!(s16 > s4 + 40.0);
    }

    #[test]
    fn int16_code_is_round_then_saturate() {
        let reference = |q: f32| q.round().clamp(i16::MIN as f32, i16::MAX as f32) as i16;
        let special = [
            0.5,
            1.5,
            2.5,
            0.49999997,
            32766.5,
            32767.5,
            32768.0,
            -32768.5,
            -32769.0,
            1e30,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NAN,
        ];
        let strided = (0..=u32::MAX).step_by(4099).map(f32::from_bits);
        for q in special.into_iter().flat_map(|q| [q, -q]).chain(strided) {
            assert_eq!(int16_code(q, 1.0), reference(q), "{q} ({:#x})", q.to_bits());
        }
    }

    #[test]
    fn fused_int4_truncation_is_bitwise_the_tensor_chain() {
        let mut r = crate::rng::seeded(7);
        for scale in [0.0f32, 1e-6, 0.3, 1.0, 300.0] {
            let t = crate::rng::normal(&mut r, &[37], 0.0, scale);
            let chain = Fixed16Tensor::quantize(&t).truncate_to_int4().dequantize();
            let fused = fake_quantize_int4_truncated(&t);
            assert_eq!(fused.shape(), chain.shape());
            for (a, b) in fused.data().iter().zip(chain.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "scale {scale}");
            }
        }
    }

    #[test]
    fn sqnr_monotone_in_bits() {
        let t = ramp(512);
        let mut prev = f32::NEG_INFINITY;
        for bits in 2..=8 {
            let s = sqnr_db(&t, &fake_quantize_bits(&t, bits));
            assert!(s >= prev, "sqnr not monotone at {bits} bits: {s} < {prev}");
            prev = s;
        }
    }

    #[test]
    fn exact_reconstruction_is_infinite_sqnr() {
        let t = ramp(8);
        assert_eq!(sqnr_db(&t, &t), f32::INFINITY);
    }

    #[test]
    fn max_error_bounded_by_step() {
        let t = ramp(100);
        let e = max_error(&t, &fake_quantize_bits(&t, 4));
        // half a step of round-to-nearest at qmax=7: step = 1/7
        assert!(e <= 0.5 / 7.0 + 1e-4, "error {e}");
    }
}
