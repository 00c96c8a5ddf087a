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

/// `1.5 · 2²³`. For `|c| ≤ 2²²`, `c + ROUND` lies in `[2²³, 2²⁴)`, where
/// consecutive `f32`s are 1 apart, so the addition rounds `c` to an
/// integer (ties to even) and leaves that integer in the low mantissa
/// bits.
const ROUND: f32 = 12_582_912.0;

/// One element's INT16 code at `scale`, in an `i32` lane: round to
/// nearest (ties away from zero), saturated to the INT16 range — the code
/// of `(x / scale).round().clamp(-32768.0, 32767.0) as i16` for every
/// `f32`, NaN included (→ 0).
///
/// No float-to-int conversion is left. Clamping first gives the same
/// code (the bounds are integers). Adding [`ROUND`] rounds to nearest
/// even, and the code is read from the sum's bits. The fractional part
/// `c − k` is exact, so the two ties that went toward zero (`+0.5` above
/// zero, `−0.5` below) are two comparisons, and each moves one step away.
/// `f32::round` is a libm call per element on baseline x86-64 and a
/// saturating `as` cast one scalar `cvttss2si`; this form vectorizes.
#[inline]
pub(crate) fn int16_code(x: f32, scale: f32) -> i32 {
    let q = x / scale;
    let c = if q.is_nan() {
        0.0
    } else {
        q.clamp(i16::MIN as f32, i16::MAX as f32)
    };
    let r = c + ROUND;
    let k = r.to_bits() as i32 - ROUND.to_bits() as i32;
    let frac = c - (r - ROUND);
    k + i32::from((frac == 0.5) & (c > 0.0)) - i32::from((frac == -0.5) & (c < 0.0))
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
    let scale = int16_scale(crate::tensor::max_abs(x));
    let scale4 = scale * TRUNC_SCALE;
    for (o, &v) in out.iter_mut().zip(x) {
        // arithmetic shift keeps the sign, as in `truncate_to_int4`
        *o = (int16_code(v, scale) >> TRUNC_BITS) as f32 * scale4;
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
        // every tie k + ½ near zero and at the INT4 truncation boundaries
        let ties = (-20..20)
            .chain([4094, 4095, 4096, 8191, 16383, 32765, 32766])
            .map(|k| k as f32 + 0.5);
        let strided = (0..=u32::MAX).step_by(4099).map(f32::from_bits);
        let values = special.into_iter().chain(ties).flat_map(|q| [q, -q]);
        for q in values.chain(strided) {
            let want = i32::from(reference(q));
            assert_eq!(int16_code(q, 1.0), want, "{q} ({:#x})", q.to_bits());
        }
    }

    /// Asserts that the fused pass over `v` is bit for bit the tensor
    /// chain it replaces, and that the eight-lane max scan both share is
    /// the sequential one.
    fn assert_fused_is_chain(v: Vec<f32>, what: &str) {
        let sequential = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let len = v.len();
        let t = Tensor::from_vec(v, &[len]);
        assert_eq!(t.max_abs().to_bits(), sequential.to_bits(), "{what}: max");
        let chain = Fixed16Tensor::quantize(&t).truncate_to_int4().dequantize();
        let fused = fake_quantize_int4_truncated(&t);
        assert_eq!(fused.shape(), chain.shape(), "{what}");
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused), bits(&chain), "{what}");
    }

    #[test]
    fn fused_int4_truncation_is_bitwise_the_tensor_chain() {
        let mut r = crate::rng::seeded(7);
        for scale in [0.0f32, 1e-6, 0.3, 1.0, 300.0] {
            let t = crate::rng::normal(&mut r, &[37], 0.0, scale);
            assert_fused_is_chain(t.data().to_vec(), &format!("scale {scale}"));
        }
        let specials = [
            f32::NAN,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
        ];
        // chunk tails of the eight-lane max scan
        for len in (0..=17).chain(63..=65) {
            let v = crate::rng::normal(&mut r, &[len], 0.0, 1.0).data().to_vec();
            assert_fused_is_chain(v.clone(), &format!("len {len}"));
            assert_fused_is_chain(vec![0.0; len], &format!("zeros, len {len}"));
            assert_fused_is_chain(vec![-0.0; len], &format!("-0.0s, len {len}"));
            // NaN, −0.0 and subnormals, then ±∞, at every fourth position
            for (i, pos) in (0..len).step_by(4).enumerate() {
                let mut w = v.clone();
                w[pos] = specials[i % specials.len()];
                assert_fused_is_chain(w.clone(), &format!("len {len}, special at {pos}"));
                w[pos] = if i % 2 == 0 {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                };
                assert_fused_is_chain(w, &format!("len {len}, ∞ at {pos}"));
            }
        }
        // Exact INT16 half-steps (k + ½)·scale: the max 32767·2⁻¹⁰ makes
        // the scale exactly 2⁻¹⁰. The negative ties below 4096-multiples
        // land in a different INT4 code when rounded to even.
        let step = 2.0f32.powi(-10);
        let ks = (-12..12).chain([-4097, -4096, -8193, 4095, 8191, 32766]);
        let v: Vec<f32> = std::iter::once(32767.0 * step)
            .chain(ks.map(|k| (k as f32 + 0.5) * step))
            .collect();
        assert_fused_is_chain(v, "half-steps");
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
