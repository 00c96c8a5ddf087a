//! Quantization helpers shared by the algorithm and simulator layers.
//!
//! The heavy lifting lives on [`Fixed16Tensor`] and
//! [`Int4Tensor`]; this module adds the error metrics and
//! fake-quantization ("quantize-dequantize") utilities the evaluation
//! harness uses to study precision trade-offs (Fig. 13(b)), and
//! [`ActivationQuantizer`], the Speculator's input quantizer.
//!
//! Each width's quantizer is two parts: a scale, taken from the largest
//! magnitude it must cover, and a per-element map at that scale. The
//! maps are written once, here: the INT16 code behind
//! `Fixed16Tensor::quantize` and the 16→4 truncation, and the
//! round-to-nearest code behind `Int4Tensor::quantize_with_bits`. Because
//! a map is elementwise at one scale, quantizing a CONV feature map and
//! lowering the codes, with the padding set to the quantized +0.0, is
//! bitwise quantizing its im2col patch matrix, provided the scale is the
//! max over the pixels some patch reads
//! ([`crate::im2col::patch_max_abs`]).

use crate::fixed::{Fixed16Tensor, Int4Tensor, TRUNC_BITS, TRUNC_SCALE};
use crate::tensor::{max_abs, Tensor};

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

/// The grid of a `bits`-wide two's-complement integer, `(qmin, qmax)`.
///
/// # Panics
///
/// Panics if `bits` is outside [2, 8].
pub(crate) fn narrow_grid(bits: u32) -> (i32, i32) {
    assert!(
        (2..=8).contains(&bits),
        "bits must be in [2, 8], got {bits}"
    );
    (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
}

/// The scale that maps `max_abs` to `qmax`; an all-zero input gets scale
/// 1.0.
pub(crate) fn narrow_scale(max_abs: f32, qmax: i32) -> f32 {
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / qmax as f32
    }
}

/// One element's code on the grid `(qmin, qmax)` at `scale`: round to
/// nearest (ties away from zero), then clamp; NaN → 0.
#[inline]
pub(crate) fn narrow_code(x: f32, scale: f32, (qmin, qmax): (i32, i32)) -> i8 {
    (x / scale).round().clamp(qmin as f32, qmax as f32) as i8
}

/// One element through the §III-B truncation at the INT16 `scale`: its
/// INT16 code's four MSBs (the arithmetic shift keeps the sign),
/// dequantized at `scale · 2¹²`.
#[inline]
fn int4_truncated(x: f32, scale: f32) -> f32 {
    (int16_code(x, scale) >> TRUNC_BITS) as f32 * (scale * TRUNC_SCALE)
}

/// The Speculator's activation quantizer (§III-B step 1) at one width and
/// one scale: quantize, then dequantize, one element at a time. Build it
/// with [`ActivationQuantizer::new`], which takes the scale from the
/// largest magnitude the input holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivationQuantizer {
    /// 16 bits and wider: the Executor's own precision, passed through.
    Exact,
    /// 4 bits, the paper's: the INT16 code at `scale`, truncated to its
    /// four MSBs and dequantized at `scale · 2¹²` — bitwise
    /// `Fixed16Tensor::quantize(t).truncate_to_int4().dequantize()`.
    Int4Truncated {
        /// The INT16 scale.
        scale: f32,
    },
    /// Other widths in [2, 8]: round to nearest on the `bits`-wide grid at
    /// `scale` — bitwise `Int4Tensor::quantize_with_bits(t, bits)
    /// .dequantize()`.
    Rounded {
        /// The grid's width.
        bits: u32,
        /// The grid's scale.
        scale: f32,
    },
}

impl ActivationQuantizer {
    /// The quantizer of `bits`-wide activations whose scale covers
    /// `max_abs()`, the largest magnitude of the input (NaN ignored, 0.0
    /// for none). `max_abs` is not called at 16 bits and wider.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is below 16 and outside [2, 8].
    pub fn new(bits: u32, max_abs: impl FnOnce() -> f32) -> Self {
        match bits {
            16.. => Self::Exact,
            4 => Self::Int4Truncated {
                scale: int16_scale(max_abs()),
            },
            bits => Self::Rounded {
                bits,
                scale: narrow_scale(max_abs(), narrow_grid(bits).1),
            },
        }
    }

    /// [`ActivationQuantizer::new`] with the scale taken over all of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is below 16 and outside [2, 8].
    pub fn for_input(bits: u32, x: &[f32]) -> Self {
        Self::new(bits, || max_abs(x))
    }

    /// Whether values pass through unchanged (16 bits and wider).
    pub fn is_exact(&self) -> bool {
        matches!(self, Self::Exact)
    }

    /// One element, quantized and dequantized.
    pub fn fake_quantize(&self, x: f32) -> f32 {
        match *self {
            Self::Exact => x,
            Self::Int4Truncated { scale } => int4_truncated(x, scale),
            Self::Rounded { bits, scale } => {
                narrow_code(x, scale, narrow_grid(bits)) as f32 * scale
            }
        }
    }

    /// [`ActivationQuantizer::fake_quantize`] over `x`, into `out`: one
    /// pass, the width chosen once.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `out` differ in length.
    pub fn fake_quantize_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), out.len(), "quantizer output length mismatch");
        match *self {
            Self::Exact => out.copy_from_slice(x),
            Self::Int4Truncated { scale } => {
                for (o, &v) in out.iter_mut().zip(x) {
                    *o = int4_truncated(v, scale);
                }
            }
            Self::Rounded { bits, scale } => {
                let grid = narrow_grid(bits);
                for (o, &v) in out.iter_mut().zip(x) {
                    *o = narrow_code(v, scale, grid) as f32 * scale;
                }
            }
        }
    }

    /// [`ActivationQuantizer::fake_quantize`] over every element of `t`.
    pub fn fake_quantize_tensor(&self, t: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(t.shape().dims());
        self.fake_quantize_into(t.data(), out.data_mut());
        out
    }
}

/// Quantizes to the Speculator's INT4 (via the hardware 16→4 truncation
/// path) and dequantizes: one max-magnitude scan, then one pass. Bitwise
/// equal to `Fixed16Tensor::quantize(t).truncate_to_int4().dequantize()`
/// without its three intermediate tensors.
pub fn fake_quantize_int4_truncated(t: &Tensor) -> Tensor {
    ActivationQuantizer::new(4, || t.max_abs()).fake_quantize_tensor(t)
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
    fn activation_quantizer_is_bitwise_each_widths_tensor_chain() {
        let mut r = crate::rng::seeded(8);
        let specials = [
            f32::NAN,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
        ];
        for scale in [0.0f32, 1e-6, 0.3, 300.0] {
            let mut t = crate::rng::normal(&mut r, &[41], 0.0, scale);
            for (v, &s) in t.data_mut().iter_mut().step_by(9).zip(&specials) {
                *v = s;
            }
            for x in [t.clone(), crate::rng::normal(&mut r, &[41], 0.0, scale)] {
                for bits in [2u32, 3, 4, 5, 8, 16, 32] {
                    let want = match bits {
                        16.. => x.clone(),
                        4 => Fixed16Tensor::quantize(&x).truncate_to_int4().dequantize(),
                        _ => Int4Tensor::quantize_with_bits(&x, bits).dequantize(),
                    };
                    let q = ActivationQuantizer::for_input(bits, x.data());
                    assert_eq!(q.is_exact(), bits >= 16);
                    let bits_of = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let got = q.fake_quantize_tensor(&x);
                    assert_eq!(bits_of(got.data()), bits_of(want.data()), "a{bits}");
                    let one: Vec<f32> = x.data().iter().map(|&v| q.fake_quantize(v)).collect();
                    assert_eq!(bits_of(&one), bits_of(want.data()), "a{bits} per element");
                }
            }
        }
        // ±∞ makes the scale infinite, and the quantized +0.0 NaN.
        let q = ActivationQuantizer::for_input(4, &[1.0, f32::NEG_INFINITY]);
        assert!(q.fake_quantize(0.0).is_nan());
    }

    #[test]
    #[should_panic(expected = "bits must be in [2, 8], got 12")]
    fn activation_quantizer_rejects_widths_between_8_and_16() {
        ActivationQuantizer::new(12, || 1.0);
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
