//! Fixed-point tensor types mirroring the DUET datapaths.
//!
//! §III-B: "We use 16-bit fixed-point data in the Executor's
//! high-dimensional execution, where the fixed-point data are essentially
//! INT16 with a scale in FP32." The Speculator computes in INT4 obtained by
//! truncating the 12 LSBs of the INT16 representation and multiplying the
//! scale by 2¹².

use crate::quantize::{int16_code, int16_scale, narrow_code, narrow_grid, narrow_scale};
use crate::rng::Rng;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Number of LSBs dropped by the 16-bit → 4-bit truncation.
pub const TRUNC_BITS: u32 = 12;
/// Scale multiplier implied by the truncation (2¹² = 4096).
pub const TRUNC_SCALE: f32 = 4096.0;
/// Largest magnitude representable in INT4 (two's complement [-8, 7]).
pub const INT4_MAX: i8 = 7;
/// Smallest value representable in INT4.
pub const INT4_MIN: i8 = -8;

/// An INT16 tensor with a single FP32 scale — the Executor's number format.
///
/// Real value of element *i* is `data[i] as f32 * scale`.
///
/// # Example
///
/// ```
/// use duet_tensor::{Tensor, Fixed16Tensor};
///
/// let t = Tensor::from_vec(vec![1.0, -0.5, 0.25], &[3]);
/// let q = Fixed16Tensor::quantize(&t);
/// let back = q.dequantize();
/// for (a, b) in t.data().iter().zip(back.data()) {
///     assert!((a - b).abs() < 1e-3);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fixed16Tensor {
    data: Vec<i16>,
    scale: f32,
    shape: Shape,
}

impl Fixed16Tensor {
    /// Quantizes an `f32` tensor symmetrically so the maximum magnitude maps
    /// to `i16::MAX`.
    ///
    /// An all-zero tensor gets scale 1.0.
    pub fn quantize(t: &Tensor) -> Self {
        let scale = int16_scale(t.max_abs());
        let data = t
            .data()
            .iter()
            .map(|&x| int16_code(x, scale) as i16) // within INT16 by construction
            .collect();
        Self {
            data,
            scale,
            shape: t.shape().clone(),
        }
    }

    /// Constructs from raw INT16 data and a scale.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the shape.
    pub fn from_raw(data: Vec<i16>, scale: f32, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(data.len(), shape.len(), "raw data length mismatch");
        Self { data, scale, shape }
    }

    /// The INT16 payload.
    pub fn data(&self) -> &[i16] {
        &self.data
    }

    /// The FP32 scale shared by all elements.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts back to `f32`.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.data.iter().map(|&x| x as f32 * self.scale).collect(),
            self.shape.dims(),
        )
    }

    /// The hardware truncation of §III-B step 1: drop the 12 LSBs, keep the
    /// four MSBs, and grow the scale by 2¹². This is the Speculator's
    /// Quantizer block.
    pub fn truncate_to_int4(&self) -> Int4Tensor {
        let data = self
            .data
            .iter()
            .map(|&x| (x >> TRUNC_BITS) as i8) // arithmetic shift keeps sign
            .collect();
        Int4Tensor {
            data,
            scale: self.scale * TRUNC_SCALE,
            shape: self.shape.clone(),
            bits: 4,
        }
    }

    /// Bytes occupied by the payload (2 per element), used by the memory
    /// access accounting in the simulator.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * 2
    }
}

/// A narrow-integer tensor with a single FP32 scale — the Speculator's
/// number format. The default width is INT4 (one nibble per `i8`, values
/// in [-8, 7]); [`Int4Tensor::quantize_with_bits`] widens it up to INT8
/// for the Fig. 13(b) precision sweep. Every element is kept inside the
/// symmetric two's-complement range of `bits`, and
/// [`Int4Tensor::payload_bytes`] accounts storage at the actual width
/// (two nibbles per byte at ≤4 bits, one byte per element above).
#[derive(Debug, Clone, PartialEq)]
pub struct Int4Tensor {
    data: Vec<i8>,
    scale: f32,
    shape: Shape,
    bits: u32,
}

impl Int4Tensor {
    /// Quantizes an `f32` tensor symmetrically so the maximum magnitude maps
    /// to 7 (INT4 max): [`Int4Tensor::quantize_with_bits`] at 4 bits.
    pub fn quantize(t: &Tensor) -> Self {
        Self::quantize_with_bits(t, 4)
    }

    /// Quantizes to an arbitrary bit width `bits` ∈ [2, 8] (used by the
    /// Fig. 13(b) precision sweep). The value range is the symmetric
    /// two's-complement range of that width, and the width is recorded on
    /// the tensor so [`Int4Tensor::payload_bytes`] stays honest.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside [2, 8].
    pub fn quantize_with_bits(t: &Tensor, bits: u32) -> Self {
        let grid = narrow_grid(bits);
        let scale = narrow_scale(t.max_abs(), grid.1);
        let data = t
            .data()
            .iter()
            .map(|&x| narrow_code(x, scale, grid))
            .collect();
        Self {
            data,
            scale,
            shape: t.shape().clone(),
            bits,
        }
    }

    /// Constructs a 4-bit tensor from raw nibbles and a scale.
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches the shape or any value is outside
    /// [-8, 7]. Data produced at a wider precision (e.g. by
    /// [`Int4Tensor::quantize_with_bits`] with `bits > 4`) must go through
    /// [`Int4Tensor::from_raw_with_bits`] instead — the range check is the
    /// same one every constructor enforces for its width.
    pub fn from_raw(data: Vec<i8>, scale: f32, dims: &[usize]) -> Self {
        Self::from_raw_with_bits(data, scale, dims, 4)
    }

    /// Constructs from raw values at an explicit width `bits` ∈ [2, 8].
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside [2, 8], the length mismatches the
    /// shape, or any value is outside the symmetric two's-complement range
    /// of `bits`.
    pub fn from_raw_with_bits(data: Vec<i8>, scale: f32, dims: &[usize], bits: u32) -> Self {
        let (qmin, qmax) = narrow_grid(bits);
        let (qmin, qmax) = (qmin as i8, qmax as i8);
        let shape = Shape::new(dims);
        assert_eq!(data.len(), shape.len(), "raw data length mismatch");
        assert!(
            data.iter().all(|&x| (qmin..=qmax).contains(&x)),
            "int{bits} value out of [{qmin},{qmax}] range"
        );
        Self {
            data,
            scale,
            shape,
            bits,
        }
    }

    /// The nibble payload.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The FP32 scale shared by all elements.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The bit width of the stored values (4 unless constructed by a
    /// `*_with_bits` method).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts back to `f32` — the Speculator's Dequantizer block.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.data.iter().map(|&x| x as f32 * self.scale).collect(),
            self.shape.dims(),
        )
    }

    /// Bytes occupied by the packed payload at the tensor's bit width (two
    /// nibbles per byte rounded up at ≤4 bits, one byte per element at 5–8
    /// bits), used by the memory access accounting.
    pub fn payload_bytes(&self) -> usize {
        if self.bits <= 4 {
            self.data.len().div_ceil(2)
        } else {
            self.data.len()
        }
    }

    /// Flips each stored bit with probability `rate`, one
    /// `rng.random_bool(rate)` draw per bit (elements in order, low bit
    /// first). The flip happens in the packed `bits`-wide word, which is
    /// sign-extended back, so every value stays inside the tensor's
    /// range. Returns the corrupted tensor and the number of flipped bits.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside [0, 1].
    pub fn with_flipped_bits(&self, rate: f64, rng: &mut Rng) -> (Int4Tensor, u64) {
        let mask: u8 = ((1u16 << self.bits) - 1) as u8;
        let sign: u8 = 1 << (self.bits - 1);
        let mut flips = 0u64;
        let data = self
            .data
            .iter()
            .map(|&v| {
                let mut w = (v as u8) & mask;
                for bit in 0..self.bits {
                    if rng.random_bool(rate) {
                        w ^= 1 << bit;
                        flips += 1;
                    }
                }
                if w & sign != 0 {
                    (w | !mask) as i8
                } else {
                    w as i8
                }
            })
            .collect();
        let flipped = Self::from_raw_with_bits(data, self.scale, self.shape.dims(), self.bits);
        (flipped, flips)
    }

    /// Integer inner product with another INT4 tensor; result carries the
    /// product of scales. This is exactly what one systolic-array cell chain
    /// computes.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &Int4Tensor) -> (i32, f32) {
        assert_eq!(self.len(), other.len(), "int4 dot length mismatch");
        let acc: i32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a as i32 * b as i32)
            .sum();
        (acc, self.scale * other.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed16_roundtrip_error_bounded() {
        let t = Tensor::from_vec(vec![0.9, -0.45, 0.001, -1.0, 0.333], &[5]);
        let q = Fixed16Tensor::quantize(&t);
        let back = q.dequantize();
        for (a, b) in t.data().iter().zip(back.data()) {
            // one LSB of error at scale ≈ 1/32767
            assert!((a - b).abs() <= q.scale() * 1.01, "{a} vs {b}");
        }
    }

    #[test]
    fn fixed16_zero_tensor() {
        let q = Fixed16Tensor::quantize(&Tensor::zeros(&[4]));
        assert_eq!(q.scale(), 1.0);
        assert!(q.dequantize().data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn truncation_keeps_msbs_and_grows_scale() {
        let q = Fixed16Tensor::from_raw(vec![0x7000, -0x7000, 0x0FFF, -0x1000], 0.001, &[4]);
        let t4 = q.truncate_to_int4();
        assert_eq!(t4.data(), &[7, -7, 0, -1]);
        assert!((t4.scale() - 0.001 * TRUNC_SCALE).abs() < 1e-9);
    }

    #[test]
    fn truncation_preserves_value_approximately() {
        let t = Tensor::from_vec(vec![1.0, 0.5, -0.75, 0.1, -1.0], &[5]);
        let q16 = Fixed16Tensor::quantize(&t);
        let q4 = q16.truncate_to_int4();
        let back = q4.dequantize();
        // INT4 resolution at max-abs 1.0: one step ≈ 1/7 ≈ 0.143 but
        // truncation (floor) error can reach one full step.
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= 0.2, "{a} vs {b}");
        }
    }

    #[test]
    fn full_rate_flips_every_bit_within_the_width() {
        let t = Int4Tensor::from_raw_with_bits(vec![-8, -1, 0, 7], 0.5, &[4], 4);
        let mut rng = crate::rng::seeded(1);
        let (flipped, flips) = t.with_flipped_bits(1.0, &mut rng);
        assert_eq!(flipped.data(), &[7, 0, -1, -8]);
        assert_eq!(flips, 16);
        assert_eq!((flipped.scale(), flipped.bits()), (0.5, 4));
        let (same, none) = t.with_flipped_bits(0.0, &mut rng);
        assert_eq!((same, none), (t, 0));
    }

    #[test]
    fn int4_quantize_range() {
        let t = Tensor::from_vec(vec![3.5, -3.5, 0.0, 1.75], &[4]);
        let q = Int4Tensor::quantize(&t);
        assert_eq!(q.data(), &[7, -7, 0, 4]);
    }

    #[test]
    fn int4_dot_matches_float() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![2.0, 2.0, -1.0], &[3]);
        let qa = Int4Tensor::quantize(&a);
        let qb = Int4Tensor::quantize(&b);
        let (acc, s) = qa.dot(&qb);
        let approx = acc as f32 * s;
        let exact = crate::ops::dot(&a, &b);
        assert!((approx - exact).abs() < 0.8, "{approx} vs {exact}");
    }

    #[test]
    fn quantize_with_bits_ranges() {
        let t = Tensor::from_vec(vec![1.0, -1.0, 0.5], &[3]);
        let q2 = Int4Tensor::quantize_with_bits(&t, 2);
        assert_eq!(q2.data(), &[1, -1, 1]); // qmax = 1
        assert_eq!(q2.bits(), 2);
        let q8 = Int4Tensor::quantize_with_bits(&t, 8);
        assert_eq!(q8.data()[0], 127); // qmax = 127 fits i8 exactly
        assert_eq!(q8.bits(), 8);
    }

    #[test]
    fn payload_bytes_is_width_aware() {
        // Regression: quantize_with_bits(8) used to report nibble-packed
        // bytes, undercounting the Fig. 13(b) memory traffic by 2x.
        let t = Tensor::from_vec(vec![1.0, -1.0, 0.5, 0.25, -0.125], &[5]);
        for bits in [2u32, 3, 4] {
            assert_eq!(Int4Tensor::quantize_with_bits(&t, bits).payload_bytes(), 3);
        }
        for bits in [5u32, 6, 8] {
            assert_eq!(Int4Tensor::quantize_with_bits(&t, bits).payload_bytes(), 5);
        }
    }

    #[test]
    fn from_raw_with_bits_roundtrips_wide_data() {
        // Regression: data produced at 8 bits has a constructor that
        // accepts it; the 4-bit from_raw consistently rejects it.
        let t = Tensor::from_vec(vec![1.0, -1.0, 0.5], &[3]);
        let q8 = Int4Tensor::quantize_with_bits(&t, 8);
        let back = Int4Tensor::from_raw_with_bits(q8.data().to_vec(), q8.scale(), &[3], 8);
        assert_eq!(back, q8);
        assert_eq!(back.payload_bytes(), 3);
    }

    #[test]
    #[should_panic(expected = "out of [-8,7]")]
    fn from_raw_rejects_wide_data_consistently() {
        let t = Tensor::from_vec(vec![1.0, -1.0, 0.5], &[3]);
        let q8 = Int4Tensor::quantize_with_bits(&t, 8);
        Int4Tensor::from_raw(q8.data().to_vec(), q8.scale(), &[3]);
    }

    #[test]
    #[should_panic(expected = "out of [-2,1]")]
    fn from_raw_with_bits_enforces_narrow_range() {
        Int4Tensor::from_raw_with_bits(vec![2], 1.0, &[1], 2);
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn quantize_with_bits_out_of_range_panics() {
        Int4Tensor::quantize_with_bits(&Tensor::zeros(&[1]), 9);
    }

    #[test]
    fn payload_bytes() {
        let q16 = Fixed16Tensor::quantize(&Tensor::zeros(&[5]));
        assert_eq!(q16.payload_bytes(), 10);
        let q4 = Int4Tensor::quantize(&Tensor::zeros(&[5]));
        assert_eq!(q4.payload_bytes(), 3);
    }

    #[test]
    #[should_panic(expected = "out of [-8,7]")]
    fn int4_from_raw_range_check() {
        Int4Tensor::from_raw(vec![9], 1.0, &[1]);
    }
}
