//! Functional model of one Executor PE (Fig. 6).
//!
//! A PE holds a **MAC Instruction LUT**: micro-instructions carrying the
//! input-activation (IA), weight (W), and output-activation (OA) indices
//! of each multiply-accumulate, plus a tag bit. "The µinst's indices only
//! need to be generated once at the beginning of layer configuration,
//! and remain unchanged and shared by all the PEs throughout the
//! execution of the whole layer. The dynamic switching maps will be used
//! to configure the tag bits" — instructions whose tag is cleared are
//! skipped for free.
//!
//! This module is the *functional* (value-computing) companion to the
//! performance model in [`crate::executor`]: it executes a tile
//! bit-for-bit and is tested against a dense reference, demonstrating
//! that tag-bit skipping is exact.

use duet_tensor::Tensor;

/// One MAC micro-instruction: relative indices into the PE's tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacInstruction {
    /// Input-activation index within the input tile.
    pub ia: u16,
    /// Weight index within the filter tile.
    pub w: u16,
    /// Output-activation index within the output tile.
    pub oa: u16,
    /// Tag bit: execute when set, skip for free when cleared.
    pub tag: bool,
}

/// Tile geometry a PE is configured with: a 2-D sliding window over a
/// `[ih, iw]` input tile with an `[kh, kw]` filter producing a
/// `[1, ow]` output strip (the Fig. 6 example shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileShape {
    /// Input tile height.
    pub ih: usize,
    /// Input tile width.
    pub iw: usize,
    /// Filter height.
    pub kh: usize,
    /// Filter width.
    pub kw: usize,
}

impl TileShape {
    /// Output strip width.
    pub fn ow(&self) -> usize {
        self.iw - self.kw + 1
    }

    /// Micro-instruction count for the full tile (`kh·kw` per output).
    pub fn instruction_count(&self) -> usize {
        self.ow() * self.kh * self.kw
    }
}

/// A PE's instruction store plus tag configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacInstructionLut {
    shape: TileShape,
    instructions: Vec<MacInstruction>,
}

impl MacInstructionLut {
    /// Generates the static µinst sequence for a tile shape — done once
    /// per layer configuration, with every tag initially set.
    ///
    /// # Panics
    ///
    /// Panics if the filter does not fit in the tile.
    pub fn generate(shape: TileShape) -> Self {
        assert!(
            shape.ih >= shape.kh && shape.iw >= shape.kw,
            "filter larger than tile"
        );
        let mut instructions = Vec::with_capacity(shape.instruction_count());
        for ox in 0..shape.ow() {
            for ky in 0..shape.kh {
                for kx in 0..shape.kw {
                    instructions.push(MacInstruction {
                        ia: (ky * shape.iw + ox + kx) as u16,
                        w: (ky * shape.kw + kx) as u16,
                        oa: ox as u16,
                        tag: true,
                    });
                }
            }
        }
        Self {
            shape,
            instructions,
        }
    }

    /// The tile shape.
    pub fn shape(&self) -> &TileShape {
        &self.shape
    }

    /// The instruction sequence.
    pub fn instructions(&self) -> &[MacInstruction] {
        &self.instructions
    }

    /// Configures tag bits from the output map (OMap: which outputs the
    /// Executor must compute) and the input map (IMap: which inputs are
    /// non-zero). An instruction survives only if both its output is
    /// sensitive and its input is effectual — the "simple Boolean logic"
    /// of Fig. 6.
    ///
    /// # Panics
    ///
    /// Panics if the map lengths disagree with the tile shape.
    pub fn configure_tags(&mut self, omap: &[bool], imap: Option<&[bool]>) {
        assert_eq!(omap.len(), self.shape.ow(), "OMap length mismatch");
        if let Some(im) = imap {
            assert_eq!(
                im.len(),
                self.shape.ih * self.shape.iw,
                "IMap length mismatch"
            );
        }
        for inst in &mut self.instructions {
            let out_ok = omap[inst.oa as usize];
            let in_ok = imap.is_none_or(|im| im[inst.ia as usize]);
            inst.tag = out_ok && in_ok;
        }
    }

    /// Count of instructions that will execute (tag set).
    pub fn active_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.tag).count()
    }

    /// Executes the tile functionally: `psum[oa] += input[ia] * weight[w]`
    /// for every tagged instruction. Returns the output strip and the
    /// number of MACs executed.
    ///
    /// # Panics
    ///
    /// Panics if tensor sizes disagree with the tile shape.
    pub fn execute(&self, input: &Tensor, weights: &Tensor) -> (Tensor, usize) {
        assert_eq!(
            input.len(),
            self.shape.ih * self.shape.iw,
            "input tile size mismatch"
        );
        assert_eq!(
            weights.len(),
            self.shape.kh * self.shape.kw,
            "filter tile size mismatch"
        );
        let mut out = Tensor::zeros(&[self.shape.ow()]);
        let mut macs = 0usize;
        let id = input.data();
        let wd = weights.data();
        let od = out.data_mut();
        for inst in &self.instructions {
            if !inst.tag {
                continue;
            }
            od[inst.oa as usize] += id[inst.ia as usize] * wd[inst.w as usize];
            macs += 1;
        }
        (out, macs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::{self, seeded};

    /// The Fig. 6 example: 3×5 input tile, 3×3 filter, 1×3 output strip,
    /// 27 MAC instructions.
    fn fig6_shape() -> TileShape {
        TileShape {
            ih: 3,
            iw: 5,
            kh: 3,
            kw: 3,
        }
    }

    #[test]
    fn fig6_instruction_count() {
        let lut = MacInstructionLut::generate(fig6_shape());
        assert_eq!(lut.instructions().len(), 27);
        assert_eq!(lut.shape().ow(), 3);
        assert_eq!(lut.active_count(), 27);
    }

    #[test]
    fn fig6_omap_reduces_to_nine() {
        // "the OMap shows that only the first element in the 1×3×1 output
        // tile needs to be computed … leaving only nine necessary MAC
        // operations."
        let mut lut = MacInstructionLut::generate(fig6_shape());
        lut.configure_tags(&[true, false, false], None);
        assert_eq!(lut.active_count(), 9);
    }

    #[test]
    fn fig6_imap_reduces_further() {
        // "since the IMap shows that 2/3 of the input activations are
        // zero, we can further reduce six MAC operations" → 3 remain.
        let mut lut = MacInstructionLut::generate(fig6_shape());
        // output 0 reads input columns 0..3 of each row; zero out 2/3 of
        // the inputs used by it (6 of its 9 reads)
        let mut imap = vec![true; 15];
        for row in 0..3 {
            imap[row * 5] = false; // column 0
            imap[row * 5 + 1] = false; // column 1
        }
        lut.configure_tags(&[true, false, false], Some(&imap));
        assert_eq!(lut.active_count(), 3);
    }

    #[test]
    fn functional_execution_matches_windowed_reference() {
        let mut r = seeded(1);
        let shape = fig6_shape();
        let input = rng::normal(&mut r, &[15], 0.0, 1.0);
        let weights = rng::normal(&mut r, &[9], 0.0, 1.0);
        let lut = MacInstructionLut::generate(shape);
        let (out, macs) = lut.execute(&input, &weights);
        assert_eq!(macs, 27);
        for ox in 0..3 {
            let mut acc = 0.0f32;
            for ky in 0..3 {
                for kx in 0..3 {
                    acc += input.data()[ky * 5 + ox + kx] * weights.data()[ky * 3 + kx];
                }
            }
            assert!((out.data()[ox] - acc).abs() < 1e-4);
        }
    }

    #[test]
    fn tag_skipping_is_exact_for_zero_inputs() {
        // skipping instructions whose input is zero must not change the
        // computed outputs
        let mut r = seeded(2);
        let shape = fig6_shape();
        let mut input = rng::normal(&mut r, &[15], 0.0, 1.0);
        let imap: Vec<bool> = (0..15).map(|i| i % 3 != 0).collect();
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            if !imap[i] {
                *v = 0.0;
            }
        }
        let weights = rng::normal(&mut r, &[9], 0.0, 1.0);

        let dense = MacInstructionLut::generate(shape)
            .execute(&input, &weights)
            .0;
        let mut skipping = MacInstructionLut::generate(shape);
        skipping.configure_tags(&[true, true, true], Some(&imap));
        let (sparse, macs) = skipping.execute(&input, &weights);
        assert!(macs < 27);
        for (a, b) in dense.data().iter().zip(sparse.data()) {
            assert!((a - b).abs() < 1e-6, "skipping changed a value");
        }
    }

    #[test]
    fn skipped_outputs_stay_zero() {
        let mut r = seeded(3);
        let shape = fig6_shape();
        let input = rng::normal(&mut r, &[15], 0.0, 1.0);
        let weights = rng::normal(&mut r, &[9], 0.0, 1.0);
        let mut lut = MacInstructionLut::generate(shape);
        lut.configure_tags(&[false, true, false], None);
        let (out, macs) = lut.execute(&input, &weights);
        assert_eq!(macs, 9);
        assert_eq!(out.data()[0], 0.0);
        assert_ne!(out.data()[1], 0.0);
        assert_eq!(out.data()[2], 0.0);
    }

    #[test]
    fn instructions_are_layer_static() {
        // regenerating the LUT for the same shape yields identical
        // indices — only tags change between tiles
        let a = MacInstructionLut::generate(fig6_shape());
        let mut b = MacInstructionLut::generate(fig6_shape());
        b.configure_tags(&[false, false, true], None);
        for (x, y) in a.instructions().iter().zip(b.instructions()) {
            assert_eq!((x.ia, x.w, x.oa), (y.ia, y.w, y.oa));
        }
    }

    #[test]
    #[should_panic(expected = "OMap length")]
    fn wrong_omap_length_panics() {
        let mut lut = MacInstructionLut::generate(fig6_shape());
        lut.configure_tags(&[true], None);
    }
}
