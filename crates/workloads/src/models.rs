//! The benchmark model zoo (§V-A): layer-shape-faithful definitions of
//! the paper's CNN and RNN benchmarks.

use duet_tensor::im2col::ConvGeometry;

/// Shape of one CONV layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvShape {
    /// Layer name.
    pub name: String,
    /// Input channels.
    pub in_channels: usize,
    /// Input spatial size (square).
    pub in_size: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel size (square).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub padding: usize,
}

impl ConvShape {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        in_size: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            name: name.into(),
            in_channels,
            in_size,
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// The corresponding tensor-level geometry.
    pub fn geometry(&self) -> ConvGeometry {
        ConvGeometry {
            in_channels: self.in_channels,
            in_h: self.in_size,
            in_w: self.in_size,
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    /// Output spatial size (square).
    pub fn out_size(&self) -> usize {
        self.geometry().out_h()
    }

    /// Output positions `oh·ow`.
    pub fn positions(&self) -> usize {
        let s = self.out_size();
        s * s
    }

    /// Patch length `C·R·S` (MACs per output element).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Input element count `C·H·W`.
    pub fn input_elems(&self) -> usize {
        self.in_channels * self.in_size * self.in_size
    }

    /// Dense MACs of the layer.
    pub fn dense_macs(&self) -> u64 {
        (self.out_channels * self.positions() * self.patch_len()) as u64
    }

    /// Reduced dimension `k` for the approximate module: an eighth of the
    /// patch length, clamped to [16, 256] (the paper's Speculator is sized
    /// for this regime).
    pub fn reduced_dim(&self) -> usize {
        (self.patch_len() / 8).clamp(16, 256).min(self.patch_len())
    }
}

/// Shape of one recurrent layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnnShape {
    /// Layer name.
    pub name: String,
    /// Gates (4 = LSTM, 3 = GRU).
    pub gates: usize,
    /// Input size.
    pub input: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Sequence length simulated.
    pub steps: usize,
}

impl RnnShape {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        gates: usize,
        input: usize,
        hidden: usize,
        steps: usize,
    ) -> Self {
        Self {
            name: name.into(),
            gates,
            input,
            hidden,
            steps,
        }
    }

    /// Total weight bytes at INT16 (both matrices, all gates).
    pub fn weight_bytes(&self) -> u64 {
        (self.gates * self.hidden * (self.input + self.hidden) * 2) as u64
    }
}

/// The paper's benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelZoo {
    /// AlexNet on ImageNet-shaped inputs.
    AlexNet,
    /// VGG16 (used in the Fig. 12(b) utilization study).
    Vgg16,
    /// ResNet18.
    ResNet18,
    /// ResNet50.
    ResNet50,
    /// Two-layer LSTM language model (PTB-style).
    LstmPtb,
    /// Two-layer GRU language model (PTB-style).
    GruPtb,
    /// GNMT-style stacked LSTM encoder–decoder (WMT16-style).
    Gnmt,
}

impl ModelZoo {
    /// All CNN benchmarks.
    pub fn cnns() -> Vec<ModelZoo> {
        vec![
            ModelZoo::AlexNet,
            ModelZoo::Vgg16,
            ModelZoo::ResNet18,
            ModelZoo::ResNet50,
        ]
    }

    /// All RNN benchmarks.
    pub fn rnns() -> Vec<ModelZoo> {
        vec![ModelZoo::LstmPtb, ModelZoo::GruPtb, ModelZoo::Gnmt]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelZoo::AlexNet => "AlexNet",
            ModelZoo::Vgg16 => "VGG16",
            ModelZoo::ResNet18 => "ResNet18",
            ModelZoo::ResNet50 => "ResNet50",
            ModelZoo::LstmPtb => "LSTM-PTB",
            ModelZoo::GruPtb => "GRU-PTB",
            ModelZoo::Gnmt => "GNMT",
        }
    }

    /// CONV layers of a CNN benchmark (empty for RNNs).
    pub fn conv_layers(&self) -> Vec<ConvShape> {
        match self {
            ModelZoo::AlexNet => alexnet(),
            ModelZoo::Vgg16 => vgg16(),
            ModelZoo::ResNet18 => resnet18(),
            ModelZoo::ResNet50 => resnet50(),
            _ => Vec::new(),
        }
    }

    /// Recurrent layers of an RNN benchmark (empty for CNNs).
    pub fn rnn_layers(&self) -> Vec<RnnShape> {
        match self {
            ModelZoo::LstmPtb => vec![
                RnnShape::new("lstm1", 4, 1024, 1024, 35),
                RnnShape::new("lstm2", 4, 1024, 1024, 35),
            ],
            ModelZoo::GruPtb => vec![
                RnnShape::new("gru1", 3, 1024, 1024, 35),
                RnnShape::new("gru2", 3, 1024, 1024, 35),
            ],
            ModelZoo::Gnmt => (0..8)
                .map(|i| RnnShape::new(format!("enc{}", i + 1), 4, 1024, 1024, 30))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// AlexNet CONV layers (torchvision shapes).
pub fn alexnet() -> Vec<ConvShape> {
    vec![
        ConvShape::new("conv1", 3, 224, 64, 11, 4, 2),
        ConvShape::new("conv2", 64, 27, 192, 5, 1, 2),
        ConvShape::new("conv3", 192, 13, 384, 3, 1, 1),
        ConvShape::new("conv4", 384, 13, 256, 3, 1, 1),
        ConvShape::new("conv5", 256, 13, 256, 3, 1, 1),
    ]
}

/// VGG16 CONV layers.
pub fn vgg16() -> Vec<ConvShape> {
    let cfg: [(usize, usize, usize); 13] = [
        (3, 224, 64),
        (64, 224, 64),
        (64, 112, 128),
        (128, 112, 128),
        (128, 56, 256),
        (256, 56, 256),
        (256, 56, 256),
        (256, 28, 512),
        (512, 28, 512),
        (512, 28, 512),
        (512, 14, 512),
        (512, 14, 512),
        (512, 14, 512),
    ];
    cfg.iter()
        .enumerate()
        .map(|(i, &(c, s, k))| ConvShape::new(format!("conv{}", i + 1), c, s, k, 3, 1, 1))
        .collect()
}

/// ResNet18 CONV layers (stem + basic blocks + downsample projections).
pub fn resnet18() -> Vec<ConvShape> {
    let mut layers = vec![ConvShape::new("conv1", 3, 224, 64, 7, 2, 3)];
    let stages: [(usize, usize, usize); 4] = [(64, 56, 2), (128, 28, 2), (256, 14, 2), (512, 7, 2)];
    let mut in_c = 64;
    for (si, &(c, size, blocks)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let stride = if si > 0 && b == 0 { 2 } else { 1 };
            let in_size = if stride == 2 { size * 2 } else { size };
            layers.push(ConvShape::new(
                format!("l{}b{}c1", si + 1, b + 1),
                in_c,
                in_size,
                c,
                3,
                stride,
                1,
            ));
            layers.push(ConvShape::new(
                format!("l{}b{}c2", si + 1, b + 1),
                c,
                size,
                c,
                3,
                1,
                1,
            ));
            if b == 0 && in_c != c {
                layers.push(ConvShape::new(
                    format!("l{}down", si + 1),
                    in_c,
                    in_size,
                    c,
                    1,
                    stride,
                    0,
                ));
            }
            in_c = c;
        }
    }
    layers
}

/// ResNet50 CONV layers (stem + bottleneck blocks).
pub fn resnet50() -> Vec<ConvShape> {
    let mut layers = vec![ConvShape::new("conv1", 3, 224, 64, 7, 2, 3)];
    let stages: [(usize, usize, usize, usize); 4] = [
        (64, 256, 56, 3),
        (128, 512, 28, 4),
        (256, 1024, 14, 6),
        (512, 2048, 7, 3),
    ];
    let mut in_c = 64;
    for (si, &(mid, out, size, blocks)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let stride = if si > 0 && b == 0 { 2 } else { 1 };
            let in_size = if stride == 2 { size * 2 } else { size };
            let tag = format!("l{}b{}", si + 1, b + 1);
            layers.push(ConvShape::new(
                format!("{tag}c1"),
                in_c,
                in_size,
                mid,
                1,
                1,
                0,
            ));
            layers.push(ConvShape::new(
                format!("{tag}c2"),
                mid,
                in_size,
                mid,
                3,
                stride,
                1,
            ));
            layers.push(ConvShape::new(format!("{tag}c3"), mid, size, out, 1, 1, 0));
            if b == 0 {
                layers.push(ConvShape::new(
                    format!("l{}down", si + 1),
                    in_c,
                    in_size,
                    out,
                    1,
                    stride,
                    0,
                ));
            }
            in_c = out;
        }
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_shapes_match_reference() {
        let a = alexnet();
        assert_eq!(a.len(), 5);
        assert_eq!(a[0].out_size(), 55); // (224+4-11)/4+1
        assert_eq!(a[1].out_size(), 27);
        assert_eq!(a[2].out_size(), 13);
        // published MAC counts: conv1 ≈ 105.4M, conv2 ≈ 223.9M
        assert_eq!(a[0].dense_macs(), 55 * 55 * 64 * 363);
        assert!((a[1].dense_macs() as f64 - 223.9e6).abs() / 223.9e6 < 0.02);
    }

    #[test]
    fn vgg16_has_13_convs_and_big_macs() {
        let v = vgg16();
        assert_eq!(v.len(), 13);
        let total: u64 = v.iter().map(|l| l.dense_macs()).sum();
        // VGG16 conv MACs ≈ 15.3 GMACs
        assert!((total as f64 - 15.3e9).abs() / 15.3e9 < 0.05, "{total}");
    }

    #[test]
    fn resnet18_macs_close_to_published() {
        let r = resnet18();
        let total: u64 = r.iter().map(|l| l.dense_macs()).sum();
        // ResNet18 ≈ 1.8 GMACs
        assert!((total as f64 - 1.8e9).abs() / 1.8e9 < 0.1, "{total}");
    }

    #[test]
    fn resnet50_macs_close_to_published() {
        let r = resnet50();
        let total: u64 = r.iter().map(|l| l.dense_macs()).sum();
        // ResNet50 ≈ 4.1 GMACs
        assert!((total as f64 - 4.1e9).abs() / 4.1e9 < 0.1, "{total}");
    }

    #[test]
    fn resnet_channel_chains_are_consistent() {
        for model in [resnet18(), resnet50()] {
            for w in model.windows(2) {
                // output spatial size of layer i must be ≥ the next
                // layer's input size (pooling/stride only shrinks)
                assert!(w[0].out_size() >= 1);
            }
            for l in &model {
                assert!(l.out_size() >= 1, "degenerate layer {}", l.name);
            }
        }
    }

    #[test]
    fn rnn_weight_sizes_exceed_glb() {
        // the §IV-B premise: a gate matrix alone is 2 MiB
        let lstm = ModelZoo::LstmPtb.rnn_layers();
        assert_eq!(lstm.len(), 2);
        let per_gate = 1024 * 2048 * 2;
        assert!(per_gate > 1 << 20);
        assert_eq!(lstm[0].weight_bytes(), 4 * per_gate as u64);
    }

    #[test]
    fn zoo_enumeration() {
        assert_eq!(ModelZoo::cnns().len(), 4);
        assert_eq!(ModelZoo::rnns().len(), 3);
        for m in ModelZoo::cnns() {
            assert!(!m.conv_layers().is_empty());
            assert!(m.rnn_layers().is_empty());
        }
        for m in ModelZoo::rnns() {
            assert!(m.conv_layers().is_empty());
            assert!(!m.rnn_layers().is_empty());
        }
    }

    #[test]
    fn reduced_dims_bounded() {
        for m in ModelZoo::cnns() {
            for l in m.conv_layers() {
                let k = l.reduced_dim();
                assert!(k >= 16 || k == l.patch_len());
                assert!(k <= 256);
                assert!(k <= l.patch_len());
            }
        }
    }
}
