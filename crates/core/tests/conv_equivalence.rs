//! The CONV layer's bitwise contract. `DualConvLayer::forward` quantizes
//! its `[C, H, W]` feature map once, at the max over the pixels some patch
//! reads, and lowers the codes with the padding set to the quantized +0.0;
//! the executor reads the exact patch matrix through the lane-batched
//! column executor. Its output, OMap words, channel workloads and
//! `SavingsReport` must be bit for bit the chain rebuilt here from public
//! pieces, the one perfbench's `cnn` replay runs:
//!
//! 1. `im2col` of the input;
//! 2. `ApproxLinear::forward_columns`, which quantizes that whole patch
//!    matrix at its own max;
//! 3. `SpeculationEngine::speculate`;
//! 4. per-output `execute_into` with `RowKernel::dot` over
//!    `Gather::Column` under `SkipZeroInputs`;
//! 5. the workloads counted, then `SwitchingMap::relu_correct`.
//!
//! The sweep covers C 1–3, H and W 1–9, kernels 1–4 × 1–4, strides 1–3
//! and padding 0–4 (padding ≥ kernel included), activation widths 4, 8
//! and 16, with and without an IMap, θ ∈ {−∞, 0, 0.5}; a strided
//! geometry whose largest |x| sits in a pixel no patch reads; inputs
//! holding ±∞ with padding ≥ kernel, where the quantized +0.0 is NaN; and
//! one layer large enough (n·k·P ≥ `ops::PAR_MIN_FLOPS`) for the
//! speculator's column GEMM to stripe over `DUET_NUM_THREADS` workers.

use duet_core::engine::{EngineCosts, ExecutorWeightBytes, Gather, MacMode};
use duet_core::{
    ApproxConfig, ApproxLinear, DualConvLayer, SavingsReport, SpeculationEngine, SwitchingMap,
    SwitchingPolicy,
};
use duet_tensor::im2col::{im2col, ConvGeometry};
use duet_tensor::rng::{self, seeded, Rng};
use duet_tensor::{ops, Tensor};

/// What a forward produces, as bits.
#[derive(Debug, PartialEq)]
struct Run {
    output: Vec<u32>,
    omap: Vec<u64>,
    workloads: Vec<usize>,
    report: SavingsReport,
}

/// A layer, its filter bank in GEMM form and its bias.
struct Layer {
    layer: DualConvLayer,
    filters: Tensor,
    bias: Tensor,
}

fn layer(geom: ConvGeometry, k: usize, activation_bits: u32, r: &mut Rng) -> Layer {
    let d = geom.patch_len();
    let filters = rng::normal(r, &[k, d], 0.0, 0.5);
    let bias = rng::normal(r, &[k], 0.0, 0.2);
    let config = ApproxConfig {
        reduced_dim: d.div_ceil(2),
        weight_bits: 4,
        activation_bits,
    };
    let approx = ApproxLinear::random(d, k, config, r);
    let layer = DualConvLayer::new(geom, filters.clone(), bias.clone(), approx);
    Layer {
        layer,
        filters,
        bias,
    }
}

fn library(l: &Layer, x: &Tensor, theta: f32, imap: Option<&SwitchingMap>) -> Run {
    let out = l.layer.forward(x, &SwitchingPolicy::relu(theta), imap);
    Run {
        output: out.output.data().iter().map(|v| v.to_bits()).collect(),
        omap: out.omap.words().to_vec(),
        workloads: out.channel_workloads,
        report: out.report,
    }
}

fn reference(l: &Layer, x: &Tensor, theta: f32, imap: Option<&SwitchingMap>) -> Run {
    let geom = *l.layer.geometry();
    let (k, d, positions) = (l.bias.len(), geom.patch_len(), geom.out_positions());
    let approx = l.layer.approx();
    let cols = im2col(x, &geom);
    let mut y = approx.forward_columns(&cols);
    let mut engine = SpeculationEngine::new();
    let mut map = engine.speculate(&SwitchingPolicy::relu(theta), &y);
    let mode = MacMode::SkipZeroInputs {
        count_skipped: imap.is_none(),
    };
    let (w, b) = (l.filters.data(), l.bias.data());
    engine.execute_into(&map, y.data_mut(), |i, kernel| {
        let (row, col) = (i / positions, i % positions);
        let x = Gather::Column {
            data: cols.data(),
            stride: positions,
            col,
        };
        kernel.dot(b[row], &w[row * d..(row + 1) * d], x, mode)
    });
    let workloads = (0..k)
        .map(|kk| map.sensitive_count_in(kk * positions, (kk + 1) * positions))
        .collect();
    map.relu_correct(y.data_mut());
    let report = engine.finish(EngineCosts {
        dense_macs: (k * positions * d) as u64,
        dense_weight_bytes: (k * d * 2) as u64,
        speculator_macs: (k * approx.config().reduced_dim * positions) as u64,
        speculator_adds: (approx.projection().additions_per_projection() * positions) as u64,
        speculator_weight_bytes: approx.weight_bytes() as u64,
        executor_weight_bytes: ExecutorWeightBytes::Fixed((k * d * 2) as u64),
    });
    Run {
        output: y.data().iter().map(|v| v.to_bits()).collect(),
        omap: map.words().to_vec(),
        workloads,
        report,
    }
}

/// Pins every width × θ × IMap combination on one layer and input.
fn check(geom: ConvGeometry, x: &Tensor, r: &mut Rng, what: &str) {
    let imap = SwitchingMap::from_flags(x.data().iter().map(|&v| v != 0.0).collect());
    for bits in [4u32, 8, 16] {
        let l = layer(geom, 3, bits, r);
        for theta in [f32::NEG_INFINITY, 0.0, 0.5] {
            for imap in [None, Some(&imap)] {
                let want = reference(&l, x, theta, imap);
                let got = library(&l, x, theta, imap);
                let what = format!("{what} a{bits} θ {theta} imap {}", imap.is_some());
                assert_eq!(got, want, "{what}");
            }
        }
    }
}

/// Normal samples, about a quarter of them ±0.0, with the odd NaN or
/// subnormal.
fn feature_map(geom: &ConvGeometry, r: &mut Rng) -> Tensor {
    let dims = [geom.in_channels, geom.in_h, geom.in_w];
    Tensor::from_fn(&dims, |_| match r.random_range(0..16u32) {
        0..=1 => 0.0,
        2..=3 => -0.0,
        4 => f32::from_bits(3),
        5 if r.random_range(0..8u32) == 0 => f32::NAN,
        _ => rng::normal_sample(r),
    })
}

/// One geometry per kernel × stride × padding combination (240), with
/// the channel count and the input size cycling through 1–3 and 1–9
/// (raised where the kernel would not fit the padded input).
fn geometries() -> Vec<ConvGeometry> {
    let mut out = Vec::new();
    for kernel_h in 1..=4 {
        for kernel_w in 1..=4 {
            for stride in 1..=3 {
                for padding in 0..=4 {
                    let i = out.len();
                    let fit = |n: usize, k: usize| n.max(k.saturating_sub(2 * padding));
                    out.push(ConvGeometry {
                        in_channels: 1 + i % 3,
                        in_h: fit(1 + (i * 4) % 9, kernel_h),
                        in_w: fit(1 + (i * 7) % 9, kernel_w),
                        kernel_h,
                        kernel_w,
                        stride,
                        padding,
                    });
                }
            }
        }
    }
    out
}

#[test]
fn conv_forward_is_bitwise_the_patch_matrix_chain() {
    let mut r = seeded(71);
    for g in geometries() {
        let x = feature_map(&g, &mut r);
        check(g, &x, &mut r, &format!("{g:?}"));
    }
}

#[test]
fn scale_ignores_pixels_no_patch_reads() {
    // Kernel 3 at stride 2 over 10 × 10 reads rows and columns 0–8 only;
    // the largest magnitude sits in row 9, then in column 9. Taken over
    // the whole image, that scale would quantize every read pixel to 0.
    let geom = ConvGeometry {
        in_channels: 2,
        in_h: 10,
        in_w: 10,
        kernel_h: 3,
        kernel_w: 3,
        stride: 2,
        padding: 0,
    };
    let mut r = seeded(72);
    for pixel in [[1, 9, 4], [0, 2, 9], [1, 9, 9]] {
        let mut x = feature_map(&geom, &mut r);
        x.set(&pixel, -1.0e6);
        check(geom, &x, &mut r, &format!("unread {pixel:?}"));
    }
}

#[test]
fn infinite_inputs_pad_with_the_quantized_zero() {
    // An infinite scale quantizes +0.0 to NaN, so the corner columns, all
    // padding when padding ≥ kernel, must speculate NaN as the quantized
    // patch matrix does.
    let mut r = seeded(73);
    for (kernel, padding) in [(1, 1), (2, 3), (3, 3)] {
        let geom = ConvGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 4,
            kernel_h: kernel,
            kernel_w: kernel,
            stride: 1,
            padding,
        };
        for inf in [f32::INFINITY, f32::NEG_INFINITY] {
            let mut x = feature_map(&geom, &mut r);
            x.set(&[1, 2, 1], inf);
            check(geom, &x, &mut r, &format!("k {kernel} p {padding} {inf}"));
        }
    }
}

#[test]
fn striped_column_gemm_is_bitwise_the_patch_matrix_chain() {
    // 64 filters, k = 36, 144 positions: above the fan-out threshold, so
    // the speculator's column GEMM stripes its blocks over the pool.
    let geom = ConvGeometry {
        in_channels: 8,
        in_h: 12,
        in_w: 12,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let mut r = seeded(74);
    let l = layer(geom, 64, 4, &mut r);
    assert!(64 * l.layer.approx().config().reduced_dim * 144 >= ops::PAR_MIN_FLOPS);
    let x = feature_map(&geom, &mut r);
    for theta in [f32::NEG_INFINITY, 0.5] {
        let want = reference(&l, &x, theta, None);
        assert_eq!(library(&l, &x, theta, None), want, "θ {theta}");
    }
}
