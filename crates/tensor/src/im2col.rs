//! Convolution-to-GEMM lowering.
//!
//! §II-B of the paper: "We can apply dual-module algorithm to CNN by first
//! doing the im2col transformation on input tensor. Then, the input and
//! output become matrices rather than vectors, but the overall algorithm is
//! the same as FF layers."
//!
//! Layout conventions: feature maps are `[C, H, W]` (channel-major), filter
//! banks are `[K, C, R, S]`. The im2col patch matrix is
//! `[C·R·S, out_h·out_w]`, so a convolution is
//! `out[K, oh·ow] = filters[K, C·R·S] · patches[C·R·S, oh·ow]`.
//!
//! [`im2col_into`] and its adjoint [`col2im`] share one walk over the
//! patch matrix, a row segment at a time: patch row `(c, kh, kw)` and
//! output row `oy` read input row `iy = oy·stride + kh − padding`, and the
//! output columns whose `ix` falls inside the input form one span, worked
//! out once per `kw`. A segment whose `iy` falls outside is padding only;
//! otherwise the span is copied (or, for `col2im`, added) whole, by one
//! slice copy at stride 1 and a strided loop otherwise, and the rest of
//! the segment is padding. No entry tests its own bounds. The walk keeps
//! the per-entry loop's `(c, kh, kw, oy, ox)` order, so `col2im` adds
//! each pixel's contributions in the same order and rounds the same.
//!
//! [`patch_max_abs`] is the largest `|x|` over the pixels some patch
//! reads: the max over the patch matrix without building it, which is
//! what lets the CONV speculator quantize the `[C, H, W]` feature map and
//! lower the codes instead of quantizing the lowered copy.

use std::ops::Range;

use crate::tensor::{max_abs, Tensor};

/// Spatial geometry of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Filter height.
    pub kernel_h: usize,
    /// Filter width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Output height after convolution.
    ///
    /// # Panics
    ///
    /// Panics if the stride is zero or the kernel does not fit in the
    /// padded input.
    pub fn out_h(&self) -> usize {
        out_len(
            self.in_h,
            self.kernel_h,
            self.stride,
            self.padding,
            "height",
        )
    }

    /// Output width after convolution.
    ///
    /// # Panics
    ///
    /// Panics if the stride is zero or the kernel does not fit in the
    /// padded input.
    pub fn out_w(&self) -> usize {
        out_len(self.in_w, self.kernel_w, self.stride, self.padding, "width")
    }

    /// Rows of the patch matrix: `C·R·S`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Columns of the patch matrix: number of output positions.
    pub fn out_positions(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Output length along one axis of input length `n`.
fn out_len(n: usize, kernel: usize, stride: usize, padding: usize, axis: &str) -> usize {
    assert!(stride > 0, "convolution stride must be positive");
    let padded = n + 2 * padding;
    assert!(
        padded >= kernel,
        "kernel {axis} {kernel} exceeds padded input {axis} {padded}"
    );
    (padded - kernel) / stride + 1
}

/// Along one axis, the outputs `o` in `lo..hi` whose tap at kernel offset
/// `k` reads input index `o·stride + k − padding` inside `0..n`; `first`
/// is the index output `lo` reads (meaningless when the span is empty).
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: usize,
    hi: usize,
    first: usize,
}

impl Span {
    fn new(n: usize, out: usize, k: usize, stride: usize, padding: usize) -> Self {
        // o·stride + k ≥ padding, and o·stride + k − padding ≤ n − 1
        let lo = padding.saturating_sub(k).div_ceil(stride);
        let hi = if n + padding > k {
            ((n + padding - k - 1) / stride + 1).min(out)
        } else {
            0
        };
        let lo = lo.min(hi);
        Self {
            lo,
            hi,
            first: (lo * stride + k).saturating_sub(padding),
        }
    }
}

/// Walks the `[C·R·S, oh·ow]` patch matrix one row segment (`ow`
/// entries, one patch row × one output row) at a time, in `(c, kh, kw,
/// oy)` order. Calls `f(seg, span)` with the segment's offset in the
/// matrix and, when some entry of it reads the input, the columns
/// `lo..hi` that do and the input offset column `lo` reads; column
/// `lo + i` reads `stride · i` past it. The other entries are padding.
fn walk(geom: &ConvGeometry, mut f: impl FnMut(usize, Option<(Range<usize>, usize)>)) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (stride, padding) = (geom.stride, geom.padding);
    let plane = geom.in_h * geom.in_w;
    let mut seg = 0;
    for c in 0..geom.in_channels {
        for kh in 0..geom.kernel_h {
            let rows = Span::new(geom.in_h, oh, kh, stride, padding);
            for kw in 0..geom.kernel_w {
                let cols = Span::new(geom.in_w, ow, kw, stride, padding);
                for oy in 0..oh {
                    let reads = (rows.lo..rows.hi).contains(&oy) && cols.lo < cols.hi;
                    let span = reads.then(|| {
                        let iy = rows.first + (oy - rows.lo) * stride;
                        (cols.lo..cols.hi, c * plane + iy * geom.in_w + cols.first)
                    });
                    f(seg, span);
                    seg += ow;
                }
            }
        }
    }
}

fn assert_input_shape(input: &Tensor, geom: &ConvGeometry) {
    assert_eq!(input.shape().rank(), 3, "im2col input must be [C,H,W]");
    assert_eq!(input.shape().dim(0), geom.in_channels, "channel mismatch");
    assert_eq!(input.shape().dim(1), geom.in_h, "height mismatch");
    assert_eq!(input.shape().dim(2), geom.in_w, "width mismatch");
}

/// Lowers a `[C, H, W]` input into a `[C·R·S, out_h·out_w]` patch matrix.
///
/// Out-of-range (padding) positions contribute zeros (+0.0).
///
/// # Panics
///
/// Panics if `input` does not have shape `[C, H, W]` matching `geom`.
pub fn im2col(input: &Tensor, geom: &ConvGeometry) -> Tensor {
    let mut out = Tensor::zeros(&[geom.patch_len(), geom.out_positions()]);
    im2col_into(input, geom, 0.0, out.data_mut());
    out
}

/// [`im2col`] into the caller's row-major `[C·R·S, out_h·out_w]` `out`,
/// with every padding entry set to `fill`. Every entry of `out` is
/// written.
///
/// # Panics
///
/// Panics if `input` does not have shape `[C, H, W]` matching `geom`, or
/// `out` does not have `C·R·S · out_h·out_w` entries.
pub fn im2col_into(input: &Tensor, geom: &ConvGeometry, fill: f32, out: &mut [f32]) {
    assert_input_shape(input, geom);
    let ow = geom.out_w();
    assert_eq!(
        out.len(),
        geom.patch_len() * geom.out_positions(),
        "im2col output length mismatch"
    );
    let (id, stride) = (input.data(), geom.stride);
    walk(geom, |seg, span| {
        let out = &mut out[seg..seg + ow];
        let Some((cols, first)) = span else {
            out.fill(fill);
            return;
        };
        out[..cols.start].fill(fill);
        out[cols.end..].fill(fill);
        let out = &mut out[cols];
        if stride == 1 {
            out.copy_from_slice(&id[first..first + out.len()]);
        } else {
            for (o, &v) in out.iter_mut().zip(id[first..].iter().step_by(stride)) {
                *o = v;
            }
        }
    });
}

/// The adjoint of [`im2col`]: scatters a patch-matrix gradient back onto a
/// `[C, H, W]` input-gradient tensor (needed for conv backprop). Each
/// pixel sums its contributions in `(c, kh, kw, oy, ox)` order.
///
/// # Panics
///
/// Panics if `cols` does not have shape `[C·R·S, out_h·out_w]`.
pub fn col2im(cols: &Tensor, geom: &ConvGeometry) -> Tensor {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    assert_eq!(
        cols.shape().dims(),
        &[geom.patch_len(), oh * ow],
        "col2im shape mismatch"
    );
    let mut out = Tensor::zeros(&[geom.in_channels, geom.in_h, geom.in_w]);
    let (cd, stride) = (cols.data(), geom.stride);
    let od = out.data_mut();
    // For one (kh, kw), distinct columns of a span read distinct pixels,
    // so adding a span at once keeps every pixel's order.
    walk(geom, |seg, span| {
        let Some((span, first)) = span else {
            return;
        };
        let src = &cd[seg + span.start..seg + span.end];
        if stride == 1 {
            for (o, &v) in od[first..first + src.len()].iter_mut().zip(src) {
                *o += v;
            }
        } else {
            for (o, &v) in od[first..].iter_mut().step_by(stride).zip(src) {
                *o += v;
            }
        }
    });
    out
}

/// Calls `f` with each maximal run of input indices `0..n` along one axis
/// that some output's window `[o·stride − padding, o·stride − padding +
/// kernel)` covers, in ascending order.
fn for_each_read_run(
    n: usize,
    out: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    mut f: impl FnMut(Range<usize>),
) {
    let mut run: Option<Range<usize>> = None;
    for o in 0..out {
        let lo = (o * stride).saturating_sub(padding);
        let hi = (o * stride + kernel).saturating_sub(padding).min(n);
        if lo >= hi {
            continue;
        }
        match &mut run {
            Some(r) if lo <= r.end => r.end = hi,
            _ => {
                if let Some(r) = run.replace(lo..hi) {
                    f(r);
                }
            }
        }
    }
    if let Some(r) = run {
        f(r);
    }
}

/// The largest `|x|` over the pixels of a `[C, H, W]` input that some
/// patch reads (0.0 if none, NaN ignored): bitwise
/// `im2col(input, geom).max_abs()`, without building the patch matrix.
/// Padding adds only +0.0 entries, which cannot raise a maximum folded
/// from 0.0, and a pixel read by several patches counts once. A pixel is
/// read when its row and its column both are, so the scan visits the
/// read rows' read column runs, and a run that spans the full width
/// makes its rows one contiguous slice. At stride 1 every pixel is read;
/// a larger stride can leave trailing rows and columns (or, past the
/// kernel size, gaps) unread.
///
/// # Panics
///
/// Panics if `input` does not have shape `[C, H, W]` matching `geom`.
pub fn patch_max_abs(input: &Tensor, geom: &ConvGeometry) -> f32 {
    assert_input_shape(input, geom);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (w, stride, padding) = (geom.in_w, geom.stride, geom.padding);
    let mut m = 0.0f32;
    for plane in input.data().chunks_exact(geom.in_h * w) {
        for_each_read_run(geom.in_h, oh, geom.kernel_h, stride, padding, |rows| {
            for_each_read_run(w, ow, geom.kernel_w, stride, padding, |cols| {
                if cols.len() == w {
                    m = m.max(max_abs(&plane[rows.start * w..rows.end * w]));
                } else {
                    for iy in rows.clone() {
                        m = m.max(max_abs(&plane[iy * w..][cols.clone()]));
                    }
                }
            });
        });
    }
    m
}

/// Direct (naive) convolution used as a reference to validate the
/// im2col + GEMM path. Filters are `[K, C, R, S]`, output is `[K, oh, ow]`.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn conv2d_direct(input: &Tensor, filters: &Tensor, geom: &ConvGeometry) -> Tensor {
    assert_eq!(filters.shape().rank(), 4, "filters must be [K,C,R,S]");
    let k = filters.shape().dim(0);
    assert_eq!(filters.shape().dim(1), geom.in_channels);
    assert_eq!(filters.shape().dim(2), geom.kernel_h);
    assert_eq!(filters.shape().dim(3), geom.kernel_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let mut out = Tensor::zeros(&[k, oh, ow]);
    for f in 0..k {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for c in 0..geom.in_channels {
                    for kh in 0..geom.kernel_h {
                        for kw in 0..geom.kernel_w {
                            let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                            let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                            if iy >= 0
                                && (iy as usize) < geom.in_h
                                && ix >= 0
                                && (ix as usize) < geom.in_w
                            {
                                acc += input.at(&[c, iy as usize, ix as usize])
                                    * filters.at(&[f, c, kh, kw]);
                            }
                        }
                    }
                }
                out.set(&[f, oy, ox], acc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;

    fn geom_3x3() -> ConvGeometry {
        ConvGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 0,
        }
    }

    #[test]
    fn geometry_math() {
        let g = geom_3x3();
        assert_eq!(g.out_h(), 3);
        assert_eq!(g.out_w(), 3);
        assert_eq!(g.patch_len(), 18);
        assert_eq!(g.out_positions(), 9);
    }

    #[test]
    fn geometry_with_padding_and_stride() {
        let g = ConvGeometry {
            in_channels: 3,
            in_h: 224,
            in_w: 224,
            kernel_h: 11,
            kernel_w: 11,
            stride: 4,
            padding: 2,
        };
        // AlexNet conv1: (224 + 4 - 11)/4 + 1 = 55
        assert_eq!(g.out_h(), 55);
        assert_eq!(g.out_w(), 55);
    }

    #[test]
    fn im2col_gemm_matches_direct_conv() {
        let g = geom_3x3();
        let input = Tensor::from_fn(&[2, 5, 5], |i| (i as f32 * 0.37).sin());
        let filters = Tensor::from_fn(&[4, 2, 3, 3], |i| (i as f32 * 0.11).cos());

        let direct = conv2d_direct(&input, &filters, &g);

        let cols = im2col(&input, &g);
        let fmat = filters.reshaped(&[4, g.patch_len()]);
        let gemm_out = matmul(&fmat, &cols);

        for (a, b) in direct.data().iter().zip(gemm_out.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn im2col_gemm_matches_direct_conv_padded_strided() {
        let g = ConvGeometry {
            in_channels: 3,
            in_h: 7,
            in_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 1,
        };
        let input = Tensor::from_fn(&[3, 7, 6], |i| ((i * 7 % 13) as f32) - 6.0);
        let filters = Tensor::from_fn(&[5, 3, 3, 3], |i| ((i * 3 % 11) as f32) * 0.1 - 0.5);

        let direct = conv2d_direct(&input, &filters, &g);
        let cols = im2col(&input, &g);
        let gemm_out = matmul(&filters.reshaped(&[5, g.patch_len()]), &cols);

        assert_eq!(direct.len(), gemm_out.len());
        for (a, b) in direct.data().iter().zip(gemm_out.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the adjoint, which backprop relies on.
        let g = ConvGeometry {
            in_channels: 2,
            in_h: 4,
            in_w: 4,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let x = Tensor::from_fn(&[2, 4, 4], |i| (i as f32 * 0.7).sin());
        let y = Tensor::from_fn(&[g.patch_len(), g.out_positions()], |i| {
            (i as f32 * 0.3).cos()
        });
        let lhs = crate::ops::dot(
            &im2col(&x, &g).reshaped(&[g.patch_len() * g.out_positions()]),
            &y.reshaped(&[g.patch_len() * g.out_positions()]),
        );
        let rhs = crate::ops::dot(
            &x.reshaped(&[x.len()]),
            &col2im(&y, &g).reshaped(&[x.len()]),
        );
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn padding_region_is_zero() {
        let g = ConvGeometry {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let input = Tensor::full(&[1, 2, 2], 1.0);
        let cols = im2col(&input, &g);
        // top-left output position: kernel position (0,0) maps to padded
        // coordinate (-1,-1) which must be zero.
        assert_eq!(cols.at(&[0, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics_with_a_message() {
        ConvGeometry {
            stride: 0,
            ..geom_3x3()
        }
        .out_w();
    }

    /// The per-entry loop the row-span walk replaced, kept as the
    /// reference: every patch-matrix entry tests its own bounds, and
    /// `f(entry, pixel)` runs for the in-range ones in `(c, kh, kw, oy,
    /// ox)` order.
    fn per_entry(geom: &ConvGeometry, mut f: impl FnMut(usize, usize)) {
        let (oh, ow) = (geom.out_h(), geom.out_w());
        for c in 0..geom.in_channels {
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    let row = (c * geom.kernel_h + kh) * geom.kernel_w + kw;
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                            if iy >= 0
                                && (iy as usize) < geom.in_h
                                && ix >= 0
                                && (ix as usize) < geom.in_w
                            {
                                let pixel = (c * geom.in_h + iy as usize) * geom.in_w;
                                f(row * oh * ow + oy * ow + ox, pixel + ix as usize);
                            }
                        }
                    }
                }
            }
        }
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Every geometry with C 1–3, H and W 1–9, kernels 1–4 × 1–4, stride
    /// 1–3 and padding 0–4 whose kernel fits, the channel count cycling
    /// so the sweep stays small.
    fn geometries() -> impl Iterator<Item = ConvGeometry> {
        let dims = (1..=9usize).flat_map(|h| (1..=9usize).map(move |w| (h, w)));
        let kernels = (1..=4usize).flat_map(|kh| (1..=4usize).map(move |kw| (kh, kw)));
        let conv = (1..=3usize).flat_map(|s| (0..=4usize).map(move |p| (s, p)));
        dims.flat_map(move |hw| kernels.clone().map(move |k| (hw, k)))
            .flat_map(move |hwk| conv.clone().map(move |sp| (hwk, sp)))
            .enumerate()
            .map(
                |(i, (((in_h, in_w), (kernel_h, kernel_w)), (stride, padding)))| ConvGeometry {
                    in_channels: 1 + i % 3,
                    in_h,
                    in_w,
                    kernel_h,
                    kernel_w,
                    stride,
                    padding,
                },
            )
            .filter(|g| {
                g.in_h + 2 * g.padding >= g.kernel_h && g.in_w + 2 * g.padding >= g.kernel_w
            })
    }

    /// Normal samples with NaN, ±∞, −0.0 and subnormals mixed in.
    fn values(r: &mut crate::rng::Rng, n: usize) -> Vec<f32> {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
        ];
        (0..n)
            .map(|_| match r.random_range(0..12usize) {
                i @ 0..=5 => specials[i],
                _ => crate::rng::normal_sample(r),
            })
            .collect()
    }

    #[test]
    fn row_span_lowering_is_bitwise_the_per_entry_loops() {
        let mut r = crate::rng::seeded(41);
        let mut checked = 0;
        for g in geometries() {
            let (rows, cols) = (g.patch_len(), g.out_positions());
            let input = Tensor::from_vec(
                values(&mut r, g.in_channels * g.in_h * g.in_w),
                &[g.in_channels, g.in_h, g.in_w],
            );
            let mut want = vec![0.0f32; rows * cols];
            per_entry(&g, |e, px| want[e] = input.data()[px]);
            let got = im2col(&input, &g);
            assert_eq!(got.shape().dims(), &[rows, cols], "{g:?}");
            assert_eq!(bits(got.data()), bits(&want), "im2col {g:?}");
            // a fill value lands exactly where the zeros did
            let fill = f32::from_bits(0x7fc0_1234);
            let mut filled = vec![1.0; rows * cols];
            im2col_into(&input, &g, fill, &mut filled);
            let mut want_filled = vec![fill; rows * cols];
            per_entry(&g, |e, px| want_filled[e] = input.data()[px]);
            assert_eq!(bits(&filled), bits(&want_filled), "im2col_into {g:?}");

            let grad = Tensor::from_vec(values(&mut r, rows * cols), &[rows, cols]);
            let mut want = vec![0.0f32; input.len()];
            per_entry(&g, |e, px| want[px] += grad.data()[e]);
            assert_eq!(bits(col2im(&grad, &g).data()), bits(&want), "col2im {g:?}");
            let finite = Tensor::from_fn(&[rows, cols], |i| ((i * 37 % 101) as f32 - 50.0) / 7.0);
            let mut want = vec![0.0f32; input.len()];
            per_entry(&g, |e, px| want[px] += finite.data()[e]);
            assert_eq!(
                bits(col2im(&finite, &g).data()),
                bits(&want),
                "col2im {g:?}"
            );

            let max = patch_max_abs(&input, &g);
            assert_eq!(
                max.to_bits(),
                got.max_abs().to_bits(),
                "patch_max_abs {g:?}"
            );
            checked += 1;
        }
        assert!(checked > 15_000, "{checked} geometries");
    }

    #[test]
    fn patch_max_abs_skips_unread_pixels() {
        // Kernel 3 at stride 2 over 10 columns reads columns 0–8 only, and
        // kernel 1 at stride 3 reads every third one.
        for (kernel, stride, unread) in [(3, 2, 9), (1, 3, 7)] {
            let g = ConvGeometry {
                in_channels: 2,
                in_h: 10,
                in_w: 10,
                kernel_h: kernel,
                kernel_w: kernel,
                stride,
                padding: 0,
            };
            let mut x = Tensor::from_fn(&[2, 10, 10], |i| (i % 7) as f32 * 0.1);
            x.set(&[1, 3, unread], -100.0);
            x.set(&[0, unread, 0], f32::INFINITY);
            let m = patch_max_abs(&x, &g);
            assert_eq!(m.to_bits(), im2col(&x, &g).max_abs().to_bits());
            assert!((0.59..0.61).contains(&m), "{m}");
            assert_eq!(x.max_abs(), f32::INFINITY);
        }
    }
}
