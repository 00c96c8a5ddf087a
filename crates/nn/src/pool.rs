//! Max pooling with backprop.

use crate::layer::{Layer, Param};
use duet_tensor::Tensor;

/// 2-D max pooling over `[B, C, H, W]` inputs with a square window and
/// stride equal to the window size (the common CNN configuration).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    cached_argmax: Option<(Vec<usize>, Vec<usize>)>, // (argmax offsets, input dims flattened)
    cached_in_dims: Option<[usize; 4]>,
}

impl MaxPool2d {
    /// Creates a pooling layer with the given square window.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pooling window must be positive");
        Self {
            window,
            cached_argmax: None,
            cached_in_dims: None,
        }
    }

    /// The pooling window size.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "MaxPool2d expects [B, C, H, W]");
        let (b, c, h, w) = (
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
        );
        let k = self.window;
        assert!(h >= k && w >= k, "input {h}x{w} smaller than window {k}");
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(&[b, c, oh, ow]);
        let mut argmax = vec![0usize; b * c * oh * ow];
        let xd = x.data();
        let od = out.data_mut();
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_off = 0;
                        for dy in 0..k {
                            for dx in 0..k {
                                let off = base + (oy * k + dy) * w + (ox * k + dx);
                                if xd[off] > best {
                                    best = xd[off];
                                    best_off = off;
                                }
                            }
                        }
                        let oidx = ((bi * c + ci) * oh + oy) * ow + ox;
                        od[oidx] = best;
                        argmax[oidx] = best_off;
                    }
                }
            }
        }
        self.cached_argmax = Some((argmax, vec![b * c * h * w]));
        self.cached_in_dims = Some([b, c, h, w]);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (argmax, _) = self
            .cached_argmax
            .as_ref()
            .expect("backward called before forward");
        let [b, c, h, w] = self.cached_in_dims.expect("backward before forward");
        let mut dx = Tensor::zeros(&[b, c, h, w]);
        assert_eq!(grad_out.len(), argmax.len(), "grad length mismatch");
        let dd = dx.data_mut();
        for (g, &off) in grad_out.data().iter().zip(argmax) {
            dd[off] += g;
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_picks_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let mut p = MaxPool2d::new(2);
        let y = p.forward(&x);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]);
        let mut p = MaxPool2d::new(2);
        let _ = p.forward(&x);
        let dx = p.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn multi_channel_independent() {
        let x = Tensor::from_vec(
            vec![
                // channel 0
                1.0, 0.0, 0.0, 0.0, //
                // channel 1
                0.0, 0.0, 0.0, 7.0,
            ],
            &[1, 2, 2, 2],
        );
        let mut p = MaxPool2d::new(2);
        let y = p.forward(&x);
        assert_eq!(y.data(), &[1.0, 7.0]);
    }

    #[test]
    fn truncates_ragged_edge() {
        // 5x5 with window 2 -> 2x2 output, last row/col dropped
        let x = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32);
        let mut p = MaxPool2d::new(2);
        let y = p.forward(&x);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 16.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "smaller than window")]
    fn window_larger_than_input_panics() {
        let mut p = MaxPool2d::new(3);
        p.forward(&Tensor::zeros(&[1, 1, 2, 2]));
    }
}
