//! Layer workload traces — the interface between the algorithm layer and
//! the cycle-level simulator.
//!
//! A trace captures exactly what the hardware sees: layer geometry plus
//! the dynamic switching/sparsity maps. Traces come from two sources:
//! real dual-module execution (`duet-core` outputs, for layers small
//! enough to run in software) and calibrated synthetic generators (for
//! AlexNet/ResNet-scale layers, with per-channel sensitivity drawn from a
//! heterogeneous distribution — the channel imbalance that motivates
//! adaptive mapping).

use duet_core::switching::SwitchingMap;
use duet_tensor::rng::Rng;

/// Workload of one CONV (or im2col-lowered FF) layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvLayerTrace {
    /// Layer name (e.g. "conv3").
    pub name: String,
    /// Output channels `K`.
    pub out_channels: usize,
    /// Output spatial positions `oh · ow`.
    pub positions: usize,
    /// MACs per output element (`C·R·S`).
    pub patch_len: usize,
    /// Input elements (`C·H·W`), for buffer/DRAM accounting.
    pub input_elems: usize,
    /// Weight elements (`K·C·R·S`).
    pub weight_elems: usize,
    /// Sensitive flag per output element, channel-major
    /// (`out_channels × positions`), bit-packed.
    pub omap: SwitchingMap,
    /// Fraction of non-zero input activations (drives IMap skipping).
    pub input_density: f64,
    /// Reduced dimension `k` of this layer's approximate module.
    pub reduced_dim: usize,
}

impl ConvLayerTrace {
    /// Builds a trace from a real dual-module convolution output.
    #[allow(clippy::too_many_arguments)]
    pub fn from_dual_conv(
        name: impl Into<String>,
        out_channels: usize,
        positions: usize,
        patch_len: usize,
        input_elems: usize,
        omap: &SwitchingMap,
        input_density: f64,
        reduced_dim: usize,
    ) -> Self {
        assert_eq!(omap.len(), out_channels * positions, "omap length mismatch");
        Self {
            name: name.into(),
            out_channels,
            positions,
            patch_len,
            input_elems,
            weight_elems: out_channels * patch_len,
            omap: omap.clone(),
            input_density,
            reduced_dim,
        }
    }

    /// Synthesizes a trace with *heterogeneous per-channel sensitivity*:
    /// most channels draw their sensitive fraction around
    /// `mean_sensitive` with spread `spread`, while a ~10% "hot" minority
    /// is almost fully sensitive (0.85–0.98) — the heavy-tailed channel
    /// selectivity observed in trained CNNs. Elements are then flagged
    /// i.i.d. within each channel. The hot channels are what cap
    /// unbalanced output switching near the paper's 1.2× (Fig. 12(a)):
    /// a random group of PE rows almost always contains one.
    ///
    /// # Panics
    ///
    /// Panics if `mean_sensitive` is outside (0, 1).
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic(
        name: impl Into<String>,
        out_channels: usize,
        positions: usize,
        patch_len: usize,
        input_elems: usize,
        mean_sensitive: f64,
        spread: f64,
        input_density: f64,
        reduced_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            mean_sensitive > 0.0 && mean_sensitive < 1.0,
            "mean_sensitive must be in (0,1)"
        );
        let mut omap = SwitchingMap::empty();
        for _ in 0..out_channels {
            let p = if rng.random::<f64>() < 0.10 {
                rng.random_range(0.85..0.98)
            } else {
                (mean_sensitive + (rng.random::<f64>() * 2.0 - 1.0) * spread).clamp(0.02, 0.80)
            };
            for _ in 0..positions {
                omap.push(rng.random::<f64>() < p);
            }
        }
        Self {
            name: name.into(),
            out_channels,
            positions,
            patch_len,
            input_elems,
            weight_elems: out_channels * patch_len,
            omap,
            input_density,
            reduced_dim,
        }
    }

    /// Whether output element `(channel, position)` is sensitive.
    pub fn is_sensitive(&self, channel: usize, position: usize) -> bool {
        self.omap.is_sensitive(channel * self.positions + position)
    }

    /// Sensitive output count per channel — the Reorder Unit's input.
    pub fn channel_workloads(&self) -> Vec<usize> {
        (0..self.out_channels)
            .map(|c| {
                self.omap
                    .sensitive_count_in(c * self.positions, (c + 1) * self.positions)
            })
            .collect()
    }

    /// Total output elements.
    pub fn outputs(&self) -> usize {
        self.out_channels * self.positions
    }

    /// Total sensitive outputs.
    pub fn sensitive_outputs(&self) -> usize {
        self.omap.sensitive_count()
    }

    /// Dense MAC count of the layer.
    pub fn dense_macs(&self) -> u64 {
        (self.outputs() * self.patch_len) as u64
    }

    /// Output sensitivity fraction.
    pub fn sensitive_fraction(&self) -> f64 {
        self.sensitive_outputs() as f64 / self.outputs() as f64
    }
}

/// Workload of one recurrent layer (all time steps, all gates).
#[derive(Debug, Clone, PartialEq)]
pub struct RnnLayerTrace {
    /// Layer name (e.g. "lstm1").
    pub name: String,
    /// Gates per cell (4 for LSTM, 3 for GRU).
    pub gates: usize,
    /// Hidden size `h`.
    pub hidden: usize,
    /// Input size `d`.
    pub input: usize,
    /// Number of time steps simulated.
    pub steps: usize,
    /// Sensitive flag per (step, gate, neuron), flattened
    /// `steps × gates × hidden`, bit-packed.
    pub maps: SwitchingMap,
}

impl RnnLayerTrace {
    /// Synthesizes a trace with i.i.d. per-neuron sensitivity
    /// `sensitive_fraction`.
    ///
    /// # Panics
    ///
    /// Panics if `sensitive_fraction` is outside [0, 1].
    pub fn synthetic(
        name: impl Into<String>,
        gates: usize,
        hidden: usize,
        input: usize,
        steps: usize,
        sensitive_fraction: f64,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&sensitive_fraction),
            "sensitive_fraction must be in [0,1]"
        );
        let maps: SwitchingMap = (0..steps * gates * hidden)
            .map(|_| rng.random::<f64>() < sensitive_fraction)
            .collect();
        Self {
            name: name.into(),
            gates,
            hidden,
            input,
            steps,
            maps,
        }
    }

    /// Builds from per-step gate maps recorded by a real dual-module RNN.
    pub fn from_step_maps(
        name: impl Into<String>,
        input: usize,
        step_maps: &[Vec<SwitchingMap>],
    ) -> Self {
        assert!(!step_maps.is_empty(), "need at least one step");
        let gates = step_maps[0].len();
        let hidden = step_maps[0][0].len();
        let mut maps = SwitchingMap::empty();
        for step in step_maps {
            assert_eq!(step.len(), gates, "inconsistent gate count");
            for m in step {
                assert_eq!(m.len(), hidden, "inconsistent hidden size");
                maps.extend_from_map(m);
            }
        }
        Self {
            name: name.into(),
            gates,
            hidden,
            input,
            steps: step_maps.len(),
            maps,
        }
    }

    /// Sensitive rows of one (step, gate).
    pub fn sensitive_rows(&self, step: usize, gate: usize) -> usize {
        let base = (step * self.gates + gate) * self.hidden;
        self.maps.sensitive_count_in(base, base + self.hidden)
    }

    /// MACs per weight row (`d + h`: both matrices).
    pub fn row_macs(&self) -> u64 {
        (self.input + self.hidden) as u64
    }

    /// Weight bytes per row at 16-bit.
    pub fn row_weight_bytes(&self) -> u64 {
        self.row_macs() * 2
    }

    /// Overall sensitive fraction.
    pub fn sensitive_fraction(&self) -> f64 {
        self.maps.sensitive_count() as f64 / self.maps.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::seeded;

    #[test]
    fn synthetic_conv_trace_statistics() {
        let mut r = seeded(1);
        let t = ConvLayerTrace::synthetic("c1", 64, 196, 576, 50176, 0.4, 0.2, 0.6, 32, &mut r);
        assert_eq!(t.outputs(), 64 * 196);
        let frac = t.sensitive_fraction();
        assert!((frac - 0.4).abs() < 0.08, "fraction {frac}");
        // heterogeneity: channel workloads should vary noticeably
        let w = t.channel_workloads();
        let min = *w.iter().min().unwrap();
        let max = *w.iter().max().unwrap();
        assert!(max > min + 10, "workloads too uniform: {min}..{max}");
    }

    #[test]
    fn channel_workloads_sum() {
        let mut r = seeded(2);
        let t = ConvLayerTrace::synthetic("c", 8, 10, 9, 100, 0.5, 0.3, 1.0, 4, &mut r);
        let sum: usize = t.channel_workloads().iter().sum();
        assert_eq!(sum, t.sensitive_outputs());
    }

    #[test]
    fn from_dual_conv_roundtrip() {
        let m = SwitchingMap::from_flags(vec![true, false, true, true, false, false]);
        let t = ConvLayerTrace::from_dual_conv("x", 2, 3, 5, 20, &m, 0.8, 4);
        assert!(t.is_sensitive(0, 0));
        assert!(!t.is_sensitive(0, 1));
        assert!(t.is_sensitive(1, 0));
        assert_eq!(t.sensitive_outputs(), 3);
        assert_eq!(t.dense_macs(), 30);
    }

    #[test]
    fn rnn_trace_counts() {
        let mut r = seeded(3);
        let t = RnnLayerTrace::synthetic("l", 4, 100, 100, 10, 0.3, &mut r);
        assert_eq!(t.maps.len(), 4000);
        assert!((t.sensitive_fraction() - 0.3).abs() < 0.05);
        assert_eq!(t.row_macs(), 200);
        let s = t.sensitive_rows(0, 0);
        assert!(s <= 100);
    }

    #[test]
    fn rnn_trace_from_step_maps() {
        let step = vec![
            SwitchingMap::from_flags(vec![true, false]),
            SwitchingMap::from_flags(vec![false, false]),
        ];
        let t = RnnLayerTrace::from_step_maps("g", 3, &[step.clone(), step]);
        assert_eq!(t.gates, 2);
        assert_eq!(t.hidden, 2);
        assert_eq!(t.steps, 2);
        assert_eq!(t.sensitive_rows(0, 0), 1);
        assert_eq!(t.sensitive_rows(1, 1), 0);
    }
}
