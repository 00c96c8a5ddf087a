//! Memory-bound dual transformer block execution.
//!
//! A decoder block at batch size 1 is, per position, six GEMVs — the
//! Q/K/V/output projections (`[m, m]`) and the FFN expand/contract pair
//! (`[f, m]` / `[m, f]`) — plus the softmax attention mixer. Like the
//! RNN gates in [`crate::rnn`], the projection weight matrices exceed
//! the GLB at paper scale and are re-streamed from DRAM every position;
//! the per-projection switching maps from
//! [`duet_core::dual_attention::DualTransformerBlock`] let DUET skip
//! fetching (and computing) the weight rows of insensitive outputs.
//!
//! The mixer has no weight matrix — its operands are the just-produced
//! Q/K/V activations, already on-chip — and no insensitive region (every
//! score feeds the softmax normalizer), so it always runs dense on the
//! executor and contributes compute cycles but no DRAM traffic.
//!
//! Speculation follows the gate-level pipeline of §IV-B: each
//! projection's INT4 speculation hides behind the previous stage's
//! execution, so only the first projection of each position exposes its
//! speculation latency.

use crate::config::ArchConfig;
use crate::energy::EnergyTable;
use crate::report::LayerPerf;
use crate::rnn::RnnLatencySplit;
use crate::speculator::speculate_gemv;
use crate::stage::{pe_cycles, RowStage, StageCost};
use duet_core::switching::SwitchingMap;
use duet_tensor::rng::Rng;

/// The six speculated projections of a dual transformer block, in
/// execution order.
const STAGES: usize = 6;

/// Workload of one dual transformer block over a sequence, at batch
/// size 1.
///
/// `maps` uses the exact layout produced by
/// [`duet_core::dual_attention::DualBlockOutput`]: `(q, k, v)` per
/// position, then `o` per position, then `(expand, contract)` per
/// position — `6 × seq_len` maps total.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerBlockTrace {
    /// Block name.
    pub name: String,
    /// Model width `m`.
    pub model: usize,
    /// FFN hidden width `f`.
    pub hidden: usize,
    /// Sequence length `T`.
    pub seq_len: usize,
    /// Reduced dimension of the per-projection INT4 speculators.
    pub reduced_dim: usize,
    /// Switching maps in [`duet_core::dual_attention::DualBlockOutput`]
    /// order.
    pub maps: Vec<SwitchingMap>,
}

/// Shape of one projection stage: `(output rows, macs per row)`.
type StageShape = (usize, usize);

impl TransformerBlockTrace {
    /// Builds a trace from explicit maps.
    ///
    /// # Panics
    ///
    /// Panics if `maps.len() != 6 * seq_len` or any map's length does
    /// not match its projection's output width.
    pub fn new(
        name: impl Into<String>,
        model: usize,
        hidden: usize,
        seq_len: usize,
        maps: Vec<SwitchingMap>,
        reduced_dim: usize,
    ) -> Self {
        assert_eq!(
            maps.len(),
            STAGES * seq_len,
            "map count must be 6 per position"
        );
        let trace = Self {
            name: name.into(),
            model,
            hidden,
            seq_len,
            reduced_dim,
            maps,
        };
        for t in 0..seq_len {
            for stage in 0..STAGES {
                let (rows, _) = trace.stage_shape(stage);
                assert_eq!(
                    trace.stage_map(stage, t).len(),
                    rows,
                    "map length must equal projection output width"
                );
            }
        }
        trace
    }

    /// Builds a trace directly from the maps of a real
    /// [`duet_core::dual_attention::DualBlockOutput`]; the sequence
    /// length is inferred from the map count.
    pub fn from_block_maps(
        name: impl Into<String>,
        model: usize,
        hidden: usize,
        maps: Vec<SwitchingMap>,
        reduced_dim: usize,
    ) -> Self {
        assert_eq!(maps.len() % STAGES, 0, "map count must be 6 per position");
        let seq_len = maps.len() / STAGES;
        Self::new(name, model, hidden, seq_len, maps, reduced_dim)
    }

    /// Synthesizes a trace with i.i.d. per-neuron sensitivity —
    /// `sensitive_attn` for the four attention projections,
    /// `sensitive_ffn` for the FFN pair.
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic(
        name: impl Into<String>,
        model: usize,
        hidden: usize,
        seq_len: usize,
        sensitive_attn: f64,
        sensitive_ffn: f64,
        reduced_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let draw = |n: usize, frac: f64, rng: &mut Rng| -> SwitchingMap {
            (0..n).map(|_| rng.random::<f64>() < frac).collect()
        };
        let mut maps = Vec::with_capacity(STAGES * seq_len);
        for _ in 0..seq_len {
            for _ in 0..3 {
                maps.push(draw(model, sensitive_attn, rng));
            }
        }
        for _ in 0..seq_len {
            maps.push(draw(model, sensitive_attn, rng));
        }
        for _ in 0..seq_len {
            maps.push(draw(hidden, sensitive_ffn, rng));
            maps.push(draw(model, sensitive_ffn, rng));
        }
        Self::new(name, model, hidden, seq_len, maps, reduced_dim)
    }

    /// `(rows, macs per row)` of projection stage `stage` (0..6, in
    /// execution order q, k, v, o, expand, contract).
    fn stage_shape(&self, stage: usize) -> StageShape {
        match stage {
            0..=3 => (self.model, self.model),
            4 => (self.hidden, self.model),
            5 => (self.model, self.hidden),
            _ => unreachable!("stage index out of range"),
        }
    }

    /// The switching map of projection stage `stage` at `position`.
    fn stage_map(&self, stage: usize, position: usize) -> &SwitchingMap {
        let t = self.seq_len;
        match stage {
            0..=2 => &self.maps[3 * position + stage],
            3 => &self.maps[3 * t + position],
            4 => &self.maps[4 * t + 2 * position],
            5 => &self.maps[4 * t + 2 * position + 1],
            _ => unreachable!("stage index out of range"),
        }
    }

    /// Dense MACs of the attention mixer at `position` (causal): the
    /// `position + 1` score dot products plus the context blend.
    fn mixer_macs(&self, position: usize) -> u64 {
        2 * (position as u64 + 1) * self.model as u64
    }

    /// The attention mixer at `position` on the Executor: `position + 1`
    /// score rows of `model` MACs, then `model` blend rows of
    /// `position + 1` MACs.
    fn mixer_cost(&self, position: usize, config: &ArchConfig, energy: &EnergyTable) -> StageCost {
        let keys = position as u64 + 1;
        let model = self.model as u64;
        let cycles = pe_cycles(keys, model, config) + pe_cycles(model, keys, config);
        StageCost::on_chip(self.mixer_macs(position), cycles, config, energy)
    }

    /// Dense-equivalent MACs of the whole block pass, mixer included.
    pub fn dense_macs(&self) -> u64 {
        let m = self.model as u64;
        let f = self.hidden as u64;
        let proj = self.seq_len as u64 * (4 * m * m + 2 * f * m);
        let mixer: u64 = (0..self.seq_len).map(|t| self.mixer_macs(t)).sum();
        proj + mixer
    }
}

/// Result of simulating one dual transformer block.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerRunResult {
    /// Standard per-layer report.
    pub perf: LayerPerf,
    /// Memory/compute/speculation latency split.
    pub split: RnnLatencySplit,
    /// Total weight bytes fetched from DRAM.
    pub weight_bytes_fetched: u64,
}

/// Simulates one dual transformer block pass. With `dual == false`
/// every weight row is fetched and computed (the BASE design); with
/// `dual == true` the per-projection switching maps gate both compute
/// and weight fetches. The mixer is dense either way.
pub fn run_transformer_block(
    trace: &TransformerBlockTrace,
    config: &ArchConfig,
    energy: &EnergyTable,
    dual: bool,
) -> TransformerRunResult {
    let _span = duet_obs::span_lazy("sim.transformer.block", || trace.name.clone());
    let mut total = StageCost::default();
    for position in 0..trace.seq_len {
        // Pipeline state resets each position, like the RNN step walk.
        let mut prev_stage_latency = 0u64;
        for stage in 0..STAGES {
            let (rows, row_macs) = trace.stage_shape(stage);
            let sensitive = if dual {
                trace.stage_map(stage, position).sensitive_count() as u64
            } else {
                rows as u64
            };
            // Single-student speculation, hidden behind the previous
            // stage; the position's first stage is exposed.
            let cost = RowStage {
                rows: sensitive,
                row_macs: row_macs as u64,
                fetch_bytes: sensitive * row_macs as u64 * 2,
                glb_words: (row_macs + rows) as u64,
                spec: dual
                    .then(|| speculate_gemv(rows, row_macs, trace.reduced_dim, config, energy)),
                hidden_behind: prev_stage_latency,
            }
            .cost(config, energy);
            total += cost;
            prev_stage_latency = cost.latency();

            // The mixer runs between the V projection (stage 2) and the
            // output projection (stage 3): dense, weight-free compute on
            // the already-resident Q/K/V activations.
            if stage == 2 {
                let mixer = trace.mixer_cost(position, config, energy);
                total += mixer;
                prev_stage_latency += mixer.latency();
            }
        }
    }
    TransformerRunResult {
        perf: total.perf(&trace.name, trace.dense_macs(), config),
        split: total.split,
        weight_bytes_fetched: total.fetched_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::rng::seeded;

    fn paper_trace(attn: f64, ffn: f64) -> TransformerBlockTrace {
        TransformerBlockTrace::synthetic("block0", 1024, 4096, 16, attn, ffn, 64, &mut seeded(11))
    }

    #[test]
    fn base_run_is_memory_bound_at_paper_scale() {
        let t = paper_trace(0.5, 0.5);
        let r = run_transformer_block(&t, &ArchConfig::duet(), &EnergyTable::default(), false);
        assert!(
            r.perf.dram_cycles > r.perf.executor_cycles,
            "dram {} vs compute {}",
            r.perf.dram_cycles,
            r.perf.executor_cycles
        );
        assert_eq!(r.perf.executed_macs, t.dense_macs());
        assert_eq!(r.perf.speculator_cycles, 0);
    }

    #[test]
    fn dual_fetches_only_sensitive_rows() {
        let t = paper_trace(0.35, 0.35);
        let cfg = ArchConfig::duet();
        let e = EnergyTable::default();
        let base = run_transformer_block(&t, &cfg, &e, false);
        let dual = run_transformer_block(&t, &cfg, &e, true);
        let ratio = dual.weight_bytes_fetched as f64 / base.weight_bytes_fetched as f64;
        assert!((ratio - 0.35).abs() < 0.02, "fetch ratio {ratio}");
        assert!(dual.perf.latency_cycles < base.perf.latency_cycles);
        assert!(dual.perf.energy.dram_pj < base.perf.energy.dram_pj);
        assert!(dual.perf.executed_macs < base.perf.executed_macs);
    }

    #[test]
    fn all_sensitive_matches_base_fetch_and_macs() {
        let maps: Vec<SwitchingMap> = {
            let mut v = Vec::new();
            for _ in 0..4 {
                v.push(SwitchingMap::all_sensitive(32));
            }
            // order: (q,k,v) interleaved ×1 position, o ×1, (expand, contract) ×1
            v.push(SwitchingMap::all_sensitive(64));
            v.push(SwitchingMap::all_sensitive(32));
            v
        };
        let t = TransformerBlockTrace::new("b", 32, 64, 1, maps, 8);
        let cfg = ArchConfig::duet();
        let e = EnergyTable::default();
        let base = run_transformer_block(&t, &cfg, &e, false);
        let dual = run_transformer_block(&t, &cfg, &e, true);
        assert_eq!(base.weight_bytes_fetched, dual.weight_bytes_fetched);
        assert_eq!(base.perf.executed_macs, dual.perf.executed_macs);
        // Speculation is pure overhead here.
        assert!(dual.perf.latency_cycles >= base.perf.latency_cycles);
    }

    #[test]
    fn all_insensitive_still_pays_the_dense_mixer() {
        let t = TransformerBlockTrace::synthetic("b", 64, 128, 8, 0.0, 0.0, 16, &mut seeded(5));
        let r = run_transformer_block(&t, &ArchConfig::duet(), &EnergyTable::default(), true);
        let mixer: u64 = (0..8).map(|p| t.mixer_macs(p)).sum();
        assert_eq!(r.perf.executed_macs, mixer);
        assert_eq!(r.weight_bytes_fetched, 0);
        assert!(r.perf.executor_cycles > 0);
    }

    #[test]
    fn real_block_maps_drive_the_simulator() {
        use duet_core::engine::MacMode;
        use duet_core::{
            DualAttention, DualFfn, DualProjection, DualTransformerBlock, TransformerThresholds,
        };
        use duet_tensor::rng::normal;

        let m = 8usize;
        let f = 16usize;
        let mut r = seeded(41);
        let mut proj = |n: usize, d: usize| {
            let w = normal(&mut r, &[n, d], 0.0, 0.3);
            let b = normal(&mut r, &[n], 0.0, 0.05);
            DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, 4, 200, &mut r)
        };
        let block = DualTransformerBlock::new(
            DualAttention::new(proj(m, m), proj(m, m), proj(m, m), proj(m, m)),
            DualFfn::new(proj(f, m), proj(m, f)),
        );
        let xs = normal(&mut r, &[5, m], 0.0, 1.0);
        let out = block.forward(&xs, &TransformerThresholds::uniform(0.05));

        let trace = TransformerBlockTrace::from_block_maps("distilled", m, f, out.maps.clone(), 4);
        assert_eq!(trace.seq_len, 5);
        let cfg = ArchConfig::duet();
        let e = EnergyTable::default();
        let base = run_transformer_block(&trace, &cfg, &e, false);
        let dual = run_transformer_block(&trace, &cfg, &e, true);
        assert_eq!(base.perf.dense_macs, trace.dense_macs());
        assert!(dual.weight_bytes_fetched <= base.weight_bytes_fetched);
        let sensitive: usize = out.maps.iter().map(|m| m.sensitive_count()).sum();
        let total: usize = out.maps.iter().map(|m| m.len()).sum();
        if sensitive < total {
            assert!(dual.weight_bytes_fetched < base.weight_bytes_fetched);
        }
    }

    #[test]
    #[should_panic(expected = "map count")]
    fn bad_map_count_panics() {
        TransformerBlockTrace::new("x", 8, 16, 2, vec![SwitchingMap::all_sensitive(8)], 4);
    }

    #[test]
    #[should_panic(expected = "map length")]
    fn bad_map_length_panics() {
        let maps = vec![SwitchingMap::all_sensitive(7); 6];
        TransformerBlockTrace::new("x", 8, 16, 1, maps, 4);
    }
}
