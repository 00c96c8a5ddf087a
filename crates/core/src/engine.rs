//! The shared speculation engine behind every dual-module variant.
//!
//! Every layer kind — FC, CONV, LSTM, GRU and attention/FFN, each a
//! composition of [`crate::DualProjection`]s — implements the same §II
//! pattern: run the approximate module, derive a switching map (Eq. 3),
//! recompute the sensitive outputs exactly with a row-sparse kernel, and
//! keep the approximate value everywhere else (Eq. 2).
//! [`SpeculationEngine`] owns that pattern once: the map construction,
//! the sparse-execute loops, the in-place mix into the approximate
//! buffer, the op/byte accounting behind [`SavingsReport`], and the
//! duet-obs counters — so a layer only supplies the row arithmetic it
//! hands to the engine's execute loops.
//!
//! There are three loops over the same map walk. `execute` /
//! `execute_into` hand each sensitive output to a closure with the
//! shared [`RowKernel`]; `execute_rows_into` runs FF and RNN rows in
//! word-sized lane batches; `execute_columns_into` runs a CONV layer's
//! sensitive im2col columns eight at a time per filter row. The batched
//! loops reproduce [`RowKernel::dot`] bit for bit. The column loop
//! derives its counts from the map (popcounts, and non-zero inputs under
//! an IMap) instead of counting inside the arithmetic.
//!
//! An engine lives for one layer invocation (one `forward` / `step`): it
//! opens the `core.dual.forward` span on creation, accumulates counts
//! across any number of `speculate`/`execute` rounds (an RNN step runs
//! one per gate), and emits every metric exactly once in
//! [`SpeculationEngine::finish`].

use crate::approx::ApproxLinear;
use crate::metrics::SavingsReport;
use crate::switching::{SwitchingMap, SwitchingPolicy};
use duet_tensor::Tensor;

/// How the accurate row kernel gathers its input operand.
#[derive(Debug, Clone, Copy)]
pub enum Gather<'a> {
    /// Contiguous input vector: element `j` is `x[j]` (FF rows, RNN
    /// rows).
    Dense(&'a [f32]),
    /// One column of a row-major `[d, stride]` patch matrix: element `j`
    /// is `data[j * stride + col]` (im2col CONV). The conv layer itself
    /// runs [`SpeculationEngine::execute_columns_into`]; this per-output
    /// form is what a replay from public pieces, and the pins on that
    /// executor, compare it against.
    Column {
        /// The patch matrix data.
        data: &'a [f32],
        /// Row stride (number of output positions).
        stride: usize,
        /// Column (output position) to gather.
        col: usize,
    },
}

/// MAC-issue semantics of one row: what is computed, skipped, and
/// counted. Each variant mirrors a hardware behaviour from the paper.
#[derive(Debug, Clone, Copy)]
pub enum MacMode {
    /// Skip zero *weights*: a pruned accurate module's zeros are
    /// statically removed from the MAC-instruction LUT, costing neither a
    /// MAC nor a weight fetch (§VI).
    SkipZeroWeights,
    /// Dense row: every element is computed and counted (RNN gates — the
    /// rows are dense and the saving is whole rows, §IV-B).
    Dense,
    /// Skip zero *inputs* in the arithmetic (exact, since the skipped
    /// products are zero). `count_skipped` controls whether skipped MACs
    /// still occupy issue slots: without an IMap the PE issues them
    /// anyway (Fig. 6 tag bits are only configured when a map exists).
    SkipZeroInputs {
        /// Count skipped MACs as issued (no IMap present).
        count_skipped: bool,
    },
}

/// One reduction segment of an accurate row: a row-major weight matrix,
/// the operand it gathers, and the MAC-issue semantics. A row's dot
/// product is `bias + Σ segments`, accumulated segment by segment in
/// declaration order — an FF row is one segment (`W·x`), an RNN gate lane
/// is two (`W_ih·x` then `W_hh·h`), matching each variant's historical
/// accumulation order exactly.
#[derive(Debug, Clone, Copy)]
pub struct RowSegment<'a> {
    /// Row-major weight matrix data; row `i` is `weights[i*d..(i+1)*d]`.
    pub weights: &'a [f32],
    /// Row length (reduction dimension of this segment).
    pub d: usize,
    /// How the segment gathers its input operand.
    pub x: Gather<'a>,
    /// MAC-issue semantics of the segment.
    pub mode: MacMode,
}

/// The row-sparse accurate kernel — the one place a sensitive output's
/// dot product is computed. Counts MACs and touched weight words as it
/// goes.
#[derive(Debug)]
pub struct RowKernel {
    macs: u64,
    weight_words: u64,
}

impl RowKernel {
    /// Accumulates `init + Σ weights[j] · gather(j)` under `mode`.
    ///
    /// The accumulation order is exactly the element order of `weights` —
    /// every variant's historical per-row order — so results are bitwise
    /// stable across the refactor.
    pub fn dot(&mut self, init: f32, weights: &[f32], x: Gather<'_>, mode: MacMode) -> f32 {
        // The counts stay in locals and reach `self` once per row: a store
        // to `self` (the engine, on the caller's stack) on every MAC would
        // stall the loop's weight and input loads whenever one matched it
        // in the low 12 bits (4K aliasing), which depends on where the
        // process's stack lands.
        let mut acc = init;
        let (mut macs, mut words) = (0u64, 0u64);
        match (x, mode) {
            (Gather::Dense(xd), MacMode::SkipZeroWeights) => {
                for (&w, &v) in weights.iter().zip(xd) {
                    if w != 0.0 {
                        acc += w * v;
                        macs += 1;
                    }
                }
                words = macs;
            }
            (Gather::Dense(xd), MacMode::Dense) => {
                for (&w, &v) in weights.iter().zip(xd) {
                    acc += w * v;
                }
                macs = weights.len() as u64;
                words = macs;
            }
            (Gather::Column { data, stride, col }, MacMode::SkipZeroInputs { count_skipped }) => {
                for (j, &w) in weights.iter().enumerate() {
                    let v = data[j * stride + col];
                    if v != 0.0 {
                        acc += w * v;
                        macs += 1;
                    } else if count_skipped {
                        macs += 1;
                    }
                }
            }
            // The remaining combinations are well-defined but unused;
            // handle them generically so the kernel stays total.
            (Gather::Column { data, stride, col }, MacMode::Dense) => {
                for (j, &w) in weights.iter().enumerate() {
                    acc += w * data[j * stride + col];
                }
                macs = weights.len() as u64;
                words = macs;
            }
            (Gather::Column { data, stride, col }, MacMode::SkipZeroWeights) => {
                for (j, &w) in weights.iter().enumerate() {
                    if w != 0.0 {
                        acc += w * data[j * stride + col];
                        macs += 1;
                    }
                }
                words = macs;
            }
            (Gather::Dense(xd), MacMode::SkipZeroInputs { count_skipped }) => {
                for (&w, &v) in weights.iter().zip(xd) {
                    if v != 0.0 {
                        acc += w * v;
                        macs += 1;
                    } else if count_skipped {
                        macs += 1;
                    }
                }
            }
        }
        self.macs += macs;
        self.weight_words += words;
        acc
    }

    /// Mask-compaction gather over one switching-map word: the set bits of
    /// `word` are compacted into a lane batch (`trailing_zeros` / clear-
    /// lowest-bit), and each selected row `base + lane` (offset by
    /// `row_offset` into the weight/bias arrays) is computed as
    /// `bias[row] + Σ segments` via [`RowKernel::dot`] — one batch per map
    /// word instead of one callback per bit, with the gathered operand
    /// staying hot across the whole batch. Results land in
    /// `out[base + lane]`; the lane order (ascending) and per-row
    /// accumulation order are exactly the bit-serial loop's, so outputs
    /// are bitwise identical.
    ///
    /// Returns the number of lanes executed (the word's popcount).
    pub fn dot_rows(
        &mut self,
        word: u64,
        base: usize,
        row_offset: usize,
        bias: &[f32],
        segments: &[RowSegment<'_>],
        out: &mut [f32],
    ) -> u32 {
        let mut lanes = [0u8; 64];
        let n = if word == u64::MAX {
            // all-sensitive word: dense fast path, no bit extraction
            for (i, l) in lanes.iter_mut().enumerate() {
                *l = i as u8;
            }
            64
        } else {
            let mut n = 0usize;
            let mut bits = word;
            while bits != 0 {
                lanes[n] = bits.trailing_zeros() as u8;
                n += 1;
                bits &= bits - 1;
            }
            n
        };
        for &lane in &lanes[..n] {
            let local = base + lane as usize;
            let row = row_offset + local;
            let mut acc = bias[row];
            for seg in segments {
                acc = self.dot(
                    acc,
                    &seg.weights[row * seg.d..(row + 1) * seg.d],
                    seg.x,
                    seg.mode,
                );
            }
            out[local] = acc;
        }
        n as u32
    }
}

/// Columns one [`SpeculationEngine::execute_columns_into`] batch runs
/// side by side, one accumulator each.
const COLUMN_LANES: usize = 8;

/// `bias + Σ_j w[j] · cols[j·P + c]` for the [`COLUMN_LANES`] columns `c`
/// in `lanes` (`P = out.len()`), accumulated in ascending `j`, written to
/// `out[c]`. A lane that repeats a column rewrites the same value.
///
/// A zero input adds −0.0 where [`RowKernel::dot`] skips it. Adding −0.0
/// leaves every sum as it was, ±0 included, so each result is bitwise the
/// skip's, and the loop needs no branch.
#[inline]
fn column_dots(bias: f32, w: &[f32], cols: &[f32], lanes: &[usize; COLUMN_LANES], out: &mut [f32]) {
    let p = out.len();
    // checked once per batch, so the loads below need no bounds checks
    assert!(lanes.iter().all(|&c| c < p), "column out of range");
    let mut acc = [bias; COLUMN_LANES];
    for (&wj, x) in w.iter().zip(cols.chunks_exact(p)) {
        for (a, &c) in acc.iter_mut().zip(lanes) {
            let v = x[c];
            *a += if v != 0.0 { wj * v } else { -0.0 };
        }
    }
    for (&c, &a) in lanes.iter().zip(&acc) {
        out[c] = a;
    }
}

/// How a variant's executor weight traffic is accounted.
#[derive(Debug, Clone, Copy)]
pub enum ExecutorWeightBytes {
    /// Two bytes (INT16) per weight word the kernel actually touched —
    /// the memory-bound row-fetch model of FF/RNN layers (§IV-B).
    CountedWords,
    /// A fixed byte count independent of the switching map — the
    /// compute-bound CONV model, where the small filter bank is loaded
    /// once and reused across positions.
    Fixed(u64),
}

/// Speculator-side constants a variant reports for its approximate
/// module(s); everything executor-side is measured by the engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineCosts {
    /// MACs a dense single-module execution would issue.
    pub dense_macs: u64,
    /// Weight bytes a dense execution would fetch.
    pub dense_weight_bytes: u64,
    /// Approximate-module MACs (INT4 over the projected input).
    pub speculator_macs: u64,
    /// Additions of the ternary projection.
    pub speculator_adds: u64,
    /// Approximate-module weight bytes.
    pub speculator_weight_bytes: u64,
    /// Executor weight-byte accounting mode.
    pub executor_weight_bytes: ExecutorWeightBytes,
}

/// One dual-module layer invocation: speculate → execute sparsely → mix →
/// account. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct SpeculationEngine {
    outputs_total: u64,
    outputs_exact: u64,
    kernel: RowKernel,
    map_packed_bytes: u64,
    /// Speculator scratch, reused by every projection of the invocation.
    work: Vec<f32>,
    _span: duet_obs::Span,
}

impl Default for SpeculationEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeculationEngine {
    /// Opens the engine (and its `core.dual.forward` span) for one layer
    /// invocation.
    pub fn new() -> Self {
        Self {
            outputs_total: 0,
            outputs_exact: 0,
            kernel: RowKernel {
                macs: 0,
                weight_words: 0,
            },
            map_packed_bytes: 0,
            work: Vec::new(),
            _span: duet_obs::span("core.dual.forward"),
        }
    }

    /// Runs the approximate module on `x` into `out` with the engine's
    /// scratch, so repeated speculation allocates nothing once the
    /// scratch has grown to the largest projection.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` does not match the module's dimensions.
    pub fn approximate(&mut self, approx: &ApproxLinear, x: &[f32], out: &mut [f32]) {
        approx.forward_into(x, out, &mut self.work);
    }

    /// Builds the switching map for a vector of approximate
    /// pre-activations (Eq. 3) and accounts for its outputs and packed
    /// GLB footprint.
    pub fn speculate(&mut self, policy: &SwitchingPolicy, y_approx: &Tensor) -> SwitchingMap {
        self.speculate_slice(policy, y_approx.data())
    }

    /// [`SpeculationEngine::speculate`] over a slice — what every layer
    /// calls on its approximate buffer.
    pub fn speculate_slice(&mut self, policy: &SwitchingPolicy, y_approx: &[f32]) -> SwitchingMap {
        let map = policy.map_slice(y_approx);
        self.account_map(&map);
        map
    }

    /// Accounts for an externally built switching map (e.g. the GRU
    /// candidate gate, whose pre-activation mixes two approximate
    /// streams before thresholding).
    pub fn account_map(&mut self, map: &SwitchingMap) {
        self.outputs_total += map.len() as u64;
        self.map_packed_bytes += map.len().div_ceil(8) as u64;
        // Checked here too, so a run without metrics skips the division.
        if duet_obs::metrics_enabled() {
            duet_obs::histogram!("core.dual.map.insensitive_bp")
                .record((map.insensitive_fraction() * 10_000.0) as u64);
        }
    }

    /// The sparse-execute loop: runs `row` once per sensitive index, in
    /// ascending order, counting one exact output each. `row` receives
    /// the index and the shared [`RowKernel`].
    ///
    /// The map is consumed a whole `u64` word at a time, so skipping
    /// costs O(popcount), not O(bits): all-insensitive (zero) words are
    /// run-length skipped by [`SwitchingMap::iter_words`], all-sensitive
    /// (`u64::MAX`-within-span) words take a dense fast path with no bit
    /// extraction, and mixed words extract set bits with
    /// `trailing_zeros` / clear-lowest-bit. Execution order is unchanged
    /// (ascending index), so outputs and accounting are bitwise identical
    /// to the historical index-by-index loop.
    pub fn execute(&mut self, map: &SwitchingMap, mut row: impl FnMut(usize, &mut RowKernel)) {
        let len = map.len();
        for (wi, w) in map.iter_words() {
            let base = wi * 64;
            let span = 64.min(len - base);
            let full = if span == 64 {
                u64::MAX
            } else {
                (1u64 << span) - 1
            };
            if w == full {
                for i in base..base + span {
                    row(i, &mut self.kernel);
                }
                self.outputs_exact += span as u64;
            } else {
                let mut bits = w;
                while bits != 0 {
                    row(base + bits.trailing_zeros() as usize, &mut self.kernel);
                    self.outputs_exact += 1;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// [`SpeculationEngine::execute`] fused with the Eq. (2) mix:
    /// `out` holds the approximate values on entry; each sensitive index
    /// is overwritten with the exact value `row` returns, leaving
    /// insensitive outputs approximate.
    pub fn execute_into(
        &mut self,
        map: &SwitchingMap,
        out: &mut [f32],
        mut row: impl FnMut(usize, &mut RowKernel) -> f32,
    ) {
        assert_eq!(out.len(), map.len(), "mix buffer length mismatch");
        self.execute(map, |i, k| out[i] = row(i, k));
    }

    /// The batched form of [`SpeculationEngine::execute_into`] for
    /// variants whose rows are plain weight-matrix dot products: each
    /// non-zero map word is handed to [`RowKernel::dot_rows`], which
    /// mask-compacts the word's sensitive lanes and processes them as one
    /// batch (the gathered operand stays hot across the batch, and the
    /// per-bit closure dispatch disappears). `row_offset` maps local map
    /// index `i` to weight/bias row `row_offset + i` — an RNN gate `g`
    /// over a per-gate map passes `g * hidden`.
    ///
    /// Bitwise identical to the closure path: same lane order, same
    /// per-row accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != map.len()`.
    pub fn execute_rows_into(
        &mut self,
        map: &SwitchingMap,
        out: &mut [f32],
        row_offset: usize,
        bias: &[f32],
        segments: &[RowSegment<'_>],
    ) {
        assert_eq!(out.len(), map.len(), "mix buffer length mismatch");
        let len = map.len();
        for (wi, w) in map.iter_words() {
            let base = wi * 64;
            let span = 64.min(len - base);
            debug_assert!(span == 64 || w < (1u64 << span), "tail bits must be zero");
            let n = self
                .kernel
                .dot_rows(w, base, row_offset, bias, segments, out);
            self.outputs_exact += n as u64;
        }
    }

    /// The CONV executor: the map covers a row-major `[n, P]` output
    /// (`n = bias.len()` filter rows by `P` positions), and each
    /// sensitive output `(row, col)` becomes
    /// `bias[row] + Σ_j weights[row·d + j] · cols[j·P + col]` over the
    /// `[d, P]` patch matrix `cols`, with zero inputs skipped — the value
    /// [`RowKernel::dot`] gives under `Gather::Column` and
    /// [`MacMode::SkipZeroInputs`], bit for bit.
    ///
    /// Each filter row walks its sensitive columns from the map words and
    /// runs them eight at a time, one accumulator per column, so no output
    /// pays an `i / P`, a row closure or the kernel's mode match. The
    /// counts are closed forms of the map: the row's exact outputs are
    /// the popcount of its range, and its MACs are popcount × d when
    /// skipped MACs still issue (`count_skipped`, no IMap), or else the
    /// sum of the sensitive columns' non-zero input counts.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != map.len()`, or if `weights`, `out` and
    /// `cols` are not `[n, d]`, `[n, P]` and `[d, P]` for `n =
    /// bias.len()`.
    pub fn execute_columns_into(
        &mut self,
        map: &SwitchingMap,
        out: &mut [f32],
        weights: &[f32],
        bias: &[f32],
        cols: &[f32],
        count_skipped: bool,
    ) {
        assert_eq!(out.len(), map.len(), "mix buffer length mismatch");
        let n = bias.len();
        let (d, p) = (
            weights.len().checked_div(n).unwrap_or(0),
            out.len().checked_div(n).unwrap_or(0),
        );
        assert_eq!(weights.len(), n * d, "weights must be [n, d]");
        assert_eq!(out.len(), n * p, "output must be [n, P]");
        assert_eq!(cols.len(), d * p, "patch matrix must be [d, P]");
        for (row, &b) in bias.iter().enumerate() {
            let (lo, hi) = (row * p, (row + 1) * p);
            let (w, o) = (&weights[row * d..(row + 1) * d], &mut out[lo..hi]);
            let mut lanes = [0usize; COLUMN_LANES];
            let mut filled = 0;
            map.for_each_sensitive_in(lo, hi, |i| {
                lanes[filled] = i - lo;
                filled += 1;
                if filled == COLUMN_LANES {
                    column_dots(b, w, cols, &lanes, o);
                    filled = 0;
                }
            });
            if filled > 0 {
                // a short batch repeats its last column in the spare lanes
                let last = lanes[filled - 1];
                lanes[filled..].fill(last);
                column_dots(b, w, cols, &lanes, o);
            }
            let exact = map.sensitive_count_in(lo, hi) as u64;
            self.outputs_exact += exact;
            self.kernel.macs += if count_skipped {
                exact * d as u64
            } else {
                let mut macs = 0u64;
                map.for_each_sensitive_in(lo, hi, |i| {
                    let col = cols.iter().skip(i - lo).step_by(p);
                    macs += col.filter(|&&v| v != 0.0).count() as u64;
                });
                macs
            };
        }
    }

    /// Closes the invocation: assembles the [`SavingsReport`] and emits
    /// the consolidated duet-obs metrics (the single call site for all
    /// `core.dual.*` counters).
    pub fn finish(self, costs: EngineCosts) -> SavingsReport {
        let report = SavingsReport {
            dense_macs: costs.dense_macs,
            executor_macs: self.kernel.macs,
            speculator_macs: costs.speculator_macs,
            speculator_adds: costs.speculator_adds,
            dense_weight_bytes: costs.dense_weight_bytes,
            executor_weight_bytes: match costs.executor_weight_bytes {
                ExecutorWeightBytes::CountedWords => self.kernel.weight_words * 2,
                ExecutorWeightBytes::Fixed(bytes) => bytes,
            },
            speculator_weight_bytes: costs.speculator_weight_bytes,
            outputs_total: self.outputs_total,
            outputs_exact: self.outputs_exact,
        };

        duet_obs::counter!("core.dual.forward_calls").inc();
        duet_obs::counter!("core.dual.outputs_total").add(report.outputs_total);
        duet_obs::counter!("core.dual.outputs_exact").add(report.outputs_exact);
        duet_obs::counter!("core.dual.executor_macs").add(report.executor_macs);
        duet_obs::counter!("core.dual.speculator_macs").add(report.speculator_macs);
        duet_obs::counter!("core.dual.map.packed_bytes").add(self.map_packed_bytes);
        // switch rate in basis points (0..=10000): share of outputs that
        // kept the Speculator's approximate value
        duet_obs::histogram!("core.dual.switch_rate_bp")
            .record((report.approximate_fraction() * 10_000.0) as u64);
        duet_obs::event::emit_scoped(
            duet_obs::event::EventKind::EngineFinish,
            report.executor_macs,
            report.speculator_macs,
            report.outputs_exact,
            report.approximate_fraction() * 10_000.0,
        );

        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_counts_follow_mode() {
        let mut k = RowKernel {
            macs: 0,
            weight_words: 0,
        };
        let w = [1.0f32, 0.0, 2.0, 0.0];
        let x = [1.0f32, 1.0, 1.0, 1.0];
        let y = k.dot(0.5, &w, Gather::Dense(&x), MacMode::SkipZeroWeights);
        assert_eq!(y, 3.5);
        assert_eq!((k.macs, k.weight_words), (2, 2));

        let y = k.dot(0.0, &w, Gather::Dense(&x), MacMode::Dense);
        assert_eq!(y, 3.0);
        assert_eq!((k.macs, k.weight_words), (6, 6));
    }

    #[test]
    fn column_gather_strides() {
        let mut k = RowKernel {
            macs: 0,
            weight_words: 0,
        };
        // 2×3 patch matrix, column 1 is [20, 0]
        let data = [10.0f32, 20.0, 30.0, 40.0, 0.0, 60.0];
        let w = [1.0f32, 1.0];
        let g = Gather::Column {
            data: &data,
            stride: 3,
            col: 1,
        };
        let y = k.dot(
            0.0,
            &w,
            g,
            MacMode::SkipZeroInputs {
                count_skipped: true,
            },
        );
        assert_eq!(y, 20.0);
        assert_eq!(k.macs, 2, "skipped MAC still issued without an IMap");
        let y = k.dot(
            0.0,
            &w,
            g,
            MacMode::SkipZeroInputs {
                count_skipped: false,
            },
        );
        assert_eq!(y, 20.0);
        assert_eq!(k.macs, 3, "with an IMap the zero input costs nothing");
    }

    #[test]
    fn engine_executes_only_sensitive_rows_and_mixes() {
        let mut e = SpeculationEngine::new();
        let approx = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]);
        // relu(0): negative pre-activations are insensitive
        let map = e.speculate(&SwitchingPolicy::relu(0.0), &approx);
        let mut buf = approx.data().to_vec();
        e.execute_into(&map, &mut buf, |i, _| 100.0 + i as f32);
        assert_eq!(buf, vec![-1.0, 101.0, -3.0, 103.0]);
        let report = e.finish(EngineCosts {
            dense_macs: 8,
            dense_weight_bytes: 16,
            speculator_macs: 4,
            speculator_adds: 2,
            speculator_weight_bytes: 4,
            executor_weight_bytes: ExecutorWeightBytes::CountedWords,
        });
        assert_eq!(report.outputs_total, 4);
        assert_eq!(report.outputs_exact, 2);
        assert_eq!(report.executor_weight_bytes, 0, "no dot() ⇒ no words");
    }

    #[test]
    fn fixed_weight_bytes_override_counted_words() {
        let mut e = SpeculationEngine::new();
        let map = e.speculate(
            &SwitchingPolicy::never_switch(),
            &Tensor::from_vec(vec![1.0, 2.0], &[2]),
        );
        let w = [1.0f32; 3];
        let x = [1.0f32; 3];
        e.execute(&map, |_, k| {
            k.dot(0.0, &w, Gather::Dense(&x), MacMode::Dense);
        });
        let report = e.finish(EngineCosts {
            dense_macs: 6,
            dense_weight_bytes: 12,
            speculator_macs: 2,
            speculator_adds: 1,
            speculator_weight_bytes: 2,
            executor_weight_bytes: ExecutorWeightBytes::Fixed(12),
        });
        assert_eq!(report.executor_macs, 6);
        assert_eq!(report.executor_weight_bytes, 12);
        assert_eq!(report.outputs_exact, 2);
    }
}
