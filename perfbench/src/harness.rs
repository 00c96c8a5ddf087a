//! The measuring loop shared by every workload, and the metric set it
//! reports.
//!
//! A closed-loop workload implements [`ClosedLoop`]; [`run_closed_loop`]
//! then builds it (timing set-up), checks its outputs, computes the
//! deterministic counts twice (they must repeat exactly), and times
//! interleaved dual/dense request pairs — or, in a traced run, times the
//! dual path untraced and then replays it with spans.

use crate::estimate::{self, QuietPool};
use crate::spans::{self, Recorder};
use duet_core::SavingsReport;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_201;
/// Seed held out while the benchmark and later changes are tuned; a
/// claimed gain must also hold on it.
pub const HELDOUT_SEED: u64 = 90_210;

/// How many times set-up runs in an untraced run; `setup_s` is the
/// median. The timing window is cut into this many equal rounds with a
/// set-up before each, so the median samples the whole run rather than
/// the one moment a host slowdown may cover.
pub const SETUP_REPEATS: usize = 9;

/// MACs one virtual tick retires when a closed-loop request is costed by
/// the serving cost model (`duet_serve::replica::service_ticks`). A
/// closed loop with one client never queues, so a request's latency in
/// ticks is its service time.
pub const CLOSED_LOOP_MACS_PER_TICK: u64 = 64;

/// Span names of the layer calls the traced replays record.
pub mod layer {
    /// Speculator: approximate pre-activations.
    pub const SPEC: &str = "core.spec";
    /// Switching-map construction.
    pub const MAP: &str = "core.map";
    /// Sparse executor and mix.
    pub const EXEC: &str = "core.exec";
    /// Dense causal softmax mixer.
    pub const ATTEND: &str = "nn.attend";
    /// Activations between projections.
    pub const ACT: &str = "nn.act";
    /// im2col lowering.
    pub const IM2COL: &str = "tensor.im2col";
    /// Every layer span, in report order.
    pub const ALL: [&str; 6] = [SPEC, MAP, EXEC, ATTEND, ACT, IM2COL];
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one invocation measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (and checks) attempted.
    pub attempted: u64,
    /// Requests that errored or returned bad output, plus failed checks.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one check; a failing check is recorded with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `n` requests, `bad` of which failed.
    pub fn requests(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.failures
                .push(format!("{bad} of {n} {what} returned bad output"));
        }
    }

    /// Whether every request and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The end-to-end share of requests and checks that passed.
    pub fn ok_pct(&self) -> f64 {
        100.0 * (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Deterministic per-run counts: they depend only on the seed, so two
/// passes over the same inputs must agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Det {
    /// Savings summed over every request input.
    pub report: SavingsReport,
    /// Request inputs the pass covered.
    pub requests: u64,
    /// Dual quality as a share of dense quality, in percent.
    pub quality_pct: f64,
    /// Per-request latency in virtual ticks, sorted ascending.
    pub ticks: Vec<u64>,
}

impl Det {
    /// Nearest-rank percentile `p` of the tick latencies.
    pub fn ticks_pct(&self, p: f64) -> f64 {
        let t: Vec<f64> = self.ticks.iter().map(|&t| t as f64).collect();
        estimate::percentile(&t, p)
    }

    /// A per-request average of a summed count.
    pub fn per_request(&self, total: u64) -> f64 {
        total as f64 / self.requests.max(1) as f64
    }
}

/// A workload served by one closed-loop client.
pub trait ClosedLoop {
    /// Output of one request.
    type Out;
    /// Requests per block of the quiet-block estimator.
    const BLOCK: usize;
    /// Distinct request inputs; request `i` uses input `i % inputs()`.
    fn inputs(&self) -> usize;
    /// The dual path on input `i`.
    fn dual(&mut self, i: usize) -> Self::Out;
    /// The dense twin on input `i`.
    fn dense(&mut self, i: usize) -> Self::Out;
    /// Whether an output is well formed (finite).
    fn finite(out: &Self::Out) -> bool;
    /// Output checks run before anything is timed.
    fn check(&mut self, out: &mut Outcome);
    /// One pass over every input: savings, quality and tick latencies.
    fn deterministic(&mut self) -> Det;
    /// The dual path on input `i` replayed from its public pieces with a
    /// span around each layer call; returns whether the output is finite.
    fn traced(&mut self, rec: &mut Recorder, i: usize) -> bool;
    /// Whether the replay of input `i` is bitwise equal to the dual path.
    fn replay_matches(&mut self, i: usize) -> bool;
    /// duet_sim's modeled DUET/BASE speedup on this run's own switching
    /// maps (0 where the simulator has no model of the workload).
    fn sim_speedup(&mut self) -> f64;
}

/// Times `f` once per call, stopping after `seconds`, after a short
/// untimed warm-up. Returns per-call ns and how many calls failed.
pub fn time_single(seconds: f64, mut f: impl FnMut(usize) -> bool) -> (Vec<f64>, u64) {
    let mut ns = Vec::new();
    let mut bad = 0;
    warm_up(seconds, |i| {
        f(i);
    });
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let t = Instant::now();
        let ok = f(i);
        ns.push(t.elapsed().as_nanos() as f64);
        bad += u64::from(!ok);
        i += 1;
    }
    (ns, bad)
}

fn warm_up(seconds: f64, mut f: impl FnMut(usize)) {
    let deadline = Instant::now() + Duration::from_secs_f64((seconds * 0.05).min(0.5));
    let mut i = 0;
    while Instant::now() < deadline {
        f(i);
        i += 1;
    }
}

/// Interleaved dual/dense timings: pair `i` ran both on the same input.
#[derive(Debug, Clone, Default)]
pub struct Pairs {
    /// Dual-path ns per pair.
    pub dual_ns: Vec<f64>,
    /// Dense-twin ns per pair.
    pub dense_ns: Vec<f64>,
    /// Pairs whose dual or dense output was bad.
    pub bad: u64,
}

/// Runs request pairs for `seconds`, appending to `pairs`: each pair
/// times the dual path and the dense twin on the same input back to back,
/// alternating which goes first ([`estimate::dual_first`]).
pub fn time_pairs<W: ClosedLoop>(w: &mut W, seconds: f64, pairs: &mut Pairs) {
    let n = w.inputs();
    warm_up(seconds, |i| {
        black_box(w.dual(i % n));
        black_box(w.dense(i % n));
    });
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = pairs.dual_ns.len();
    while Instant::now() < deadline {
        let input = i % n;
        let (dual_ns, dense_ns, ok) = if estimate::dual_first(i) {
            let (a, oka) = timed::<W>(|| w.dual(input));
            let (b, okb) = timed::<W>(|| w.dense(input));
            (a, b, oka && okb)
        } else {
            let (b, okb) = timed::<W>(|| w.dense(input));
            let (a, oka) = timed::<W>(|| w.dual(input));
            (a, b, oka && okb)
        };
        pairs.dual_ns.push(dual_ns);
        pairs.dense_ns.push(dense_ns);
        pairs.bad += u64::from(!ok);
        i += 1;
    }
}

fn timed<W: ClosedLoop>(f: impl FnOnce() -> W::Out) -> (f64, bool) {
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as f64;
    (ns, W::finite(&out))
}

/// Latency figures read from interleaved pairs.
#[derive(Debug, Clone)]
pub struct Latency {
    /// Quiet pool of the dual path.
    pub dual: QuietPool,
    /// Quiet pool of the dense twin.
    pub dense: QuietPool,
    /// Median of dense/dual over the pairs in the dual path's quiet
    /// blocks (at least [`estimate::MIN_RATIO_PAIRS`] of them).
    pub speedup: f64,
    /// Dual-path requests per second over the quiet stretches.
    pub requests_per_s: f64,
}

impl Latency {
    /// Reads the estimators off a run's pairs.
    pub fn from_pairs(pairs: &Pairs, block: usize) -> Self {
        let quiet = |ns: &[f64]| estimate::quiet_pool(ns, block, estimate::MIN_POOL);
        let ratio_pool = estimate::quiet_pool(&pairs.dual_ns, block, estimate::MIN_RATIO_PAIRS);
        Self {
            dual: quiet(&pairs.dual_ns),
            dense: quiet(&pairs.dense_ns),
            speedup: estimate::paired_ratio_median(
                &ratio_pool.same_blocks(&pairs.dual_ns),
                &ratio_pool.same_blocks(&pairs.dense_ns),
            ),
            requests_per_s: estimate::quiet_throughput(&pairs.dual_ns, block),
        }
    }
}

/// Runs `build` once and returns its result with its wall time in seconds.
pub fn timed_setup<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let built = black_box(build());
    (built, t.elapsed().as_secs_f64())
}

/// Times `seconds` of work in [`SETUP_REPEATS`] equal rounds, running
/// `build` again (and dropping what it built) before every round but the
/// first, whose set-up took `first_setup_s`. Returns the median set-up
/// wall time in seconds.
pub fn rounds_with_setup<T>(
    seconds: f64,
    first_setup_s: f64,
    mut build: impl FnMut() -> T,
    mut round: impl FnMut(f64),
) -> f64 {
    let mut secs = vec![first_setup_s];
    for r in 0..SETUP_REPEATS {
        if r > 0 {
            let (built, s) = timed_setup(&mut build);
            drop(built);
            secs.push(s);
        }
        round(seconds / SETUP_REPEATS as f64);
    }
    estimate::median_of(&secs)
}

/// Latency of a closed-loop request in virtual ticks: its service time
/// under the serving cost model at [`CLOSED_LOOP_MACS_PER_TICK`].
pub fn closed_loop_ticks(report: &SavingsReport) -> u64 {
    duet_serve::replica::service_ticks(report, CLOSED_LOOP_MACS_PER_TICK, 0)
}

/// The end-to-end metrics shared by every workload, in report order.
pub struct EndToEnd<'a> {
    /// Dual/dense latency estimators.
    pub latency: &'a Latency,
    /// Deterministic counts.
    pub det: &'a Det,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Peak RSS in MB, read before timing so that the benchmark's own
    /// sample buffers, which grow with the host's speed, stay out of it.
    pub peak_rss_mb: f64,
}

/// Records every end-to-end metric.
pub fn end_to_end(out: &mut Outcome, e: EndToEnd<'_>) {
    let ok = out.ok_pct();
    out.metric("latency_p50_us", e.latency.dual.median() / 1e3, "us");
    out.metric("dense_latency_p50_us", e.latency.dense.median() / 1e3, "us");
    out.metric("speedup_vs_dense", e.latency.speedup, "x");
    out.metric("requests_per_s", e.latency.requests_per_s, "1/s");
    out.metric("latency_p50_ticks", e.det.ticks_pct(50.0), "ticks");
    out.metric("latency_p99_ticks", e.det.ticks_pct(99.0), "ticks");
    out.metric("mac_reduction", e.det.report.flops_reduction(), "x");
    out.metric("quality_retained_pct", e.det.quality_pct, "%");
    out.metric("ok_pct", ok, "%");
    out.metric("setup_s", e.setup_s, "s");
    out.metric("peak_rss_mb", e.peak_rss_mb, "MB");
}

/// The per-layer metrics of the serving layer, zero where a workload has
/// no server.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayer {
    /// Replay wall ns per dispatched batch.
    pub wall_ns_per_batch: f64,
    /// Batches dispatched.
    pub batches: f64,
    /// Mean requests per batch.
    pub batch_occupancy: f64,
    /// Share of batches run at a degraded θ, in percent.
    pub degraded_pct: f64,
    /// Batches the guard forced dense.
    pub dense_fallback_batches: f64,
    /// Guard trips.
    pub guard_trips: f64,
    /// Queue-depth high-water mark.
    pub max_queue_depth: f64,
}

/// Layer self times of a traced run, in ns per request.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Speculator.
    pub spec: f64,
    /// Switching map.
    pub map: f64,
    /// Executor.
    pub exec: f64,
    /// Softmax mixer.
    pub attend: f64,
    /// Activations.
    pub act: f64,
    /// im2col.
    pub im2col: f64,
    /// Glue: request total minus layer spans.
    pub glue: f64,
    /// Whole request.
    pub total: f64,
}

impl LayerTimes {
    /// Medians of a recorder's per-request self times.
    pub fn from_recorder(rec: &Recorder) -> Self {
        Self {
            spec: rec.median_self_ns(layer::SPEC),
            map: rec.median_self_ns(layer::MAP),
            exec: rec.median_self_ns(layer::EXEC),
            attend: rec.median_self_ns(layer::ATTEND),
            act: rec.median_self_ns(layer::ACT),
            im2col: rec.median_self_ns(layer::IM2COL),
            glue: rec.median_self_ns(spans::REQUEST),
            total: estimate::median_of(&rec.request_ns()),
        }
    }
}

/// Everything a traced run reports.
pub struct PerLayer<'a> {
    /// Layer self times (zero where not measured).
    pub times: LayerTimes,
    /// Deterministic counts of the run.
    pub det: &'a Det,
    /// Weight bytes fetched per request.
    pub weight_bytes: f64,
    /// Serving-layer counts.
    pub serve: ServeLayer,
    /// Modeled speedup.
    pub sim_speedup: f64,
    /// Untraced quiet pool of the dual path.
    pub untraced: &'a QuietPool,
    /// Traced quiet median of the dual path, in ns.
    pub traced_ns: f64,
}

/// Records every per-layer metric.
pub fn per_layer(out: &mut Outcome, p: PerLayer<'_>) {
    let t = p.times;
    let share = |ns: f64| {
        if t.total > 0.0 {
            100.0 * ns / t.total
        } else {
            0.0
        }
    };
    let report = &p.det.report;
    let exec_macs = p.det.per_request(report.executor_macs);
    out.metric("core.spec_ns", t.spec, "ns");
    out.metric("core.spec_share_pct", share(t.spec), "%");
    out.metric("core.map_ns", t.map, "ns");
    out.metric("core.exec_ns", t.exec, "ns");
    out.metric("core.exec_share_pct", share(t.exec), "%");
    let gflops = if t.exec > 0.0 {
        2.0 * exec_macs / t.exec
    } else {
        0.0
    };
    out.metric("core.exec_gflops", gflops, "GFLOP/s");
    out.metric(
        "core.exec_rows",
        p.det.per_request(report.outputs_exact),
        "count",
    );
    out.metric("core.exec_macs", exec_macs, "count");
    out.metric(
        "core.spec_macs",
        p.det.per_request(report.speculator_macs),
        "count",
    );
    out.metric(
        "core.insensitive_pct",
        100.0 * report.approximate_fraction(),
        "%",
    );
    out.metric("core.weight_bytes", p.weight_bytes, "B");
    out.metric("nn.attend_ns", t.attend, "ns");
    out.metric("nn.act_ns", t.act, "ns");
    out.metric("tensor.im2col_ns", t.im2col, "ns");
    out.metric("tensor.peak_gflops", peak_gflops(), "GFLOP/s");
    out.metric("workloads.glue_ns", t.glue, "ns");
    let s = p.serve;
    out.metric("serve.wall_ns_per_batch", s.wall_ns_per_batch, "ns");
    out.metric("serve.batches", s.batches, "count");
    out.metric("serve.batch_occupancy", s.batch_occupancy, "count");
    out.metric("serve.degraded_pct", s.degraded_pct, "%");
    out.metric(
        "serve.dense_fallback_batches",
        s.dense_fallback_batches,
        "count",
    );
    out.metric("serve.guard_trips", s.guard_trips, "count");
    out.metric("serve.max_queue_depth", s.max_queue_depth, "count");
    out.metric("sim.speedup", p.sim_speedup, "x");
    out.metric("bench.contended_pct", p.untraced.contended_pct(), "%");
    let untraced = p.untraced.median();
    out.metric(
        "bench.trace_overhead_pct",
        100.0 * (p.traced_ns / untraced - 1.0),
        "%",
    );
    let p99 = if estimate::samples_beyond(p.untraced.samples.len(), 99.0) >= 10 {
        estimate::percentile(&p.untraced.samples, 99.0) / 1e3
    } else {
        0.0
    };
    out.metric("bench.latency_p99_us", p99, "us");
    out.metric(
        "bench.quiet_samples",
        p.untraced.samples.len() as f64,
        "count",
    );
}

/// Single-core multiply-add peak of this build on this machine, in
/// GFLOP/s: 64 independent accumulator lanes over L1-resident operands,
/// best of several short trials. The reference for `core.exec_gflops`.
pub fn peak_gflops() -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 200_000;
    let x = black_box([1.000_001f32; LANES]);
    let y = black_box([0.999_999f32; LANES]);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut acc = [0.0f32; LANES];
        let t = Instant::now();
        for _ in 0..ITERS {
            for ((a, &xv), &yv) in acc.iter_mut().zip(&x).zip(&y) {
                *a = *a * xv + yv;
            }
            black_box(&mut acc);
        }
        let ns = t.elapsed().as_nanos() as f64;
        black_box(acc);
        best = best.max(2.0 * (LANES * ITERS) as f64 / ns);
    }
    best
}

/// Runs a closed-loop workload end to end (or traced) and reports it.
pub fn run_closed_loop<W: ClosedLoop>(
    args: &Args,
    mut build: impl FnMut() -> W,
    weight_bytes: impl Fn(&Det) -> f64,
) -> Outcome {
    let mut out = Outcome::default();
    let (mut w, first_setup_s) = timed_setup(&mut build);
    w.check(&mut out);
    let det = w.deterministic();
    out.requests(det.requests, 0, "deterministic requests");

    if args.trace {
        let half = args.seconds / 2.0;
        let (ns, bad) = time_single(half, |i| W::finite(&w.dual(i % w.inputs())));
        out.requests(ns.len() as u64, bad, "untraced dual requests");
        let untraced = estimate::quiet_pool(&ns, W::BLOCK, estimate::MIN_POOL);
        let split = (0..w.inputs().min(16)).all(|i| w.replay_matches(i));
        out.notes.push(if split {
            "replay of public pieces is bitwise equal to the layer forward: split reported".into()
        } else {
            "replay differs from the layer forward: layer reported unsplit".into()
        });
        let mut names: Vec<&'static str> = layer::ALL.to_vec();
        names.push(UNSPLIT);
        let mut rec = Recorder::new(&names);
        let (_, bad) = time_single(half, |i| {
            let input = i % w.inputs();
            rec.begin_request();
            let ok = if split {
                w.traced(&mut rec, input)
            } else {
                rec.span(UNSPLIT, || W::finite(&w.dual(input)))
            };
            rec.end_request();
            ok
        });
        out.requests(rec.requests() as u64, bad, "traced dual requests");
        let traced_ns =
            estimate::quiet_pool(&rec.request_ns(), W::BLOCK, estimate::MIN_POOL).median();
        write_spans(args, &rec, &mut out);
        let sim_speedup = w.sim_speedup();
        let times = LayerTimes::from_recorder(&rec);
        out.notes.push(format!(
            "modeled vs measured: mac_reduction {:.3}x, sim.speedup {:.3}x",
            det.report.flops_reduction(),
            sim_speedup
        ));
        per_layer(
            &mut out,
            PerLayer {
                times,
                det: &det,
                weight_bytes: weight_bytes(&det),
                serve: ServeLayer::default(),
                sim_speedup,
                untraced: &untraced,
                traced_ns,
            },
        );
    } else {
        let peak_rss_mb = estimate::peak_rss_mb().unwrap_or(0.0);
        let mut pairs = Pairs::default();
        let setup_s = rounds_with_setup(args.seconds, first_setup_s, &mut build, |s| {
            time_pairs(&mut w, s, &mut pairs)
        });
        out.requests(pairs.dual_ns.len() as u64, pairs.bad, "timed request pairs");
        let latency = Latency::from_pairs(&pairs, W::BLOCK);
        out.notes.push(format!(
            "{} pairs in {} blocks of {}; quiet pool {} samples; {:.1}% of blocks contended",
            pairs.dual_ns.len(),
            latency.dual.blocks,
            W::BLOCK,
            latency.dual.samples.len(),
            latency.dual.contended_pct()
        ));
        if let Some((p, ns)) = estimate::tail_percentile(&latency.dual.samples) {
            out.notes.push(format!(
                "dual tail: p{p} {:.3} us over {} quiet samples",
                ns / 1e3,
                latency.dual.samples.len()
            ));
        }
        let again = w.deterministic();
        out.check(again == det, || {
            "deterministic counts changed between two passes".into()
        });
        end_to_end(
            &mut out,
            EndToEnd {
                latency: &latency,
                det: &det,
                setup_s,
                peak_rss_mb,
            },
        );
    }
    out
}

/// Span name of a layer timed whole because its replay no longer
/// matches its forward.
pub const UNSPLIT: &str = "core.unsplit";

/// Writes the kept spans under the build directory (`CARGO_TARGET_DIR`,
/// else `target`), inside the checkout.
pub fn write_spans(args: &Args, rec: &Recorder, out: &mut Outcome) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_jsonl()))
        .map(|()| format!("spans -> {}", path.display()));
    out.notes
        .push(written.unwrap_or_else(|e| format!("spans not written: {e}")));
}
