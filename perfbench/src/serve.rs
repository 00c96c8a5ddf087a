//! `serve`: serve_bench's overloaded three-tenant open-loop trace (chat
//! and embed ReLU layers plus the lm transformer block), replayed in
//! virtual time. The checks and the deterministic counts replay it with
//! `workers` = the machine's available parallelism; the timed replays
//! use one worker (see [`TIMED_WORKERS`]). The dense twin replays the
//! same trace through a server whose models never switch (θ = −∞).
//!
//! It is the only workload through the batcher, admission and
//! θ-degradation, the replica fan-out and `forward_batch`, so it shows
//! masked-GEMM and degradation-path changes, and catches a single-vector
//! gain that costs batches.

use crate::estimate;
use crate::harness::{self, Args, Det, Latency, Outcome, PerLayer, ServeLayer};
use crate::spans::Recorder;
use duet_core::dual_layer::DualModuleLayer;
use duet_core::dual_proj::DualProjection;
use duet_core::engine::MacMode;
use duet_core::{DualAttention, DualFfn, DualTransformerBlock, SavingsReport, SwitchingPolicy};
use duet_nn::Activation;
use duet_serve::{
    trace, DuetServer, InferenceRequest, InferenceResponse, ModelVariant, OverloadPolicy,
    ServeConfig, ServeReport, ServedModel, TenantProfile, TraceConfig,
};
use duet_tensor::rng::{self, seeded};
use duet_tensor::{ops, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// serve_bench's master seed for the models (the trace takes the
/// benchmark seed).
const MODEL_SEED: u64 = 727;
/// Length of the full trace, in virtual ticks (half of serve_bench's):
/// the checks and the deterministic counts replay it.
const FULL_HORIZON_TICKS: u64 = 10_000;
/// Length of the trace the timed replays serve: short enough for many
/// replays per run, long enough to overload the replicas.
const TIMED_HORIZON_TICKS: u64 = 1_000;
/// Replays per block of the quiet-block estimator: one, since a replay
/// of the timed trace already spans hundreds of requests; the pool then
/// holds the fastest [`estimate::MIN_POOL`] replays.
const BLOCK: usize = 1;
/// Workers of the timed replays. With two, a replay spawns a thread on
/// the second vCPU every scheduling round, and its wall time followed how
/// the host scheduled that vCPU: ten 38-second runs drifted from 131 to
/// 64 µs per request over seven minutes. On one worker the replay runs
/// the same batcher, admission, replica and `forward_batch` code on one
/// core, like the closed-loop workloads.
const TIMED_WORKERS: usize = 1;
/// serve_bench's replica throughput: below the offered load, so
/// admission control has to degrade.
const MACS_PER_TICK: u64 = 2_048;

/// One deployed model: what replicas run and how overload degrades it.
#[derive(Debug, Clone)]
struct Deployed {
    name: &'static str,
    model: ModelVariant,
    overload: OverloadPolicy,
}

/// serve_bench's full-size deployment.
fn deployment() -> Vec<Deployed> {
    let mut out: Vec<Deployed> = [("chat", 128, 256), ("embed", 64, 96)]
        .into_iter()
        .enumerate()
        .map(|(i, (name, n, d))| {
            let mut r = seeded(MODEL_SEED ^ (i as u64 + 1));
            let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
            let b = Tensor::zeros(&[n]);
            Deployed {
                name,
                model: ModelVariant::Layer(DualModuleLayer::learn(
                    &w,
                    &b,
                    Activation::Relu,
                    n,
                    300,
                    &mut r,
                )),
                overload: OverloadPolicy {
                    base: SwitchingPolicy::relu(0.0),
                    theta_step: 0.5,
                },
            }
        })
        .collect();
    let (m, f, seq_len) = (16, 32, 8);
    let mut r = seeded(MODEL_SEED ^ 0x4c4d);
    let mut proj = |n: usize, d: usize| {
        let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
        let b = rng::normal(&mut r, &[n], 0.0, 0.05);
        DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, m / 2, 300, &mut r)
    };
    let block = DualTransformerBlock::new(
        DualAttention::new(proj(m, m), proj(m, m), proj(m, m), proj(m, m)),
        DualFfn::new(proj(f, m), proj(m, f)),
    );
    out.push(Deployed {
        name: "lm",
        model: ModelVariant::Transformer {
            block: Box::new(block),
            seq_len,
            theta_attn: 0.05,
            theta_ffn_out: 0.05,
        },
        overload: OverloadPolicy {
            base: SwitchingPolicy::gelu(-0.5),
            theta_step: 0.5,
        },
    });
    out
}

/// The deployment as served: dual, or its dense twin that never switches.
fn served(deployed: &[Deployed], dense: bool) -> Vec<ServedModel> {
    deployed
        .iter()
        .map(|d| {
            let (model, overload) = if dense {
                let model = match &d.model {
                    ModelVariant::Transformer { block, seq_len, .. } => ModelVariant::Transformer {
                        block: block.clone(),
                        seq_len: *seq_len,
                        theta_attn: f32::NEG_INFINITY,
                        theta_ffn_out: f32::NEG_INFINITY,
                    },
                    layer => layer.clone(),
                };
                let never = OverloadPolicy {
                    base: SwitchingPolicy::never_switch(),
                    theta_step: 0.0,
                };
                (model, never)
            } else {
                (d.model.clone(), d.overload)
            };
            ServedModel {
                name: d.name.into(),
                model,
                overload,
                band: None,
            }
        })
        .collect()
}

fn tenants() -> Vec<TenantProfile> {
    vec![
        TenantProfile::uniform("alpha", 3),
        TenantProfile::uniform("beta", 6),
        TenantProfile::uniform("gamma", 12),
    ]
}

fn tenant_names() -> Vec<String> {
    tenants().into_iter().map(|t| t.name).collect()
}

fn config(workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::balanced();
    cfg.macs_per_tick = MACS_PER_TICK;
    cfg.workers = workers;
    cfg
}

/// Order-sensitive bit-level fold over every response (serve_bench's).
fn checksum(responses: &[InferenceResponse]) -> u64 {
    let mut acc = 0u64;
    let mut fold = |v: u64| acc = acc.rotate_left(7) ^ v;
    for r in responses {
        fold(r.id.0);
        fold(r.completion_tick);
        fold(u64::from(r.degradation_level));
        for v in r.output.data() {
            fold(u64::from(v.to_bits()));
        }
    }
    acc
}

/// The built workload: the deployment and the seeded traces.
struct Serve {
    deployed: Vec<Deployed>,
    /// serve_bench's full trace.
    full: Vec<InferenceRequest>,
    /// The timed replays' trace.
    timed: Vec<InferenceRequest>,
    workers: usize,
}

fn generate(seed: u64, horizon_ticks: u64, deployed: &[Deployed]) -> Vec<InferenceRequest> {
    let probe = DuetServer::new(served(deployed, false), &tenant_names(), config(1));
    trace::generate(
        &TraceConfig {
            seed,
            horizon_ticks,
            tenants: tenants(),
            diurnal: None,
        },
        &probe.model_dims(),
    )
}

/// One replay's results and its wall time.
struct Replay {
    responses: Vec<InferenceResponse>,
    report: ServeReport,
    ns: f64,
}

impl Serve {
    fn replay(&self, requests: &[InferenceRequest], dense: bool, workers: usize) -> Replay {
        let mut server = DuetServer::new(
            served(&self.deployed, dense),
            &tenant_names(),
            config(workers),
        );
        let t = Instant::now();
        let (responses, report) = server.run_trace(requests);
        let ns = t.elapsed().as_nanos() as f64;
        Replay {
            responses,
            report,
            ns,
        }
    }

    /// Whether a replay served every request of its trace with a finite
    /// output.
    fn served_all(requests: &[InferenceRequest], r: &Replay) -> bool {
        r.responses.len() == requests.len()
            && r.report.completed == r.report.submitted
            && r.report.dropped == 0
            && r.responses
                .iter()
                .all(|resp| resp.output.data().iter().all(|v| v.is_finite()))
    }

    /// Replays the full trace through the dual server and its twin, with
    /// the executor counters on: the deterministic counts of the run.
    fn deterministic(&self) -> (Det, Replay) {
        duet_obs::set_metrics_enabled(true);
        let counters = || {
            let c = |name: &'static str| duet_obs::registry::counter(name).get();
            [
                c("core.dual.executor_macs"),
                c("core.dual.speculator_macs"),
                c("core.dual.outputs_total"),
                c("core.dual.outputs_exact"),
            ]
        };
        let before = counters();
        let dual = self.replay(&self.full, false, self.workers);
        let mid = counters();
        let twin = self.replay(&self.full, true, self.workers);
        let after = counters();
        duet_obs::set_metrics_enabled(false);
        let delta = |a: [u64; 4], b: [u64; 4], i: usize| b[i] - a[i];
        // The twin executes every row exactly: its executor MACs are the
        // dense MACs of the same trace.
        let report = SavingsReport {
            dense_macs: delta(mid, after, 0),
            executor_macs: delta(before, mid, 0),
            speculator_macs: delta(before, mid, 1),
            outputs_total: delta(before, mid, 2),
            outputs_exact: delta(before, mid, 3),
            ..SavingsReport::new()
        };
        let twin_argmax: std::collections::BTreeMap<u64, usize> = twin
            .responses
            .iter()
            .map(|r| (r.id.0, ops::argmax(&r.output)))
            .collect();
        let matches = dual
            .responses
            .iter()
            .filter(|r| twin_argmax.get(&r.id.0) == Some(&ops::argmax(&r.output)))
            .count();
        let mut ticks: Vec<u64> = dual.responses.iter().map(|r| r.latency_ticks()).collect();
        ticks.sort_unstable();
        let det = Det {
            report,
            requests: dual.responses.len() as u64,
            quality_pct: 100.0 * matches as f64 / dual.responses.len().max(1) as f64,
            ticks,
        };
        (det, dual)
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let build = || {
        let deployed = deployment();
        let full = generate(args.seed, FULL_HORIZON_TICKS, &deployed);
        let timed = generate(args.seed, TIMED_HORIZON_TICKS, &deployed);
        Serve {
            deployed,
            full,
            timed,
            workers,
        }
    };
    let (w, first_setup_s) = harness::timed_setup(build);
    let n = w.timed.len();
    out.notes.push(format!(
        "full trace: {} requests over {FULL_HORIZON_TICKS} ticks; timed trace: {n} requests \
         over {TIMED_HORIZON_TICKS} ticks; {workers} workers, {TIMED_WORKERS} when timed",
        w.full.len()
    ));

    // Checks: every request served, overload engaged, and the replay is
    // identical at one worker and at every available worker.
    let (det, dual) = w.deterministic();
    out.check(Serve::served_all(&w.full, &dual), || {
        "dual replay did not serve every request".into()
    });
    out.check(dual.report.degraded_batches > 0, || {
        "the overloaded trace did not engage θ-degradation".into()
    });
    let single = w.replay(&w.full, false, 1);
    out.check(
        checksum(&single.responses) == checksum(&dual.responses),
        || format!("response checksum differs between 1 and {workers} workers"),
    );
    out.requests(3 * w.full.len() as u64, 0, "deterministic replays");

    if args.trace {
        let half = args.seconds / 2.0;
        let untraced = timed_replays(&w, half, &mut out, None);
        let mut rec = Recorder::new(&[REPLAY]);
        let traced = timed_replays(&w, half, &mut out, Some(&mut rec));
        harness::write_spans(args, &rec, &mut out);
        let timed = w.replay(&w.timed, false, TIMED_WORKERS).report;
        let r = &dual.report;
        let batches = r.batches.max(1) as f64;
        let serve = ServeLayer {
            wall_ns_per_batch: traced.median() * n as f64 / timed.batches.max(1) as f64,
            batches: r.batches as f64,
            batch_occupancy: r.mean_occupancy_milli as f64 / 1000.0,
            degraded_pct: 100.0 * r.degraded_batches as f64 / batches,
            dense_fallback_batches: r.dense_fallback_batches as f64,
            guard_trips: r.guard_trips as f64,
            max_queue_depth: r.max_queue_depth as f64,
        };
        harness::per_layer(
            &mut out,
            PerLayer {
                times: harness::LayerTimes::default(),
                det: &det,
                weight_bytes: 0.0,
                serve,
                sim_speedup: 0.0,
                untraced: &untraced,
                traced_ns: traced.median(),
            },
        );
        return out;
    }

    let peak_rss_mb = estimate::peak_rss_mb().unwrap_or(0.0);
    let mut pairs = harness::Pairs::default();
    let setup_s = harness::rounds_with_setup(args.seconds, first_setup_s, build, |seconds| {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline || pairs.dual_ns.len() < BLOCK {
            let first_dense = !estimate::dual_first(pairs.dual_ns.len());
            for dense in [first_dense, !first_dense] {
                let r = w.replay(&w.timed, dense, TIMED_WORKERS);
                pairs.bad += u64::from(!Serve::served_all(&w.timed, &r));
                let per_request = r.ns / n as f64;
                if dense {
                    pairs.dense_ns.push(per_request);
                } else {
                    pairs.dual_ns.push(per_request);
                }
                black_box(r.responses);
            }
        }
    });
    out.requests(2 * pairs.dual_ns.len() as u64, pairs.bad, "timed replays");
    let latency = Latency::from_pairs(&pairs, BLOCK);
    out.notes.push(format!(
        "{} replay pairs in {} blocks of {BLOCK}; {:.1}% of blocks contended",
        pairs.dual_ns.len(),
        latency.dual.blocks,
        latency.dual.contended_pct()
    ));
    let (again, _) = w.deterministic();
    out.check(again == det, || {
        "deterministic counts changed between two passes".into()
    });
    harness::end_to_end(
        &mut out,
        harness::EndToEnd {
            latency: &latency,
            det: &det,
            setup_s,
            peak_rss_mb,
        },
    );
    out
}

/// Span name of one replay (server construction and `run_trace`).
const REPLAY: &str = "serve.replay";

/// Times dual replays of the timed trace for `seconds` (inside a
/// [`REPLAY`] span each when a recorder is given) and pools their quiet
/// blocks, in ns per request.
fn timed_replays(
    w: &Serve,
    seconds: f64,
    out: &mut Outcome,
    mut rec: Option<&mut Recorder>,
) -> estimate::QuietPool {
    let mut ns = Vec::new();
    let mut bad = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || ns.len() < BLOCK {
        let r = match rec.as_deref_mut() {
            Some(rec) => {
                rec.begin_request();
                let r = rec.span(REPLAY, || w.replay(&w.timed, false, TIMED_WORKERS));
                rec.end_request();
                r
            }
            None => w.replay(&w.timed, false, TIMED_WORKERS),
        };
        bad += u64::from(!Serve::served_all(&w.timed, &r));
        ns.push(r.ns / w.timed.len() as f64);
    }
    out.requests(ns.len() as u64, bad, "timed replays");
    estimate::quiet_pool(&ns, BLOCK, estimate::MIN_POOL)
}
