//! Serving exhibit: multi-tenant open-loop load against `duet-serve`.
//!
//! Three tenants with different request rates hammer two dual-module
//! models through the queue → micro-batcher → replica-pool pipeline. The
//! load is deliberately heavier than the replicas' virtual throughput,
//! so admission control must engage: under saturation the service
//! degrades θ (more outputs keep the speculator value, batches get
//! cheaper) instead of dropping requests — the serving-time face of the
//! paper's accuracy–efficiency knob. The run asserts the two serving
//! invariants: **zero dropped requests** and **degradation under
//! overload**.
//!
//! All timing is virtual (ticks charged from each batch's own MAC
//! accounting), so `results/BENCH_serve.json` — per-tenant p50/p90/p99,
//! batch occupancy, degradation counters, response checksum — is
//! byte-identical for any `DUET_NUM_THREADS`, which CI pins by diffing
//! smoke runs at 1/4/7 threads. The stdout table prints no thread count,
//! so it is too.
//!
//! Run with: `cargo run --release -p duet-bench --bin serve_bench`
//! (`--smoke` shortens the trace for a seconds-scale CI run and writes
//! `results/BENCH_serve_smoke.json` instead).

use duet_core::dual_layer::DualModuleLayer;
use duet_core::dual_proj::DualProjection;
use duet_core::engine::MacMode;
use duet_core::switching::SwitchingPolicy;
use duet_core::{DualAttention, DualFfn, DualTransformerBlock};
use duet_nn::Activation;
use duet_serve::{
    trace, DuetServer, InferenceResponse, ModelVariant, OverloadPolicy, ServeConfig, ServedModel,
    TenantProfile, TraceConfig,
};
use duet_tensor::rng::{self, seeded};
use duet_tensor::Tensor;
use std::fmt::Write as _;

/// Master seed for models and trace.
const SEED: u64 = 727;

fn models(smoke: bool) -> Vec<ServedModel> {
    // (name, n, d): a wide "chat" layer and a narrower "embed" layer.
    let specs: &[(&str, usize, usize)] = if smoke {
        &[("chat", 48, 64), ("embed", 32, 48)]
    } else {
        &[("chat", 128, 256), ("embed", 64, 96)]
    };
    let mut out: Vec<ServedModel> = specs
        .iter()
        .enumerate()
        .map(|(i, &(name, n, d))| {
            let mut r = seeded(SEED ^ (i as u64 + 1));
            let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
            let b = Tensor::zeros(&[n]);
            ServedModel {
                name: name.into(),
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
                band: None,
            }
        })
        .collect();
    // A dual transformer block ("lm"): per-position Q/K/V/output and FFN
    // projections speculate, the softmax mixer stays dense; overload
    // degrades through the FFN GELU band.
    let (m, f, seq_len) = if smoke { (8, 16, 4) } else { (16, 32, 8) };
    let mut r = seeded(SEED ^ 0x4c4d);
    let mut proj = |n: usize, d: usize| {
        let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
        let b = rng::normal(&mut r, &[n], 0.0, 0.05);
        DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, m / 2, 300, &mut r)
    };
    let block = DualTransformerBlock::new(
        DualAttention::new(proj(m, m), proj(m, m), proj(m, m), proj(m, m)),
        DualFfn::new(proj(f, m), proj(m, f)),
    );
    out.push(ServedModel {
        name: "lm".into(),
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
        band: None,
    });
    out
}

fn trace_config(smoke: bool) -> TraceConfig {
    TraceConfig {
        seed: SEED,
        horizon_ticks: if smoke { 1_500 } else { 20_000 },
        tenants: vec![
            TenantProfile::uniform("alpha", 3),
            TenantProfile::uniform("beta", 6),
            TenantProfile::uniform("gamma", 12),
        ],
        diurnal: None,
    }
}

/// Order-sensitive bit-level fold over every response, embedded in the
/// JSON so CI can pin byte-identical replay across thread counts.
fn response_checksum(responses: &[InferenceResponse]) -> u64 {
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

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    if smoke {
        println!("serve_bench: --smoke (short trace)");
    }
    println!("serve_bench: seed {SEED}\n");

    // Flight recorder: `DUET_RECORDER=1` opts in, but model construction
    // (`DualModuleLayer::learn`) would flood the ring with unscoped
    // engine events, so recording starts only once the serving run does.
    let record = duet_obs::recorder_enabled();
    duet_obs::set_recorder_enabled(false);

    let mut cfg = ServeConfig::balanced();
    // Size throughput below the offered load so overload is real and
    // admission control has to work.
    cfg.macs_per_tick = if smoke { 192 } else { 2_048 };
    cfg.workers = 0; // resolve from DUET_NUM_THREADS

    let tenant_names: Vec<String> = trace_config(smoke)
        .tenants
        .iter()
        .map(|t| t.name.clone())
        .collect();
    let mut server = DuetServer::new(models(smoke), &tenant_names, cfg);
    let requests = trace::generate(&trace_config(smoke), &server.model_dims());
    println!(
        "open-loop trace: {} requests over {} ticks, {} tenants, {} models",
        requests.len(),
        trace_config(smoke).horizon_ticks,
        tenant_names.len(),
        server.model_dims().len()
    );

    duet_obs::set_recorder_enabled(record);
    let (responses, report) = server.run_trace(&requests);
    duet_obs::set_recorder_enabled(false);
    let checksum = response_checksum(&responses);

    if record {
        let overflow = duet_obs::event::overflow();
        // A snapshot, not a drain: under DUET_TRACE the same ring holds
        // the spans that finalize() exports at the end.
        let mut events = duet_obs::event::snapshot_global();
        duet_obs::event::canonical_sort(&mut events);
        let rec_path = if smoke {
            "results/RECORDER_serve_smoke.jsonl"
        } else {
            "results/RECORDER_serve.jsonl"
        };
        let jsonl = duet_obs::event::to_jsonl(&events);
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write(rec_path, &jsonl).expect("write recorder jsonl");
        println!(
            "recorder: {} events ({} overflowed) -> {rec_path}",
            jsonl.lines().count(),
            overflow
        );
    }

    // ---- the two serving invariants ------------------------------------
    assert_eq!(
        report.completed, report.submitted,
        "every submitted request must complete"
    );
    assert_eq!(report.dropped, 0, "the serving layer never drops");
    assert!(
        report.degraded_batches > 0,
        "an overloaded run must engage θ-degradation"
    );

    println!(
        "\ncompleted {}/{} requests in {} ticks, 0 dropped",
        report.completed, report.submitted, report.drained_at_tick
    );
    println!(
        "batches: {} (mean occupancy {:.3}), degraded {}, dense-fallback {}, guard trips {}",
        report.batches,
        report.mean_occupancy_milli as f64 / 1000.0,
        report.degraded_batches,
        report.dense_fallback_batches,
        report.guard_trips
    );
    println!("\nper-tenant SLO (virtual ticks):");
    println!(
        "  {:<8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
        "tenant", "completed", "degraded", "p50", "p90", "p99", "max"
    );
    for t in &report.tenants {
        println!(
            "  {:<8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
            t.name, t.completed, t.degraded, t.p50_ticks, t.p90_ticks, t.p99_ticks, t.max_ticks
        );
    }
    println!("\nresponse checksum: {checksum:#018x}");

    // ---- JSON (deterministic: virtual ticks only, no thread counts) -----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"exhibit\": \"serve_bench\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"response_checksum\": \"{checksum:#018x}\",");
    let _ = writeln!(json, "  \"submitted\": {},", report.submitted);
    let _ = writeln!(json, "  \"completed\": {},", report.completed);
    let _ = writeln!(json, "  \"dropped\": {},", report.dropped);
    let _ = writeln!(json, "  \"drained_at_tick\": {},", report.drained_at_tick);
    let _ = writeln!(json, "  \"batches\": {},", report.batches);
    let _ = writeln!(
        json,
        "  \"mean_batch_occupancy_milli\": {},",
        report.mean_occupancy_milli
    );
    let _ = writeln!(json, "  \"max_queue_depth\": {},", report.max_queue_depth);
    let _ = writeln!(json, "  \"degraded_batches\": {},", report.degraded_batches);
    let _ = writeln!(
        json,
        "  \"dense_fallback_batches\": {},",
        report.dense_fallback_batches
    );
    let _ = writeln!(json, "  \"guard_trips\": {},", report.guard_trips);
    let _ = writeln!(json, "  \"tenants\": [");
    for (i, t) in report.tenants.iter().enumerate() {
        let sep = if i + 1 < report.tenants.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"tenant\": \"{}\", \"completed\": {}, \"degraded\": {}, \
             \"p50_ticks\": {}, \"p90_ticks\": {}, \"p99_ticks\": {}, \"max_ticks\": {}}}{sep}",
            t.name, t.completed, t.degraded, t.p50_ticks, t.p90_ticks, t.p99_ticks, t.max_ticks
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = if smoke {
        "results/BENCH_serve_smoke.json"
    } else {
        "results/BENCH_serve.json"
    };
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(path, &json).expect("write BENCH_serve json");
    println!("wrote {path}");

    if let Some((obs_path, events)) = duet_obs::finalize() {
        println!("trace: {events} events -> {obs_path}");
    }
}
