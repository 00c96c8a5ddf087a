//! Serving determinism: a seeded trace replays byte-identically at any
//! worker-pool width.
//!
//! The in-process sweep varies the explicit worker override over
//! {1, 4, 7}; the env-driven path (`workers: 0`, which reads
//! `DUET_NUM_THREADS`) must match the workers=1 baseline bit for bit.
//! `scripts/verify.sh` runs this test under `DUET_NUM_THREADS` ∈
//! {1, 4, 7}, so together the two checks pin byte-identical responses
//! for every combination the threading model allows.

use duet_core::dual_proj::DualProjection;
use duet_core::engine::MacMode;
use duet_core::metrics::SavingsReport;
use duet_core::switching::SwitchingPolicy;
use duet_core::{DualAttention, DualFfn, DualTransformerBlock};
use duet_nn::Activation;
use duet_serve::replica::execute_batch;
use duet_serve::{
    DuetServer, InferenceResponse, ModelVariant, OverloadPolicy, ServeConfig, ServeReport,
    ServedModel, TenantProfile, TraceConfig,
};
use duet_tensor::rng::{self, seeded};
use duet_tensor::Tensor;

fn models() -> Vec<ServedModel> {
    let specs: [(&str, u64, usize, usize); 2] = [("chat", 21, 32, 48), ("embed", 22, 24, 40)];
    let mut out: Vec<ServedModel> = specs
        .iter()
        .map(|&(name, seed, n, d)| {
            let mut r = seeded(seed);
            let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
            let b = Tensor::zeros(&[n]);
            ServedModel {
                name: name.into(),
                model: ModelVariant::Layer(duet_core::dual_layer::DualModuleLayer::learn(
                    &w,
                    &b,
                    Activation::Relu,
                    n,
                    250,
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
    let (m, f) = (8usize, 16usize);
    let mut r = seeded(23);
    let mut proj = |n: usize, d: usize| {
        let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
        let b = rng::normal(&mut r, &[n], 0.0, 0.05);
        DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, 4, 250, &mut r)
    };
    let block = DualTransformerBlock::new(
        DualAttention::new(proj(m, m), proj(m, m), proj(m, m), proj(m, m)),
        DualFfn::new(proj(f, m), proj(m, f)),
    );
    out.push(ServedModel {
        name: "lm".into(),
        model: ModelVariant::Transformer {
            block: Box::new(block),
            seq_len: 4,
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

fn tenants() -> Vec<String> {
    vec!["alpha".into(), "beta".into(), "gamma".into()]
}

fn trace(server: &DuetServer) -> Vec<duet_serve::InferenceRequest> {
    let cfg = TraceConfig {
        seed: 2026,
        horizon_ticks: 600,
        tenants: vec![
            TenantProfile::uniform("alpha", 3),
            TenantProfile::uniform("beta", 6),
            TenantProfile::uniform("gamma", 11),
        ],
        diurnal: None,
    };
    duet_serve::trace::generate(&cfg, &server.model_dims())
}

fn run(workers: usize) -> (Vec<InferenceResponse>, ServeReport) {
    let mut cfg = ServeConfig::balanced();
    cfg.workers = workers;
    let mut server = DuetServer::new(models(), &tenants(), cfg);
    let trace = trace(&server);
    assert!(!trace.is_empty());
    server.run_trace(&trace)
}

/// Bit-level fold over every response field, so "byte-identical" means
/// exactly that — output payloads, ticks, and degradation flags alike.
fn checksum(responses: &[InferenceResponse]) -> u64 {
    let mut acc = 0u64;
    let mut fold = |v: u64| acc = acc.rotate_left(7) ^ v;
    for r in responses {
        fold(r.id.0);
        fold(u64::from(r.tenant.0));
        fold(u64::from(r.model.0));
        fold(r.arrival_tick);
        fold(r.completion_tick);
        fold(u64::from(r.degradation_level));
        fold(u64::from(r.served_dense));
        for v in r.output.data() {
            fold(u64::from(v.to_bits()));
        }
    }
    acc
}

#[test]
fn seeded_trace_replays_byte_identically_across_worker_counts() {
    let (base_resp, base_rep) = run(1);
    assert_eq!(base_resp.len() as u64, base_rep.submitted);
    assert_eq!(base_rep.completed, base_rep.submitted);
    assert_eq!(base_rep.dropped, 0);
    let base_sum = checksum(&base_resp);
    for workers in [4, 7] {
        let (resp, rep) = run(workers);
        assert_eq!(checksum(&resp), base_sum, "workers={workers} diverged");
        assert_eq!(resp, base_resp, "workers={workers} responses differ");
        assert_eq!(rep, base_rep, "workers={workers} report differs");
    }
    // workers: 0 resolves to DUET_NUM_THREADS; whatever verify.sh sets
    // it to (1, 4, or 7), the result must match the workers=1 baseline.
    let (env_resp, env_rep) = run(0);
    assert_eq!(checksum(&env_resp), base_sum, "env-driven path diverged");
    assert_eq!(env_resp, base_resp);
    assert_eq!(env_rep, base_rep);
}

#[test]
fn empty_micro_batch_flush_is_harmless() {
    // A server with pending arrivals but an empty queue at flush time
    // exercises the empty-batch path end to end.
    let mut cfg = ServeConfig::balanced();
    cfg.workers = 1;
    let mut server = DuetServer::new(models(), &tenants(), cfg);
    let responses = server.run_until_idle();
    assert!(responses.is_empty());
    let report = server.report();
    assert_eq!(report.submitted, 0);
    assert_eq!(report.batches, 0);
    // the direct seam: a batch of no requests through each model
    for served in models() {
        let out = execute_batch(&served.model, &[], &SwitchingPolicy::relu(0.0), false);
        assert!(out.outputs.is_empty());
        assert!(out.maps.is_empty());
        assert_eq!(out.report, SavingsReport::new());
    }
}

#[test]
fn overload_degrades_every_tenant_fairly_with_zero_drops() {
    let mut cfg = ServeConfig::balanced();
    cfg.workers = 2;
    cfg.macs_per_tick = 128; // starve throughput so backlog builds
    let mut server = DuetServer::new(models(), &tenants(), cfg);
    let trace = trace(&server);
    let (responses, report) = server.run_trace(&trace);
    assert_eq!(report.submitted, trace.len() as u64);
    assert_eq!(report.completed, report.submitted);
    assert_eq!(report.dropped, 0);
    assert_eq!(responses.len(), trace.len());
    assert!(report.degraded_batches > 0, "overload must degrade θ");
    // heaviest tenant (alpha) sees degradation first
    assert!(report.tenants[0].degraded > 0);
    for slo in &report.tenants {
        assert!(slo.p50_ticks <= slo.p90_ticks);
        assert!(slo.p90_ticks <= slo.p99_ticks);
        assert!(slo.p99_ticks <= slo.max_ticks);
    }
}
