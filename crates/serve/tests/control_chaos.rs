//! Closed-loop θ-control and chaos-campaign guarantees:
//!
//! 1. **Controller-off pin** — with `control: None` the server replays
//!    the static level → θ table bitwise; the checksum below was
//!    captured on the pre-controller code path and must never move.
//! 2. **Chaos determinism** — a seeded campaign (guard trips, weight
//!    corruption, stalls, spikes) replays byte-identically at any
//!    worker-pool width.
//! 3. **Graceful degradation** — under chaos with the controller on,
//!    no request is dropped and every injected guard trip recovers.

use duet_core::guard::SwitchRateBand;
use duet_core::switching::SwitchingPolicy;
use duet_nn::Activation;
use duet_serve::{
    chaos, ChaosConfig, ChaosKind, DuetServer, InferenceResponse, ModelVariant, OverloadPolicy,
    ServeConfig, ServeControl, ServedModel, TenantProfile, TraceConfig,
};
use duet_tensor::rng::{self, seeded};
use duet_tensor::Tensor;

fn model(name: &str, seed: u64, band: Option<SwitchRateBand>) -> ServedModel {
    let mut r = seeded(seed);
    let w = rng::normal(&mut r, &[16, 24], 0.0, 0.3);
    let b = Tensor::zeros(&[16]);
    ServedModel {
        name: name.into(),
        model: ModelVariant::Layer(duet_core::dual_layer::DualModuleLayer::learn(
            &w,
            &b,
            Activation::Relu,
            16,
            200,
            &mut r,
        )),
        overload: OverloadPolicy {
            base: SwitchingPolicy::relu(0.0),
            theta_step: 0.5,
        },
        band,
    }
}

/// The overloaded two-model scenario the pin checksum was captured on.
fn pin_config(workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::balanced();
    cfg.workers = workers;
    cfg.admission = duet_serve::AdmissionConfig {
        backlog_target: 2,
        level_step: 2,
        max_level: 3,
    };
    cfg.macs_per_tick = 64; // slow service so backlog builds
    cfg
}

fn pin_trace(server: &DuetServer) -> Vec<duet_serve::InferenceRequest> {
    let cfg = TraceConfig {
        seed: 4242,
        horizon_ticks: 400,
        tenants: vec![
            TenantProfile::uniform("alpha", 3),
            TenantProfile::uniform("beta", 7),
        ],
        diurnal: None,
    };
    duet_serve::trace::generate(&cfg, &server.model_dims())
}

/// Order-sensitive bit-level fold over the responses.
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

/// Captured on the pre-controller code path (static level → θ table,
/// `guard.ewma().unwrap_or(0.0)` seam and all). `control: None` must
/// reproduce it bit for bit — the controller is strictly opt-in.
#[test]
fn controller_off_is_bitwise_identical_to_the_static_table() {
    let mut server = DuetServer::new(
        vec![model("m0", 101, None), model("m1", 202, None)],
        &["alpha".to_string(), "beta".to_string()],
        pin_config(2),
    );
    let trace = pin_trace(&server);
    let (responses, report) = server.run_trace(&trace);
    assert_eq!(report.completed, report.submitted);
    assert_eq!(report.dropped, 0);
    assert!(server.control_samples().is_empty());
    assert_eq!(report.completed, 185);
    assert_eq!(report.degraded_batches, 61);
    assert_eq!(report.drained_at_tick, 412);
    assert_eq!(checksum(&responses), 0x86ace05d5a7861fb);
}

fn chaos_server(workers: usize) -> DuetServer {
    let band = Some(SwitchRateBand { lo: 0.3, hi: 0.5 });
    let mut cfg = pin_config(workers);
    cfg.control = Some(ServeControl::balanced());
    // quarantined replicas only see the occasional overflow batch, so
    // re-admission within the trace horizon needs a shorter healthy
    // streak than the default 8
    cfg.guard.clear_after = 4;
    DuetServer::new(
        vec![model("m0", 101, band), model("m1", 202, band)],
        &["alpha".to_string(), "beta".to_string()],
        cfg,
    )
}

fn campaign(server: &DuetServer) -> Vec<duet_serve::ChaosEvent> {
    // faults land in [25, 250) — well before the 400-tick trace ends, so
    // sustained overload keeps forcing batches onto quarantined replicas
    // (re-admission needs healthy observations, which need traffic)
    let cfg = ChaosConfig {
        seed: 9090,
        horizon_ticks: 250,
        guard_trips: 2,
        corruptions: 1,
        corruption_rate: 0.03,
        repair_delay_ticks: 60,
        stalls: 1,
        stall_ticks: 25,
        spikes: 1,
        spike_requests: 12,
    };
    chaos::plan(&cfg, &server.chaos_topology())
}

#[test]
fn chaos_campaign_replays_byte_identically_across_worker_counts() {
    let trace = pin_trace(&chaos_server(1));
    let plan = campaign(&chaos_server(1));
    let mut outcomes = Vec::new();
    for workers in [1, 4, 7] {
        let mut s = chaos_server(workers);
        let out = s.run_trace_chaos(&trace, &plan);
        let samples = s.control_samples().to_vec();
        outcomes.push((out, samples));
    }
    let ((ref base_resp, ref base_rep, ref base_chaos), ref base_samples) = outcomes[0];
    assert!(base_chaos.guard_trips == 2 && base_chaos.corruptions == 1);
    for ((resp, rep, chaos_rep), samples) in &outcomes[1..] {
        assert_eq!(resp, base_resp);
        assert_eq!(rep, base_rep);
        assert_eq!(chaos_rep, base_chaos);
        assert_eq!(samples, base_samples);
    }
}

#[test]
fn chaos_with_control_drops_nothing_and_recovers_every_trip() {
    let mut server = chaos_server(2);
    let trace = pin_trace(&server);
    let plan = campaign(&server);
    let replicas = server.replica_count();
    let (responses, report, chaos_rep) = server.run_trace_chaos(&trace, &plan);

    // zero dropped requests: everything submitted (trace + spike burst)
    // completes exactly once
    assert_eq!(report.dropped, 0);
    assert_eq!(
        report.submitted,
        trace.len() as u64 + chaos_rep.spike_requests
    );
    assert_eq!(report.completed, report.submitted);
    assert_eq!(responses.len() as u64, report.completed);

    // every injected guard trip recovers: the replica serves again
    // (quarantine is hysteretic re-admission, not exile) and its guard
    // clears before the run drains
    assert_eq!(chaos_rep.guard_trips, 2);
    for ev in &plan {
        if let ChaosKind::GuardTrip { replica } = ev.kind {
            let ri = replica % replicas;
            assert!(
                !server.replica(ri).guard.is_tripped(),
                "replica {ri} must re-admit after the injected trip"
            );
            let recovered = server
                .control_samples()
                .iter()
                .any(|s| s.replica == ri && s.tick > ev.tick && !s.tripped);
            assert!(recovered, "replica {ri} never produced a healthy sample");
        }
    }

    // the corruption was repaired and the controller kept θ inside its
    // clamp throughout
    assert_eq!(chaos_rep.repairs, 1);
    assert!(chaos_rep.flipped_bits > 0);
    let span = ServeControl::balanced().theta_span;
    for s in server.control_samples() {
        assert!(
            s.theta >= -span && s.theta <= span,
            "θ clamp violated: {s:?}"
        );
        assert!(s.bits >= 2 && s.bits <= 4);
    }
}
