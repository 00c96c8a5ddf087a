//! End-to-end flight-recorder coverage of the serving stack: the event
//! stream balances, decomposes every request's latency exactly, and is
//! byte-identical across worker-pool widths.
//!
//! All tests share the process-global recorder, so they serialize on a
//! file-local mutex and drain the ring before releasing it.

use duet_core::switching::SwitchingPolicy;
use duet_nn::Activation;
use duet_obs::event::{self, EventKind};
use duet_serve::{
    DuetServer, InferenceResponse, OverloadPolicy, ServeConfig, ServedModel, TenantProfile,
    TraceConfig,
};
use duet_tensor::rng::{self, seeded};
use duet_tensor::Tensor;
use std::sync::{Mutex, OnceLock};

fn recorder_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn models() -> Vec<ServedModel> {
    let specs: [(&str, u64, usize, usize); 2] = [("chat", 31, 24, 32), ("embed", 32, 16, 24)];
    specs
        .iter()
        .map(|&(name, seed, n, d)| {
            let mut r = seeded(seed);
            let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
            let b = Tensor::zeros(&[n]);
            ServedModel {
                name: name.into(),
                model: duet_serve::ModelVariant::Layer(
                    duet_core::dual_layer::DualModuleLayer::learn(
                        &w,
                        &b,
                        Activation::Relu,
                        n,
                        200,
                        &mut r,
                    ),
                ),
                overload: OverloadPolicy {
                    base: SwitchingPolicy::relu(0.0),
                    theta_step: 0.5,
                },
                band: None,
            }
        })
        .collect()
}

fn tenants() -> Vec<String> {
    vec!["alpha".into(), "beta".into()]
}

fn requests(server: &DuetServer) -> Vec<duet_serve::InferenceRequest> {
    let cfg = TraceConfig {
        seed: 515,
        horizon_ticks: 400,
        tenants: vec![
            TenantProfile::uniform("alpha", 3),
            TenantProfile::uniform("beta", 7),
        ],
        diurnal: None,
    };
    duet_serve::trace::generate(&cfg, &server.model_dims())
}

/// Runs the seeded trace with the recorder on and returns the responses
/// plus the drained, canonically sorted event stream.
fn recorded_run(workers: usize) -> (Vec<InferenceResponse>, Vec<event::Event>) {
    let mut cfg = ServeConfig::balanced();
    cfg.workers = workers;
    cfg.macs_per_tick = 96; // starved: degradation and level changes occur
    let mut server = DuetServer::new(models(), &tenants(), cfg);
    let reqs = requests(&server);
    duet_obs::set_recorder_enabled(true);
    let (responses, _report) = server.run_trace(&reqs);
    duet_obs::set_recorder_enabled(false);
    assert_eq!(event::overflow(), 0, "ring must hold the whole run");
    let mut events = event::take_global();
    event::canonical_sort(&mut events);
    (responses, events)
}

#[test]
fn stream_balances_and_stages_sum_for_every_request() {
    let _g = recorder_lock().lock().unwrap();
    let (responses, events) = recorded_run(2);
    assert!(!responses.is_empty());

    let obs = duet_serve::report::join(&events).expect("stream balances");
    assert_eq!(
        obs.journeys.len(),
        responses.len(),
        "every enqueue has a respond"
    );

    // Stage decomposition is exact, request by request.
    for j in &obs.journeys {
        let s = j.stages();
        assert_eq!(
            s.queue_wait + s.batch_wait + s.compute + s.degraded_compute,
            j.latency(),
            "request {} stages must sum to end-to-end latency",
            j.id
        );
    }
    // And agrees with the server's own responses.
    for r in &responses {
        let j = obs
            .journeys
            .iter()
            .find(|j| j.id == r.id.0)
            .expect("journey for response");
        assert_eq!(j.arrival, r.arrival_tick);
        assert_eq!(j.exec_end, r.completion_tick);
        assert_eq!(j.tenant, r.tenant.0);
    }
    // Waterfall counts cover every journey exactly once.
    let total: u64 = obs.waterfalls.iter().map(|w| w.completed).sum();
    assert_eq!(total, obs.journeys.len() as u64);

    // The starved config must produce admission-level anomalies.
    assert!(
        obs.anomalies
            .iter()
            .any(|a| a.kind == EventKind::AdmissionLevel),
        "overload must surface level changes in the anomaly timeline"
    );
    // Exemplar counts add up to the journey count too.
    let bucketed: u64 = obs.exemplars.iter().map(|e| e.count).sum();
    assert_eq!(bucketed, obs.journeys.len() as u64);
}

#[test]
fn canonical_stream_is_byte_identical_across_worker_counts() {
    let _g = recorder_lock().lock().unwrap();
    let (_, base) = recorded_run(1);
    let base_jsonl = event::to_jsonl(&base);
    assert!(!base.is_empty());
    for workers in [4, 7] {
        let (_, events) = recorded_run(workers);
        assert_eq!(
            event::to_jsonl(&events),
            base_jsonl,
            "workers={workers} produced a different canonical stream"
        );
    }
}

#[test]
fn engine_events_attribute_to_the_enclosing_batch_scope() {
    let _g = recorder_lock().lock().unwrap();
    let (_, events) = recorded_run(2);
    // Engine-level finish events ride the installed batch scope even
    // though they are emitted from pool worker threads.
    let finishes: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::EngineFinish)
        .collect();
    assert!(!finishes.is_empty(), "engine hook must fire under recorder");
    for e in &finishes {
        assert_ne!(e.request, event::NO_SCOPE, "engine event must be scoped");
        assert_ne!(
            e.request & event::BATCH_SCOPE,
            0,
            "engine events carry the batch tag"
        );
    }
    // Each engine finish pairs with a server-side batch-exec event for
    // the same batch.
    let batch_ids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::BatchExec)
        .map(|e| e.request)
        .collect();
    for e in &finishes {
        assert!(
            batch_ids.contains(&e.request),
            "engine finish for batch {:#x} has no BatchExec",
            e.request
        );
    }
}
