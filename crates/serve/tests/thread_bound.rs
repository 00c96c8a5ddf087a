//! Serving's one fan-out is the server's scheduling round, bounded by
//! `ServeConfig::workers`: at `workers: 1`, a replay whose layers all sit
//! below `ops::PAR_MIN_FLOPS` runs on the calling thread and starts no
//! parallel region, whatever `DUET_NUM_THREADS` says.
//!
//! A test binary of its own: it reads the process-global
//! `tensor.parallel.regions` counter with metrics on, and a second test
//! in the same process could fan out between the two reads.

use duet_core::dual_layer::DualModuleLayer;
use duet_core::dual_proj::DualProjection;
use duet_core::engine::MacMode;
use duet_core::switching::SwitchingPolicy;
use duet_core::{DualAttention, DualFfn, DualTransformerBlock};
use duet_nn::Activation;
use duet_serve::{
    DuetServer, ModelVariant, OverloadPolicy, ServeConfig, ServedModel, TenantProfile, TraceConfig,
};
use duet_tensor::rng::{self, seeded};
use duet_tensor::{ops, Tensor};

/// An FC layer and a transformer block, every weight matrix below the
/// kernels' striping threshold.
fn models() -> Vec<ServedModel> {
    let (n, d) = (32usize, 48usize);
    assert!(n * d < ops::PAR_MIN_FLOPS);
    let mut r = seeded(51);
    let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
    let layer = DualModuleLayer::learn(&w, &Tensor::zeros(&[n]), Activation::Relu, n, 250, &mut r);

    let (m, f) = (8usize, 16usize);
    assert!(m * f < ops::PAR_MIN_FLOPS);
    let mut proj = |n: usize, d: usize| {
        let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
        let b = rng::normal(&mut r, &[n], 0.0, 0.05);
        DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, 4, 250, &mut r)
    };
    let block = DualTransformerBlock::new(
        DualAttention::new(proj(m, m), proj(m, m), proj(m, m), proj(m, m)),
        DualFfn::new(proj(f, m), proj(m, f)),
    );
    vec![
        ServedModel {
            name: "chat".into(),
            model: ModelVariant::Layer(layer),
            overload: OverloadPolicy {
                base: SwitchingPolicy::relu(0.0),
                theta_step: 0.5,
            },
            band: None,
        },
        ServedModel {
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
        },
    ]
}

#[test]
fn one_worker_replay_starts_no_parallel_region() {
    duet_obs::set_metrics_enabled(true);
    let mut cfg = ServeConfig::balanced();
    cfg.workers = 1;
    cfg.macs_per_tick = 256; // below the offered load, so batches fill
    let tenants: Vec<String> = vec!["alpha".into(), "beta".into()];
    let mut server = DuetServer::new(models(), &tenants, cfg);
    let trace = duet_serve::trace::generate(
        &TraceConfig {
            seed: 2029,
            horizon_ticks: 400,
            tenants: vec![
                TenantProfile::uniform("alpha", 3),
                TenantProfile::uniform("beta", 5),
            ],
            diurnal: None,
        },
        &server.model_dims(),
    );

    // Distillation above may fan out; only the replay is counted.
    let regions = duet_obs::registry::counter("tensor.parallel.regions");
    let before = regions.get();
    let (responses, report) = server.run_trace(&trace);
    let fanned_out = regions.get() - before;
    duet_obs::set_metrics_enabled(false);

    assert_eq!(responses.len(), trace.len());
    assert_eq!(report.dropped, 0);
    assert!(
        report.mean_occupancy_milli > 1_000,
        "the replay must batch requests together, occupancy {}",
        report.mean_occupancy_milli
    );
    assert_eq!(
        fanned_out, 0,
        "a workers = 1 replay of small models started {fanned_out} parallel regions"
    );
}
