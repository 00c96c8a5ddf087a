//! Control exhibit: closed-loop θ-regulation under a chaos campaign.
//!
//! Two dual-module models are first *calibrated*: a light warmup trace
//! measures each model's natural insensitive fraction through the
//! guard's EWMA, and [`Calibration::insensitive_band`] turns it into the
//! healthy switch-rate band. The serving run then re-launches with
//! [`ServeControl`] enabled — every replica carries a
//! `ThetaController` steering θ toward the band's midpoint, with
//! admission pressure shifting the setpoint instead of stepping a
//! static θ table — while a seeded chaos campaign injects guard trips,
//! speculator weight corruption, batcher stalls, and backlog spikes into
//! heavy-tailed (Pareto + diurnal) load.
//!
//! The run asserts the three control invariants **in-binary**:
//!
//! 1. **zero dropped requests** — chaos degrades precision, never
//!    availability,
//! 2. **bounded recovery** — every injected guard trip re-admits within
//!    [`RECOVERY_BOUND_TICKS`] virtual ticks,
//! 3. **setpoint tracking** — once the fault window closes, the mean
//!    setpoint error settles inside the controller deadband.
//!
//! All timing is virtual, so `results/BENCH_control.json` and the
//! stdout table (it prints no thread count) are byte-identical at any
//! `DUET_NUM_THREADS` — CI diffs smoke runs at 1/4/7 threads.
//!
//! Run with: `cargo run --release -p duet-bench --bin control_bench`
//! (`--smoke` shortens both traces and writes
//! `results/BENCH_control_smoke.json` instead).

use duet_core::calibration::Calibration;
use duet_core::dual_layer::DualModuleLayer;
use duet_core::guard::SwitchRateBand;
use duet_core::metrics::SavingsReport;
use duet_core::switching::SwitchingPolicy;
use duet_nn::Activation;
use duet_serve::{
    chaos, trace, ChaosConfig, ChaosKind, DuetServer, InferenceResponse, ModelVariant,
    OverloadPolicy, ServeConfig, ServeControl, ServedModel, TenantProfile, TraceConfig,
};
use duet_tensor::rng::{self, seeded};
use duet_tensor::Tensor;
use std::fmt::Write as _;

/// Master seed for models, traces, and the chaos campaign.
const SEED: u64 = 1717;

/// Guard-band half-width around the calibrated insensitive fraction.
const BAND_MARGIN: f64 = 0.12;

/// Every injected guard trip must re-admit within this many virtual
/// ticks of the injection (asserted per trip).
const RECOVERY_BOUND_TICKS: u64 = 250;

fn models(bands: &[Option<SwitchRateBand>]) -> Vec<ServedModel> {
    // (name, n, d) — small layers so the control dynamics, not the
    // matmul, dominate the run.
    let specs: &[(&str, usize, usize)] = &[("chat", 16, 24), ("embed", 16, 20)];
    specs
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
                    200,
                    &mut r,
                )),
                overload: OverloadPolicy {
                    base: SwitchingPolicy::relu(0.0),
                    theta_step: 0.5,
                },
                band: bands.get(i).copied().flatten(),
            }
        })
        .collect()
}

/// The overloaded serving configuration shared by both phases (the
/// calibration phase raises `macs_per_tick` so admission stays at
/// level 0 and the natural switch rate is measured, not the degraded
/// one).
fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::balanced();
    cfg.admission = duet_serve::AdmissionConfig {
        backlog_target: 2,
        level_step: 2,
        max_level: 3,
    };
    cfg.macs_per_tick = 64;
    cfg.workers = 0; // resolve from DUET_NUM_THREADS
    cfg
}

/// Phase 1: measure each model's natural insensitive fraction under
/// light load and derive its healthy band via
/// [`Calibration::insensitive_band`].
fn calibrate_bands(n_models: usize) -> Vec<Option<SwitchRateBand>> {
    let mut cfg = serve_config();
    cfg.macs_per_tick = 512; // light load: measure at level 0
    let mut server = DuetServer::new(
        models(&vec![None; n_models]),
        &["alpha".to_string(), "beta".to_string()],
        cfg,
    );
    let warmup = TraceConfig {
        seed: SEED ^ 0xCA11,
        horizon_ticks: 600,
        tenants: vec![
            TenantProfile::uniform("alpha", 6),
            TenantProfile::uniform("beta", 9),
        ],
        diurnal: None,
    };
    let requests = trace::generate(&warmup, &server.model_dims());
    let (_, report) = server.run_trace(&requests);
    assert_eq!(report.dropped, 0, "calibration trace must not drop");

    (0..n_models)
        .map(|m| {
            let (mut sum, mut n) = (0.0f64, 0u32);
            for ri in 0..server.replica_count() {
                let replica = server.replica(ri);
                if replica.model == m {
                    if let Some(e) = replica.guard.ewma() {
                        sum += e;
                        n += 1;
                    }
                }
            }
            assert!(n > 0, "model {m} got no finite guard observations");
            let center = sum / f64::from(n);
            // Express the measurement as a Calibration so the band comes
            // from the same seam a tuning run would use.
            let total = 1_000_000u64;
            let cal = Calibration {
                thetas: vec![0.0],
                quality: 1.0,
                report: SavingsReport {
                    outputs_total: total,
                    outputs_exact: total - (center * total as f64).round() as u64,
                    ..SavingsReport::new()
                },
            };
            Some(cal.insensitive_band(BAND_MARGIN))
        })
        .collect()
}

fn chaos_trace(smoke: bool) -> TraceConfig {
    let horizon = if smoke { 400 } else { 1_600 };
    TraceConfig {
        seed: SEED,
        horizon_ticks: horizon,
        tenants: vec![
            TenantProfile::pareto("alpha", 3, 1.5),
            TenantProfile::pareto("beta", 7, 2.5),
        ],
        diurnal: Some(trace::Diurnal {
            period_ticks: horizon / 2,
            amplitude: 0.4,
        }),
    }
}

fn campaign_config(smoke: bool) -> ChaosConfig {
    ChaosConfig {
        seed: SEED ^ 0xC405,
        // Faults stop early enough that sustained load keeps feeding
        // quarantined replicas the healthy observations re-admission
        // needs.
        horizon_ticks: if smoke { 250 } else { 1_000 },
        guard_trips: 2,
        corruptions: 1,
        corruption_rate: 0.03,
        repair_delay_ticks: 60,
        stalls: 1,
        stall_ticks: 25,
        spikes: 1,
        spike_requests: 12,
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

fn milli(x: f64) -> i64 {
    (x * 1000.0).round() as i64
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    if smoke {
        println!("control_bench: --smoke (short traces)");
    }
    println!("control_bench: seed {SEED}\n");

    // ---- phase 1: calibrate the healthy bands ---------------------------
    let bands = calibrate_bands(2);
    for (m, band) in bands.iter().enumerate() {
        let b = band.expect("calibrated band");
        println!("model {m}: calibrated band [{:.3}, {:.3}]", b.lo, b.hi);
    }

    // ---- phase 2: closed-loop serving under chaos -----------------------
    let mut cfg = serve_config();
    cfg.control = Some(ServeControl::balanced());
    // Quarantined replicas only see the occasional overflow batch;
    // re-admission within the trace horizon needs a shorter healthy
    // streak than the default.
    cfg.guard.clear_after = 4;
    let mut server = DuetServer::new(
        models(&bands),
        &["alpha".to_string(), "beta".to_string()],
        cfg,
    );
    let trace_cfg = chaos_trace(smoke);
    let requests = trace::generate(&trace_cfg, &server.model_dims());
    let plan = chaos::plan(&campaign_config(smoke), &server.chaos_topology());
    println!(
        "\nchaos run: {} requests over {} ticks, {} injected events",
        requests.len(),
        trace_cfg.horizon_ticks,
        plan.len()
    );
    for ev in &plan {
        println!("  @{:<5} {:?}", ev.tick, ev.kind);
    }

    let (responses, report, chaos_rep) = server.run_trace_chaos(&requests, &plan);
    let checksum = response_checksum(&responses);

    // ---- invariant 1: zero dropped requests -----------------------------
    assert_eq!(report.dropped, 0, "chaos must not drop requests");
    assert_eq!(
        report.submitted,
        requests.len() as u64 + chaos_rep.spike_requests,
        "submitted = trace + backlog spikes"
    );
    assert_eq!(
        report.completed, report.submitted,
        "every submitted request must complete"
    );

    // ---- invariant 2: bounded recovery after every injected trip --------
    let mut recoveries: Vec<(usize, u64, u64)> = Vec::new(); // (replica, injected, recovered)
    for ev in &plan {
        if let ChaosKind::GuardTrip { replica } = ev.kind {
            let ri = replica % server.replica_count();
            assert!(
                !server.replica(ri).guard.is_tripped(),
                "replica {ri} still quarantined at drain"
            );
            let recovered = server
                .control_samples()
                .iter()
                .find(|s| s.replica == ri && s.tick > ev.tick && !s.tripped)
                .map(|s| s.tick)
                .unwrap_or_else(|| panic!("replica {ri} never produced a healthy sample"));
            let took = recovered - ev.tick;
            assert!(
                took <= RECOVERY_BOUND_TICKS,
                "replica {ri} took {took} ticks to re-admit (bound {RECOVERY_BOUND_TICKS})"
            );
            recoveries.push((ri, ev.tick, recovered));
        }
    }
    assert_eq!(chaos_rep.guard_trips as usize, recoveries.len());

    // ---- invariant 3: setpoint tracking in the steady tail --------------
    // After the fault window closes the loop must settle: mean |error|
    // over the tail inside the controller deadband (= the band margin).
    let fault_end = campaign_config(smoke).horizon_ticks;
    let tail: Vec<f64> = server
        .control_samples()
        .iter()
        .filter(|s| s.tick > fault_end)
        .filter_map(|s| s.error)
        .collect();
    assert!(!tail.is_empty(), "no steady-tail control samples");
    let mean_abs = tail.iter().map(|e| e.abs()).sum::<f64>() / tail.len() as f64;
    let max_abs = tail.iter().map(|e| e.abs()).fold(0.0f64, f64::max);
    assert!(
        mean_abs <= BAND_MARGIN,
        "steady-tail mean |error| {mean_abs:.4} exceeds deadband {BAND_MARGIN}"
    );

    // θ stayed clamped and the precision ladder stayed in range.
    let span = ServeControl::balanced().theta_span;
    for s in server.control_samples() {
        assert!(s.theta.abs() <= span, "θ clamp violated: {s:?}");
        assert!(s.bits >= 2 && s.bits <= 4, "bit-width out of range: {s:?}");
    }

    println!(
        "\ncompleted {}/{} requests in {} ticks, 0 dropped",
        report.completed, report.submitted, report.drained_at_tick
    );
    println!(
        "batches: {} (degraded {}, dense-fallback {}), guard trips {} ({} injected)",
        report.batches,
        report.degraded_batches,
        report.dense_fallback_batches,
        report.guard_trips,
        chaos_rep.guard_trips
    );
    for &(ri, injected, recovered) in &recoveries {
        println!(
            "recovery: replica {ri} tripped @{injected}, re-admitted @{recovered} \
             ({} ticks, bound {RECOVERY_BOUND_TICKS})",
            recovered - injected
        );
    }
    println!(
        "setpoint tracking: {} tail samples, mean |error| {mean_abs:.4}, max {max_abs:.4} \
         (deadband {BAND_MARGIN})",
        tail.len()
    );
    println!("response checksum: {checksum:#018x}");

    // ---- JSON (deterministic: virtual ticks only, no wall clock) --------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"exhibit\": \"control_bench\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"response_checksum\": \"{checksum:#018x}\",");
    let _ = writeln!(json, "  \"bands\": [");
    for (i, band) in bands.iter().enumerate() {
        let b = band.expect("calibrated band");
        let sep = if i + 1 < bands.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"model\": {i}, \"lo_milli\": {}, \"hi_milli\": {}}}{sep}",
            milli(b.lo),
            milli(b.hi)
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"submitted\": {},", report.submitted);
    let _ = writeln!(json, "  \"completed\": {},", report.completed);
    let _ = writeln!(json, "  \"dropped\": {},", report.dropped);
    let _ = writeln!(json, "  \"drained_at_tick\": {},", report.drained_at_tick);
    let _ = writeln!(json, "  \"batches\": {},", report.batches);
    let _ = writeln!(json, "  \"degraded_batches\": {},", report.degraded_batches);
    let _ = writeln!(
        json,
        "  \"dense_fallback_batches\": {},",
        report.dense_fallback_batches
    );
    let _ = writeln!(json, "  \"guard_trips\": {},", report.guard_trips);
    let _ = writeln!(
        json,
        "  \"chaos\": {{\"guard_trips\": {}, \"corruptions\": {}, \"flipped_bits\": {}, \
         \"repairs\": {}, \"stalls\": {}, \"spike_requests\": {}}},",
        chaos_rep.guard_trips,
        chaos_rep.corruptions,
        chaos_rep.flipped_bits,
        chaos_rep.repairs,
        chaos_rep.stalls,
        chaos_rep.spike_requests
    );
    let _ = writeln!(json, "  \"recoveries\": [");
    for (i, &(ri, injected, recovered)) in recoveries.iter().enumerate() {
        let sep = if i + 1 < recoveries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"replica\": {ri}, \"injected_tick\": {injected}, \
             \"recovered_tick\": {recovered}, \"recovery_ticks\": {}}}{sep}",
            recovered - injected
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"recovery_bound_ticks\": {RECOVERY_BOUND_TICKS},");
    let _ = writeln!(
        json,
        "  \"control\": {{\"samples\": {}, \"tail_samples\": {}, \
         \"tail_mean_abs_error_milli\": {}, \"tail_max_abs_error_milli\": {}, \
         \"deadband_milli\": {}}}",
        server.control_samples().len(),
        tail.len(),
        milli(mean_abs),
        milli(max_abs),
        milli(BAND_MARGIN)
    );
    json.push_str("}\n");

    let path = if smoke {
        "results/BENCH_control_smoke.json"
    } else {
        "results/BENCH_control.json"
    };
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(path, &json).expect("write BENCH_control json");
    println!("wrote {path}");

    if let Some((obs_path, events)) = duet_obs::finalize() {
        println!("trace: {events} events -> {obs_path}");
    }
}
