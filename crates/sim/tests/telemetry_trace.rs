//! A simulator run under tracing must emit balanced begin/end events
//! into the flight-recorder ring that export to valid Chrome trace JSON
//! — the per-layer spans the trace viewer shows come from
//! [`duet_sim::cnn`] / [`duet_sim::rnn`].

use duet_obs::json::{parse, Value};
use duet_sim::config::ArchConfig;
use duet_sim::energy::EnergyTable;
use duet_sim::trace::{ConvLayerTrace, RnnLayerTrace};
use duet_tensor::rng::seeded;

#[test]
fn simulator_trace_is_balanced_and_labeled() {
    // Sole test in this file: it owns the process-global ring.
    duet_obs::set_trace_enabled(true);
    let _ = duet_obs::event::take_global();

    let mut r = seeded(11);
    let conv: Vec<ConvLayerTrace> = (0..3)
        .map(|i| {
            ConvLayerTrace::synthetic(
                format!("conv{i}"),
                32,
                49,
                144,
                32 * 49,
                0.45,
                0.3,
                0.55,
                16,
                &mut r,
            )
        })
        .collect();
    let cfg = ArchConfig::duet();
    let energy = EnergyTable::default();
    let _cnn = duet_sim::cnn::run_cnn_with_threads("test", &conv, &cfg, &energy, 4);

    let rnn = RnnLayerTrace::synthetic("lstm", 4, 128, 128, 4, 0.46, &mut r);
    let _rnn = duet_sim::rnn::run_rnn_layer(&rnn, &cfg, &energy, true);

    duet_obs::set_trace_enabled(false);
    let events = duet_obs::event::take_global();
    assert!(!events.is_empty(), "simulation must emit trace events");

    // Every span begin needs a matching end, and the export keeps them all.
    let json = duet_obs::trace::chrome_trace_json(&events);
    assert_eq!(duet_obs::trace::check(&json), Ok(events.len()));
    let parsed = parse(&json).expect("valid trace JSON");
    let list = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    let begins: Vec<(&str, Option<&str>)> = list
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("B"))
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str).expect("name");
            let label = e.get("args").and_then(|a| a.get("label"));
            (name, label.and_then(Value::as_str))
        })
        .collect();
    let count = |name: &str| begins.iter().filter(|b| b.0 == name).count();

    // 3 cnn layer spans + 1 compose span + 1 rnn layer span
    assert_eq!(
        count("sim.cnn.layer"),
        3,
        "one sim.cnn.layer span per conv layer"
    );
    assert!(count("sim.cnn.compose") > 0);
    assert!(count("sim.rnn.layer") > 0);
    // layer spans carry the trace name as their label
    assert!(begins.contains(&("sim.cnn.layer", Some("conv1"))));
}
