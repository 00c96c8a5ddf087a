//! End-to-end telemetry tests: the disabled path stays inert, and an
//! enabled trace session produces valid, balanced Chrome trace JSON from
//! the flight-recorder ring.
//!
//! These tests toggle the process-global telemetry flags, so they
//! serialize through a local mutex (the test harness runs the functions
//! in this binary concurrently).

use duet_obs::json::{parse, Value};
use duet_obs::{event, registry, span, span_labeled, trace};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_path_records_nothing() {
    let _g = guard();
    duet_obs::set_metrics_enabled(false);
    duet_obs::set_trace_enabled(false);
    duet_obs::set_recorder_enabled(false);

    let c = registry::counter("telemetry.test.disabled");
    let h = registry::histogram("telemetry.test.disabled_span");
    let before_events = event::emitted();
    for _ in 0..1000 {
        c.inc();
        let _s = span("telemetry.test.disabled_span");
    }
    assert_eq!(c.get(), 0, "disabled counter must not move");
    assert_eq!(h.count(), 0, "disabled span must not record");
    assert_eq!(
        event::emitted(),
        before_events,
        "disabled span must not emit ring events"
    );
}

#[test]
fn disabled_instrumentation_is_cheap() {
    let _g = guard();
    duet_obs::set_metrics_enabled(false);
    duet_obs::set_trace_enabled(false);

    // Behavioral overhead bound rather than a flaky wall-clock ratio:
    // one disabled counter bump + one disabled span per iteration must
    // sustain well over a million iterations per second even on a busy
    // CI box. 100k iterations in under a second ⇒ <10µs per site, three
    // orders of magnitude above the "single relaxed load" design point
    // but low enough to catch an accidental allocation or lock.
    let c = registry::counter("telemetry.test.overhead");
    let start = std::time::Instant::now();
    for i in 0..100_000u64 {
        c.add(std::hint::black_box(i));
        let s = span("telemetry.test.overhead_span");
        std::hint::black_box(&s);
    }
    let elapsed = start.elapsed();
    assert_eq!(c.get(), 0);
    assert!(
        elapsed.as_secs_f64() < 1.0,
        "100k disabled sites took {elapsed:?}; the off path should be near-free"
    );
}

#[test]
fn trace_session_emits_balanced_valid_json() {
    let _g = guard();
    duet_obs::set_metrics_enabled(false);
    let _ = event::take_global(); // drop stale events from other tests
    duet_obs::set_trace_enabled(true);

    // Nested spans on the main thread plus spans on worker threads.
    {
        let _outer = span_labeled("telemetry.test.outer", "run-0");
        for i in 0..3 {
            let _inner = span_labeled("telemetry.test.inner", format!("step-{i}"));
        }
        std::thread::scope(|scope| {
            for t in 0..2 {
                scope.spawn(move || {
                    let _w = span_labeled("telemetry.test.worker", format!("worker-{t}"));
                    let _n = span("telemetry.test.worker_nested");
                });
            }
        });
    }
    duet_obs::set_trace_enabled(false);

    let events = event::take_global();
    assert_eq!(
        events.len(),
        2 * (1 + 3 + 2 * 2),
        "one B and one E per span"
    );

    // Balanced: per tid track, B/E nest like parentheses with matching
    // names, and every track ends at depth zero.
    let json = trace::chrome_trace_json(&events);
    assert_eq!(trace::check(&json), Ok(events.len()));
    let parsed = parse(&json).expect("chrome trace is valid JSON");
    let list = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let tids: BTreeSet<u64> = list
        .iter()
        .map(|e| e.get("tid").and_then(Value::as_f64).expect("tid") as u64)
        .collect();
    assert!(tids.len() >= 3, "main + 2 workers should use distinct tids");
    // Labels and nesting depths ride along in args.
    let has = |name: &str, label: &str, depth: f64| {
        list.iter().any(|e| {
            let arg = |key: &str| e.get("args").and_then(|a| a.get(key));
            e.get("name").and_then(Value::as_str) == Some(name)
                && arg("label").and_then(Value::as_str) == Some(label)
                && arg("depth").and_then(Value::as_f64) == Some(depth)
        })
    };
    assert!(has("telemetry.test.outer", "run-0", 0.0));
    assert!(has("telemetry.test.inner", "step-2", 1.0));
    assert!(has("telemetry.test.worker", "worker-1", 0.0));
}

#[test]
fn metrics_session_snapshot_contains_recorded_values() {
    let _g = guard();
    duet_obs::set_metrics_enabled(true);
    registry::counter("telemetry.test.enabled_counter").add(5);
    registry::gauge("telemetry.test.enabled_gauge").set_max(11);
    {
        let _s = span("telemetry.test.enabled_span");
    }
    duet_obs::set_metrics_enabled(false);

    let snap = duet_obs::export::snapshot();
    assert_eq!(snap.counter("telemetry.test.enabled_counter"), Some(5));
    assert_eq!(snap.gauge("telemetry.test.enabled_gauge"), Some(11));
    let h = snap
        .histogram("telemetry.test.enabled_span")
        .expect("span histogram");
    assert_eq!(h.count, 1);
    assert!(parse(&snap.to_json()).is_ok(), "snapshot JSON must parse");
}
