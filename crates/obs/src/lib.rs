//! # duet-obs
//!
//! Zero-dependency runtime telemetry for the DUET workspace: a global
//! metrics registry (atomic counters, gauges, fixed-bucket histograms)
//! with a plain-text/JSON snapshot exporter, RAII span timers on a
//! monotonic clock, and one flight-recorder ring ([`event`]) that holds
//! both the serving pipeline's request events and the spans' begin/end
//! events. Two exporters split the ring by kind: [`event::to_jsonl`]
//! writes the deterministic request events, and
//! [`trace::chrome_trace_json`] writes the spans as a Chrome trace-event
//! file loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! The whole layer is **off by default** and costs one relaxed atomic
//! load (plus a predictable branch) per instrumentation site when
//! disabled, so the hot kernels can stay instrumented unconditionally.
//! Environment variables switch it on:
//!
//! * `DUET_METRICS=1` — enable the metrics registry; binaries that call
//!   [`export::write_snapshot`] persist a JSON snapshot of every counter,
//!   gauge and histogram.
//! * `DUET_TRACE=out.json` — record spans in the ring; [`finalize`]
//!   writes them to `out.json` in Chrome trace-event format (per-thread
//!   tracks, nested spans).
//! * `DUET_RECORDER=1` — record request events in the ring, which keeps
//!   the most recent `DUET_RECORDER_CAP` events of both kinds.
//!
//! # Instrumenting code
//!
//! ```
//! // a counter (cached static lookup; ~1 relaxed load when disabled)
//! duet_obs::counter!("demo.widgets").add(3);
//!
//! // a span: records a histogram sample and, when tracing, a B/E pair
//! {
//!     let _s = duet_obs::span("demo.phase");
//!     // ... timed work ...
//! }
//!
//! // snapshot (only populated when metrics are enabled)
//! let snap = duet_obs::export::snapshot();
//! println!("{}", snap.to_text());
//! ```
//!
//! Design notes live in `DESIGN.md` §6d and §6h of the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod registry;
pub mod span;
pub mod trace;

pub use registry::{counter, gauge, histogram, Counter, Gauge, Histogram};
pub use span::{span, span_labeled, span_lazy, Span};

use std::sync::atomic::{AtomicU32, Ordering};

/// Bit set once the flag word has been initialized from the environment.
const FLAG_INIT: u32 = 1;
/// Bit: metrics registry enabled.
const FLAG_METRICS: u32 = 2;
/// Bit: span tracing enabled.
const FLAG_TRACE: u32 = 4;
/// Bit: flight recorder ([`event`]) enabled.
const FLAG_RECORDER: u32 = 8;

/// The process-wide telemetry switch word. `0` means "not yet
/// initialized"; after initialization [`FLAG_INIT`] is always set, so the
/// steady-state enabled check is a single relaxed load plus a branch.
static FLAGS: AtomicU32 = AtomicU32::new(0);

#[inline]
fn flags() -> u32 {
    let f = FLAGS.load(Ordering::Relaxed);
    if f == 0 {
        init_flags()
    } else {
        f
    }
}

#[cold]
fn init_flags() -> u32 {
    let mut f = FLAG_INIT;
    if env_truthy("DUET_METRICS") {
        f |= FLAG_METRICS;
    }
    if trace_env_path().is_some() {
        f |= FLAG_TRACE;
    }
    if env_truthy("DUET_RECORDER") {
        f |= FLAG_RECORDER;
    }
    // A concurrent set_*_enabled may have raced us; only install over 0.
    match FLAGS.compare_exchange(0, f, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => f,
        Err(current) => current,
    }
}

fn env_truthy(name: &str) -> bool {
    std::env::var(name)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Whether the metrics registry is recording. Steady state: one relaxed
/// atomic load.
#[inline]
pub fn metrics_enabled() -> bool {
    flags() & FLAG_METRICS != 0
}

/// Whether span tracing is recording. Steady state: one relaxed atomic
/// load.
#[inline]
pub fn trace_enabled() -> bool {
    flags() & FLAG_TRACE != 0
}

/// Whether the flight recorder ([`event`]) is capturing. Steady state:
/// one relaxed atomic load — the entire cost of a disabled
/// [`event::emit`] call site.
#[inline]
pub fn recorder_enabled() -> bool {
    flags() & FLAG_RECORDER != 0
}

/// Whether any telemetry sink is on (metrics or tracing).
#[inline]
pub fn enabled() -> bool {
    flags() & (FLAG_METRICS | FLAG_TRACE) != 0
}

/// Programmatically enables/disables the metrics registry (overrides
/// `DUET_METRICS`). Used by tests and by harnesses that decide at runtime.
pub fn set_metrics_enabled(on: bool) {
    set_flag(FLAG_METRICS, on);
}

/// Programmatically enables/disables span tracing (overrides
/// `DUET_TRACE`). Span events go to the flight-recorder ring
/// ([`event`]), which [`finalize`] exports.
pub fn set_trace_enabled(on: bool) {
    set_flag(FLAG_TRACE, on);
}

/// Programmatically enables/disables the flight recorder (overrides
/// `DUET_RECORDER`). The ring itself is sized once, on first use, from
/// `DUET_RECORDER_CAP`.
pub fn set_recorder_enabled(on: bool) {
    set_flag(FLAG_RECORDER, on);
}

fn set_flag(bit: u32, on: bool) {
    let _ = flags(); // force env init first so we don't lose the other bits
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// The trace output path from `DUET_TRACE`, if set to a usable value.
pub fn trace_env_path() -> Option<String> {
    std::env::var("DUET_TRACE")
        .ok()
        .filter(|v| !v.is_empty() && v != "0")
}

/// Flushes telemetry at the end of a process: if `DUET_TRACE` names a
/// file and the ring holds any span events, writes them there as a
/// Chrome trace and returns `Some((path, event_count))`. Call this once
/// from `main` after the instrumented work; it is a no-op (returning
/// `None`) when tracing is off or nothing was recorded. The ring is left
/// as it is, so request events can still be exported.
pub fn finalize() -> Option<(String, usize)> {
    let path = trace_env_path()?;
    let events = event::snapshot_global();
    let spans = trace::export_order(&events);
    if spans.is_empty() {
        return None;
    }
    std::fs::write(&path, trace::render(&spans)).ok()?;
    Some((path, spans.len()))
}

/// Serializes unit tests that read or toggle the global telemetry flags
/// (the test harness runs tests of one binary concurrently).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_initialize_once() {
        let _g = test_guard();
        // Whatever the environment says, after the first query the INIT
        // bit is set and the answer is stable.
        let a = enabled();
        assert_ne!(FLAGS.load(Ordering::Relaxed) & FLAG_INIT, 0);
        assert_eq!(enabled(), a);
    }

    #[test]
    fn env_truthy_semantics() {
        assert!(!env_truthy("DUET_OBS_TEST_UNSET_VAR"));
    }
}
