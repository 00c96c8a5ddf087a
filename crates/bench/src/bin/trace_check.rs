//! Validates a Chrome trace-event JSON file produced via `DUET_TRACE`.
//!
//! Applies [`duet_obs::trace::check`]: the file parses as JSON (with the
//! in-tree [`duet_obs::json`] parser — no external deps), contains a
//! non-empty `traceEvents` array with sorted timestamps, and every
//! thread's begin/end events form a properly nested stack (each `E`
//! closes the most recent open `B`, and nothing is left open). Exits
//! non-zero with a diagnostic on any violation, so `verify.sh` can gate
//! on it.
//!
//! An optional second argument names a metrics-snapshot JSON (written by
//! [`duet_obs::export::write_snapshot`]); its `health` object is checked
//! and a nonzero `recorder_overflow` prints a warning to stderr — the
//! trace itself can still be well-formed, so this warns rather than
//! fails.
//!
//! Run with: `trace_check <trace.json> [metrics.json]`

use duet_obs::json::{parse, Value};
use std::process::ExitCode;

fn check(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    duet_obs::trace::check(&text).map_err(|e| format!("{path}: {e}"))
}

/// Warns (stderr, still exit 0) when the snapshot's `health` object
/// reports lost telemetry: the trace file can be internally consistent
/// yet incomplete.
fn warn_on_lossy_telemetry(metrics_path: &str) {
    let Ok(text) = std::fs::read_to_string(metrics_path) else {
        eprintln!("trace_check: warning: cannot read {metrics_path}, skipping health check");
        return;
    };
    let Ok(v) = parse(&text) else {
        eprintln!("trace_check: warning: {metrics_path} is not valid JSON, skipping health check");
        return;
    };
    let overflow = v
        .get("health")
        .and_then(|h| h.get("recorder_overflow"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64;
    if overflow > 0 {
        eprintln!(
            "trace_check: warning: {overflow} recorder event(s) overwritten per {metrics_path} — \
             the trace is incomplete; raise DUET_RECORDER_CAP"
        );
    }
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.json> [metrics.json]");
        return ExitCode::FAILURE;
    };
    match check(&path) {
        Ok(n) => {
            println!("trace_check: {path} ok ({n} events, all spans balanced)");
            if let Some(metrics_path) = std::env::args().nth(2) {
                warn_on_lossy_telemetry(&metrics_path);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
