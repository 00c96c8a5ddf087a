//! A ring smaller than the span stream wraps in the middle of spans: the
//! Chrome trace exported from it must still pass the trace rules, and
//! the loss must show in the snapshot's `recorder_overflow`.
//!
//! Sole test in this binary: it sizes the process-global ring through
//! `DUET_RECORDER_CAP` before anything else touches it.

use duet_obs::event::{self, EventKind};
use duet_obs::{export, span, span_labeled, trace};

#[test]
fn wrapped_ring_exports_a_balanced_trace_and_counts_the_loss() {
    const CAP: u64 = 51;
    std::env::set_var("DUET_RECORDER_CAP", CAP.to_string());
    duet_obs::set_trace_enabled(true);
    // 20 outer spans of 8 events each: B, 3 × (B, E), E.
    for i in 0..20 {
        let _outer = span_labeled("wrapped.test.outer", format!("i{i}"));
        for _ in 0..3 {
            let _inner = span("wrapped.test.inner");
        }
    }
    duet_obs::set_trace_enabled(false);
    // A request event shares the ring; the Chrome export skips it.
    duet_obs::set_recorder_enabled(true);
    event::emit(EventKind::Enqueue, 0, 0, 0, 0, 0, 0.0);
    duet_obs::set_recorder_enabled(false);

    assert_eq!(event::emitted(), 161);
    assert_eq!(export::snapshot().recorder_overflow, 161 - CAP);
    let events = event::snapshot_global();
    assert_eq!(events.len() as u64, CAP);
    // The window starts 110 events in: at the inner end and the outer end
    // of outer span 13, whose begins were overwritten.
    assert_eq!(events[0].kind, EventKind::SpanEnd);
    assert_eq!(events[1].kind, EventKind::SpanEnd);

    assert_eq!(
        trace::check(&trace::chrome_trace_json(&events)),
        Ok(48),
        "all but the request event and the two orphaned ends are exported"
    );
}
