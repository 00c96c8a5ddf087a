//! RAII span timers on a monotonic clock.
//!
//! A [`Span`] measures the wall-clock interval between its creation and
//! its drop. When metrics are enabled the duration lands in the histogram
//! registered under the span's name (nanoseconds); when tracing is
//! enabled a begin/end event pair lands in the flight-recorder ring
//! ([`crate::event`]), tagged with a small dense thread id and the span's
//! nesting depth on that thread, so nested spans render hierarchically
//! per thread track in `chrome://tracing` / Perfetto.
//!
//! When both sinks are off, creating a span is a flag check that returns
//! an inert guard — no clock read, no allocation, no atomics beyond the
//! single relaxed flag load.

use crate::event::{self, Event, EventKind, NO_SCOPE, NO_TENANT};
use crate::trace;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide monotonic epoch: all span timestamps are nanoseconds
/// since the first telemetry clock read in the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process telemetry epoch.
#[inline]
pub fn monotonic_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Small dense id of the calling thread (0 for the first thread that asks,
/// 1 for the next, …) — stable for the thread's lifetime and friendlier
/// for trace tracks than the opaque `std::thread::ThreadId`.
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|&id| id)
}

thread_local! {
    /// Per-thread span nesting depth (top-level span = depth 0).
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// An RAII span guard; records on drop. Construct via [`span`] /
/// [`span_labeled`].
#[derive(Debug)]
#[must_use = "a span measures the interval until it is dropped"]
pub struct Span {
    /// `None` when telemetry was off at creation (fully inert guard).
    armed: Option<SpanData>,
}

#[derive(Debug)]
struct SpanData {
    name: &'static str,
    start_ns: u64,
    to_metrics: bool,
    /// Site id of the span's name and label, when tracing was on at open.
    site: Option<u64>,
    /// Thread ordinal captured at open. `Span` is `Send`, so the end
    /// event must reuse this tid — emitting it from the dropping thread
    /// would split the B/E pair across trace tracks and unbalance them.
    tid: u64,
    depth: u32,
}

impl SpanData {
    /// Stores this span's begin or end event, stamped `ts`, in the ring.
    fn record(&self, kind: EventKind, site: u64, ts: u64) {
        event::record(Event {
            mono_ns: ts,
            tid: self.tid,
            kind,
            request: NO_SCOPE,
            tenant: NO_TENANT,
            a: site,
            b: 0,
            c: u64::from(self.depth),
            f: 0.0,
        });
    }
}

/// Opens a span named `name` (also the histogram key for its duration).
#[inline]
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Opens a span with a free-form instance label (e.g. a layer name); the
/// label rides along in the trace event `args`, not in the metric key.
#[inline]
pub fn span_labeled(name: &'static str, label: impl Into<String>) -> Span {
    open(name, Some(label.into()))
}

/// Like [`span_labeled`], but computes the label lazily so a disabled
/// process never pays for the `format!` — the idiom for labels on hot
/// paths.
#[inline]
pub fn span_lazy<F, S>(name: &'static str, label: F) -> Span
where
    F: FnOnce() -> S,
    S: Into<String>,
{
    if !crate::enabled() {
        return Span { armed: None };
    }
    open(name, Some(label().into()))
}

fn open(name: &'static str, label: Option<String>) -> Span {
    let to_metrics = crate::metrics_enabled();
    let to_trace = crate::trace_enabled();
    if !to_metrics && !to_trace {
        return Span { armed: None };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let site = to_trace.then(|| trace::site_id(name, label));
    let data = SpanData {
        name,
        to_metrics,
        site,
        tid: thread_ordinal(),
        depth,
        start_ns: monotonic_ns(),
    };
    if let Some(site) = site {
        data.record(EventKind::SpanBegin, site, data.start_ns);
    }
    Span { armed: Some(data) }
}

impl Span {
    /// Nanoseconds elapsed so far (0 for an inert guard).
    pub fn elapsed_ns(&self) -> u64 {
        self.armed
            .as_ref()
            .map_or(0, |d| monotonic_ns().saturating_sub(d.start_ns))
    }

    /// Whether this guard is actually recording.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.armed.take() else {
            return;
        };
        let end_ns = monotonic_ns();
        // Depth is a per-thread cosmetic hint; for the rare span dropped
        // on a different thread than it opened on, this decrements the
        // dropping thread's counter (saturating), which keeps every
        // counter bounded without cross-thread bookkeeping.
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if data.to_metrics {
            crate::registry::histogram(data.name).record(end_ns.saturating_sub(data.start_ns));
        }
        if let Some(site) = data.site {
            data.record(EventKind::SpanEnd, site, end_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let _g = crate::test_guard();
        crate::set_metrics_enabled(false);
        crate::set_trace_enabled(false);
        let s = span("obs.test.inert_span");
        assert!(!s.is_armed());
        assert_eq!(s.elapsed_ns(), 0);
        drop(s);
        assert_eq!(crate::registry::histogram("obs.test.inert_span").count(), 0);
    }

    #[test]
    fn metrics_span_records_duration_histogram() {
        let _g = crate::test_guard();
        crate::set_metrics_enabled(true);
        let before = crate::registry::histogram("obs.test.timed_span").count();
        {
            let s = span("obs.test.timed_span");
            assert!(s.is_armed());
            std::hint::black_box(1 + 1);
        }
        crate::set_metrics_enabled(false);
        let h = crate::registry::histogram("obs.test.timed_span");
        assert_eq!(h.count(), before + 1);
    }

    #[test]
    fn nesting_depth_restores() {
        let _g = crate::test_guard();
        crate::set_metrics_enabled(true);
        {
            let _a = span("obs.test.outer");
            let inner_depth = DEPTH.with(|d| d.get());
            assert_eq!(inner_depth, 1);
            {
                let _b = span("obs.test.inner");
                assert_eq!(DEPTH.with(|d| d.get()), 2);
            }
            assert_eq!(DEPTH.with(|d| d.get()), 1);
        }
        crate::set_metrics_enabled(false);
        assert_eq!(DEPTH.with(|d| d.get()), 0);
    }

    #[test]
    fn thread_ordinals_are_distinct() {
        let here = thread_ordinal();
        let there = std::thread::spawn(thread_ordinal).join().expect("join");
        assert_ne!(here, there);
        assert_eq!(here, thread_ordinal(), "ordinal is stable per thread");
    }

    #[test]
    fn lazy_label_skipped_when_disabled() {
        let _g = crate::test_guard();
        crate::set_metrics_enabled(false);
        crate::set_trace_enabled(false);
        let s = span_lazy("obs.test.lazy", || -> String { panic!("must stay lazy") });
        assert!(!s.is_armed());
        crate::set_metrics_enabled(true);
        let s = span_lazy("obs.test.lazy", || "now".to_string());
        assert!(s.is_armed());
        drop(s);
        crate::set_metrics_enabled(false);
    }

    #[test]
    fn span_moved_across_threads_keeps_opening_tid() {
        let _g = crate::test_guard();
        crate::set_metrics_enabled(false);
        crate::set_trace_enabled(true);
        drop(crate::event::take_global()); // clear residue from other tests
        let s = span("obs.test.moved_span");
        let opened_on = thread_ordinal();
        std::thread::spawn(move || drop(s)).join().expect("join");
        crate::set_trace_enabled(false);
        let events = crate::event::take_global();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SpanBegin);
        assert_eq!(events[1].kind, EventKind::SpanEnd);
        assert_eq!(
            events[0].tid, opened_on,
            "begin event carries the opening thread's tid"
        );
        assert_eq!(
            events[1].tid, opened_on,
            "end event must reuse the opening tid, not the dropping thread's"
        );
    }

    #[test]
    fn monotonic_clock_moves_forward() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }
}
