//! Flight-recorder edge cases: degenerate capacities, exact-wrap
//! accounting, concurrent writers, and span interaction.
//!
//! Everything except `global_recorder_spans_and_gating` uses a local
//! [`Recorder`], so the tests are independent of process-global state;
//! the one global test does all its global work inside a single `#[test]`
//! to avoid cross-test races on the shared ring.

use duet_obs::event::{self, canonical_sort, Event, EventKind, Recorder, NO_SCOPE, NO_TENANT};
use std::sync::Arc;

fn ev(request: u64, a: u64) -> Event {
    Event {
        mono_ns: 0,
        tid: 0,
        kind: EventKind::Enqueue,
        request,
        tenant: 0,
        a,
        b: 0,
        c: 0,
        f: 0.0,
    }
}

#[test]
fn capacity_zero_counts_but_stores_nothing() {
    let r = Recorder::with_capacity(0);
    assert_eq!(r.capacity(), 0);
    for i in 0..100 {
        r.emit(ev(i, i));
    }
    assert_eq!(r.emitted(), 100);
    assert_eq!(r.overflow(), 100, "with no slots every event overflows");
    assert!(r.snapshot().is_empty());
    assert!(r.take().is_empty());
    assert_eq!(r.emitted(), 0, "take resets accounting even at cap 0");
}

#[test]
fn capacity_one_keeps_only_the_latest_event() {
    let r = Recorder::with_capacity(1);
    r.emit(ev(1, 10));
    assert_eq!(r.overflow(), 0);
    let snap = r.snapshot();
    assert_eq!(snap.len(), 1);
    assert_eq!(snap[0].request, 1);
    r.emit(ev(2, 20));
    r.emit(ev(3, 30));
    assert_eq!(r.emitted(), 3);
    assert_eq!(r.overflow(), 2);
    let snap = r.snapshot();
    assert_eq!(snap.len(), 1);
    assert_eq!(snap[0].request, 3, "ring keeps the most recent event");
}

#[test]
fn exact_wrap_accounts_overflow_precisely() {
    let cap = 4;
    let r = Recorder::with_capacity(cap);
    // Fill exactly to capacity: no overflow yet.
    for i in 0..cap as u64 {
        r.emit(ev(i, i));
    }
    assert_eq!(r.overflow(), 0);
    assert_eq!(
        r.snapshot().iter().map(|e| e.request).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    // One full extra revolution: exactly cap events overwritten.
    for i in cap as u64..2 * cap as u64 {
        r.emit(ev(i, i));
    }
    assert_eq!(r.emitted(), 2 * cap as u64);
    assert_eq!(r.overflow(), cap as u64);
    assert_eq!(
        r.snapshot().iter().map(|e| e.request).collect::<Vec<_>>(),
        vec![4, 5, 6, 7],
        "snapshot is oldest→newest after an exact wrap"
    );
    // One more event tips the window by one.
    r.emit(ev(8, 8));
    assert_eq!(r.overflow(), cap as u64 + 1);
    assert_eq!(
        r.snapshot().iter().map(|e| e.request).collect::<Vec<_>>(),
        vec![5, 6, 7, 8]
    );
}

#[test]
fn seven_concurrent_writers_sort_deterministically() {
    const THREADS: u64 = 7;
    const PER_THREAD: u64 = 200;
    let r = Arc::new(Recorder::with_capacity((THREADS * PER_THREAD) as usize));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let r = Arc::clone(&r);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Unique (request, a) pair per event → total order
                    // under canonical_sort regardless of interleaving.
                    r.emit(ev(t * PER_THREAD + i, t));
                }
            });
        }
    });
    assert_eq!(r.emitted(), THREADS * PER_THREAD);
    assert_eq!(r.overflow(), 0, "ring was sized for the full run");
    let mut events = r.take();
    assert_eq!(events.len(), (THREADS * PER_THREAD) as usize);
    canonical_sort(&mut events);
    let ids: Vec<u64> = events.iter().map(|e| e.request).collect();
    let expected: Vec<u64> = (0..THREADS * PER_THREAD).collect();
    assert_eq!(ids, expected, "post-sort order is the same every run");
    // The deterministic export must therefore be byte-stable too.
    let jsonl = event::to_jsonl(&events);
    let reparsed = event::parse_jsonl(&jsonl).unwrap();
    assert_eq!(reparsed.len(), events.len());
}

#[test]
fn global_recorder_spans_and_gating() {
    // Single test owns all process-global recorder state.
    duet_obs::set_recorder_enabled(false);
    event::emit(EventKind::Enqueue, 1, 0, 0, 0, 0, 0.0);
    assert_eq!(event::emitted(), 0, "disabled recorder must not count");

    duet_obs::set_recorder_enabled(true);
    // An event emitted inside a span carries the same thread ordinal the
    // span subsystem assigns this thread, so recorder events and trace
    // spans can be correlated per-thread.
    let span = duet_obs::span("obs.test.recorder_span");
    event::emit(EventKind::Enqueue, 42, 7, 1, 2, 3, 0.5);
    drop(span);
    let my_tid = duet_obs::span::thread_ordinal();
    duet_obs::set_recorder_enabled(false);

    let events = event::take_global();
    let e = events
        .iter()
        .find(|e| e.request == 42)
        .expect("event recorded while enabled");
    assert_eq!(e.tid, my_tid, "event tid matches the span thread ordinal");
    assert_eq!(e.tenant, 7);
    assert_eq!((e.a, e.b, e.c), (1, 2, 3));

    // Scoped emission attributes the installed (request, tenant).
    duet_obs::set_recorder_enabled(true);
    {
        let _scope = event::scoped(99, 5);
        event::emit_scoped(EventKind::EngineFinish, 10, 20, 30, 1.5);
    }
    event::emit_scoped(EventKind::EngineFinish, 0, 0, 0, 0.0);
    duet_obs::set_recorder_enabled(false);
    let events = event::take_global();
    let scoped = events.iter().find(|e| e.request == 99).unwrap();
    assert_eq!(scoped.tenant, 5);
    assert_eq!(scoped.a, 10);
    let unscoped = events.iter().find(|e| e.request == NO_SCOPE).unwrap();
    assert_eq!(unscoped.tenant, NO_TENANT);
}
