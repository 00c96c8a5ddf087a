//! The flight recorder: a fixed-capacity, lock-light ring buffer of
//! typed wide events — the one event buffer of this crate.
//!
//! Where metrics answer "how long did this phase take, in aggregate",
//! the ring answers "what happened, in order". While the recorder is on
//! ([`crate::recorder_enabled`]) every hop of the serving pipeline
//! (enqueue, admit, batch-seal, execute, guard transition, respond) drops
//! one request [`Event`], which [`to_jsonl`] exports; while tracing is on
//! every [`crate::span()`] adds a [`EventKind::SpanBegin`] /
//! [`EventKind::SpanEnd`] pair, which [`crate::trace::chrome_trace_json`]
//! exports. The write path is cheap enough to leave on in production —
//! one relaxed `fetch_add` to claim a slot plus one uncontended per-slot
//! lock to store the payload — and a disabled emission costs exactly one
//! relaxed atomic load.
//!
//! The ring **never blocks**: when full it wraps, overwriting the oldest
//! events of either kind (flight-recorder semantics — the most recent
//! window survives) and counting the overwritten events in [`overflow`].
//! Capacity comes from `DUET_RECORDER_CAP` (default [`DEFAULT_CAP`]).
//!
//! # Determinism
//!
//! Request-event *payloads* in this workspace are pure functions of the
//! seeded workload (virtual ticks, MAC counts, switch rates), but
//! emission *order* from parallel workers is not. [`canonical_sort`]
//! orders a drained stream by `(request, kind, payload)` — every
//! deterministic field and none of the wall-clock ones — after which a
//! seeded replay is byte-identical at any `DUET_NUM_THREADS` when
//! exported with [`to_jsonl`], which omits `mono_ns`, the thread ordinal
//! and the span events.

use crate::span::{monotonic_ns, thread_ordinal};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default ring capacity when `DUET_RECORDER_CAP` is unset: 2^18 events
/// (~24 MiB), comfortably above a full traced `serve_bench` run.
pub const DEFAULT_CAP: usize = 262_144;

/// What an event records. Discriminants are the *causal stage order* of
/// one request's journey, so sorting a request's events by kind yields
/// the pipeline order: enqueue → admit → batch-seal → execute start →
/// execute end → respond. The batch-/tenant-scoped kinds (guard
/// transitions, admission-level changes, engine accounting) interleave
/// by their own scope ids. The two span kinds come last and carry no
/// scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Request entered its model queue. `a` = arrival tick, `b` = total
    /// queue depth after the push, `c` = model index.
    Enqueue = 0,
    /// Admission decision at enqueue (never rejects). `a` = tick,
    /// `b` = tenant's degradation level at admit time.
    Admit = 1,
    /// The request's batch became releasable. `a` = seal tick (clamped
    /// to the request's own arrival), `b` = batch id, `c` = occupancy.
    BatchSeal = 2,
    /// The batch started executing on a replica. `a` = start tick,
    /// `b` = batch id, `c` = degradation level applied.
    ExecStart = 3,
    /// A guard tripped (batch scope). `a` = tick, `b` = replica index,
    /// `c` = 1 when caused by a non-finite output, `f` = guard EWMA
    /// (−1.0 when the guard has no finite observation yet — fractions
    /// live in [0, 1], so "no signal" is never conflated with a 0.0
    /// switch rate).
    GuardTrip = 4,
    /// A tripped guard cleared (batch scope). `a` = tick,
    /// `b` = replica index, `f` = guard EWMA (−1.0 when no signal yet).
    GuardClear = 5,
    /// A tenant's admission level changed (tenant scope). `a` = tick,
    /// `b` = new level, `c` = old level.
    AdmissionLevel = 6,
    /// One `SpeculationEngine` invocation closed (current scope).
    /// `a` = executor MACs, `b` = speculator MACs, `c` = exact outputs,
    /// `f` = switch rate in basis points.
    EngineFinish = 7,
    /// Batch-level execution accounting (batch scope). `a` = start
    /// tick, `b` = executor MACs, `c` = speculator MACs, `f` = switch
    /// rate in basis points.
    BatchExec = 8,
    /// The batch holding the request completed. `a` = completion tick,
    /// `b` = batch id, `c` = 1 when served bitwise-dense.
    ExecEnd = 9,
    /// The response left the server. `a` = completion tick,
    /// `b` = end-to-end latency in ticks, `c` = degradation level.
    Respond = 10,
    /// One θ-controller update (batch scope). `a` = tick, `b` = replica
    /// index, `c` = θ in milli-units as two's-complement `i64`,
    /// `f` = setpoint error (setpoint − EWMA). The per-batch stream of
    /// these events is the controller's θ trajectory.
    ControlUpdate = 11,
    /// A span opened while tracing (wall-clock, no scope). `a` = span
    /// site id (its interned name and label, see [`crate::trace`]),
    /// `c` = nesting depth on the opening thread.
    SpanBegin = 12,
    /// A span closed. Same payload as its [`EventKind::SpanBegin`], and
    /// the opening thread's `tid` even when the guard was dropped on
    /// another thread.
    SpanEnd = 13,
}

/// Every kind, in discriminant order.
pub const KINDS: [EventKind; 14] = [
    EventKind::Enqueue,
    EventKind::Admit,
    EventKind::BatchSeal,
    EventKind::ExecStart,
    EventKind::GuardTrip,
    EventKind::GuardClear,
    EventKind::AdmissionLevel,
    EventKind::EngineFinish,
    EventKind::BatchExec,
    EventKind::ExecEnd,
    EventKind::Respond,
    EventKind::ControlUpdate,
    EventKind::SpanBegin,
    EventKind::SpanEnd,
];

impl EventKind {
    /// Stable lowercase name (the JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Admit => "admit",
            EventKind::BatchSeal => "batch_seal",
            EventKind::ExecStart => "exec_start",
            EventKind::GuardTrip => "guard_trip",
            EventKind::GuardClear => "guard_clear",
            EventKind::AdmissionLevel => "admission_level",
            EventKind::EngineFinish => "engine_finish",
            EventKind::BatchExec => "batch_exec",
            EventKind::ExecEnd => "exec_end",
            EventKind::Respond => "respond",
            EventKind::ControlUpdate => "control_update",
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        KINDS.iter().copied().find(|k| k.name() == name)
    }

    /// Whether this is a span kind: a wall-clock record that the Chrome
    /// trace exports and [`to_jsonl`] skips.
    pub(crate) fn is_span(self) -> bool {
        matches!(self, EventKind::SpanBegin | EventKind::SpanEnd)
    }
}

/// Scope id meaning "no request/batch scope" (e.g. tenant-level events).
pub const NO_SCOPE: u64 = u64::MAX;
/// Tenant id meaning "no tenant".
pub const NO_TENANT: u32 = u32::MAX;
/// Tag bit separating batch scope ids from request ids in the `request`
/// field: batch-level events carry `BATCH_SCOPE | batch_id` (request ids
/// are sequential and never reach bit 63).
pub const BATCH_SCOPE: u64 = 1 << 63;

/// One wide event. Two wall-clock fields (`mono_ns`, `tid`) plus a
/// remainder that is deterministic for request events; [`to_jsonl`]
/// drops the former.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Monotonic nanoseconds since the process telemetry epoch.
    pub mono_ns: u64,
    /// Dense ordinal of the emitting thread ([`thread_ordinal`]).
    pub tid: u64,
    /// What happened.
    pub kind: EventKind,
    /// Request id, batch scope id, or [`NO_SCOPE`].
    pub request: u64,
    /// Tenant index or [`NO_TENANT`].
    pub tenant: u32,
    /// First payload word (usually a virtual tick).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
    /// Floating payload (rates, EWMAs); `0.0` when unused.
    pub f: f64,
}

// Spans share the ring's slots with request events; neither may grow them.
const _: () = assert!(std::mem::size_of::<Event>() <= 64);

/// A fixed-capacity wrapping ring of events.
///
/// Writers claim a logical slot with one relaxed `fetch_add` and store
/// the payload under that slot's own mutex — uncontended unless two
/// writers collide on the same physical slot a full wrap apart, so the
/// steady-state cost is one atomic RMW plus one uncontended lock.
/// Capacity 0 is legal: every emission is counted (and counts as
/// overflow), nothing is stored.
#[derive(Debug)]
pub struct Recorder {
    slots: Vec<Mutex<Option<Event>>>,
    next: AtomicU64,
}

impl Recorder {
    /// Creates a ring holding at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever emitted (including overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Events lost to wrapping: everything emitted beyond capacity. The
    /// ring keeps the most recent `capacity()` events.
    pub fn overflow(&self) -> u64 {
        self.emitted().saturating_sub(self.capacity() as u64)
    }

    /// Stores one event (never blocks; wraps when full).
    pub fn emit(&self, e: Event) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len();
        if cap == 0 {
            return;
        }
        let slot = &self.slots[(i % cap as u64) as usize];
        *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
    }

    /// Copies the retained events, oldest first. Call after the
    /// instrumented work quiesces — a concurrent emitter can still be
    /// mid-wrap, in which case its slot shows the older event.
    pub fn snapshot(&self) -> Vec<Event> {
        let emitted = self.emitted();
        let cap = self.slots.len() as u64;
        if cap == 0 || emitted == 0 {
            return Vec::new();
        }
        let kept = emitted.min(cap);
        let start = if emitted <= cap { 0 } else { emitted % cap };
        let mut out = Vec::with_capacity(kept as usize);
        for k in 0..kept {
            let idx = ((start + k) % cap) as usize;
            if let Some(e) = *self.slots[idx].lock().unwrap_or_else(|p| p.into_inner()) {
                out.push(e);
            }
        }
        out
    }

    /// Drains the ring: returns [`Recorder::snapshot`] and resets the
    /// ring (including the overflow accounting) to empty.
    pub fn take(&self) -> Vec<Event> {
        let out = self.snapshot();
        for slot in &self.slots {
            *slot.lock().unwrap_or_else(|p| p.into_inner()) = None;
        }
        self.next.store(0, Ordering::Relaxed);
        out
    }
}

/// The process-wide recorder, sized from `DUET_RECORDER_CAP` on first
/// use (default [`DEFAULT_CAP`]; invalid values fall back to the
/// default).
fn global() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| {
        let cap = std::env::var("DUET_RECORDER_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAP);
        Recorder::with_capacity(cap)
    })
}

thread_local! {
    /// Current (request-or-batch, tenant) attribution for events emitted
    /// by code that has no request context of its own (the engine).
    static SCOPE: Cell<(u64, u32)> = const { Cell::new((NO_SCOPE, NO_TENANT)) };
}

/// RAII guard restoring the previous scope on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    prev: (u64, u32),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

/// Attributes recorder events emitted on this thread (by call sites
/// that use [`emit_scoped`], e.g. the speculation engine) to
/// `(request, tenant)` until the guard drops.
pub fn scoped(request: u64, tenant: u32) -> ScopeGuard {
    let prev = SCOPE.with(|s| s.replace((request, tenant)));
    ScopeGuard { prev }
}

/// The scope installed by the innermost live [`scoped`] guard.
pub fn current_scope() -> (u64, u32) {
    SCOPE.with(|s| s.get())
}

/// Stores one event in the global ring whatever the recorder flag says:
/// span events gate on the trace flag instead.
pub(crate) fn record(e: Event) {
    global().emit(e);
}

/// Emits one event into the global recorder. Disabled path: one relaxed
/// atomic load (the [`crate::recorder_enabled`] flag), nothing else.
#[inline]
pub fn emit(kind: EventKind, request: u64, tenant: u32, a: u64, b: u64, c: u64, f: f64) {
    if !crate::recorder_enabled() {
        return;
    }
    record(Event {
        mono_ns: monotonic_ns(),
        tid: thread_ordinal(),
        kind,
        request,
        tenant,
        a,
        b,
        c,
        f,
    });
}

/// [`emit`] with the thread's current scope as `(request, tenant)` —
/// the hook shape used inside the engine, which does not know which
/// request (or batch) it is serving.
#[inline]
pub fn emit_scoped(kind: EventKind, a: u64, b: u64, c: u64, f: f64) {
    if !crate::recorder_enabled() {
        return;
    }
    let (request, tenant) = current_scope();
    emit(kind, request, tenant, a, b, c, f);
}

/// Retained events of the global recorder, oldest first.
pub fn snapshot_global() -> Vec<Event> {
    global().snapshot()
}

/// Drains the global recorder (events + overflow accounting).
pub fn take_global() -> Vec<Event> {
    global().take()
}

/// Events lost to wrapping in the global recorder so far.
pub fn overflow() -> u64 {
    global().overflow()
}

/// Total events ever emitted into the global recorder.
pub fn emitted() -> u64 {
    global().emitted()
}

/// Sorts events by every deterministic field — `(request, kind, tenant,
/// a, b, c, f-bits)` — and none of the wall-clock ones. Two runs of a
/// seeded workload produce the same *multiset* of deterministic fields,
/// so the sorted stream (exported with [`to_jsonl`]) is byte-identical
/// regardless of thread interleaving.
pub fn canonical_sort(events: &mut [Event]) {
    events.sort_by_key(|e| {
        (
            e.request,
            e.kind as u8,
            e.tenant,
            e.a,
            e.b,
            e.c,
            e.f.to_bits(),
        )
    });
}

fn push_f64(out: &mut String, v: f64) {
    // Shortest-roundtrip formatting; JSON has no NaN/Inf, clamp to null.
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Serializes the request events as JSON Lines, one object per event,
/// skipping span events and omitting the wall-clock fields (`mono_ns`,
/// `tid`), so a canonically sorted stream diffs byte-identically across
/// runs and thread counts.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events.iter().filter(|e| !e.kind.is_span()) {
        out.push_str(&format!(
            "{{\"kind\":\"{}\",\"request\":{},\"tenant\":{},\"a\":{},\"b\":{},\"c\":{},\"f\":",
            e.kind.name(),
            e.request,
            e.tenant,
            e.a,
            e.b,
            e.c
        ));
        push_f64(&mut out, e.f);
        out.push_str("}\n");
    }
    out
}

/// Parses a JSON Lines stream produced by [`to_jsonl`]; the wall-clock
/// fields it omits decode as 0.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = crate::json::parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        let kind_name = v
            .get("kind")
            .and_then(crate::json::Value::as_str)
            .ok_or_else(|| format!("line {}: missing kind", ln + 1))?;
        let kind = EventKind::from_name(kind_name)
            .ok_or_else(|| format!("line {}: unknown kind \"{kind_name}\"", ln + 1))?;
        let required = |key: &str| -> Result<u64, String> {
            v.get(key)
                .ok_or_else(|| format!("line {}: missing {key}", ln + 1))?
                .as_u64()
                .ok_or_else(|| format!("line {}: {key} is not an integer in u64", ln + 1))
        };
        let tenant = u32::try_from(required("tenant")?)
            .map_err(|_| format!("line {}: tenant is not an integer in u32", ln + 1))?;
        out.push(Event {
            mono_ns: 0,
            tid: 0,
            kind,
            request: required("request")?,
            tenant,
            a: required("a")?,
            b: required("b")?,
            c: required("c")?,
            f: v.get("f")
                .and_then(crate::json::Value::as_f64)
                .unwrap_or(0.0),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, request: u64, a: u64) -> Event {
        Event {
            mono_ns: 7,
            tid: 3,
            kind,
            request,
            tenant: 0,
            a,
            b: 0,
            c: 0,
            f: 0.5,
        }
    }

    #[test]
    fn kind_names_roundtrip() {
        for (i, k) in KINDS.into_iter().enumerate() {
            assert_eq!(k as usize, i, "KINDS is in discriminant order");
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }

    #[test]
    fn ring_wraps_and_counts_overflow() {
        let r = Recorder::with_capacity(3);
        for i in 0..5 {
            r.emit(ev(EventKind::Enqueue, i, i));
        }
        assert_eq!(r.emitted(), 5);
        assert_eq!(r.overflow(), 2);
        let kept: Vec<u64> = r.snapshot().iter().map(|e| e.request).collect();
        assert_eq!(kept, [2, 3, 4], "most recent window survives");
    }

    #[test]
    fn take_resets_ring_and_accounting() {
        let r = Recorder::with_capacity(2);
        r.emit(ev(EventKind::Enqueue, 1, 0));
        r.emit(ev(EventKind::Respond, 1, 0));
        r.emit(ev(EventKind::Enqueue, 2, 0));
        assert_eq!(r.take().len(), 2);
        assert_eq!(r.emitted(), 0);
        assert_eq!(r.overflow(), 0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn canonical_sort_orders_request_then_stage() {
        let mut events = vec![
            ev(EventKind::Respond, 2, 9),
            ev(EventKind::Enqueue, 2, 1),
            ev(EventKind::Respond, 1, 8),
            ev(EventKind::Enqueue, 1, 0),
        ];
        canonical_sort(&mut events);
        let key: Vec<(u64, EventKind)> = events.iter().map(|e| (e.request, e.kind)).collect();
        assert_eq!(
            key,
            [
                (1, EventKind::Enqueue),
                (1, EventKind::Respond),
                (2, EventKind::Enqueue),
                (2, EventKind::Respond),
            ]
        );
    }

    #[test]
    fn jsonl_roundtrips_request_events_and_skips_spans() {
        let events = vec![
            ev(EventKind::BatchSeal, 42, 17),
            ev(EventKind::SpanBegin, NO_SCOPE, 3),
            ev(EventKind::Respond, 42, 20),
            ev(EventKind::SpanEnd, NO_SCOPE, 3),
        ];
        let text = to_jsonl(&events);
        assert!(!text.contains("span"), "span events stay out: {text}");
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].kind, EventKind::BatchSeal);
        assert_eq!(parsed[0].request, 42);
        assert_eq!(parsed[0].a, 17);
        assert_eq!(parsed[0].f, 0.5);
        assert_eq!(
            (parsed[0].mono_ns, parsed[0].tid),
            (0, 0),
            "wall clock omitted"
        );
        assert_eq!(parsed[1].kind, EventKind::Respond);
    }

    #[test]
    fn jsonl_integers_roundtrip_exactly() {
        // Above 2^53 an f64 would round these to a multiple of 2048.
        let mut e = ev(EventKind::BatchExec, BATCH_SCOPE | 12345, u64::MAX - 1);
        (e.mono_ns, e.tid, e.tenant, e.b, e.c) = (0, 0, u32::MAX, (1 << 53) + 1, u64::MAX);
        let parsed = parse_jsonl(&to_jsonl(&[e])).expect("parses");
        assert_eq!(parsed, [e]);
    }

    #[test]
    fn jsonl_rejects_inexact_integer_fields() {
        let line = |request: &str, tenant: &str| {
            format!(
                "{{\"kind\":\"respond\",\"request\":{request},\"tenant\":{tenant},\"a\":1,\"b\":2,\"c\":3,\"f\":0}}"
            )
        };
        assert!(parse_jsonl(&line("7", "1")).is_ok());
        for (request, tenant) in [
            ("7.5", "1"),
            ("-7", "1"),
            ("7e0", "1"),
            ("18446744073709551616", "1"),
            ("7", "4294967296"),
            ("7", "1.0"),
        ] {
            let err = parse_jsonl(&line(request, tenant)).expect_err(request);
            assert!(err.contains("not an integer"), "{err}");
        }
    }

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current_scope(), (NO_SCOPE, NO_TENANT));
        {
            let _outer = scoped(5, 1);
            assert_eq!(current_scope(), (5, 1));
            {
                let _inner = scoped(6, 2);
                assert_eq!(current_scope(), (6, 2));
            }
            assert_eq!(current_scope(), (5, 1));
        }
        assert_eq!(current_scope(), (NO_SCOPE, NO_TENANT));
    }
}
