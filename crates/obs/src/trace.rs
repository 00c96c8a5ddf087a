//! Span sites and the Chrome trace-event exporter over the flight
//! recorder ring.
//!
//! While tracing is on, every span adds an [`EventKind::SpanBegin`] /
//! [`EventKind::SpanEnd`] pair to the [`crate::event`] ring. The events
//! stay `Copy` by naming their span through a *site id*: the index of
//! the span's `(name, label)` pair in a process-wide intern table.
//! [`chrome_trace_json`] resolves the ids back and serializes the span
//! events in the
//! [Chrome trace-event format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! — a `{"traceEvents": [...]}` object of `ph: "B"`/`ph: "E"` records —
//! which loads directly in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev). Thread ordinals become `tid`
//! tracks, so per-thread GEMM stripes and per-layer simulator spans show
//! up as nested slices per worker. [`check`] holds the rules every
//! exported trace must pass.

use crate::event::{Event, EventKind};
use crate::json::{parse, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};

/// A span's name and optional instance label.
type Site = (&'static str, Option<String>);

/// Every span site seen so far and its id (ids count up from 0 in order
/// of first use). Sites only accumulate, so an id stays valid for the
/// process, and every update leaves the map valid, so a poisoned lock is
/// still safe to use.
static SITES: Mutex<BTreeMap<Site, u64>> = Mutex::new(BTreeMap::new());

/// The site id of `(name, label)`, interning it on first use.
pub(crate) fn site_id(name: &'static str, label: Option<String>) -> u64 {
    let mut sites = SITES.lock().unwrap_or_else(PoisonError::into_inner);
    let next = sites.len() as u64;
    *sites.entry((name, label)).or_insert(next)
}

/// The span events of `events` in export order: sorted by timestamp
/// (stably, so same-timestamp begin/end order is preserved), minus every
/// end whose begin the ring overwrote. An end is kept only when it
/// closes the innermost open span on its `tid`, so the result nests.
pub(crate) fn export_order(events: &[Event]) -> Vec<&Event> {
    let mut spans: Vec<&Event> = events.iter().filter(|e| e.kind.is_span()).collect();
    spans.sort_by_key(|e| e.mono_ns);
    let mut open: HashMap<u64, Vec<u64>> = HashMap::new();
    spans.retain(|e| {
        let stack = open.entry(e.tid).or_default();
        if e.kind == EventKind::SpanBegin {
            stack.push(e.a);
            true
        } else if stack.last() == Some(&e.a) {
            stack.pop();
            true
        } else {
            false
        }
    });
    spans
}

/// Serializes span events (already in [`export_order`]) as a Chrome
/// trace JSON document; `ts` is in microseconds with nanosecond
/// decimals.
pub(crate) fn render(spans: &[&Event]) -> String {
    let sites = SITES.lock().unwrap_or_else(PoisonError::into_inner);
    let mut by_id: Vec<(&u64, &Site)> = sites.iter().map(|(site, id)| (id, site)).collect();
    by_id.sort_unstable_by_key(|&(id, _)| *id);
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    let mut sep = "";
    for e in spans {
        let Some(&(_, (name, label))) = by_id.get(e.a as usize) else {
            continue;
        };
        out.push_str(sep);
        sep = ",\n";
        let ph = if e.kind == EventKind::SpanBegin {
            'B'
        } else {
            'E'
        };
        let us = e.mono_ns / 1_000;
        let frac = e.mono_ns % 1_000;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"duet\",\"ph\":\"{ph}\",\"ts\":{us}.{frac:03},\"pid\":1,\"tid\":{}",
            escape_json(name),
            e.tid
        ));
        out.push_str(&format!(",\"args\":{{\"depth\":{}", e.c));
        if let Some(label) = label {
            out.push_str(&format!(",\"label\":\"{}\"", escape_json(label)));
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Exports the span events of a recorder stream as a Chrome trace JSON
/// document; request events are skipped, and so is every span end whose
/// begin was overwritten by a wrapped ring.
pub fn chrome_trace_json(events: &[Event]) -> String {
    render(&export_order(events))
}

/// Checks a Chrome trace JSON document against the rules every exported
/// trace keeps: it parses, `traceEvents` is a non-empty array, timestamps
/// never decrease, and on every `(pid, tid)` each `E` closes the most
/// recent open `B` of the same name and nothing is left open. Returns the
/// number of events.
pub fn check(text: &str) -> Result<usize, String> {
    let root = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .filter(|list| !list.is_empty())
        .ok_or("traceEvents is missing or empty")?;

    // Per-(pid, tid) stack of open span names; duration events must nest.
    let mut stacks: BTreeMap<(u64, u64), Vec<&str>> = BTreeMap::new();
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let text_at = |key: &str| ev.get(key).and_then(Value::as_str);
        let number_at = |key: &str| ev.get(key).and_then(Value::as_f64);
        let (Some(phase), Some(name), Some(ts)) = (text_at("ph"), text_at("name"), number_at("ts"))
        else {
            return Err(format!("event {i}: missing ph, name or ts"));
        };
        let pid = number_at("pid").unwrap_or(0.0) as u64;
        let tid = number_at("tid").unwrap_or(0.0) as u64;

        if ts < last_ts {
            return Err(format!(
                "event {i}: timestamps not sorted ({ts} < {last_ts})"
            ));
        }
        last_ts = ts;

        let stack = stacks.entry((pid, tid)).or_default();
        match phase {
            "B" => stack.push(name),
            "E" => match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: E \"{name}\" closes open span \"{open}\" on tid {tid}"
                    ))
                }
                None => {
                    return Err(format!(
                        "event {i}: E \"{name}\" with no open span on tid {tid}"
                    ))
                }
            },
            other => return Err(format!("event {i}: unexpected phase \"{other}\"")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "span \"{open}\" on pid {pid} tid {tid} never closed"
            ));
        }
    }
    Ok(events.len())
}

/// Escapes a string for embedding in a JSON literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NO_SCOPE, NO_TENANT};

    fn ev(kind: EventKind, site: u64, mono_ns: u64, depth: u64) -> Event {
        Event {
            mono_ns,
            tid: 3,
            kind,
            request: NO_SCOPE,
            tenant: NO_TENANT,
            a: site,
            b: 0,
            c: depth,
            f: 0.0,
        }
    }

    #[test]
    fn export_sorts_by_time_and_carries_name_label_depth_tid() {
        let outer = site_id("x", Some("conv1".into()));
        assert_eq!(site_id("x", Some("conv1".into())), outer, "interned once");
        let inner = site_id("x", None);
        assert_ne!(inner, outer, "the label is part of the site");
        let events = [
            ev(EventKind::SpanEnd, inner, 1_234_900, 3),
            ev(EventKind::SpanBegin, outer, 1_234_567, 2),
            ev(EventKind::SpanBegin, inner, 1_234_600, 3),
            ev(EventKind::SpanEnd, outer, 1_235_000, 2),
        ];
        let json = chrome_trace_json(&events);
        assert_eq!(check(&json), Ok(4), "sorted and balanced: {json}");
        let doc = parse(&json).expect("valid JSON");
        let first = &doc.get("traceEvents").and_then(Value::as_array).unwrap()[0];
        assert_eq!(first.get("name").and_then(Value::as_str), Some("x"));
        let args = first.get("args").expect("args");
        assert_eq!(args.get("label").and_then(Value::as_str), Some("conv1"));
        assert_eq!(args.get("depth").and_then(Value::as_f64), Some(2.0));
        assert_eq!(first.get("tid").and_then(Value::as_f64), Some(3.0));
        // 1_234_567 ns = 1234.567 µs
        let ts = first.get("ts").and_then(Value::as_f64).unwrap();
        assert!((ts - 1234.567).abs() < 1e-9);
    }

    #[test]
    fn escaping_handles_controls_and_quotes() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
