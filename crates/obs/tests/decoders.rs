//! Decoder sweep: every prefix and every single-byte corruption of a
//! small, realistic document must decode to `Ok` or a typed `Err` —
//! never a panic. Covers [`event::parse_jsonl`] on a stream shaped like
//! a serving run, and [`duet_obs::json::parse`] on a Chrome trace from
//! the ring exporter.

use duet_obs::{event, json, span, span_labeled, trace};

/// Lines from the canonical stream of a `serve_bench --smoke` run: two
/// request journeys, batch-scoped engine accounting, and tenant-level
/// admission changes.
const SERVE_JSONL: &str = r#"{"kind":"enqueue","request":0,"tenant":0,"a":3,"b":1,"c":2,"f":0}
{"kind":"admit","request":0,"tenant":0,"a":3,"b":0,"c":0,"f":0}
{"kind":"batch_seal","request":0,"tenant":0,"a":11,"b":0,"c":1,"f":0}
{"kind":"exec_start","request":0,"tenant":0,"a":11,"b":0,"c":0,"f":0}
{"kind":"exec_end","request":0,"tenant":0,"a":23,"b":0,"c":0,"f":0}
{"kind":"respond","request":0,"tenant":0,"a":23,"b":20,"c":0,"f":0}
{"kind":"enqueue","request":1,"tenant":1,"a":4,"b":2,"c":1,"f":0}
{"kind":"admit","request":1,"tenant":1,"a":4,"b":0,"c":0,"f":0}
{"kind":"batch_seal","request":1,"tenant":1,"a":12,"b":1,"c":4,"f":0}
{"kind":"exec_start","request":1,"tenant":1,"a":12,"b":1,"c":0,"f":0}
{"kind":"exec_end","request":1,"tenant":1,"a":31,"b":1,"c":0,"f":0}
{"kind":"respond","request":1,"tenant":1,"a":31,"b":27,"c":0,"f":0}
{"kind":"engine_finish","request":9223372036854775808,"tenant":4294967295,"a":1768,"b":896,"c":193,"f":1383.9285714285709}
{"kind":"batch_exec","request":9223372036854775808,"tenant":4294967295,"a":11,"b":1768,"c":896,"f":1383.9285714285709}
{"kind":"admission_level","request":18446744073709551615,"tenant":0,"a":22,"b":1,"c":0,"f":0}
{"kind":"admission_level","request":18446744073709551615,"tenant":0,"a":23,"b":0,"c":1,"f":0}
"#;

/// Each byte of a document is replaced by each of these in turn: JSON
/// structure, digits, signs, and one multi-byte char.
const CORRUPTIONS: [&str; 8] = ["\"", "\\", "{", "]", ",", "9", "-", "é"];

/// Decodes every prefix of `doc` (the outcome must match `complete`,
/// which says whether a prefix is a whole document) and every
/// single-byte corruption of it; most corruptions must be rejected.
fn sweep<T, E>(doc: &str, complete: impl Fn(&str) -> bool, decode: impl Fn(&str) -> Result<T, E>) {
    assert!(doc.is_ascii(), "byte positions must be char boundaries");
    for end in 0..=doc.len() {
        let prefix = &doc[..end];
        assert_eq!(
            decode(prefix).is_ok(),
            complete(prefix),
            "prefix of {end} bytes"
        );
    }
    let mut rejected = 0;
    for i in 0..doc.len() {
        for rep in CORRUPTIONS {
            let mut bad = doc.to_string();
            bad.replace_range(i..=i, rep);
            rejected += usize::from(decode(&bad).is_err());
        }
    }
    assert!(rejected > doc.len(), "only {rejected} corruptions rejected");
}

#[test]
fn serve_shaped_jsonl_survives_the_sweep() {
    let events = event::parse_jsonl(SERVE_JSONL).expect("parses");
    assert_eq!(event::to_jsonl(&events), SERVE_JSONL, "round trip");
    // A prefix decodes exactly when it ends on a whole line.
    sweep(
        SERVE_JSONL,
        |p| p.is_empty() || p.ends_with('\n') || p.ends_with('}'),
        event::parse_jsonl,
    );
}

#[test]
fn chrome_trace_from_spans_survives_the_sweep() {
    // Sole test here that touches the process-global ring.
    duet_obs::set_trace_enabled(true);
    {
        let _outer = span_labeled("decoders.test.outer", "run \"0\"");
        for _ in 0..4 {
            let _inner = span("decoders.test.inner");
        }
    }
    duet_obs::set_trace_enabled(false);
    let doc = trace::chrome_trace_json(&event::take_global());
    assert_eq!(trace::check(&doc), Ok(10));
    // Only the whole document (with or without its final newline) parses,
    // both as JSON and under the trace rules.
    let complete = |p: &str| p.trim_end() == doc.trim_end();
    sweep(&doc, complete, json::parse);
    sweep(&doc, complete, trace::check);
}
