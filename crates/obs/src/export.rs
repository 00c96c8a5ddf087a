//! Metrics snapshot exporters: plain text for terminals, JSON for files.
//!
//! A [`MetricsSnapshot`] is a point-in-time copy of every registered
//! counter, gauge and histogram summary, sorted by name. Binaries call
//! [`write_snapshot`] at the end of a run (typically next to their
//! `results/BENCH_*.json` artifacts) when `DUET_METRICS` is on, and the
//! text form via [`MetricsSnapshot::to_text`] for a human-readable dump.

use crate::registry::{self, HistogramSummary};
use crate::trace::escape_json;
use std::io::Write as _;

/// A point-in-time copy of the whole metrics registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every registered gauge, sorted by name.
    pub gauges: Vec<(&'static str, i64)>,
    /// `(name, summary)` for every registered histogram, sorted by name.
    pub histograms: Vec<(&'static str, HistogramSummary)>,
    /// Flight-recorder events (request or span) overwritten before being
    /// drained: nonzero means the JSONL stream or the Chrome trace no
    /// longer covers the whole run (raise `DUET_RECORDER_CAP`).
    pub recorder_overflow: u64,
}

/// Copies the current state of the registry.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: registry::counters(),
        gauges: registry::gauges(),
        histograms: registry::histograms(),
        recorder_overflow: crate::event::overflow(),
    }
}

impl MetricsSnapshot {
    /// Looks up a counter value by name (binary search over the
    /// name-sorted vector).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|probe| probe.0.cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Looks up a gauge value by name (binary search over the
    /// name-sorted vector).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .binary_search_by(|probe| probe.0.cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Looks up a histogram summary by name (binary search over the
    /// name-sorted vector).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .binary_search_by(|probe| probe.0.cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// `true` when no metric of any kind is registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as aligned plain text, one metric per line,
    /// followed by telemetry-health warnings when events were lost.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics registered — set DUET_METRICS=1)\n");
        }
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<width$}  counter  {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name:<width$}  gauge    {v}\n"));
        }
        for (name, s) in &self.histograms {
            out.push_str(&format!(
                "{name:<width$}  hist     count={} mean={:.1} p50={} p90={} p99={} max={}\n",
                s.count,
                s.mean(),
                s.p50,
                s.p90,
                s.p99,
                s.max
            ));
        }
        if self.recorder_overflow > 0 {
            out.push_str(&format!(
                "WARNING: {} recorder event(s) overwritten — raise DUET_RECORDER_CAP\n",
                self.recorder_overflow
            ));
        }
        out
    }

    /// Renders the snapshot as a JSON document:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {...}},
    /// "health": {"recorder_overflow": N}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", escape_json(name)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", escape_json(name)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {:.3}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                escape_json(name),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.mean(),
                s.p50,
                s.p90,
                s.p99
            ));
        }
        out.push_str("\n  },\n");
        out.push_str(&format!(
            "  \"health\": {{\"recorder_overflow\": {}}}\n",
            self.recorder_overflow
        ));
        out.push_str("}\n");
        out
    }
}

/// Snapshots the registry and writes the JSON form to `path`.
pub fn write_snapshot(path: &str) -> std::io::Result<()> {
    let json = snapshot().to_json();
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn snapshot_lookup_and_text() {
        let _g = crate::test_guard();
        crate::set_metrics_enabled(true);
        crate::registry::counter("obs.test.export_counter").add(7);
        crate::registry::gauge("obs.test.export_gauge").set(-3);
        crate::registry::histogram("obs.test.export_hist").record(10);
        crate::set_metrics_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("obs.test.export_counter"), Some(7));
        assert_eq!(snap.gauge("obs.test.export_gauge"), Some(-3));
        assert_eq!(snap.histogram("obs.test.export_hist").unwrap().count, 1);
        assert_eq!(snap.counter("obs.test.nonexistent"), None);
        let text = snap.to_text();
        assert!(text.contains("obs.test.export_counter"));
        assert!(text.contains("counter  7"));
    }

    #[test]
    fn json_form_parses_and_roundtrips_values() {
        let _g = crate::test_guard();
        crate::set_metrics_enabled(true);
        crate::registry::counter("obs.test.export_json").add(42);
        crate::set_metrics_enabled(false);
        let doc = snapshot().to_json();
        let v = parse(&doc).expect("snapshot JSON parses");
        let counters = v.get("counters").expect("counters object");
        assert_eq!(
            counters.get("obs.test.export_json").and_then(Value::as_f64),
            Some(42.0)
        );
        assert!(v.get("gauges").is_some());
        assert!(v.get("histograms").is_some());
    }

    #[test]
    fn empty_snapshot_text_mentions_env_var() {
        let empty = MetricsSnapshot::default();
        assert!(empty.is_empty());
        assert!(empty.to_text().contains("DUET_METRICS"));
        // empty JSON still parses
        assert!(parse(&empty.to_json()).is_ok());
    }

    #[test]
    fn binary_search_lookup_agrees_with_iteration() {
        let _g = crate::test_guard();
        crate::set_metrics_enabled(true);
        // Registration order deliberately not sorted: the registry sorts.
        for name in [
            "obs.test.bs_zeta",
            "obs.test.bs_alpha",
            "obs.test.bs_mid",
            "obs.test.bs_beta",
        ] {
            crate::registry::counter(name).add(name.len() as u64);
            crate::registry::gauge(name).set(-(name.len() as i64));
            crate::registry::histogram(name).record(name.len() as u64);
        }
        crate::set_metrics_enabled(false);
        let snap = snapshot();
        for &(name, v) in &snap.counters {
            let by_iter = snap.counters.iter().find(|(n, _)| *n == name).unwrap().1;
            assert_eq!(snap.counter(name), Some(v));
            assert_eq!(by_iter, v);
        }
        for &(name, v) in &snap.gauges {
            let by_iter = snap.gauges.iter().find(|(n, _)| *n == name).unwrap().1;
            assert_eq!(snap.gauge(name), Some(v));
            assert_eq!(by_iter, v);
        }
        for (name, s) in &snap.histograms {
            let by_iter = &snap.histograms.iter().find(|(n, _)| n == name).unwrap().1;
            assert_eq!(snap.histogram(name), Some(by_iter));
            assert_eq!(snap.histogram(name).unwrap().count, s.count);
        }
        assert_eq!(snap.counter("obs.test.bs_missing"), None);
        assert_eq!(snap.gauge(""), None);
    }

    #[test]
    fn health_fields_surface_in_text_and_json() {
        let healthy = MetricsSnapshot::default();
        assert!(!healthy.to_text().contains("WARNING"));
        let h = parse(&healthy.to_json()).unwrap();
        let health = h.get("health").expect("health object");
        assert_eq!(
            health.get("recorder_overflow").and_then(Value::as_f64),
            Some(0.0)
        );

        let lossy = MetricsSnapshot {
            recorder_overflow: 9,
            ..MetricsSnapshot::default()
        };
        let text = lossy.to_text();
        assert!(text.contains("9 recorder event(s) overwritten"));
        assert!(text.contains("raise DUET_RECORDER_CAP"));
        let v = parse(&lossy.to_json()).unwrap();
        let health = v.get("health").unwrap();
        assert_eq!(
            health.get("recorder_overflow").and_then(Value::as_f64),
            Some(9.0)
        );
    }
}
