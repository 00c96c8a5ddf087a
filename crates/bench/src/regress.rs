//! Bench-result regression gating.
//!
//! The `results/BENCH_*.json` artifacts mix two kinds of numbers:
//! **deterministic** metrics (virtual ticks, checksums, counts — pure
//! functions of the seeded workload) and **hardware-dependent** timings
//! (nanoseconds, GFLOP/s, speedups), which legitimately drift between
//! machines and runs. The gate compares every metric of a current
//! artifact against its checked-in baseline: deterministic metrics must
//! match (exactly for integers/strings/bools, to a tiny relative
//! tolerance for fractional floats), timing metrics are reported as
//! informational only. `bench_check` turns the result into a CI exit
//! code, with `DUET_BENCH_BASELINE_UPDATE=<artifact>[,<artifact>…]` as
//! the documented override for intentional changes
//! ([`baselines_to_promote`]).

use duet_obs::json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Metric-name fragments marking a metric as hardware-dependent: never
/// gated, only reported. Matched against the final path segment,
/// case-sensitive (all artifact keys are lowercase).
pub const INFORMATIONAL_MARKERS: &[&str] = &[
    "_ns",
    "_ms",
    "gflops",
    "per_s",
    "speedup",
    "wall",
    "threads",
    "available_cores",
];

/// Relative tolerance for fractional deterministic floats (guards
/// against shortest-roundtrip formatting differences, nothing more).
pub const REL_TOL: f64 = 1e-9;

/// One leaf metric of a flattened artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A JSON number.
    Number(f64),
    /// A JSON string (checksums, names, modes).
    Text(String),
    /// A JSON boolean.
    Flag(bool),
}

impl Metric {
    fn render(&self) -> String {
        match self {
            Metric::Number(n) => format!("{n}"),
            Metric::Text(s) => format!("\"{s}\""),
            Metric::Flag(b) => format!("{b}"),
        }
    }
}

/// Flattens a parsed artifact into `path → leaf` entries with
/// `a.b[2].c`-style paths (objects by key, arrays by index).
pub fn flatten(value: &Value) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    flatten_into(value, String::new(), &mut out);
    out
}

fn flatten_into(value: &Value, path: String, out: &mut BTreeMap<String, Metric>) {
    match value {
        Value::Object(map) => {
            for (k, v) in map {
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                flatten_into(v, child, out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_into(v, format!("{path}[{i}]"), out);
            }
        }
        Value::Number(n) => {
            out.insert(path, Metric::Number(n.as_f64()));
        }
        Value::String(s) => {
            out.insert(path, Metric::Text(s.clone()));
        }
        Value::Bool(b) => {
            out.insert(path, Metric::Flag(*b));
        }
        Value::Null => {}
    }
}

/// Whether a metric path is hardware-dependent (reported, never gated).
pub fn is_informational(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    let leaf = leaf.split('[').next().unwrap_or(leaf);
    INFORMATIONAL_MARKERS.iter().any(|m| leaf.contains(m))
}

/// Severity of one comparison finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A gated metric moved (or disappeared): fails the check.
    Regression,
    /// A hardware-dependent metric moved: printed, never fails.
    Informational,
    /// A metric exists only in the current artifact (new coverage).
    Added,
}

/// One difference between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Flattened metric path.
    pub path: String,
    /// How severe the difference is.
    pub severity: Severity,
    /// Rendered baseline value (`"<absent>"` for additions).
    pub baseline: String,
    /// Rendered current value (`"<absent>"` for removals).
    pub current: String,
}

fn numbers_match(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    // Integers (counts, ticks, ids) must be bit-exact; only fractional
    // values get the formatting tolerance.
    if a.fract() == 0.0 && b.fract() == 0.0 {
        return false;
    }
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

fn metrics_match(a: &Metric, b: &Metric) -> bool {
    match (a, b) {
        (Metric::Number(x), Metric::Number(y)) => numbers_match(*x, *y),
        _ => a == b,
    }
}

/// Compares a current artifact against its baseline, returning every
/// difference. The check fails iff any finding has
/// [`Severity::Regression`].
pub fn compare(baseline: &Value, current: &Value) -> Vec<Finding> {
    let base = flatten(baseline);
    let cur = flatten(current);
    let mut findings = Vec::new();
    for (path, bv) in &base {
        let severity = if is_informational(path) {
            Severity::Informational
        } else {
            Severity::Regression
        };
        match cur.get(path) {
            None => findings.push(Finding {
                path: path.clone(),
                severity,
                baseline: bv.render(),
                current: "<absent>".to_string(),
            }),
            Some(cv) if !metrics_match(bv, cv) => findings.push(Finding {
                path: path.clone(),
                severity,
                baseline: bv.render(),
                current: cv.render(),
            }),
            Some(_) => {}
        }
    }
    for (path, cv) in &cur {
        if !base.contains_key(path) {
            findings.push(Finding {
                path: path.clone(),
                severity: Severity::Added,
                baseline: "<absent>".to_string(),
                current: cv.render(),
            });
        }
    }
    findings
}

/// Whether a finding set passes the gate (no regressions).
pub fn passes(findings: &[Finding]) -> bool {
    findings.iter().all(|f| f.severity != Severity::Regression)
}

/// The artifacts a `DUET_BENCH_BASELINE_UPDATE` value promotes over
/// their baselines: a comma-separated list of current artifact names
/// (`BENCH_kernels.json,BENCH_serve.json`), so refreshing one baseline
/// never rewrites another. A value naming nothing, or any name with no
/// current artifact (`1` included), is an error listing the current
/// artifacts.
///
/// # Errors
///
/// Returns the message to print when the value names no artifact or a
/// name is not in `current`.
pub fn baselines_to_promote(
    value: &str,
    current: &BTreeSet<String>,
) -> Result<BTreeSet<String>, String> {
    let names: BTreeSet<String> = value
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .map(str::to_owned)
        .collect();
    let unknown: Vec<&str> = names
        .iter()
        .filter(|n| !current.contains(*n))
        .map(String::as_str)
        .collect();
    let problem = if names.is_empty() {
        "names no artifact".to_owned()
    } else if !unknown.is_empty() {
        format!("no current artifact {}", unknown.join(", "))
    } else {
        return Ok(names);
    };
    let listed: Vec<&str> = current.iter().map(String::as_str).collect();
    Err(format!(
        "DUET_BENCH_BASELINE_UPDATE={value:?}: {problem}; name the artifacts to promote, \
         comma-separated, from: {}",
        listed.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_obs::json::parse;

    #[test]
    fn flatten_paths_cover_nesting() {
        let v = parse(r#"{"a": 1, "b": {"c": "x"}, "d": [true, {"e": 2.5}]}"#).unwrap();
        let flat = flatten(&v);
        assert_eq!(flat.get("a"), Some(&Metric::Number(1.0)));
        assert_eq!(flat.get("b.c"), Some(&Metric::Text("x".into())));
        assert_eq!(flat.get("d[0]"), Some(&Metric::Flag(true)));
        assert_eq!(flat.get("d[1].e"), Some(&Metric::Number(2.5)));
    }

    #[test]
    fn informational_markers_match_leaf_only() {
        assert!(is_informational("serial_sweep_ms"));
        assert!(is_informational("results[3].median_ns"));
        assert!(is_informational("results[3].gflops"));
        assert!(is_informational("threads"));
        assert!(is_informational("speedup_parallel_vs_serial"));
        assert!(!is_informational("p99_ticks"));
        assert!(!is_informational("response_checksum"));
        assert!(!is_informational("tenants[0].completed"));
    }

    #[test]
    fn integer_drift_is_a_regression_timing_drift_is_not() {
        let base = parse(r#"{"p99_ticks": 100, "median_ns": 5000.0}"#).unwrap();
        let cur = parse(r#"{"p99_ticks": 120, "median_ns": 9000.0}"#).unwrap();
        let findings = compare(&base, &cur);
        assert_eq!(findings.len(), 2);
        let ticks = findings.iter().find(|f| f.path == "p99_ticks").unwrap();
        assert_eq!(ticks.severity, Severity::Regression);
        let ns = findings.iter().find(|f| f.path == "median_ns").unwrap();
        assert_eq!(ns.severity, Severity::Informational);
        assert!(!passes(&findings));
    }

    #[test]
    fn identical_artifacts_pass_clean() {
        let v = parse(r#"{"checksum": "0xabc", "tenants": [{"p50_ticks": 5}]}"#).unwrap();
        let findings = compare(&v, &v.clone());
        assert!(findings.is_empty());
        assert!(passes(&findings));
    }

    #[test]
    fn fractional_floats_get_tiny_tolerance_only() {
        let base = parse(r#"{"fraction": 0.3333333333333333}"#).unwrap();
        let near = parse(r#"{"fraction": 0.33333333333333331}"#).unwrap();
        assert!(passes(&compare(&base, &near)));
        let far = parse(r#"{"fraction": 0.3334}"#).unwrap();
        assert!(!passes(&compare(&base, &far)));
    }

    #[test]
    fn baseline_update_promotes_only_named_artifacts() {
        let current: BTreeSet<String> = ["BENCH_kernels.json", "BENCH_sim.json"]
            .into_iter()
            .map(String::from)
            .collect();
        let one = baselines_to_promote("BENCH_kernels.json", &current).unwrap();
        assert_eq!(one.into_iter().collect::<Vec<_>>(), ["BENCH_kernels.json"]);
        let both = baselines_to_promote(" BENCH_sim.json,BENCH_kernels.json ", &current).unwrap();
        assert_eq!(both, current);
        // `1`, an empty list and an unknown name all fail
        for bad in ["1", "", ",", "BENCH_kernels.json,BENCH_gone.json"] {
            let err = baselines_to_promote(bad, &current).unwrap_err();
            assert!(
                err.contains("BENCH_kernels.json, BENCH_sim.json"),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn missing_metric_regresses_added_metric_passes() {
        let base = parse(r#"{"a": 1}"#).unwrap();
        let cur = parse(r#"{"b": 2}"#).unwrap();
        let findings = compare(&base, &cur);
        assert_eq!(findings.len(), 2);
        assert!(findings
            .iter()
            .any(|f| f.path == "a" && f.severity == Severity::Regression));
        assert!(findings
            .iter()
            .any(|f| f.path == "b" && f.severity == Severity::Added));
        assert!(!passes(&findings));
        // added-only is fine
        let both = parse(r#"{"a": 1, "b": 2}"#).unwrap();
        assert!(passes(&compare(&base, &both)));
    }
}
