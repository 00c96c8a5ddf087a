//! Bench regression gate: diffs every `results/BENCH_*.json` against the
//! checked-in baselines under `results/baselines/`.
//!
//! Deterministic metrics (virtual ticks, checksums, counts) must match
//! the baseline; hardware-dependent timings (`_ns`, `_ms`, `gflops`,
//! `per_s`, `speedup`, `wall`, `threads`, `available_cores`) are printed
//! as informational drift but never fail the gate — see
//! [`duet_bench::regress`]. A baseline with no current artifact fails
//! too (the exhibit silently stopped running); a current artifact with
//! no baseline is reported as new coverage and passes.
//!
//! To accept an intentional change, rerun with
//! `DUET_BENCH_BASELINE_UPDATE=<artifact>[,<artifact>…]`, for example
//! `DUET_BENCH_BASELINE_UPDATE=BENCH_kernels.json`: the named current
//! artifacts, and only those, are copied over their baselines (commit
//! the diff) and the gate exits 0. Any other value fails and lists the
//! current artifacts.
//!
//! Run with: `cargo run --release -p duet-bench --bin bench_check`

use duet_bench::regress::{self, Severity};
use duet_obs::json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

const BASELINE_DIR: &str = "results/baselines";
const CURRENT_DIR: &str = "results";

/// `BENCH_*.json` file names directly inside `dir` (no recursion).
/// `*_smoke.json` artifacts are CI scratch, never gated or baselined.
fn bench_artifacts(dir: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return names;
    };
    for entry in entries.flatten() {
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") && !name.ends_with("_smoke.json") {
            names.insert(name);
        }
    }
    names
}

fn update_baselines(names: &BTreeSet<String>) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(BASELINE_DIR) {
        eprintln!("bench_check: cannot create {BASELINE_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    for name in names {
        let from = Path::new(CURRENT_DIR).join(name);
        let to = Path::new(BASELINE_DIR).join(name);
        match std::fs::copy(&from, &to) {
            Ok(_) => println!("bench_check: baseline updated: {}", to.display()),
            Err(e) => {
                eprintln!(
                    "bench_check: cannot copy {} -> {}: {e}",
                    from.display(),
                    to.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "bench_check: {} baseline(s) rewritten — review and commit the diff",
        names.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let baselines = bench_artifacts(BASELINE_DIR);
    let current = bench_artifacts(CURRENT_DIR);

    if let Some(value) = std::env::var_os("DUET_BENCH_BASELINE_UPDATE") {
        return match regress::baselines_to_promote(&value.to_string_lossy(), &current) {
            Ok(names) => update_baselines(&names),
            Err(e) => {
                eprintln!("bench_check: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if baselines.is_empty() {
        eprintln!(
            "bench_check: no baselines under {BASELINE_DIR}/ — \
             seed them with DUET_BENCH_BASELINE_UPDATE=<artifact>[,<artifact>…]"
        );
        return ExitCode::FAILURE;
    }

    let mut regressions = 0usize;
    let mut informational = 0usize;
    for name in &baselines {
        let base_path = Path::new(BASELINE_DIR).join(name);
        let cur_path = Path::new(CURRENT_DIR).join(name);
        let base_text = match std::fs::read_to_string(&base_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "REGRESSION {name}: unreadable baseline {}: {e}",
                    base_path.display()
                );
                regressions += 1;
                continue;
            }
        };
        let cur_text = match std::fs::read_to_string(&cur_path) {
            Ok(t) => t,
            Err(_) => {
                eprintln!(
                    "REGRESSION {name}: baseline exists but {} was not produced \
                     (exhibit no longer runs?)",
                    cur_path.display()
                );
                regressions += 1;
                continue;
            }
        };
        let (base, cur) = match (json::parse(&base_text), json::parse(&cur_text)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) => {
                eprintln!("REGRESSION {name}: baseline is not valid JSON: {e}");
                regressions += 1;
                continue;
            }
            (_, Err(e)) => {
                eprintln!("REGRESSION {name}: current artifact is not valid JSON: {e}");
                regressions += 1;
                continue;
            }
        };
        let findings = regress::compare(&base, &cur);
        let mut file_regressions = 0usize;
        for f in &findings {
            match f.severity {
                Severity::Regression => {
                    eprintln!(
                        "REGRESSION {name}: {} baseline {} != current {}",
                        f.path, f.baseline, f.current
                    );
                    file_regressions += 1;
                }
                Severity::Informational => {
                    println!(
                        "  info {name}: {} drifted {} -> {} (hardware-dependent, not gated)",
                        f.path, f.baseline, f.current
                    );
                    informational += 1;
                }
                Severity::Added => {
                    println!(
                        "  new  {name}: {} = {} (absent from baseline)",
                        f.path, f.current
                    );
                }
            }
        }
        regressions += file_regressions;
        if file_regressions == 0 {
            println!("ok   {name}");
        }
    }
    for name in current.difference(&baselines) {
        println!("  new  {name}: no baseline yet (add with DUET_BENCH_BASELINE_UPDATE={name})");
    }

    println!(
        "\nbench_check: {} baseline(s), {} regression(s), {} informational drift(s)",
        baselines.len(),
        regressions,
        informational
    );
    if regressions > 0 {
        eprintln!(
            "bench_check: FAILED — if the change is intentional, rerun with \
             DUET_BENCH_BASELINE_UPDATE=<artifact>[,<artifact>…] naming the changed \
             artifacts and commit the updated baselines"
        );
        return ExitCode::FAILURE;
    }
    println!("bench_check: PASS");
    ExitCode::SUCCESS
}
