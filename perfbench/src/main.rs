//! Wall-clock benchmark of the DUET dual path against its dense twin.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lm|rnn|cnn|serve> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the
//! traced run (`--trace 1`) prints the per-layer metrics. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Any failed request or output check makes the
//! process exit non-zero. See `perfbench/README.md`.

mod cnn;
mod estimate;
mod harness;
mod lm;
mod rnn;
mod serve;
mod spans;

use harness::{Args, Outcome, DEFAULT_SEED, HELDOUT_SEED};
use std::fmt::Write as _;

fn usage() -> String {
    format!(
        "usage: duet-perfbench --workload <lm|rnn|cnn|serve> [--seed N] [--seconds S] \
         [--trace 0|1]\n--seed defaults to {DEFAULT_SEED}; seed {HELDOUT_SEED} is held out \
         for checking claimed gains"
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The result line: one JSON object.
fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "lm" => lm::run(&args),
        "rnn" => rnn::run(&args),
        "cnn" => cnn::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{}", usage());
            std::process::exit(2);
        }
    };
    // A metric that is not a finite number is a failed output too.
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.failed += 1;
            out.failures.push(format!("{} is not finite", m.name));
        }
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }

    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    println!("{}", result_json(&out));
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload lm --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "lm".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert_eq!(parse("--workload rnn").expect("valid").seed, DEFAULT_SEED);
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload lm --trace 2").is_err());
        assert!(parse("--workload lm --seconds -1").is_err());
        assert!(parse("--workload lm --seed").is_err());
    }

    #[test]
    fn result_is_one_json_line() {
        let mut out = Outcome::default();
        out.requests(4, 0, "requests");
        out.metric("setup_s", 0.8127, "s");
        out.metric("latency_p50_us", 1.5, "us");
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"latency_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }
}
