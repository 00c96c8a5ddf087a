//! Word-parallel sparse-execution micro-benchmarks.
//!
//! Two questions, one artifact (`results/BENCH_sparse.json`):
//!
//! 1. **Skip throughput** — how fast can the engine *scan* a packed
//!    switching map, bit-by-bit (`is_sensitive` per index, the pre-PR-6
//!    loop) versus word-by-word (`iter_words` + `trailing_zeros`, the
//!    shipped loop), across insensitive fractions and the map sizes the
//!    dual variants actually produce. Both loops fold the sensitive
//!    indices into the same checksum — the determinism witness that the
//!    fast path visits exactly the same set. The headline number: at
//!    ≥ 90 % insensitive, word iteration must be ≥ 4× bit iteration.
//! 2. **GEMM throughput** — the blocked kernel's GFLOP/s on one thread.
//!    Each size's output checksum pins the kernel's bits through
//!    `bench_check`, so a change to its accumulation order fails the gate.
//!
//! Run with: `cargo run --release -p duet-bench --bin sparse_bench`
//! (`--smoke` shrinks sizes for a seconds-scale CI run and writes
//! `results/BENCH_sparse_smoke.json` so CI never clobbers the committed
//! artifact).

use duet_bench::timing::bench;
use duet_core::SwitchingMap;
use duet_tensor::ops;
use duet_tensor::rng::{self, seeded};
use std::fmt::Write as _;
use std::hint::black_box;

/// Insensitive fractions swept (the paper's operating regime is the
/// high-skip end).
const FRACTIONS: &[f64] = &[0.0, 0.5, 0.9, 0.99, 1.0];

/// Map lengths the dual variants produce by default: one LSTM gate block
/// (4·1024 lanes), one CONV layer's omap (64 ch × 196 positions), and a
/// large FF layer.
const MAP_LENS: &[usize] = &[4096, 12544, 65536];

/// Bit-serial reference scan: probe every index (the historical
/// `execute` shape). Returns the fold of sensitive indices.
fn bit_scan(map: &SwitchingMap) -> u64 {
    let mut acc = 0u64;
    for i in 0..map.len() {
        if map.is_sensitive(i) {
            acc = acc.wrapping_add(i as u64);
        }
    }
    acc
}

/// Word-parallel scan: zero words are run-length skipped, set bits are
/// extracted with `trailing_zeros` (the shipped `execute` shape).
fn word_scan(map: &SwitchingMap) -> u64 {
    let mut acc = 0u64;
    for (wi, mut w) in map.iter_words() {
        let base = (wi * 64) as u64;
        while w != 0 {
            acc = acc.wrapping_add(base + u64::from(w.trailing_zeros()));
            w &= w - 1;
        }
    }
    acc
}

struct SkipRow {
    map_len: usize,
    insensitive: f64,
    bit_ns: f64,
    word_ns: f64,
    checksum: u64,
    checksums_match: bool,
}

fn skip_throughput(map_lens: &[usize]) -> Vec<SkipRow> {
    let mut rows = Vec::new();
    let mut r = seeded(600);
    for &len in map_lens {
        for &frac in FRACTIONS {
            let map =
                SwitchingMap::from_flags((0..len).map(|_| r.random::<f64>() >= frac).collect());
            let bit_sum = bit_scan(&map);
            let word_sum = word_scan(&map);
            let label = format!("len {len} insensitive {frac:.2}");
            let bit = bench(&format!("bit  scan {label}"), || bit_scan(black_box(&map)));
            let word = bench(&format!("word scan {label}"), || word_scan(black_box(&map)));
            println!(
                "{:<34} bit {:>10.0} ns  word {:>10.0} ns  speedup {:>6.2}x",
                label,
                bit.median_ns,
                word.median_ns,
                bit.median_ns / word.median_ns
            );
            rows.push(SkipRow {
                map_len: len,
                insensitive: frac,
                bit_ns: bit.median_ns,
                word_ns: word.median_ns,
                checksum: bit_sum,
                checksums_match: bit_sum == word_sum,
            });
        }
    }
    rows
}

/// Fold a tensor's bits into a checksum (order-sensitive).
fn output_checksum(t: &duet_tensor::Tensor) -> u64 {
    t.data()
        .iter()
        .fold(0u64, |acc, &v| acc.rotate_left(7) ^ u64::from(v.to_bits()))
}

struct GemmRow {
    m: usize,
    k: usize,
    n: usize,
    scalar_gflops: f64,
    scalar_checksum: u64,
}

fn gemm_throughput(sizes: &[(usize, usize, usize)]) -> Vec<GemmRow> {
    let mut rows = Vec::new();
    let mut r = seeded(601);
    for &(m, k, n) in sizes {
        let a = rng::normal(&mut r, &[m, k], 0.0, 1.0);
        let b = rng::normal(&mut r, &[k, n], 0.0, 1.0);
        let flops = 2 * (m * k * n) as u64;
        let scalar_out = ops::matmul_with_threads(&a, &b, 1);
        let scalar = bench(&format!("gemm scalar {m}x{k}x{n}"), || {
            ops::matmul_with_threads(black_box(&a), black_box(&b), 1)
        });
        let scalar_gflops = scalar.gflops(flops);
        println!("gemm {m}x{k}x{n}: scalar {scalar_gflops:.2} GFLOP/s");
        rows.push(GemmRow {
            m,
            k,
            n,
            scalar_gflops,
            scalar_checksum: output_checksum(&scalar_out),
        });
    }
    rows
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let map_lens: &[usize] = if smoke { &MAP_LENS[..1] } else { MAP_LENS };
    let gemm_sizes: &[(usize, usize, usize)] = if smoke {
        &[(96, 96, 96)]
    } else {
        &[(192, 192, 192), (384, 384, 384)]
    };
    if smoke {
        println!("sparse_bench: --smoke (reduced sizes)");
    }

    let skip = skip_throughput(map_lens);
    for row in &skip {
        assert!(
            row.checksums_match,
            "bit and word scans diverged at len {} insensitive {}",
            row.map_len, row.insensitive
        );
    }
    // The tentpole's acceptance bar: word iteration ≥ 4× bit iteration
    // once ≥ 90% of outputs are skippable (full runs only; smoke runs on
    // loaded CI boxes stay informational).
    if !smoke {
        for row in skip.iter().filter(|r| r.insensitive >= 0.9) {
            let speedup = row.bit_ns / row.word_ns;
            assert!(
                speedup >= 4.0,
                "word scan only {speedup:.2}x bit scan at len {} insensitive {}",
                row.map_len,
                row.insensitive
            );
        }
    }

    let gemm = gemm_throughput(gemm_sizes);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"sparse\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"skip_throughput\": [");
    for (i, row) in skip.iter().enumerate() {
        let speedup = row.bit_ns / row.word_ns;
        let outputs_per_s = |ns: f64| row.map_len as f64 / (ns * 1e-9);
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"map_len\": {},", row.map_len);
        let _ = writeln!(json, "      \"insensitive_fraction\": {},", row.insensitive);
        let _ = writeln!(json, "      \"bit_scan_ns\": {:.1},", row.bit_ns);
        let _ = writeln!(json, "      \"word_scan_ns\": {:.1},", row.word_ns);
        let _ = writeln!(
            json,
            "      \"bit_outputs_per_s\": {:.3e},",
            outputs_per_s(row.bit_ns)
        );
        let _ = writeln!(
            json,
            "      \"word_outputs_per_s\": {:.3e},",
            outputs_per_s(row.word_ns)
        );
        let _ = writeln!(json, "      \"speedup_word_vs_bit\": {speedup:.2},");
        let _ = writeln!(json, "      \"checksum\": \"{:#018x}\",", row.checksum);
        let _ = writeln!(json, "      \"checksums_match\": {}", row.checksums_match);
        let _ = writeln!(json, "    }}{}", if i + 1 < skip.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"gemm\": {{");
    let _ = writeln!(json, "    \"threads\": 1,");
    let _ = writeln!(json, "    \"sizes\": [");
    for (i, row) in gemm.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(
            json,
            "        \"m\": {}, \"k\": {}, \"n\": {},",
            row.m, row.k, row.n
        );
        let _ = writeln!(json, "        \"scalar_gflops\": {:.3},", row.scalar_gflops);
        let _ = writeln!(
            json,
            "        \"scalar_checksum\": \"{:#018x}\"",
            row.scalar_checksum
        );
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < gemm.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    // Smoke runs write to *_smoke paths so CI can never overwrite the
    // committed full artifact.
    let bench_path = if smoke {
        "results/BENCH_sparse_smoke.json"
    } else {
        "results/BENCH_sparse.json"
    };
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(bench_path, &json).unwrap_or_else(|e| panic!("write {bench_path}: {e}"));
    println!("wrote {bench_path}");

    if duet_obs::metrics_enabled() {
        let snap = duet_obs::export::snapshot();
        println!("\n{}", snap.to_text());
    }
    if let Some((path, n)) = duet_obs::finalize() {
        println!("wrote {n} trace events to {path}");
    }
}
