//! Serial-vs-parallel kernel timing harness.
//!
//! Measures the naive reference, the blocked single-thread kernel, and the
//! blocked parallel kernel for GEMM/GEMV, the transposed GEMV `gemv_t`
//! against a transposed copy plus `gemv`, and the fused conv forward, and
//! writes `results/BENCH_kernels.json` with GFLOP/s for each variant. The
//! headline acceptance number is the 512×512×512 GEMM: on a machine with
//! ≥4 cores the parallel kernel must beat the serial baseline by ≥2×.
//!
//! Run with: `cargo run --release -p duet-bench --bin kernel_bench`

use duet_bench::timing::{bench, Measurement};
use duet_nn::{Conv2d, Layer};
use duet_tensor::im2col::ConvGeometry;
use duet_tensor::{ops, parallel, rng};
use std::fmt::Write as _;
use std::hint::black_box;

struct Row {
    kernel: &'static str,
    shape: String,
    variant: &'static str,
    threads: usize,
    flops: u64,
    m: Measurement,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"variant\": \"{}\", \"threads\": {}, \
             \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"gflops\": {:.4}}}",
            self.kernel,
            self.shape,
            self.variant,
            self.threads,
            self.m.median_ns,
            self.m.min_ns,
            self.m.gflops(self.flops)
        )
    }
}

fn main() {
    let threads = parallel::num_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("kernel_bench: {threads} threads on {cores} available cores");

    let mut rows: Vec<Row> = Vec::new();

    // GEMM: naive serial vs blocked serial vs blocked parallel.
    for n in [128usize, 256, 512] {
        let mut r = rng::seeded(11);
        let a = rng::normal(&mut r, &[n, n], 0.0, 1.0);
        let b = rng::normal(&mut r, &[n, n], 0.0, 1.0);
        let flops = 2 * (n * n * n) as u64;
        let shape = format!("{n}x{n}x{n}");

        for (variant, t) in [
            ("naive_serial", 0usize),
            ("blocked_1thread", 1),
            ("blocked_parallel", threads),
        ] {
            let m = bench(&format!("matmul/{shape}/{variant}"), || {
                if variant == "naive_serial" {
                    ops::matmul_naive(black_box(&a), black_box(&b))
                } else {
                    ops::matmul_with_threads(black_box(&a), black_box(&b), t)
                }
            });
            println!("{}  {:>8.3} GFLOP/s", m.report(), m.gflops(flops));
            rows.push(Row {
                kernel: "matmul",
                shape: shape.clone(),
                variant,
                threads: t.max(1),
                flops,
                m,
            });
        }
    }

    // GEMV: serial vs parallel.
    {
        let (n, d) = (2048usize, 2048usize);
        let mut r = rng::seeded(12);
        let w = rng::normal(&mut r, &[n, d], 0.0, 0.1);
        let x = rng::normal(&mut r, &[d], 0.0, 1.0);
        let flops = 2 * (n * d) as u64;
        for (variant, t) in [("serial", 1usize), ("parallel", threads)] {
            let m = bench(&format!("gemv/{n}x{d}/{variant}"), || {
                ops::gemv_with_threads(black_box(&w), black_box(&x), t)
            });
            println!("{}  {:>8.3} GFLOP/s", m.report(), m.gflops(flops));
            rows.push(Row {
                kernel: "gemv",
                shape: format!("{n}x{d}"),
                variant,
                threads: t,
                flops,
                m,
            });
        }
    }

    // Transposed GEMV (backprop's Wᵀ·v): the transposed copy plus `gemv`,
    // against `gemv_t`, which reads W in place (same bits). Shapes: the
    // transformer LM's projections (16×16, 32×16, 16×32), fig10's LSTM
    // gate stack W_hh (192×48), and one shape above PAR_MIN_FLOPS.
    for (n, d) in [
        (16usize, 16usize),
        (32, 16),
        (16, 32),
        (192, 48),
        (2048, 2048),
    ] {
        let mut r = rng::seeded(14);
        let w = rng::normal(&mut r, &[n, d], 0.0, 0.1);
        let v = rng::normal(&mut r, &[n], 0.0, 1.0);
        let flops = 2 * (n * d) as u64;
        for variant in ["gemv_of_transpose", "gemv_t"] {
            let m = bench(&format!("gemv_t/{n}x{d}/{variant}"), || {
                if variant == "gemv_t" {
                    ops::gemv_t_with_threads(black_box(&w), black_box(&v), threads)
                } else {
                    ops::gemv_with_threads(&black_box(&w).transposed(), black_box(&v), threads)
                }
            });
            println!("{}  {:>8.3} GFLOP/s", m.report(), m.gflops(flops));
            rows.push(Row {
                kernel: "gemv_t",
                shape: format!("{n}x{d}"),
                variant,
                threads,
                flops,
                m,
            });
        }
    }

    // Fused conv forward (im2col + GEMM + bias), batch-parallel inside.
    {
        let geom = ConvGeometry {
            in_channels: 32,
            in_h: 28,
            in_w: 28,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let k = 64usize;
        let batch = 8usize;
        let mut r = rng::seeded(13);
        let mut conv = Conv2d::new(geom, k, &mut r);
        let x = rng::normal(&mut r, &[batch, 32, 28, 28], 0.0, 1.0);
        let flops = 2 * (batch * k * geom.patch_len() * geom.out_h() * geom.out_w()) as u64;
        let m = bench("conv2d/8x32x28x28_k64", || conv.forward(black_box(&x)));
        println!("{}  {:>8.3} GFLOP/s", m.report(), m.gflops(flops));
        rows.push(Row {
            kernel: "conv2d",
            shape: format!("{batch}x32x28x28_k{k}"),
            variant: "fused_batch_parallel",
            threads,
            flops,
            m,
        });
    }

    // Headline ratios from the 512³ GEMM rows.
    let gf = |variant: &str| {
        rows.iter()
            .find(|r| r.kernel == "matmul" && r.shape == "512x512x512" && r.variant == variant)
            .map(|r| r.m.gflops(r.flops))
            .unwrap_or(0.0)
    };
    let naive = gf("naive_serial");
    let blocked = gf("blocked_1thread");
    let par = gf("blocked_parallel");
    let speedup_parallel_vs_naive = if naive > 0.0 { par / naive } else { 0.0 };
    let speedup_parallel_vs_blocked = if blocked > 0.0 { par / blocked } else { 0.0 };
    println!(
        "512^3 GEMM: naive {naive:.3} | blocked(1t) {blocked:.3} | parallel({threads}t) {par:.3} GFLOP/s"
    );
    println!(
        "  parallel vs naive serial: {speedup_parallel_vs_naive:.2}x; vs blocked serial: {speedup_parallel_vs_blocked:.2}x"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernels\",");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"available_cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"speedup_512_parallel_vs_naive_serial\": {speedup_parallel_vs_naive:.4},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_512_parallel_vs_blocked_serial\": {speedup_parallel_vs_blocked:.4},"
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "{}{}", row.json(), sep);
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote results/BENCH_kernels.json");

    if duet_obs::metrics_enabled() {
        let snap = duet_obs::export::snapshot();
        println!("\n{}", snap.to_text());
        if duet_obs::export::write_snapshot("results/METRICS_kernels.json").is_ok() {
            println!("wrote results/METRICS_kernels.json");
        }
    }
    if let Some((path, n)) = duet_obs::finalize() {
        println!("wrote {n} trace events to {path}");
    }
}
