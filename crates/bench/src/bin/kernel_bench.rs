//! Serial-vs-parallel kernel timing harness.
//!
//! Measures the naive reference, the blocked single-thread kernel, and the
//! blocked parallel kernel for GEMM/GEMV, the transposed GEMV `gemv_t`
//! against a transposed copy plus `gemv`, the fused conv forward, the
//! transposed-operand GEMMs `matmul_tn` and `matmul_nt_into` against a
//! transposed copy plus `matmul`, and one `Sequential::train_step` at each
//! of the two training shapes perfbench `cnn`'s set-up runs, and writes
//! `results/BENCH_kernels.json` with GFLOP/s for each variant. The
//! headline acceptance number is the 512×512×512 GEMM: on a machine with
//! ≥4 cores the parallel kernel must beat the serial baseline by ≥2×.
//!
//! Run with: `cargo run --release -p duet-bench --bin kernel_bench`

use duet_bench::timing::{bench, Measurement};
use duet_nn::{Activation, Conv2d, Layer, Linear, MaxPool2d, Optimizer, Sequential};
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

    // Transposed-operand GEMMs (backprop's gᵀ·x, Wᵀ·g and g·colsᵀ): the
    // transposed copy plus `matmul`, against `matmul_tn` and
    // `matmul_nt_into`, which read the operand in place (same bits).
    // `matmul_tn` at (k, m, n): train_mlp's first-layer dW (gᵀ [64, 32] ·
    // x [32, 24]), the fig10 CNN's conv input gradient (Wᵀ [9, 8] · g
    // [8, 121]) and one above PAR_MIN_FLOPS; then `matmul_nt_into` at the
    // conv's dW (g [8, 121] · colsᵀ [121, 9]) with g 80% zeros, as behind
    // ReLU and max-pool.
    for (k, m, n) in [(32usize, 64usize, 24usize), (8, 9, 121), (256, 256, 256)] {
        let mut r = rng::seeded(15);
        let a = rng::normal(&mut r, &[k, m], 0.0, 1.0);
        let b = rng::normal(&mut r, &[k, n], 0.0, 1.0);
        let flops = 2 * (m * k * n) as u64;
        for variant in ["matmul_of_transpose", "matmul_tn"] {
            let shape = format!("{k}x{m}x{n}");
            let m = bench(&format!("matmul_tn/{shape}/{variant}"), || {
                if variant == "matmul_tn" {
                    ops::matmul_tn(black_box(&a), black_box(&b))
                } else {
                    ops::matmul(&black_box(&a).transposed(), black_box(&b))
                }
            });
            println!("{}  {:>8.3} GFLOP/s", m.report(), m.gflops(flops));
            rows.push(Row {
                kernel: "matmul_tn",
                shape,
                variant,
                threads,
                flops,
                m,
            });
        }
    }
    {
        let (m, k, n) = (8usize, 121usize, 9usize);
        let mut r = rng::seeded(16);
        let mut g = rng::normal(&mut r, &[m, k], 0.0, 1.0);
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            if i % 5 != 0 {
                *v = 0.0;
            }
        }
        let cols = rng::normal(&mut r, &[n, k], 0.0, 1.0);
        let mut out = duet_tensor::Tensor::zeros(&[m, n]);
        let flops = 2 * (m * k * n) as u64;
        for variant in ["matmul_of_transpose", "matmul_nt"] {
            let bm = bench(&format!("matmul_nt/{m}x{k}x{n}/{variant}"), || {
                if variant == "matmul_nt" {
                    ops::matmul_nt_into(black_box(g.data()), black_box(&cols), &mut out);
                    out.data()[0]
                } else {
                    ops::matmul(black_box(&g), &black_box(&cols).transposed()).data()[0]
                }
            });
            println!("{}  {:>8.3} GFLOP/s", bm.report(), bm.gflops(flops));
            rows.push(Row {
                kernel: "matmul_nt",
                shape: format!("{m}x{k}x{n}_g80pct_zero"),
                variant,
                threads,
                flops,
                m: bm,
            });
        }
    }

    // One `Sequential::train_step` (forward, cross-entropy, backward,
    // Adam) at the shapes perfbench `cnn`'s set-up trains: train_cnn's
    // fig10 CNN (B = 16, 1×11×11 images, 8 3×3 filters, 2×2 pool, a
    // 200 → 3 head) and train_mlp's MLP (B = 32, 24 → 64 → 4). The flop
    // count is the step's dense GEMM work: forward, dW and every input
    // gradient it computes.
    {
        let geom = ConvGeometry {
            in_channels: 1,
            in_h: 11,
            in_w: 11,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let mut r = rng::seeded(17);
        let mut cnn = Sequential::new();
        cnn.push_conv(Conv2d::new(geom, 8, &mut r));
        cnn.push_activation(Activation::Relu);
        cnn.push_pool(MaxPool2d::new(2));
        cnn.push_flatten();
        cnn.push_linear(Linear::new(200, 3, &mut r));
        let x = rng::normal(&mut r, &[16, 1, 11, 11], 0.0, 1.0);
        let y: Vec<usize> = (0..16).map(|i| i % 3).collect();
        let conv_macs = 16 * 8 * geom.patch_len() * geom.out_h() * geom.out_w();
        let head_macs = 16 * 200 * 3;
        let cnn_flops = 2 * (2 * conv_macs + 3 * head_macs) as u64;

        let mut mlp = Sequential::new();
        mlp.push_linear(Linear::new(24, 64, &mut r));
        mlp.push_activation(Activation::Relu);
        mlp.push_linear(Linear::new(64, 4, &mut r));
        let xm = rng::normal(&mut r, &[32, 24], 0.0, 1.0);
        let ym: Vec<usize> = (0..32).map(|i| i % 4).collect();
        let mlp_flops = 2 * (2 * 32 * 24 * 64 + 3 * 32 * 64 * 4) as u64;

        for (name, net, x, y, flops) in [
            ("cnn_b16_1x11x11_k8_200x3", &mut cnn, &x, &y, cnn_flops),
            ("mlp_b32_24x64x4", &mut mlp, &xm, &ym, mlp_flops),
        ] {
            let mut opt = Optimizer::adam(0.01);
            let m = bench(&format!("train_step/{name}"), || {
                net.train_step(black_box(x), black_box(y), &mut opt)
            });
            println!("{}  {:>8.3} GFLOP/s", m.report(), m.gflops(flops));
            rows.push(Row {
                kernel: "train_step",
                shape: name.to_string(),
                variant: "sequential",
                threads,
                flops,
                m,
            });
        }
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
