//! Kernel telemetry must be deterministic across thread counts: the same
//! GEMM workload run at 1, 4 and 7 threads has to produce identical call
//! and flop counters (work is partitioned, never duplicated or dropped).
//!
//! `DUET_NUM_THREADS` is read once per process ([`duet_tensor::parallel::
//! num_threads`] caches it in a `OnceLock`), so a single test process
//! cannot vary the environment variable; the explicit
//! `*_with_threads(.., {1, 4, 7})` entry points exercise exactly the code
//! paths that variable selects.

use duet_tensor::ops::{
    affine_with_threads, gemv_t_with_threads, gemv_with_threads, matmul_nt_into, matmul_tn,
    matmul_with_threads,
};
use duet_tensor::{rng, Tensor};

/// Runs a mixed GEMM/GEMV/affine workload at the given thread count and
/// returns the per-kind (calls, flops) deltas it generated.
fn run_workload(threads: usize) -> Vec<(&'static str, u64)> {
    let keys = [
        "tensor.gemm.calls",
        "tensor.gemm.flops",
        "tensor.gemm.serial_fallback",
        "tensor.gemv.calls",
        "tensor.gemv.flops",
        "tensor.affine.calls",
        "tensor.affine.flops",
        "tensor.gemv_t.calls",
        "tensor.gemv_t.flops",
        "tensor.gemm_t.calls",
        "tensor.gemm_t.flops",
    ];
    let before: Vec<u64> = keys
        .iter()
        .map(|k| duet_obs::registry::counter(k).get())
        .collect();

    let mut r = rng::seeded(42);
    // large GEMM (blocked + parallel), small GEMM (naive fallback)
    let a = rng::normal(&mut r, &[96, 80], 0.0, 1.0);
    let b = rng::normal(&mut r, &[80, 72], 0.0, 1.0);
    let _big = matmul_with_threads(&a, &b, threads);
    let small = Tensor::eye(8);
    let _small = matmul_with_threads(&small, &small, threads);
    // GEMV + affine above and below the parallel threshold
    let w = rng::normal(&mut r, &[300, 1000], 0.0, 1.0);
    let x = rng::normal(&mut r, &[1000], 0.0, 1.0);
    let bias = rng::normal(&mut r, &[300], 0.0, 1.0);
    let _y = gemv_with_threads(&w, &x, threads);
    let _z = affine_with_threads(&w, &x, &bias, threads);
    let _t = gemv_t_with_threads(&w, &bias, threads);
    // The transposed-operand GEMMs run at the process's thread count; the
    // counters are taken before their fan-out.
    let _tn = matmul_tn(&a, &a); // [80, 96] · [96, 80]
    let mut nt = Tensor::zeros(&[96, 72]);
    matmul_nt_into(a.data(), &b.transposed(), &mut nt); // [96, 80] · [80, 72]

    keys.iter()
        .zip(before)
        .map(|(&k, b0)| (k, duet_obs::registry::counter(k).get() - b0))
        .collect()
}

#[test]
fn counters_sum_identically_across_thread_counts() {
    // The integration-test binary has its own process and registry; other
    // tests in this file would race the deltas, so this is the only test
    // here that enables metrics.
    duet_obs::set_metrics_enabled(true);

    let at1 = run_workload(1);
    let at4 = run_workload(4);
    let at7 = run_workload(7);
    duet_obs::set_metrics_enabled(false);

    assert_eq!(at1, at4, "thread count 4 must not change counter sums");
    assert_eq!(at1, at7, "thread count 7 must not change counter sums");

    let get = |k: &str| {
        at1.iter()
            .find(|(n, _)| *n == k)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(get("tensor.gemm.calls"), 2);
    assert_eq!(get("tensor.gemm.serial_fallback"), 1, "8×8 eye is naive");
    // 2·m·k·n per GEMM: 2·96·80·72 + 2·8·8·8
    assert_eq!(get("tensor.gemm.flops"), 2 * 96 * 80 * 72 + 2 * 8 * 8 * 8);
    assert_eq!(get("tensor.gemv.calls"), 1);
    assert_eq!(get("tensor.gemv.flops"), 2 * 300 * 1000);
    assert_eq!(get("tensor.affine.calls"), 1);
    assert_eq!(get("tensor.affine.flops"), 2 * 300 * 1000 + 300);
    assert_eq!(get("tensor.gemv_t.calls"), 1);
    assert_eq!(get("tensor.gemv_t.flops"), 2 * 300 * 1000);
    assert_eq!(get("tensor.gemm_t.calls"), 2);
    assert_eq!(
        get("tensor.gemm_t.flops"),
        2 * 80 * 96 * 80 + 2 * 96 * 80 * 72
    );
}
