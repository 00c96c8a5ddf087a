//! Property sweeps pinning the word-parallel map builder, §III-C
//! correction and sparse-execute loop to the per-element loops they
//! replaced.
//!
//! The reference here is the *literal definition* of sparse execution —
//! visit `(0..len).filter(|i| map.is_sensitive(i))` in ascending order,
//! accumulate each row as `bias + Σ w·x` in element order — reimplemented
//! with plain scalar loops, independent of the engine. Both engine paths
//! (the closure `execute`/`execute_into` and the batched mask-compaction
//! `execute_rows_into`) must reproduce it **bitwise**: same outputs, same
//! visit order, same exact-output counts, same `SavingsReport` — over
//! random maps at densities 0, ~0.5, 1, single-straggler-bit patterns,
//! tail lengths `len % 64 ∈ {0, 1, 63}`, and 1/4/7 worker threads.
//!
//! The CONV column executor (`execute_columns_into`) is pinned the same
//! way against the per-output `execute_into` + `RowKernel::dot` under
//! `Gather::Column`: bitwise outputs and equal reports, with and without
//! counting skipped MACs, over patch matrices full of ±0.
//!
//! The map builder and the correction are pinned the same way: against
//! the literal per-output rule and the per-element correction loop, on
//! the values where a rule can tip (±0, ±∞, NaN, subnormals, ±θ).

use duet_core::engine::{EngineCosts, ExecutorWeightBytes, Gather, MacMode, RowSegment};
use duet_core::{SavingsReport, SpeculationEngine, SwitchingMap, SwitchingPolicy};
use duet_nn::Activation;
use duet_tensor::rng::{self, seeded, Rng};
use duet_tensor::{parallel, Tensor};

/// Map patterns the sweep covers, per length.
fn sweep_maps(len: usize, r: &mut Rng) -> Vec<SwitchingMap> {
    let mut maps = vec![
        SwitchingMap::all_insensitive(len), // density 0
        SwitchingMap::all_sensitive(len),   // density 1
        SwitchingMap::from_flags((0..len).map(|_| r.random::<f64>() < 0.5).collect()),
    ];
    // single-straggler-bit patterns: first, last, and one interior bit
    for straggler in [0, len - 1, len / 2] {
        maps.push(SwitchingMap::from_flags(
            (0..len).map(|i| i == straggler).collect(),
        ));
    }
    maps
}

/// The old loop's row accumulation under `MacMode::SkipZeroWeights`,
/// also counting the MACs/weight words the kernel must report.
fn row_dot_skip_zero(bias: f32, weights: &[f32], x: &[f32], macs: &mut u64) -> f32 {
    let mut acc = bias;
    for (&w, &v) in weights.iter().zip(x) {
        if w != 0.0 {
            acc += w * v;
            *macs += 1;
        }
    }
    acc
}

struct Reference {
    mixed: Vec<f32>,
    visits: Vec<usize>,
    macs: u64,
}

/// Literal index-by-index sparse execution over an FF-style row set.
fn reference_execute(
    map: &SwitchingMap,
    approx: &[f32],
    w: &[f32],
    bias: &[f32],
    x: &[f32],
    d: usize,
) -> Reference {
    let mut mixed = approx.to_vec();
    let mut visits = Vec::new();
    let mut macs = 0u64;
    for i in (0..map.len()).filter(|&i| map.is_sensitive(i)) {
        visits.push(i);
        mixed[i] = row_dot_skip_zero(bias[i], &w[i * d..(i + 1) * d], x, &mut macs);
    }
    Reference {
        mixed,
        visits,
        macs,
    }
}

fn costs(n: usize, d: usize) -> EngineCosts {
    EngineCosts {
        dense_macs: (n * d) as u64,
        dense_weight_bytes: (n * d * 2) as u64,
        speculator_macs: (n * 4) as u64,
        speculator_adds: 0,
        speculator_weight_bytes: (n * 2) as u64,
        executor_weight_bytes: ExecutorWeightBytes::CountedWords,
    }
}

/// Runs the closure path on one map and returns (mixed, visits, report).
fn run_closure_path(
    map: &SwitchingMap,
    approx: &[f32],
    w: &[f32],
    bias: &[f32],
    x: &[f32],
    d: usize,
) -> (Vec<f32>, Vec<usize>, SavingsReport) {
    let n = map.len();
    let mut engine = SpeculationEngine::new();
    engine.account_map(map);
    let mut mixed = approx.to_vec();
    let mut visits = Vec::new();
    engine.execute_into(map, &mut mixed, |i, kernel| {
        visits.push(i);
        kernel.dot(
            bias[i],
            &w[i * d..(i + 1) * d],
            Gather::Dense(x),
            MacMode::SkipZeroWeights,
        )
    });
    let report = engine.finish(costs(n, d));
    (mixed, visits, report)
}

/// Runs the batched mask-compaction path on one map.
fn run_batched_path(
    map: &SwitchingMap,
    approx: &[f32],
    w: &[f32],
    bias: &[f32],
    x: &[f32],
    d: usize,
) -> (Vec<f32>, SavingsReport) {
    let n = map.len();
    let mut engine = SpeculationEngine::new();
    engine.account_map(map);
    let mut mixed = approx.to_vec();
    let segments = [RowSegment {
        weights: w,
        d,
        x: Gather::Dense(x),
        mode: MacMode::SkipZeroWeights,
    }];
    engine.execute_rows_into(map, &mut mixed, 0, bias, &segments);
    let report = engine.finish(costs(n, d));
    (mixed, report)
}

#[test]
fn word_parallel_execute_matches_index_loop_bitwise() {
    // tail lengths: % 64 ∈ {0, 1, 63}, plus sub-word and multi-word
    for (seed, len) in [
        (41u64, 64usize),
        (42, 128),
        (43, 192),
        (44, 1),
        (45, 65),
        (46, 129),
        (47, 63),
        (48, 127),
        (49, 191),
    ] {
        let mut r = seeded(seed);
        let d = 48;
        let mut w = rng::normal(&mut r, &[len, d], 0.0, 0.5);
        // sprinkle zero weights so SkipZeroWeights actually skips
        for v in w.data_mut().iter_mut() {
            if *v < -0.3 {
                *v = 0.0;
            }
        }
        let bias = rng::normal(&mut r, &[len], 0.0, 0.1);
        let x = rng::normal(&mut r, &[d], 0.0, 1.0);
        let approx = rng::normal(&mut r, &[len], 0.0, 1.0);

        for (mi, map) in sweep_maps(len, &mut r).into_iter().enumerate() {
            let what = format!("len {len} map {mi}");
            let reference =
                reference_execute(&map, approx.data(), w.data(), bias.data(), x.data(), d);
            let (mixed, visits, report) =
                run_closure_path(&map, approx.data(), w.data(), bias.data(), x.data(), d);
            assert_eq!(visits, reference.visits, "{what}: visit order");
            assert_eq!(mixed, reference.mixed, "{what}: outputs not bitwise");
            assert_eq!(
                report.outputs_exact,
                reference.visits.len() as u64,
                "{what}: exact count"
            );
            assert_eq!(report.executor_macs, reference.macs, "{what}: MACs");

            let (batched, batched_report) =
                run_batched_path(&map, approx.data(), w.data(), bias.data(), x.data(), d);
            assert_eq!(batched, reference.mixed, "{what}: batched outputs");
            assert_eq!(batched_report, report, "{what}: batched report");
        }
    }
}

#[test]
fn word_parallel_execute_thread_invariant_at_1_4_7() {
    let mut r = seeded(77);
    let (len, d) = (130, 64);
    let w = rng::normal(&mut r, &[len, d], 0.0, 0.5);
    let bias = rng::normal(&mut r, &[len], 0.0, 0.1);
    let approx = rng::normal(&mut r, &[len], 0.0, 1.0);
    let maps = sweep_maps(len, &mut r);
    let batch: Vec<Tensor> = (0..12)
        .map(|_| rng::normal(&mut r, &[d], 0.0, 1.0))
        .collect();

    // One (map, input) execution per batch lane, fanned out over worker
    // threads: the engine touches no shared state, so every thread count
    // must produce bit-identical outputs and reports.
    let run = |threads: usize| -> Vec<(Vec<f32>, SavingsReport)> {
        parallel::map_indexed(batch.len(), threads, |bi| {
            let map = &maps[bi % maps.len()];
            let x = &batch[bi];
            run_batched_path(map, approx.data(), w.data(), bias.data(), x.data(), d)
        })
    };
    let serial = run(1);
    for threads in [4, 7] {
        assert_eq!(serial, run(threads), "threads={threads} diverged");
    }
}

/// A `[d, p]` patch matrix with about half its entries exact zeros, a
/// third of those −0.0, and column 0 all zero.
fn patch_matrix(d: usize, p: usize, r: &mut Rng) -> Vec<f32> {
    (0..d * p)
        .map(|i| {
            let k = r.random_range(0..6u32);
            match (i % p == 0 || k < 3, k) {
                (true, 0) => -0.0,
                (true, _) => 0.0,
                (false, _) => rng::normal_sample(r),
            }
        })
        .collect()
}

/// Runs one CONV map through the per-output closure path or the column
/// executor; returns the output bits and the report.
fn run_columns(
    map: &SwitchingMap,
    (approx, w, bias, cols): (&[f32], &[f32], &[f32], &[f32]),
    count_skipped: bool,
    per_output: bool,
) -> (Vec<u32>, SavingsReport) {
    let (n, d) = (bias.len(), w.len() / bias.len());
    let p = map.len() / n;
    let mut engine = SpeculationEngine::new();
    engine.account_map(map);
    let mut mixed = approx.to_vec();
    if per_output {
        let mode = MacMode::SkipZeroInputs { count_skipped };
        engine.execute_into(map, &mut mixed, |i, kernel| {
            let (row, col) = (i / p, i % p);
            let x = Gather::Column {
                data: cols,
                stride: p,
                col,
            };
            kernel.dot(bias[row], &w[row * d..(row + 1) * d], x, mode)
        });
    } else {
        engine.execute_columns_into(map, &mut mixed, w, bias, cols, count_skipped);
    }
    let report = engine.finish(costs(n * p, d));
    (mixed.iter().map(|v| v.to_bits()).collect(), report)
}

#[test]
fn column_executor_matches_per_output_kernel_bitwise() {
    let mut r = seeded(61);
    for p in [1usize, 63, 64, 65, 121] {
        for n in [1usize, 3, 8] {
            for d in [1usize, 9, 20] {
                let w = rng::normal(&mut r, &[n, d], 0.0, 0.5);
                let mut bias = rng::normal(&mut r, &[n], 0.0, 0.1);
                // −0.0 over the all-zero column 0 stays −0.0 only if a
                // skipped zero adds nothing that flips its sign
                bias.data_mut()[0] = -0.0;
                let cols = patch_matrix(d, p, &mut r);
                let approx = rng::normal(&mut r, &[n * p], 0.0, 1.0);
                let data = (approx.data(), w.data(), bias.data(), cols.as_slice());
                for (mi, map) in sweep_maps(n * p, &mut r).into_iter().enumerate() {
                    for count_skipped in [true, false] {
                        let what = format!("P {p} n {n} d {d} map {mi} count {count_skipped}");
                        let want = run_columns(&map, data, count_skipped, true);
                        let got = run_columns(&map, data, count_skipped, false);
                        assert_eq!(got.0, want.0, "{what}: outputs not bitwise");
                        assert_eq!(got.1, want.1, "{what}: report");
                        assert_eq!(got.1.outputs_exact, map.sensitive_count() as u64, "{what}");
                    }
                }
            }
        }
    }
}

/// A value where a switching rule can tip, or an ordinary one.
fn edge_value(theta: f32, r: &mut Rng) -> f32 {
    match r.random_range(0..12u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::NAN,
        5 => f32::from_bits(r.random_range(1..0x0080_0000u32)), // subnormal
        6 => -f32::from_bits(r.random_range(1..0x0080_0000u32)),
        7 => theta,
        8 => -theta,
        _ => rng::normal_sample(r) * 2.0,
    }
}

#[test]
fn word_map_builder_matches_per_output_rule() {
    let activations = [
        Activation::Relu,
        Activation::Gelu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Identity,
    ];
    let thetas = [f32::NEG_INFINITY, -1.5, 0.0, 0.4, f32::INFINITY, f32::NAN];
    let mut r = seeded(2024);
    for len in (0..=130).chain(191..=193) {
        for &theta in &thetas {
            let y: Vec<f32> = (0..len).map(|_| edge_value(theta, &mut r)).collect();
            let y = Tensor::from_vec(y, &[len]);
            for activation in activations {
                let policy = SwitchingPolicy { activation, theta };
                let literal: Vec<bool> =
                    (0..len).map(|i| policy.is_sensitive(y.data()[i])).collect();
                let map = policy.map(&y);
                let what = format!("{activation} θ {theta} len {len}");
                assert_eq!(map.iter().collect::<Vec<_>>(), literal, "{what}");
                // word equality also pins the zero tail bits
                assert_eq!(map, SwitchingMap::from_flags(literal), "{what}");
            }
        }
    }
}

/// The per-element ReLU + §III-C correction loop the conv layer ran
/// before the word form.
fn reference_relu_correct(map: &SwitchingMap, output: &mut [f32]) -> SwitchingMap {
    let mut omap = map.clone();
    for (i, v) in output.iter_mut().enumerate() {
        *v = v.max(0.0);
        if *v == 0.0 && omap.is_sensitive(i) {
            omap.correct_to_insensitive(i);
        }
        if !omap.is_sensitive(i) {
            *v = 0.0;
        }
    }
    omap
}

#[test]
fn word_relu_correction_matches_per_element_loop() {
    for (seed, len) in [
        (51u64, 64usize),
        (52, 128),
        (53, 192),
        (54, 1),
        (55, 65),
        (56, 129),
        (57, 63),
        (58, 127),
        (59, 191),
        (60, 648),
        (61, 968), // the `cnn` conv: 8 channels × 11 × 11
    ] {
        let mut r = seeded(seed);
        for (mi, map) in sweep_maps(len, &mut r).into_iter().enumerate() {
            // negatives, NaN, ±0 and ordinary positives
            let output: Vec<f32> = (0..len).map(|_| edge_value(0.5, &mut r)).collect();
            let mut want = output.clone();
            let want_map = reference_relu_correct(&map, &mut want);
            let mut got = output;
            let mut got_map = map.clone();
            got_map.relu_correct(&mut got);
            let what = format!("len {len} map {mi}");
            assert_eq!(got_map, want_map, "{what}: corrected map");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{what}: outputs not bitwise");
        }
    }
}
