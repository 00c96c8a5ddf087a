//! Property-style tests of the tensor substrate's algebraic laws.
//!
//! Formerly proptest-based; now driven by the in-tree seeded
//! [`duet_tensor::rng`] so the workspace tests run with zero external
//! dependencies. Each law is checked across a sweep of seeds (and, for the
//! kernels, across deliberately awkward shapes: 1×1, prime dimensions,
//! tall/skinny) — the parallel blocked kernels must agree with
//! [`ops::matmul_naive`] bit for bit.

use duet_tensor::fixed::{Fixed16Tensor, Int4Tensor};
use duet_tensor::im2col::{col2im, conv2d_direct, im2col, ConvGeometry};
use duet_tensor::rng::{self, Rng};
use duet_tensor::{ops, Tensor};

const CASES: u64 = 32;

fn vector(r: &mut Rng, n: usize, amp: f32) -> Tensor {
    rng::uniform(r, &[n], -amp, amp)
}

fn matrix(r: &mut Rng, rows: usize, cols: usize, amp: f32) -> Tensor {
    rng::uniform(r, &[rows, cols], -amp, amp)
}

/// Matmul distributes over addition: A(B + C) = AB + AC.
#[test]
fn matmul_distributes() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let a = matrix(&mut r, 4, 5, 5.0);
        let b = matrix(&mut r, 5, 3, 5.0);
        let c = matrix(&mut r, 5, 3, 5.0);
        let lhs = ops::matmul(&a, &ops::add(&b, &c));
        let rhs = ops::add(&ops::matmul(&a, &b), &ops::matmul(&a, &c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-2, "seed {seed}: {x} vs {y}");
        }
    }
}

/// (AB)ᵀ = BᵀAᵀ.
#[test]
fn matmul_transpose_law() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let a = matrix(&mut r, 3, 4, 5.0);
        let b = matrix(&mut r, 4, 2, 5.0);
        let lhs = ops::matmul(&a, &b).transposed();
        let rhs = ops::matmul(&b.transposed(), &a.transposed());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-3, "seed {seed}");
        }
    }
}

/// gemv agrees with matmul against a column vector.
#[test]
fn gemv_matmul_consistency() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let w = matrix(&mut r, 6, 4, 5.0);
        let x = vector(&mut r, 4, 10.0);
        let y = ops::gemv(&w, &x);
        let ym = ops::matmul(&w, &x.reshaped(&[4, 1]));
        for (a, b) in y.data().iter().zip(ym.data()) {
            assert!((a - b).abs() < 1e-3, "seed {seed}");
        }
    }
}

/// The blocked/parallel matmul agrees with the naive reference bit for
/// bit across odd shapes: 1×1, prime dims, tall/skinny, and shapes that
/// straddle the register-tile and panel boundaries.
#[test]
fn blocked_matmul_matches_naive_on_odd_shapes() {
    let shapes = [
        (1usize, 1usize, 1usize),
        (1, 97, 1),
        (2, 3, 5),
        (7, 11, 13),
        (31, 37, 41),  // prime dims above the blocked threshold
        (128, 1, 128), // degenerate inner dimension
        (257, 8, 3),   // tall/skinny
        (3, 8, 257),   // short/wide
        (33, 64, 65),  // off-by-one around tile multiples
        (64, 61, 64),
    ];
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        let mut r = rng::seeded(1000 + si as u64);
        let a = matrix(&mut r, m, k, 2.0);
        let b = matrix(&mut r, k, n, 2.0);
        let reference = ops::matmul_naive(&a, &b);
        for threads in [1usize, 4, 7] {
            let c = ops::matmul_with_threads(&a, &b, threads);
            assert_eq!(c.shape(), reference.shape());
            for (x, y) in c.data().iter().zip(reference.data()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "shape ({m},{k},{n}) threads {threads}: {x} vs {y}"
                );
            }
        }
    }
}

/// The parallel gemv agrees bit for bit with a scalar dot-product loop
/// folded from −0.0, as `f32`'s `Sum` folds, on odd shapes.
#[test]
fn gemv_matches_naive_on_odd_shapes() {
    for (si, &(n, d)) in [(1usize, 1usize), (5, 3), (127, 1), (311, 211), (64, 4099)]
        .iter()
        .enumerate()
    {
        let mut r = rng::seeded(2000 + si as u64);
        let w = matrix(&mut r, n, d, 1.0);
        let x = vector(&mut r, d, 1.0);
        for threads in [1usize, 4, 7] {
            let y = ops::gemv_with_threads(&w, &x, threads);
            for i in 0..n {
                let mut acc = -0.0f32;
                for j in 0..d {
                    acc += w.data()[i * d + j] * x.data()[j];
                }
                assert_eq!(
                    y.data()[i].to_bits(),
                    acc.to_bits(),
                    "({n},{d}) row {i} threads {threads}"
                );
            }
        }
    }
}

/// `gemv_t` is bitwise `gemv` of the transposed copy at 1, 4 and 7
/// threads, and so is `gemv_t_into`: each output folds from −0.0 over
/// ascending rows with no zero skip, so empty folds, signed zeros, ±∞ and
/// NaN (`0·∞`) come out the same as the copy's row dots.
#[test]
fn gemv_t_is_bitwise_gemv_of_the_transpose() {
    fn bits(y: &[f32]) -> Vec<u32> {
        y.iter().map(|v| v.to_bits()).collect()
    }
    fn check(w: &Tensor, v: &Tensor, what: &str) -> Vec<u32> {
        let wt = w.transposed();
        let want = bits(ops::gemv_with_threads(&wt, v, 1).data());
        for threads in [1usize, 4, 7] {
            let reference = ops::gemv_with_threads(&wt, v, threads);
            assert_eq!(
                bits(reference.data()),
                want,
                "{what}: reference, threads {threads}"
            );
            let got = ops::gemv_t_with_threads(w, v, threads);
            assert_eq!(bits(got.data()), want, "{what}: threads {threads}");
        }
        let mut into = vec![f32::NAN; w.shape().dim(1)];
        ops::gemv_t_into(w, v.data(), &mut into);
        assert_eq!(bits(&into), want, "{what}: into");
        want
    }
    let neg_zero = (-0.0f32).to_bits();
    let mut r = rng::seeded(3000);

    // n = 0: every output is an empty fold, −0.0.
    let y = check(&Tensor::zeros(&[0, 5]), &Tensor::zeros(&[0]), "n = 0");
    assert_eq!(y, vec![neg_zero; 5]);
    // d = 0: no outputs.
    assert!(check(&Tensor::zeros(&[4, 0]), &vector(&mut r, 4, 1.0), "d = 0").is_empty());
    // Every product −0.0 (a −0.0 weight times a positive input, or a +0.0
    // weight times a negative one): the fold stays −0.0.
    let w = Tensor::from_vec(vec![-0.0, -0.0, -0.0, 0.0, 0.0, 0.0], &[2, 3]);
    let v = Tensor::from_vec(vec![2.0, -0.0], &[2]);
    let y = check(&w, &v, "all −0.0 products");
    assert_eq!(y, vec![neg_zero; 3]);
    // ±∞ and NaN: 0·∞ stays NaN (no zero skip), ∞ − ∞ is NaN, a lone ∞
    // propagates.
    let mut w = matrix(&mut r, 6, 5, 1.0);
    let mut v = vector(&mut r, 6, 1.0);
    w.data_mut()[0] = f32::INFINITY; // column 0, row 0
    v.data_mut()[0] = 0.0;
    w.data_mut()[5 + 1] = f32::INFINITY; // column 1: ∞·1 + (−∞)·1
    w.data_mut()[2 * 5 + 1] = f32::NEG_INFINITY;
    v.data_mut()[1] = 1.0;
    v.data_mut()[2] = 1.0;
    w.data_mut()[3 * 5 + 2] = f32::NAN; // column 2
    w.data_mut()[4 * 5 + 3] = f32::NEG_INFINITY; // column 3
    let y = check(&w, &v, "±∞ and NaN");
    let y: Vec<f32> = y.into_iter().map(f32::from_bits).collect();
    assert!(y[0].is_nan() && y[1].is_nan() && y[2].is_nan(), "{y:?}");
    assert!(y[3].is_infinite() && y[4].is_finite(), "{y:?}");

    // Odd shapes, the transformer's projections, and one shape above
    // PAR_MIN_FLOPS (the only one that fans out).
    for (si, &(n, d)) in [
        (1usize, 1usize),
        (5, 3),
        (16, 16),
        (32, 16),
        (16, 32),
        (127, 9),
        (300, 1000),
    ]
    .iter()
    .enumerate()
    {
        assert_eq!(n * d >= ops::PAR_MIN_FLOPS, (n, d) == (300, 1000));
        let mut r = rng::seeded(3100 + si as u64);
        let mut w = matrix(&mut r, n, d, 1.0);
        // Exact zeros in both operands: no skip may change a bit.
        w.data_mut()[0] = 0.0;
        let mut v = vector(&mut r, n, 1.0);
        v.data_mut()[n / 2] = 0.0;
        check(&w, &v, &format!("({n},{d})"));
    }
}

/// One vs four threads produce bitwise-identical results for every
/// parallel kernel (`DUET_NUM_THREADS=1` vs `=4` determinism).
#[test]
fn thread_count_determinism() {
    let mut r = rng::seeded(77);
    let a = matrix(&mut r, 129, 83, 1.0);
    let b = matrix(&mut r, 83, 101, 1.0);
    assert_eq!(
        ops::matmul_with_threads(&a, &b, 1),
        ops::matmul_with_threads(&a, &b, 4)
    );
    let w = matrix(&mut r, 301, 999, 1.0);
    let x = vector(&mut r, 999, 1.0);
    assert_eq!(
        ops::gemv_with_threads(&w, &x, 1),
        ops::gemv_with_threads(&w, &x, 4)
    );
    let bias = vector(&mut r, 301, 1.0);
    assert_eq!(
        ops::affine_with_threads(&w, &x, &bias, 1),
        ops::affine_with_threads(&w, &x, &bias, 4)
    );
}

/// Dot product is symmetric and Cauchy–Schwarz holds.
#[test]
fn dot_properties() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let a = vector(&mut r, 16, 10.0);
        let b = vector(&mut r, 16, 10.0);
        let ab = ops::dot(&a, &b);
        let ba = ops::dot(&b, &a);
        assert!((ab - ba).abs() < 1e-2, "seed {seed}");
        let bound = (a.norm_sq() * b.norm_sq()).sqrt();
        assert!(ab.abs() <= bound * 1.0001 + 1e-3, "seed {seed}");
    }
}

/// INT16 quantization round-trip error is bounded by one step.
#[test]
fn fixed16_roundtrip_bound() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let t = vector(&mut r, 64, 10.0);
        let q = Fixed16Tensor::quantize(&t);
        let back = q.dequantize();
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= q.scale() * 1.01, "seed {seed}");
        }
    }
}

/// The 16→4 truncation always matches shifting the integer payload.
#[test]
fn truncation_is_arithmetic_shift() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let t = vector(&mut r, 32, 10.0);
        let q16 = Fixed16Tensor::quantize(&t);
        let q4 = q16.truncate_to_int4();
        for (&v16, &v4) in q16.data().iter().zip(q4.data()) {
            assert_eq!((v16 >> 12) as i8, v4, "seed {seed}");
        }
        assert!(
            (q4.scale() / q16.scale() - 4096.0).abs() < 1e-3,
            "seed {seed}"
        );
    }
}

/// INT4 values always stay within [-8, 7].
#[test]
fn int4_range_invariant() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let t = vector(&mut r, 64, 10.0);
        let q = Int4Tensor::quantize(&t);
        assert!(q.data().iter().all(|&v| (-8..=7).contains(&v)));
        let tr = Fixed16Tensor::quantize(&t).truncate_to_int4();
        assert!(tr.data().iter().all(|&v| (-8..=7).contains(&v)));
    }
}

/// im2col → GEMM equals direct convolution on random shapes.
#[test]
fn conv_lowering_equivalence() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let c = r.random_range(1usize..3);
        let hw = r.random_range(4usize..8);
        let k = r.random_range(1usize..4);
        let pad = r.random_range(0usize..2);
        let geom = ConvGeometry {
            in_channels: c,
            in_h: hw,
            in_w: hw,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: pad,
        };
        let input = rng::normal(&mut r, &[c, hw, hw], 0.0, 1.0);
        let filters = rng::normal(&mut r, &[k, c, 3, 3], 0.0, 0.5);
        let direct = conv2d_direct(&input, &filters, &geom);
        let cols = im2col(&input, &geom);
        let gemm = ops::matmul(&filters.reshaped(&[k, geom.patch_len()]), &cols);
        for (a, b) in direct.data().iter().zip(gemm.data()) {
            assert!((a - b).abs() < 1e-3, "seed {seed}");
        }
    }
}

/// col2im is the adjoint of im2col for random geometries.
#[test]
fn adjoint_property() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let hw = r.random_range(4usize..8);
        let pad = r.random_range(0usize..2);
        let geom = ConvGeometry {
            in_channels: 2,
            in_h: hw,
            in_w: hw,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: pad,
        };
        let x = rng::normal(&mut r, &[2, hw, hw], 0.0, 1.0);
        let y = rng::normal(&mut r, &[geom.patch_len(), geom.out_positions()], 0.0, 1.0);
        let n1 = geom.patch_len() * geom.out_positions();
        let lhs = ops::dot(&im2col(&x, &geom).reshaped(&[n1]), &y.reshaped(&[n1]));
        let rhs = ops::dot(
            &x.reshaped(&[x.len()]),
            &col2im(&y, &geom).reshaped(&[x.len()]),
        );
        assert!(
            (lhs - rhs).abs() < 1e-1 * (1.0 + lhs.abs()),
            "seed {seed}: {lhs} vs {rhs}"
        );
    }
}

/// Reshape preserves data; transpose twice is identity.
#[test]
fn shape_laws() {
    for seed in 0..CASES {
        let mut r = rng::seeded(seed);
        let m = matrix(&mut r, 5, 7, 5.0);
        let reshaped = m.reshaped(&[7, 5]);
        assert_eq!(reshaped.data(), m.data());
        assert_eq!(&m.transposed().transposed(), &m);
    }
}
