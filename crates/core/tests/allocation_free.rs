//! Allocation pin for the slice forwards: once warm, the speculator runs
//! in caller-owned buffers, a speculated projection allocates only the
//! switching map it returns and only when the map is too long to hold its
//! one word inline (more than 64 outputs), the CONV column executor
//! allocates nothing, and a dual transformer block allocates barely more
//! than its dense reference.
//!
//! The counting allocator counts per thread, so tests running in
//! parallel do not see each other's allocations.

use duet_core::engine::MacMode;
use duet_core::{
    ApproxConfig, ApproxLinear, DualAttention, DualFfn, DualProjection, DualTransformerBlock,
    SpeculationEngine, SwitchingMap, SwitchingPolicy, TransformerThresholds,
};
use duet_tensor::rng::{self, seeded, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// (allocations, bytes requested) on this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATED.try_with(|c| {
        let (n, total) = c.get();
        c.set((n + 1, total + bytes as u64));
    });
}

// SAFETY: every call forwards its arguments unchanged to `System`, so the
// caller's guarantees for `GlobalAlloc` carry over; the bookkeeping in
// `note` never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` guarantees are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the (allocations, bytes) it made
/// on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    let after = ALLOCATED.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
}

#[test]
fn warm_approx_forward_into_allocates_nothing() {
    let mut r = seeded(31);
    for activation_bits in [4, 8, 16] {
        let config = ApproxConfig {
            activation_bits,
            ..ApproxConfig::paper_default(12)
        };
        let approx = ApproxLinear::random(40, 24, config, &mut r);
        let x = rng::normal(&mut r, &[40], 0.0, 1.0);
        let (mut out, mut work) = (vec![0.0f32; 24], Vec::new());
        approx.forward_into(x.data(), &mut out, &mut work);
        let ((), allocated) = counted(|| approx.forward_into(x.data(), &mut out, &mut work));
        assert_eq!(allocated, (0, 0), "activation bits {activation_bits}");
        assert_eq!(
            out,
            approx.forward(&x).data(),
            "activation bits {activation_bits}"
        );
    }
}

fn projection(r: &mut Rng, n: usize, d: usize, k: usize) -> DualProjection {
    let w = rng::normal(r, &[n, d], 0.0, 0.3);
    let b = rng::normal(r, &[n], 0.0, 0.1);
    DualProjection::learn(&w, &b, MacMode::SkipZeroWeights, k, 200, r)
}

#[test]
fn warm_projection_forward_into_allocates_only_its_map() {
    let mut r = seeded(32);
    let d = 48;
    // (outputs, allocations): a map of up to 64 outputs holds its one
    // word inline; a longer one allocates its words once.
    for (n, want) in [
        (16, (0, 0)),
        (32, (0, 0)),
        (64, (0, 0)),
        (65, (1, 16)),
        (100, (1, 16)),
    ] {
        let proj = projection(&mut r, n, d, 16);
        let x = rng::normal(&mut r, &[d], 0.0, 1.0);
        let policy = SwitchingPolicy::relu(0.0);
        let mut out = vec![0.0f32; n];
        let mut engine = SpeculationEngine::new();
        proj.forward_into(&mut engine, &policy, x.data(), &mut out);
        let (map, allocated) =
            counted(|| proj.forward_into(&mut engine, &policy, x.data(), &mut out));
        assert_eq!(map.words().len(), n.div_ceil(64), "n {n}");
        assert_eq!(allocated, want, "n {n}");
        let mut fresh = SpeculationEngine::new();
        let (pre, fresh_map) = proj.forward(&mut fresh, &policy, &x);
        assert_eq!((out.as_slice(), &map), (pre.data(), &fresh_map), "n {n}");
    }
}

#[test]
fn warm_transformer_block_allocates_little_more_than_dense() {
    let mut r = seeded(34);
    let (m, f, k, t_len) = (16, 32, 8, 8);
    let attn = DualAttention::new(
        projection(&mut r, m, m, k),
        projection(&mut r, m, m, k),
        projection(&mut r, m, m, k),
        projection(&mut r, m, m, k),
    );
    let ffn = DualFfn::new(projection(&mut r, f, m, k), projection(&mut r, m, f, f / 2));
    let block = DualTransformerBlock::new(attn, ffn);
    let xs = rng::normal(&mut r, &[t_len, m], 0.0, 1.0);
    let th = TransformerThresholds::uniform(0.4);
    block.forward(&xs, &th);
    block.forward_dense(&xs);
    let (out, (dual, _)) = counted(|| block.forward(&xs, &th));
    let ((), (dense, _)) = counted(|| {
        block.forward_dense(&xs);
    });
    assert_eq!(out.maps.len(), 6 * t_len);
    // The dense pass's own count, exactly: it runs no engine, opens no
    // span and collects no map list.
    assert_eq!(dense, 162, "the dense reference allocated {dense} times");
    assert!(
        dual <= dense + 3,
        "dual block allocated {dual} times, its dense reference {dense}"
    );
}

#[test]
fn warm_column_executor_allocates_nothing() {
    let mut r = seeded(33);
    let (n, d, p) = (8, 9, 121);
    let w = rng::normal(&mut r, &[n, d], 0.0, 0.3);
    let b = rng::normal(&mut r, &[n], 0.0, 0.1);
    let mut cols = rng::normal(&mut r, &[d, p], 0.0, 1.0);
    for v in cols.data_mut().iter_mut().step_by(2) {
        *v = 0.0;
    }
    let map = SwitchingMap::from_flags((0..n * p).map(|_| r.random::<f64>() < 0.3).collect());
    let mut out = vec![0.0f32; n * p];
    let mut engine = SpeculationEngine::new();
    // without an IMap skipped MACs are counted; with one, non-zero inputs
    for count_skipped in [true, false] {
        let mut run = || {
            engine.execute_columns_into(
                &map,
                &mut out,
                w.data(),
                b.data(),
                cols.data(),
                count_skipped,
            )
        };
        run();
        let ((), allocated) = counted(run);
        assert_eq!(allocated, (0, 0), "count_skipped {count_skipped}");
    }
}
