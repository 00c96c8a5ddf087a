//! Lightweight scoped data-parallelism on `std::thread`.
//!
//! The workspace must build offline, so there is no rayon; instead the hot
//! kernels partition their iteration space into contiguous ranges and fan
//! out over [`std::thread::scope`]. Worker threads are borrowed for the
//! duration of one parallel region — no global pool state, no unsafe, no
//! channels — which keeps the model auditable and deterministic: the range
//! partitioning depends only on the item count and thread count, never on
//! scheduling order.
//!
//! The degree of parallelism is [`num_threads`]: the `DUET_NUM_THREADS`
//! environment variable when set (read once per process), otherwise
//! [`std::thread::available_parallelism`]. Kernels additionally fall back
//! to serial execution below a work threshold, so tiny tensors never pay
//! thread spawn overhead.

use std::ops::Range;
use std::sync::OnceLock;
use std::thread;

/// The process-wide degree of parallelism.
///
/// Resolution order: `DUET_NUM_THREADS` (if set to a positive integer),
/// then [`std::thread::available_parallelism`], then 1. The value is read
/// once and cached for the life of the process; kernels that need an
/// explicit override take a thread count parameter instead (e.g.
/// [`crate::ops::matmul_with_threads`]).
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("DUET_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Records one multi-threaded region (`workers` = ranges in the
/// partition, of which `workers - 1` are spawned threads; the first range
/// runs on the caller). Serial degradations are deliberately not counted,
/// so `tensor.parallel.regions` measures actual fan-outs.
#[inline]
fn note_fan_out(workers: usize) {
    duet_obs::counter!("tensor.parallel.regions").inc();
    duet_obs::counter!("tensor.parallel.workers_spawned").add(workers as u64 - 1);
}

/// Splits `0..n` into at most `parts` contiguous, balanced, non-empty
/// ranges (fewer when `n < parts`).
pub fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            break;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Runs `f` over a partition of `0..n` on up to `threads` scoped threads.
///
/// With `threads <= 1` (or nothing to split) this degrades to a plain call
/// `f(0..n)` with zero overhead, which is also the serial fallback path
/// used by kernels under their size thresholds. The first range runs on
/// the calling thread so a 1-extra-thread region spawns only one worker.
pub fn for_each_range<F>(n: usize, threads: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let ranges = split_ranges(n, threads);
    if ranges.len() == 1 {
        f(0..n);
        return;
    }
    note_fan_out(ranges.len());
    thread::scope(|scope| {
        for r in &ranges[1..] {
            let r = r.clone();
            let f = &f;
            scope.spawn(move || f(r));
        }
        f(ranges[0].clone());
    });
}

/// Computes `f(0)..f(n-1)` on up to `threads` scoped threads and returns
/// the results in index order.
///
/// Like [`for_each_range`], this is exactly a serial `map` when
/// `threads <= 1`. Results are concatenated range by range, so the output
/// order is independent of the thread count.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let ranges = split_ranges(n, threads);
    if ranges.len() == 1 {
        return (0..n).map(f).collect();
    }
    note_fan_out(ranges.len());
    let mut out = Vec::with_capacity(n);
    thread::scope(|scope| {
        let handles: Vec<_> = ranges[1..]
            .iter()
            .map(|r| {
                let r = r.clone();
                let f = &f;
                scope.spawn(move || r.map(f).collect::<Vec<T>>())
            })
            .collect();
        out.extend(ranges[0].clone().map(&f));
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
    });
    out
}

/// Partitions `rows` into contiguous ranges, hands each range its disjoint
/// `&mut` window of `data` (`row_len` elements per row), and runs `f` on up
/// to `threads` scoped threads.
///
/// This is the write-side primitive behind the parallel kernels: output
/// tensors are split row-wise so workers never alias. With `threads <= 1`
/// it degrades to `f(0..rows, data)`.
///
/// # Panics
///
/// Panics if `data.len() != rows * row_len`.
pub fn for_each_row_chunk<T, F>(data: &mut [T], rows: usize, row_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert_eq!(
        data.len(),
        rows * row_len,
        "for_each_row_chunk: data length must be rows * row_len"
    );
    if rows == 0 {
        return;
    }
    // The one-range case runs before `split_ranges`, whose `Vec` would
    // otherwise cost every serial GEMV and affine a heap allocation.
    if threads <= 1 || rows == 1 {
        f(0..rows, data);
        return;
    }
    let ranges = split_ranges(rows, threads);
    note_fan_out(ranges.len());
    thread::scope(|scope| {
        let mut rest = data;
        let mut iter = ranges.into_iter();
        let first = iter.next().expect("at least one range");
        let (first_chunk, tail) = rest.split_at_mut(first.len() * row_len);
        rest = tail;
        for r in iter {
            let (chunk, tail) = rest.split_at_mut(r.len() * row_len);
            rest = tail;
            let f = &f;
            scope.spawn(move || f(r, chunk));
        }
        f(first, first_chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn split_is_balanced_and_covers() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for parts in [1usize, 2, 3, 4, 9] {
                let ranges = split_ranges(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                if n > 0 {
                    assert_eq!(ranges[0].start, 0);
                    assert_eq!(ranges.last().unwrap().end, n);
                    let lens: Vec<_> = ranges.iter().map(|r| r.len()).collect();
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "unbalanced: {lens:?}");
                }
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
                }
            }
        }
    }

    #[test]
    fn for_each_range_visits_everything_once() {
        for threads in [1usize, 2, 4, 7] {
            let visited: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
            for_each_range(103, threads, |r| {
                for i in r {
                    visited[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [1usize, 2, 3, 8] {
            let out = map_indexed(57, threads, |i| i * i);
            assert_eq!(out, (0..57).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_items_is_a_noop() {
        for_each_range(0, 4, |_| panic!("must not be called"));
        assert!(map_indexed(0, 4, |i| i).is_empty());
        for_each_row_chunk(&mut [] as &mut [usize], 0, 3, 4, |_, _| {
            panic!("must not be called")
        });
    }

    #[test]
    fn row_chunks_are_disjoint_and_aligned() {
        for threads in [1usize, 2, 3, 5] {
            let mut data = vec![0usize; 11 * 3];
            for_each_row_chunk(&mut data, 11, 3, threads, |range, chunk| {
                assert_eq!(chunk.len(), range.len() * 3);
                for (local, row) in range.clone().enumerate() {
                    for e in 0..3 {
                        chunk[local * 3 + e] = row * 10 + e;
                    }
                }
            });
            for row in 0..11 {
                for e in 0..3 {
                    assert_eq!(data[row * 3 + e], row * 10 + e);
                }
            }
        }
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }
}
