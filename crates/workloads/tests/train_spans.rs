//! `train_seq2seq` opens one `workloads.train.window` span per iteration,
//! as the other trainers open one per epoch or window.
//!
//! This file is its own test binary with a single test: the metrics switch
//! is process-wide, so turning it on here cannot race the spans of the
//! crate's unit tests.

use duet_tensor::rng::seeded;
use duet_workloads::seq2seq::{train_seq2seq, ReversalTask};

#[test]
fn train_seq2seq_opens_one_window_span_per_iteration() {
    let windows = duet_obs::registry::histogram("workloads.train.window");
    let iterations = 4;
    duet_obs::set_metrics_enabled(true);
    let before = windows.count();
    train_seq2seq(
        &ReversalTask { vocab: 6, len: 3 },
        8,
        12,
        iterations,
        &mut seeded(41),
    );
    let grew = windows.count() - before;
    duet_obs::set_metrics_enabled(false);
    assert!(
        grew >= iterations as u64,
        "{grew} window spans for {iterations} iterations"
    );
}
