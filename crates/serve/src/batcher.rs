//! Per-model micro-batching.
//!
//! Requests queue per model in FIFO order; a batch is released when it
//! is full or its oldest member has waited `max_wait_ticks`. A batch
//! occupies one replica for one service interval, so its members share
//! one dispatch overhead
//! ([`ServeConfig::dispatch_overhead_ticks`](crate::server::ServeConfig::dispatch_overhead_ticks));
//! each member still runs through its model's own forward
//! ([`crate::replica::execute_batch`]).

use crate::request::InferenceRequest;
use std::collections::VecDeque;

/// Batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Maximum requests coalesced into one batch (≥ 1).
    pub max_batch: usize,
    /// A non-full batch is released once its oldest request has waited
    /// this many ticks.
    pub max_wait_ticks: u64,
}

/// FIFO micro-batcher with one queue per model.
#[derive(Debug)]
pub struct MicroBatcher {
    queues: Vec<VecDeque<InferenceRequest>>,
    cfg: BatcherConfig,
}

impl MicroBatcher {
    /// Creates a batcher for `models` queues.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_batch` is zero.
    pub fn new(models: usize, cfg: BatcherConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        Self {
            queues: (0..models).map(|_| VecDeque::new()).collect(),
            cfg,
        }
    }

    /// Enqueues a request on its model's queue.
    ///
    /// # Panics
    ///
    /// Panics if the request's model index is out of range.
    pub fn push(&mut self, req: InferenceRequest) {
        let m = req.model.0 as usize;
        assert!(m < self.queues.len(), "model {m} out of range");
        self.queues[m].push_back(req);
    }

    /// Queue depth for one model.
    pub fn depth(&self, model: usize) -> usize {
        self.queues[model].len()
    }

    /// Total queued requests across all models.
    pub fn total_depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether `model` has a releasable batch at tick `now`: a full
    /// batch, or a non-empty queue whose head has waited out.
    pub fn ready(&self, model: usize, now: u64) -> bool {
        let q = &self.queues[model];
        match q.front() {
            None => false,
            Some(head) => {
                q.len() >= self.cfg.max_batch
                    || now.saturating_sub(head.arrival_tick) >= self.cfg.max_wait_ticks
            }
        }
    }

    /// Earliest future tick at which some queued batch becomes releasable
    /// by waiting alone (`None` when all queues are empty).
    pub fn next_expiry(&self) -> Option<u64> {
        self.queues
            .iter()
            .filter_map(|q| q.front())
            .map(|head| head.arrival_tick + self.cfg.max_wait_ticks)
            .min()
    }

    /// Removes and returns up to `max_batch` requests for `model`, in
    /// FIFO order. May legitimately return an empty batch when the queue
    /// is empty — [`crate::replica::execute_batch`] runs it as no work.
    pub fn flush(&mut self, model: usize) -> Vec<InferenceRequest> {
        let q = &mut self.queues[model];
        let take = q.len().min(self.cfg.max_batch);
        q.drain(..take).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ModelId, RequestId, TenantId};
    use duet_tensor::Tensor;

    fn req(id: u64, model: u32, tick: u64) -> InferenceRequest {
        InferenceRequest {
            id: RequestId(id),
            tenant: TenantId(0),
            model: ModelId(model),
            input: Tensor::zeros(&[4]),
            arrival_tick: tick,
        }
    }

    fn batcher() -> MicroBatcher {
        MicroBatcher::new(
            2,
            BatcherConfig {
                max_batch: 3,
                max_wait_ticks: 10,
            },
        )
    }

    #[test]
    fn full_batch_is_ready_immediately() {
        let mut b = batcher();
        for i in 0..3 {
            b.push(req(i, 0, 5));
        }
        assert!(b.ready(0, 5));
        let flushed = b.flush(0);
        assert_eq!(
            flushed.iter().map(|r| r.id.0).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(b.depth(0), 0);
    }

    #[test]
    fn partial_batch_waits_out() {
        let mut b = batcher();
        b.push(req(0, 0, 5));
        assert!(!b.ready(0, 5));
        assert!(!b.ready(0, 14));
        assert!(b.ready(0, 15));
        assert_eq!(b.next_expiry(), Some(15));
    }

    #[test]
    fn flush_caps_at_max_batch_and_keeps_order() {
        let mut b = batcher();
        for i in 0..5 {
            b.push(req(i, 1, i));
        }
        let first = b.flush(1);
        assert_eq!(first.iter().map(|r| r.id.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(b.depth(1), 2);
        assert_eq!(
            b.flush(1).iter().map(|r| r.id.0).collect::<Vec<_>>(),
            [3, 4]
        );
    }

    #[test]
    fn empty_queue_flushes_empty() {
        let mut b = batcher();
        assert!(!b.ready(0, 100));
        assert!(b.flush(0).is_empty());
        assert_eq!(b.next_expiry(), None);
        assert_eq!(b.total_depth(), 0);
    }

    #[test]
    #[should_panic(expected = "model 2 out of range")]
    fn push_rejects_unknown_model() {
        batcher().push(req(0, 2, 0));
    }
}
