//! Request and response types for the serving layer.
//!
//! All timing is in **virtual ticks** — the discrete-event clock of
//! [`crate::server::DuetServer`] — never wall time. Virtual time is what
//! makes a seeded trace replay byte-identical at any `DUET_NUM_THREADS`:
//! a batch's service time is a deterministic function of the work it
//! performed ([`crate::replica::service_ticks`]), not of host scheduling.

use duet_tensor::Tensor;
use std::fmt;

/// Identifies one request for its whole lifetime: minted at submission,
/// carried through queue → batch → replica → response, and stamped on
/// every flight-recorder event ([`duet_obs::event`]) the request
/// produces, so a causal trace joins on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies a tenant (a customer sharing the service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// Identifies a served model (an index into the server's model table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(pub u32);

/// One inference request as it enters the queue.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRequest {
    /// Unique, monotonically increasing request id.
    pub id: RequestId,
    /// The tenant that submitted the request.
    pub tenant: TenantId,
    /// The model the request targets.
    pub model: ModelId,
    /// Input vector `[d]` matching the model's input width.
    pub input: Tensor,
    /// Virtual tick at which the request arrived.
    pub arrival_tick: u64,
}

/// One completed inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResponse {
    /// Id of the request this answers.
    pub id: RequestId,
    /// The tenant that submitted the request.
    pub tenant: TenantId,
    /// The model that served it.
    pub model: ModelId,
    /// Output vector `[n]`.
    pub output: Tensor,
    /// Virtual tick at which the request arrived.
    pub arrival_tick: u64,
    /// Virtual tick at which the batch holding it completed.
    pub completion_tick: u64,
    /// Admission degradation level the batch ran at (0 = full quality).
    pub degradation_level: u8,
    /// Whether the replica's guard forced the batch bitwise-dense.
    pub served_dense: bool,
}

impl InferenceResponse {
    /// Queueing + service latency in virtual ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.completion_tick - self.arrival_tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_completion_minus_arrival() {
        let r = InferenceResponse {
            id: RequestId(1),
            tenant: TenantId(0),
            model: ModelId(0),
            output: Tensor::zeros(&[2]),
            arrival_tick: 10,
            completion_tick: 35,
            degradation_level: 0,
            served_dense: false,
        };
        assert_eq!(r.latency_ticks(), 25);
    }
}
