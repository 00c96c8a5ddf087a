//! Per-tenant admission control that degrades instead of dropping.
//!
//! Classic admission control sheds load by rejecting requests. The
//! dual-module architecture offers a better knob: under pressure, raise
//! the switching threshold θ so a larger fraction of each output vector
//! keeps the cheap speculator value (see [`crate::replica::OverloadPolicy`]).
//! The controller here only *measures* pressure — outstanding work per
//! tenant — and maps it to a small integer degradation level; it never
//! rejects, so the served request count always equals the submitted
//! count (the "zero dropped requests" serving invariant).

/// Admission knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Outstanding requests (queued + in flight) a tenant may hold
    /// before degradation starts.
    pub backlog_target: usize,
    /// Each `level_step` requests of excess backlog adds one level.
    pub level_step: usize,
    /// Ceiling on the degradation level.
    pub max_level: u8,
}

impl AdmissionConfig {
    /// A permissive default: degrade after 8 outstanding, one level per
    /// 4 excess, capped at 3.
    pub fn lenient() -> Self {
        Self {
            backlog_target: 8,
            level_step: 4,
            max_level: 3,
        }
    }
}

/// Outstanding-work counters for one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantLoad {
    /// Requests sitting in the micro-batcher.
    pub queued: usize,
    /// Requests dispatched to a replica and not yet completed.
    pub in_flight: usize,
}

impl TenantLoad {
    /// Total outstanding work.
    pub fn outstanding(&self) -> usize {
        self.queued + self.in_flight
    }
}

/// Tracks per-tenant load and maps it to degradation levels.
#[derive(Debug)]
pub struct AdmissionController {
    tenants: Vec<TenantLoad>,
    cfg: AdmissionConfig,
}

impl AdmissionController {
    /// Creates a controller for `tenants` tenants.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.level_step` is zero.
    pub fn new(tenants: usize, cfg: AdmissionConfig) -> Self {
        assert!(cfg.level_step >= 1, "level_step must be at least 1");
        Self {
            tenants: vec![TenantLoad::default(); tenants],
            cfg,
        }
    }

    /// Records a request entering the queue. Always admits.
    pub fn enqueued(&mut self, tenant: usize) {
        self.tenants[tenant].queued += 1;
    }

    /// Records a queued request moving onto a replica.
    pub fn dispatched(&mut self, tenant: usize) {
        let t = &mut self.tenants[tenant];
        debug_assert!(t.queued > 0, "dispatch without matching enqueue");
        t.queued = t.queued.saturating_sub(1);
        t.in_flight += 1;
    }

    /// Records an in-flight request completing.
    pub fn completed(&mut self, tenant: usize) {
        let t = &mut self.tenants[tenant];
        debug_assert!(t.in_flight > 0, "completion without matching dispatch");
        t.in_flight = t.in_flight.saturating_sub(1);
    }

    /// Current load counters for one tenant.
    pub fn load(&self, tenant: usize) -> TenantLoad {
        self.tenants[tenant]
    }

    /// Degradation level the tenant's next batch should run at:
    /// 0 within the backlog target, then one level per `level_step`
    /// requests of excess, capped at `max_level`.
    pub fn level_of(&self, tenant: usize) -> u8 {
        let excess = self.tenants[tenant]
            .outstanding()
            .saturating_sub(self.cfg.backlog_target);
        let level = excess.div_ceil(self.cfg.level_step);
        level.min(self.cfg.max_level as usize) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AdmissionController {
        AdmissionController::new(
            2,
            AdmissionConfig {
                backlog_target: 4,
                level_step: 2,
                max_level: 3,
            },
        )
    }

    #[test]
    fn level_rises_with_backlog_and_caps() {
        let mut c = controller();
        assert_eq!(c.level_of(0), 0);
        for _ in 0..4 {
            c.enqueued(0);
        }
        assert_eq!(c.level_of(0), 0); // at target
        c.enqueued(0);
        assert_eq!(c.level_of(0), 1); // 1 excess → ceil(1/2)
        c.enqueued(0);
        c.enqueued(0);
        assert_eq!(c.level_of(0), 2); // 3 excess
        for _ in 0..20 {
            c.enqueued(0);
        }
        assert_eq!(c.level_of(0), 3); // capped
        assert_eq!(c.level_of(1), 0); // isolation: other tenant unaffected
    }

    #[test]
    fn in_flight_counts_toward_pressure_until_completion() {
        let mut c = controller();
        for _ in 0..6 {
            c.enqueued(0);
        }
        assert_eq!(c.level_of(0), 1);
        for _ in 0..6 {
            c.dispatched(0);
        }
        // dispatch moves work, it doesn't shed it
        assert_eq!(c.load(0).in_flight, 6);
        assert_eq!(c.level_of(0), 1);
        for _ in 0..6 {
            c.completed(0);
        }
        assert_eq!(c.level_of(0), 0);
        assert_eq!(c.load(0).outstanding(), 0);
    }
}
