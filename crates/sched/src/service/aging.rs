//! Weighted-fair aging: the anti-starvation half of the admission queue.
//!
//! The paper's 5-tuple gives every account a static *priority*; a queue
//! ordered on that priority alone lets one saturating high-priority
//! tenant starve everybody else forever. Aging fixes it the classic
//! way: a pending submission's **effective** priority grows with its
//! waiting time, so any submission eventually outranks all fresh
//! arrivals, however important their tenants are.
//!
//! The policy is deliberately integer-stepped (priority boosts happen
//! every [`AgingPolicy::step_s`] logical seconds) so effective
//! priorities are exact and replay-stable — no float accumulation in
//! the queue ordering.
//!
//! ## The starvation bound
//!
//! Once a submission's effective priority reaches
//! [`AgingPolicy::ceiling`] it becomes **urgent**: the dispatcher stops
//! backfilling younger work past it (see `stream.rs`). From that point
//! it waits only for running work to drain, which the broker bounds by
//! rejecting submissions whose estimated makespan exceeds its cap. The
//! resulting end-to-end bound is [`AgingPolicy::starvation_bound_s`]:
//! ramp time to the ceiling plus the broker's makespan cap, since a
//! freed slot is at most one capped run away. The
//! `prop_stream` property tests and the `stream` experiment's gate
//! hold every tenant's observed maximum wait under this bound.

use serde::{Deserialize, Serialize};

/// Aging knobs. Effective priority of a submission with base priority
/// `b` that has waited `w` seconds is `b + boost * floor(w / step_s)`,
/// capped at [`AgingPolicy::ceiling`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgingPolicy {
    /// Seconds of waiting per boost step.
    pub step_s: f64,
    /// Priority added per step.
    pub boost: u32,
    /// Effective-priority cap; reaching it makes a submission urgent.
    pub ceiling: u32,
}

impl Default for AgingPolicy {
    fn default() -> Self {
        AgingPolicy { step_s: 5.0, boost: 1, ceiling: 64 }
    }
}

impl AgingPolicy {
    /// Effective priority after waiting `waited_s` from base priority
    /// `base` (the 5-tuple's fourth element).
    pub(crate) fn effective_priority(&self, base: u8, waited_s: f64) -> u32 {
        let steps = if self.step_s > 0.0 && waited_s > 0.0 {
            (waited_s / self.step_s).floor() as u32
        } else {
            0
        };
        u32::from(base).saturating_add(steps.saturating_mul(self.boost)).min(self.ceiling)
    }

    /// Has a submission of `base` priority waited long enough to be
    /// urgent (backfill-blocking)?
    pub(crate) fn is_urgent(&self, base: u8, waited_s: f64) -> bool {
        self.effective_priority(base, waited_s) >= self.ceiling
    }

    /// Waiting time at which `base` reaches the ceiling (the aging
    /// ramp). Zero when the base already sits at or above the ceiling.
    pub(crate) fn ramp_s(&self, base: u8) -> f64 {
        let base = u32::from(base);
        if base >= self.ceiling || self.boost == 0 {
            return 0.0;
        }
        let deficit = self.ceiling - base;
        let steps = deficit.div_ceil(self.boost);
        f64::from(steps) * self.step_s
    }

    /// The gated wait bound for a tenant of `base` priority: aging ramp
    /// plus `max_makespan_s`, the broker's cap on one run, which an
    /// urgent submission may still wait for running work to drain. A
    /// tenant whose submission waits longer than this has starved (a
    /// gate failure).
    pub(crate) fn starvation_bound_s(&self, base: u8, max_makespan_s: f64) -> f64 {
        self.ramp_s(base) + max_makespan_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_priority_ramps_in_steps() {
        let a = AgingPolicy { step_s: 10.0, boost: 2, ceiling: 20 };
        assert_eq!(a.effective_priority(3, 0.0), 3);
        assert_eq!(a.effective_priority(3, 9.99), 3);
        assert_eq!(a.effective_priority(3, 10.0), 5);
        assert_eq!(a.effective_priority(3, 35.0), 9);
        assert_eq!(a.effective_priority(3, 1e6), 20, "capped at the ceiling");
    }

    #[test]
    fn low_priority_eventually_outranks_any_base() {
        let a = AgingPolicy::default();
        let waited = a.ramp_s(1);
        assert!(
            a.effective_priority(1, waited) >= a.effective_priority(10, 0.0),
            "aged-out low priority must outrank a fresh high-priority arrival"
        );
        assert!(a.is_urgent(1, waited));
        assert!(!a.is_urgent(1, waited - a.step_s));
    }

    #[test]
    fn ramp_is_zero_at_or_above_ceiling() {
        let a = AgingPolicy { step_s: 5.0, boost: 1, ceiling: 8 };
        assert_eq!(a.ramp_s(8), 0.0);
        assert_eq!(a.ramp_s(200), 0.0);
        assert_eq!(a.starvation_bound_s(8, 30.0), 30.0);
    }

    #[test]
    fn starvation_bound_orders_by_priority() {
        let (a, cap) = (AgingPolicy::default(), 600.0);
        assert!(a.starvation_bound_s(1, cap) > a.starvation_bound_s(5, cap));
        assert!(a.starvation_bound_s(5, cap) >= cap);
    }
}
