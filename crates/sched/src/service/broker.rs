//! Nimrod/G-style deadline-and-budget admission broker.
//!
//! Nimrod/G schedules parameter-sweep work over a computational economy:
//! every job carries a *deadline* and a *budget*, and the broker only
//! takes work it can finish in time at a price the user will pay
//! (PAPERS.md). This module is that decision for one submission: given
//! the trial placement the service just computed (the real scheduler's
//! table, not a guess), estimate completion time and cost and return
//! admit / defer / reject.
//!
//! Cost model: CPU-seconds. A placement that runs a task for `p`
//! predicted seconds on `h` hosts costs `p × h × cost_per_cpu_s`,
//! multiplied by [`BrokerPolicy::remote_cost_factor`] when the chosen
//! site is not the submission's front-end site — remote cycles are
//! someone else's machines and meter higher, which is what steers
//! budget-tight submissions onto local resources.

use crate::allocation::AllocationTable;
use serde::{Deserialize, Serialize};
use vdce_net::topology::SiteId;

/// Broker knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrokerPolicy {
    /// Cost of one CPU-second at the local site.
    pub cost_per_cpu_s: f64,
    /// Multiplier on remote-site CPU-seconds (≥ 1 meters remote cycles
    /// above local ones).
    pub remote_cost_factor: f64,
    /// Hard cap on a single submission's estimated makespan. Oversized
    /// submissions are rejected outright; the cap is what bounds how
    /// long an urgent (fully aged) submission can wait for running work
    /// to drain, so the aging starvation bound stays finite.
    pub max_makespan_s: f64,
}

impl Default for BrokerPolicy {
    fn default() -> Self {
        BrokerPolicy { cost_per_cpu_s: 1.0, remote_cost_factor: 2.0, max_makespan_s: 600.0 }
    }
}

/// Why the broker turned a submission away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Estimated cost exceeds the submission's budget.
    OverBudget,
    /// Even an immediate start cannot meet the deadline.
    DeadlineInfeasible,
    /// Estimated makespan exceeds [`BrokerPolicy::max_makespan_s`].
    Oversized,
    /// No feasible placement (every candidate host down or incapable).
    NoFeasiblePlacement,
    /// Tenant unknown to the registry.
    UnknownTenant,
    /// Tenant quota exhausted and the defer allowance used up.
    QuotaExhausted,
    /// The AFG reads a dataset, and the service holds no dataset catalog.
    UnknownDataset,
}

impl RejectReason {
    /// Stable snake_case label for metrics and artifacts.
    pub(crate) fn label(self) -> &'static str {
        match self {
            RejectReason::OverBudget => "over_budget",
            RejectReason::DeadlineInfeasible => "deadline_infeasible",
            RejectReason::Oversized => "oversized",
            RejectReason::NoFeasiblePlacement => "no_feasible_placement",
            RejectReason::UnknownTenant => "unknown_tenant",
            RejectReason::QuotaExhausted => "quota_exhausted",
            RejectReason::UnknownDataset => "unknown_dataset",
        }
    }
}

/// The broker's verdict on one submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BrokerDecision {
    /// Enqueue it: deadline and budget hold on the trial placement.
    Admit {
        /// Estimated makespan of the trial placement, seconds.
        est_makespan_s: f64,
        /// Estimated cost in budget units.
        est_cost: f64,
    },
    /// Turn it away.
    Reject(RejectReason),
}

/// Estimated cost of `table` under `policy` with front-end site
/// `local`: predicted CPU-seconds metered per placement, remote sites
/// at the remote factor. Deterministic: placements iterate in task-id
/// order, so the float sum has a fixed association order.
pub(crate) fn estimate_cost(table: &AllocationTable, local: SiteId, policy: &BrokerPolicy) -> f64 {
    let mut cost = 0.0;
    for p in table.iter() {
        let factor = if p.site == local { 1.0 } else { policy.remote_cost_factor };
        cost += p.predicted_seconds * p.hosts.len() as f64 * policy.cost_per_cpu_s * factor;
    }
    cost
}

impl BrokerPolicy {
    /// Decide one submission. `now` is the logical arrival time,
    /// `est_makespan_s` the simulated makespan of the trial placement.
    pub(crate) fn decide(
        &self,
        now: f64,
        deadline: f64,
        budget: f64,
        est_makespan_s: f64,
        est_cost: f64,
    ) -> BrokerDecision {
        if est_makespan_s > self.max_makespan_s {
            return BrokerDecision::Reject(RejectReason::Oversized);
        }
        if est_cost > budget {
            return BrokerDecision::Reject(RejectReason::OverBudget);
        }
        if now + est_makespan_s > deadline {
            return BrokerDecision::Reject(RejectReason::DeadlineInfeasible);
        }
        BrokerDecision::Admit { est_makespan_s, est_cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::TaskPlacement;
    use vdce_afg::TaskId;

    fn table(rows: &[(u32, u16, usize, f64)]) -> AllocationTable {
        let mut t = AllocationTable::new("t");
        for &(id, site, hosts, secs) in rows {
            t.insert(TaskPlacement {
                task: TaskId(id),
                task_name: format!("t{id}").into(),
                site: SiteId(site),
                hosts: (0..hosts).map(|h| format!("h{h}")).collect::<Vec<_>>().into(),
                predicted_seconds: secs,
                data_sources: vec![],
            });
        }
        t
    }

    #[test]
    fn cost_meters_remote_cycles_higher() {
        let policy =
            BrokerPolicy { cost_per_cpu_s: 2.0, remote_cost_factor: 3.0, ..Default::default() };
        let t = table(&[(0, 0, 1, 10.0), (1, 1, 2, 5.0)]);
        // local: 10×1×2 = 20; remote: 5×2×2×3 = 60.
        assert_eq!(estimate_cost(&t, SiteId(0), &policy), 80.0);
    }

    #[test]
    fn decisions_cover_every_branch() {
        let p = BrokerPolicy { max_makespan_s: 100.0, ..Default::default() };
        assert_eq!(
            p.decide(0.0, 1e9, 1e9, 200.0, 1.0),
            BrokerDecision::Reject(RejectReason::Oversized)
        );
        assert_eq!(
            p.decide(0.0, 1e9, 5.0, 50.0, 6.0),
            BrokerDecision::Reject(RejectReason::OverBudget)
        );
        assert_eq!(
            p.decide(10.0, 40.0, 1e9, 50.0, 1.0),
            BrokerDecision::Reject(RejectReason::DeadlineInfeasible)
        );
        assert_eq!(
            p.decide(10.0, 100.0, 1e9, 50.0, 1.0),
            BrokerDecision::Admit { est_makespan_s: 50.0, est_cost: 1.0 }
        );
    }

    #[test]
    fn reject_labels_are_stable() {
        assert_eq!(RejectReason::OverBudget.label(), "over_budget");
        assert_eq!(RejectReason::QuotaExhausted.label(), "quota_exhausted");
    }
}
