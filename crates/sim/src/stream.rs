//! Streaming-service experiment harness: Poisson trace in, replayable
//! [`StreamReport`] out.
//!
//! Ties the pieces together the way the `stream` experiment and the property
//! tests need them:
//!
//! 1. build a seeded [`Federation`](crate::pool_gen::Federation);
//! 2. stand up a [`SubmissionGateway`] (the runtime's authenticated
//!    front door) over the federation's repositories;
//! 3. register the scenario's tenants — priorities and access domains
//!    cycle through fixed palettes so every priority class and domain
//!    type is always represented;
//! 4. feed it a materialised [`poisson_trace`], converting each
//!    arrival's relative slacks into an absolute deadline and budget by
//!    scaling the generated AFG's *nominal* compute time (base-
//!    processor seconds of its critical path input);
//! 5. map the scenario's [`FaultPlan`] onto host down/up injections;
//! 6. drain, and hand back the service's deterministic report.
//!
//! Same scenario, same report — bit for bit. That property is what the
//! replay CI gate and `prop_stream` lean on.

use crate::arrivals::{poisson_trace, TraceSpec};
use crate::dag_gen::{layered_random, DagSpec};
use crate::faults::{Fault, FaultPlan};
use crate::pool_gen::{build_federation, FederationSpec};
use std::sync::Arc;
use vdce_net::topology::SiteId;
use vdce_obs::MetricsRegistry;
use vdce_repository::accounts::AccessDomain;
use vdce_runtime::submission::SubmissionGateway;
use vdce_sched::service::stream::{ServiceConfig, StreamReport, StreamService};
use vdce_sched::service::tenant::Quota;
use vdce_sched::view::SiteView;

/// Base priorities tenants cycle through (the 5-tuple's fourth field).
pub const PRIORITY_PALETTE: [u8; 4] = [1, 2, 4, 8];

/// Access domains tenants cycle through. Global twice: most grid users
/// want the whole federation.
pub const DOMAIN_PALETTE: [AccessDomain; 4] =
    [AccessDomain::Global, AccessDomain::Neighbours, AccessDomain::Global, AccessDomain::LocalSite];

/// A complete streaming experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamScenario {
    /// The federation to schedule over.
    pub fed: FederationSpec,
    /// The Poisson submission trace.
    pub trace: TraceSpec,
    /// Shape of each submission's AFG (its seed comes per-arrival from
    /// the trace).
    pub dag: DagSpec,
    /// Service knobs: quotas, aging, broker.
    pub cfg: ServiceConfig,
    /// Per-tenant admission quota.
    pub quota: Quota,
    /// Host faults to replay mid-stream (link and load faults are the
    /// replay harness's business; the service consumes host outages).
    pub faults: FaultPlan,
}

impl Default for StreamScenario {
    fn default() -> Self {
        StreamScenario {
            fed: FederationSpec::default(),
            trace: TraceSpec::default(),
            dag: DagSpec { tasks: 12, ..DagSpec::default() },
            cfg: ServiceConfig::default(),
            quota: Quota::default(),
            faults: FaultPlan::empty(),
        }
    }
}

/// Deterministic tenant name for index `i`.
pub fn tenant_name(i: usize) -> String {
    format!("tenant{i}")
}

/// Deterministic tenant password for index `i` (experiments have no
/// secrets; the point is that the authentication path runs).
pub fn tenant_password(i: usize) -> String {
    format!("pw-{i}")
}

/// Nominal compute seconds of `afg`: base-processor time of every task
/// summed, read from the front-end site's task-performance database.
/// The scale factor deadlines and budgets hang off.
pub fn nominal_seconds(view: &SiteView, afg: &vdce_afg::Afg) -> f64 {
    afg.task_ids()
        .map(|id| {
            let t = afg.task(id);
            view.tasks.base_time(&t.library_task, t.problem_size).unwrap_or(0.0)
        })
        .sum()
}

/// Run a streaming scenario end to end. Deterministic in the scenario.
/// With `metrics`, the drained service's counters are exported into it
/// (per-class aggregates, rejection reasons, the time-to-placement
/// histogram); the report is the same either way.
pub fn run_stream(sc: &StreamScenario, metrics: Option<&MetricsRegistry>) -> StreamReport {
    let fed = build_federation(&sc.fed);
    let front_view = fed.view(SiteId(0));
    let topology = fed.topology.clone();
    let mut gw = SubmissionGateway::new(StreamService::new(fed.repos, fed.net, sc.cfg));

    for i in 0..sc.trace.tenants {
        gw.register_tenant(
            &tenant_name(i),
            &tenant_password(i),
            PRIORITY_PALETTE[i % PRIORITY_PALETTE.len()],
            DOMAIN_PALETTE[i % DOMAIN_PALETTE.len()],
            sc.quota,
        )
        .expect("tenant names are unique");
    }

    for a in poisson_trace(&sc.trace) {
        let afg = Arc::new(layered_random(&sc.dag, a.dag_seed));
        let nominal = nominal_seconds(&front_view, &afg).max(1e-6);
        let deadline = a.at_s + a.deadline_slack * nominal;
        let budget = a.budget_slack * nominal * sc.cfg.broker.cost_per_cpu_s;
        gw.submit(
            a.at_s,
            &tenant_name(a.tenant),
            &tenant_password(a.tenant),
            afg,
            deadline,
            budget,
        )
        .expect("registered tenants authenticate");
    }

    inject_host_faults(gw.service_mut(), &topology, &sc.faults);
    let report = gw.drain();
    if let Some(reg) = metrics {
        gw.service().export_metrics(reg);
    }
    report
}

/// Translate a fault plan's host outages into service down/up events.
/// Only host-level faults apply — the streaming service models hosts,
/// not links; site outages expand to every host of the site.
pub(crate) fn inject_host_faults(
    svc: &mut StreamService,
    topology: &vdce_net::topology::Topology,
    plan: &FaultPlan,
) {
    let site_of = |host: &str| topology.site_of_host(host);
    for f in &plan.faults {
        match f {
            Fault::HostCrash { host, at } => {
                if let Some(site) = site_of(host) {
                    svc.inject_host_down_at(*at, site, host);
                }
            }
            Fault::TransientOutage { host, at, down_for } => {
                if let Some(site) = site_of(host) {
                    svc.inject_host_down_at(*at, site, host);
                    svc.inject_host_up_at(*at + *down_for, site, host);
                }
            }
            Fault::SiteOutage { site, at, down_for } => {
                let site = SiteId(*site);
                let hosts = topology.site(site).map(|s| s.hosts.clone()).unwrap_or_default();
                for host in &hosts {
                    svc.inject_host_down_at(*at, site, host);
                    if let Some(d) = down_for {
                        svc.inject_host_up_at(*at + *d, site, host);
                    }
                }
            }
            // Load and link faults shape the replay harness's world,
            // not the service's host model.
            Fault::LoadSpike { .. }
            | Fault::DegradedLink { .. }
            | Fault::FlakyLink { .. }
            | Fault::SitePartition { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StreamScenario {
        StreamScenario {
            fed: FederationSpec { sites: 2, hosts_per_site: 3, ..FederationSpec::default() },
            trace: TraceSpec {
                tenants: 6,
                rate_per_s: 0.4,
                horizon_s: 40.0,
                ..TraceSpec::default()
            },
            dag: DagSpec { tasks: 6, ..DagSpec::default() },
            ..StreamScenario::default()
        }
    }

    #[test]
    fn scenario_runs_and_admits_work() {
        let report = run_stream(&small(), None);
        assert!(report.submitted > 0);
        assert!(report.admitted > 0, "a sane scenario admits something");
        assert_eq!(report.admitted, report.completed + report.unplaced);
    }

    #[test]
    fn replay_is_bit_identical() {
        let sc = small();
        let a = run_stream(&sc, None);
        let b = run_stream(&sc, None);
        assert_eq!(a, b);
        assert_eq!(a.placements_digest, b.placements_digest);
    }

    /// `placements_digest` of two no-fault scenarios, recorded at
    /// `b239980` (service-lifetime prediction memo): scoping the memo to
    /// the pending submission must not move a placement. `queued` offers
    /// more than two 2-host sites drain, so its submissions wait and are
    /// re-selected by `refresh_pending` on every load change. (Trace seeds
    /// 4 and 5 of `queued` would not do: there two submissions share a
    /// `(library task, problem size)` pair, which the service-lifetime
    /// memo priced at the earlier one's load.)
    #[test]
    fn no_fault_placements_are_pinned() {
        let mut queued = small();
        queued.fed.hosts_per_site = 2;
        queued.trace.rate_per_s = 2.0;
        queued.trace.seed = 3;
        for (sc, want) in [(small(), 0x43b8_1bd0_411f_914cu64), (queued, 0x3c8a_4205_9b6a_30bc)] {
            let report = run_stream(&sc, None);
            assert!(report.admitted > 0);
            assert_eq!(report.placements_digest, want, "{:#018x}", report.placements_digest);
        }
    }

    /// `placements_digest` of the faulted paths — host down and up, the
    /// restart of every run on a dead host, the release of its slots and
    /// host loads — recorded at `2e9eb9a`, before the service kept one
    /// record per submission. Each plan crashes a site-0 host for good,
    /// takes a site-1 host down for a while, and then all of site 1,
    /// once for a while and once for good.
    #[test]
    fn fault_placements_are_pinned() {
        let mut queued = small();
        queued.fed.hosts_per_site = 2;
        queued.trace.rate_per_s = 2.0;
        queued.trace.seed = 3;
        // Each fault lands on an arrival's instant, after the arrival
        // (faults are injected last), so the run it just started is live.
        let plan = |sc: &StreamScenario, site_down_for| {
            let fed = build_federation(&sc.fed);
            let at: Vec<f64> = poisson_trace(&sc.trace).iter().map(|a| a.at_s).collect();
            FaultPlan {
                seed: 1,
                faults: vec![
                    Fault::HostCrash { host: fed.hosts(SiteId(0))[0].clone(), at: at[0] },
                    Fault::TransientOutage {
                        host: fed.hosts(SiteId(1))[1].clone(),
                        at: at[1],
                        down_for: 10.0,
                    },
                    Fault::SiteOutage { site: 1, at: at[5], down_for: site_down_for },
                ],
            }
        };
        let mut got = Vec::new();
        for base in [small(), queued] {
            for site_down_for in [Some(8.0), None] {
                let mut sc = base.clone();
                sc.faults = plan(&sc, site_down_for);
                let report = run_stream(&sc, None);
                assert!(report.restarts > 0, "the plan must hit a running submission");
                got.push(report.placements_digest);
            }
        }
        let want: [u64; 4] = [
            0xf47c_d244_03a0_24d4,
            0x473a_a320_6027_b145,
            0x645f_089f_be71_a28b,
            0xb181_8691_5201_c2c5,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }

    #[test]
    fn different_trace_seed_changes_the_run() {
        let sc = small();
        let mut sc2 = sc.clone();
        sc2.trace.seed += 1;
        assert_ne!(
            run_stream(&sc, None).placements_digest,
            run_stream(&sc2, None).placements_digest,
            "the digest must be sensitive to the trace"
        );
    }

    #[test]
    fn transient_outage_mid_stream_loses_nothing() {
        let mut sc = small();
        let host = {
            let fed = build_federation(&sc.fed);
            fed.hosts(SiteId(0))[0].clone()
        };
        sc.faults = FaultPlan {
            seed: 1,
            faults: vec![Fault::TransientOutage { host, at: 5.0, down_for: 20.0 }],
        };
        let report = run_stream(&sc, None);
        assert_eq!(
            report.admitted,
            report.completed + report.unplaced,
            "every admitted submission is accounted for"
        );
        assert_eq!(report.unplaced, 0, "the outage heals, so everything finishes");
    }
}
