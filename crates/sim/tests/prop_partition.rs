//! Property tests for site-level fault tolerance (DESIGN.md §12):
//!
//! (a) a healed inter-site partition loses nothing — every task
//!     completes, no site is ever quarantined, and the replayed
//!     [`RecoveryReport`] is bit-identical across replays;
//! (b) a permanent site outage under cross-site checkpoint replicas
//!     never re-executes work that was already replicated off-site:
//!     every restart resumes from at least the newest checkpoint that
//!     still has a ground-truth-reachable copy.

use proptest::prelude::*;
use vdce_runtime::CheckpointPolicy;
use vdce_sim::dag_gen::{layered_random, DagSpec};
use vdce_sim::pool_gen::{build_federation, Federation, FederationSpec, WanShape};
use vdce_sim::replay::{run_fault_scenario, ReplayConfig, ReplayRequest};
use vdce_sim::scenario::{schedule_estimate, Scenario};
use vdce_sim::{Fault, FaultPlan, RecoveryReport};

/// The recovery report of `plan` on `scenario`, unobserved and un-journaled.
fn recovery_report(
    name: &str,
    scenario: &Scenario,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
) -> RecoveryReport {
    let (federation, afg, config) = (&scenario.federation, &scenario.afg, cfg);
    run_fault_scenario(
        name,
        &ReplayRequest { federation, afg, plan, config, obs: None, durable: None },
    )
}

fn fed(sites: usize, hosts: usize, seed: u64) -> Federation {
    build_federation(&FederationSpec {
        sites,
        hosts_per_site: hosts,
        heterogeneity: 2.0,
        group_size: 4,
        shape: WanShape::Metro(sites),
        seed,
        ..FederationSpec::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // (a) Partition-with-heal: site 0 splits from the rest of the
    // federation for a window mid-run, then the cut heals. Both sides
    // stay alive, so nothing may fail, no site may be quarantined, and
    // the whole episode must replay bit-identically.
    #[test]
    fn healed_partition_loses_nothing(
        sites in 2usize..4,
        hosts_per_site in 3usize..5,
        fed_seed in 1u64..500,
        dag_seed in 1u64..500,
        tasks in 8usize..16,
        at_pct in 15u32..50,
        dur_pct in 10u32..40,
    ) {
        let federation = fed(sites, hosts_per_site, fed_seed);
        let afg = layered_random(&DagSpec { tasks, width: 3, ..DagSpec::default() }, dag_seed);
        let scenario = Scenario { name: "prop-partition", federation, afg };
        let (est, _) = schedule_estimate(&scenario);
        let mut cfg = ReplayConfig::scaled_to(est);
        cfg.scheduler.spread_critical = true;
        let plan = FaultPlan {
            seed: 13,
            faults: vec![Fault::SitePartition {
                a: vec![0],
                b: (1..sites as u16).collect(),
                at: f64::from(at_pct) / 100.0 * est,
                duration: f64::from(dur_pct) / 100.0 * est,
            }],
        };

        let report = recovery_report("prop-partition", &scenario, &plan, &cfg);
        prop_assert_eq!(report.tasks_failed, 0, "a healed partition may not lose tasks");
        prop_assert_eq!(report.tasks_completed, scenario.afg.tasks.len() as u64);
        prop_assert_eq!(
            report.sites_quarantined, 0,
            "both sides stayed alive; nothing to quarantine"
        );

        let again = recovery_report("prop-partition", &scenario, &plan, &cfg);
        let j1 = serde_json::to_string(&report).unwrap();
        let j2 = serde_json::to_string(&again).unwrap();
        prop_assert_eq!(j1, j2, "partition replay must be bit-identical");
    }

    // (b) Site crash with cross-site replicas: when the busiest site
    // dies for good, every restart resumes from at least the newest
    // checkpoint that still has a copy on a ground-truth-up host — work
    // replicated off-site before the outage is never re-executed.
    #[test]
    fn replicated_checkpoints_are_never_reexecuted(
        sites in 2usize..4,
        hosts_per_site in 3usize..5,
        fed_seed in 1u64..500,
        dag_seed in 1u64..500,
        tasks in 8usize..16,
        crash_pct in 15u32..60,
    ) {
        let federation = fed(sites, hosts_per_site, fed_seed);
        let afg = layered_random(&DagSpec { tasks, width: 3, ..DagSpec::default() }, dag_seed);
        let scenario = Scenario { name: "prop-replica", federation, afg };
        let (est, busiest) = schedule_estimate(&scenario);
        let site = scenario
            .federation
            .topology
            .site_of_host(&busiest)
            .expect("busiest host has a site")
            .0;
        let cfg = ReplayConfig {
            checkpoint: CheckpointPolicy::every(0.1, 0.002).with_replicas(1 << 16),
            ..ReplayConfig::scaled_to(est)
        };
        let plan = FaultPlan {
            seed: 19,
            faults: vec![Fault::SiteOutage {
                site,
                at: f64::from(crash_pct) / 100.0 * est,
                down_for: None,
            }],
        };

        let (federation, afg, config) = (&scenario.federation, &scenario.afg, &cfg);
        let req = ReplayRequest { federation, afg, plan: &plan, config, obs: None, durable: None };
        let out = req.run();
        prop_assert_eq!(out.tasks_failed, 0, "survivors must absorb the orphaned work");
        prop_assert_eq!(out.tasks_completed, scenario.afg.tasks.len() as u64);
        for (resumed, best_reachable) in &out.resumes {
            prop_assert!(
                resumed + 1e-9 >= *best_reachable,
                "restart resumed from {resumed} but a replica at {best_reachable} survived"
            );
        }
    }
}
