//! Property tests for the fault-injection replay engine: an
//! all-transient fault plan must never leave permanent damage. Every
//! task completes, no host is quarantined at the end, and the whole
//! outcome is a pure function of `(federation, afg, plan, config)`.

use proptest::prelude::*;
use vdce_sim::dag_gen::{layered_random, DagSpec};
use vdce_sim::pool_gen::{build_federation, Federation, FederationSpec, WanShape};
use vdce_sim::replay::{ReplayConfig, ReplayRequest};
use vdce_sim::scenario::{schedule_estimate, Scenario};
use vdce_sim::{Fault, FaultPlan};

fn fed(sites: usize, hosts: usize, seed: u64) -> Federation {
    build_federation(&FederationSpec {
        sites,
        hosts_per_site: hosts,
        heterogeneity: 2.0,
        group_size: 4,
        shape: WanShape::Star,
        seed,
        ..FederationSpec::default()
    })
}

/// Expand the generated fault descriptors into concrete transient
/// faults scaled to the schedule estimate. `kind` picks the variant,
/// `frac` places it inside the run, `host_pick`/`site_pick` choose the
/// victim.
fn transient_faults(
    descriptors: &[u32],
    hosts: &[String],
    sites: usize,
    est: f64,
    tick: f64,
) -> Vec<Fault> {
    descriptors
        .iter()
        .map(|d| {
            let [kind, frac, host_pick, site_pick] = d.to_le_bytes();
            let at = est * f64::from(frac % 64) / 64.0;
            let host = hosts[host_pick as usize % hosts.len()].clone();
            let a = u16::try_from(site_pick as usize % sites).unwrap();
            let b = u16::try_from((site_pick as usize + 1) % sites).unwrap();
            match kind % 4 {
                0 => Fault::TransientOutage { host, at, down_for: 4.0 * tick },
                1 => Fault::LoadSpike { host, at, height: 8.0, duration: 6.0 * tick },
                2 => Fault::DegradedLink {
                    a,
                    b,
                    at,
                    duration: 6.0 * tick,
                    latency_factor: 10.0,
                    bandwidth_factor: 0.1,
                },
                _ => Fault::FlakyLink { a, b, at, duration: 6.0 * tick, drop_probability: 0.3 },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // An all-transient plan (outages that end, spikes that subside,
    // links that heal) leaves the federation whole: every task reaches
    // `Completed` and no host remains quarantined.
    #[test]
    fn transient_faults_leave_no_permanent_damage(
        sites in 2usize..4,
        hosts_per_site in 2usize..4,
        fed_seed in 1u64..1000,
        dag_seed in 1u64..1000,
        tasks in 8usize..20,
        plan_seed in any::<u64>(),
        descriptors in proptest::collection::vec(any::<u32>(), 1..5),
    ) {
        let federation = fed(sites, hosts_per_site, fed_seed);
        let afg = layered_random(&DagSpec { tasks, width: 3, ..DagSpec::default() }, dag_seed);
        let scenario = Scenario { name: "prop", federation, afg };
        let (est, _) = schedule_estimate(&scenario);
        let cfg = ReplayConfig::scaled_to(est);

        let all_hosts: Vec<String> = (0..sites)
            .flat_map(|s| {
                scenario.federation.hosts(vdce_net::topology::SiteId(s as u16))
            })
            .collect();
        let faults = transient_faults(&descriptors, &all_hosts, sites, est, cfg.tick);
        prop_assert!(faults.iter().all(Fault::is_transient));
        let plan = FaultPlan { seed: plan_seed, faults };

        let (federation, afg, config) = (&scenario.federation, &scenario.afg, &cfg);
        let req = ReplayRequest { federation, afg, plan: &plan, config, obs: None, durable: None };
        let out = req.run();
        prop_assert_eq!(out.tasks_failed, 0, "no task may fail under transient faults");
        prop_assert_eq!(
            out.tasks_completed,
            scenario.afg.tasks.len() as u64,
            "every task must complete"
        );
        prop_assert_eq!(
            out.quarantined_at_end, 0,
            "transient hosts must all be re-admitted"
        );

        // Determinism rides along: the same inputs give the same outcome.
        let again = req.run();
        prop_assert_eq!(out, again);
    }
}
