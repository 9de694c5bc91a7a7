//! Property tests for the streaming admission + scheduling service:
//!
//! 1. **Replay determinism** — two drains of the same scenario produce
//!    byte-identical reports (the CI stream gate's core contract).
//! 2. **Conservation under faults** — every admitted submission is
//!    accounted for across mid-stream host outages (completed or
//!    reported unplaced, never silently lost), and an all-healing
//!    fault plan leaves nothing unplaced.
//! 3. **The aging bound** — a saturating high-priority tenant cannot
//!    push a low-priority tenant's wait past
//!    [`AgingPolicy::starvation_bound_s`].

use proptest::prelude::*;
use std::sync::Arc;
use vdce_net::topology::SiteId;
use vdce_repository::accounts::AccessDomain;
use vdce_sched::service::stream::{ServiceConfig, StreamService, SubmissionRequest};
use vdce_sched::{AgingPolicy, BrokerPolicy, Quota};
use vdce_sim::arrivals::TraceSpec;
use vdce_sim::dag_gen::{layered_random, DagSpec};
use vdce_sim::pool_gen::{build_federation, FederationSpec};
use vdce_sim::stream::{run_stream, StreamScenario};
use vdce_sim::{Fault, FaultPlan};

/// A scenario small enough that a proptest case drains in milliseconds
/// but large enough to queue: several sites, every priority class and
/// access domain represented.
fn scenario(
    sites: usize,
    hosts_per_site: usize,
    tenants: usize,
    rate_per_s: f64,
    seed: u64,
) -> StreamScenario {
    StreamScenario {
        fed: FederationSpec { sites, hosts_per_site, seed, ..FederationSpec::default() },
        trace: TraceSpec { tenants, rate_per_s, horizon_s: 30.0, seed, ..TraceSpec::default() },
        dag: DagSpec { tasks: 6, ..DagSpec::default() },
        ..StreamScenario::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Property 1: the full deterministic report — placements digest,
    // per-tenant rows, percentile curves — is a pure function of the
    // scenario. Byte-identity is checked on the serialised form, the
    // same way the CI gate does it.
    #[test]
    fn replays_of_the_same_trace_are_bit_identical(
        sites in 1usize..4,
        hosts_per_site in 2usize..5,
        tenants in 4usize..12,
        rate_centi in 20u32..120,
        seed in 1u64..10_000,
    ) {
        let sc = scenario(sites, hosts_per_site, tenants, f64::from(rate_centi) / 100.0, seed);
        let a = run_stream(&sc, None);
        let b = run_stream(&sc, None);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.placements_digest, b.placements_digest);
        let bytes_a = serde_json::to_string(&a).expect("report serialises");
        let bytes_b = serde_json::to_string(&b).expect("report serialises");
        prop_assert_eq!(bytes_a, bytes_b, "serialised reports must match byte for byte");
    }

    // Property 2: host outages mid-stream never lose admitted work.
    // Victims restart and either complete or are reported unplaced —
    // `admitted == completed + unplaced` always — and when every
    // outage heals, everything eventually places and completes.
    #[test]
    fn no_admitted_submission_is_lost_under_host_faults(
        hosts_per_site in 2usize..5,
        tenants in 4usize..10,
        seed in 1u64..10_000,
        fault_picks in proptest::collection::vec((any::<u8>(), 1u32..25, 1u32..20), 1..4),
        heal_all in any::<bool>(),
    ) {
        let mut sc = scenario(2, hosts_per_site, tenants, 0.8, seed);
        let hosts: Vec<(SiteId, String)> = {
            let fed = build_federation(&sc.fed);
            (0..sc.fed.sites)
                .flat_map(|s| {
                    let site = SiteId(u16::try_from(s).unwrap());
                    fed.hosts(site).into_iter().map(move |h| (site, h))
                })
                .collect()
        };
        let faults = fault_picks
            .iter()
            .map(|&(pick, at, down_for)| {
                let (_, host) = &hosts[pick as usize % hosts.len()];
                let at = f64::from(at);
                if heal_all {
                    Fault::TransientOutage { host: host.clone(), at, down_for: f64::from(down_for) }
                } else {
                    Fault::HostCrash { host: host.clone(), at }
                }
            })
            .collect();
        sc.faults = FaultPlan { seed, faults };

        let report = run_stream(&sc, None);
        prop_assert_eq!(
            report.admitted,
            report.completed + report.unplaced,
            "every admitted submission must be accounted for"
        );
        if heal_all {
            prop_assert_eq!(report.unplaced, 0, "all outages heal, so everything must place");
        }
    }
}

/// The adversarial fairness scenario behind property 3: one site whose
/// slots a high-priority "hog" tenant saturates for the whole horizon
/// (its quota keeps it permanently at max inflight, with the overflow
/// deferred and rejected), while a low-priority "meek" tenant submits a
/// handful of jobs into the contention. Tight, explicit aging/broker
/// knobs so the starvation bound is a few tens of seconds — far shorter
/// than the hog pressure window — and a violation is observable.
fn run_saturation(hog_priority: u8, hog_gap_s: f64, seed: u64) -> vdce_sched::StreamReport {
    let aging = AgingPolicy { step_s: 0.5, boost: 1, ceiling: 16 };
    let broker = BrokerPolicy { max_makespan_s: 30.0, ..BrokerPolicy::default() };
    let cfg = ServiceConfig { aging, broker, ..ServiceConfig::default() };
    let fed = build_federation(&FederationSpec {
        sites: 1,
        hosts_per_site: 4,
        seed,
        ..FederationSpec::default()
    });
    let mut svc = StreamService::new(fed.repos, fed.net, cfg);
    let hog = svc
        .register_tenant(
            "hog",
            "pw-hog",
            hog_priority,
            AccessDomain::Global,
            Quota { max_inflight: 8 },
        )
        .expect("fresh registry");
    let meek = svc
        .register_tenant("meek", "pw-meek", 1, AccessDomain::Global, Quota { max_inflight: 2 })
        .expect("fresh registry");

    // Jobs sized to a few logical seconds of makespan on four hosts, so
    // the hog's eight inflight slots keep the site busy end to end.
    let dag = DagSpec { tasks: 6, min_size: 5_000_000, max_size: 15_000_000, ..DagSpec::default() };
    let horizon_s = 200.0;
    let mut t = 0.0;
    let mut n = 0u64;
    while t < horizon_s {
        let afg = Arc::new(layered_random(&dag, seed.wrapping_add(n)));
        svc.submit_at(
            t,
            SubmissionRequest { tenant: hog, afg, deadline_s: t + 1000.0, budget: 1e9 },
        );
        t += hog_gap_s;
        n += 1;
    }
    for (i, at) in [20.0, 80.0, 140.0].into_iter().enumerate() {
        let afg = Arc::new(layered_random(&dag, seed.wrapping_add(10_000 + i as u64)));
        svc.submit_at(
            at,
            SubmissionRequest { tenant: meek, afg, deadline_s: at + 1000.0, budget: 1e9 },
        );
    }
    svc.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Property 3: weighted-fair aging holds its bound. However hard the
    // high-priority tenant pushes, the low-priority tenant's worst wait
    // stays under ramp + drain grace, and its work completes.
    #[test]
    fn saturating_hog_cannot_starve_low_priority_past_the_aging_bound(
        hog_priority in 4u8..=8,
        hog_gap_centi in 25u32..=100,
        seed in 1u64..10_000,
    ) {
        let report = run_saturation(hog_priority, f64::from(hog_gap_centi) / 100.0, seed);

        let meek_row = report
            .tenants
            .iter()
            .find(|t| t.priority == 1)
            .expect("meek tenant reported");
        let hog_row = report
            .tenants
            .iter()
            .find(|t| t.priority == hog_priority)
            .expect("hog tenant reported");

        // The hog really saturated: far more submissions than the site
        // could hold at once, enough to overflow its quota.
        prop_assert!(hog_row.submitted > 50, "hog submitted {}", hog_row.submitted);
        prop_assert!(
            report.deferred > 0 || !report.rejected.is_empty(),
            "saturation must overflow the hog's quota"
        );

        // The bound itself: the meek tenant finished its work and its
        // worst wait stayed under the advertised starvation bound.
        prop_assert!(meek_row.completed >= 1, "meek work must complete under contention");
        prop_assert!(
            meek_row.max_wait_s <= meek_row.wait_bound_s,
            "meek waited {:.1}s, past the advertised bound {:.1}s",
            meek_row.max_wait_s,
            meek_row.wait_bound_s
        );
        prop_assert!(!meek_row.starved);
        prop_assert_eq!(report.starved_tenants, 0);
    }
}
