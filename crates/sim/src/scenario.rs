//! Named experiment scenarios: fixed (federation, workload) pairs shared
//! by tests, examples and benches so results are comparable across runs
//! and documentation can reference them by name — plus the named
//! [`FaultScenario`]s the `faults` experiment replays (a scenario, a [`FaultPlan`]
//! whose injection times are fractions of the estimated fault-free
//! makespan, and a clock-scaled [`ReplayConfig`]).

use crate::dag_gen::{fork_join, gauss_elim, layered_random, DagSpec};
use crate::faults::{Fault, FaultPlan, WeibullArrivalSpec};
use crate::pool_gen::{build_federation, Federation, FederationSpec, WanShape};
use crate::replay::{ReplayConfig, ReplayRequest};
use std::collections::BTreeMap;
use vdce_afg::Afg;
use vdce_runtime::CheckpointPolicy;
use vdce_sched::{evaluate, site_schedule, SchedRequest, SchedulerConfig};

/// A named, reproducible experiment setup.
pub struct Scenario {
    /// Scenario name (stable identifier used in docs).
    pub name: &'static str,
    /// The federation.
    pub federation: Federation,
    /// The workload.
    pub afg: Afg,
}

/// Single campus site, 4 hosts, small layered DAG — the smoke-test
/// scenario.
pub(crate) fn campus_smoke() -> Scenario {
    Scenario {
        name: "campus-smoke",
        federation: build_federation(&FederationSpec {
            sites: 1,
            hosts_per_site: 4,
            heterogeneity: 2.0,
            seed: 100,
            ..FederationSpec::default()
        }),
        afg: layered_random(&DagSpec { tasks: 20, width: 4, ..DagSpec::default() }, 100),
    }
}

/// Two near-identical campuses joined by a cheap metro link, same
/// workload as [`campus_smoke`] — the federation where cross-site
/// placements genuinely tie, so recovery-aware critical-path spreading
/// ([`SchedulerConfig::spread_critical`]) has real choices to make.
pub(crate) fn two_campus() -> Scenario {
    Scenario {
        name: "two-campus",
        federation: build_federation(&FederationSpec {
            sites: 2,
            hosts_per_site: 4,
            heterogeneity: 2.0,
            shape: WanShape::Metro(1),
            seed: 100,
            ..FederationSpec::default()
        }),
        afg: layered_random(&DagSpec { tasks: 20, width: 4, ..DagSpec::default() }, 100),
    }
}

/// Six metro-clustered sites, 80-task layered DAG — a wide-area
/// scheduling scenario.
pub(crate) fn wide_area() -> Scenario {
    Scenario {
        name: "wide-area",
        federation: build_federation(&FederationSpec {
            sites: 6,
            hosts_per_site: 6,
            heterogeneity: 6.0,
            shape: WanShape::Metro(3),
            seed: 11,
            ..FederationSpec::default()
        }),
        afg: layered_random(&DagSpec { tasks: 80, width: 8, ..DagSpec::default() }, 21),
    }
}

/// Three sites (two sensor, one command), fork-join surveillance
/// pipeline — the Rome-Laboratory-flavoured scenario.
pub(crate) fn c3i_surveillance() -> Scenario {
    Scenario {
        name: "c3i-surveillance",
        federation: build_federation(&FederationSpec {
            sites: 3,
            hosts_per_site: 3,
            heterogeneity: 3.0,
            shape: WanShape::Star,
            seed: 42,
            ..FederationSpec::default()
        }),
        afg: fork_join(2, 3, &DagSpec::default(), 42),
    }
}

/// Three near-flat sites in one metro cluster — the site-failure
/// scenario: speeds are close enough that losing a whole site costs
/// capacity rather than the only fast host, and the metro links are
/// cheap enough that cross-site checkpoint replicas land quickly.
pub(crate) fn metro_trio() -> Scenario {
    Scenario {
        name: "metro-trio",
        federation: build_federation(&FederationSpec {
            sites: 3,
            hosts_per_site: 4,
            heterogeneity: 1.5,
            shape: WanShape::Metro(3),
            seed: 23,
            ..FederationSpec::default()
        }),
        afg: layered_random(&DagSpec { tasks: 30, width: 6, ..DagSpec::default() }, 23),
    }
}

/// Gaussian-elimination task graph on a ring federation — the classic
/// dependency-heavy scheduling benchmark.
pub(crate) fn gauss_benchmark() -> Scenario {
    Scenario {
        name: "gauss-benchmark",
        federation: build_federation(&FederationSpec {
            sites: 4,
            hosts_per_site: 4,
            heterogeneity: 4.0,
            shape: WanShape::Ring,
            seed: 7,
            ..FederationSpec::default()
        }),
        afg: gauss_elim(8, &DagSpec::default(), 7),
    }
}

/// Schedule a scenario once and return `(estimated fault-free makespan,
/// busiest host)` — the anchors fault plans hang injection times and
/// crash victims on. Deterministic; ties on placement count go to the
/// lexicographically smallest host.
pub fn schedule_estimate(s: &Scenario) -> (f64, String) {
    let (views, afg, net) = (s.federation.views(), &s.afg, &s.federation.net);
    let (local, remotes, config) = (&views[0], &views[1..], &SchedulerConfig::default());
    let req = SchedRequest { afg, local, remotes, net, config, data: None, metrics: None };
    let table = site_schedule(&req).expect("named scenarios schedule");
    let levels = local.levels(afg).expect("named scenarios are DAGs");
    let makespan = evaluate(afg, &table, net, &levels, None).expect("complete tables evaluate");
    let makespan = makespan.makespan;
    let mut counts: BTreeMap<&String, usize> = BTreeMap::new();
    for p in table.iter() {
        for h in p.hosts.iter() {
            *counts.entry(h).or_default() += 1;
        }
    }
    let busiest = counts
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(h, _)| (*h).clone())
        .expect("non-empty table");
    (makespan, busiest)
}

/// A named fault-injection experiment: scenario + plan + replay config.
pub struct FaultScenario {
    /// Stable identifier (used in `BENCH_faults.json`).
    pub name: &'static str,
    /// The workload and federation being disturbed.
    pub scenario: Scenario,
    /// What goes wrong.
    pub plan: FaultPlan,
    /// Clock-scaled replay tunables.
    pub config: ReplayConfig,
}

impl FaultScenario {
    /// The replay of this scenario as a request with neither option set.
    /// Set its `obs` / `durable` fields, then run it with its fault-free
    /// twin as `run_fault_scenario(self.name, &req)`; the report is the
    /// same bit for bit whatever the two options are.
    pub fn request(&self) -> ReplayRequest<'_> {
        let (Scenario { federation, afg, .. }, plan) = (&self.scenario, &self.plan);
        ReplayRequest { federation, afg, plan, config: &self.config, obs: None, durable: None }
    }
}

/// Crash the busiest host of the smoke workload a quarter of the way in
/// — the acceptance scenario: every task must complete, migrated off the
/// dead host, with makespan inflation below 2×.
pub fn crash_mid_run() -> FaultScenario {
    let scenario = campus_smoke();
    let (est, victim) = schedule_estimate(&scenario);
    FaultScenario {
        name: "crash-mid-run",
        plan: FaultPlan {
            seed: 17,
            faults: vec![Fault::HostCrash { host: victim, at: 0.25 * est }],
        },
        config: ReplayConfig::scaled_to(est),
        scenario,
    }
}

/// [`crash_mid_run`]'s exact twin with checkpointing on: same workload,
/// same victim, same crash time — the only difference is the
/// [`CheckpointPolicy`], so the inflation delta between the two is the
/// value of checkpoint-restart and nothing else.
pub fn crash_mid_run_checkpointed() -> FaultScenario {
    let scenario = campus_smoke();
    let (est, victim) = schedule_estimate(&scenario);
    FaultScenario {
        name: "crash-mid-run-ckpt",
        plan: FaultPlan {
            seed: 17,
            faults: vec![Fault::HostCrash { host: victim, at: 0.25 * est }],
        },
        config: ReplayConfig {
            checkpoint: CheckpointPolicy::every(0.1, 0.002),
            ..ReplayConfig::scaled_to(est)
        },
        scenario,
    }
}

/// Crash the busiest host of the [`two_campus`] federation a quarter in
/// — the restart-from-zero twin of [`crash_spread_checkpointed`].
pub(crate) fn crash_two_campus() -> FaultScenario {
    let scenario = two_campus();
    let (est, victim) = schedule_estimate(&scenario);
    FaultScenario {
        name: "crash-two-campus",
        plan: FaultPlan {
            seed: 19,
            faults: vec![Fault::HostCrash { host: victim, at: 0.25 * est }],
        },
        config: ReplayConfig::scaled_to(est),
        scenario,
    }
}

/// Checkpointing *plus* recovery-aware placement on [`two_campus`]: the
/// scheduler spreads critical-path tasks across distinct hosts up front
/// (the flat two-site federation actually has near-tied alternatives to
/// spread over), so the crash of any single host intersects less of the
/// critical path.
pub(crate) fn crash_spread_checkpointed() -> FaultScenario {
    let scenario = two_campus();
    let (est, victim) = schedule_estimate(&scenario);
    let mut config = ReplayConfig {
        checkpoint: CheckpointPolicy::every(0.1, 0.002),
        ..ReplayConfig::scaled_to(est)
    };
    config.scheduler.spread_critical = true;
    FaultScenario {
        name: "crash-spread-ckpt",
        plan: FaultPlan {
            seed: 19,
            faults: vec![Fault::HostCrash { host: victim, at: 0.25 * est }],
        },
        config,
        scenario,
    }
}

/// Long-trace churn: Weibull-distributed transient outages (shape 0.7 —
/// bursty, infant-mortality-flavoured arrivals) across the smoke
/// federation's hosts for three estimated makespans, under
/// checkpointing. All faults are transient, so full recovery is
/// required.
pub(crate) fn weibull_churn() -> FaultScenario {
    let scenario = campus_smoke();
    let (est, _) = schedule_estimate(&scenario);
    let config = ReplayConfig {
        checkpoint: CheckpointPolicy::every(0.15, 0.005),
        ..ReplayConfig::scaled_to(est)
    };
    let hosts: Vec<String> =
        scenario.federation.topology.sites().iter().flat_map(|s| s.hosts.iter().cloned()).collect();
    let spec = WeibullArrivalSpec {
        shape: 0.7,
        scale: 0.8 * est,
        horizon: 3.0 * est,
        down_for: 6.0 * config.tick,
        max_faults: 12,
    };
    FaultScenario {
        name: "weibull-churn",
        plan: FaultPlan::weibull_arrivals(59, &hosts, &spec),
        config,
        scenario,
    }
}

/// A transient outage on the surveillance pipeline's busiest host: the
/// host must be quarantined while down and re-admitted after.
pub(crate) fn transient_outage() -> FaultScenario {
    let scenario = c3i_surveillance();
    let (est, victim) = schedule_estimate(&scenario);
    let config = ReplayConfig::scaled_to(est);
    FaultScenario {
        name: "transient-outage",
        plan: FaultPlan {
            seed: 29,
            faults: vec![Fault::TransientOutage {
                host: victim,
                at: 0.2 * est,
                down_for: 8.0 * config.tick,
            }],
        },
        config,
        scenario,
    }
}

/// A load spike past the eviction threshold on the smoke workload's
/// busiest host — exercises the terminate-and-migrate path without any
/// host dying.
pub(crate) fn load_spike_eviction() -> FaultScenario {
    let scenario = campus_smoke();
    let (est, victim) = schedule_estimate(&scenario);
    FaultScenario {
        name: "load-spike-eviction",
        plan: FaultPlan {
            seed: 31,
            faults: vec![Fault::LoadSpike {
                host: victim,
                at: 0.2 * est,
                height: 8.0,
                duration: 0.5 * est,
            }],
        },
        config: ReplayConfig::scaled_to(est),
        scenario,
    }
}

/// A degraded metro link in the wide-area scenario: latency ×20,
/// bandwidth ÷20 for 40% of the run.
pub(crate) fn degraded_wan() -> FaultScenario {
    let scenario = wide_area();
    let (est, _) = schedule_estimate(&scenario);
    FaultScenario {
        name: "degraded-wan",
        plan: FaultPlan {
            seed: 37,
            faults: vec![Fault::DegradedLink {
                a: 0,
                b: 1,
                at: 0.1 * est,
                duration: 0.4 * est,
                latency_factor: 20.0,
                bandwidth_factor: 0.05,
            }],
        },
        config: ReplayConfig::scaled_to(est),
        scenario,
    }
}

/// A flaky ring link under the Gaussian-elimination benchmark, dropping
/// with p=0.3 per tick for 60% of the run.
pub(crate) fn flaky_wan() -> FaultScenario {
    let scenario = gauss_benchmark();
    let (est, _) = schedule_estimate(&scenario);
    FaultScenario {
        name: "flaky-wan",
        plan: FaultPlan {
            seed: 41,
            faults: vec![Fault::FlakyLink {
                a: 0,
                b: 1,
                at: 0.0,
                duration: 0.6 * est,
                drop_probability: 0.3,
            }],
        },
        config: ReplayConfig::scaled_to(est),
        scenario,
    }
}

/// Crash the Site Manager host (the site server) of the busiest site in
/// the surveillance pipeline while the site's other hosts stay up — the
/// failover scenario: a deputy host must take over the Site Manager role
/// (`site_failovers >= 1`) and the run must complete.
pub(crate) fn manager_failover() -> FaultScenario {
    let scenario = c3i_surveillance();
    let (est, busiest) = schedule_estimate(&scenario);
    let site =
        scenario.federation.topology.site_of_host(&busiest).expect("busiest host has a site");
    let manager = scenario
        .federation
        .topology
        .sites()
        .iter()
        .find(|s| s.id == site)
        .expect("site exists")
        .server_host
        .clone();
    FaultScenario {
        name: "manager-failover",
        plan: FaultPlan {
            seed: 43,
            faults: vec![Fault::HostCrash { host: manager, at: 0.25 * est }],
        },
        config: ReplayConfig::scaled_to(est),
        scenario,
    }
}

/// Shared base of the site-crash family: a permanent [`Fault::SiteOutage`]
/// takes the busiest site of [`metro_trio`] off the WAN a quarter of the
/// way in. The three variants differ only in the [`CheckpointPolicy`],
/// so their inflation deltas isolate the value of checkpointing and of
/// cross-site replicas respectively.
fn site_crash_base(name: &'static str, checkpoint: CheckpointPolicy) -> FaultScenario {
    let scenario = metro_trio();
    let (est, busiest) = schedule_estimate(&scenario);
    let site =
        scenario.federation.topology.site_of_host(&busiest).expect("busiest host has a site").0;
    FaultScenario {
        name,
        plan: FaultPlan {
            seed: 47,
            faults: vec![Fault::SiteOutage { site, at: 0.25 * est, down_for: None }],
        },
        config: ReplayConfig { checkpoint, ..ReplayConfig::scaled_to(est) },
        scenario,
    }
}

/// A whole site dies permanently, no checkpointing: surviving sites must
/// absorb the orphaned work from scratch, with bounded inflation.
pub(crate) fn site_crash() -> FaultScenario {
    site_crash_base("site-crash", CheckpointPolicy::disabled())
}

/// [`site_crash`] with checkpointing but *without* cross-site replicas —
/// every checkpoint is stored on the host that wrote it, so the site
/// outage takes the checkpoints down with the tasks and recovery still
/// restarts from zero. The control for [`site_crash_ckpt_replica`].
pub(crate) fn site_crash_ckpt_local() -> FaultScenario {
    site_crash_base("site-crash-ckpt-local", CheckpointPolicy::every(0.08, 0.002))
}

/// `site_crash` with checkpointing *and* cross-site replicas: each
/// checkpoint is pushed (charged through the network model) to the
/// nearest surviving site, so tasks orphaned by the outage resume from
/// remote replicas instead of restarting — this must strictly beat
/// `site_crash_ckpt_local` on the same trace.
pub fn site_crash_ckpt_replica() -> FaultScenario {
    site_crash_base(
        "site-crash-ckpt-replica",
        CheckpointPolicy::every(0.08, 0.002).with_replicas(1 << 18),
    )
}

/// The [`two_campus`] federation splits down the middle for 30% of the
/// estimated run, then heals: both sides keep executing tasks whose
/// inputs are local, cross-cut tasks wait out the cut, and after the heal
/// the run completes with zero lost tasks.
pub(crate) fn partition_heal() -> FaultScenario {
    let scenario = two_campus();
    let (est, _) = schedule_estimate(&scenario);
    // Spread the critical path so placements genuinely straddle the cut
    // — otherwise the near-tied two-campus schedule can collapse onto
    // one site and the partition never bites.
    let mut config = ReplayConfig::scaled_to(est);
    config.scheduler.spread_critical = true;
    FaultScenario {
        name: "partition-heal",
        plan: FaultPlan {
            seed: 61,
            faults: vec![Fault::SitePartition {
                a: vec![0],
                b: vec![1],
                at: 0.25 * est,
                duration: 0.3 * est,
            }],
        },
        config,
        scenario,
    }
}

// ---------------------------------------------------------------------
// Fuzzer-promoted regression scenarios
// ---------------------------------------------------------------------
//
// Minimal reproducers the seeded fuzzer (`vdce_sim::fuzz`, DESIGN.md
// §17) shrank out of its worst adversarial seeds (`exp hunt`,
// zero-headroom inflation profile). The shrunk plans are frozen
// verbatim — absolute times, full f64 precision — so the exact
// composition the fuzzer found stays gated forever alongside the
// hand-written catalogue. Unlike hand-written scenarios these carry no
// 2.0x crash bound; they are pinned to the fuzz regression bound
// (4.5x) instead, since the fuzzer specifically selected them for
// worst-case-but-recoverable inflation.

/// Fuzz regression #1 — seed 1 (churn + process-kill over
/// [`gauss_benchmark`]), shrunk 1→1 faults: one transient outage of
/// the busiest host, timed mid-run, is alone worth 3.86× inflation —
/// every Gauss pivot row serialises behind the backoff window of the
/// host everything was packed onto.
pub(crate) fn fuzz_outage_hotspot() -> FaultScenario {
    let scenario = gauss_benchmark();
    let (est, _) = schedule_estimate(&scenario);
    FaultScenario {
        name: "fuzz-outage-hotspot",
        plan: FaultPlan {
            seed: 1592652886,
            faults: vec![Fault::TransientOutage {
                host: "s3h3.vdce.org".into(),
                at: 0.5495119800754725,
                down_for: 0.051516748132075546,
            }],
        },
        config: ReplayConfig::scaled_to(est),
        scenario,
    }
}

/// Fuzz regression #2 — seed 16 (churn + partition-storm + load-wave
/// over [`two_campus`]), shrunk 15→1 faults: of a fifteen-fault storm,
/// a single late load spike on `s1h1` explains the whole 2.57×
/// inflation — eviction of the tail task onto the slower campus at the
/// worst possible moment.
pub(crate) fn fuzz_spike_pileup() -> FaultScenario {
    let scenario = two_campus();
    let (est, _) = schedule_estimate(&scenario);
    FaultScenario {
        name: "fuzz-spike-pileup",
        plan: FaultPlan {
            seed: 1592652871,
            faults: vec![Fault::LoadSpike {
                host: "s1h1.vdce.org".into(),
                at: 0.4510207662871057,
                height: 6.4318563008730685,
                duration: 0.05412249195445268,
            }],
        },
        config: ReplayConfig::scaled_to(est),
        scenario,
    }
}

/// Fuzz regression #3 — seed 24 (churn + correlated-outage +
/// process-kill over [`two_campus`]), shrunk 5→1 faults: one brief
/// whole-site blink of campus 1 — shorter than a tenth of the
/// estimated makespan — costs 2.57× once failover, quarantine and
/// re-admission round-trips are paid.
pub(crate) fn fuzz_site_blink() -> FaultScenario {
    let scenario = two_campus();
    let (est, _) = schedule_estimate(&scenario);
    FaultScenario {
        name: "fuzz-site-blink",
        plan: FaultPlan {
            seed: 1592652879,
            faults: vec![Fault::SiteOutage {
                site: 1,
                at: 0.47535688400913073,
                down_for: Some(0.041559461890860704),
            }],
        },
        config: ReplayConfig::scaled_to(est),
        scenario,
    }
}

/// The fuzzer-promoted regression scenarios (see above).
pub fn fuzz_regression_scenarios() -> Vec<FaultScenario> {
    vec![fuzz_outage_hotspot(), fuzz_spike_pileup(), fuzz_site_blink()]
}

/// All named fault scenarios (the `faults` experiment's run).
pub fn all_fault_scenarios() -> Vec<FaultScenario> {
    vec![
        crash_mid_run(),
        crash_mid_run_checkpointed(),
        crash_two_campus(),
        crash_spread_checkpointed(),
        transient_outage(),
        load_spike_eviction(),
        degraded_wan(),
        flaky_wan(),
        weibull_churn(),
        manager_failover(),
        site_crash(),
        site_crash_ckpt_local(),
        site_crash_ckpt_replica(),
        partition_heal(),
        fuzz_outage_hotspot(),
        fuzz_spike_pileup(),
        fuzz_site_blink(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{compare_schedulers, SchedulerKind};
    use crate::replay::run_fault_scenario;
    use vdce_afg::validate;

    /// All named scenarios.
    fn all() -> Vec<Scenario> {
        vec![
            campus_smoke(),
            two_campus(),
            wide_area(),
            c3i_surveillance(),
            metro_trio(),
            gauss_benchmark(),
        ]
    }

    #[test]
    fn every_scenario_is_well_formed() {
        for s in all() {
            assert!(validate(&s.afg).is_ok(), "{}: invalid AFG", s.name);
            assert!(s.federation.topology.site_count() > 0, "{}", s.name);
            assert!(
                s.federation.net.site_count() == s.federation.topology.site_count(),
                "{}: net/topology size mismatch",
                s.name
            );
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = wide_area();
        let b = wide_area();
        assert_eq!(a.afg, b.afg);
        assert_eq!(a.federation.repos[0].snapshot(), b.federation.repos[0].snapshot());
    }

    #[test]
    fn every_scenario_schedules_end_to_end() {
        for s in all() {
            let views = s.federation.views();
            let rows = compare_schedulers(
                &s.afg,
                &views[0],
                &views[1..],
                &s.federation.net,
                &[SchedulerKind::Vdce { k: 2 }],
            );
            assert_eq!(rows.len(), 1, "{}: scheduling failed", s.name);
            assert!(rows[0].makespan > 0.0, "{}", s.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|s| s.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn fault_scenario_names_are_unique_and_plans_seeded() {
        let scenarios = all_fault_scenarios();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 17);
        for s in &scenarios {
            assert!(!s.plan.faults.is_empty(), "{}: empty plan", s.name);
            assert!(s.plan.faults.iter().all(|f| f.at() >= 0.0), "{}", s.name);
        }
    }

    #[test]
    fn schedule_estimate_is_deterministic() {
        let (m1, h1) = schedule_estimate(&campus_smoke());
        let (m2, h2) = schedule_estimate(&campus_smoke());
        assert_eq!(m1, m2);
        assert_eq!(h1, h2);
        assert!(m1 > 0.0);
    }

    #[test]
    fn all_fault_scenarios_recover() {
        for fs in all_fault_scenarios() {
            let report = run_fault_scenario(fs.name, &fs.request());
            assert_eq!(report.tasks_failed, 0, "{}: tasks failed", fs.name);
            assert!(report.recovered_all(), "{}: not recovered: {:?}", fs.name, report.faults);
            // Hand-written scenarios stay under 2x; fuzzer-promoted
            // regressions were *selected* for worst-case recoverable
            // inflation and are pinned to the fuzz regression bound.
            let bound = if fs.name.starts_with("fuzz-") { 4.5 } else { 2.0 };
            assert!(
                report.inflation < bound,
                "{}: inflation {} exceeds {bound}x",
                fs.name,
                report.inflation
            );
        }
    }

    #[test]
    fn fuzz_regressions_replay_bit_identically() {
        for fs in fuzz_regression_scenarios() {
            let a = run_fault_scenario(fs.name, &fs.request());
            let b = run_fault_scenario(fs.name, &fs.request());
            assert_eq!(a, b, "{}: two replays differ", fs.name);
            assert!(a.inflation > 1.0, "{}: promoted reproducer no longer bites", fs.name);
        }
    }
}
