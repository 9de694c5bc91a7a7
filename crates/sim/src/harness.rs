//! Canned experiments shared by the `exp_*` binaries and the
//! integration tests.

use crate::metrics::Table;
use crate::trace;
use std::sync::Arc;
use vdce_afg::level::{critical_path, level_map};
use vdce_afg::Afg;
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_repository::SiteRepository;
use vdce_runtime::{
    ControlMessage, EventLog, FlagEcho, GroupManager, LoadProbe, MonitorDaemon, MonitorReport,
    SiteManager, SyntheticProbe,
};
use vdce_sched::site_scheduler::{site_schedule, SchedulerConfig};
use vdce_sched::view::SiteView;
use vdce_sched::{baselines, evaluate};

/// The scheduling algorithms compared in experiments E2/E5/E9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The paper's site scheduler with `k` nearest neighbour sites.
    Vdce {
        /// Neighbour count.
        k: usize,
    },
    /// Best local host only, no federation.
    LocalOnly,
    /// Uniform random feasible placement.
    Random(
        /// Seed.
        u64,
    ),
    /// Round-robin over all hosts.
    RoundRobin,
    /// Min-min completion-time heuristic.
    MinMin,
    /// Max-min completion-time heuristic.
    MaxMin,
    /// HEFT (no insertion) — the E9 extension.
    Heft,
    /// HEFT with insertion-based slot search (full TPDS 2002 algorithm).
    HeftInsertion,
    /// The paper's scheduler with the transfer-time term ablated
    /// (DESIGN.md §7 decision 4).
    VdceNoTransfer {
        /// Neighbour count.
        k: usize,
    },
}

impl SchedulerKind {
    /// Display name used in tables.
    pub fn name(&self) -> String {
        match self {
            SchedulerKind::Vdce { k } => format!("vdce(k={k})"),
            SchedulerKind::LocalOnly => "local-only".into(),
            SchedulerKind::Random(_) => "random".into(),
            SchedulerKind::RoundRobin => "round-robin".into(),
            SchedulerKind::MinMin => "min-min".into(),
            SchedulerKind::MaxMin => "max-min".into(),
            SchedulerKind::Heft => "heft".into(),
            SchedulerKind::HeftInsertion => "heft+insertion".into(),
            SchedulerKind::VdceNoTransfer { k } => format!("vdce-noxfer(k={k})"),
        }
    }
}

/// One scheduler's result on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Simulated makespan in seconds.
    pub makespan: f64,
    /// Schedule-length ratio (makespan / critical path).
    pub slr: f64,
    /// Distinct sites used.
    pub sites_used: usize,
    /// Distinct hosts used.
    pub hosts_used: usize,
}

/// Schedule `afg` with each algorithm and evaluate every table with the
/// same simulator (`vdce_sched::evaluate`) and the same level
/// priorities, so makespans are directly comparable. Algorithms that fail
/// (e.g. local-only when a task is locally infeasible) are skipped.
pub fn compare_schedulers(
    afg: &Afg,
    local: &SiteView,
    remotes: &[SiteView],
    net: &NetworkModel,
    kinds: &[SchedulerKind],
) -> Vec<ComparisonRow> {
    let db = &local.tasks;
    let cost =
        |t: &vdce_afg::TaskNode| db.base_time(&t.library_task, t.problem_size).unwrap_or(0.0);
    let levels = level_map(afg, cost).expect("experiment DAGs are acyclic");
    let cp = critical_path(afg, cost).expect("acyclic");
    let predictor = Predictor::default();

    // One memo table for every algorithm in the comparison: they all
    // probe the same (task, size, host) prediction keys, so the first
    // algorithm warms the cache for the rest. The memo is keyed on
    // placement-independent inputs only, which keeps each algorithm's
    // table bit-identical to its private-cache run (asserted by the
    // `shared_cache_reproduces_private_cache_tables` test in vdce-sched).
    let cache = PredictCache::new();

    let all_views: Vec<&SiteView> = std::iter::once(local).chain(remotes.iter()).collect();
    let mut rows = Vec::new();
    for kind in kinds {
        let table = match kind {
            SchedulerKind::Vdce { k } => {
                let cfg = SchedulerConfig { k_neighbours: *k, ..SchedulerConfig::default() };
                site_schedule(afg, local, remotes, net, &cfg)
            }
            SchedulerKind::LocalOnly => {
                baselines::local_only_schedule(afg, local, &predictor, &cache)
            }
            SchedulerKind::Random(seed) => {
                baselines::random_schedule(afg, &all_views, &predictor, *seed, &cache)
            }
            SchedulerKind::RoundRobin => {
                baselines::round_robin_schedule(afg, &all_views, &predictor, &cache)
            }
            SchedulerKind::MinMin => {
                baselines::min_min_schedule(afg, &all_views, net, &predictor, &cache)
            }
            SchedulerKind::MaxMin => {
                baselines::max_min_schedule(afg, &all_views, net, &predictor, &cache)
            }
            SchedulerKind::Heft => {
                baselines::heft_schedule(afg, &all_views, net, &predictor, &cache)
            }
            SchedulerKind::HeftInsertion => {
                baselines::heft_insertion_schedule(afg, &all_views, net, &predictor, &cache)
            }
            SchedulerKind::VdceNoTransfer { k } => {
                let cfg = SchedulerConfig {
                    k_neighbours: *k,
                    ignore_transfer_time: true,
                    ..SchedulerConfig::default()
                };
                site_schedule(afg, local, remotes, net, &cfg)
            }
        };
        let Ok(table) = table else { continue };
        let Ok(schedule) = evaluate(afg, &table, net, &levels) else { continue };
        rows.push(ComparisonRow {
            algorithm: kind.name(),
            makespan: schedule.makespan,
            slr: schedule.slr(cp),
            sites_used: table.sites_used().len(),
            hosts_used: table.hosts_used().len(),
        });
    }
    rows
}

/// Render comparison rows as a table.
pub fn comparison_table(rows: &[ComparisonRow]) -> Table {
    let mut t = Table::new(&["algorithm", "makespan_s", "slr", "sites", "hosts"]);
    for r in rows {
        t.row(&[
            r.algorithm.clone(),
            format!("{:.4}", r.makespan),
            format!("{:.3}", r.slr),
            r.sites_used.to_string(),
            r.hosts_used.to_string(),
        ]);
    }
    t
}

/// Result of the Figure-4 monitoring experiment.
///
/// **Breaking change (fault-injection PR):** the old single
/// `detection_latency: Option<f64>` field is now
/// [`detection_latencies`](Self::detection_latencies), one entry per
/// *detected* injected failure, in injection-argument order — the
/// experiment accepts any number of concurrent failures instead of at
/// most one. `Copy` was dropped along with the fixed-size layout.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitoringOutcome {
    /// Monitor samples taken.
    pub samples: u64,
    /// Reports forwarded to the Site Manager.
    pub forwarded: u64,
    /// Repository-update traffic reduction, `1 − forwarded/samples`.
    pub reduction: f64,
    /// Failures detected.
    pub failures_detected: u64,
    /// Virtual seconds from each injected failure to its detection, in
    /// the order the failures were passed; undetected injections (e.g.
    /// after `duration`) are absent.
    pub detection_latencies: Vec<f64>,
}

/// Run the Resource-Controller pipeline of Figure 4 in virtual time:
/// `hosts` monitor daemons (random-walk load traces) feed one Group
/// Manager with significance threshold `threshold`, which feeds a Site
/// Manager; monitoring runs every `monitor_period` and echo probing every
/// `echo_period` for `duration` virtual seconds. Each `(host index, time)`
/// pair in `failures` stops that host answering echoes at that time.
pub fn run_monitoring_experiment(
    hosts: usize,
    threshold: f64,
    monitor_period: f64,
    echo_period: f64,
    duration: f64,
    failures: &[(usize, f64)],
    seed: u64,
) -> MonitoringOutcome {
    let host_names: Vec<String> = (0..hosts).map(|i| format!("h{i}")).collect();
    let repo = SiteRepository::new();
    repo.resources_mut(|db| {
        for h in &host_names {
            db.upsert(vdce_repository::resources::ResourceRecord::new(
                h.clone(),
                "10.0.0.1",
                vdce_afg::MachineType::LinuxPc,
                1.0,
                1,
                1 << 30,
                "g0",
            ));
        }
    });
    let site_manager = SiteManager::new(SiteId(0), repo);
    let log = EventLog::new();
    let probe = Arc::new(SyntheticProbe::new(0.0, 1 << 30));
    for (i, h) in host_names.iter().enumerate() {
        probe.set_trace(
            h.clone(),
            trace::random_walk(seed + i as u64, monitor_period, 10_000, 0.5, 8.0),
        );
    }
    let echo = Arc::new(FlagEcho::new());
    let daemons: Vec<MonitorDaemon> = host_names
        .iter()
        .map(|h| MonitorDaemon::new(h.clone(), probe.clone() as Arc<dyn LoadProbe>, log.clone()))
        .collect();
    let mut gm = GroupManager::new("g0", host_names.clone(), threshold, echo.clone(), log.clone());

    let mut t = 0.0f64;
    let mut next_echo = 0.0f64;
    // Per injected failure: has it been applied, and its detection time.
    let mut applied = vec![false; failures.len()];
    let mut detected: Vec<Option<f64>> = vec![None; failures.len()];
    while t < duration {
        for (i, (host, fail_at)) in failures.iter().enumerate() {
            if !applied[i] && t >= *fail_at {
                echo.kill(host_names[*host].clone());
                applied[i] = true;
            }
        }
        probe.set_time(t);
        let reports: Vec<MonitorReport> = daemons.iter().map(|d| d.tick(t)).collect();
        for report in &reports {
            if let Some(msg) = gm.handle_report(t, report) {
                site_manager.process(&msg);
            }
        }
        if t >= next_echo {
            for msg in gm.probe_hosts(t) {
                site_manager.process(&msg);
                let (ControlMessage::HostFailure { host: changed }
                | ControlMessage::HostRecovered { host: changed }) = &msg
                else {
                    continue;
                };
                for (i, (host, fail_at)) in failures.iter().enumerate() {
                    if applied[i] && detected[i].is_none() && host_names[*host] == *changed {
                        detected[i] = Some(t - fail_at);
                        break;
                    }
                }
            }
            next_echo += echo_period;
        }
        t += monitor_period;
    }
    let stats = gm.stats();
    MonitoringOutcome {
        samples: stats.reports_received,
        forwarded: stats.reports_forwarded,
        reduction: if stats.reports_received > 0 {
            1.0 - stats.reports_forwarded as f64 / stats.reports_received as f64
        } else {
            0.0
        },
        failures_detected: stats.failures_detected,
        detection_latencies: detected.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_gen::{layered_random, DagSpec};
    use crate::pool_gen::{build_federation, FederationSpec};

    #[test]
    fn compare_schedulers_produces_rows_for_all_algorithms() {
        let f = build_federation(&FederationSpec {
            sites: 3,
            hosts_per_site: 4,
            ..FederationSpec::default()
        });
        let views = f.views();
        let afg = layered_random(&DagSpec { tasks: 30, ..DagSpec::default() }, 1);
        let rows = compare_schedulers(
            &afg,
            &views[0],
            &views[1..],
            &f.net,
            &[
                SchedulerKind::Vdce { k: 2 },
                SchedulerKind::LocalOnly,
                SchedulerKind::Random(1),
                SchedulerKind::RoundRobin,
                SchedulerKind::MinMin,
                SchedulerKind::MaxMin,
                SchedulerKind::Heft,
            ],
        );
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.makespan > 0.0, "{}: makespan {}", r.algorithm, r.makespan);
            // SLR is normalised by the *base-processor* critical path, so
            // fast hosts can push it below 1; it must just be positive.
            assert!(r.slr > 0.0, "{}: slr {}", r.algorithm, r.slr);
        }
        let table = comparison_table(&rows);
        assert_eq!(table.len(), 7);
    }

    #[test]
    fn vdce_is_competitive_on_the_suite() {
        let f = build_federation(&FederationSpec {
            sites: 3,
            hosts_per_site: 6,
            ..FederationSpec::default()
        });
        let views = f.views();
        let afg = layered_random(&DagSpec { tasks: 40, ..DagSpec::default() }, 7);
        let rows = compare_schedulers(
            &afg,
            &views[0],
            &views[1..],
            &f.net,
            &[SchedulerKind::Vdce { k: 2 }, SchedulerKind::Random(3)],
        );
        let vdce = rows.iter().find(|r| r.algorithm.starts_with("vdce")).unwrap();
        let random = rows.iter().find(|r| r.algorithm == "random").unwrap();
        assert!(
            vdce.makespan <= random.makespan * 1.1,
            "vdce {} vs random {}",
            vdce.makespan,
            random.makespan
        );
    }

    #[test]
    fn monitoring_experiment_filters_and_detects() {
        let out = run_monitoring_experiment(8, 1.0, 1.0, 5.0, 120.0, &[(0, 60.0)], 3);
        assert!(out.samples > 800, "8 hosts × 120 ticks");
        assert!(out.forwarded < out.samples, "filter must drop something");
        assert!(out.reduction > 0.0);
        assert_eq!(out.failures_detected, 1);
        assert_eq!(out.detection_latencies.len(), 1);
        let lat = out.detection_latencies[0];
        assert!((0.0..=5.0 + 1.0).contains(&lat), "latency bounded by echo period, got {lat}");
    }

    #[test]
    fn concurrent_failures_each_get_a_latency() {
        let out = run_monitoring_experiment(
            6,
            1.0,
            1.0,
            4.0,
            150.0,
            &[(0, 40.0), (3, 40.0), (5, 90.0)],
            4,
        );
        assert_eq!(out.failures_detected, 3);
        assert_eq!(out.detection_latencies.len(), 3);
        for lat in &out.detection_latencies {
            assert!((0.0..=5.0).contains(lat), "latency bounded by echo period, got {lat}");
        }
    }

    #[test]
    fn zero_threshold_forwards_all_samples() {
        let out = run_monitoring_experiment(2, 0.0, 1.0, 10.0, 30.0, &[], 1);
        assert_eq!(out.samples, out.forwarded);
        assert_eq!(out.reduction, 0.0);
        assert_eq!(out.failures_detected, 0);
        assert!(out.detection_latencies.is_empty());
    }

    #[test]
    fn higher_threshold_means_more_reduction() {
        let low = run_monitoring_experiment(4, 0.5, 1.0, 10.0, 100.0, &[], 2);
        let high = run_monitoring_experiment(4, 3.0, 1.0, 10.0, 100.0, &[], 2);
        assert!(high.reduction > low.reduction);
    }
}
