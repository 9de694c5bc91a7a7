//! Integration of the Figure-4 control plane with scheduling: monitor
//! daemons → group managers → site manager → site repository →
//! scheduler decisions.

use vdce_afg::{AfgBuilder, AfgDocument, MachineType, TaskLibrary};
use vdce_core::Vdce;
use vdce_net::topology::SiteId;
use vdce_repository::AccessDomain;
use vdce_runtime::{EventLog, FlagEcho, GroupManager, MonitorDaemon, SyntheticProbe};
use vdce_sim::run_monitoring_experiment;

fn two_host_env() -> Vdce {
    let mut b = Vdce::builder();
    let s = b.add_site("campus");
    b.add_host(s, "fast", MachineType::LinuxPc, 4.0, 1 << 30);
    b.add_host(s, "slow", MachineType::LinuxPc, 1.0, 1 << 30);
    b.add_user("u", "p", 1, AccessDomain::LocalSite);
    b.build()
}

fn simple_doc() -> AfgDocument {
    let lib = TaskLibrary::standard();
    let mut b = AfgBuilder::new("probe", &lib);
    let s = b.add_task("Source", "s", 10_000).unwrap();
    let k = b.add_task("Sink", "k", 10_000).unwrap();
    b.connect(s, 0, k, 0).unwrap();
    AfgDocument::new("u", b.build().unwrap()).unwrap()
}

/// Monitor workload samples flow through the Group Manager's
/// significant-change filter into the repository, and change the
/// scheduler's host choice.
#[test]
fn workload_pipeline_redirects_scheduling() {
    let v = two_host_env();
    let site = SiteId(0);
    let session = v.login(site, "u", "p").unwrap();

    // Baseline: the fast host wins.
    let r1 = session.submit(&simple_doc()).unwrap();
    assert_eq!(r1.allocation.hosts_used(), vec!["fast"]);

    // Drive the control plane: the fast host gets very busy.
    let log = EventLog::new();
    let mut probe = SyntheticProbe::new(0.0, 1 << 30);
    probe.set_trace("fast", vec![(0.0, 9.0)]);
    let daemons = ["fast", "slow"].map(|h| MonitorDaemon::new(h, log.clone()));
    let mut gm = GroupManager::new("campus-g0", vec!["fast".into(), "slow".into()], 0.5, log);
    // Several monitoring rounds (smoothed workload needs history).
    let mut applied = 0;
    for t in 0..6 {
        probe.set_time(t as f64);
        for d in &daemons {
            let report = d.tick(t as f64, &probe).unwrap();
            if let Some(msg) = gm.handle_report(t as f64, &report) {
                applied += usize::from(v.site_manager(site).process(&msg, None));
            }
        }
    }
    assert!(applied >= 2);

    // The repository now shows the load...
    v.repository(site).resources(|db| {
        assert!(db.get("fast").unwrap().smoothed_workload() > 8.0);
        assert!(db.get("slow").unwrap().smoothed_workload() < 0.5);
    });

    // ...and the next submission prefers the idle slow host:
    // fast: rate/4 × (1+9) = 2.5×; slow: rate/1 × 1 = 1×.
    let r2 = session.submit(&simple_doc()).unwrap();
    assert_eq!(r2.allocation.hosts_used(), vec!["slow"]);
    assert!(r2.outcome.success);
}

/// Echo failure detection marks a host down; recovery marks it up again.
#[test]
fn failure_detection_cycles_host_availability() {
    let v = two_host_env();
    let site = SiteId(0);
    let session = v.login(site, "u", "p").unwrap();

    let mut echo = FlagEcho::new();
    let hosts = vec!["fast".into(), "slow".into()];
    let mut gm = GroupManager::new("campus-g0", hosts, 1.0, EventLog::new());

    echo.kill("fast");
    for msg in gm.probe_hosts(1.0, &echo) {
        assert!(v.site_manager(site).process(&msg, None));
    }
    let r = session.submit(&simple_doc()).unwrap();
    assert_eq!(r.allocation.hosts_used(), vec!["slow"]);

    echo.revive("fast");
    for msg in gm.probe_hosts(2.0, &echo) {
        assert!(v.site_manager(site).process(&msg, None));
    }
    let r = session.submit(&simple_doc()).unwrap();
    assert_eq!(r.allocation.hosts_used(), vec!["fast"]);
}

/// Network monitoring steers scheduling: a congested WAN link observed
/// by the link probes keeps a chain local even though the remote site
/// has faster hosts.
#[test]
fn network_monitoring_redirects_site_choice() {
    use vdce_afg::{AfgBuilder, MachineType as MT, TaskLibrary};
    use vdce_net::model::NetworkModel;
    use vdce_repository::resources::ResourceRecord;
    use vdce_repository::SiteRepository;
    use vdce_runtime::{NetworkMonitor, SyntheticLinkProbe};
    use vdce_sched::site_scheduler::{site_schedule, SchedRequest, SchedulerConfig};
    use vdce_sched::view::SiteView;

    let mk_view = |site: u16, host: &str, speed: f64| {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new(host, "10.0.0.1", MT::LinuxPc, speed, 1, 1 << 30, "g"));
        });
        SiteView::capture(SiteId(site), &repo)
    };
    let local = mk_view(0, "l0", 1.0);
    let remote = mk_view(1, "r0", 2.0);

    let lib = TaskLibrary::standard();
    let mut b = AfgBuilder::new("chain", &lib);
    let s = b.add_task("Source", "s", 2_000_000).unwrap();
    let m = b.add_task("Sort", "m", 2_000_000).unwrap();
    let k = b.add_task("Sink", "k", 2_000_000).unwrap();
    b.connect(s, 0, m, 0).unwrap();
    b.connect(m, 0, k, 0).unwrap();
    let afg = b.build().unwrap();

    let mut probe = SyntheticLinkProbe::new(0.005, 1e7);
    // Keep intra-site links fast regardless.
    probe.set(SiteId(0), SiteId(0), 0.0003, 1.25e7);
    probe.set(SiteId(1), SiteId(1), 0.0003, 1.25e7);
    let mut monitor = NetworkMonitor::new(NetworkModel::with_defaults(2));
    let cfg = SchedulerConfig { k_neighbours: 1, ..SchedulerConfig::default() };

    // Healthy WAN: the faster remote site wins the whole chain.
    monitor.tick(&probe);
    let (afg, local, remotes, config) = (&afg, &local, &[remote], &cfg);
    let schedule = |net: &NetworkModel| {
        site_schedule(&SchedRequest { afg, local, remotes, net, config, data: None, metrics: None })
    };
    let healthy = schedule(monitor.model()).unwrap();
    assert_eq!(healthy.placement(vdce_afg::TaskId(0)).unwrap().site, SiteId(1));

    // Congestion hits the WAN; the monitor observes it.
    probe.set(SiteId(0), SiteId(1), 30.0, 1_000.0);
    monitor.tick(&probe);
    let congested = schedule(monitor.model()).unwrap();
    // Entry task still prefers the faster remote host (Predict only), but
    // the *whole chain stays together* and no placement straddles the
    // congested link — the transfer term pins children to their parent's
    // site.
    let sites = congested.sites_used();
    assert_eq!(sites.len(), 1, "chain must not straddle a 30 s link: {sites:?}");
}

/// The Figure-4 experiment harness exhibits the expected shapes at
/// integration scale: filtering cuts repository traffic monotonically
/// with the threshold, and detection latency is bounded by the echo
/// period.
#[test]
fn monitoring_experiment_shapes_hold() {
    let thresholds = [0.25, 1.0, 3.0];
    let mut reductions = Vec::new();
    for th in thresholds {
        let out = run_monitoring_experiment(6, th, 1.0, 4.0, 150.0, &[(0, 75.0)], 9);
        reductions.push(out.reduction);
        assert_eq!(out.failures_detected, 1);
        let lat = out.detection_latencies[0];
        assert!(lat <= 4.0 + 1.0, "latency {lat} exceeds echo period bound");
    }
    assert!(
        reductions.windows(2).all(|w| w[0] <= w[1] + 1e-9),
        "traffic reduction must not decrease with threshold: {reductions:?}"
    );
}
