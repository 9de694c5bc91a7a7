//! The distributed scheduling protocol (Figure 2, steps 3 and 5) over
//! the inter-site message bus, with remote Application Schedulers served
//! from real threads.

use std::thread;
use std::time::{Duration, Instant};
use vdce_net::topology::SiteId;
use vdce_net::MessageBus;
use vdce_sched::site_scheduler::{site_schedule, SchedRequest, SchedulerConfig};
use vdce_sched::{federated_schedule, RemoteScheduler, SchedMessage};
use vdce_sim::dag_gen::{layered_random, DagSpec};
use vdce_sim::pool_gen::{build_federation, FederationSpec};

#[test]
fn bus_protocol_reproduces_in_process_schedules_across_workloads() {
    let fed = build_federation(&FederationSpec {
        sites: 4,
        hosts_per_site: 5,
        ..FederationSpec::default()
    });
    let views = fed.views();
    let local_host = views[0].resources.iter().next().unwrap().host_name.clone();
    let paper = SchedulerConfig { k_neighbours: 3, ..SchedulerConfig::default() };
    // The protocol must honour every walk option the config carries, not
    // only the paper defaults.
    let configs = [
        paper,
        SchedulerConfig { ignore_transfer_time: true, ..paper },
        SchedulerConfig { spread_critical: true, ..paper },
    ];

    for (seed, config) in (0..3u64).flat_map(|seed| configs.map(|c| (seed, c))) {
        // One entry task pinned to a local host and heavy edges: whether
        // its children follow it or chase a faster remote host then hangs
        // on the transfer term.
        let spec = DagSpec { tasks: 25, max_bytes: 200_000_000, ..DagSpec::default() };
        let mut afg = layered_random(&spec, seed);
        let entry = afg.entry_nodes()[0];
        afg.tasks[entry.index()].props.preferred_host = Some(local_host.clone());
        let (local, remotes, net) = (&views[0], &views[1..], &fed.net);
        let req = SchedRequest {
            afg: &afg,
            local,
            remotes,
            net,
            config: &config,
            data: None,
            metrics: None,
        };
        let reference = site_schedule(&req).unwrap();

        let bus: MessageBus<SchedMessage> = MessageBus::new();
        let local_ep = bus.register(SiteId(0));
        let mut servers = Vec::new();
        for view in views[1..].iter().cloned() {
            let ep = bus.register(view.site);
            let bus2 = bus.clone();
            servers.push(thread::spawn(move || {
                let rs = RemoteScheduler { view, config };
                rs.serve_until(&bus2, &ep, Instant::now() + Duration::from_secs(2))
            }));
        }
        let table = federated_schedule(
            &afg,
            &views[0],
            &bus,
            &local_ep,
            &fed.net,
            &config,
            Duration::from_secs(2),
        )
        .unwrap();
        assert_eq!(table, reference, "seed {seed}, {config:?}: protocol and in-process must agree");
        for s in servers {
            assert_eq!(s.join().unwrap(), 1);
        }
    }
}

#[test]
fn scheduling_traffic_grows_with_k() {
    let fed = build_federation(&FederationSpec {
        sites: 5,
        hosts_per_site: 3,
        ..FederationSpec::default()
    });
    let views = fed.views();
    let afg = layered_random(&DagSpec { tasks: 20, ..DagSpec::default() }, 4);

    let mut totals = Vec::new();
    for k in [1usize, 2, 4] {
        let config = SchedulerConfig { k_neighbours: k, ..SchedulerConfig::default() };
        let bus: MessageBus<SchedMessage> = MessageBus::new();
        let local_ep = bus.register(SiteId(0));
        let mut servers = Vec::new();
        for view in views[1..].iter().cloned() {
            let ep = bus.register(view.site);
            let bus2 = bus.clone();
            servers.push(thread::spawn(move || {
                let rs = RemoteScheduler { view, config };
                rs.serve_until(&bus2, &ep, Instant::now() + Duration::from_secs(3))
            }));
        }
        let table = federated_schedule(
            &afg,
            &views[0],
            &bus,
            &local_ep,
            &fed.net,
            &config,
            Duration::from_secs(3),
        )
        .unwrap();
        assert!(table.is_complete_for(&afg));
        totals.push(bus.total_traffic().bytes);
        for s in servers {
            s.join().unwrap();
        }
    }
    assert!(
        totals.windows(2).all(|w| w[0] < w[1]),
        "multicast traffic must grow with k: {totals:?}"
    );
}
