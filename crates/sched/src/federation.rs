//! The distributed scheduling protocol over the inter-site message bus.
//!
//! Steps 3 and 5 of the site-scheduler algorithm are a real protocol in
//! VDCE: the local Application Scheduler **multicasts** the AFG to the k
//! nearest neighbour sites, each remote Application Scheduler runs host
//! selection against its own site repository, and "each site sends the
//! mapping information of each task, i.e., machine name and predicted
//! execution time, to the local site" (§3).
//!
//! [`federated_schedule`] is the local side; [`serve_one`] /
//! [`RemoteScheduler`] are the remote side. Payload sizes are accounted
//! on the bus using the JSON-serialised message length, so experiments
//! can report scheduling traffic.

use crate::allocation::AllocationTable;
use crate::classes::TaskClasses;
use crate::host_selection::{HostSelectionOutput, SelectScratch};
use crate::site_scheduler::{host_selection_for, SchedError, SchedRequest, SchedulerConfig};
use crate::view::SiteView;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use vdce_afg::Afg;
use vdce_net::model::NetworkModel;
use vdce_net::{Endpoint, MessageBus};
use vdce_predict::cache::PredictCache;

/// Messages exchanged between Application Schedulers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedMessage {
    /// Step 3: the multicast AFG, tagged with a request id.
    HostSelectionRequest {
        /// Correlates replies with requests.
        request_id: u64,
        /// The application flow graph to map.
        afg: Afg,
    },
    /// Step 5: one site's host-selection output.
    HostSelectionReply {
        /// The request this answers.
        request_id: u64,
        /// The mapping information (machine names + predicted times).
        output: HostSelectionOutput,
    },
}

impl SchedMessage {
    /// Serialized payload size, for bus traffic accounting.
    pub(crate) fn wire_bytes(&self) -> u64 {
        serde_json::to_string(self).map(|s| s.len() as u64).unwrap_or(0)
    }
}

/// Serve a single host-selection request arriving at `endpoint` (blocking
/// up to `timeout`). Returns `true` if a request was answered.
///
/// This is what a remote site's Application Scheduler does when the AFG
/// multicast arrives.
pub(crate) fn serve_one(
    bus: &MessageBus<SchedMessage>,
    endpoint: &Endpoint<SchedMessage>,
    view: &SiteView,
    config: &SchedulerConfig,
    timeout: Duration,
) -> bool {
    let Ok(delivery) = endpoint.recv_timeout(timeout) else { return false };
    match delivery.msg {
        SchedMessage::HostSelectionRequest { request_id, afg } => {
            let (classes, scratch) = (&mut TaskClasses::new(&afg), &mut SelectScratch::default());
            let output =
                host_selection_for(view, &afg, classes, config, &PredictCache::new(), scratch);
            let reply = SchedMessage::HostSelectionReply { request_id, output };
            let bytes = reply.wire_bytes();
            let _ = bus.send(endpoint.site, delivery.from, reply, bytes);
            true
        }
        SchedMessage::HostSelectionReply { .. } => false, // stray reply; ignore
    }
}

/// A long-running remote scheduler loop: answer requests until the bus
/// says the site has been replaced or `deadline` passes.
pub struct RemoteScheduler {
    /// The site's current view (refresh between requests if desired).
    pub view: SiteView,
    /// Scheduler tunables.
    pub config: SchedulerConfig,
}

impl RemoteScheduler {
    /// Serve requests until `deadline`.
    pub fn serve_until(
        &self,
        bus: &MessageBus<SchedMessage>,
        endpoint: &Endpoint<SchedMessage>,
        deadline: Instant,
    ) -> usize {
        let mut served = 0;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return served;
            }
            if serve_one(bus, endpoint, &self.view, &self.config, deadline - now) {
                served += 1;
            }
        }
    }
}

/// Run the full distributed site-scheduler protocol from the local site:
/// multicast the AFG to the `k` nearest neighbours, run local host
/// selection, collect replies until `reply_timeout`, then execute steps
/// 6–7. Sites that fail to reply in time are simply not used (the paper's
/// prototype tolerates slow/dead neighbours the same way).
pub fn federated_schedule(
    afg: &Afg,
    local: &SiteView,
    bus: &MessageBus<SchedMessage>,
    local_endpoint: &Endpoint<SchedMessage>,
    net: &NetworkModel,
    config: &SchedulerConfig,
    reply_timeout: Duration,
) -> Result<AllocationTable, SchedError> {
    let request_id = {
        // Unique-enough id per call: address of the afg + task count.
        (afg as *const Afg as u64).wrapping_mul(31).wrapping_add(afg.task_count() as u64)
    };
    let neighbours = net.nearest_neighbours(local.site, config.k_neighbours);

    // Step 3: multicast the AFG.
    let req = SchedMessage::HostSelectionRequest { request_id, afg: afg.clone() };
    let bytes = req.wire_bytes();
    let unreachable = bus.multicast(local.site, &neighbours, req, bytes);
    let expected = neighbours.len() - unreachable.len();

    // Step 4 (local half): host selection on the local site, over the
    // task classes the level pass below prices too.
    let (mut classes, cache) = (TaskClasses::new(afg), PredictCache::new());
    let scratch = &mut SelectScratch::default();
    let mut outputs = vec![host_selection_for(local, afg, &mut classes, config, &cache, scratch)];

    // Step 5: collect replies.
    let deadline = Instant::now() + reply_timeout;
    while outputs.len() - 1 < expected {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match local_endpoint.recv_timeout(deadline - now) {
            Ok(d) => {
                if let SchedMessage::HostSelectionReply { request_id: rid, output } = d.msg {
                    if rid == request_id {
                        outputs.push(output);
                    }
                }
            }
            Err(_) => break,
        }
    }

    // Steps 6–7, with every walk option the config carries.
    let levels = classes.levels(local, afg)?;
    let req = SchedRequest { afg, local, remotes: &[], net, config, data: None, metrics: None };
    req.walk(&levels, &outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site_scheduler::site_schedule;
    use std::thread;
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_net::topology::SiteId;
    use vdce_repository::resources::ResourceRecord;
    use vdce_repository::SiteRepository;

    fn site_view(site: u16, hosts: &[(&str, f64)]) -> SiteView {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for (name, speed) in hosts {
                db.upsert(ResourceRecord::new(
                    *name,
                    "10.0.0.1",
                    MachineType::LinuxPc,
                    *speed,
                    1,
                    1 << 30,
                    "g0",
                ));
            }
        });
        SiteView::capture(SiteId(site), &repo)
    }

    fn chain_afg(n: u64) -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "src", n).unwrap();
        let m = b.add_task("Sort", "sort", n).unwrap();
        let k = b.add_task("Sink", "snk", n).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn distributed_protocol_matches_in_process_scheduler() {
        let afg = chain_afg(2_000_000);
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 20.0)]);
        let net = NetworkModel::with_defaults(2);
        let config = SchedulerConfig { k_neighbours: 1, ..SchedulerConfig::default() };

        // In-process reference.
        let reference = site_schedule(&SchedRequest {
            afg: &afg,
            local: &local,
            remotes: std::slice::from_ref(&remote),
            net: &net,
            config: &config,
            data: None,
            metrics: None,
        })
        .unwrap();

        // Bus-based run.
        let bus: MessageBus<SchedMessage> = MessageBus::new();
        let local_ep = bus.register(SiteId(0));
        let remote_ep = bus.register(SiteId(1));
        let bus2 = bus.clone();
        let cfg2 = config;
        let server = thread::spawn(move || {
            let rs = RemoteScheduler { view: remote, config: cfg2 };
            rs.serve_until(&bus2, &remote_ep, Instant::now() + Duration::from_secs(2))
        });
        let table = federated_schedule(
            &afg,
            &local,
            &bus,
            &local_ep,
            &net,
            &config,
            Duration::from_secs(2),
        )
        .unwrap();
        let served = server.join().unwrap();
        assert_eq!(served, 1);
        assert_eq!(table, reference, "bus protocol must reproduce the in-process result");
        // Scheduling traffic was accounted.
        assert!(bus.traffic(SiteId(0), SiteId(1)).bytes > 0);
        assert!(bus.traffic(SiteId(1), SiteId(0)).bytes > 0);
    }

    #[test]
    fn dead_neighbour_site_is_tolerated() {
        let afg = chain_afg(1000);
        let local = site_view(0, &[("l0", 1.0)]);
        let net = NetworkModel::with_defaults(2);
        let config = SchedulerConfig { k_neighbours: 1, ..SchedulerConfig::default() };
        let bus: MessageBus<SchedMessage> = MessageBus::new();
        let local_ep = bus.register(SiteId(0));
        // Site 1 never registers — multicast fails, local-only result.
        let table = federated_schedule(
            &afg,
            &local,
            &bus,
            &local_ep,
            &net,
            &config,
            Duration::from_millis(50),
        )
        .unwrap();
        assert!(table.is_complete_for(&afg));
        assert_eq!(table.sites_used(), vec![SiteId(0)]);
    }

    #[test]
    fn unresponsive_neighbour_times_out() {
        let afg = chain_afg(1000);
        let local = site_view(0, &[("l0", 1.0)]);
        let net = NetworkModel::with_defaults(2);
        let config = SchedulerConfig { k_neighbours: 1, ..SchedulerConfig::default() };
        let bus: MessageBus<SchedMessage> = MessageBus::new();
        let local_ep = bus.register(SiteId(0));
        let _silent = bus.register(SiteId(1)); // registered but never serves
        let t0 = Instant::now();
        let table = federated_schedule(
            &afg,
            &local,
            &bus,
            &local_ep,
            &net,
            &config,
            Duration::from_millis(80),
        )
        .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(80));
        assert_eq!(table.sites_used(), vec![SiteId(0)]);
    }

    #[test]
    fn serve_one_ignores_stray_replies() {
        let view = site_view(1, &[("r0", 1.0)]);
        let bus: MessageBus<SchedMessage> = MessageBus::new();
        let _l = bus.register(SiteId(0));
        let ep = bus.register(SiteId(1));
        let stray = SchedMessage::HostSelectionReply {
            request_id: 9,
            output: HostSelectionOutput { site: SiteId(0), choices: Default::default() },
        };
        let b = stray.wire_bytes();
        bus.send(SiteId(0), SiteId(1), stray, b).unwrap();
        assert!(!serve_one(
            &bus,
            &ep,
            &view,
            &SchedulerConfig::default(),
            Duration::from_millis(20)
        ));
    }

    #[test]
    fn wire_bytes_is_positive_for_real_messages() {
        let afg = chain_afg(10);
        let m = SchedMessage::HostSelectionRequest { request_id: 1, afg };
        assert!(m.wire_bytes() > 100);
    }
}
