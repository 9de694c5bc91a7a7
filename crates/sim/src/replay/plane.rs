//! The control plane a replay drives: the *real* runtime components —
//! Monitor daemons, Group Managers, Site Managers, the network monitor,
//! the checkpoint store, the journal — wired to synthetic probes and a
//! virtual clock.

use super::engine::Inputs;
use crate::faults::Fault;
use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::Arc;
use vdce_net::model::SharedNetworkModel;
use vdce_net::topology::SiteId;
use vdce_predict::cache::PredictCache;
use vdce_repository::SiteRepository;
use vdce_runtime::{
    write_snapshot, CheckpointStore, ControlEvent, ControlMessage, DeputyLink, DurableOptions,
    EventLog, FlagEcho, GroupManager, JournaledSiteEvent, MonitorDaemon, MonitorReport,
    NetworkMonitor, SiteFailover, SiteManager, SiteTableEvent, SyntheticLinkProbe, SyntheticProbe,
};
use vdce_store::Journal;

/// One site's control-plane stack inside the replay.
pub(super) struct SiteStack {
    pub(super) manager: SiteManager,
    pub(super) group: GroupManager,
    pub(super) daemons: Vec<MonitorDaemon>,
    pub(super) monitor_rx: Receiver<MonitorReport>,
    pub(super) control_rx: Receiver<ControlMessage>,
}

/// Everything the replay drives rather than models. Faults enter through
/// `echo` (host liveness), `link_probe` (link quality and cuts) and
/// `probe` (load); what the plane makes of them comes back out through
/// the stacks' control channels and `net_mon`.
pub(super) struct ControlPlane {
    /// Disabled unless the replay is durable.
    pub(super) journal: Journal,
    pub(super) log: EventLog,
    /// Deep copies of the federation's repositories, one per site.
    pub(super) repos: Vec<SiteRepository>,
    pub(super) stacks: Vec<SiteStack>,
    pub(super) probe: Arc<SyntheticProbe>,
    pub(super) echo: Arc<FlagEcho>,
    pub(super) shared_net: SharedNetworkModel,
    pub(super) link_probe: Arc<SyntheticLinkProbe>,
    pub(super) net_mon: NetworkMonitor,
    /// Shared by every re-selection of the run.
    pub(super) cache: PredictCache,
    pub(super) store: CheckpointStore,
    /// Bytes of the latest snapshot outside its log: the next one's
    /// buffer is sized from it.
    snapshot_head: Cell<usize>,
}

impl ControlPlane {
    pub(super) fn new(inp: &Inputs<'_>, durable: Option<&DurableOptions>) -> ControlPlane {
        let Inputs { federation, cfg, sites, .. } = *inp;
        let journal = durable.map_or_else(Journal::disabled, |d| d.journal.clone());
        let log = EventLog::traced(inp.obs.trace.clone()).with_journal(journal.clone());

        // Deep-copy every repository so the caller's federation is untouched
        // and repeated replays start from identical state.
        let repos: Vec<SiteRepository> =
            federation.repos.iter().map(|r| SiteRepository::from_snapshot(r.snapshot())).collect();
        for (i, repo) in repos.iter().enumerate() {
            repo.attach_journal(i as u16, journal.clone());
        }

        // Load spikes are baked into the monitoring probe's traces.
        let probe = Arc::new(SyntheticProbe::new(0.0, 1 << 30));
        for f in &inp.plan.faults {
            if let Fault::LoadSpike { host, at, height, duration } = f {
                probe.add_spike(host.clone(), *at, *height, *duration);
            }
        }
        let echo = Arc::new(FlagEcho::new());
        let mut stacks: Vec<SiteStack> = Vec::with_capacity(sites);
        for (i, repo) in repos.iter().enumerate() {
            let site = SiteId(i as u16);
            let (ctl_tx, control_rx) = unbounded();
            let (mon_tx, monitor_rx) = unbounded();
            let hosts = federation.hosts(site);
            let daemons: Vec<MonitorDaemon> = hosts
                .iter()
                .map(|h| MonitorDaemon::new(h.clone(), probe.clone(), mon_tx.clone(), log.clone()))
                .collect();
            let mut manager = SiteManager::new(site, repo.clone());
            if let Some(d) = durable {
                // The deputy's replica starts from the leader's state at
                // attach time — before any tick mutates the repository.
                manager = manager.with_deputy(Arc::new(Mutex::new(DeputyLink::new(
                    repo.snapshot(),
                    d.deputy_check_every,
                ))));
            }
            let group = GroupManager::new(
                format!("s{i}-gm"),
                hosts,
                cfg.significance_threshold,
                echo.clone(),
                ctl_tx,
                log.clone(),
            );
            stacks.push(SiteStack { manager, group, daemons, monitor_rx, control_rx });
        }

        // Network plane: EMA weight 1.0 so the model tracks the probe
        // exactly; the probe is pre-seeded with every pristine link so
        // monitor rounds never clobber un-faulted heterogeneous links.
        let shared_net = SharedNetworkModel::new(federation.net.clone(), 1.0);
        let link_probe = Arc::new(SyntheticLinkProbe::new(1.0, 1.0));
        for a in 0..sites as u16 {
            for b in a..sites as u16 {
                let l = federation.net.link(SiteId(a), SiteId(b));
                link_probe.set(SiteId(a), SiteId(b), l.latency_s, l.bandwidth_bps);
            }
        }
        let net_mon = NetworkMonitor::new(shared_net.clone(), link_probe.clone(), sites);

        let store = CheckpointStore::new();
        store.attach_journal(journal.clone());
        ControlPlane {
            journal,
            log,
            repos,
            stacks,
            probe,
            echo,
            shared_net,
            link_probe,
            net_mon,
            cache: PredictCache::new(),
            store,
            snapshot_head: Cell::new(0),
        }
    }

    /// The whole control-plane state, serialised once from the live
    /// components, with its hash — what a snapshot installs and what the
    /// final seal pins.
    pub(super) fn capture_state(&self, failover: &[SiteFailover]) -> (Vec<u8>, u64) {
        let (bytes, hash) =
            write_snapshot(&self.repos, &self.store, failover, &self.log, self.snapshot_head.get());
        let log_bytes = self.log.with_journaled_json(<[u8]>::len);
        self.snapshot_head.set(bytes.len().saturating_sub(log_bytes));
        (bytes, hash)
    }

    /// Journal a site-table liveness transition (`site` tag) ahead of
    /// applying it to the live failover tracker. No-op when disabled.
    pub(super) fn journal_site(&self, site: SiteId, event: SiteTableEvent) {
        if self.journal.is_enabled() {
            let ev = ControlEvent::Site(JournaledSiteEvent { site: site.0, event });
            self.journal.append(ev.tag(), &ev.payload());
        }
    }
}
