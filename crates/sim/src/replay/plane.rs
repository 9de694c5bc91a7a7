//! The control plane a replay drives: the *real* runtime components —
//! Monitor daemons, Group Managers, Site Managers, the network monitor,
//! the checkpoint store, the journal — fed from synthetic probes the
//! plane owns and driven on a virtual clock.

use super::engine::Inputs;
use super::ReplayRequest;
use crate::faults::Fault;
use std::cell::Cell;
use vdce_net::topology::SiteId;
use vdce_predict::cache::PredictCache;
use vdce_repository::SiteRepository;
use vdce_runtime::{
    write_snapshot, CheckpointStore, ControlEvent, ControlMessage, DeputyLink, EventLog, FlagEcho,
    GroupManager, JournaledSiteEvent, MonitorDaemon, NetworkMonitor, SiteFailover, SiteManager,
    SiteTableEvent, SyntheticLinkProbe, SyntheticProbe,
};
use vdce_store::Journal;

/// One site's control-plane stack inside the replay.
pub(super) struct SiteStack {
    pub(super) manager: SiteManager,
    /// The deputy the manager ships each repository event to; durable
    /// replays only.
    pub(super) deputy: Option<DeputyLink>,
    pub(super) group: GroupManager,
    pub(super) daemons: Vec<MonitorDaemon>,
    /// What the Group Manager sent the Site Manager this tick, in order:
    /// filled by the monitoring round, drained into the repository after.
    pub(super) outbox: Vec<ControlMessage>,
}

/// Everything the replay drives rather than models. Faults enter through
/// `echo` (host liveness), `link_probe` (link quality and cuts) and
/// `probe` (load), which the monitoring round hands to the components
/// each tick; what the plane makes of them comes back out through the
/// stacks' outboxes and `net_mon`.
pub(super) struct ControlPlane {
    /// Disabled unless the replay is durable.
    pub(super) journal: Journal,
    pub(super) log: EventLog,
    /// One per site; each manager owns a deep copy of the site's
    /// repository.
    pub(super) stacks: Vec<SiteStack>,
    pub(super) probe: SyntheticProbe,
    pub(super) echo: FlagEcho,
    pub(super) link_probe: SyntheticLinkProbe,
    /// Owns the live network model the replay prices transfers with.
    pub(super) net_mon: NetworkMonitor,
    /// Shared by every re-selection of the run.
    pub(super) cache: PredictCache,
    pub(super) store: CheckpointStore,
    /// Bytes of the latest snapshot outside its log: the next one's
    /// buffer is sized from it.
    snapshot_head: Cell<usize>,
}

impl ControlPlane {
    pub(super) fn new(inp: &Inputs<'_>) -> ControlPlane {
        let ReplayRequest { federation, config: cfg, durable, obs, .. } = inp.req;
        let sites = inp.sites;
        let journal = durable.map_or_else(Journal::disabled, |d| d.journal.clone());
        let log = obs.map_or_else(EventLog::new, |o| EventLog::traced(o.trace.clone()));
        let log = log.with_journal(journal.clone());

        // Load spikes are baked into the monitoring probe's traces.
        let mut probe = SyntheticProbe::new(0.0, 1 << 30);
        for f in &inp.req.plan.faults {
            if let Fault::LoadSpike { host, at, height, duration } = f {
                probe.add_spike(host.clone(), *at, *height, *duration);
            }
        }
        let echo = FlagEcho::new();
        let mut stacks: Vec<SiteStack> = Vec::with_capacity(sites);
        for (i, repo) in federation.repos.iter().enumerate() {
            let site = SiteId(i as u16);
            let hosts = federation.hosts(site);
            let daemons: Vec<MonitorDaemon> =
                hosts.iter().map(|h| MonitorDaemon::new(h.clone(), log.clone())).collect();
            // A deep copy, so the caller's federation is untouched and
            // repeated replays start from identical state.
            let manager = SiteManager::new(site, SiteRepository::from_snapshot(repo.snapshot()));
            manager.attach_journal(journal.clone());
            // The deputy's replica starts from the leader's state at
            // attach time — before any tick mutates the repository.
            let deputy = durable
                .map(|d| DeputyLink::new(manager.repository().snapshot(), d.deputy_check_every));
            let group = GroupManager::new(
                format!("s{i}-gm"),
                hosts,
                cfg.significance_threshold,
                log.clone(),
            );
            stacks.push(SiteStack { manager, deputy, group, daemons, outbox: Vec::new() });
        }

        // Network plane: the monitor writes each probe sample into its
        // model as measured; the probe is pre-seeded with every pristine
        // link so monitor rounds never clobber un-faulted heterogeneous
        // links.
        debug_assert_eq!(federation.net.site_count(), sites);
        let mut link_probe = SyntheticLinkProbe::new(1.0, 1.0);
        for a in 0..sites as u16 {
            for b in a..sites as u16 {
                let l = federation.net.link(SiteId(a), SiteId(b));
                link_probe.set(SiteId(a), SiteId(b), l.latency_s, l.bandwidth_bps);
            }
        }
        let net_mon = NetworkMonitor::new(federation.net.clone());

        let mut store = CheckpointStore::new();
        store.attach_journal(journal.clone());
        ControlPlane {
            journal,
            log,
            stacks,
            probe,
            echo,
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
        let repos = self.stacks.iter().map(|s| s.manager.repository());
        let (bytes, hash) =
            write_snapshot(repos, &self.store, failover, &self.log, self.snapshot_head.get());
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
