//! The network monitor — the *network* half of the Resource Controller.
//!
//! §3: "A resource performance database provides resource (**machine and
//! network**) attributes"; §4.1 says the Control Manager "measures the
//! loads on the resources (hosts **and networks**) periodically". Host
//! load is the Monitor daemon's job ([`crate::monitor`]); this module
//! covers the links: a [`NetworkMonitor`] periodically probes every
//! site pair through a [`LinkProbe`] and folds the measurements into a
//! [`SharedNetworkModel`], which schedulers snapshot before each run —
//! so congestion observed on a link steers subsequent placements away
//! from it.
//!
//! The monitor is also the federation's *partition detector* (DESIGN.md
//! §12): a probe that times out entirely (non-finite latency or zero
//! bandwidth) marks the link severed in a detected [`PartitionState`]
//! instead of poisoning the performance model, and a later successful
//! probe restores it. Schedulers consult [`NetworkMonitor::reachability`]
//! to avoid placing tasks across links that are currently down.

use std::sync::Arc;
use vdce_net::model::SharedNetworkModel;
use vdce_net::topology::SiteId;
use vdce_net::PartitionState;

/// Source of link measurements (one round-trip probe per site pair).
pub trait LinkProbe: Send + Sync {
    /// Measure the link `a`–`b` now; returns `(latency seconds,
    /// bandwidth bytes/s)`. A dead link is reported as a non-finite
    /// latency or a non-positive bandwidth (a probe that never returned).
    fn probe(&self, a: SiteId, b: SiteId) -> (f64, f64);
}

/// Deterministic probe for tests and experiments: per-pair values with a
/// settable override (simulating congestion) and a severed-link set
/// (simulating partitions: probes on severed links "time out", reporting
/// infinite latency and zero bandwidth).
#[derive(Debug, Default)]
pub struct SyntheticLinkProbe {
    overrides: parking_lot::RwLock<std::collections::BTreeMap<(u16, u16), (f64, f64)>>,
    down: parking_lot::RwLock<std::collections::BTreeSet<(u16, u16)>>,
    default: parking_lot::RwLock<(f64, f64)>,
}

impl SyntheticLinkProbe {
    /// Probe reporting `(latency, bandwidth)` for every pair until
    /// overridden.
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        let p = SyntheticLinkProbe::default();
        *p.default.write() = (latency_s, bandwidth_bps);
        p
    }

    /// Override one (symmetric) pair — e.g. congest a link.
    pub fn set(&self, a: SiteId, b: SiteId, latency_s: f64, bandwidth_bps: f64) {
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.overrides.write().insert(key, (latency_s, bandwidth_bps));
    }

    /// Sever one (symmetric) pair: probes on it time out until
    /// [`heal`](Self::heal) is called.
    pub fn sever(&self, a: SiteId, b: SiteId) {
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.down.write().insert(key);
    }

    /// Heal a severed (symmetric) pair: probes succeed again.
    pub fn heal(&self, a: SiteId, b: SiteId) {
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.down.write().remove(&key);
    }
}

impl LinkProbe for SyntheticLinkProbe {
    fn probe(&self, a: SiteId, b: SiteId) -> (f64, f64) {
        let key = (a.0.min(b.0), a.0.max(b.0));
        if self.down.read().contains(&key) {
            return (f64::INFINITY, 0.0);
        }
        self.overrides.read().get(&key).copied().unwrap_or(*self.default.read())
    }
}

/// The network-monitoring daemon.
pub struct NetworkMonitor {
    model: SharedNetworkModel,
    probe: Arc<dyn LinkProbe>,
    sites: usize,
    detected: parking_lot::RwLock<PartitionState>,
}

impl NetworkMonitor {
    /// Monitor `sites` sites, feeding `model` from `probe`.
    pub fn new(model: SharedNetworkModel, probe: Arc<dyn LinkProbe>, sites: usize) -> Self {
        NetworkMonitor {
            model,
            probe,
            sites,
            detected: parking_lot::RwLock::new(PartitionState::new()),
        }
    }

    /// One probing round over every site pair (including intra-site
    /// links). A probe that times out (non-finite latency or non-positive
    /// bandwidth) marks the link severed in the detected partition state
    /// rather than feeding the performance model; a successful probe
    /// restores it. Returns the number of links probed.
    pub fn tick(&self) -> usize {
        let mut probed = 0;
        for a in 0..self.sites as u16 {
            for b in a..self.sites as u16 {
                let (lat, bw) = self.probe.probe(SiteId(a), SiteId(b));
                if lat.is_finite() && bw.is_finite() && bw > 0.0 {
                    self.detected.write().restore(SiteId(a), SiteId(b));
                    self.model.observe(SiteId(a), SiteId(b), lat, bw);
                } else {
                    self.detected.write().sever(SiteId(a), SiteId(b));
                }
                probed += 1;
            }
        }
        probed
    }

    /// Snapshot of the partition state as detected by probing — which
    /// inter-site links currently appear down. Feeds the schedulers'
    /// reachability filtering during partitions.
    pub fn reachability(&self) -> PartitionState {
        self.detected.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_net::model::NetworkModel;

    #[test]
    fn tick_probes_every_pair_and_updates_model() {
        let model = SharedNetworkModel::new(NetworkModel::with_defaults(3), 1.0);
        let probe = Arc::new(SyntheticLinkProbe::new(0.123, 1_000_000.0));
        let mon = NetworkMonitor::new(model.clone(), probe, 3);
        assert_eq!(mon.tick(), 6, "3 sites → 6 unordered pairs incl. diagonals");
        for a in 0..3u16 {
            for b in a..3u16 {
                let l = model.link(SiteId(a), SiteId(b));
                assert!((l.latency_s - 0.123).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn congestion_override_reaches_the_model() {
        let model = SharedNetworkModel::new(NetworkModel::with_defaults(2), 1.0);
        let probe = Arc::new(SyntheticLinkProbe::new(0.01, 1e7));
        probe.set(SiteId(0), SiteId(1), 2.0, 1e3); // congested WAN
        let mon = NetworkMonitor::new(model.clone(), probe.clone(), 2);
        mon.tick();
        assert!((model.link(SiteId(0), SiteId(1)).latency_s - 2.0).abs() < 1e-12);
        assert!((model.link(SiteId(0), SiteId(0)).latency_s - 0.01).abs() < 1e-12);
        // Congestion clears; with EMA weight 1.0 the model snaps back.
        probe.set(SiteId(0), SiteId(1), 0.01, 1e7);
        mon.tick();
        assert!((model.link(SiteId(0), SiteId(1)).latency_s - 0.01).abs() < 1e-12);
    }

    #[test]
    fn severed_link_is_detected_not_modelled() {
        let model = SharedNetworkModel::new(NetworkModel::with_defaults(3), 1.0);
        let probe = Arc::new(SyntheticLinkProbe::new(0.05, 1e6));
        let mon = NetworkMonitor::new(model.clone(), probe.clone(), 3);
        mon.tick();
        assert!(mon.reachability().is_whole(), "healthy network detects no cuts");

        probe.sever(SiteId(0), SiteId(1));
        mon.tick();
        let det = mon.reachability();
        assert!(det.is_severed(SiteId(0), SiteId(1)));
        assert!(det.reachable(SiteId(0), SiteId(1), 3), "mesh routes around one cut");
        // The performance model kept its last good estimate instead of
        // absorbing the timed-out probe.
        let l = model.link(SiteId(0), SiteId(1));
        assert!((l.latency_s - 0.05).abs() < 1e-12);

        probe.heal(SiteId(0), SiteId(1));
        mon.tick();
        assert!(mon.reachability().is_whole(), "successful probe restores the link");
    }

    #[test]
    fn full_isolation_is_detected_as_unreachable() {
        let model = SharedNetworkModel::new(NetworkModel::with_defaults(3), 1.0);
        let probe = Arc::new(SyntheticLinkProbe::new(0.05, 1e6));
        for other in [0u16, 1] {
            probe.sever(SiteId(2), SiteId(other));
        }
        let mon = NetworkMonitor::new(model, probe, 3);
        mon.tick();
        let det = mon.reachability();
        assert!(!det.reachable(SiteId(2), SiteId(0), 3));
        assert!(!det.reachable(SiteId(2), SiteId(1), 3));
        assert!(det.reachable(SiteId(0), SiteId(1), 3), "survivors stay connected");
    }
}
