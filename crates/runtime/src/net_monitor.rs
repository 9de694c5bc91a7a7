//! The network monitor — the *network* half of the Resource Controller.
//!
//! §3: "A resource performance database provides resource (**machine and
//! network**) attributes"; §4.1 says the Control Manager "measures the
//! loads on the resources (hosts **and networks**) periodically". Host
//! load is the Monitor daemon's job ([`crate::monitor`]); this module
//! covers the links: a [`NetworkMonitor`] periodically probes every
//! site pair through a [`LinkProbe`] it is handed each round and writes
//! the measurements into the [`NetworkModel`] it owns, which schedulers
//! read through [`NetworkMonitor::model`] — so congestion observed on a
//! link steers subsequent placements away from it.
//!
//! The monitor is also the federation's *partition detector* (DESIGN.md
//! §12): a probe that times out entirely (non-finite latency or zero
//! bandwidth) marks the link severed in a detected [`PartitionState`]
//! instead of poisoning the performance model, and a later successful
//! probe restores it. Schedulers consult [`NetworkMonitor::reachability`]
//! to avoid placing tasks across links that are currently down.

use std::collections::{BTreeMap, BTreeSet};
use vdce_net::model::{LinkParams, NetworkModel};
use vdce_net::topology::SiteId;
use vdce_net::PartitionState;

/// Source of link measurements (one round-trip probe per site pair).
pub trait LinkProbe {
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
    overrides: BTreeMap<(u16, u16), (f64, f64)>,
    down: BTreeSet<(u16, u16)>,
    default: (f64, f64),
}

/// The unordered pair `a`–`b` as the probe keys it.
fn pair(a: SiteId, b: SiteId) -> (u16, u16) {
    (a.0.min(b.0), a.0.max(b.0))
}

impl SyntheticLinkProbe {
    /// Probe reporting `(latency, bandwidth)` for every pair until
    /// overridden.
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        SyntheticLinkProbe { default: (latency_s, bandwidth_bps), ..Self::default() }
    }

    /// Override one (symmetric) pair — e.g. congest a link.
    pub fn set(&mut self, a: SiteId, b: SiteId, latency_s: f64, bandwidth_bps: f64) {
        self.overrides.insert(pair(a, b), (latency_s, bandwidth_bps));
    }

    /// Sever one (symmetric) pair: probes on it time out until
    /// [`heal`](Self::heal) is called.
    pub fn sever(&mut self, a: SiteId, b: SiteId) {
        self.down.insert(pair(a, b));
    }

    /// Heal a severed (symmetric) pair: probes succeed again.
    pub fn heal(&mut self, a: SiteId, b: SiteId) {
        self.down.remove(&pair(a, b));
    }
}

impl LinkProbe for SyntheticLinkProbe {
    fn probe(&self, a: SiteId, b: SiteId) -> (f64, f64) {
        let key = pair(a, b);
        if self.down.contains(&key) {
            return (f64::INFINITY, 0.0);
        }
        self.overrides.get(&key).copied().unwrap_or(self.default)
    }
}

/// The network-monitoring daemon: the live network model and the
/// partition state detected by probing it.
pub struct NetworkMonitor {
    model: NetworkModel,
    detected: PartitionState,
}

impl NetworkMonitor {
    /// Monitor every site `model` covers, starting from its links.
    pub fn new(model: NetworkModel) -> Self {
        NetworkMonitor { model, detected: PartitionState::new() }
    }

    /// One probing round over every site pair (including intra-site
    /// links). A probe that times out (non-finite latency or non-positive
    /// bandwidth) marks the link severed in the detected partition state
    /// rather than feeding the performance model; a successful probe
    /// restores it and replaces the modelled link. Returns the number of
    /// links probed.
    pub fn tick(&mut self, probe: &impl LinkProbe) -> usize {
        let sites = self.model.site_count() as u16;
        let mut probed = 0;
        for a in (0..sites).map(SiteId) {
            for b in (a.0..sites).map(SiteId) {
                let (lat, bw) = probe.probe(a, b);
                if lat.is_finite() && bw.is_finite() && bw > 0.0 {
                    self.detected.restore(a, b);
                    // The link answered, but a latency of zero or less is
                    // no measurement: the model keeps its last estimate.
                    if lat > 0.0 {
                        self.model.set_link(a, b, LinkParams::new(lat, bw));
                    }
                } else {
                    self.detected.sever(a, b);
                }
                probed += 1;
            }
        }
        probed
    }

    /// The network model as the probes last measured it.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// The partition state as detected by probing — which inter-site
    /// links currently appear down. Feeds the schedulers' reachability
    /// filtering during partitions.
    pub fn reachability(&self) -> &PartitionState {
        &self.detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_probes_every_pair_and_updates_model() {
        let probe = SyntheticLinkProbe::new(0.123, 1_000_000.0);
        let mut mon = NetworkMonitor::new(NetworkModel::with_defaults(3));
        assert_eq!(mon.tick(&probe), 6, "3 sites → 6 unordered pairs incl. diagonals");
        for a in 0..3u16 {
            for b in a..3u16 {
                let l = mon.model().link(SiteId(a), SiteId(b));
                assert!((l.latency_s - 0.123).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn congestion_override_reaches_the_model() {
        let mut probe = SyntheticLinkProbe::new(0.01, 1e7);
        probe.set(SiteId(0), SiteId(1), 2.0, 1e3); // congested WAN
        let mut mon = NetworkMonitor::new(NetworkModel::with_defaults(2));
        mon.tick(&probe);
        assert!((mon.model().link(SiteId(0), SiteId(1)).latency_s - 2.0).abs() < 1e-12);
        assert!((mon.model().link(SiteId(0), SiteId(0)).latency_s - 0.01).abs() < 1e-12);
        // Congestion clears; the model takes each sample as measured.
        probe.set(SiteId(0), SiteId(1), 0.01, 1e7);
        mon.tick(&probe);
        assert!((mon.model().link(SiteId(0), SiteId(1)).latency_s - 0.01).abs() < 1e-12);
    }

    #[test]
    fn garbage_samples_leave_the_model_alone() {
        let mut probe = SyntheticLinkProbe::new(0.05, 1e6);
        let mut mon = NetworkMonitor::new(NetworkModel::with_defaults(2));
        mon.tick(&probe);
        let before = mon.model().clone();
        for (lat, bw) in [(-1.0, 1e6), (0.0, 1e6), (0.1, f64::NAN)] {
            probe.set(SiteId(0), SiteId(1), lat, bw);
            mon.tick(&probe);
            assert_eq!(*mon.model(), before, "sample ({lat}, {bw}) reached the model");
        }
        // The NaN bandwidth read as a timed-out probe; a zero-latency
        // answer still proves the link is up.
        assert!(mon.reachability().is_severed(SiteId(0), SiteId(1)));
        probe.set(SiteId(0), SiteId(1), 0.0, 1e6);
        mon.tick(&probe);
        assert!(mon.reachability().is_whole(), "zero-latency probe restores the link");
        assert_eq!(*mon.model(), before);
    }

    #[test]
    fn severed_link_is_detected_not_modelled() {
        let mut probe = SyntheticLinkProbe::new(0.05, 1e6);
        let mut mon = NetworkMonitor::new(NetworkModel::with_defaults(3));
        mon.tick(&probe);
        assert!(mon.reachability().is_whole(), "healthy network detects no cuts");

        probe.sever(SiteId(0), SiteId(1));
        mon.tick(&probe);
        let det = mon.reachability();
        assert!(det.is_severed(SiteId(0), SiteId(1)));
        assert!(det.reachable(SiteId(0), SiteId(1), 3), "mesh routes around one cut");
        // The performance model kept its last good estimate instead of
        // absorbing the timed-out probe.
        let l = mon.model().link(SiteId(0), SiteId(1));
        assert!((l.latency_s - 0.05).abs() < 1e-12);

        probe.heal(SiteId(0), SiteId(1));
        mon.tick(&probe);
        assert!(mon.reachability().is_whole(), "successful probe restores the link");
    }

    #[test]
    fn full_isolation_is_detected_as_unreachable() {
        let mut probe = SyntheticLinkProbe::new(0.05, 1e6);
        for other in [0u16, 1] {
            probe.sever(SiteId(2), SiteId(other));
        }
        let mut mon = NetworkMonitor::new(NetworkModel::with_defaults(3));
        mon.tick(&probe);
        let det = mon.reachability();
        assert!(!det.reachable(SiteId(2), SiteId(0), 3));
        assert!(!det.reachable(SiteId(2), SiteId(1), 3));
        assert!(det.reachable(SiteId(0), SiteId(1), 3), "survivors stay connected");
    }
}
