//! The Group Manager (§4.1, Figure 4).
//!
//! Two duties:
//!
//! 1. **Significant-change filtering** — "The Group Manager sends to the
//!    Site Manager only the workloads of the resources that have changed
//!    considerably from the previous measurement." Implemented as an
//!    absolute-delta filter with threshold [`GroupManager::threshold`];
//!    the first report for a host always passes. The received/forwarded
//!    counters feed the Figure-4 traffic-reduction experiment.
//! 2. **Failure detection** — "Another function of the Group Manager is
//!    to periodically check all hosts in the group by sending echo
//!    packets to hosts and waiting for their responses. When a failure of
//!    a host is detected, the Group Manager passes this information to
//!    the Site Manager." Echo transport is behind [`EchoProbe`];
//!    [`FlagEcho`] lets tests and experiments kill/revive hosts.

use crate::events::{EventLog, RuntimeEvent};
use crate::monitor::MonitorReport;
use crate::site_manager::ControlMessage;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock};

/// Echo-packet transport.
pub trait EchoProbe: Send + Sync {
    /// Does `host` answer an echo packet in time?
    fn echo(&self, host: &str) -> bool;
}

/// Test/experiment echo transport: hosts answer unless explicitly marked
/// down.
#[derive(Debug, Default)]
pub struct FlagEcho {
    down: RwLock<BTreeSet<String>>,
}

impl FlagEcho {
    /// All hosts up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stop `host` answering echoes.
    pub fn kill(&self, host: impl Into<String>) {
        self.down.write().unwrap().insert(host.into());
    }

    /// Let `host` answer echoes again.
    pub fn revive(&self, host: &str) {
        self.down.write().unwrap().remove(host);
    }
}

impl EchoProbe for FlagEcho {
    fn echo(&self, host: &str) -> bool {
        !self.down.read().unwrap().contains(host)
    }
}

/// Filtering / probing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Monitor reports received.
    pub reports_received: u64,
    /// Reports forwarded to the Site Manager (significant changes).
    pub reports_forwarded: u64,
    /// Echo rounds performed.
    pub(crate) echo_rounds: u64,
    /// Failures detected.
    pub failures_detected: u64,
    /// Recoveries detected.
    pub(crate) recoveries_detected: u64,
}

/// The Group Manager for one host group.
pub struct GroupManager {
    /// Group name (matches `ResourceRecord::group`).
    pub name: String,
    hosts: Vec<String>,
    threshold: f64,
    last_forwarded: BTreeMap<String, f64>,
    down: BTreeSet<String>,
    echo: Arc<dyn EchoProbe>,
    log: EventLog,
    stats: GroupStats,
}

impl GroupManager {
    /// Manager for `hosts`, forwarding significant changes (absolute
    /// workload delta ≥ `threshold`) and failure events to the Site
    /// Manager.
    pub fn new(
        name: impl Into<String>,
        hosts: Vec<String>,
        threshold: f64,
        echo: Arc<dyn EchoProbe>,
        log: EventLog,
    ) -> Self {
        GroupManager {
            name: name.into(),
            hosts,
            threshold,
            last_forwarded: BTreeMap::new(),
            down: BTreeSet::new(),
            echo,
            log,
            stats: GroupStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// Handle one monitor report at logical time `t`: the workload
    /// update for the Site Manager when the change is significant.
    pub fn handle_report(&mut self, t: f64, report: &MonitorReport) -> Option<ControlMessage> {
        self.stats.reports_received += 1;
        let significant = match self.last_forwarded.get(&report.host) {
            None => true, // first measurement always establishes a baseline
            Some(last) => (report.workload - last).abs() >= self.threshold,
        };
        if !significant {
            return None;
        }
        self.last_forwarded.insert(report.host.clone(), report.workload);
        self.stats.reports_forwarded += 1;
        self.log.emit(
            t,
            RuntimeEvent::WorkloadForwarded {
                host: report.host.clone(),
                workload: report.workload,
            },
        );
        Some(ControlMessage::WorkloadUpdate {
            host: report.host.clone(),
            workload: report.workload,
            available_memory: report.available_memory,
        })
    }

    /// One echo round over all hosts at logical time `t`: a failure or
    /// recovery message for the Site Manager per host that changed state,
    /// in host order.
    pub fn probe_hosts(&mut self, t: f64) -> Vec<ControlMessage> {
        self.stats.echo_rounds += 1;
        let mut changed = Vec::new();
        for host in &self.hosts {
            let alive = self.echo.echo(host);
            let was_down = self.down.contains(host);
            if !alive && !was_down {
                self.down.insert(host.clone());
                self.stats.failures_detected += 1;
                self.log.emit(t, RuntimeEvent::HostFailed { host: host.clone() });
                changed.push(ControlMessage::HostFailure { host: host.clone() });
            } else if alive && was_down {
                self.down.remove(host);
                self.stats.recoveries_detected += 1;
                self.log.emit(t, RuntimeEvent::HostRecovered { host: host.clone() });
                changed.push(ControlMessage::HostRecovered { host: host.clone() });
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    fn mk(threshold: f64) -> (GroupManager, Arc<FlagEcho>) {
        let echo = Arc::new(FlagEcho::new());
        let hosts = vec!["a".into(), "b".into()];
        let gm = GroupManager::new("g0", hosts, threshold, echo.clone(), EventLog::new());
        (gm, echo)
    }

    fn report(host: &str, w: f64) -> MonitorReport {
        MonitorReport { host: host.into(), workload: w, available_memory: 1 << 20 }
    }

    fn update(host: &str, w: f64) -> Option<ControlMessage> {
        Some(ControlMessage::WorkloadUpdate {
            host: host.into(),
            workload: w,
            available_memory: 1 << 20,
        })
    }

    #[test]
    fn first_report_always_forwards() {
        let (mut gm, _) = mk(1.0);
        assert_eq!(gm.handle_report(0.0, &report("a", 0.0)), update("a", 0.0));
    }

    #[test]
    fn small_changes_are_filtered() {
        let (mut gm, _) = mk(1.0);
        assert_eq!(gm.handle_report(0.0, &report("a", 2.0)), update("a", 2.0));
        assert_eq!(gm.handle_report(1.0, &report("a", 2.5)), None, "Δ0.5 < 1.0 filtered");
        assert_eq!(gm.handle_report(2.0, &report("a", 1.2)), None, "Δ0.8 < 1.0 filtered");
        assert_eq!(gm.stats().reports_received, 3);
        assert_eq!(gm.stats().reports_forwarded, 1);
    }

    #[test]
    fn change_is_measured_against_last_forwarded_not_last_seen() {
        let (mut gm, _) = mk(1.0);
        assert!(gm.handle_report(0.0, &report("a", 0.0)).is_some());
        // Creep up in sub-threshold steps; the cumulative drift must
        // eventually fire (because the baseline stays at 0.0).
        assert_eq!(gm.handle_report(1.0, &report("a", 0.6)), None);
        assert_eq!(gm.handle_report(2.0, &report("a", 1.2)), update("a", 1.2), "drift ≥ 1.0");
    }

    #[test]
    fn per_host_baselines_are_independent() {
        let (mut gm, _) = mk(1.0);
        gm.handle_report(0.0, &report("a", 5.0));
        assert_eq!(gm.handle_report(0.0, &report("b", 0.0)), update("b", 0.0), "first for b");
    }

    #[test]
    fn zero_threshold_forwards_everything() {
        let (mut gm, _) = mk(0.0);
        assert_eq!(gm.handle_report(0.0, &report("a", 1.0)), update("a", 1.0));
        assert_eq!(gm.handle_report(1.0, &report("a", 1.0)), update("a", 1.0), "Δ0 ≥ 0");
    }

    #[test]
    fn failure_and_recovery_transitions() {
        let (mut gm, echo) = mk(1.0);
        assert!(gm.probe_hosts(0.0).is_empty(), "all up initially");
        echo.kill("b");
        echo.kill("a");
        let failed = |h: &str| ControlMessage::HostFailure { host: h.into() };
        assert_eq!(gm.probe_hosts(1.0), vec![failed("a"), failed("b")], "in host order");
        assert!(gm.down.contains("a"));
        // Still down: no duplicate message.
        assert!(gm.probe_hosts(2.0).is_empty());
        // Recovery.
        echo.revive("a");
        assert_eq!(gm.probe_hosts(3.0), vec![ControlMessage::HostRecovered { host: "a".into() }]);
        assert_eq!(gm.down.len(), 1);
        let s = gm.stats();
        assert_eq!(s.failures_detected, 2);
        assert_eq!(s.recoveries_detected, 1);
        assert_eq!(s.echo_rounds, 4);
    }

    #[test]
    fn events_are_logged() {
        let echo = Arc::new(FlagEcho::new());
        let log = EventLog::new();
        let mut gm = GroupManager::new("g", vec!["a".into()], 0.5, echo.clone(), log.clone());
        gm.handle_report(0.0, &report("a", 3.0));
        echo.kill("a");
        gm.probe_hosts(1.0);
        assert_eq!(log.query(EventKind::WorkloadForwarded).count(), 1);
        assert_eq!(log.snapshot()[1], (1.0, RuntimeEvent::HostFailed { host: "a".into() }));
    }
}
