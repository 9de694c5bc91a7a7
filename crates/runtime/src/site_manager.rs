//! The Site Manager (§4.1, Figure 4).
//!
//! Runs on the VDCE server machine of each site. Its functions, per the
//! paper:
//!
//! 1. "periodically updates the resource-performance database at the site
//!    repository with the monitoring information (i.e., the workload
//!    measurement and failure detection information of the resources)" —
//!    [`SiteManager::process`], once per message a Group Manager returns;
//! 2. "updates the task-performance database with the execution time
//!    after an application execution is completed" — the
//!    [`ControlMessage::ExecutionCompleted`] path;
//! 3. "multicast\[s\] the resource allocation table to the Group Managers
//!    that will be involved in the execution" — not modelled: the
//!    executor reads each placement from the table itself;
//! 4. "the inter-site coordination and message transfer (for scheduling
//!    and monitoring purposes) are handled by Site Managers" — the
//!    scheduling half lives in `vdce_sched::federation`
//!    ([`SiteManager::view`] produces the snapshot it serves).
//!
//! The paper runs exactly one Site Manager per site, on the VDCE server
//! machine — a single point of failure for the whole site. DESIGN.md §12
//! adds the missing failover protocol: [`SiteFailover`] tracks host
//! liveness inside the site, promotes a *deputy* manager (the
//! lexicographically smallest live host) when the server machine dies,
//! restores the primary when it returns, and declares the site
//! quarantined at federation level once no host answers at all.

use crate::durable::DeputyLink;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use vdce_net::topology::SiteId;
use vdce_repository::resources::HostStatus;
use vdce_repository::{RepoEvent, SiteRepository};
use vdce_sched::view::SiteView;
use vdce_store::Journal;

/// Control-plane messages flowing up from Group Managers (and from the
/// Application Controller for execution-time write-back).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMessage {
    /// A significant workload change on a host.
    WorkloadUpdate {
        /// Host name.
        host: String,
        /// New workload.
        workload: f64,
        /// Available memory in bytes.
        available_memory: u64,
    },
    /// Echo probing declared the host dead.
    HostFailure {
        /// Host name.
        host: String,
    },
    /// A dead host answers echoes again.
    HostRecovered {
        /// Host name.
        host: String,
    },
    /// A task execution completed; write the measured time back into the
    /// task-performance database.
    ExecutionCompleted {
        /// Library task name.
        library_task: String,
        /// Host it ran on.
        host: String,
        /// Problem size it ran at.
        problem_size: u64,
        /// Measured wall-clock seconds.
        seconds: f64,
    },
}

/// The Site Manager of one site.
pub struct SiteManager {
    /// Site this manager serves.
    pub site: SiteId,
    repo: SiteRepository,
}

impl SiteManager {
    /// Manager over `repo` for `site`.
    pub fn new(site: SiteId, repo: SiteRepository) -> Self {
        SiteManager { site, repo }
    }

    /// The repository this manager maintains.
    pub fn repository(&self) -> &SiteRepository {
        &self.repo
    }

    /// Journal every later repository event of this manager (and ship it
    /// to a deputy) tagged with the manager's own site.
    pub fn attach_journal(&self, journal: Journal) {
        self.repo.attach_journal(self.site.0, journal);
    }

    /// Apply one control message to the site repository through the
    /// event-sourced write path: the message becomes a [`RepoEvent`],
    /// which is journaled (write-ahead, when a journal is attached),
    /// applied, and shipped to `deputy`'s replica, with its periodic
    /// state-hash divergence checks (DESIGN.md §16). Returns `false` for
    /// updates about unknown hosts (logged and dropped in the paper's
    /// prototype) and for a NaN or infinite measurement.
    pub fn process(&self, msg: &ControlMessage, deputy: Option<&mut DeputyLink>) -> bool {
        let event = match msg {
            ControlMessage::WorkloadUpdate { host, workload, available_memory } => {
                RepoEvent::RecordSample {
                    host: host.clone(),
                    workload: *workload,
                    available_memory: *available_memory,
                }
            }
            ControlMessage::HostFailure { host } => {
                RepoEvent::SetStatus { host: host.clone(), status: HostStatus::Down }
            }
            ControlMessage::HostRecovered { host } => {
                RepoEvent::SetStatus { host: host.clone(), status: HostStatus::Up }
            }
            ControlMessage::ExecutionCompleted { library_task, host, problem_size, seconds } => {
                RepoEvent::RecordExecution {
                    task: library_task.clone(),
                    host: host.clone(),
                    problem_size: *problem_size,
                    seconds: *seconds,
                }
            }
        };
        let (ok, payload) = self.repo.apply_event(event, deputy.is_some());
        if let (Some(deputy), Some(payload)) = (deputy, payload) {
            // A divergence latches inside the link (surfaced as a typed
            // error there and a metric by the harness); the control
            // message itself still applied locally.
            let _ = deputy.ship(&payload, || self.repo.state_hash());
        }
        ok
    }

    /// Snapshot the repository as the scheduling view served to the
    /// federation protocol.
    pub fn view(&self) -> SiteView {
        SiteView::capture(self.site, &self.repo)
    }
}

/// A Site-Manager role transition produced by [`SiteFailover`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FailoverEvent {
    /// The acting manager died; a deputy host took over the role.
    DeputyPromoted {
        /// Host that held the role.
        from: String,
        /// Host now holding it.
        to: String,
    },
    /// Every host of the site is down: the site has no manager and must
    /// be quarantined at federation level.
    SiteQuarantined,
    /// The primary (VDCE server) host came back and reclaimed the role
    /// from a deputy.
    ManagerRestored {
        /// The primary host.
        host: String,
    },
    /// A previously manager-less (quarantined) site has a live host
    /// again and rejoins the federation.
    SiteRejoined {
        /// Host now acting as manager.
        manager: String,
    },
}

/// Site-Manager failover state machine (DESIGN.md §12).
///
/// Election rule, applied on every liveness transition: the primary
/// (VDCE server host) if it is up, else the lexicographically smallest
/// live host as *deputy*, else nobody — the site is quarantined. The
/// rule is deterministic, so every observer that has seen the same
/// transitions agrees on the acting manager without extra coordination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteFailover {
    /// The site.
    pub site: SiteId,
    primary: String,
    hosts: BTreeSet<String>,
    down: BTreeSet<String>,
    manager: Option<String>,
    failovers: u64,
}

/// One journaled liveness transition of a site's host table (the `site`
/// journal tag). The failover election itself is deterministic from the
/// table, so only the raw up/down observations need journaling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SiteTableEvent {
    /// Echo probing declared the host dead.
    HostDown {
        /// Host name.
        host: String,
    },
    /// The host answers echoes again.
    HostUp {
        /// Host name.
        host: String,
    },
}

impl SiteFailover {
    /// Tracker for `site` whose VDCE server runs on `primary`; `hosts`
    /// are all hosts of the site (the primary is added if missing). All
    /// hosts start up, with the primary holding the manager role.
    pub fn new(site: SiteId, primary: impl Into<String>, hosts: &[String]) -> Self {
        let primary = primary.into();
        let mut set: BTreeSet<String> = hosts.iter().cloned().collect();
        set.insert(primary.clone());
        SiteFailover {
            site,
            manager: Some(primary.clone()),
            primary,
            hosts: set,
            down: BTreeSet::new(),
            failovers: 0,
        }
    }

    fn elect(&self) -> Option<String> {
        if !self.down.contains(&self.primary) {
            return Some(self.primary.clone());
        }
        self.hosts.iter().find(|h| !self.down.contains(*h)).cloned()
    }

    fn transition(&mut self, came_up: bool) -> Option<FailoverEvent> {
        let new = self.elect();
        if new == self.manager {
            return None;
        }
        let old = std::mem::replace(&mut self.manager, new.clone());
        Some(match (old, new) {
            (Some(from), Some(to)) => {
                if to == self.primary && came_up {
                    FailoverEvent::ManagerRestored { host: to }
                } else {
                    self.failovers += 1;
                    FailoverEvent::DeputyPromoted { from, to }
                }
            }
            (Some(_), None) => FailoverEvent::SiteQuarantined,
            (None, Some(manager)) => FailoverEvent::SiteRejoined { manager },
            (None, None) => unreachable!("transition requires a change"),
        })
    }

    /// Record that `host` was declared dead. Returns the role transition
    /// this causes, if any. Hosts outside the site are ignored.
    pub fn on_host_down(&mut self, host: &str) -> Option<FailoverEvent> {
        if !self.hosts.contains(host) || !self.down.insert(host.to_string()) {
            return None;
        }
        self.transition(false)
    }

    /// Record that `host` answers again. Returns the role transition
    /// this causes, if any.
    pub fn on_host_up(&mut self, host: &str) -> Option<FailoverEvent> {
        if !self.hosts.contains(host) || !self.down.remove(host) {
            return None;
        }
        self.transition(true)
    }

    /// Apply one journaled liveness transition — the replay-side
    /// counterpart of [`SiteFailover::on_host_down`] /
    /// [`SiteFailover::on_host_up`].
    pub(crate) fn apply(&mut self, event: &SiteTableEvent) -> Option<FailoverEvent> {
        match event {
            SiteTableEvent::HostDown { host } => self.on_host_down(host),
            SiteTableEvent::HostUp { host } => self.on_host_up(host),
        }
    }

    /// Is the whole site down (no manager electable)?
    pub fn is_quarantined(&self) -> bool {
        self.manager.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::MachineType;
    use vdce_repository::resources::ResourceRecord;

    fn manager() -> SiteManager {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new(
                "a",
                "10.0.0.1",
                MachineType::LinuxPc,
                1.0,
                1,
                1 << 26,
                "g0",
            ));
            db.upsert(ResourceRecord::new(
                "b",
                "10.0.0.2",
                MachineType::LinuxPc,
                1.0,
                1,
                1 << 26,
                "g1",
            ));
        });
        SiteManager::new(SiteId(0), repo)
    }

    #[test]
    fn workload_update_reaches_repository() {
        let sm = manager();
        assert!(sm.process(
            &ControlMessage::WorkloadUpdate {
                host: "a".into(),
                workload: 2.5,
                available_memory: 123,
            },
            None
        ));
        sm.repository().resources(|db| {
            let r = db.get("a").unwrap();
            assert_eq!(r.workload, 2.5);
            assert_eq!(r.available_memory, 123);
        });
    }

    #[test]
    fn failure_and_recovery_flip_status() {
        let sm = manager();
        sm.process(&ControlMessage::HostFailure { host: "a".into() }, None);
        assert!(sm.repository().resources(|db| !db.get("a").unwrap().is_up()));
        sm.process(&ControlMessage::HostRecovered { host: "a".into() }, None);
        assert!(sm.repository().resources(|db| db.get("a").unwrap().is_up()));
    }

    #[test]
    fn unknown_host_updates_are_dropped() {
        let sm = manager();
        assert!(!sm.process(
            &ControlMessage::WorkloadUpdate {
                host: "ghost".into(),
                workload: 1.0,
                available_memory: 1,
            },
            None
        ));
        assert!(!sm.process(&ControlMessage::HostFailure { host: "ghost".into() }, None));
    }

    #[test]
    fn execution_completion_writes_task_perf_db() {
        let sm = manager();
        assert!(sm.process(
            &ControlMessage::ExecutionCompleted {
                library_task: "Matrix_Multiplication".into(),
                host: "a".into(),
                problem_size: 100,
                seconds: 2.0,
            },
            None
        ));
        sm.repository().tasks(|db| {
            assert_eq!(db.sample_count("Matrix_Multiplication", "a"), 1);
        });
        // Unknown task name is rejected.
        assert!(!sm.process(
            &ControlMessage::ExecutionCompleted {
                library_task: "Nope".into(),
                host: "a".into(),
                problem_size: 100,
                seconds: 2.0,
            },
            None
        ));
    }

    #[test]
    fn view_snapshot_matches_repo() {
        let sm = manager();
        let v = sm.view();
        assert_eq!(v.site, SiteId(0));
        assert_eq!(v.resources.len(), 2);
    }

    fn failover() -> SiteFailover {
        SiteFailover::new(
            SiteId(1),
            "server",
            &["a".to_string(), "b".to_string(), "server".to_string()],
        )
    }

    #[test]
    fn primary_holds_the_role_until_it_dies() {
        let mut fo = failover();
        assert_eq!(fo.manager.as_deref(), Some("server"));
        assert!(fo.on_host_down("a").is_none(), "non-manager death changes nothing");
        assert_eq!(
            fo.on_host_down("server"),
            Some(FailoverEvent::DeputyPromoted { from: "server".into(), to: "b".into() }),
            "deputy = lexicographically smallest live host"
        );
        assert_eq!(fo.failovers, 1);
        assert_eq!(fo.manager.as_deref(), Some("b"));
    }

    #[test]
    fn all_hosts_down_quarantines_then_rejoins() {
        let mut fo = failover();
        fo.on_host_down("server");
        fo.on_host_down("a");
        assert_eq!(fo.on_host_down("b"), Some(FailoverEvent::SiteQuarantined));
        assert!(fo.is_quarantined());
        assert_eq!(fo.manager.as_deref(), None);
        assert_eq!(fo.on_host_up("a"), Some(FailoverEvent::SiteRejoined { manager: "a".into() }));
        assert!(!fo.is_quarantined());
    }

    #[test]
    fn primary_reclaims_the_role_on_recovery() {
        let mut fo = failover();
        fo.on_host_down("server");
        assert_eq!(fo.manager.as_deref(), Some("a"));
        assert_eq!(
            fo.on_host_up("server"),
            Some(FailoverEvent::ManagerRestored { host: "server".into() })
        );
        assert_eq!(fo.manager.as_deref(), Some("server"));
        assert_eq!(fo.failovers, 1, "restoration is not a failover");
    }

    #[test]
    fn smaller_deputy_takes_over_from_larger_one() {
        let mut fo = failover();
        fo.on_host_down("server");
        fo.on_host_down("a");
        assert_eq!(fo.manager.as_deref(), Some("b"));
        // "a" (smaller than "b") comes back while the primary stays dead.
        assert_eq!(
            fo.on_host_up("a"),
            Some(FailoverEvent::DeputyPromoted { from: "b".into(), to: "a".into() })
        );
        assert_eq!(fo.failovers, 3, "server→a, a→b, b→a");
    }

    #[test]
    fn unknown_and_duplicate_transitions_are_ignored() {
        let mut fo = failover();
        assert!(fo.on_host_down("ghost").is_none());
        assert!(fo.on_host_up("a").is_none(), "already up");
        fo.on_host_down("a");
        assert!(fo.on_host_down("a").is_none(), "already down");
        assert_eq!(fo.down.len(), 1);
    }
}
