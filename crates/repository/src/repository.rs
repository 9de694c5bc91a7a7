//! The site repository facade.
//!
//! "Each site has a site repository for storing user-accounts information,
//! task and resource parameters that are used by the scheduler" (§3).
//! The repository is touched concurrently by the Site Manager (workload
//! and failure updates, post-run task-performance write-back), the Group
//! Managers, the Application Scheduler (reads) and administrative tools —
//! so [`SiteRepository`] is a cheaply cloneable handle around per-database
//! reader-writer locks.

use crate::accounts::UserAccountsDb;
use crate::constraints::TaskConstraintsDb;
use crate::events::{JournaledRepoEvent, RepoEvent};
use crate::resources::ResourcePerfDb;
use crate::tasks::TaskPerfDb;
use serde::{Deserialize, JsonWriter, Serialize};
use std::io::Write;
use std::sync::{Arc, RwLock};
use vdce_store::{Fnv1a, Journal};

/// A point-in-time snapshot of a site repository (serialisable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepositorySnapshot {
    /// User accounts.
    pub accounts: UserAccountsDb,
    /// Resource-performance rows.
    pub resources: ResourcePerfDb,
    /// Task-performance parameters and measurements.
    pub tasks: TaskPerfDb,
    /// Executable locations.
    pub constraints: TaskConstraintsDb,
}

struct Inner {
    accounts: RwLock<UserAccountsDb>,
    resources: RwLock<ResourcePerfDb>,
    tasks: RwLock<TaskPerfDb>,
    constraints: RwLock<TaskConstraintsDb>,
    /// Write-ahead journal for event-sourced mutations; disabled by
    /// default, attached per site by the durable control plane.
    journal: RwLock<(u16, Journal)>,
}

/// Thread-safe, cloneable handle to one site's repository.
#[derive(Clone)]
pub struct SiteRepository {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SiteRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteRepository")
            .field("users", &self.inner.accounts.read().unwrap().len())
            .field("hosts", &self.inner.resources.read().unwrap().len())
            .finish()
    }
}

impl Default for SiteRepository {
    fn default() -> Self {
        Self::new()
    }
}

impl SiteRepository {
    /// Fresh repository over the standard task library.
    pub fn new() -> Self {
        Self::from_snapshot(RepositorySnapshot {
            accounts: UserAccountsDb::new(),
            resources: ResourcePerfDb::new(),
            tasks: TaskPerfDb::standard(),
            constraints: TaskConstraintsDb::new(),
        })
    }

    /// Rebuild a repository from a snapshot.
    pub fn from_snapshot(s: RepositorySnapshot) -> Self {
        SiteRepository {
            inner: Arc::new(Inner {
                accounts: RwLock::new(s.accounts),
                resources: RwLock::new(s.resources),
                tasks: RwLock::new(s.tasks),
                constraints: RwLock::new(s.constraints),
                journal: RwLock::new((0, Journal::disabled())),
            }),
        }
    }

    /// Attach a control-plane journal. Every subsequent
    /// [`SiteRepository::apply_event`] appends the event (tagged with
    /// `site`) before mutating the databases — the write-ahead
    /// discipline the durable control plane relies on.
    pub fn attach_journal(&self, site: u16, journal: Journal) {
        *self.inner.journal.write().unwrap() = (site, journal);
    }

    /// Append `event` to the attached journal (no-op when disabled).
    pub(crate) fn journal_event(&self, event: &RepoEvent) {
        let g = self.inner.journal.read().unwrap();
        if g.1.is_enabled() {
            let wire = JournaledRepoEvent { site: g.0, event: event.clone() };
            let payload = serde_json::to_string(&wire).expect("repo events always serialize");
            g.1.append("repo", &payload);
        }
    }

    /// Deterministic fingerprint of the repository's current state —
    /// the hash compared between a leader and its deputy replica.
    pub fn state_hash(&self) -> u64 {
        let mut w = JsonWriter::new(Fnv1a::new(), None);
        self.write_snapshot_json(&mut w);
        w.finish().expect("hashing cannot fail to write").finish()
    }

    /// Stream the JSON of [`SiteRepository::snapshot`] — the
    /// [`RepositorySnapshot`] derive's text, byte for byte — from the live
    /// databases, each under its read lock in turn, cloning none of them.
    pub fn write_snapshot_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        let inner = &*self.inner;
        let mut obj = w.begin_object();
        w.key(&mut obj, br#""accounts":"#);
        inner.accounts.read().unwrap().write_json(w);
        w.key(&mut obj, br#""resources":"#);
        inner.resources.read().unwrap().write_json(w);
        w.key(&mut obj, br#""tasks":"#);
        inner.tasks.read().unwrap().write_json(w);
        w.key(&mut obj, br#""constraints":"#);
        inner.constraints.read().unwrap().write_json(w);
        w.end_object(obj);
    }

    /// Read access to the user-accounts database.
    pub fn accounts<R>(&self, f: impl FnOnce(&UserAccountsDb) -> R) -> R {
        f(&self.inner.accounts.read().unwrap())
    }

    /// Write access to the user-accounts database.
    pub fn accounts_mut<R>(&self, f: impl FnOnce(&mut UserAccountsDb) -> R) -> R {
        f(&mut self.inner.accounts.write().unwrap())
    }

    /// Read access to the resource-performance database.
    pub fn resources<R>(&self, f: impl FnOnce(&ResourcePerfDb) -> R) -> R {
        f(&self.inner.resources.read().unwrap())
    }

    /// Write access to the resource-performance database.
    pub fn resources_mut<R>(&self, f: impl FnOnce(&mut ResourcePerfDb) -> R) -> R {
        f(&mut self.inner.resources.write().unwrap())
    }

    /// Read access to the task-performance database.
    pub fn tasks<R>(&self, f: impl FnOnce(&TaskPerfDb) -> R) -> R {
        f(&self.inner.tasks.read().unwrap())
    }

    /// Write access to the task-performance database.
    pub fn tasks_mut<R>(&self, f: impl FnOnce(&mut TaskPerfDb) -> R) -> R {
        f(&mut self.inner.tasks.write().unwrap())
    }

    /// Write access to the task-constraints database.
    pub fn constraints_mut<R>(&self, f: impl FnOnce(&mut TaskConstraintsDb) -> R) -> R {
        f(&mut self.inner.constraints.write().unwrap())
    }

    /// Capture a consistent-enough snapshot (each database is internally
    /// consistent; cross-database atomicity is not required by any VDCE
    /// component, which all tolerate slightly stale reads — §4.1's
    /// monitoring updates are themselves periodic).
    pub fn snapshot(&self) -> RepositorySnapshot {
        RepositorySnapshot {
            accounts: self.inner.accounts.read().unwrap().clone(),
            resources: self.inner.resources.read().unwrap().clone(),
            tasks: self.inner.tasks.read().unwrap().clone(),
            constraints: self.inner.constraints.read().unwrap().clone(),
        }
    }

    /// Serialise a snapshot to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("snapshot always serialises")
    }

    /// Restore a repository from JSON produced by [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        Ok(Self::from_snapshot(serde_json::from_str(json)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounts::AccessDomain;
    use crate::resources::{HostStatus, ResourceRecord};
    use std::thread;
    use vdce_afg::MachineType;

    fn populated() -> SiteRepository {
        let repo = SiteRepository::new();
        repo.accounts_mut(|db| db.add_user("user_k", "pw", 3, AccessDomain::Global).unwrap());
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new(
                "serval",
                "10.0.0.1",
                MachineType::SunSolaris,
                1.0,
                1,
                1 << 26,
                "g0",
            ))
        });
        repo.constraints_mut(|db| db.register("Map", "serval", "/usr/vdce/tasks/Map"));
        repo
    }

    #[test]
    fn facade_routes_to_all_four_databases() {
        let repo = populated();
        assert_eq!(repo.accounts(|db| db.len()), 1);
        assert_eq!(repo.resources(|db| db.len()), 1);
        assert!(repo.tasks(|db| db.entry("Map").is_some()));
        assert!(repo.snapshot().constraints.is_installed("Map", "serval"));
    }

    #[test]
    fn clones_share_state() {
        let repo = populated();
        let clone = repo.clone();
        clone.resources_mut(|db| db.set_status("serval", HostStatus::Down));
        assert!(repo.resources(|db| !db.get("serval").unwrap().is_up()));
    }

    #[test]
    fn snapshot_round_trip_via_json() {
        let repo = populated();
        repo.tasks_mut(|db| db.record_execution("Map", "serval", 100, 0.5));
        let json = repo.to_json();
        let back = SiteRepository::from_json(&json).unwrap();
        assert_eq!(back.snapshot(), repo.snapshot());
        // Restored repository still authenticates.
        assert!(back.accounts(|db| db.authenticate("user_k", "pw").is_ok()));
    }

    #[test]
    fn live_writer_emits_the_snapshot_derive_text() {
        let repo = populated();
        repo.tasks_mut(|db| db.record_execution("Map", "serval", 100, 0.5));
        repo.resources_mut(|db| db.record_sample("serval", 0.1 + 0.2, 1 << 20));
        let typed = serde_json::to_vec(&repo.snapshot()).unwrap();
        let mut w = JsonWriter::new(Vec::new(), None);
        repo.write_snapshot_json(&mut w);
        assert_eq!(w.finish().unwrap(), typed);
        assert_eq!(repo.state_hash(), vdce_store::fnv1a(&typed));
        // The pretty form differs only in whitespace, so it parses back.
        let mut w = JsonWriter::new(Vec::new(), Some(2));
        repo.write_snapshot_json(&mut w);
        assert_eq!(w.finish().unwrap(), repo.to_json().into_bytes());
    }

    #[test]
    fn snapshot_is_detached_from_live_state() {
        let repo = populated();
        let snap = repo.snapshot();
        repo.accounts_mut(|db| db.add_user("new", "pw", 1, AccessDomain::LocalSite).unwrap());
        assert_eq!(snap.accounts.len(), 1, "snapshot must not see later writes");
        assert_eq!(repo.accounts(|db| db.len()), 2);
    }

    #[test]
    fn concurrent_samples_are_all_applied() {
        let repo = populated();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let r = repo.clone();
                thread::spawn(move || {
                    for j in 0..100 {
                        r.resources_mut(|db| {
                            db.record_sample("serval", (i * 100 + j) as f64, 1 << 20)
                        });
                        r.tasks_mut(|db| db.record_execution("Map", "serval", 64, 0.01));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(repo.tasks(|db| db.sample_count("Map", "serval")), 800);
        // History is bounded regardless of writer count.
        repo.resources(|db| {
            assert_eq!(
                db.get("serval").unwrap().workload_history.len(),
                crate::resources::WORKLOAD_HISTORY
            )
        });
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(SiteRepository::from_json("{").is_err());
    }
}
