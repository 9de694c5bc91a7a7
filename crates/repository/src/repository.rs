//! The site repository facade.
//!
//! "Each site has a site repository for storing user-accounts information,
//! task and resource parameters that are used by the scheduler" (§3).
//! The repository is touched by the Site Manager (workload and failure
//! updates, post-run task-performance write-back), the Group Managers,
//! the Application Scheduler (reads) and administrative tools, from more
//! than one thread in the threaded runtime — so [`SiteRepository`] is a
//! cheaply cloneable handle around one reader-writer lock over the four
//! databases, held as the same [`RepositorySnapshot`] value that WAL
//! replay and deputy replicas rebuild, with the journal handle beside
//! it.

use crate::accounts::UserAccountsDb;
use crate::constraints::TaskConstraintsDb;
use crate::events::{JournaledRepoEvent, RepoEvent};
use crate::resources::ResourcePerfDb;
use crate::tasks::TaskPerfDb;
use serde::{Deserialize, JsonWriter, Serialize};
use std::io::Write;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use vdce_store::{fnv1a_json, Journal};

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
    db: RwLock<RepositorySnapshot>,
    /// Write-ahead journal for event-sourced mutations and the site index
    /// its `repo` records carry; disabled by default, attached per site
    /// by the durable control plane.
    journal: RwLock<(u16, Journal)>,
}

/// Thread-safe, cloneable handle to one site's repository.
#[derive(Clone)]
pub struct SiteRepository {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SiteRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let db = self.read();
        f.debug_struct("SiteRepository")
            .field("users", &db.accounts.len())
            .field("hosts", &db.resources.len())
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
    pub fn from_snapshot(db: RepositorySnapshot) -> Self {
        let inner = Inner { db: RwLock::new(db), journal: RwLock::new((0, Journal::disabled())) };
        SiteRepository { inner: Arc::new(inner) }
    }

    fn read(&self) -> RwLockReadGuard<'_, RepositorySnapshot> {
        self.inner.db.read().unwrap()
    }

    fn write(&self) -> RwLockWriteGuard<'_, RepositorySnapshot> {
        self.inner.db.write().unwrap()
    }

    /// Attach a control-plane journal. Every subsequent
    /// [`SiteRepository::apply_event`] appends the event (tagged with
    /// `site`) before mutating the databases — the write-ahead
    /// discipline the durable control plane relies on.
    pub fn attach_journal(&self, site: u16, journal: Journal) {
        *self.inner.journal.write().unwrap() = (site, journal);
    }

    /// Apply one event through the journaled write path: the event is
    /// appended to the attached journal (write-ahead) and then applied to
    /// the databases by [`RepoEvent::apply`], both under the databases'
    /// write lock.
    /// Returns whether the event applied and, when `encode` is set or a
    /// journal is attached, the event's `repo` payload (the text of a
    /// [`JournaledRepoEvent`]): one text serves the journal and the
    /// deputy the caller ships it to. An event carrying a NaN or an
    /// infinity is refused before it is journaled: JSON has no spelling
    /// for either, so its record could not be replayed.
    pub fn apply_event(&self, event: RepoEvent, encode: bool) -> (bool, Option<String>) {
        if !event.is_finite() {
            return (false, None);
        }
        let (site, journal) = &*self.inner.journal.read().unwrap();
        let mut db = self.write();
        let wire = JournaledRepoEvent { site: *site, event };
        let payload = (encode || journal.is_enabled())
            .then(|| serde_json::to_string(&wire).expect("repo events always serialize"));
        if let Some(payload) = &payload {
            journal.append("repo", payload);
        }
        (wire.event.apply(&mut db), payload)
    }

    /// Deterministic fingerprint of the repository's current state —
    /// the hash compared between a leader and its deputy replica.
    pub fn state_hash(&self) -> u64 {
        fnv1a_json(&*self.read())
    }

    /// Stream the JSON of [`SiteRepository::snapshot`] from the live
    /// databases, cloning none of them.
    pub fn write_snapshot_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        self.read().write_json(w);
    }

    /// Read access to the user-accounts database.
    pub fn accounts<R>(&self, f: impl FnOnce(&UserAccountsDb) -> R) -> R {
        f(&self.read().accounts)
    }

    /// Write access to the user-accounts database.
    pub fn accounts_mut<R>(&self, f: impl FnOnce(&mut UserAccountsDb) -> R) -> R {
        f(&mut self.write().accounts)
    }

    /// Read access to the resource-performance database.
    pub fn resources<R>(&self, f: impl FnOnce(&ResourcePerfDb) -> R) -> R {
        f(&self.read().resources)
    }

    /// Write access to the resource-performance database.
    pub fn resources_mut<R>(&self, f: impl FnOnce(&mut ResourcePerfDb) -> R) -> R {
        f(&mut self.write().resources)
    }

    /// Read access to the task-performance database.
    pub fn tasks<R>(&self, f: impl FnOnce(&TaskPerfDb) -> R) -> R {
        f(&self.read().tasks)
    }

    /// Write access to the task-performance database.
    pub fn tasks_mut<R>(&self, f: impl FnOnce(&mut TaskPerfDb) -> R) -> R {
        f(&mut self.write().tasks)
    }

    /// Write access to the task-constraints database.
    pub fn constraints_mut<R>(&self, f: impl FnOnce(&mut TaskConstraintsDb) -> R) -> R {
        f(&mut self.write().constraints)
    }

    /// A consistent copy of all four databases, detached from later
    /// writes.
    pub fn snapshot(&self) -> RepositorySnapshot {
        self.read().clone()
    }

    /// Serialise a snapshot to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&*self.read()).expect("snapshot always serialises")
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
