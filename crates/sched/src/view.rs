//! Site views: the database snapshot a scheduler works on.
//!
//! Step 1–2 of the host-selection algorithm (Figure 3) "retrieve
//! task-specific parameters … from \[the\] task-performance database" and
//! "resource-specific parameters … from \[the\] resource-performance
//! database". A [`SiteView`] is that retrieval: an immutable snapshot of
//! one site's scheduling-relevant databases, cheap to clone around
//! scheduler threads and to ship over the inter-site bus.

use crate::classes::TaskClasses;
use serde::{Deserialize, Serialize};
use vdce_afg::level::LevelError;
use vdce_afg::Afg;
use vdce_net::topology::SiteId;
use vdce_repository::resources::ResourcePerfDb;
use vdce_repository::{SiteRepository, TaskConstraintsDb, TaskPerfDb};

/// Snapshot of one site's scheduler-relevant state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteView {
    /// Which site this is.
    pub site: SiteId,
    /// Resource-performance rows (hosts, speeds, workloads, status).
    pub resources: ResourcePerfDb,
    /// Task-performance parameters and measured rates.
    pub tasks: TaskPerfDb,
    /// Executable locations.
    pub constraints: TaskConstraintsDb,
}

impl SiteView {
    /// Snapshot `repo` as the view of site `site`.
    pub fn capture(site: SiteId, repo: &SiteRepository) -> Self {
        let snap = repo.snapshot();
        SiteView {
            site,
            resources: snap.resources,
            tasks: snap.tasks,
            constraints: snap.constraints,
        }
    }

    /// Number of up hosts in the view.
    pub fn up_host_count(&self) -> usize {
        self.resources.up_hosts().count()
    }

    /// Level priority of every task of `afg` on this site's
    /// base-processor execution times (the task-performance database);
    /// tasks the database does not know cost 0. Each task class is
    /// priced once, as the site scheduler prices it.
    pub fn levels(&self, afg: &Afg) -> Result<Vec<f64>, LevelError> {
        TaskClasses::new(afg).levels(self, afg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::MachineType;
    use vdce_repository::resources::{HostStatus, ResourceRecord};

    #[test]
    fn capture_reflects_repository_state() {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new(
                "h0",
                "10.0.0.1",
                MachineType::LinuxPc,
                1.0,
                1,
                1 << 26,
                "g0",
            ));
            db.upsert(ResourceRecord::new(
                "h1",
                "10.0.0.2",
                MachineType::LinuxPc,
                1.0,
                1,
                1 << 26,
                "g0",
            ));
            db.set_status("h1", HostStatus::Down);
        });
        let view = SiteView::capture(SiteId(2), &repo);
        assert_eq!(view.site, SiteId(2));
        assert_eq!(view.resources.len(), 2);
        assert_eq!(view.up_host_count(), 1);
    }

    #[test]
    fn view_is_detached_from_later_writes() {
        let repo = SiteRepository::new();
        let view = SiteView::capture(SiteId(0), &repo);
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new(
                "late",
                "10.0.0.9",
                MachineType::LinuxPc,
                1.0,
                1,
                1 << 26,
                "g0",
            ))
        });
        assert_eq!(view.resources.len(), 0);
    }

    #[test]
    fn view_serialises() {
        let repo = SiteRepository::new();
        let view = SiteView::capture(SiteId(1), &repo);
        let json = serde_json::to_string(&view).unwrap();
        let back: SiteView = serde_json::from_str(&json).unwrap();
        assert_eq!(back, view);
    }
}
