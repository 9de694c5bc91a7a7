//! The resource allocation table.
//!
//! "After the best schedule of the whole application is determined by the
//! local site and a set of nearest remote sites, the resource allocation
//! table is generated and transferred to the Site Manager running on the
//! VDCE server" (§3). The Site Manager then "multicast\[s\] the resource
//! allocation table to the Group Managers that will be involved in the
//! execution" (§4.1) — so this structure is the hand-off point between
//! scheduling and runtime, and it must serialise.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use vdce_afg::{Afg, DatasetId, TaskId};
use vdce_net::topology::SiteId;

/// The replica chosen to serve one dataset input of a placed task.
///
/// Recorded in the placement table so a replay charges the *same*
/// source the scheduler priced — the data-aware placement stays
/// bit-identical across replays even if the catalog changes later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataSource {
    /// The dataset read.
    pub dataset: DatasetId,
    /// The replica site the transfer is charged from.
    pub source: SiteId,
}

/// Where one task will run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskPlacement {
    /// The task.
    pub task: TaskId,
    /// Task instance name (for operator-facing output).
    pub task_name: String,
    /// Site chosen by the site scheduler.
    pub site: SiteId,
    /// Hosts chosen by host selection (one for sequential tasks, the node
    /// set for parallel tasks; all within `site`). Shared with the
    /// [`TaskHostChoice`](crate::TaskHostChoice) it came from — cloning
    /// a placement never copies host strings.
    pub hosts: Arc<[String]>,
    /// Predicted execution time in seconds (the value host selection
    /// minimised).
    pub predicted_seconds: f64,
    /// Chosen replica per dataset input, in the task's input-port order.
    /// Empty for tasks without dataset inputs; skipped in JSON so
    /// dataset-free tables serialize exactly as before this field
    /// existed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub data_sources: Vec<DataSource>,
}

/// The resource allocation table: one placement per task of the AFG.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AllocationTable {
    /// Application name this table was generated for.
    pub application: String,
    placements: BTreeMap<TaskId, TaskPlacement>,
}

impl AllocationTable {
    /// Empty table for an application.
    pub fn new(application: impl Into<String>) -> Self {
        AllocationTable { application: application.into(), placements: BTreeMap::new() }
    }

    /// Insert (or replace) a placement.
    pub fn insert(&mut self, p: TaskPlacement) {
        self.placements.insert(p.task, p);
    }

    /// Placement of one task.
    pub fn placement(&self, task: TaskId) -> Option<&TaskPlacement> {
        self.placements.get(&task)
    }

    /// The row of one task, to rewrite its decision in place (incremental
    /// rescheduling). The row stays under its key: `task` is not to change.
    pub(crate) fn placement_mut(&mut self, task: TaskId) -> Option<&mut TaskPlacement> {
        self.placements.get_mut(&task)
    }

    /// All placements in task order.
    pub fn iter(&self) -> impl Iterator<Item = &TaskPlacement> {
        self.placements.values()
    }

    /// Number of placed tasks.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Distinct sites used.
    pub fn sites_used(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.placements.values().map(|p| p.site).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Distinct hosts used, name-ordered.
    pub fn hosts_used(&self) -> Vec<&str> {
        let mut v: Vec<&str> =
            self.placements.values().flat_map(|p| p.hosts.iter().map(String::as_str)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The rows destined for one site — what the Site Manager forwards to
    /// its Group Managers ("the related portion of the resource allocation
    /// information", §4.1).
    pub fn portion_for_site(&self, site: SiteId) -> Vec<&TaskPlacement> {
        self.placements.values().filter(|p| p.site == site).collect()
    }

    /// Check the table covers exactly the tasks of `afg`, every placement
    /// names at least one host, and parallel tasks got at most their
    /// requested node count.
    pub fn is_complete_for(&self, afg: &Afg) -> bool {
        if self.placements.len() != afg.task_count() {
            return false;
        }
        afg.task_ids().all(|t| {
            self.placements.get(&t).is_some_and(|p| {
                !p.hosts.is_empty() && p.hosts.len() <= afg.task(t).props.effective_nodes() as usize
            })
        })
    }

    /// Serialise to pretty JSON (the multicast payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("allocation tables always serialise")
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::{AfgBuilder, ComputationMode, TaskLibrary};

    fn table() -> AllocationTable {
        let mut t = AllocationTable::new("app");
        t.insert(TaskPlacement {
            task: TaskId(0),
            task_name: "a".into(),
            site: SiteId(0),
            hosts: vec!["h0".into()].into(),
            predicted_seconds: 1.0,
            data_sources: vec![],
        });
        t.insert(TaskPlacement {
            task: TaskId(1),
            task_name: "b".into(),
            site: SiteId(1),
            hosts: vec!["h1".into(), "h2".into()].into(),
            predicted_seconds: 2.0,
            data_sources: vec![],
        });
        t
    }

    #[test]
    fn lookups_and_aggregates() {
        let t = table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.placement(TaskId(1)).unwrap().hosts.len(), 2);
        assert!(t.placement(TaskId(9)).is_none());
        assert_eq!(t.sites_used(), vec![SiteId(0), SiteId(1)]);
        assert_eq!(t.hosts_used(), vec!["h0", "h1", "h2"]);
    }

    #[test]
    fn portion_for_site_filters() {
        let t = table();
        let p0 = t.portion_for_site(SiteId(0));
        assert_eq!(p0.len(), 1);
        assert_eq!(p0[0].task_name, "a");
        assert!(t.portion_for_site(SiteId(7)).is_empty());
    }

    #[test]
    fn completeness_check() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("app", &lib);
        let s = b.add_task("Source", "a", 10).unwrap();
        let lu = b.add_task("LU_Decomposition", "b", 64).unwrap();
        b.set_mode(lu, ComputationMode::Parallel).unwrap();
        b.set_num_nodes(lu, 2).unwrap();
        b.connect(s, 0, lu, 0).unwrap();
        let g = b.build().unwrap();

        let t = table();
        assert!(t.is_complete_for(&g));

        // Missing task.
        let mut partial = AllocationTable::new("app");
        partial.insert(t.placement(TaskId(0)).unwrap().clone());
        assert!(!partial.is_complete_for(&g));

        // Too many hosts for a sequential task.
        let mut over = table();
        over.insert(TaskPlacement {
            task: TaskId(0),
            task_name: "a".into(),
            site: SiteId(0),
            hosts: vec!["h0".into(), "h1".into()].into(),
            predicted_seconds: 1.0,
            data_sources: vec![],
        });
        assert!(!over.is_complete_for(&g));

        // Empty host list.
        let mut empty = table();
        empty.insert(TaskPlacement {
            task: TaskId(1),
            task_name: "b".into(),
            site: SiteId(1),
            hosts: vec![].into(),
            predicted_seconds: 2.0,
            data_sources: vec![],
        });
        assert!(!empty.is_complete_for(&g));
    }

    #[test]
    fn json_round_trip() {
        let t = table();
        let back = AllocationTable::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn dataset_free_json_has_no_data_sources_key_and_old_json_parses() {
        // Dataset-free tables must serialize exactly as before the
        // `data_sources` field existed (the trace-determinism gate
        // compares table JSON byte-for-byte across replays).
        let t = table();
        assert!(!t.to_json().contains("data_sources"));
        // Pre-field JSON (no `data_sources` key) still parses.
        let legacy = r#"{"application":"app","placements":{"0":{"task":0,
            "task_name":"a","site":0,"hosts":["h0"],"predicted_seconds":1.0}}}"#;
        let back = AllocationTable::from_json(legacy).unwrap();
        assert!(back.placement(TaskId(0)).unwrap().data_sources.is_empty());
    }

    #[test]
    fn data_sources_round_trip_when_present() {
        let mut t = AllocationTable::new("app");
        t.insert(TaskPlacement {
            task: TaskId(0),
            task_name: "a".into(),
            site: SiteId(1),
            hosts: vec!["h0".into()].into(),
            predicted_seconds: 1.0,
            data_sources: vec![DataSource { dataset: DatasetId(7), source: SiteId(2) }],
        });
        let back = AllocationTable::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(
            back.placement(TaskId(0)).unwrap().data_sources,
            vec![DataSource { dataset: DatasetId(7), source: SiteId(2) }]
        );
    }
}
