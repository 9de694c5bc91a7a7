//! The resource allocation table.
//!
//! "After the best schedule of the whole application is determined by the
//! local site and a set of nearest remote sites, the resource allocation
//! table is generated and transferred to the Site Manager running on the
//! VDCE server" (§3). The Site Manager then "multicast\[s\] the resource
//! allocation table to the Group Managers that will be involved in the
//! execution" (§4.1) — so this structure is the hand-off point between
//! scheduling and runtime, and it must serialise.
//!
//! Every later stage reads it — `evaluate`, `IncrementalSchedule`, the
//! replay engine, the stream service, the executor — so it is laid out
//! for reading: dense rows, slot `i` holding the placement of `TaskId(i)`
//! (task ids *are* indices into the AFG), `None` where a task has no row.
//! A lookup is an index, a scan is one pass over contiguous memory, and a
//! row owns nothing the AFG or host selection already holds: the task
//! name is the AFG node's `Arc<str>`, the host list the choice's
//! `Arc<[String]>`. On the wire it is the JSON object
//! `{"application":..,"placements":{"<task id>":{row},..}}` over the
//! occupied slots in id order, whatever the layout in memory.

use crate::host_selection::wire_slot;
use serde::{Deserialize, JsonReader, JsonWriter, Serialize};
use std::io::Write;
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
    /// Task instance name (for operator-facing output). Shared with the
    /// AFG node it names — cloning a placement never copies the name.
    pub task_name: Arc<str>,
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
///
/// Equal tables hold equal rows under equal task ids; how far the slot
/// vector extends past the last row is not part of the value.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AllocationTable {
    /// Application name this table was generated for.
    pub application: String,
    placements: Rows,
}

/// The rows of an [`AllocationTable`]: slot `i` is the placement of
/// `TaskId(i)`, and `occupied` counts the `Some` slots. Every row sits in
/// the slot its own `task` names — [`Rows::put`] is the one way in, and
/// the wire form is refused when its key says otherwise.
#[derive(Debug, Clone, Default)]
struct Rows {
    slots: Vec<Option<TaskPlacement>>,
    occupied: usize,
}

impl Rows {
    fn iter(&self) -> RowIter<'_> {
        RowIter { slots: self.slots.iter(), remaining: self.occupied }
    }

    /// File `row` in its own task's slot, growing to it; a row already
    /// there is replaced and the slot counted once.
    fn put(&mut self, row: TaskPlacement) {
        let slot = row.task.index();
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        if self.slots[slot].replace(row).is_none() {
            self.occupied += 1;
        }
    }
}

/// Rows carry their task id, so comparing them in order compares the
/// occupied slots and nothing else: a hole differs from a row, trailing
/// empty slots (which do not survive a round trip) from nothing.
impl PartialEq for Rows {
    fn eq(&self, other: &Self) -> bool {
        self.occupied == other.occupied && self.iter().eq(other.iter())
    }
}

/// The occupied slots in task order. Knows how many are left, so
/// collecting a table's rows allocates once: a bare `flatten` over the
/// slots reports a lower bound of zero and grows its target by doubling.
struct RowIter<'a> {
    slots: std::slice::Iter<'a, Option<TaskPlacement>>,
    remaining: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a TaskPlacement;

    fn next(&mut self) -> Option<Self::Item> {
        let row = self.slots.find_map(Option::as_ref)?;
        self.remaining -= 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl Serialize for Rows {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        let mut seq = w.begin_object();
        for row in self.iter() {
            w.map_key(&mut seq, &row.task);
            row.write_json(w);
        }
        w.end_object(seq);
    }
}

/// Keys may come in any order; a repeated key keeps its last value. A row
/// filed under a key other than its own `task` is refused, as is a key no
/// dense table could hold.
impl Deserialize for Rows {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, serde::Error> {
        let mut rows = Rows::default();
        let mut seq = r.begin_object("AllocationTable.placements")?;
        while let Some(key) = r.next_map_key::<TaskId>(&mut seq)? {
            let row = TaskPlacement::read_json(r)?;
            if row.task != key {
                return Err(serde::Error::msg(format!(
                    "placement of task {} is filed under key {}",
                    row.task.0, key.0
                )));
            }
            wire_slot(key)?;
            rows.put(row);
        }
        Ok(rows)
    }
}

impl AllocationTable {
    /// Empty table for an application.
    pub fn new(application: impl Into<String>) -> Self {
        AllocationTable { application: application.into(), placements: Rows::default() }
    }

    /// Empty table with room for the placements of tasks `0..tasks`, so
    /// filling it in any order never reallocates.
    pub(crate) fn with_capacity(application: impl Into<String>, tasks: usize) -> Self {
        AllocationTable {
            application: application.into(),
            placements: Rows { slots: Vec::with_capacity(tasks), occupied: 0 },
        }
    }

    /// Insert (or replace) a placement.
    pub fn insert(&mut self, p: TaskPlacement) {
        self.placements.put(p);
    }

    /// Placement of one task.
    pub fn placement(&self, task: TaskId) -> Option<&TaskPlacement> {
        self.placements.slots.get(task.index())?.as_ref()
    }

    /// The row of one task, to rewrite its decision in place (incremental
    /// rescheduling). The row stays in its slot: `task` is not to change.
    pub(crate) fn placement_mut(&mut self, task: TaskId) -> Option<&mut TaskPlacement> {
        self.placements.slots.get_mut(task.index())?.as_mut()
    }

    /// All placements in task order. The iterator knows its length.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &TaskPlacement> {
        self.placements.iter()
    }

    /// Number of placed tasks.
    pub fn len(&self) -> usize {
        self.placements.occupied
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.placements.occupied == 0
    }

    /// Distinct sites used.
    pub fn sites_used(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.iter().map(|p| p.site).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Distinct hosts used, name-ordered.
    pub fn hosts_used(&self) -> Vec<&str> {
        let mut v: Vec<&str> =
            self.iter().flat_map(|p| p.hosts.iter().map(String::as_str)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The rows destined for one site — what the Site Manager forwards to
    /// its Group Managers ("the related portion of the resource allocation
    /// information", §4.1).
    pub fn portion_for_site(&self, site: SiteId) -> Vec<&TaskPlacement> {
        self.iter().filter(|p| p.site == site).collect()
    }

    /// Check the table covers exactly the tasks of `afg`, every placement
    /// names at least one host, and parallel tasks got at most their
    /// requested node count.
    pub fn is_complete_for(&self, afg: &Afg) -> bool {
        if self.len() != afg.task_count() {
            return false;
        }
        afg.task_ids().all(|t| {
            self.placement(t).is_some_and(|p| {
                !p.hosts.is_empty() && p.hosts.len() <= afg.task(t).props.effective_nodes() as usize
            })
        })
    }

    /// Serialise to pretty JSON (the multicast payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("allocation tables always serialise")
    }

    /// Parse from JSON. Every row must be filed under its own task id,
    /// and no id may be beyond what a dense table can hold.
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
        assert_eq!(&*p0[0].task_name, "a");
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

    /// A one-host row for `task` at `site`.
    fn row(task: u32, site: u16) -> TaskPlacement {
        TaskPlacement {
            task: TaskId(task),
            task_name: format!("t{task}").into(),
            site: SiteId(site),
            hosts: vec![format!("h{site}")].into(),
            predicted_seconds: 1.5,
            data_sources: vec![],
        }
    }

    fn tasks_of(t: &AllocationTable) -> Vec<u32> {
        t.iter().map(|p| p.task.0).collect()
    }

    #[test]
    fn inserts_in_any_order_and_replaces_in_place() {
        let mut t = AllocationTable::new("app");
        assert!(t.is_empty());
        for task in [5, 0, 2] {
            t.insert(row(task, 0));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(tasks_of(&t), vec![0, 2, 5]);
        assert_eq!(t.iter().len(), 3);
        // A repeated insert replaces the row; the slot is counted once.
        t.insert(row(2, 7));
        assert_eq!(t.len(), 3);
        assert_eq!(t.placement(TaskId(2)).unwrap().site, SiteId(7));
        // Holes and everything past the last slot answer `None`.
        assert!(t.placement(TaskId(1)).is_none());
        assert!(t.placement(TaskId(6)).is_none());
        assert!(t.placement(TaskId(u32::MAX)).is_none());
    }

    #[test]
    fn iterator_reports_its_exact_length_as_it_goes() {
        let mut t = AllocationTable::new("app");
        for task in [5, 0, 2] {
            t.insert(row(task, 0));
        }
        let mut rows = t.iter();
        for left in (0..3).rev() {
            assert!(rows.next().is_some());
            assert_eq!(rows.size_hint(), (left, Some(left)));
        }
        assert!(rows.next().is_none());
        assert_eq!(rows.size_hint(), (0, Some(0)));
    }

    #[test]
    fn equality_is_by_rows_not_by_layout() {
        // Room set aside for tasks that never got a row is not part of
        // the value, and neither is the order the rows went in.
        let mut roomy = AllocationTable::with_capacity("app", 64);
        let mut tight = AllocationTable::new("app");
        for task in [0, 2] {
            roomy.insert(row(task, 1));
        }
        for task in [2, 0] {
            tight.insert(row(task, 1));
        }
        assert_eq!(roomy, tight);

        // A hole is not a row: {0, 2} differs from {0, 1, 2} and from {0, 1}.
        let mut filled = tight.clone();
        filled.insert(row(1, 1));
        assert_ne!(filled, tight);
        let mut shifted = AllocationTable::new("app");
        shifted.insert(row(0, 1));
        shifted.insert(TaskPlacement { task: TaskId(1), ..row(2, 1) });
        assert_ne!(shifted, tight);
        // Same slots, one row's content differs.
        let mut moved = tight.clone();
        moved.insert(row(2, 3));
        assert_ne!(moved, tight);
        assert_ne!(AllocationTable::new("other"), AllocationTable::new("app"));
    }

    #[test]
    fn json_round_trip() {
        let t = table();
        let back = AllocationTable::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        // A sparse table keeps its holes.
        let mut sparse = AllocationTable::new("app");
        for task in [0, 2, 5] {
            sparse.insert(row(task, task as u16));
        }
        let back = AllocationTable::from_json(&sparse.to_json()).unwrap();
        assert_eq!(back, sparse);
        assert_eq!((back.len(), tasks_of(&back)), (3, vec![0, 2, 5]));
        let compact = serde_json::to_string(&sparse).unwrap();
        assert_eq!(serde_json::from_str::<AllocationTable>(&compact).unwrap(), sparse);
    }

    /// The wire form, byte for byte, as the `BTreeMap`-backed table wrote
    /// it: key order, no `data_sources` key on dataset-free rows, spacing.
    #[test]
    fn wire_form_is_pinned_compact_and_pretty() {
        let t = table();
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            concat!(
                r#"{"application":"app","placements":{"#,
                r#""0":{"task":0,"task_name":"a","site":0,"hosts":["h0"],"predicted_seconds":1},"#,
                r#""1":{"task":1,"task_name":"b","site":1,"hosts":["h1","h2"],"predicted_seconds":2}"#,
                r#"}}"#
            )
        );
        assert_eq!(
            t.to_json(),
            r#"{
  "application": "app",
  "placements": {
    "0": {
      "task": 0,
      "task_name": "a",
      "site": 0,
      "hosts": [
        "h0"
      ],
      "predicted_seconds": 1
    },
    "1": {
      "task": 1,
      "task_name": "b",
      "site": 1,
      "hosts": [
        "h1",
        "h2"
      ],
      "predicted_seconds": 2
    }
  }
}"#
        );
    }

    fn wire_row(key: &str, task: u64, site: u16) -> String {
        format!(
            r#""{key}":{{"task":{task},"task_name":"a","site":{site},"hosts":["h0"],"predicted_seconds":1.0}}"#
        )
    }

    fn wire_table(rows: &[String]) -> String {
        format!(r#"{{"application":"app","placements":{{{}}}}}"#, rows.join(","))
    }

    #[test]
    fn a_row_filed_under_another_tasks_key_is_refused() {
        let err = AllocationTable::from_json(&wire_table(&[wire_row("7", 0, 0)])).unwrap_err();
        assert!(err.to_string().contains("task 0 is filed under key 7"), "{err}");
    }

    #[test]
    fn a_key_beyond_any_dense_table_is_refused_before_allocating_for_it() {
        let json = wire_table(&[wire_row("4000000000", 4_000_000_000, 0)]);
        let err = AllocationTable::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("beyond any dense table"), "{err}");
        // The cap itself is the first id refused.
        let at_cap = wire_table(&[wire_row("16777216", 16_777_216, 0)]);
        assert!(AllocationTable::from_json(&at_cap).is_err());
    }

    #[test]
    fn a_repeated_key_keeps_its_last_value_and_counts_once() {
        let json = wire_table(&[wire_row("3", 3, 1), wire_row("0", 0, 0), wire_row("3", 3, 2)]);
        let t = AllocationTable::from_json(&json).unwrap();
        assert_eq!((t.len(), tasks_of(&t)), (2, vec![0, 3]));
        assert_eq!(t.placement(TaskId(3)).unwrap().site, SiteId(2));
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
