//! The resource-performance database (§3).
//!
//! > "A resource performance database provides resource (machine and
//! > network) attributes or parameters such as host name, IP address,
//! > architecture type, OS type, total memory size of the machine, recent
//! > workload measurements, and available memory size."
//!
//! The Group Managers push workload samples here (via the Site Manager),
//! failure detection marks hosts `Down` (§4.1: "The host is then marked as
//! 'down' at the site's resource-performance database"), and the
//! host-selection algorithm reads it to evaluate `Predict(task, R)`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use vdce_afg::MachineType;

/// How many recent workload samples each record retains.
pub const WORKLOAD_HISTORY: usize = 16;

/// Liveness of a host as maintained by Group-Manager echo probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostStatus {
    /// Answering echo packets.
    Up,
    /// Echo timeout — unusable for scheduling until it recovers.
    Down,
}

/// One host row of the resource-performance database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceRecord {
    /// Fully-qualified host name, e.g. `serval.cat.syr.edu`.
    pub host_name: String,
    /// Dotted-quad IP address.
    pub(crate) ip: String,
    /// Architecture + OS class.
    pub machine: MachineType,
    /// Relative speed of this host w.r.t. the *base processor* (1.0 =
    /// base). The task-performance database stores base-processor times;
    /// prediction divides by this factor.
    pub relative_speed: f64,
    /// Number of CPUs.
    pub(crate) cpus: u32,
    /// Total physical memory in bytes.
    pub total_memory: u64,
    /// Currently available memory in bytes.
    pub available_memory: u64,
    /// Most recent CPU workload sample: average number of runnable
    /// processes (Unix load-average style; 0.0 = idle).
    pub workload: f64,
    /// Recent workload samples, newest last, bounded by
    /// [`WORKLOAD_HISTORY`].
    pub workload_history: VecDeque<f64>,
    /// Up/down status.
    pub status: HostStatus,
    /// Name of the group (LAN segment / group-leader machine) this host
    /// belongs to, for the Resource Controller hierarchy of Figure 4.
    pub group: String,
}

impl ResourceRecord {
    /// Create an idle, up record with the given static attributes.
    pub fn new(
        host_name: impl Into<String>,
        ip: impl Into<String>,
        machine: MachineType,
        relative_speed: f64,
        cpus: u32,
        total_memory: u64,
        group: impl Into<String>,
    ) -> Self {
        ResourceRecord {
            host_name: host_name.into(),
            ip: ip.into(),
            machine,
            relative_speed,
            cpus,
            total_memory,
            available_memory: total_memory,
            workload: 0.0,
            workload_history: VecDeque::with_capacity(WORKLOAD_HISTORY),
            status: HostStatus::Up,
            group: group.into(),
        }
    }

    /// Smoothed recent workload: mean of the retained history (falls back
    /// to the latest sample when history is empty).
    pub fn smoothed_workload(&self) -> f64 {
        if self.workload_history.is_empty() {
            self.workload
        } else {
            self.workload_history.iter().sum::<f64>() / self.workload_history.len() as f64
        }
    }

    /// Is the host up?
    #[inline]
    pub fn is_up(&self) -> bool {
        self.status == HostStatus::Up
    }

    fn push_sample(&mut self, workload: f64, available_memory: u64) {
        self.workload = workload;
        self.available_memory = available_memory;
        if self.workload_history.len() == WORKLOAD_HISTORY {
            self.workload_history.pop_front();
        }
        self.workload_history.push_back(workload);
    }
}

/// The resource-performance database: host rows keyed by host name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourcePerfDb {
    hosts: BTreeMap<String, ResourceRecord>,
}

impl ResourcePerfDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a host row.
    pub fn upsert(&mut self, record: ResourceRecord) {
        self.hosts.insert(record.host_name.clone(), record);
    }

    /// Borrow a host row.
    pub fn get(&self, host: &str) -> Option<&ResourceRecord> {
        self.hosts.get(host)
    }

    /// Record a monitoring sample for a host. Returns `false` if the host
    /// is unknown (the Site Manager logs and drops such updates).
    pub fn record_sample(&mut self, host: &str, workload: f64, available_memory: u64) -> bool {
        match self.hosts.get_mut(host) {
            Some(r) => {
                r.push_sample(workload, available_memory);
                true
            }
            None => false,
        }
    }

    /// Mark a host down (failure detected) or up (recovered). Returns
    /// `false` for unknown hosts.
    pub fn set_status(&mut self, host: &str, status: HostStatus) -> bool {
        match self.hosts.get_mut(host) {
            Some(r) => {
                r.status = status;
                true
            }
            None => false,
        }
    }

    /// All hosts, in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &ResourceRecord> + Clone {
        self.hosts.values()
    }

    /// Hosts currently up, in name order — the candidate set `R` of the
    /// host-selection algorithm (Figure 3).
    pub fn up_hosts(&self) -> impl Iterator<Item = &ResourceRecord> {
        self.hosts.values().filter(|r| r.is_up())
    }

    /// Up hosts of one monitoring group.
    pub fn group_hosts<'a>(&'a self, group: &'a str) -> impl Iterator<Item = &'a ResourceRecord> {
        self.hosts.values().filter(move |r| r.group == group)
    }

    /// Distinct group names, in order.
    pub fn groups(&self) -> Vec<String> {
        let mut g: Vec<String> = self.hosts.values().map(|r| r.group.clone()).collect();
        g.sort();
        g.dedup();
        g
    }

    /// Number of host rows.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, group: &str) -> ResourceRecord {
        ResourceRecord::new(name, "128.230.1.1", MachineType::SunSolaris, 1.5, 1, 64 << 20, group)
    }

    fn sample_db() -> ResourcePerfDb {
        let mut db = ResourcePerfDb::new();
        db.upsert(rec("serval.cat.syr.edu", "g0"));
        db.upsert(rec("hunding.top.cis.syr.edu", "g0"));
        db.upsert(rec("bobcat.cat.syr.edu", "g1"));
        db
    }

    #[test]
    fn upsert_and_get() {
        let db = sample_db();
        let r = db.get("serval.cat.syr.edu").unwrap();
        assert_eq!(r.machine, MachineType::SunSolaris);
        assert_eq!(r.available_memory, r.total_memory, "fresh host has all memory free");
        assert!(r.is_up());
        assert!(db.get("nope").is_none());
    }

    #[test]
    fn record_sample_updates_workload_and_memory() {
        let mut db = sample_db();
        assert!(db.record_sample("serval.cat.syr.edu", 2.5, 32 << 20));
        let r = db.get("serval.cat.syr.edu").unwrap();
        assert_eq!(r.workload, 2.5);
        assert_eq!(r.available_memory, 32 << 20);
        assert_eq!(r.workload_history.len(), 1);
        assert!(!db.record_sample("ghost", 1.0, 0), "unknown host rejected");
    }

    #[test]
    fn workload_history_is_bounded() {
        let mut db = sample_db();
        for i in 0..(WORKLOAD_HISTORY + 10) {
            db.record_sample("serval.cat.syr.edu", i as f64, 1);
        }
        let r = db.get("serval.cat.syr.edu").unwrap();
        assert_eq!(r.workload_history.len(), WORKLOAD_HISTORY);
        // Oldest samples were evicted: front is sample #10.
        assert_eq!(*r.workload_history.front().unwrap(), 10.0);
    }

    #[test]
    fn smoothed_workload_averages_history() {
        let mut r = rec("h", "g");
        assert_eq!(r.smoothed_workload(), 0.0);
        r.push_sample(1.0, 1);
        r.push_sample(3.0, 1);
        assert_eq!(r.smoothed_workload(), 2.0);
    }

    #[test]
    fn failure_marking_removes_from_up_set() {
        let mut db = sample_db();
        assert_eq!(db.up_hosts().count(), 3);
        assert!(db.set_status("bobcat.cat.syr.edu", HostStatus::Down));
        assert_eq!(db.up_hosts().count(), 2);
        assert!(!db.get("bobcat.cat.syr.edu").unwrap().is_up());
        assert!(db.set_status("bobcat.cat.syr.edu", HostStatus::Up));
        assert_eq!(db.up_hosts().count(), 3);
        assert!(!db.set_status("ghost", HostStatus::Down));
    }

    #[test]
    fn groups_are_distinct_and_sorted() {
        let db = sample_db();
        assert_eq!(db.groups(), vec!["g0".to_string(), "g1".to_string()]);
        assert_eq!(db.group_hosts("g0").count(), 2);
        assert_eq!(db.group_hosts("g1").count(), 1);
    }

    #[test]
    fn serde_round_trip_preserves_history() {
        let mut db = sample_db();
        db.record_sample("serval.cat.syr.edu", 1.25, 7);
        let json = serde_json::to_string(&db).unwrap();
        let back: ResourcePerfDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back, db);
    }
}
