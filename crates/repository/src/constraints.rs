//! The task-constraints database (§3).
//!
//! > "A task constraints database is used to store the location
//! > information of each task (i.e., the absolute path of the task
//! > executable) for each host."
//!
//! A task can only be scheduled onto hosts that actually have its
//! executable installed; the host-selection algorithm filters its
//! candidate set through [`TaskConstraintsDb::is_installed`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The task-constraints database: `(task, host) → absolute executable
/// path`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskConstraintsDb {
    /// task name → (host name → executable path)
    locations: BTreeMap<String, BTreeMap<String, String>>,
}

impl TaskConstraintsDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) the executable location of `task` on `host`.
    pub fn register(&mut self, task: &str, host: &str, path: impl Into<String>) {
        self.locations.entry(task.to_string()).or_default().insert(host.to_string(), path.into());
    }

    /// Absolute path of `task`'s executable on `host`, if installed.
    pub(crate) fn location(&self, task: &str, host: &str) -> Option<&str> {
        self.locations.get(task).and_then(|m| m.get(host)).map(String::as_str)
    }

    /// Does `host` have `task` installed?
    pub fn is_installed(&self, task: &str, host: &str) -> bool {
        self.location(task, host).is_some()
    }

    /// Remove a single installation record; returns whether it existed.
    pub fn unregister(&mut self, task: &str, host: &str) -> bool {
        let Some(m) = self.locations.get_mut(task) else { return false };
        let removed = m.remove(host).is_some();
        if m.is_empty() {
            self.locations.remove(task);
        }
        removed
    }

    /// Number of (task, host) records.
    pub fn len(&self) -> usize {
        self.locations.values().map(BTreeMap::len).sum()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut db = TaskConstraintsDb::new();
        db.register("LU_Decomposition", "serval", "/usr/vdce/tasks/lu");
        assert_eq!(db.location("LU_Decomposition", "serval"), Some("/usr/vdce/tasks/lu"));
        assert!(db.is_installed("LU_Decomposition", "serval"));
        assert!(!db.is_installed("LU_Decomposition", "bobcat"));
        assert!(db.location("FFT", "serval").is_none());
    }

    #[test]
    fn reregistering_replaces_path() {
        let mut db = TaskConstraintsDb::new();
        db.register("Map", "h", "/old");
        db.register("Map", "h", "/new");
        assert_eq!(db.location("Map", "h"), Some("/new"));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn unregister_removes_record_and_cleans_empty_tasks() {
        let mut db = TaskConstraintsDb::new();
        db.register("Map", "h", "/p");
        assert!(db.unregister("Map", "h"));
        assert!(!db.unregister("Map", "h"));
        assert!(db.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let mut db = TaskConstraintsDb::new();
        db.register("Map", "h1", "/p");
        db.register("Map", "h2", "/p");
        let json = serde_json::to_string(&db).unwrap();
        let back: TaskConstraintsDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back, db);
    }
}
