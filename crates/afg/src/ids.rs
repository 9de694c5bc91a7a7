//! Identifier newtypes used throughout the AFG model.
//!
//! Tasks are identified by a dense [`TaskId`] assigned in insertion order by
//! the builder, matching how the Application Editor numbers icons as they
//! are dropped onto the canvas. Ports are identified *per task* by a
//! [`PortIndex`]; an edge endpoint is therefore a `(TaskId, PortIndex)`
//! pair, mirroring the "markers for logical ports" on each icon (§2).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense, zero-based identifier of a task node inside one AFG.
///
/// `TaskId`s are only meaningful within the graph that produced them; they
/// index directly into [`crate::graph::Afg::tasks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Returns the id as a `usize` suitable for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u32> for TaskId {
    fn from(v: u32) -> Self {
        TaskId(v)
    }
}

/// Identifier of a dataset in the federation-wide dataset catalog.
///
/// Unlike [`TaskId`], dataset ids are *global*: the same id names the same
/// replicated dataset from every AFG and every site. The upper bits are
/// free for namespacing (the runtime reserves a bit for
/// checkpoint-derived datasets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DatasetId(pub u64);

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl From<u64> for DatasetId {
    fn from(v: u64) -> Self {
        DatasetId(v)
    }
}

/// Zero-based index of a logical input or output port on a task icon.
///
/// Whether a `PortIndex` denotes an input or an output port is determined
/// by its position in an [`crate::graph::Edge`]: the `from` endpoint names
/// an output port, the `to` endpoint an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PortIndex(pub u16);

impl PortIndex {
    /// Returns the port index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PortIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u16> for PortIndex {
    fn from(v: u16) -> Self {
        PortIndex(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_display_and_index() {
        let id = TaskId(7);
        assert_eq!(id.to_string(), "t7");
        assert_eq!(id.index(), 7);
        assert_eq!(TaskId::from(7u32), id);
    }

    #[test]
    fn port_index_display_and_index() {
        let p = PortIndex(3);
        assert_eq!(p.to_string(), "p3");
        assert_eq!(p.index(), 3);
        assert_eq!(PortIndex::from(3u16), p);
    }

    #[test]
    fn dataset_id_display_and_raw() {
        let d = DatasetId(9);
        assert_eq!(d.to_string(), "d9");
        assert_eq!(DatasetId::from(9u64), d);
        let s = serde_json::to_string(&d).unwrap();
        assert_eq!(s, "9");
        assert_eq!(serde_json::from_str::<DatasetId>(&s).unwrap(), d);
    }

    #[test]
    fn ids_order_by_numeric_value() {
        assert!(TaskId(2) < TaskId(10));
        assert!(PortIndex(0) < PortIndex(1));
        assert!(DatasetId(3) < DatasetId(30));
    }

    #[test]
    fn serde_transparent_round_trip() {
        let id = TaskId(42);
        let s = serde_json::to_string(&id).unwrap();
        assert_eq!(s, "42");
        let back: TaskId = serde_json::from_str(&s).unwrap();
        assert_eq!(back, id);
    }
}
