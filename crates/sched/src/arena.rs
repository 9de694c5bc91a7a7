//! Struct-of-arrays scratch shared by the scheduler hot paths.
//!
//! The 100k-task walk touches per-task and per-host state millions of
//! times; the seed implementation kept that state in
//! `HashMap<&str, f64>` / `BTreeSet<String>` keyed by host *names*,
//! paying a hash or tree probe (and the occasional allocation) per
//! touch. This module finishes the job the CSR `EdgeIndex` started on
//! the graph side: host names are interned once into dense `u32` ids by
//! [`HostArena`], after which every hot structure is a flat vector
//! indexed by id — host-free times are `Vec<f64>`, placements are
//! `Vec<u32>`, busy intervals are `Vec<Vec<(f64, f64)>>`.
//!
//! [`ReadyKey`] is the heap key of the indexed ready list shared by the
//! site-scheduler walk and the makespan simulator: pop order is
//! "highest level first, ties by ascending task id" — exactly the order
//! the reference linear scan selects, so swapping the `O(n)` scan for
//! the `O(log n)` heap cannot change any schedule.

use std::cmp::Ordering;
use std::collections::HashMap;
use vdce_afg::TaskId;

/// Sentinel id for "no host assigned yet" in dense placement arrays.
pub(crate) const NO_HOST: u32 = u32::MAX;

/// Interns host names to dense `u32` ids for the flat arenas. Host
/// names are unique across a federation, so one arena can span every
/// involved site. Insertion order defines the ids, which keeps every
/// arena-indexed walk deterministic as long as hosts are interned in a
/// deterministic order (the callers intern in view/name or table
/// order).
#[derive(Debug, Default)]
pub(crate) struct HostArena {
    ids: HashMap<String, u32>,
}

impl HostArena {
    pub(crate) fn new() -> Self {
        HostArena::default()
    }

    /// Id of `name`, interning it if new.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Id of `name` if already interned.
    pub(crate) fn lookup(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Number of interned hosts — the length every id-indexed arena
    /// must have.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Key of the heap-based ready list: pop order is "highest level first,
/// ties by ascending task id" — exactly the order the reference path's
/// linear scan selects. `total_cmp` makes this `Ord` a total order
/// whatever the levels; the site-scheduler walk refuses a non-finite
/// level at its entry, so there the order is also the numeric one.
pub(crate) struct ReadyKey {
    pub(crate) level: f64,
    pub(crate) task: TaskId,
}

impl PartialEq for ReadyKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ReadyKey {}

impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.level.total_cmp(&other.level).then_with(|| other.task.cmp(&self.task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dense() {
        let mut a = HostArena::new();
        assert_eq!(a.intern("x"), 0);
        assert_eq!(a.intern("y"), 1);
        assert_eq!(a.intern("x"), 0);
        assert_eq!(a.lookup("y"), Some(1));
        assert_eq!(a.lookup("z"), None);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn ready_key_pops_highest_level_then_lowest_id() {
        let mut h = std::collections::BinaryHeap::new();
        h.push(ReadyKey { level: 1.0, task: TaskId(7) });
        h.push(ReadyKey { level: 5.0, task: TaskId(3) });
        h.push(ReadyKey { level: 5.0, task: TaskId(1) });
        let order: Vec<TaskId> = std::iter::from_fn(|| h.pop().map(|k| k.task)).collect();
        assert_eq!(order, vec![TaskId(1), TaskId(3), TaskId(7)]);
    }

    #[test]
    fn ready_key_order_stays_total_under_nan() {
        // `evaluate` takes caller levels unchecked: a NaN must sort
        // somewhere definite (above every number), not compare equal to
        // everything and leave the heap's order to its insertion history.
        let key = |level, task| ReadyKey { level, task: TaskId(task) };
        assert_eq!(key(f64::NAN, 0).cmp(&key(5.0, 1)), Ordering::Greater);
        assert_eq!(key(5.0, 1).cmp(&key(f64::NAN, 0)), Ordering::Less);
        assert_eq!(key(1.0, 2).cmp(&key(5.0, 1)), Ordering::Less);
    }
}
