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
//! [`LevelReady`] is the ready list shared by the site-scheduler walk
//! and the makespan simulator. The levels are fixed before either runs
//! (§3), so [`rank`] sorts the tasks once into "highest level first, ties
//! by ascending task id" — exactly the order the reference linear scan
//! selects — and the ready set holds ranks in a [`ReadySet`], whose lowest
//! member is the next task. No pop compares a level.

use std::collections::HashMap;
use vdce_afg::level::priority_list;
use vdce_afg::{ReadySet, TaskId};

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

/// The tasks of `levels` in ready-list order — [`priority_list`]'s:
/// highest level first by `total_cmp`, ties by ascending task id — as
/// rank → task, and its inverse, task → rank. The order is total whatever
/// the levels (a NaN ranks above every number); the site-scheduler walk
/// refuses a non-finite level at its entry, so there the order is also
/// the numeric one.
pub(crate) fn rank(levels: &[f64]) -> (Vec<TaskId>, Vec<u32>) {
    let by_rank = priority_list(levels);
    let mut rank_of = vec![0u32; levels.len()];
    for (r, t) in by_rank.iter().enumerate() {
        rank_of[t.index()] = r as u32;
    }
    (by_rank, rank_of)
}

/// Ready tasks popped in [`rank`] order: the lowest ready rank first.
/// A child may rank ahead of a task still ready, so the set takes
/// inserts in any order.
pub(crate) struct LevelReady {
    by_rank: Vec<TaskId>,
    rank_of: Vec<u32>,
    ready: ReadySet,
}

impl LevelReady {
    /// An empty ready list over the tasks of `levels`.
    pub(crate) fn new(levels: &[f64]) -> Self {
        let (by_rank, rank_of) = rank(levels);
        LevelReady { by_rank, rank_of, ready: ReadySet::new(levels.len()) }
    }

    pub(crate) fn push(&mut self, task: TaskId) {
        self.ready.insert(self.rank_of[task.index()] as usize);
    }

    pub(crate) fn pop(&mut self) -> Option<TaskId> {
        self.ready.pop_min().map(|r| self.by_rank[r])
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
    fn rank_orders_highest_level_then_lowest_id() {
        let (by_rank, rank_of) = rank(&[1.0, 5.0, 0.5, 5.0, 1.0]);
        let ids = |v: &[TaskId]| v.iter().map(|t| t.0).collect::<Vec<_>>();
        assert_eq!(ids(&by_rank), vec![1, 3, 0, 4, 2]);
        assert_eq!(rank_of, vec![2, 0, 4, 1, 3]);
        let mut ready = LevelReady::new(&[1.0, 5.0, 0.5, 5.0, 1.0]);
        for t in [4, 3, 1] {
            ready.push(TaskId(t));
        }
        assert_eq!(ready.pop(), Some(TaskId(1)));
        // A task readied after a pop may rank ahead of the rest.
        ready.push(TaskId(0));
        let rest: Vec<TaskId> = std::iter::from_fn(|| ready.pop()).collect();
        assert_eq!(rest, vec![TaskId(3), TaskId(0), TaskId(4)]);
    }

    #[test]
    fn rank_stays_total_under_nan() {
        // `evaluate` takes caller levels unchecked: a NaN must sort
        // somewhere definite (above every number), not compare equal to
        // everything and leave the order to the sort's history.
        let (by_rank, _) = rank(&[5.0, f64::NAN, 1.0, f64::NAN, f64::INFINITY]);
        assert_eq!(by_rank, [1, 3, 4, 0, 2].map(TaskId));
        let (by_rank, _) = rank(&[f64::NEG_INFINITY, -0.0, 0.0, -f64::NAN]);
        assert_eq!(by_rank, [2, 1, 0, 3].map(TaskId));
    }
}
