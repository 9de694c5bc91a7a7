//! The *level* priority function of VDCE list scheduling (§3).
//!
//! > "The level of a node in the graph is computed as the largest sum of
//! > computation costs along the path from the node to an exit node. For
//! > the computation cost, the task (node) execution time on the base
//! > processor … is used. In VDCE the level of each node of an application
//! > flow graph is determined before the execution of the scheduling
//! > algorithm."
//!
//! [`level_map`] implements exactly that (computation costs only — the
//! classic *static b-level*). [`blevel_map`] additionally includes edge
//! communication costs on the path, which is the priority HEFT (the
//! authors' later work, TPDS 2002) uses; the scheduler crate benches both
//! as an ablation (experiment E9).

use crate::graph::{Afg, EdgeIndex};
use crate::ids::TaskId;
use crate::task::TaskNode;
use std::fmt;

/// Errors from level computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelError {
    /// The graph contains a cycle, so "path to an exit node" is undefined.
    Cyclic,
}

impl fmt::Display for LevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelError::Cyclic => write!(f, "application flow graph contains a cycle"),
        }
    }
}

impl std::error::Error for LevelError {}

/// Compute the VDCE level of every task: the largest sum of computation
/// costs (under `cost`) along any path from the task to an exit node,
/// *including* the task's own cost.
///
/// Returned vector is indexed by [`TaskId`]. Exit nodes have
/// `level == cost(node)`.
pub fn level_map(afg: &Afg, cost: impl Fn(&TaskNode) -> f64) -> Result<Vec<f64>, LevelError> {
    level_pass(afg, &afg.edge_index(), |t| cost(afg.task(t)), |_| 0.0)
}

/// Compute the *b-level* of every task: like [`level_map`] but each hop
/// additionally pays the edge's communication cost under `comm`
/// (bytes → cost units). Used by the HEFT ablation.
pub fn blevel_map(
    afg: &Afg,
    cost: impl Fn(&TaskNode) -> f64,
    comm: impl Fn(u64) -> f64,
) -> Result<Vec<f64>, LevelError> {
    level_pass(afg, &afg.edge_index(), |t| cost(afg.task(t)), comm)
}

/// The one level body behind [`level_map`] and [`blevel_map`], for a
/// caller that already holds `afg`'s [`EdgeIndex`] and prices tasks by id
/// (the site scheduler prices a task by its class and shares the index
/// with its walk). `comm` prices each hop's bytes; `|_| 0.0` gives
/// [`level_map`]'s levels, bit for bit.
pub fn level_pass(
    afg: &Afg,
    idx: &EdgeIndex,
    cost: impl Fn(TaskId) -> f64,
    comm: impl Fn(u64) -> f64,
) -> Result<Vec<f64>, LevelError> {
    let order = afg.topo_order_with(idx).ok_or(LevelError::Cyclic)?;
    let mut level = vec![0.0f64; afg.task_count()];
    // Walk in reverse topological order so every child is final before its
    // parents are computed.
    for &t in order.iter().rev() {
        let mut best = 0.0f64;
        for e in idx.out_edges(afg, t) {
            let via = comm(e.data_size) + level[e.to.index()];
            if via > best {
                best = via;
            }
        }
        level[t.index()] = cost(t) + best;
    }
    Ok(level)
}

/// The scheduling priority list: every task by *descending* level ("the
/// node with a higher level value will have a higher priority for
/// scheduling"), ties broken by ascending id for determinism. The levels
/// compare by `total_cmp`, so the order is total whatever they hold: a
/// NaN ranks above every number and `0.0` above `-0.0`.
///
/// Each task is one integer key, its level's `total_cmp` position
/// inverted above its id, so one `sort_unstable` of plain integers
/// ranks the tasks: no comparison reads the level slice, and a 10-task
/// graph costs an insertion sort. The sorted keys' buffer then holds
/// both directions of the ranking as `u32`s, so ranking allocates once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityList {
    /// Four `u32` lanes per slot, position `i` in lane `i % 4` of slot
    /// `i / 4`: from position 0 the task at each rank, from position
    /// `rank_at` the rank of each task.
    slots: Vec<u128>,
    rank_at: usize,
    len: usize,
}

impl PriorityList {
    /// The task at `rank`; rank 0 has the highest priority.
    pub fn task(&self, rank: usize) -> TaskId {
        debug_assert!(rank < self.len);
        TaskId(self.lane(rank))
    }

    /// The rank of `task`.
    pub fn rank(&self, task: TaskId) -> usize {
        debug_assert!(task.index() < self.len);
        self.lane(self.rank_at + task.index()) as usize
    }

    /// The tasks, highest priority first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        (0..self.len).map(|r| self.task(r))
    }

    fn lane(&self, i: usize) -> u32 {
        (self.slots[i / 4] >> (i % 4 * 32)) as u32
    }
}

/// Rank the tasks of `levels` (indexed by [`TaskId`]) into their
/// [`PriorityList`].
pub fn priority_list(levels: &[f64]) -> PriorityList {
    let len = levels.len();
    // Both directions of the ranking, four positions to a slot, need
    // `2 * quads` slots: at most the keys' own, but for one task.
    let quads = len.div_ceil(4);
    let mut slots = Vec::with_capacity(len.max(2 * quads));
    slots.extend(
        (levels.iter().zip(0u32..))
            .map(|(&l, id)| u128::from(!total_order_bits(l)) << 32 | u128::from(id)),
    );
    slots.sort_unstable();
    // Sorted, only each key's id (its low 32 bits) is left to read. Pack
    // them in rank order: position `r` lands in slot `r / 4`, whose key
    // was read at step `r / 4 <= r`, so no key still to be read is
    // written.
    for r in 0..len {
        let task = slots[r] as u32;
        let (slot, shift) = (r / 4, r % 4 * 32);
        let kept = if shift == 0 { 0 } else { slots[slot] };
        slots[slot] = kept | u128::from(task) << shift;
    }
    // Then each task's rank, in zeroed slots after them.
    slots.truncate(quads);
    slots.resize(2 * quads, 0);
    let mut list = PriorityList { slots, rank_at: 4 * quads, len };
    for r in 0..len {
        let i = list.rank_at + list.task(r).index();
        list.slots[i / 4] |= (r as u128) << (i % 4 * 32);
    }
    list
}

/// `x`'s position in [`f64::total_cmp`]'s order as an unsigned integer:
/// `a.total_cmp(&b) == total_order_bits(a).cmp(&total_order_bits(b))`.
/// A negative number (sign bit set) flips every bit, so larger
/// magnitudes sort lower; a positive one sets the sign bit, which puts
/// it above every negative.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The *critical path* length of the AFG under `cost`: the maximum level of
/// any entry node. This lower-bounds the schedule length on infinitely many
/// base processors and normalises the SLR metric in the benchmarks.
pub fn critical_path(afg: &Afg, cost: impl Fn(&TaskNode) -> f64) -> Result<f64, LevelError> {
    let levels = level_map(afg, cost)?;
    Ok(afg.entry_nodes().into_iter().map(|t| levels[t.index()]).fold(0.0f64, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AfgBuilder;
    use crate::library::TaskLibrary;

    fn ranked(levels: &[f64]) -> Vec<u32> {
        priority_list(levels).iter().map(|t| t.0).collect()
    }

    /// Chain a -> b -> c with unit costs: levels must be 3, 2, 1.
    fn chain() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let a = b.add_task("Source", "a", 10).unwrap();
        let m = b.add_task("Map", "m", 10).unwrap();
        let s = b.add_task("Sink", "s", 10).unwrap();
        b.connect(a, 0, m, 0).unwrap();
        b.connect(m, 0, s, 0).unwrap();
        b.build_unchecked()
    }

    #[test]
    fn chain_levels_decrease_along_edges() {
        let g = chain();
        let levels = level_map(&g, |_| 1.0).unwrap();
        assert_eq!(levels, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn priority_list_orders_by_level_descending() {
        let levels = vec![3.0, 2.0, 1.0];
        assert_eq!(ranked(&levels), [0, 1, 2]);
    }

    #[test]
    fn priority_list_breaks_ties_by_id() {
        let levels = vec![2.0, 5.0, 2.0, 5.0];
        assert_eq!(ranked(&levels), [1, 3, 0, 2]);
        let order = priority_list(&levels);
        assert_eq!(order.task(1), TaskId(3));
        assert_eq!((0..4).map(|t| order.rank(TaskId(t))).collect::<Vec<_>>(), [2, 0, 3, 1]);
    }

    #[test]
    fn priority_list_is_total_over_nan_signed_zero_and_ties() {
        // The order the site-scheduler walk and `evaluate` rank by: NaN
        // above every number, `0.0` above `-0.0`, equal levels by id.
        assert_eq!(ranked(&[5.0, f64::NAN, 1.0, f64::NAN, f64::INFINITY]), [1, 3, 4, 0, 2]);
        assert_eq!(ranked(&[f64::NEG_INFINITY, -0.0, 0.0, -f64::NAN]), [2, 1, 0, 3]);
        assert_eq!(ranked(&[1.0, -0.0, 1.0, 0.0, -0.0, 1.0]), [0, 2, 5, 3, 1, 4]);
    }

    #[test]
    fn total_order_bits_order_as_total_cmp() {
        let xs = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} {b}"
                );
            }
        }
    }

    #[test]
    fn diamond_level_takes_max_branch() {
        // a -> b (cost 10) -> d ; a -> c (cost 1) -> d
        let lib = TaskLibrary::standard();
        let mut bd = AfgBuilder::new("d", &lib);
        let a = bd.add_task("Source", "a", 10).unwrap();
        let b = bd.add_task("Map", "b", 10).unwrap();
        let c = bd.add_task("Map", "c", 10).unwrap();
        let d = bd.add_task("Matrix_Add", "d", 10).unwrap();
        bd.connect(a, 0, b, 0).unwrap();
        // The same output port may fan out to several consumers.
        bd.connect(a, 0, c, 0).unwrap();
        bd.connect(b, 0, d, 0).unwrap();
        bd.connect(c, 0, d, 1).unwrap();
        let g = bd.build_unchecked();
        let cost = |t: &TaskNode| match &*t.name {
            "b" => 10.0,
            "c" => 1.0,
            _ => 2.0,
        };
        let levels = level_map(&g, cost).unwrap();
        // level(d)=2, level(b)=12, level(c)=3, level(a)=2+max(12,3)=14
        assert_eq!(levels[3], 2.0);
        assert_eq!(levels[1], 12.0);
        assert_eq!(levels[2], 3.0);
        assert_eq!(levels[0], 14.0);
    }

    #[test]
    fn blevel_includes_edge_costs() {
        let g = chain();
        // unit computation, comm cost = data_size as f64
        let bl = blevel_map(&g, |_| 1.0, |bytes| bytes as f64).unwrap();
        let plain = level_map(&g, |_| 1.0).unwrap();
        for (b, p) in bl.iter().zip(plain.iter()) {
            assert!(b >= p, "b-level must dominate the comm-free level");
        }
        // Exit node has no outgoing edges, so both agree there.
        assert_eq!(bl[2], plain[2]);
    }

    #[test]
    fn cyclic_graph_reports_error() {
        let mut g = chain();
        g.edges.push(crate::graph::Edge {
            from: TaskId(2),
            from_port: crate::ids::PortIndex(0),
            to: TaskId(0),
            to_port: crate::ids::PortIndex(0),
            data_size: 1,
        });
        assert_eq!(level_map(&g, |_| 1.0), Err(LevelError::Cyclic));
        assert_eq!(LevelError::Cyclic.to_string(), "application flow graph contains a cycle");
    }

    #[test]
    fn critical_path_equals_max_entry_level() {
        let g = chain();
        assert_eq!(critical_path(&g, |_| 1.0).unwrap(), 3.0);
    }

    #[test]
    fn empty_graph_critical_path_is_zero() {
        let g = Afg::new("empty");
        assert_eq!(critical_path(&g, |_| 1.0).unwrap(), 0.0);
    }
}
