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

use crate::graph::{Afg, EdgeIndex, TopoMarks};
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
    weighted_level(afg, cost, |_| 0.0)
}

/// Compute the *b-level* of every task: like [`level_map`] but each hop
/// additionally pays the edge's communication cost under `comm`
/// (bytes → cost units). Used by the HEFT ablation.
pub fn blevel_map(
    afg: &Afg,
    cost: impl Fn(&TaskNode) -> f64,
    comm: impl Fn(u64) -> f64,
) -> Result<Vec<f64>, LevelError> {
    weighted_level(afg, cost, comm)
}

fn weighted_level(
    afg: &Afg,
    cost: impl Fn(&TaskNode) -> f64,
    comm: impl Fn(u64) -> f64,
) -> Result<Vec<f64>, LevelError> {
    let idx = afg.edge_index();
    let order = afg.topo_order_with(&idx).ok_or(LevelError::Cyclic)?;
    let mut level = vec![0.0f64; afg.task_count()];
    // Walk in reverse topological order so every child is final before its
    // parents are computed.
    for &t in order.iter().rev() {
        level[t.index()] = node_level(afg, &idx, t, &cost, &comm, &level);
    }
    Ok(level)
}

/// One node's level given final child levels — the single fold both the
/// full walk and [`LevelTracker::update`] run, so incremental recomputes
/// are bit-identical to a full re-walk by construction.
fn node_level(
    afg: &Afg,
    idx: &EdgeIndex,
    t: TaskId,
    cost: &impl Fn(&TaskNode) -> f64,
    comm: &impl Fn(u64) -> f64,
    level: &[f64],
) -> f64 {
    let own = cost(afg.task(t));
    let mut best = 0.0f64;
    for e in idx.out_edges(afg, t) {
        let via = comm(e.data_size) + level[e.to.index()];
        if via > best {
            best = via;
        }
    }
    own + best
}

/// Incrementally-maintained [`level_map`] for the O(changed) rescheduling
/// path: after a cost or out-edge change at a handful of tasks, only the
/// affected *ancestors* are recomputed instead of re-walking the world.
///
/// Levels flow child → parent, so a change propagates strictly upward
/// (toward entry nodes). [`LevelTracker::update`] sweeps the dirty tasks
/// backward over their topological positions ([`TopoMarks`]) — every
/// child is final before any parent is recomputed — and stops
/// propagating along any path where the recomputed level is
/// bit-identical to the stored one. The maintained vector is therefore
/// always bit-identical to `level_map` run from scratch (property-tested
/// in the scheduler crate), while touching only `O(affected ancestors)`
/// nodes.
#[derive(Debug, Clone)]
pub struct LevelTracker {
    levels: Vec<f64>,
    /// The build-time topological order (position → task) and its inverse.
    order: Vec<TaskId>,
    topo_pos: Vec<u32>,
    /// The dirty positions of one update; scratch, reset by every call.
    marks: TopoMarks,
}

impl LevelTracker {
    /// Full initial computation, identical to [`level_map`]. `idx` must
    /// be the [`EdgeIndex`] of `afg` (callers on the hot path already
    /// hold one).
    pub fn new(
        afg: &Afg,
        idx: &EdgeIndex,
        cost: impl Fn(&TaskNode) -> f64,
    ) -> Result<Self, LevelError> {
        let order = afg.topo_order_with(idx).ok_or(LevelError::Cyclic)?;
        let mut topo_pos = vec![0u32; afg.task_count()];
        for (i, &t) in order.iter().enumerate() {
            topo_pos[t.index()] = i as u32;
        }
        let mut levels = vec![0.0f64; afg.task_count()];
        for &t in order.iter().rev() {
            levels[t.index()] = node_level(afg, idx, t, &cost, &|_| 0.0, &levels);
        }
        Ok(LevelTracker { levels, order, topo_pos, marks: TopoMarks::default() })
    }

    /// The maintained per-task levels, indexed by [`TaskId`].
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Recompute after the costs or out-edges of `changed` tasks were
    /// edited (the graph's node/edge *count* and topology order must be
    /// unchanged — rebuild the tracker for structural growth). Returns
    /// the number of tasks whose level was re-evaluated, i.e. the size
    /// of the affected set actually walked.
    pub fn update(
        &mut self,
        afg: &Afg,
        idx: &EdgeIndex,
        changed: &[TaskId],
        cost: impl Fn(&TaskNode) -> f64,
    ) -> usize {
        assert_eq!(
            self.levels.len(),
            afg.task_count(),
            "LevelTracker::update on a structurally different graph"
        );
        // Parents sit before their children, so propagation only marks
        // positions ahead of the backward sweep: each task is re-evaluated
        // at most once.
        self.marks.reset(self.levels.len());
        for &t in changed {
            self.marks.mark(self.topo_pos[t.index()] as usize);
        }
        let mut touched = 0usize;
        while let Some(pos) = self.marks.pop_backward() {
            let t = self.order[pos];
            touched += 1;
            let fresh = node_level(afg, idx, t, &cost, &|_| 0.0, &self.levels);
            if fresh.to_bits() != self.levels[t.index()].to_bits() {
                self.levels[t.index()] = fresh;
                for e in idx.in_edges(afg, t) {
                    self.marks.mark(self.topo_pos[e.from.index()] as usize);
                }
            }
        }
        touched
    }
}

/// Produce the scheduling priority list: task ids sorted by *descending*
/// level ("the node with a higher level value will have a higher priority
/// for scheduling"), ties broken by ascending id for determinism.
pub fn priority_list(levels: &[f64]) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = (0..levels.len() as u32).map(TaskId).collect();
    ids.sort_by(|a, b| {
        levels[b.index()]
            .partial_cmp(&levels[a.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    ids
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
        assert_eq!(priority_list(&levels), vec![TaskId(0), TaskId(1), TaskId(2)]);
    }

    #[test]
    fn priority_list_breaks_ties_by_id() {
        let levels = vec![2.0, 5.0, 2.0, 5.0];
        assert_eq!(priority_list(&levels), vec![TaskId(1), TaskId(3), TaskId(0), TaskId(2)]);
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
    fn tracker_initial_levels_match_level_map() {
        let g = chain();
        let idx = g.edge_index();
        let tracker = LevelTracker::new(&g, &idx, |_| 1.0).unwrap();
        let full = level_map(&g, |_| 1.0).unwrap();
        assert_eq!(tracker.levels(), &full[..]);
    }

    #[test]
    fn tracker_update_matches_full_recompute_bitwise() {
        let g = chain();
        let idx = g.edge_index();
        let mut tracker = LevelTracker::new(&g, &idx, |_| 1.0).unwrap();
        // Cost of the middle task changes; only it and its ancestors move.
        let new_cost = |t: &TaskNode| if &*t.name == "m" { 7.5 } else { 1.0 };
        let touched = tracker.update(&g, &idx, &[TaskId(1)], new_cost);
        let full = level_map(&g, new_cost).unwrap();
        for (a, b) in tracker.levels().iter().zip(&full) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The exit node is below the change and must not be re-walked.
        assert_eq!(touched, 2, "middle + entry, not the exit");
    }

    #[test]
    fn tracker_stops_propagation_when_level_is_unchanged() {
        let g = chain();
        let idx = g.edge_index();
        let mut tracker = LevelTracker::new(&g, &idx, |_| 1.0).unwrap();
        // "Changing" the exit task to its existing cost re-evaluates it
        // but propagates nowhere.
        let touched = tracker.update(&g, &idx, &[TaskId(2)], |_| 1.0);
        assert_eq!(touched, 1);
        assert_eq!(tracker.levels(), &level_map(&g, |_| 1.0).unwrap()[..]);
    }

    #[test]
    fn tracker_rejects_cycles() {
        let mut g = chain();
        g.edges.push(crate::graph::Edge {
            from: TaskId(2),
            from_port: crate::ids::PortIndex(0),
            to: TaskId(0),
            to_port: crate::ids::PortIndex(0),
            data_size: 1,
        });
        let idx = g.edge_index();
        assert!(LevelTracker::new(&g, &idx, |_| 1.0).is_err());
    }

    #[test]
    fn empty_graph_critical_path_is_zero() {
        let g = Afg::new("empty");
        assert_eq!(critical_path(&g, |_| 1.0).unwrap(), 0.0);
    }
}
