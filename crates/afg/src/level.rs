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

/// One node's level given final child levels.
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

/// Produce the scheduling priority list: task ids sorted by *descending*
/// level ("the node with a higher level value will have a higher priority
/// for scheduling"), ties broken by ascending id for determinism. The
/// levels compare by `total_cmp`, so the order is total whatever they
/// hold: a NaN ranks above every number and `0.0` above `-0.0`.
pub fn priority_list(levels: &[f64]) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = (0..levels.len() as u32).map(TaskId).collect();
    ids.sort_unstable_by(|a, b| {
        levels[b.index()].total_cmp(&levels[a.index()]).then_with(|| a.cmp(b))
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
    fn priority_list_is_total_over_nan_signed_zero_and_ties() {
        // The order the site-scheduler walk and `evaluate` rank by: NaN
        // above every number, `0.0` above `-0.0`, equal levels by id.
        let list = |levels: &[f64]| priority_list(levels).iter().map(|t| t.0).collect::<Vec<_>>();
        assert_eq!(list(&[5.0, f64::NAN, 1.0, f64::NAN, f64::INFINITY]), [1, 3, 4, 0, 2]);
        assert_eq!(list(&[f64::NEG_INFINITY, -0.0, 0.0, -f64::NAN]), [2, 1, 0, 3]);
        assert_eq!(list(&[1.0, -0.0, 1.0, 0.0, -0.0, 1.0]), [0, 2, 5, 3, 1, 4]);
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
