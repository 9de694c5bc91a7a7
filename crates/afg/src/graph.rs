//! The Application Flow Graph (AFG) itself.
//!
//! An AFG is a DAG whose nodes are [`TaskNode`]s and whose edges are
//! dataflow connections between logical ports. The paper builds this graph
//! in the Application Editor and ships it to the Application Scheduler,
//! which walks it in ready-set order (Figure 2). This module provides the
//! graph container plus the traversal queries every later phase needs:
//! parents/children, entry/exit nodes, topological order and edge lookup.

use crate::ids::{PortIndex, TaskId};
use crate::task::TaskNode;
use serde::{Deserialize, Serialize};

/// A dataflow edge between an output port of one task and an input port of
/// another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Producing task.
    pub from: TaskId,
    /// Output port on the producing task.
    pub from_port: PortIndex,
    /// Consuming task.
    pub to: TaskId,
    /// Input port on the consuming task.
    pub to_port: PortIndex,
    /// Bytes transferred over this edge (the paper uses "the input size of
    /// the application … for the transfer size parameter"; the builder
    /// fills this from the producing library entry's communication size).
    pub data_size: u64,
}

/// An Application Flow Graph: named DAG of task nodes and dataflow edges.
///
/// Invariants (enforced by [`crate::validate::validate`], maintained by
/// [`crate::builder::AfgBuilder`]):
/// - `tasks[i].id == TaskId(i)`;
/// - edges reference existing tasks and in-range ports;
/// - the edge relation is acyclic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Afg {
    /// Application name shown in the editor title bar.
    pub name: String,
    /// Task nodes, indexed by [`TaskId`].
    pub tasks: Vec<TaskNode>,
    /// Dataflow edges.
    pub edges: Vec<Edge>,
}

impl Afg {
    /// Create an empty AFG with the given application name.
    pub fn new(name: impl Into<String>) -> Self {
        Afg { name: name.into(), tasks: Vec::new(), edges: Vec::new() }
    }

    /// Number of task nodes.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of dataflow edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Borrow a task by id. Panics if the id does not belong to this graph.
    #[inline]
    pub fn task(&self, id: TaskId) -> &TaskNode {
        &self.tasks[id.index()]
    }

    /// Borrow a task by id if it exists.
    pub fn get_task(&self, id: TaskId) -> Option<&TaskNode> {
        self.tasks.get(id.index())
    }

    /// All task ids in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Ids of tasks fed by `id` (deduplicated, in ascending id order).
    pub fn children(&self, id: TaskId) -> Vec<TaskId> {
        let mut v: Vec<TaskId> = self.edges.iter().filter(|e| e.from == id).map(|e| e.to).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Edges arriving at `id`.
    pub fn in_edges(&self, id: TaskId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.to == id)
    }

    /// Edges leaving `id`.
    pub fn out_edges(&self, id: TaskId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// Entry nodes: tasks with no parents (Figure 2 initialises the ready
    /// set with exactly these).
    pub fn entry_nodes(&self) -> Vec<TaskId> {
        let deg = self.in_degrees();
        self.task_ids().filter(|t| deg[t.index()] == 0).collect()
    }

    /// Exit nodes: tasks with no children (the level computation anchors
    /// on these).
    pub fn exit_nodes(&self) -> Vec<TaskId> {
        let mut deg = vec![0usize; self.tasks.len()];
        for e in &self.edges {
            deg[e.from.index()] += 1;
        }
        self.task_ids().filter(|t| deg[t.index()] == 0).collect()
    }

    /// Build the CSR adjacency index for this graph. See [`EdgeIndex`].
    pub fn edge_index(&self) -> EdgeIndex {
        EdgeIndex::new(self)
    }

    /// In-degree (number of incoming edges, counting multi-edges) of every
    /// task, indexed by task id.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.tasks.len()];
        for e in &self.edges {
            deg[e.to.index()] += 1;
        }
        deg
    }

    /// Kahn topological order, or `None` if the edge relation has a cycle.
    ///
    /// Ties are broken by ascending task id so the order is deterministic.
    pub fn topo_order(&self) -> Option<Vec<TaskId>> {
        self.topo_order_with(&self.edge_index())
    }

    /// [`Afg::topo_order`] against a prebuilt [`EdgeIndex`], for callers
    /// that already hold one.
    pub fn topo_order_with(&self, idx: &EdgeIndex) -> Option<Vec<TaskId>> {
        let n = self.tasks.len();
        let mut deg = self.in_degrees();
        // The ready frontier as a [`ReadySet`] over task ids: the lowest
        // ready id pops first however wide the frontier gets (a 25k-wide
        // layer is routine at scale), and a child may have a lower id
        // than the task that readied it.
        let mut frontier = ReadySet::new(n);
        for t in self.task_ids().filter(|t| deg[t.index()] == 0) {
            frontier.insert(t.index());
        }
        let mut order = Vec::with_capacity(n);
        while let Some(t) = frontier.pop_min() {
            let t = TaskId(t as u32);
            order.push(t);
            for e in idx.out_edges(self, t) {
                deg[e.to.index()] -= 1;
                if deg[e.to.index()] == 0 {
                    frontier.insert(e.to.index());
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Is the graph acyclic?
    pub fn is_dag(&self) -> bool {
        self.topo_order().is_some()
    }

    /// Total bytes crossing all dataflow edges.
    pub fn total_traffic(&self) -> u64 {
        self.edges.iter().map(|e| e.data_size).sum()
    }
}

/// Positions of a topological order ([`Afg::topo_order_with`]), one bit
/// each, drained by one forward sweep that visits a task before its
/// children. The contract: a sweep marks only positions ahead of its
/// cursor, so it visits each marked position once, in order.
/// [`TopoMarks::reset`] readies it for the next sweep and keeps the
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct TopoMarks {
    words: Vec<u64>,
    /// Words before `lo` are zero.
    lo: usize,
}

impl TopoMarks {
    /// Clear every mark and size the set for positions `0..n`.
    pub fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.lo = 0;
    }

    /// Mark position `pos` (idempotent).
    pub fn mark(&mut self, pos: usize) {
        let w = pos / 64;
        debug_assert!(self.lo <= w, "position {pos} is behind the sweep");
        self.words[w] |= 1 << (pos % 64);
    }

    /// How many positions are marked.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Unmark and return the lowest marked position.
    pub fn pop_forward(&mut self) -> Option<usize> {
        while let Some(&w) = self.words.get(self.lo) {
            // Re-read the word on every pop: a child may sit in it.
            if w != 0 {
                self.words[self.lo] = w & (w - 1);
                return Some(self.lo * 64 + w.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        None
    }
}

/// A set of positions `0..n` popped lowest first, for ready sets whose
/// order is *not* topological: [`Afg::topo_order_with`]'s frontier by
/// task id and the level-ranked ready lists of the site-scheduler walk
/// and the makespan simulator. The contract, unlike [`TopoMarks`]'s: an
/// insert may land anywhere, below the last position popped included,
/// since a child can rank ahead of the task that readied it. One bit per
/// position sits under one summary bit per 64 positions (set while that
/// word is non-zero), all in one allocation, so a pop reads a summary
/// word and a bit word.
#[derive(Debug, Clone)]
pub struct ReadySet {
    /// `n.div_ceil(64)` bit words, then the summary words.
    words: Vec<u64>,
    /// Index of the first summary word.
    summary: usize,
    /// Summary words before `lo` are zero.
    lo: usize,
}

impl ReadySet {
    /// An empty set of positions `0..n`.
    pub fn new(n: usize) -> Self {
        let summary = n.div_ceil(64);
        ReadySet { words: vec![0; summary + summary.div_ceil(64)], summary, lo: 0 }
    }

    /// Add position `pos` (idempotent).
    pub fn insert(&mut self, pos: usize) {
        let w = pos / 64;
        self.words[w] |= 1 << (pos % 64);
        self.words[self.summary + w / 64] |= 1 << (w % 64);
        self.lo = self.lo.min(w / 64);
    }

    /// Remove and return the lowest position in the set.
    pub fn pop_min(&mut self) -> Option<usize> {
        let (bits, summary) = self.words.split_at_mut(self.summary);
        while let Some(&s) = summary.get(self.lo) {
            if s != 0 {
                let w = self.lo * 64 + s.trailing_zeros() as usize;
                let word = bits[w];
                bits[w] = word & (word - 1);
                if bits[w] == 0 {
                    summary[self.lo] = s & (s - 1);
                }
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        None
    }
}

/// CSR-style adjacency index over an [`Afg`]'s edge list.
///
/// [`Afg::in_edges`]/[`Afg::out_edges`] scan the whole edge list per
/// call, which turns every per-task walk in a scheduler loop into
/// `O(n·e)`. One `O(n + e)` build here makes those walks `O(deg)`.
///
/// Within one task the index yields edges in edge-list order — exactly
/// the order the scanning accessors produce — so code that folds floats
/// over a task's edges (the site scheduler's transfer-time sums) computes
/// bit-identical results through the index.
///
/// The index borrows nothing: it stores positions into `afg.edges` and
/// must only be used with the graph it was built from (resolving through
/// a different or mutated graph gives meaningless edges or panics).
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// `n + 1` prefix offsets into `in_pos`, indexed by target task.
    in_off: Vec<u32>,
    /// Edge-list positions grouped by target task.
    in_pos: Vec<u32>,
    /// `n + 1` prefix offsets into `out_pos`, indexed by source task.
    out_off: Vec<u32>,
    /// Edge-list positions grouped by source task.
    out_pos: Vec<u32>,
}

impl EdgeIndex {
    /// Index `afg`'s edges by source and by target (counting sort, so
    /// grouping is stable: edge-list order is preserved per task).
    pub(crate) fn new(afg: &Afg) -> Self {
        let n = afg.task_count();
        let e = afg.edge_count();
        let mut in_off = vec![0u32; n + 1];
        let mut out_off = vec![0u32; n + 1];
        for edge in &afg.edges {
            in_off[edge.to.index() + 1] += 1;
            out_off[edge.from.index() + 1] += 1;
        }
        for i in 0..n {
            in_off[i + 1] += in_off[i];
            out_off[i + 1] += out_off[i];
        }
        let mut in_pos = vec![0u32; e];
        let mut out_pos = vec![0u32; e];
        // Fill each group by advancing its own start offset, which leaves
        // offset `i` at group `i`'s end, i.e. at the old offset `i + 1`;
        // one shift right restores the offsets without a cursor copy.
        for (p, edge) in afg.edges.iter().enumerate() {
            let i = &mut in_off[edge.to.index()];
            in_pos[*i as usize] = p as u32;
            *i += 1;
            let o = &mut out_off[edge.from.index()];
            out_pos[*o as usize] = p as u32;
            *o += 1;
        }
        for off in [&mut in_off, &mut out_off] {
            off.copy_within(0..n, 1);
            off[0] = 0;
        }
        EdgeIndex { in_off, in_pos, out_off, out_pos }
    }

    /// Edges arriving at `id`, in edge-list order.
    pub fn in_edges<'a>(&'a self, afg: &'a Afg, id: TaskId) -> impl Iterator<Item = &'a Edge> {
        let (a, b) = (self.in_off[id.index()] as usize, self.in_off[id.index() + 1] as usize);
        self.in_pos[a..b].iter().map(move |&p| &afg.edges[p as usize])
    }

    /// Edges leaving `id`, in edge-list order.
    pub fn out_edges<'a>(&'a self, afg: &'a Afg, id: TaskId) -> impl Iterator<Item = &'a Edge> {
        let (a, b) = (self.out_off[id.index()] as usize, self.out_off[id.index() + 1] as usize);
        self.out_pos[a..b].iter().map(move |&p| &afg.edges[p as usize])
    }

    /// Number of edges arriving at `id`.
    pub fn in_degree(&self, id: TaskId) -> usize {
        (self.in_off[id.index() + 1] - self.in_off[id.index()]) as usize
    }

    /// Number of edges leaving `id`.
    pub fn out_degree(&self, id: TaskId) -> usize {
        (self.out_off[id.index() + 1] - self.out_off[id.index()]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::KernelKind;
    use crate::task::{IoSpec, TaskProperties};

    fn node(id: u32, name: &str, ins: usize, outs: usize) -> TaskNode {
        TaskNode {
            id: TaskId(id),
            name: name.into(),
            library_task: "Map".into(),
            kernel: KernelKind::Map,
            problem_size: 10,
            props: TaskProperties {
                inputs: vec![IoSpec::Dataflow; ins],
                outputs: vec![IoSpec::Dataflow; outs],
                ..TaskProperties::default()
            },
        }
    }

    fn edge(from: u32, fp: u16, to: u32, tp: u16, size: u64) -> Edge {
        Edge {
            from: TaskId(from),
            from_port: PortIndex(fp),
            to: TaskId(to),
            to_port: PortIndex(tp),
            data_size: size,
        }
    }

    /// Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
    fn diamond() -> Afg {
        let mut g = Afg::new("diamond");
        g.tasks =
            vec![node(0, "a", 0, 2), node(1, "b", 1, 1), node(2, "c", 1, 1), node(3, "d", 2, 0)];
        g.edges = vec![
            edge(0, 0, 1, 0, 100),
            edge(0, 1, 2, 0, 200),
            edge(1, 0, 3, 0, 300),
            edge(2, 0, 3, 1, 400),
        ];
        g
    }

    #[test]
    fn parents_and_children() {
        let g = diamond();
        assert_eq!(g.children(TaskId(0)), vec![TaskId(1), TaskId(2)]);
        assert!(g.children(TaskId(3)).is_empty());
    }

    #[test]
    fn entry_and_exit_nodes() {
        let g = diamond();
        assert_eq!(g.entry_nodes(), vec![TaskId(0)]);
        assert_eq!(g.exit_nodes(), vec![TaskId(3)]);
    }

    #[test]
    fn topo_order_of_diamond_is_valid_and_deterministic() {
        let g = diamond();
        let order = g.topo_order().expect("diamond is a DAG");
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
        assert!(g.is_dag());
    }

    #[test]
    fn topo_order_respects_all_edges() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        for e in &g.edges {
            assert!(pos(e.from) < pos(e.to), "edge {:?} violated", e);
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = diamond();
        g.edges.push(edge(3, 0, 0, 0, 1)); // back edge
        assert!(g.topo_order().is_none());
        assert!(!g.is_dag());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = Afg::new("loop");
        g.tasks = vec![node(0, "a", 1, 1)];
        g.edges = vec![edge(0, 0, 0, 0, 1)];
        assert!(!g.is_dag());
    }

    #[test]
    fn empty_graph_is_a_dag() {
        let g = Afg::new("empty");
        assert_eq!(g.topo_order(), Some(vec![]));
        assert!(g.entry_nodes().is_empty());
    }

    #[test]
    fn multi_edges_between_same_pair_dedup_in_parents() {
        let mut g = Afg::new("multi");
        g.tasks = vec![node(0, "a", 0, 2), node(1, "b", 2, 0)];
        g.edges = vec![edge(0, 0, 1, 0, 10), edge(0, 1, 1, 1, 20)];
        assert_eq!(g.in_edges(TaskId(1)).count(), 2);
        assert!(g.is_dag());
    }

    #[test]
    fn traffic_and_ccr() {
        let g = diamond();
        assert_eq!(g.total_traffic(), 1000);
    }

    #[test]
    fn in_degrees_count_multi_edges() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    /// Pop everything left in `set`, lowest first.
    fn drain(set: &mut ReadySet) -> Vec<usize> {
        std::iter::from_fn(|| set.pop_min()).collect()
    }

    #[test]
    fn ready_set_pops_lowest_first_across_word_and_summary_boundaries() {
        let mut set = ReadySet::new(8_193);
        for pos in [8_192, 4_096, 64, 4_095, 63, 0, 64, 8_191] {
            set.insert(pos);
        }
        assert_eq!(drain(&mut set), vec![0, 63, 64, 4_095, 4_096, 8_191, 8_192]);
        assert_eq!(set.pop_min(), None);
        assert_eq!(drain(&mut ReadySet::new(0)), Vec::<usize>::new());
    }

    #[test]
    fn ready_set_takes_inserts_below_the_last_pop() {
        let mut set = ReadySet::new(5_000);
        for pos in [4_096, 4_100, 200] {
            set.insert(pos);
        }
        assert_eq!(set.pop_min(), Some(200));
        assert_eq!(set.pop_min(), Some(4_096));
        // Below the last pop: in its word, an earlier word and an earlier
        // summary word; a duplicate of a member counts once.
        for pos in [4_097, 4_095, 130, 4_100, 5] {
            set.insert(pos);
        }
        assert_eq!(drain(&mut set), vec![5, 130, 4_095, 4_097, 4_100]);
    }

    #[test]
    fn ready_set_matches_a_sorted_set_model() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng as usize % bound
        };
        let n = 10_000;
        let (mut set, mut model) = (ReadySet::new(n), std::collections::BTreeSet::new());
        for _ in 0..50_000 {
            if next(3) == 0 {
                assert_eq!(set.pop_min(), model.pop_first());
            } else {
                // Mostly near the lowest member, as a walk readies tasks.
                let low = model.first().copied().unwrap_or(0);
                let pos = if next(2) == 0 { next(n) } else { (low + next(300)).min(n - 1) };
                set.insert(pos);
                model.insert(pos);
            }
        }
        assert_eq!(drain(&mut set), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn edge_index_matches_scanning_accessors() {
        // Diamond plus a multi-edge so per-task groups have > 1 entry.
        let mut g = diamond();
        g.edges.push(edge(0, 1, 3, 1, 500));
        let idx = g.edge_index();
        for t in g.task_ids() {
            let scan_in: Vec<&Edge> = g.in_edges(t).collect();
            let idx_in: Vec<&Edge> = idx.in_edges(&g, t).collect();
            assert_eq!(scan_in, idx_in, "in-edges of {t} must match in order");
            assert_eq!(idx.in_degree(t), scan_in.len());
            let scan_out: Vec<&Edge> = g.out_edges(t).collect();
            let idx_out: Vec<&Edge> = idx.out_edges(&g, t).collect();
            assert_eq!(scan_out, idx_out, "out-edges of {t} must match in order");
            assert_eq!(idx.out_degree(t), scan_out.len());
        }
    }

    #[test]
    fn edge_index_of_empty_graph() {
        let g = Afg::new("empty");
        let idx = g.edge_index();
        assert_eq!(idx.in_pos.len(), 0);
        assert_eq!(idx.out_pos.len(), 0);
    }
}
