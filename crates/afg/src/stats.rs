//! Structural statistics of application flow graphs.
//!
//! Used by the experiment harness to characterise generated workloads
//! (EXPERIMENTS.md reports these alongside makespans) and by users to
//! sanity-check editor output.

use crate::graph::Afg;

/// Shape summary of an AFG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphShape {
    /// Task count.
    pub tasks: usize,
    /// Edge count.
    pub edges: usize,
    /// Entry-node count.
    pub entries: usize,
    /// Exit-node count.
    pub exits: usize,
    /// Longest path length in *hops* (nodes on the path).
    pub depth: usize,
    /// Maximum antichain width approximated by the largest same-depth
    /// level population.
    pub width: usize,
    /// Mean in-degree over non-entry tasks (0 if none).
    pub(crate) mean_in_degree: f64,
    /// Total dataflow bytes.
    pub traffic: u64,
}

/// Compute the shape of `afg`. Returns `None` for cyclic graphs.
pub fn shape(afg: &Afg) -> Option<GraphShape> {
    let order = afg.topo_order()?;
    let n = afg.task_count();
    // Hop depth of each node: 1 + max parent depth.
    let mut depth = vec![1usize; n];
    for &t in &order {
        for e in afg.in_edges(t) {
            depth[t.index()] = depth[t.index()].max(depth[e.from.index()] + 1);
        }
    }
    let max_depth = depth.iter().copied().max().unwrap_or(0);
    // Width: the most-populated depth level.
    let mut level_pop = vec![0usize; max_depth + 1];
    for &d in &depth {
        level_pop[d] += 1;
    }
    let width = level_pop.iter().copied().max().unwrap_or(0);

    let entries = afg.entry_nodes().len();
    let non_entries = n - entries;
    let mean_in_degree =
        if non_entries == 0 { 0.0 } else { afg.edge_count() as f64 / non_entries as f64 };
    Some(GraphShape {
        tasks: n,
        edges: afg.edge_count(),
        entries,
        exits: afg.exit_nodes().len(),
        depth: max_depth,
        width,
        mean_in_degree,
        traffic: afg.total_traffic(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AfgBuilder;
    use crate::ids::TaskId;
    use crate::library::TaskLibrary;

    fn diamond() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("d", &lib);
        let a = b.add_task("Source", "a", 10).unwrap();
        let l = b.add_task("Map", "l", 10).unwrap();
        let r = b.add_task("Map", "r", 10).unwrap();
        let j = b.add_task("Matrix_Add", "j", 8).unwrap();
        b.connect(a, 0, l, 0).unwrap();
        b.connect(a, 0, r, 0).unwrap();
        b.connect(l, 0, j, 0).unwrap();
        b.connect(r, 0, j, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_shape() {
        let s = shape(&diamond()).unwrap();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.entries, 1);
        assert_eq!(s.exits, 1);
        assert_eq!(s.depth, 3);
        assert_eq!(s.width, 2, "the middle level has two tasks");
        assert!((s.mean_in_degree - 4.0 / 3.0).abs() < 1e-12);
        assert!(s.traffic > 0);
    }

    #[test]
    fn chain_depth_equals_length() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("c", &lib);
        let mut prev = b.add_task("Source", "t0", 10).unwrap();
        for i in 1..6 {
            let t = b.add_task("Map", &format!("t{i}"), 10).unwrap();
            b.connect(prev, 0, t, 0).unwrap();
            prev = t;
        }
        let s = shape(&b.build().unwrap()).unwrap();
        assert_eq!(s.depth, 6);
        assert_eq!(s.width, 1);
    }

    #[test]
    fn cyclic_graph_yields_none() {
        let mut g = diamond();
        g.edges.push(crate::graph::Edge {
            from: TaskId(3),
            from_port: crate::ids::PortIndex(0),
            to: TaskId(0),
            to_port: crate::ids::PortIndex(0),
            data_size: 1,
        });
        assert!(shape(&g).is_none());
    }

    #[test]
    fn empty_graph_shape() {
        let g = Afg::new("e");
        let s = shape(&g).unwrap();
        assert_eq!(s.tasks, 0);
        assert_eq!(s.depth, 0);
    }
}
