//! `EdgeIndex` (and the level machinery built on it) on pathological
//! graph shapes: the empty AFG, a 10k-node chain, a wide star fan-out
//! and two 25k-wide layers. These are the shapes where an off-by-one in
//! the CSR offsets, an accidental O(E) scan per task or an O(frontier)
//! step per ready task would show up first.

use vdce_afg::level::level_map;
use vdce_afg::{Afg, Edge, IoSpec, KernelKind, PortIndex, TaskId, TaskNode, TaskProperties};

fn node(id: u32, entry: bool) -> TaskNode {
    TaskNode {
        id: TaskId(id),
        name: format!("n{id}").into(),
        library_task: if entry { "Source" } else { "Map" }.into(),
        kernel: if entry { KernelKind::Source } else { KernelKind::Map },
        problem_size: 1000,
        props: TaskProperties {
            inputs: vec![IoSpec::Dataflow; usize::from(!entry)],
            outputs: vec![IoSpec::Dataflow],
            ..TaskProperties::default()
        },
    }
}

fn edge(from: u32, to: u32, bytes: u64) -> Edge {
    Edge {
        from: TaskId(from),
        from_port: PortIndex(0),
        to: TaskId(to),
        to_port: PortIndex(0),
        data_size: bytes,
    }
}

/// n0 → n1 → … → n{n-1}.
fn chain(n: u32) -> Afg {
    let mut g = Afg::new("chain");
    for i in 0..n {
        g.tasks.push(node(i, i == 0));
    }
    for i in 1..n {
        g.edges.push(edge(i - 1, i, 64));
    }
    g
}

/// n0 fans out to n1..=n{leaves}.
fn star(leaves: u32) -> Afg {
    let mut g = Afg::new("star");
    g.tasks.push(node(0, true));
    for i in 1..=leaves {
        g.tasks.push(node(i, false));
        g.edges.push(edge(0, i, u64::from(i)));
    }
    g
}

/// Two layers of `width` tasks, child `i` fed by entries `i` and
/// `i + 1` (wrapping). `children_first` gives the children the low ids.
fn wide_layers(width: u32, children_first: bool) -> Afg {
    let (entry0, child0) = if children_first { (width, 0) } else { (0, width) };
    let mut g = Afg::new("wide");
    for i in 0..2 * width {
        g.tasks.push(node(i, (i >= width) == children_first));
    }
    for i in 0..width {
        g.edges.push(edge(entry0 + i, child0 + i, 64));
        g.edges.push(edge(entry0 + (i + 1) % width, child0 + i, 64));
    }
    g
}

#[test]
fn empty_graph_has_empty_index() {
    let g = Afg::new("empty");
    let idx = g.edge_index();
    assert!(g.topo_order_with(&idx).is_some());
    assert_eq!(level_map(&g, |_| 1.0).unwrap(), Vec::<f64>::new());
}

#[test]
fn ten_k_chain_degrees_and_order() {
    let n = 10_000u32;
    let g = chain(n);
    let idx = g.edge_index();
    for i in 0..n {
        let t = TaskId(i);
        assert_eq!(idx.in_degree(t), usize::from(i > 0), "in-degree of {i}");
        assert_eq!(idx.out_degree(t), usize::from(i < n - 1), "out-degree of {i}");
        if i > 0 {
            let ins: Vec<TaskId> = idx.in_edges(&g, t).map(|e| e.from).collect();
            assert_eq!(ins, vec![TaskId(i - 1)]);
        }
    }
    let order = g.topo_order_with(&idx).expect("chain is acyclic");
    assert_eq!(order, (0..n).map(TaskId).collect::<Vec<_>>());
    // Levels count the distance to the exit; the entry sees the whole
    // chain.
    let levels = level_map(&g, |_| 1.0).unwrap();
    assert_eq!(levels[0], f64::from(n));
    assert_eq!(levels[(n - 1) as usize], 1.0);
}

#[test]
fn star_fan_out_preserves_edge_order_and_degrees() {
    let leaves = 5_000u32;
    let g = star(leaves);
    let idx = g.edge_index();
    assert_eq!(idx.out_degree(TaskId(0)), leaves as usize);
    assert_eq!(idx.in_degree(TaskId(0)), 0);
    // CSR must keep the hub's out-edges in edge-list order.
    let outs: Vec<(TaskId, u64)> =
        idx.out_edges(&g, TaskId(0)).map(|e| (e.to, e.data_size)).collect();
    for (k, (to, bytes)) in outs.iter().enumerate() {
        let want = (k + 1) as u32;
        assert_eq!((*to, *bytes), (TaskId(want), u64::from(want)));
    }
    for i in 1..=leaves {
        assert_eq!(idx.in_degree(TaskId(i)), 1);
        assert_eq!(idx.out_degree(TaskId(i)), 0);
    }
    // One leaf's cost reaches the hub and no other leaf.
    let bump = |t: &TaskNode| if t.id == TaskId(17) { 9.0 } else { 1.0 };
    let levels = level_map(&g, bump).unwrap();
    assert_eq!((levels[0], levels[17], levels[18]), (10.0, 9.0, 1.0));
}

#[test]
fn wide_frontier_pops_the_lowest_ready_id() {
    let w = 25_000u32;
    // Children above the entries: each is ready long before its turn and
    // joins a frontier of ~25k lower ids, so the order is plain ascending.
    let g = wide_layers(w, false);
    let idx = g.edge_index();
    for i in 0..w {
        assert_eq!((idx.in_degree(TaskId(i)), idx.out_degree(TaskId(i))), (0, 2));
        assert_eq!((idx.in_degree(TaskId(w + i)), idx.out_degree(TaskId(w + i))), (2, 0));
    }
    let order = g.topo_order_with(&idx).expect("layers are acyclic");
    assert_eq!(order, (0..2 * w).map(TaskId).collect::<Vec<_>>());
    let levels = level_map(&g, |_| 1.0).unwrap();
    assert!(levels[..w as usize].iter().all(|&l| l == 2.0));
    assert!(levels[w as usize..].iter().all(|&l| l == 1.0));

    // Children below the entries: a child jumps the queue the moment its
    // second parent is out.
    let g = wide_layers(w, true);
    let mut want = vec![TaskId(w)];
    for i in 1..w {
        want.extend([TaskId(w + i), TaskId(i - 1)]);
    }
    want.push(TaskId(w - 1));
    assert_eq!(g.topo_order().expect("layers are acyclic"), want);
}

#[test]
fn parallel_edges_are_each_indexed() {
    let mut g = Afg::new("multi");
    g.tasks.push(node(0, true));
    g.tasks.push(node(1, false));
    g.edges.push(edge(0, 1, 10));
    g.edges.push(edge(0, 1, 20));
    let idx = g.edge_index();
    assert_eq!(idx.out_degree(TaskId(0)), 2);
    assert_eq!(idx.in_degree(TaskId(1)), 2);
    assert_eq!(g.in_degrees()[1], 2, "in_degrees counts multi-edges");
    assert_eq!(idx.in_degrees(), [0, 2], "so does the index's");
    let sizes: Vec<u64> = idx.in_edges(&g, TaskId(1)).map(|e| e.data_size).collect();
    assert_eq!(sizes, vec![10, 20]);
}
