//! Property-based tests for AFG structural invariants.
//!
//! Strategy: generate random *layered* DAGs through the public
//! `AfgBuilder` API (so every generated graph is one the editor could have
//! produced), then check the invariants the scheduler relies on.

use proptest::prelude::*;
use vdce_afg::level::{critical_path, level_map, priority_list};
use vdce_afg::{validate, Afg, AfgBuilder, TaskLibrary};

/// Build a random fan-in-1/fan-out-N layered DAG with `widths` tasks per
/// layer. Every non-entry task takes exactly one dataflow input from a
/// random task of the previous layer (library task `Map`: 1-in/1-out);
/// entries are `Source` (0-in/1-out); every `Source`/`Map` output may fan
/// out freely.
fn layered_afg(widths: &[u8], seeds: &[u8]) -> Afg {
    let lib = TaskLibrary::standard();
    let mut b = AfgBuilder::new("prop", &lib);
    let mut prev: Vec<vdce_afg::TaskId> = Vec::new();
    let mut seed_iter = seeds.iter().copied().cycle();
    let mut counter = 0usize;
    for (li, &w) in widths.iter().enumerate() {
        let w = w.max(1);
        let mut layer = Vec::new();
        for i in 0..w {
            let name = format!("n{li}_{i}");
            let id = if li == 0 {
                b.add_task("Source", &name, 8 + counter as u64).unwrap()
            } else {
                let id = b.add_task("Map", &name, 8 + counter as u64).unwrap();
                let pick = seed_iter.next().unwrap() as usize % prev.len();
                b.connect(prev[pick], 0, id, 0).unwrap();
                id
            };
            counter += 1;
            layer.push(id);
        }
        prev = layer;
    }
    b.build().expect("builder output must validate")
}

proptest! {
    #[test]
    fn builder_output_always_validates(
        widths in proptest::collection::vec(1u8..6, 1..6),
        seeds in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let g = layered_afg(&widths, &seeds);
        prop_assert!(validate(&g).is_ok());
        prop_assert!(g.is_dag());
    }

    #[test]
    fn topo_order_is_a_permutation_respecting_edges(
        widths in proptest::collection::vec(1u8..6, 1..6),
        seeds in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let g = layered_afg(&widths, &seeds);
        let order = g.topo_order().unwrap();
        prop_assert_eq!(order.len(), g.task_count());
        let mut seen = vec![false; g.task_count()];
        for t in &order { seen[t.index()] = true; }
        prop_assert!(seen.into_iter().all(|x| x));
        let pos: Vec<usize> = {
            let mut p = vec![0; g.task_count()];
            for (i, t) in order.iter().enumerate() { p[t.index()] = i; }
            p
        };
        for e in &g.edges {
            prop_assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    // The order is specified, not just valid: of the tasks whose parents
    // are all out, the lowest id goes next — on any labelling, not only
    // the builder's layer-ascending one.
    #[test]
    fn topo_order_takes_the_lowest_ready_id_under_any_labelling(
        widths in proptest::collection::vec(1u8..6, 1..6),
        seeds in proptest::collection::vec(any::<u8>(), 1..32),
        keys in proptest::collection::vec(any::<u32>(), 25),
    ) {
        let mut g = layered_afg(&widths, &seeds);
        let n = g.task_count();
        // Task `old` becomes task `new_id[old]`.
        let mut by_key: Vec<usize> = (0..n).collect();
        by_key.sort_by_key(|&i| (keys[i], i));
        let mut new_id = vec![0u32; n];
        for (new, &old) in by_key.iter().enumerate() {
            new_id[old] = new as u32;
        }
        for t in &mut g.tasks {
            t.id = vdce_afg::TaskId(new_id[t.id.index()]);
        }
        g.tasks.sort_by_key(|t| t.id);
        for e in &mut g.edges {
            e.from = vdce_afg::TaskId(new_id[e.from.index()]);
            e.to = vdce_afg::TaskId(new_id[e.to.index()]);
        }

        let mut deg = g.in_degrees();
        let mut out = vec![false; n];
        let mut want = Vec::new();
        while let Some(t) = g.task_ids().find(|t| !out[t.index()] && deg[t.index()] == 0) {
            out[t.index()] = true;
            want.push(t);
            for e in g.out_edges(t) {
                deg[e.to.index()] -= 1;
            }
        }
        prop_assert_eq!(g.topo_order(), Some(want));
    }

    #[test]
    fn levels_strictly_decrease_along_edges_for_positive_costs(
        widths in proptest::collection::vec(1u8..6, 1..6),
        seeds in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let g = layered_afg(&widths, &seeds);
        let levels = level_map(&g, |t| 1.0 + t.problem_size as f64).unwrap();
        for e in &g.edges {
            prop_assert!(
                levels[e.from.index()] > levels[e.to.index()],
                "level must strictly decrease along {} -> {}", e.from, e.to
            );
        }
    }

    #[test]
    fn level_of_every_node_bounded_by_critical_path(
        widths in proptest::collection::vec(1u8..6, 1..6),
        seeds in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let g = layered_afg(&widths, &seeds);
        let cost = |t: &vdce_afg::TaskNode| 1.0 + (t.problem_size % 13) as f64;
        let levels = level_map(&g, cost).unwrap();
        let cp = critical_path(&g, cost).unwrap();
        for l in &levels {
            prop_assert!(*l <= cp + 1e-9);
        }
        // The critical path is attained by some entry node.
        let max_entry = g.entry_nodes().into_iter()
            .map(|t| levels[t.index()]).fold(0.0f64, f64::max);
        prop_assert!((max_entry - cp).abs() < 1e-9);
    }

    #[test]
    fn priority_list_is_sorted_by_level(
        widths in proptest::collection::vec(1u8..6, 1..6),
        seeds in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let g = layered_afg(&widths, &seeds);
        let levels = level_map(&g, |t| t.problem_size as f64).unwrap();
        let order = priority_list(&levels);
        for w in order.windows(2) {
            prop_assert!(levels[w[0].index()] >= levels[w[1].index()]);
        }
    }

    #[test]
    fn document_round_trip_is_identity(
        widths in proptest::collection::vec(1u8..5, 1..4),
        seeds in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let g = layered_afg(&widths, &seeds);
        let doc = vdce_afg::AfgDocument::new("prop_user", g).unwrap();
        let back = vdce_afg::AfgDocument::from_json(&doc.to_json()).unwrap();
        prop_assert_eq!(back, doc);
    }
}
