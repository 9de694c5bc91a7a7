//! Property-based tests for AFG structural invariants.
//!
//! Strategy: generate random *layered* DAGs through the public
//! `AfgBuilder` API (so every generated graph is one the editor could have
//! produced), then check the invariants the scheduler relies on.

use proptest::prelude::*;
use vdce_afg::level::{blevel_map, critical_path, level_map, level_pass, priority_list};
use vdce_afg::{validate, Afg, AfgBuilder, TaskId, TaskLibrary, TaskNode};

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

/// The rank the priority list replaced, kept here as its oracle: a
/// comparator sort of the ids through the level slice, by descending
/// `total_cmp`, ties by ascending id.
fn comparator_order(levels: &[f64]) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = (0..levels.len() as u32).map(TaskId).collect();
    ids.sort_unstable_by(|a, b| {
        levels[b.index()].total_cmp(&levels[a.index()]).then_with(|| a.cmp(b))
    });
    ids
}

/// `n` levels from `seed`: about half drawn from a palette of duplicates
/// and edge values (both NaN signs, both zeros, both infinities,
/// subnormals, the extremes), a quarter small integers (more
/// duplicates), a quarter arbitrary bit patterns (NaN payloads among
/// them).
fn levels_from(n: usize, seed: u64) -> Vec<f64> {
    const PALETTE: [f64; 12] = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        1.0,
        -1.0,
    ];
    let mut x = seed;
    let mut next = move || {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let r = next();
            match r % 4 {
                0 | 1 => PALETTE[(r >> 2) as usize % PALETTE.len()],
                2 => ((r >> 2) % 8) as f64,
                _ => f64::from_bits(next()),
            }
        })
        .collect()
}

/// The level pass before it took ids: costs read through each node,
/// edges through the scanning accessor, in reverse topological order.
fn node_keyed_levels(
    g: &Afg,
    cost: impl Fn(&TaskNode) -> f64,
    comm: impl Fn(u64) -> f64,
) -> Vec<f64> {
    let mut level = vec![0.0f64; g.task_count()];
    for &t in g.topo_order().expect("acyclic").iter().rev() {
        let mut best = 0.0f64;
        for e in g.out_edges(t) {
            let via = comm(e.data_size) + level[e.to.index()];
            if via > best {
                best = via;
            }
        }
        level[t.index()] = cost(g.task(t)) + best;
    }
    level
}

fn bits(levels: &[f64]) -> Vec<u64> {
    levels.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn priority_list_equals_the_comparator_at_the_size_extremes() {
    for (n, seed) in [(0, 0), (1, 1), (50_000, 2), (50_000, 3)] {
        let levels = levels_from(n, seed);
        assert_eq!(priority_list(&levels).iter().collect::<Vec<_>>(), comparator_order(&levels));
    }
}

proptest! {
    #[test]
    fn priority_list_equals_the_comparator_order(
        small in any::<bool>(),
        n in 0usize..=50_000,
        seed in any::<u64>(),
    ) {
        let levels = levels_from(if small { n % 65 } else { n }, seed);
        let order = priority_list(&levels);
        prop_assert_eq!(order.iter().len(), levels.len());
        prop_assert_eq!(order.iter().collect::<Vec<_>>(), comparator_order(&levels));
        for (r, t) in order.iter().enumerate() {
            prop_assert_eq!(order.rank(t), r);
            prop_assert_eq!(order.task(r), t);
        }
    }

    #[test]
    fn id_keyed_level_pass_equals_the_node_keyed_levels(
        widths in proptest::collection::vec(1u8..6, 1..6),
        seeds in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let g = layered_afg(&widths, &seeds);
        let cost = |t: &TaskNode| 0.25 + (t.problem_size % 7) as f64 / 3.0;
        let comm = |bytes: u64| bytes as f64 * 1e-3;
        let plain = node_keyed_levels(&g, cost, |_| 0.0);
        let with_comm = node_keyed_levels(&g, cost, comm);
        prop_assert_eq!(bits(&level_map(&g, cost).unwrap()), bits(&plain));
        prop_assert_eq!(bits(&blevel_map(&g, cost, comm).unwrap()), bits(&with_comm));
        let idx = g.edge_index();
        let by_id = |t: TaskId| cost(g.task(t));
        prop_assert_eq!(bits(&level_pass(&g, &idx, by_id, |_| 0.0).unwrap()), bits(&plain));
        prop_assert_eq!(bits(&level_pass(&g, &idx, by_id, comm).unwrap()), bits(&with_comm));
    }

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
        let order: Vec<_> = priority_list(&levels).iter().collect();
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
