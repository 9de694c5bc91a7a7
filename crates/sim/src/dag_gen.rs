//! Application-flow-graph generators.
//!
//! All generators build [`Afg`]s directly from the standard library's
//! `Source` (entries), `Map` (interior) and `Sink` (exits) tasks — O(n)
//! kernels whose problem sizes carry the computation weight — and set
//! edge transfer sizes explicitly, so computation scale and
//! communication scale (and hence CCR) are independent knobs. Every
//! generated graph passes [`vdce_afg::validate`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use vdce_afg::{
    validate, Afg, Edge, IoSpec, KernelKind, PortIndex, TaskId, TaskNode, TaskProperties,
};

/// Parameters of the layered random DAG family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DagSpec {
    /// Total number of tasks (≥ 2).
    pub tasks: usize,
    /// Mean layer width (the shape parameter of the paper's task graphs).
    pub width: usize,
    /// Problem-size range for the O(n) task kernels (log-uniform).
    pub min_size: u64,
    /// Upper end of the problem-size range.
    pub max_size: u64,
    /// Edge transfer-size range in bytes (log-uniform) — the CCR knob.
    pub min_bytes: u64,
    /// Upper end of the transfer-size range.
    pub max_bytes: u64,
    /// Extra-edge probability: chance that a task gets a second parent.
    pub extra_edge_p: f64,
}

impl Default for DagSpec {
    fn default() -> Self {
        DagSpec {
            tasks: 50,
            width: 5,
            min_size: 50_000,
            max_size: 500_000,
            min_bytes: 10_000,
            max_bytes: 1_000_000,
            extra_edge_p: 0.3,
        }
    }
}

/// A short formatted task name, written straight into the shared
/// allocation a [`TaskNode`] stores: `format!(..).into()` would build a
/// `String` first and copy it out, an allocation and a free per task of
/// every generated graph.
pub(crate) fn task_name(args: fmt::Arguments<'_>) -> Arc<str> {
    struct Stack {
        bytes: [u8; 40],
        len: usize,
    }
    impl fmt::Write for Stack {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let end = self.len + s.len();
            self.bytes.get_mut(self.len..end).ok_or(fmt::Error)?.copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut name = Stack { bytes: [0; 40], len: 0 };
    match fmt::Write::write_fmt(&mut name, args) {
        Ok(()) => std::str::from_utf8(&name.bytes[..name.len]).expect("whole strs went in").into(),
        Err(fmt::Error) => args.to_string().into(),
    }
}

fn node(
    id: u32,
    name: fmt::Arguments<'_>,
    kernel: KernelKind,
    size: u64,
    ins: usize,
    outs: usize,
) -> TaskNode {
    let library_task = match kernel {
        KernelKind::Source => "Source",
        KernelKind::Sink => "Sink",
        _ => "Map",
    };
    TaskNode {
        id: TaskId(id),
        name: task_name(name),
        library_task: library_task.into(),
        kernel,
        problem_size: size,
        props: TaskProperties {
            inputs: vec![IoSpec::Dataflow; ins],
            outputs: vec![IoSpec::Dataflow; outs],
            ..TaskProperties::default()
        },
    }
}

fn log_uniform(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    let (lo, hi) = (lo.max(1), hi.max(2));
    if lo >= hi {
        return lo;
    }
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    rng.gen_range(a..b).exp() as u64
}

/// Layered random DAG: tasks are arranged in layers of ±50% of
/// `spec.width`; each non-entry task has one random parent in the
/// previous layer and, with probability `extra_edge_p`, a second parent
/// in any earlier layer. A final sink joins all leaves so the graph has
/// one exit.
pub fn layered_random(spec: &DagSpec, seed: u64) -> Afg {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Afg::new(format!("layered-{}t-s{seed}", spec.tasks));
    let interior_budget = spec.tasks.saturating_sub(1).max(1);
    // Every interior task and the sink: known now, so the nodes are never
    // moved by a regrowth.
    g.tasks.reserve_exact(interior_budget + 1);

    // Ids are handed out in order, so a layer is a range of ids and every
    // earlier task — the pool second parents are drawn from — is `0..made`.
    let mut prev = 0..0u32;
    let mut made = 0usize;
    while made < interior_budget {
        let lo = (spec.width / 2).max(1);
        let hi = (spec.width + spec.width / 2).max(lo + 1);
        let w = rng.gen_range(lo..=hi).min(interior_budget - made).max(1);
        let is_first = made == 0;
        let layer = made as u32..(made + w) as u32;
        for id in layer.clone() {
            let size = log_uniform(&mut rng, spec.min_size, spec.max_size);
            if is_first {
                g.tasks.push(node(id, format_args!("n{id}"), KernelKind::Source, size, 0, 1));
            } else {
                // Up to 2 parents: ports sized below after edges chosen.
                g.tasks.push(node(id, format_args!("n{id}"), KernelKind::Map, size, 1, 1));
            }
        }
        if !is_first {
            for t in layer.clone().map(TaskId) {
                let p = TaskId(prev.start + rng.gen_range(0..prev.len()) as u32);
                let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
                g.edges.push(Edge {
                    from: p,
                    from_port: PortIndex(0),
                    to: t,
                    to_port: PortIndex(0),
                    data_size: bytes,
                });
                if rng.gen_bool(spec.extra_edge_p) && made > 1 {
                    let p2 = TaskId(rng.gen_range(0..made) as u32);
                    if p2 != p {
                        g.tasks[t.index()].props.inputs.push(IoSpec::Dataflow);
                        let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
                        g.edges.push(Edge {
                            from: p2,
                            from_port: PortIndex(0),
                            to: t,
                            to_port: PortIndex(1),
                            data_size: bytes,
                        });
                    }
                }
            }
        }
        made += w;
        prev = layer;
    }

    // Join every current leaf into one sink.
    let mut has_child = vec![false; g.tasks.len()];
    for e in &g.edges {
        has_child[e.from.index()] = true;
    }
    let leaves: Vec<TaskId> = g.task_ids().filter(|t| !has_child[t.index()]).collect();
    let sink_id = g.tasks.len() as u32;
    let size = log_uniform(&mut rng, spec.min_size, spec.max_size);
    g.tasks.push(node(
        sink_id,
        format_args!("n{sink_id}"),
        KernelKind::Sink,
        size,
        leaves.len(),
        0,
    ));
    for (i, leaf) in leaves.iter().enumerate() {
        let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
        g.edges.push(Edge {
            from: *leaf,
            from_port: PortIndex(0),
            to: TaskId(sink_id),
            to_port: PortIndex(i as u16),
            data_size: bytes,
        });
    }
    debug_assert!(validate(&g).is_ok(), "generator must emit valid AFGs");
    g
}

/// Fork-join: one source fans out to `branches` chains of `depth` tasks,
/// joined by one sink. Problem sizes and edge bytes are uniform in the
/// spec's ranges.
pub fn fork_join(branches: usize, depth: usize, spec: &DagSpec, seed: u64) -> Afg {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Afg::new(format!("forkjoin-{branches}x{depth}-s{seed}"));
    let src_size = log_uniform(&mut rng, spec.min_size, spec.max_size);
    g.tasks.push(node(0, format_args!("src"), KernelKind::Source, src_size, 0, 1));
    let mut leaves = Vec::with_capacity(branches);
    for b in 0..branches {
        let mut prev = TaskId(0);
        for d in 0..depth {
            let id = g.tasks.len() as u32;
            let size = log_uniform(&mut rng, spec.min_size, spec.max_size);
            g.tasks.push(node(id, format_args!("b{b}d{d}"), KernelKind::Map, size, 1, 1));
            let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
            g.edges.push(Edge {
                from: prev,
                from_port: PortIndex(0),
                to: TaskId(id),
                to_port: PortIndex(0),
                data_size: bytes,
            });
            prev = TaskId(id);
        }
        leaves.push(prev);
    }
    let sink = g.tasks.len() as u32;
    let size = log_uniform(&mut rng, spec.min_size, spec.max_size);
    g.tasks.push(node(sink, format_args!("join"), KernelKind::Sink, size, branches, 0));
    for (i, leaf) in leaves.iter().enumerate() {
        let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
        g.edges.push(Edge {
            from: *leaf,
            from_port: PortIndex(0),
            to: TaskId(sink),
            to_port: PortIndex(i as u16),
            data_size: bytes,
        });
    }
    debug_assert!(validate(&g).is_ok());
    g
}

/// Gaussian-elimination task graph of matrix dimension `n` (the classic
/// scheduling benchmark): column steps `k` each produce a pivot task
/// feeding the `n−k−1` update tasks of the next step.
pub fn gauss_elim(n: usize, spec: &DagSpec, seed: u64) -> Afg {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Afg::new(format!("gauss-{n}-s{seed}"));
    // step k pivot: p_k; updates u_{k,j} for j in k+1..n.
    let mut prev_updates: Vec<TaskId> = Vec::new();
    for k in 0..n.saturating_sub(1) {
        let pid = g.tasks.len() as u32;
        let size = log_uniform(&mut rng, spec.min_size, spec.max_size);
        let entry = k == 0;
        let ins = if entry { 0 } else { 1 };
        g.tasks.push(node(
            pid,
            format_args!("p{k}"),
            if entry { KernelKind::Source } else { KernelKind::Map },
            size,
            ins,
            1,
        ));
        if let Some(&u) = prev_updates.first() {
            let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
            g.edges.push(Edge {
                from: u,
                from_port: PortIndex(0),
                to: TaskId(pid),
                to_port: PortIndex(0),
                data_size: bytes,
            });
        }
        let mut updates = Vec::new();
        for j in (k + 1)..n {
            let uid = g.tasks.len() as u32;
            let size = log_uniform(&mut rng, spec.min_size, spec.max_size);
            // Each update consumes the pivot (port 0) and, if present,
            // the same-column update of the previous step (port 1).
            let prev_u = prev_updates.get(j - k).copied();
            let ins = if prev_u.is_some() { 2 } else { 1 };
            g.tasks.push(node(uid, format_args!("u{k}_{j}"), KernelKind::Map, size, ins, 1));
            let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
            g.edges.push(Edge {
                from: TaskId(pid),
                from_port: PortIndex(0),
                to: TaskId(uid),
                to_port: PortIndex(0),
                data_size: bytes,
            });
            if let Some(pu) = prev_u {
                let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
                g.edges.push(Edge {
                    from: pu,
                    from_port: PortIndex(0),
                    to: TaskId(uid),
                    to_port: PortIndex(1),
                    data_size: bytes,
                });
            }
            updates.push(TaskId(uid));
        }
        prev_updates = {
            let mut v = vec![TaskId(pid)];
            v.extend(updates);
            v
        };
    }
    // Single sink consuming every remaining leaf.
    let leaves: Vec<TaskId> =
        g.task_ids().filter(|&t| !g.edges.iter().any(|e| e.from == t)).collect();
    let sink = g.tasks.len() as u32;
    let size = log_uniform(&mut rng, spec.min_size, spec.max_size);
    g.tasks.push(node(sink, format_args!("out"), KernelKind::Sink, size, leaves.len(), 0));
    for (i, leaf) in leaves.iter().enumerate() {
        let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
        g.edges.push(Edge {
            from: *leaf,
            from_port: PortIndex(0),
            to: TaskId(sink),
            to_port: PortIndex(i as u16),
            data_size: bytes,
        });
    }
    debug_assert!(validate(&g).is_ok());
    g
}

/// FFT butterfly task graph over `points` inputs (`points` must be a
/// power of two): log2(points) ranks of `points` tasks, each consuming
/// its two butterfly predecessors.
pub fn fft_butterfly(points: usize, spec: &DagSpec, seed: u64) -> Afg {
    assert!(points.is_power_of_two() && points >= 2, "points must be a power of two ≥ 2");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Afg::new(format!("fft-{points}-s{seed}"));
    let ranks = points.trailing_zeros() as usize;
    let mut prev: Vec<TaskId> = Vec::with_capacity(points);
    for i in 0..points {
        let size = log_uniform(&mut rng, spec.min_size, spec.max_size);
        g.tasks.push(node(i as u32, format_args!("in{i}"), KernelKind::Source, size, 0, 1));
        prev.push(TaskId(i as u32));
    }
    for r in 0..ranks {
        let stride = 1usize << r;
        let mut cur = Vec::with_capacity(points);
        for i in 0..points {
            let id = g.tasks.len() as u32;
            let size = log_uniform(&mut rng, spec.min_size, spec.max_size);
            let partner = i ^ stride;
            let ins = 2;
            let outs = if r + 1 == ranks { 0 } else { 1 };
            let kernel = if r + 1 == ranks { KernelKind::Sink } else { KernelKind::Map };
            g.tasks.push(node(id, format_args!("r{r}_{i}"), kernel, size, ins, outs));
            for (port, src) in [(0u16, prev[i]), (1u16, prev[partner])] {
                let bytes = log_uniform(&mut rng, spec.min_bytes, spec.max_bytes);
                g.edges.push(Edge {
                    from: src,
                    from_port: PortIndex(0),
                    to: TaskId(id),
                    to_port: PortIndex(port),
                    data_size: bytes,
                });
            }
            cur.push(TaskId(id));
        }
        prev = cur;
    }
    debug_assert!(validate(&g).is_ok());
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::validate;

    #[test]
    fn task_names_are_the_formatted_text_whatever_their_length() {
        assert_eq!(&*task_name(format_args!("n{}", 12_345)), "n12345");
        assert_eq!(&*task_name(format_args!("join")), "join");
        assert_eq!(&*task_name(format_args!("")), "");
        // Up to the stack buffer and past it (the fallback formats again).
        for len in [39, 40, 41, 200] {
            let long = "é".repeat(len / 2) + &"x".repeat(len % 2);
            assert_eq!(&*task_name(format_args!("{long}")), long);
            assert_eq!(&*task_name(format_args!("u{}_{long}", 7)), format!("u7_{long}"));
        }
    }

    #[test]
    fn layered_random_is_valid_and_sized() {
        for seed in 0..5 {
            let g = layered_random(&DagSpec::default(), seed);
            assert!(validate(&g).is_ok(), "seed {seed}");
            assert!(g.task_count() >= DagSpec::default().tasks);
            assert_eq!(g.exit_nodes().len(), 1, "single sink");
        }
    }

    #[test]
    fn layered_random_is_deterministic() {
        let a = layered_random(&DagSpec::default(), 42);
        let b = layered_random(&DagSpec::default(), 42);
        assert_eq!(a, b);
        let c = layered_random(&DagSpec::default(), 43);
        assert_ne!(a, c);
    }

    /// FNV-1a over everything `layered_random` decides: each task's kind,
    /// size and port counts, each edge's endpoints, ports and bytes.
    fn fingerprint(g: &Afg) -> u64 {
        let mut h = vdce_store::Fnv1a::new();
        for t in &g.tasks {
            h.update(t.library_task.as_bytes());
            h.update(&t.problem_size.to_le_bytes());
            h.update(&(t.props.inputs.len() as u32).to_le_bytes());
            h.update(&(t.props.outputs.len() as u32).to_le_bytes());
        }
        for e in &g.edges {
            h.update(&e.from.0.to_le_bytes());
            h.update(&e.from_port.0.to_le_bytes());
            h.update(&e.to.0.to_le_bytes());
            h.update(&e.to_port.0.to_le_bytes());
            h.update(&e.data_size.to_le_bytes());
        }
        h.finish()
    }

    /// Fingerprints recorded at `b239980`, before the leaf join and
    /// `all_earlier` became incremental: same RNG draws, same graph.
    #[test]
    fn layered_random_graphs_are_pinned() {
        let wide = DagSpec { tasks: 2000, width: 40, extra_edge_p: 0.5, ..DagSpec::default() };
        let tiny = DagSpec { tasks: 2, width: 1, ..DagSpec::default() };
        for (spec, seed, tasks, edges, want) in [
            (DagSpec::default(), 42u64, 50usize, 72usize, 0x181f_4421_274f_fdb1u64),
            (wide, 7, 2000, 3520, 0x0538_7862_9abc_7ded),
            (tiny, 0, 2, 1, 0xe19e_f853_5739_031c),
        ] {
            let g = layered_random(&spec, seed);
            assert_eq!((g.task_count(), g.edges.len()), (tasks, edges), "seed {seed}");
            assert_eq!(fingerprint(&g), want, "seed {seed}");
        }
    }

    #[test]
    fn layered_random_tiny_specs_work() {
        let spec = DagSpec { tasks: 2, width: 1, ..DagSpec::default() };
        let g = layered_random(&spec, 0);
        assert!(validate(&g).is_ok());
        assert!(g.task_count() >= 2);
    }

    #[test]
    fn fork_join_shape() {
        let g = fork_join(4, 3, &DagSpec::default(), 1);
        assert!(validate(&g).is_ok());
        assert_eq!(g.task_count(), 1 + 4 * 3 + 1);
        assert_eq!(g.entry_nodes().len(), 1);
        assert_eq!(g.exit_nodes().len(), 1);
        // The join has 4 inputs.
        let sink = g.exit_nodes()[0];
        assert_eq!(g.task(sink).in_ports(), 4);
    }

    #[test]
    fn gauss_elim_shape() {
        let g = gauss_elim(5, &DagSpec::default(), 2);
        assert!(validate(&g).is_ok());
        assert_eq!(g.entry_nodes().len(), 1, "first pivot is the only entry");
        assert_eq!(g.exit_nodes().len(), 1);
        // Depth grows with n: critical path at least n-1 pivots.
        let topo = g.topo_order().unwrap();
        assert!(topo.len() > 10);
    }

    #[test]
    fn fft_butterfly_shape() {
        let g = fft_butterfly(8, &DagSpec::default(), 3);
        assert!(validate(&g).is_ok());
        assert_eq!(g.entry_nodes().len(), 8);
        assert_eq!(g.exit_nodes().len(), 8);
        assert_eq!(g.task_count(), 8 + 3 * 8);
        // Every non-entry task has exactly two parents.
        for t in g.task_ids() {
            if !g.entry_nodes().contains(&t) {
                assert_eq!(g.in_edges(t).count(), 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        fft_butterfly(6, &DagSpec::default(), 0);
    }

    #[test]
    fn edge_bytes_respect_spec_range() {
        let spec = DagSpec { min_bytes: 500, max_bytes: 600, ..DagSpec::default() };
        let g = layered_random(&spec, 9);
        for e in &g.edges {
            assert!((500..=600).contains(&e.data_size), "bytes {}", e.data_size);
        }
    }

    #[test]
    fn problem_sizes_respect_spec_range() {
        let spec = DagSpec { min_size: 1000, max_size: 1100, ..DagSpec::default() };
        let g = fork_join(3, 2, &spec, 4);
        for t in &g.tasks {
            assert!((1000..=1100).contains(&t.problem_size));
        }
    }
}
