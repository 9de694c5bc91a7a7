//! Schedule evaluation: simulate an allocation table into start/finish
//! times and a makespan.
//!
//! The paper's scheduler minimises "the schedule length (total execution
//! time)" (§3) but, like most list schedulers of its generation, assigns
//! greedily without modelling host contention. This simulator provides
//! the ground truth the benchmarks compare on: given an AFG, an
//! allocation table and the network model, it derives each task's start
//! and finish time under
//!
//! - **precedence**: a task starts only after every input has arrived
//!   (parent finish + inter-site transfer time; transfers between tasks
//!   on the same host are free);
//! - **host exclusivity**: each host runs one task at a time, in the
//!   order tasks become ready (level-priority tie-break, matching the
//!   runtime's dispatch order);
//! - **duration**: the placement's predicted execution time.

use crate::allocation::{AllocationTable, TaskPlacement};
use crate::arena::LevelReady;
use crate::data_inputs::DatasetInputs;
use crate::site_scheduler::SchedError;
use std::fmt;
use std::sync::Arc;
use vdce_afg::level::LevelError;
use vdce_afg::{Afg, DatasetId, TaskId};
use vdce_data::DataView;
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_predict::cache::FxMap;

/// Timed placement of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedTask {
    /// The task.
    pub task: TaskId,
    /// Site it runs at.
    pub site: SiteId,
    /// Hosts it occupies — the placement's own list, shared, not copied.
    pub hosts: Arc<[String]>,
    /// Simulated start time (s).
    pub start: f64,
    /// Simulated finish time (s).
    pub finish: f64,
}

/// A fully timed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-task timings, indexed by [`TaskId`].
    pub tasks: Vec<TimedTask>,
    /// Latest finish time.
    pub makespan: f64,
}

impl Schedule {
    /// Schedule-length ratio: makespan normalised by the critical path
    /// (lower is better; 1.0 is optimal for compute-bound DAGs).
    pub fn slr(&self, critical_path: f64) -> f64 {
        if critical_path > 0.0 {
            self.makespan / critical_path
        } else {
            f64::INFINITY
        }
    }
}

/// Why evaluation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The table lacks a placement for a task.
    MissingPlacement(TaskId),
    /// The AFG has a cycle.
    Cyclic,
    /// A task reads a dataset missing from the supplied catalog view.
    UnknownDataset(TaskId, DatasetId),
    /// A task reads a dataset with no live replica.
    NoLiveReplica(TaskId, DatasetId),
    /// `levels` is not one priority per task of the AFG — most likely the
    /// levels of another graph.
    LevelsLength {
        /// Tasks in the AFG.
        expected: usize,
        /// Length of the `levels` slice passed.
        got: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingPlacement(t) => write!(f, "no placement for task {t}"),
            EvalError::Cyclic => write!(f, "application flow graph has a cycle"),
            EvalError::UnknownDataset(t, d) => {
                write!(f, "task {t} reads dataset {d} missing from the catalog view")
            }
            EvalError::NoLiveReplica(t, d) => {
                write!(f, "task {t} reads dataset {d} which has no live replica")
            }
            EvalError::LevelsLength { expected, got } => {
                write!(
                    f,
                    "levels has {got} entries for an application flow graph of {expected} tasks"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<LevelError> for EvalError {
    fn from(_: LevelError) -> Self {
        EvalError::Cyclic
    }
}

/// Simulate `table` for `afg` under `net`. `levels` orders contending
/// ready tasks (highest first) — pass the same levels the scheduler used.
/// With a dataset catalog view in `data`, tasks reading catalog datasets
/// additionally wait for the dataset to arrive from its replica. Replicas
/// pre-exist (available from `t = 0`), so a dataset read delays its
/// reader by exactly the transfer time from the serving site. The serving
/// site is the placement's recorded
/// [`data_sources`](crate::TaskPlacement::data_sources) entry when
/// present — replays charge the *same* replica the scheduler priced —
/// falling back to the cheapest live replica otherwise. `data: None`
/// resolves like an empty view: a dataset read is a typed
/// [`EvalError::UnknownDataset`].
///
/// One resolved pass, then one level-ordered walk. The table's rows are
/// looked up once per task of the AFG into a dense `Vec<&TaskPlacement>`;
/// site, duration, recorded data sources and the host list are read
/// through that borrow, and each [`TimedTask`] shares its placement's
/// `Arc<[String]>` — no host string is copied. Host names become dense
/// ids once per distinct host list (see `resolve_hosts`), host-free times
/// live in a flat `Vec<f64>` indexed by id. The ready order is "highest
/// level first, ties by ascending task id": the tasks are ranked once by
/// level, and the ready set is a bitset of ranks whose lowest member pops
/// next. A task the walk never reaches means the AFG has a cycle.
pub fn evaluate(
    afg: &Afg,
    table: &AllocationTable,
    net: &NetworkModel,
    levels: &[f64],
    data: Option<&DataView>,
) -> Result<Schedule, EvalError> {
    let n = afg.task_count();
    if levels.len() != n {
        return Err(EvalError::LevelsLength { expected: n, got: levels.len() });
    }
    let dsi = DatasetInputs::resolve(afg, data).map_err(|e| match e {
        SchedError::UnknownDataset { task, dataset } => EvalError::UnknownDataset(task, dataset),
        SchedError::NoFeasibleReplica { task, dataset } => EvalError::NoLiveReplica(task, dataset),
        // `resolve` reports dataset errors only. The placement-time
        // variants are named, not wildcarded, so a new `SchedError`
        // variant has to be placed here on purpose instead of silently
        // reading as "cyclic".
        SchedError::Cyclic
        | SchedError::NoFeasibleSite { .. }
        | SchedError::StorageCapacityExceeded { .. }
        | SchedError::SiteOrderMismatch { .. }
        | SchedError::InvalidLevels { .. } => {
            unreachable!("DatasetInputs::resolve reports dataset errors only, got: {e}")
        }
    })?;

    // Resolve the table once: one indexed pass, so the lowest task without
    // a row is the one reported (rows for tasks the AFG lacks are skipped).
    let mut placed: Vec<&TaskPlacement> = Vec::with_capacity(n);
    for t in afg.task_ids() {
        placed.push(table.placement(t).ok_or(EvalError::MissingPlacement(t))?);
    }
    let hosts = resolve_hosts(&placed);

    // Every timing starts out unset; the walk fills start and finish in
    // place, so a parent's site and finish time are read from here too.
    let mut tasks: Vec<TimedTask> = placed
        .iter()
        .map(|p| TimedTask {
            task: p.task,
            site: p.site,
            hosts: Arc::clone(&p.hosts),
            start: 0.0,
            finish: 0.0,
        })
        .collect();
    let mut host_free = vec![0.0f64; hosts.count];

    let edge_idx = afg.edge_index();
    let mut remaining = edge_idx.in_degrees();
    let mut ready = LevelReady::new(levels);
    for t in afg.task_ids().filter(|t| remaining[t.index()] == 0) {
        ready.push(t);
    }

    let mut timed = 0usize;
    while let Some(task) = ready.pop() {
        let my_hosts = hosts.of(task);
        let my_site = tasks[task.index()].site;
        let p = placed[task.index()];

        // Data-ready time: all inputs arrived.
        let mut data_ready = 0.0f64;
        for e in edge_idx.in_edges(afg, task) {
            let from = &tasks[e.from.index()];
            let same_host = hosts.of(e.from).iter().any(|h| my_hosts.contains(h));
            let xfer =
                if same_host { 0.0 } else { net.transfer_time(from.site, my_site, e.data_size) };
            data_ready = data_ready.max(from.finish + xfer);
        }
        // Dataset inputs: the replica exists at t = 0, so arrival is the
        // bare transfer from the serving site (recorded source first).
        for d in dsi.for_task(task) {
            let src =
                p.data_sources.iter().find(|s| s.dataset == d.id).map(|s| s.source).unwrap_or_else(
                    || {
                        vdce_predict::cheapest_source_seconds(net, my_site, d.sites, d.size)
                            .expect("resolve guarantees a live replica")
                            .0
                    },
                );
            data_ready = data_ready.max(net.transfer_time(src, my_site, d.size));
        }

        // Host availability: every assigned host must be free.
        let hosts_ready = my_hosts.iter().map(|&h| host_free[h as usize]).fold(0.0f64, f64::max);

        let start = data_ready.max(hosts_ready);
        let end = start + p.predicted_seconds.max(0.0);
        for &h in my_hosts {
            host_free[h as usize] = end;
        }
        let t = &mut tasks[task.index()];
        t.start = start;
        t.finish = end;
        timed += 1;

        for e in edge_idx.out_edges(afg, task) {
            debug_assert!(
                remaining[e.to.index()] > 0,
                "in-degree underflow: task {} readied twice",
                e.to
            );
            remaining[e.to.index()] -= 1;
            if remaining[e.to.index()] == 0 {
                ready.push(e.to);
            }
        }
    }
    // A task on or behind a cycle never reaches in-degree zero.
    if timed != n {
        return Err(EvalError::Cyclic);
    }

    let makespan = tasks.iter().map(|t| t.finish).fold(0.0, f64::max);
    Ok(Schedule { tasks, makespan })
}

/// [`evaluate`] with `data` passed on.
#[deprecated(note = "perf/ only; ROADMAP item 4 leaf 2 deletes it")]
pub fn evaluate_with_data(
    afg: &Afg,
    table: &AllocationTable,
    net: &NetworkModel,
    levels: &[f64],
    data: Option<&DataView>,
) -> Result<Schedule, EvalError> {
    evaluate(afg, table, net, levels, data)
}

/// Every placed task's hosts as dense ids: `ids[range_of_task]`.
struct ResolvedHosts {
    /// `(start, end)` into `ids`, indexed by task.
    ranges: Vec<(u32, u32)>,
    ids: Vec<u32>,
    /// Distinct host names seen — the length an id-indexed array needs.
    count: usize,
}

impl ResolvedHosts {
    fn of(&self, t: TaskId) -> &[u32] {
        let (a, b) = self.ranges[t.index()];
        &self.ids[a as usize..b as usize]
    }
}

/// Intern the host names of `placed` (task order) into dense ids, by
/// name, borrowing the names from the placements. A pointer memo in
/// front skips the string hashing: the scheduler hands every task that
/// picked a host the *same* `Arc<[String]>`, and all placements are alive
/// for the whole call, so an allocation seen before is the same host list
/// and reuses its id range. The converse is not assumed — distinct
/// allocations with equal names still meet in the name map and get equal
/// ids, which is all the `same_host` rule and host exclusivity compare.
/// Ids are assigned in first-seen task order, with or without the memo.
/// Both maps hash with the Fx hasher: their keys are pointers and host
/// names the scheduler made, and SipHash's fixed cost per probe was most
/// of the pass.
fn resolve_hosts(placed: &[&TaskPlacement]) -> ResolvedHosts {
    let mut by_name: FxMap<&str, u32> = FxMap::default();
    let mut by_list: FxMap<*const [String], (u32, u32)> = FxMap::default();
    let mut ranges = Vec::with_capacity(placed.len());
    let mut ids: Vec<u32> = Vec::new();
    for p in placed {
        let range = *by_list.entry(Arc::as_ptr(&p.hosts)).or_insert_with(|| {
            let start = ids.len() as u32;
            for h in p.hosts.iter() {
                let next = by_name.len() as u32;
                ids.push(*by_name.entry(h.as_str()).or_insert(next));
            }
            (start, ids.len() as u32)
        });
        ranges.push(range);
    }
    ResolvedHosts { ranges, ids, count: by_name.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::TaskPlacement;
    use vdce_afg::level::level_map;
    use vdce_afg::{AfgBuilder, TaskLibrary};
    use vdce_net::model::LinkParams;

    fn chain() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "s", 1000).unwrap();
        let m = b.add_task("Map", "m", 1000).unwrap();
        let k = b.add_task("Sink", "k", 1000).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    fn place(afg: &Afg, assign: &[(&str, u16, f64)]) -> AllocationTable {
        let mut t = AllocationTable::new(&afg.name);
        for (i, (host, site, secs)) in assign.iter().enumerate() {
            t.insert(TaskPlacement {
                task: TaskId(i as u32),
                task_name: afg.task(TaskId(i as u32)).name.clone(),
                site: SiteId(*site),
                hosts: vec![host.to_string()].into(),
                predicted_seconds: *secs,
                data_sources: vec![],
            });
        }
        t
    }

    fn unit_levels(afg: &Afg) -> Vec<f64> {
        level_map(afg, |_| 1.0).unwrap()
    }

    #[test]
    fn same_host_chain_is_sum_of_durations() {
        let afg = chain();
        let table = place(&afg, &[("h", 0, 1.0), ("h", 0, 2.0), ("h", 0, 3.0)]);
        let net = NetworkModel::with_defaults(1);
        let s = evaluate(&afg, &table, &net, &unit_levels(&afg), None).unwrap();
        assert!((s.makespan - 6.0).abs() < 1e-12, "no transfer cost on one host");
        assert_eq!(s.tasks[1].start, 1.0);
        assert_eq!(s.tasks[2].start, 3.0);
    }

    #[test]
    fn cross_site_chain_pays_transfers() {
        let afg = chain();
        let table = place(&afg, &[("a", 0, 1.0), ("b", 1, 1.0), ("c", 0, 1.0)]);
        let mut net = NetworkModel::with_defaults(2);
        net.set_link(SiteId(0), SiteId(1), LinkParams::new(0.5, 1e12));
        let s = evaluate(&afg, &table, &net, &unit_levels(&afg), None).unwrap();
        // 1 + 0.5 + 1 + 0.5 + 1 = 4 (bandwidth term negligible).
        assert!((s.makespan - 4.0).abs() < 1e-6, "got {}", s.makespan);
    }

    #[test]
    fn host_contention_serialises_parallel_branches() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("fork", &lib);
        let s = b.add_task("Source", "s", 10).unwrap();
        let l = b.add_task("Map", "l", 10).unwrap();
        let r = b.add_task("Map", "r", 10).unwrap();
        b.connect(s, 0, l, 0).unwrap();
        b.connect(s, 0, r, 0).unwrap();
        let afg = b.build().unwrap();
        let net = NetworkModel::with_defaults(1);
        let levels = unit_levels(&afg);

        // Both branches on one host: serialised.
        let one = place(&afg, &[("h", 0, 1.0), ("h", 0, 5.0), ("h", 0, 5.0)]);
        let s1 = evaluate(&afg, &one, &net, &levels, None).unwrap();
        assert!((s1.makespan - 11.0).abs() < 1e-12);

        // On two hosts: overlapped (plus intra-site transfer).
        let two = place(&afg, &[("h", 0, 1.0), ("h", 0, 5.0), ("g", 0, 5.0)]);
        let s2 = evaluate(&afg, &two, &net, &levels, None).unwrap();
        assert!(s2.makespan < s1.makespan);
    }

    #[test]
    fn higher_level_branch_runs_first_under_contention() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("fork", &lib);
        let s = b.add_task("Source", "s", 10).unwrap();
        let l = b.add_task("Map", "l", 10).unwrap();
        let r = b.add_task("Map", "r", 10).unwrap();
        b.connect(s, 0, l, 0).unwrap();
        b.connect(s, 0, r, 0).unwrap();
        let afg = b.build().unwrap();
        let net = NetworkModel::with_defaults(1);
        let table = place(&afg, &[("h", 0, 1.0), ("h", 0, 1.0), ("h", 0, 1.0)]);
        // Give r a higher level than l.
        let mut levels = unit_levels(&afg);
        levels[2] = 100.0;
        let sched = evaluate(&afg, &table, &net, &levels, None).unwrap();
        assert!(sched.tasks[2].start < sched.tasks[1].start);
    }

    #[test]
    fn missing_placement_is_an_error() {
        let afg = chain();
        let mut table = place(&afg, &[("h", 0, 1.0), ("h", 0, 1.0), ("h", 0, 1.0)]);
        table = {
            // Rebuild without task 2.
            let mut t2 = AllocationTable::new(&afg.name);
            for p in table.iter().filter(|p| p.task != TaskId(2)) {
                t2.insert(p.clone());
            }
            t2
        };
        let net = NetworkModel::with_defaults(1);
        assert_eq!(
            evaluate(&afg, &table, &net, &unit_levels(&afg), None),
            Err(EvalError::MissingPlacement(TaskId(2)))
        );
    }

    #[test]
    fn levels_of_another_graph_are_a_typed_error() {
        let afg = chain();
        let table = place(&afg, &[("h", 0, 1.0), ("h", 0, 1.0), ("h", 0, 1.0)]);
        let net = NetworkModel::with_defaults(1);
        for wrong in [vec![], vec![1.0; 2], vec![1.0; 4]] {
            let err = evaluate(&afg, &table, &net, &wrong, None).unwrap_err();
            assert_eq!(err, EvalError::LevelsLength { expected: 3, got: wrong.len() });
            assert!(err.to_string().contains(&format!("{} entries", wrong.len())), "{err}");
        }
        // Checked before the table is looked at.
        let empty = AllocationTable::new(&afg.name);
        assert_eq!(
            evaluate(&afg, &empty, &net, &[], None),
            Err(EvalError::LevelsLength { expected: 3, got: 0 })
        );
    }

    #[test]
    fn a_cycle_is_reported_after_a_missing_placement() {
        let mut afg = chain();
        let back = vdce_afg::Edge { from: TaskId(2), to: TaskId(1), ..afg.edges[0] };
        afg.edges.push(back);
        let table = place(&afg, &[("h", 0, 1.0), ("h", 0, 1.0), ("h", 0, 1.0)]);
        let net = NetworkModel::with_defaults(1);
        assert_eq!(evaluate(&afg, &table, &net, &[3.0, 2.0, 1.0], None), Err(EvalError::Cyclic));
        let partial = place(&afg, &[("h", 0, 1.0), ("h", 0, 1.0)]);
        assert_eq!(
            evaluate(&afg, &partial, &net, &[3.0, 2.0, 1.0], None),
            Err(EvalError::MissingPlacement(TaskId(2)))
        );
    }

    #[test]
    fn slr_and_utilisation() {
        let afg = chain();
        let table = place(&afg, &[("h", 0, 1.0), ("h", 0, 1.0), ("h", 0, 1.0)]);
        let net = NetworkModel::with_defaults(1);
        let s = evaluate(&afg, &table, &net, &unit_levels(&afg), None).unwrap();
        assert!((s.slr(3.0) - 1.0).abs() < 1e-12);
        assert!(s.slr(0.0).is_infinite());
    }

    #[test]
    fn dataset_arrival_delays_the_reader_and_replays_the_recorded_source() {
        use crate::allocation::DataSource;
        use vdce_afg::IoSpec;
        use vdce_data::DatasetSpec;

        // m reads dataset 5; replicas at both sites, run placed at site 0.
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("data", &lib);
        let m = b.add_task("Map", "m", 1000).unwrap();
        let k = b.add_task("Sink", "k", 1000).unwrap();
        b.set_input(m, 0, IoSpec::dataset(vdce_afg::DatasetId(5))).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        let afg = b.build().unwrap();

        let size = 10_000_000u64;
        let mut specs = std::collections::BTreeMap::new();
        specs.insert(
            vdce_afg::DatasetId(5),
            DatasetSpec { size, sites: vec![SiteId(0), SiteId(1)], home: Some(SiteId(0)) },
        );
        let view = DataView::from_specs(specs);
        let net = NetworkModel::with_defaults(2);
        let levels = unit_levels(&afg);

        let table_with = |src: u16| {
            let mut t = place(&afg, &[("h", 0, 1.0), ("h", 0, 1.0)]);
            let mut p = t.placement(TaskId(0)).unwrap().clone();
            p.data_sources =
                vec![DataSource { dataset: vdce_afg::DatasetId(5), source: SiteId(src) }];
            t.insert(p);
            t
        };

        // Without a catalog view a dataset AFG is refused outright.
        assert_eq!(
            evaluate(&afg, &table_with(0), &net, &levels, None),
            Err(EvalError::UnknownDataset(TaskId(0), vdce_afg::DatasetId(5)))
        );

        let local = evaluate(&afg, &table_with(0), &net, &levels, Some(&view)).unwrap();
        let remote = evaluate(&afg, &table_with(1), &net, &levels, Some(&view)).unwrap();
        let intra = net.transfer_time(SiteId(0), SiteId(0), size);
        let wan = net.transfer_time(SiteId(1), SiteId(0), size);
        assert!((local.tasks[0].start - intra).abs() < 1e-9);
        assert!((remote.tasks[0].start - wan).abs() < 1e-9);
        assert!(
            remote.makespan > local.makespan,
            "the recorded (worse) source must be charged on replay"
        );
    }

    #[test]
    fn multi_host_parallel_task_blocks_all_its_hosts() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("p", &lib);
        let s = b.add_task("Source", "s", 10).unwrap();
        let lu = b.add_task("LU_Decomposition", "lu", 64).unwrap();
        b.set_mode(lu, vdce_afg::ComputationMode::Parallel).unwrap();
        b.set_num_nodes(lu, 2).unwrap();
        let m = b.add_task("Map", "m", 10).unwrap();
        b.connect(s, 0, lu, 0).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        let afg = b.build().unwrap();

        let mut table = AllocationTable::new("p");
        table.insert(TaskPlacement {
            task: TaskId(0),
            task_name: "s".into(),
            site: SiteId(0),
            hosts: vec!["a".into()].into(),
            predicted_seconds: 1.0,
            data_sources: vec![],
        });
        table.insert(TaskPlacement {
            task: TaskId(1),
            task_name: "lu".into(),
            site: SiteId(0),
            hosts: vec!["a".into(), "b".into()].into(),
            predicted_seconds: 4.0,
            data_sources: vec![],
        });
        table.insert(TaskPlacement {
            task: TaskId(2),
            task_name: "m".into(),
            site: SiteId(0),
            hosts: vec!["b".into()].into(),
            predicted_seconds: 1.0,
            data_sources: vec![],
        });
        let net = NetworkModel::with_defaults(1);
        // Make LU (task 1) the higher-priority branch so it grabs b first.
        let levels = vec![10.0, 5.0, 1.0];
        let s = evaluate(&afg, &table, &net, &levels, None).unwrap();
        // m shares host b with the parallel LU → must wait for it.
        assert!(s.tasks[2].start >= s.tasks[1].finish);
    }
}
