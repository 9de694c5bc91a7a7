//! Baseline mappers the benchmarks compare VDCE against (experiments E2,
//! E5, E9).
//!
//! The paper claims its level-priority, prediction-driven, transfer-aware
//! scheduler minimises schedule length; these comparators test that claim:
//!
//! - [`random_schedule`] — uniform random feasible host per task;
//! - [`round_robin_schedule`] — cycle through the federation's hosts;
//! - [`local_only_schedule`] — best local host per task, never remote
//!   (what a user without VDCE's federation would get);
//! - [`min_min_schedule`] / [`max_min_schedule`] — the classic
//!   completion-time heuristics;
//! - [`heft_schedule`] — insertion-free HEFT (b-level priority, earliest
//!   finish time), the approach the first author later published
//!   (TPDS 2002), as the paper's "future work" ablation.
//!
//! Baselines place every task on a **single** host using the sequential
//! prediction; benchmark DAGs therefore use sequential tasks so the
//! comparison is apples-to-apples (parallel node selection is a VDCE
//! feature the baselines lack).
//!
//! All baselines see exactly the same candidate sets as VDCE host
//! selection (same eligibility filters) and are judged by the same
//! simulator, [`crate::makespan::evaluate`].

use crate::allocation::{AllocationTable, TaskPlacement};
use crate::arena::{HostArena, NO_HOST};
use crate::host_selection::eligible;
use crate::site_scheduler::SchedError;
use crate::view::SiteView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdce_afg::level::blevel_map;
use vdce_afg::{Afg, EdgeIndex, TaskId};
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_net::TransferCache;
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_repository::resources::ResourceRecord;

/// One feasible (site, host, predicted seconds) option for a task.
/// `host_id` is the host's dense [`HostArena`] id, so the placement
/// loops index flat arrays instead of hashing host names.
struct Option_<'a> {
    site: SiteId,
    host: &'a ResourceRecord,
    host_id: u32,
    predicted: f64,
}

/// Intern every host of `views` (view order, then the resource DB's
/// name order — both deterministic) so ids are stable across runs.
fn host_arena(views: &[&SiteView]) -> HostArena {
    let mut arena = HostArena::new();
    for v in views {
        for host in v.resources.iter() {
            arena.intern(&host.host_name);
        }
    }
    arena
}

/// Enumerate every feasible single-host option for `task` across `views`.
fn options<'a>(
    afg: &Afg,
    task: TaskId,
    views: &'a [&'a SiteView],
    predictor: &Predictor,
    cache: &PredictCache,
    arena: &HostArena,
) -> Vec<Option_<'a>> {
    let node = afg.task(task);
    let mut out = Vec::new();
    for v in views {
        for host in v.resources.iter() {
            if !eligible(v, afg, task, host) {
                continue;
            }
            if let Ok(t) =
                cache.predict(predictor, &v.tasks, &node.library_task, node.problem_size, host)
            {
                let host_id = arena.lookup(&host.host_name).expect("view hosts are interned");
                out.push(Option_ { site: v.site, host, host_id, predicted: t });
            }
        }
    }
    out
}

/// Option sets for every task.
///
/// A task's options depend only on the frozen views — never on previous
/// placements — so every baseline can enumerate them up front instead of
/// re-predicting inside its placement loop (min-min/max-min recomputed
/// them every round in the reference formulation).
fn all_options<'a>(
    afg: &Afg,
    views: &'a [&'a SiteView],
    predictor: &Predictor,
    cache: &PredictCache,
    arena: &HostArena,
) -> Vec<Vec<Option_<'a>>> {
    afg.task_ids().map(|t| options(afg, t, views, predictor, cache, arena)).collect()
}

fn placement(afg: &Afg, task: TaskId, opt: &Option_<'_>) -> TaskPlacement {
    TaskPlacement {
        task,
        task_name: afg.task(task).name.clone(),
        site: opt.site,
        hosts: [opt.host.host_name.clone()].into(),
        predicted_seconds: opt.predicted,
        data_sources: vec![],
    }
}

fn no_feasible(afg: &Afg, task: TaskId) -> SchedError {
    SchedError::NoFeasibleSite { task, name: afg.task(task).name.to_string() }
}

/// Uniform-random feasible placement (seeded).
///
/// Like every baseline here it predicts through a caller-supplied
/// [`PredictCache`], so a comparison harness can share one memo table
/// across every algorithm it runs (they all probe the same
/// (task, size, host) keys); a fresh cache gives the same table.
pub fn random_schedule(
    afg: &Afg,
    views: &[&SiteView],
    predictor: &Predictor,
    seed: u64,
    cache: &PredictCache,
) -> Result<AllocationTable, SchedError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = AllocationTable::new(afg.name.clone());
    let arena = host_arena(views);
    let all = all_options(afg, views, predictor, cache, &arena);
    for task in afg.task_ids() {
        let opts = &all[task.index()];
        if opts.is_empty() {
            return Err(no_feasible(afg, task));
        }
        let pick = &opts[rng.gen_range(0..opts.len())];
        table.insert(placement(afg, task, pick));
    }
    Ok(table)
}

/// Round-robin over the federation's hosts (name-ordered within site
/// order), skipping hosts infeasible for the task at hand.
pub fn round_robin_schedule(
    afg: &Afg,
    views: &[&SiteView],
    predictor: &Predictor,
    cache: &PredictCache,
) -> Result<AllocationTable, SchedError> {
    let mut table = AllocationTable::new(afg.name.clone());
    let mut cursor = 0usize;
    // Stable global host order: (view order, host name order).
    let mut slots: Vec<(usize, &str)> = Vec::new();
    for (vi, v) in views.iter().enumerate() {
        for h in v.resources.iter() {
            slots.push((vi, h.host_name.as_str()));
        }
    }
    if slots.is_empty() {
        if let Some(t) = afg.task_ids().next() {
            return Err(no_feasible(afg, t));
        }
        return Ok(table);
    }
    for task in afg.task_ids() {
        let node = afg.task(task);
        let mut placed = false;
        for probe in 0..slots.len() {
            let (vi, host_name) = slots[(cursor + probe) % slots.len()];
            let v = views[vi];
            let Some(host) = v.resources.get(host_name) else { continue };
            if !eligible(v, afg, task, host) {
                continue;
            }
            let Ok(t) =
                cache.predict(predictor, &v.tasks, &node.library_task, node.problem_size, host)
            else {
                continue;
            };
            // Round-robin never consults completion-time state, so the
            // sentinel host id is fine here.
            table.insert(placement(
                afg,
                task,
                &Option_ { site: v.site, host, host_id: NO_HOST, predicted: t },
            ));
            cursor = (cursor + probe + 1) % slots.len();
            placed = true;
            break;
        }
        if !placed {
            return Err(no_feasible(afg, task));
        }
    }
    Ok(table)
}

/// Greedy best-host placement restricted to the local site (federation
/// disabled) — the "what you'd get without VDCE's wide-area scheduling"
/// baseline.
pub fn local_only_schedule(
    afg: &Afg,
    local: &SiteView,
    predictor: &Predictor,
    cache: &PredictCache,
) -> Result<AllocationTable, SchedError> {
    let views = [local];
    let mut table = AllocationTable::new(afg.name.clone());
    let arena = host_arena(&views);
    let all = all_options(afg, &views, predictor, cache, &arena);
    for task in afg.task_ids() {
        let best = all[task.index()]
            .iter()
            .min_by(|a, b| a.predicted.total_cmp(&b.predicted))
            .ok_or_else(|| no_feasible(afg, task))?;
        table.insert(placement(afg, task, best));
    }
    Ok(table)
}

/// Where the tasks placed so far run and when they finish, indexed by
/// task id ([`NO_HOST`] = unplaced): the dense arrays the placement loops
/// read instead of hashing host names.
struct Placed {
    finish: Vec<f64>,
    site_of: Vec<Option<SiteId>>,
    host_of: Vec<u32>,
}

impl Placed {
    fn new(tasks: usize) -> Self {
        Placed {
            finish: vec![0.0; tasks],
            site_of: vec![None; tasks],
            host_of: vec![NO_HOST; tasks],
        }
    }

    /// When every input of `task` can be at `opt`: each parent's finish
    /// plus its transfer, none from the same host.
    fn data_ready(
        &self,
        afg: &Afg,
        idx: &EdgeIndex,
        net: &TransferCache,
        task: TaskId,
        opt: &Option_<'_>,
    ) -> f64 {
        let mut ready = 0.0f64;
        for e in idx.in_edges(afg, task) {
            let ps = self.site_of[e.from.index()].expect("parents placed first");
            let same_host = self.host_of[e.from.index()] == opt.host_id;
            let xfer = if same_host { 0.0 } else { net.transfer_time(ps, opt.site, e.data_size) };
            ready = ready.max(self.finish[e.from.index()] + xfer);
        }
        ready
    }

    fn place(&mut self, task: TaskId, opt: &Option_<'_>, finish: f64) {
        debug_assert_eq!(self.host_of[task.index()], NO_HOST, "task {task} placed twice");
        self.finish[task.index()] = finish;
        self.site_of[task.index()] = Some(opt.site);
        self.host_of[task.index()] = opt.host_id;
    }
}

/// Shared engine for the completion-time heuristics. `pick_max` selects
/// max-min instead of min-min.
fn completion_time_schedule(
    afg: &Afg,
    views: &[&SiteView],
    net: &NetworkModel,
    predictor: &Predictor,
    pick_max: bool,
    cache: &PredictCache,
) -> Result<AllocationTable, SchedError> {
    // Options are placement-independent: enumerate them once up front
    // instead of re-predicting for every ready task on every round.
    let arena = host_arena(views);
    let all = all_options(afg, views, predictor, cache, &arena);
    let xfer = TransferCache::new(net);
    let edge_idx = afg.edge_index();

    let mut table = AllocationTable::new(afg.name.clone());
    let mut placed = Placed::new(afg.task_count());
    let mut host_free: Vec<f64> = vec![0.0; arena.len()];

    let mut remaining = afg.in_degrees();
    let mut ready: Vec<TaskId> = afg.entry_nodes();

    while !ready.is_empty() {
        // For every ready task find its best option's completion time,
        // against this round's frozen placement state.
        let mut per_task: Vec<(usize, &Option_<'_>, f64)> = Vec::with_capacity(ready.len());
        for (ri, &task) in ready.iter().enumerate() {
            let mut best: Option<(&Option_<'_>, f64)> = None;
            for opt in &all[task.index()] {
                let ready = placed.data_ready(afg, &edge_idx, &xfer, task, opt);
                let ct = ready.max(host_free[opt.host_id as usize]) + opt.predicted;
                if best.as_ref().is_none_or(|(_, b)| ct < *b) {
                    best = Some((opt, ct));
                }
            }
            let (opt, ct) = best.ok_or_else(|| no_feasible(afg, task))?;
            per_task.push((ri, opt, ct));
        }
        // min-min: smallest best-CT first; max-min: largest best-CT first.
        let chosen = if pick_max {
            per_task.into_iter().max_by(|a, b| a.2.total_cmp(&b.2))
        } else {
            per_task.into_iter().min_by(|a, b| a.2.total_cmp(&b.2))
        }
        .expect("ready not empty");
        let (ri, opt, ct) = chosen;
        let task = ready.swap_remove(ri);

        placed.place(task, opt, ct);
        host_free[opt.host_id as usize] = ct;
        table.insert(placement(afg, task, opt));

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
    Ok(table)
}

/// Min-min completion-time heuristic.
pub fn min_min_schedule(
    afg: &Afg,
    views: &[&SiteView],
    net: &NetworkModel,
    predictor: &Predictor,
    cache: &PredictCache,
) -> Result<AllocationTable, SchedError> {
    completion_time_schedule(afg, views, net, predictor, false, cache)
}

/// Max-min completion-time heuristic.
pub fn max_min_schedule(
    afg: &Afg,
    views: &[&SiteView],
    net: &NetworkModel,
    predictor: &Predictor,
    cache: &PredictCache,
) -> Result<AllocationTable, SchedError> {
    completion_time_schedule(afg, views, net, predictor, true, cache)
}

/// HEFT (without insertion): rank tasks by *b-level* (computation + mean
/// communication along the path to an exit), then assign each task, in
/// rank order, to the host with the earliest finish time, starting it
/// after the host's last task.
pub fn heft_schedule(
    afg: &Afg,
    views: &[&SiteView],
    net: &NetworkModel,
    predictor: &Predictor,
    cache: &PredictCache,
) -> Result<AllocationTable, SchedError> {
    heft(afg, views, net, predictor, cache, false)
}

/// HEFT **with insertion**: like [`heft_schedule`] but a task may be
/// slotted into an earlier idle gap of a host when the gap fits its
/// execution time — the full algorithm of the authors' TPDS 2002 paper,
/// as a second-stage ablation over the no-insertion variant.
pub fn heft_insertion_schedule(
    afg: &Afg,
    views: &[&SiteView],
    net: &NetworkModel,
    predictor: &Predictor,
    cache: &PredictCache,
) -> Result<AllocationTable, SchedError> {
    heft(afg, views, net, predictor, cache, true)
}

/// The placement loop of both HEFT variants: each task, in rank order,
/// to the option finishing earliest, where a task starts on a host in
/// the first idle gap that fits it (`insertion`) or after the host's
/// last task.
fn heft(
    afg: &Afg,
    views: &[&SiteView],
    net: &NetworkModel,
    predictor: &Predictor,
    cache: &PredictCache,
    insertion: bool,
) -> Result<AllocationTable, SchedError> {
    let order = heft_order(afg, views, net)?;

    let arena = host_arena(views);
    let all = all_options(afg, views, predictor, cache, &arena);
    let xfer = TransferCache::new(net);
    let edge_idx = afg.edge_index();

    let mut table = AllocationTable::new(afg.name.clone());
    let mut placed = Placed::new(afg.task_count());
    // Busy intervals per host (arena id), kept sorted by start.
    let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); arena.len()];

    for task in order {
        let mut best: Option<(&Option_<'_>, f64, f64)> = None; // (opt, start, finish)
        for opt in &all[task.index()] {
            let ready = placed.data_ready(afg, &edge_idx, &xfer, task, opt);
            let dur = opt.predicted;
            let slots = &busy[opt.host_id as usize];
            let start = if insertion {
                // The earliest gap on the host that fits.
                let mut start = ready;
                for &(b0, b1) in slots {
                    if start + dur <= b0 {
                        break; // fits in the gap before this interval
                    }
                    start = start.max(b1);
                }
                start
            } else {
                ready.max(slots.last().map_or(0.0, |&(_, end)| end))
            };
            let eft = start + dur;
            if best.as_ref().is_none_or(|(_, _, bf)| eft < *bf) {
                best = Some((opt, start, eft));
            }
        }
        let (opt, start, eft) = best.ok_or_else(|| no_feasible(afg, task))?;
        placed.place(task, opt, eft);
        let slots = &mut busy[opt.host_id as usize];
        let pos = if insertion {
            slots.binary_search_by(|(s, _)| s.total_cmp(&start)).unwrap_or_else(|p| p)
        } else {
            slots.len()
        };
        slots.insert(pos, (start, eft));
        table.insert(placement(afg, task, opt));
    }
    Ok(table)
}

/// HEFT's task order, shared by both variants: descending *b-level*
/// (computation plus mean communication along the path to an exit),
/// repaired to be topological.
fn heft_order(
    afg: &Afg,
    views: &[&SiteView],
    net: &NetworkModel,
) -> Result<Vec<TaskId>, SchedError> {
    // Mean computation cost across all feasible hosts approximates the
    // host-independent cost HEFT ranks on; we reuse base times.
    let tasks_db = &views.first().ok_or_else(|| no_feasible(afg, TaskId(0)))?.tasks;
    // Mean link transfer rate for the rank's communication term.
    let sites = net.site_count();
    let mut mean_rate = 0.0;
    let mut pairs = 0usize;
    for a in 0..sites as u16 {
        for b in a..sites as u16 {
            mean_rate += 1.0 / net.link(SiteId(a), SiteId(b)).bandwidth_bps;
            pairs += 1;
        }
    }
    let per_byte = if pairs > 0 { mean_rate / pairs as f64 } else { 0.0 };

    let ranks = blevel_map(
        afg,
        |t| tasks_db.base_time(&t.library_task, t.problem_size).unwrap_or(0.0),
        |bytes| bytes as f64 * per_byte,
    )
    .map_err(|_| SchedError::Cyclic)?;

    // Rank order (descending b-level) is a valid topological order for
    // positive costs; guard against zero-cost ties by stable re-sorting a
    // topological order.
    let mut order = afg.topo_order().ok_or(SchedError::Cyclic)?;
    order.sort_by(|a, b| ranks[b.index()].total_cmp(&ranks[a.index()]));
    // Re-fix topological consistency (stable sort may reorder equal-rank
    // parent/child pairs): walk and push parents before children.
    Ok(topo_consistent(afg, order))
}

/// Restore topological consistency of a priority order (parents before
/// children) while keeping the priority order among independent tasks.
fn topo_consistent(afg: &Afg, priority: Vec<TaskId>) -> Vec<TaskId> {
    let n = afg.task_count();
    let mut pos = vec![0usize; n];
    for (i, t) in priority.iter().enumerate() {
        pos[t.index()] = i;
    }
    let idx = afg.edge_index();
    let mut remaining = afg.in_degrees();
    let mut ready: Vec<TaskId> = afg.entry_nodes();
    let mut out = Vec::with_capacity(n);
    while !ready.is_empty() {
        let (ri, _) =
            ready.iter().enumerate().min_by_key(|(_, t)| pos[t.index()]).expect("ready not empty");
        let t = ready.swap_remove(ri);
        out.push(t);
        for e in idx.out_edges(afg, t) {
            remaining[e.to.index()] -= 1;
            if remaining[e.to.index()] == 0 {
                ready.push(e.to);
            }
        }
    }
    out
}

/// Level-priority ordering variants for the E5 ablation: schedule with
/// the VDCE greedy site scheduler but a different priority function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityOrder {
    /// The paper's level priority.
    Level,
    /// First-in-first-out (task id order).
    Fifo,
    /// Seeded random order.
    Random(u64),
    /// Worst case: inverse level.
    ReverseLevel,
}

/// Produce per-task priorities under `order` (higher runs first).
pub fn priorities(afg: &Afg, order: PriorityOrder, views: &[&SiteView]) -> Vec<f64> {
    let n = afg.task_count();
    match order {
        PriorityOrder::Level => views[0].levels(afg).unwrap_or_else(|_| vec![0.0; n]),
        PriorityOrder::Fifo => (0..n).map(|i| (n - i) as f64).collect(),
        PriorityOrder::Random(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n).map(|_| rng.gen::<f64>()).collect()
        }
        PriorityOrder::ReverseLevel => views[0]
            .levels(afg)
            .map(|v| v.into_iter().map(|x| -x).collect())
            .unwrap_or_else(|_| vec![0.0; n]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::makespan::evaluate;
    use crate::site_scheduler::{site_schedule, SchedRequest, SchedulerConfig};
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_repository::resources::ResourceRecord;
    use vdce_repository::SiteRepository;

    fn site_view(site: u16, hosts: &[(&str, f64)]) -> SiteView {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for (name, speed) in hosts {
                db.upsert(ResourceRecord::new(
                    *name,
                    "10.0.0.1",
                    MachineType::LinuxPc,
                    *speed,
                    1,
                    1 << 30,
                    "g0",
                ));
            }
        });
        SiteView::capture(SiteId(site), &repo)
    }

    /// Two-layer fan DAG with heterogeneous work.
    fn fan_afg(width: usize) -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("fan", &lib);
        let src = b.add_task("Source", "src", 10_000).unwrap();
        for i in 0..width {
            let m = b.add_task("Sort", &format!("m{i}"), 200_000 + 50_000 * i as u64).unwrap();
            b.connect(src, 0, m, 0).unwrap();
        }
        b.build().unwrap()
    }

    fn setup() -> (Afg, SiteView, SiteView, NetworkModel, Predictor) {
        (
            fan_afg(6),
            site_view(0, &[("l0", 1.0), ("l1", 2.0)]),
            site_view(1, &[("r0", 3.0), ("r1", 1.5)]),
            NetworkModel::with_defaults(2),
            Predictor::default(),
        )
    }

    /// Diamond DAG: src fans out to two Sorts that join in a
    /// Matrix_Multiplication.
    fn diamond_afg() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("diamond", &lib);
        let src = b.add_task("Source", "src", 10_000).unwrap();
        let a = b.add_task("Sort", "a", 200_000).unwrap();
        let c = b.add_task("Sort", "c", 250_000).unwrap();
        let join = b.add_task("Matrix_Multiplication", "join", 300).unwrap();
        b.connect(src, 0, a, 0).unwrap();
        b.connect(src, 0, c, 0).unwrap();
        b.connect(a, 0, join, 0).unwrap();
        b.connect(c, 0, join, 1).unwrap();
        b.build().unwrap()
    }

    /// Regression for the duplicate ready-push hazard: a join task with
    /// several parents must become ready exactly once and be placed
    /// exactly once. The `debug_assert`s in the placement loops fire on
    /// a double push or double placement; the completeness check below
    /// catches a silently dropped or overwritten placement.
    #[test]
    fn diamond_join_is_placed_exactly_once() {
        let (_, local, remote, net, p) = setup();
        let c = PredictCache::new();
        let afg = diamond_afg();
        let views = [&local, &remote];
        for table in [
            min_min_schedule(&afg, &views, &net, &p, &c).unwrap(),
            max_min_schedule(&afg, &views, &net, &p, &c).unwrap(),
            heft_schedule(&afg, &views, &net, &p, &c).unwrap(),
            heft_insertion_schedule(&afg, &views, &net, &p, &c).unwrap(),
        ] {
            assert!(table.is_complete_for(&afg));
            assert_eq!(table.len(), afg.task_count());
        }
    }

    #[test]
    fn every_baseline_produces_a_complete_table() {
        let (afg, local, remote, net, p) = setup();
        let c = PredictCache::new();
        let views = [&local, &remote];
        for table in [
            random_schedule(&afg, &views, &p, 7, &c).unwrap(),
            round_robin_schedule(&afg, &views, &p, &c).unwrap(),
            local_only_schedule(&afg, &local, &p, &c).unwrap(),
            min_min_schedule(&afg, &views, &net, &p, &c).unwrap(),
            max_min_schedule(&afg, &views, &net, &p, &c).unwrap(),
            heft_schedule(&afg, &views, &net, &p, &c).unwrap(),
        ] {
            assert!(table.is_complete_for(&afg));
        }
    }

    #[test]
    fn local_only_never_uses_remote_sites() {
        let (afg, local, _remote, _net, p) = setup();
        let c = PredictCache::new();
        let table = local_only_schedule(&afg, &local, &p, &c).unwrap();
        assert_eq!(table.sites_used(), vec![SiteId(0)]);
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let (afg, local, remote, _net, p) = setup();
        let cache = PredictCache::new();
        let views = [&local, &remote];
        let a = random_schedule(&afg, &views, &p, 1, &cache).unwrap();
        let b = random_schedule(&afg, &views, &p, 1, &cache).unwrap();
        let c = random_schedule(&afg, &views, &p, 2, &cache).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn round_robin_spreads_across_hosts() {
        let (afg, local, remote, _net, p) = setup();
        let c = PredictCache::new();
        let views = [&local, &remote];
        let table = round_robin_schedule(&afg, &views, &p, &c).unwrap();
        assert!(table.hosts_used().len() >= 4, "RR must touch most hosts");
    }

    /// The simulated makespan of `table`.
    fn makespan(afg: &Afg, table: AllocationTable, net: &NetworkModel, levels: &[f64]) -> f64 {
        evaluate(afg, &table, net, levels, None).unwrap().makespan
    }

    #[test]
    fn min_min_beats_random_on_makespan() {
        let (afg, local, remote, net, p) = setup();
        let c = PredictCache::new();
        let views = [&local, &remote];
        let levels = priorities(&afg, PriorityOrder::Level, &views);
        let mm =
            makespan(&afg, min_min_schedule(&afg, &views, &net, &p, &c).unwrap(), &net, &levels);
        // Average a few random seeds.
        let mut rnd_sum = 0.0;
        for seed in 0..5 {
            let table = random_schedule(&afg, &views, &p, seed, &c).unwrap();
            rnd_sum += makespan(&afg, table, &net, &levels);
        }
        assert!(mm <= rnd_sum / 5.0 * 1.05, "min-min should not lose to random");
    }

    #[test]
    fn vdce_beats_local_only_with_fast_remote_site() {
        let (afg, local, remote, net, p) = setup();
        let c = PredictCache::new();
        let views = [&local, &remote];
        let levels = priorities(&afg, PriorityOrder::Level, &views);
        let (afg, local, net) = (&afg, &local, &net);
        let (remotes, config) = (std::slice::from_ref(&remote), &SchedulerConfig::default());
        let req = SchedRequest { afg, local, remotes, net, config, data: None, metrics: None };
        let vdce = makespan(afg, site_schedule(&req).unwrap(), net, &levels);
        let lo = makespan(afg, local_only_schedule(afg, local, &p, &c).unwrap(), net, &levels);
        assert!(vdce <= lo, "federation must not hurt: vdce {vdce} vs local {lo}");
    }

    #[test]
    fn heft_is_competitive_with_min_min() {
        let (afg, local, remote, net, p) = setup();
        let c = PredictCache::new();
        let views = [&local, &remote];
        let levels = priorities(&afg, PriorityOrder::Level, &views);
        let heft =
            makespan(&afg, heft_schedule(&afg, &views, &net, &p, &c).unwrap(), &net, &levels);
        let mm =
            makespan(&afg, min_min_schedule(&afg, &views, &net, &p, &c).unwrap(), &net, &levels);
        assert!(heft <= mm * 1.5);
    }

    #[test]
    fn heft_insertion_never_loses_to_no_insertion_here() {
        let (afg, local, remote, net, p) = setup();
        let c = PredictCache::new();
        let views = [&local, &remote];
        let levels = priorities(&afg, PriorityOrder::Level, &views);
        let plain =
            makespan(&afg, heft_schedule(&afg, &views, &net, &p, &c).unwrap(), &net, &levels);
        let ins = heft_insertion_schedule(&afg, &views, &net, &p, &c).unwrap();
        let ins = makespan(&afg, ins, &net, &levels);
        // Insertion can only move tasks earlier in its own cost model;
        // under the shared simulator allow a small tolerance.
        assert!(ins <= plain * 1.25, "insertion {ins} vs plain {plain}");
    }

    #[test]
    fn heft_insertion_produces_complete_tables() {
        let (afg, local, remote, net, p) = setup();
        let c = PredictCache::new();
        let views = [&local, &remote];
        let t = heft_insertion_schedule(&afg, &views, &net, &p, &c).unwrap();
        assert!(t.is_complete_for(&afg));
    }

    #[test]
    fn priorities_variants_differ() {
        let (afg, local, remote, _net, _p) = setup();
        let views = [&local, &remote];
        let level = priorities(&afg, PriorityOrder::Level, &views);
        let fifo = priorities(&afg, PriorityOrder::Fifo, &views);
        let rev = priorities(&afg, PriorityOrder::ReverseLevel, &views);
        assert_eq!(level.len(), afg.task_count());
        assert_ne!(level, fifo);
        for (l, r) in level.iter().zip(rev.iter()) {
            assert_eq!(*l, -r);
        }
        let r1 = priorities(&afg, PriorityOrder::Random(3), &views);
        let r2 = priorities(&afg, PriorityOrder::Random(3), &views);
        assert_eq!(r1, r2);
    }

    /// A single shared [`PredictCache`] across every algorithm must give
    /// the exact tables the per-algorithm private caches give — the memo
    /// is keyed on (task, size, host) only, never on placement state.
    #[test]
    fn shared_cache_reproduces_private_cache_tables() {
        let (afg, local, remote, net, p) = setup();
        let views = [&local, &remote];
        let shared = PredictCache::new();
        assert_eq!(
            random_schedule(&afg, &views, &p, 7, &PredictCache::new()).unwrap(),
            random_schedule(&afg, &views, &p, 7, &shared).unwrap()
        );
        assert_eq!(
            round_robin_schedule(&afg, &views, &p, &PredictCache::new()).unwrap(),
            round_robin_schedule(&afg, &views, &p, &shared).unwrap()
        );
        assert_eq!(
            local_only_schedule(&afg, &local, &p, &PredictCache::new()).unwrap(),
            local_only_schedule(&afg, &local, &p, &shared).unwrap()
        );
        assert_eq!(
            min_min_schedule(&afg, &views, &net, &p, &PredictCache::new()).unwrap(),
            min_min_schedule(&afg, &views, &net, &p, &shared).unwrap()
        );
        assert_eq!(
            max_min_schedule(&afg, &views, &net, &p, &PredictCache::new()).unwrap(),
            max_min_schedule(&afg, &views, &net, &p, &shared).unwrap()
        );
        assert_eq!(
            heft_schedule(&afg, &views, &net, &p, &PredictCache::new()).unwrap(),
            heft_schedule(&afg, &views, &net, &p, &shared).unwrap()
        );
        assert_eq!(
            heft_insertion_schedule(&afg, &views, &net, &p, &PredictCache::new()).unwrap(),
            heft_insertion_schedule(&afg, &views, &net, &p, &shared).unwrap()
        );
    }

    #[test]
    fn empty_views_error_cleanly() {
        let (afg, _, _, net, p) = setup();
        let c = PredictCache::new();
        let views: [&SiteView; 0] = [];
        assert!(round_robin_schedule(&afg, &views, &p, &c).is_err());
        assert!(min_min_schedule(&afg, &views, &net, &p, &c).is_err());
        assert!(heft_schedule(&afg, &views, &net, &p, &c).is_err());
    }

    #[test]
    fn topo_consistent_repairs_child_before_parent() {
        let (afg, ..) = setup();
        // Deliberately reversed order.
        let mut rev: Vec<TaskId> = afg.task_ids().collect();
        rev.reverse();
        let fixed = topo_consistent(&afg, rev);
        let pos: Vec<usize> = {
            let mut p = vec![0; afg.task_count()];
            for (i, t) in fixed.iter().enumerate() {
                p[t.index()] = i;
            }
            p
        };
        for e in &afg.edges {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }
}
