//! The Site Scheduler Algorithm (Figure 2).
//!
//! ```text
//! 1. Receive application flow graph from Application Editor.
//! 2. Select k nearest VDCE neighbour sites S_remote = {S1 … Sk} for S_local.
//! 3. Multicast application flow graph to each S_i in S_remote.
//! 4. Call Host-Selection-Algorithm (local and remote sites).
//! 5. Receive the outputs of Host-Selection from each S_i in S_remote.
//! 6. Initialise ready-tasks = {task_i | task_i is an entry node}.
//! 7. For each task_i in ready-tasks (highest level first):
//!      If task_i is an entry task or requires no input:
//!        · Assign task_i to S_j minimising Predict(task_i, R_j).
//!      Else:
//!        · Determine the site(s) S_parent assigned to parents of task_i.
//!        · For each S_j: Timetotal(task_i, S_j) =
//!              transfer_time(S_parent, S_j) × file_size
//!            + Predict(task_i, R_j)
//!        · Assign task_i to S_j minimising Timetotal(task_i, S_j).
//!      Store resource allocation information for task_i.
//!      Update ready-tasks: remove task_i, add its ready children.
//! ```
//!
//! This module is the *algorithm*; the multicast of steps 3–5 is executed
//! in-process here (each site's view is already available) and over the
//! inter-site message bus in [`federated_schedule`](crate::federated_schedule).

use crate::allocation::{AllocationTable, DataSource, TaskPlacement};
use crate::arena::LevelReady;
use crate::classes::TaskClasses;
use crate::data_inputs::{DatasetInputs, DsInput};
use crate::host_selection::{
    host_selection, select_by_class, HostSelectionOutput, SelectScratch, TaskHostChoice,
};
use crate::view::SiteView;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use vdce_afg::level::LevelError;
use vdce_afg::{Afg, DatasetId, TaskId};
use vdce_data::DataView;
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_net::TransferCache;
use vdce_obs::{MetricsRegistry, PROFILE_PREFIX};
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::ParallelModel;

/// Tunables of the site scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// How many nearest neighbour sites to involve (k in Figure 2).
    /// 0 = schedule on the local site only.
    pub k_neighbours: usize,
    /// Prediction model tunables.
    pub predictor: Predictor,
    /// Parallel-task model tunables.
    pub parallel: ParallelModel,
    /// Ablation knob: ignore the transfer-time term of Figure 2's
    /// `Timetotal` and place purely on `Predict(task, R)` (DESIGN.md §7,
    /// decision 4). The paper's algorithm has this `false`.
    pub ignore_transfer_time: bool,
    /// Run the uncached *reference* strategy: per-task
    /// [`host_selection`], no memoised predict/transfer caches, linear
    /// ready-list scan. `false` (the default) runs the classed strategy
    /// (class-batched host selection through one prediction memo per
    /// schedule, the tasks ranked once by level with the ready ones in a
    /// bitset), which is specified to produce a bit-identical
    /// [`AllocationTable`] (see DESIGN.md, "Reference vs classed
    /// strategy", and the scheduler oracle, `check_paths` in the crate's
    /// `tests/common`).
    pub sequential: bool,
    /// Recovery-aware placement (DESIGN.md §11): spread *critical-path*
    /// tasks (level ≥ 0.75 × max level) across distinct hosts when a
    /// near-optimal alternative exists. Among candidate sites whose
    /// `Timetotal` is within [`SpreadPolicy::tolerance`]× of the best,
    /// prefer one whose chosen hosts are disjoint from every previously
    /// placed critical task, so a single host crash cannot take out the
    /// whole critical path. The paper's algorithm has this `false`.
    pub spread_critical: bool,
    /// Cost tolerance of the spreading decision above; only consulted
    /// when `spread_critical` is on.
    pub spread: SpreadPolicy,
}

/// Tunables of recovery-aware critical-path spreading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadPolicy {
    /// A host-disjoint candidate is taken when its `Timetotal` is at most
    /// `tolerance ×` the unconstrained optimum. `1.0` accepts only
    /// equal-cost alternatives; the default `1.10` trades up to 10% of
    /// predicted completion time for crash isolation.
    pub tolerance: f64,
}

impl Default for SpreadPolicy {
    fn default() -> Self {
        SpreadPolicy { tolerance: 1.10 }
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            k_neighbours: 3,
            predictor: Predictor::default(),
            parallel: ParallelModel::default(),
            ignore_transfer_time: false,
            sequential: false,
            spread_critical: false,
            spread: SpreadPolicy::default(),
        }
    }
}

/// Host selection the way `config` asks for it — the one place the
/// strategy is chosen, shared by the in-process site scheduler and both
/// sides of the [`crate::federation`] protocol: `config.sequential` runs
/// the [`host_selection`] reference (which never touches `cache` or
/// `classes`), otherwise
/// [`host_selection_classed`](crate::host_selection_classed)'s body runs
/// over `classes`, the index of `afg`, memoises into `cache` and works in
/// `scratch`.
pub(crate) fn host_selection_for(
    view: &SiteView,
    afg: &Afg,
    classes: &mut TaskClasses,
    config: &SchedulerConfig,
    cache: &PredictCache,
    scratch: &mut SelectScratch,
) -> HostSelectionOutput {
    if config.sequential {
        host_selection(view, afg, &config.predictor, &config.parallel)
    } else {
        let (predictor, parallel) = (&config.predictor, &config.parallel);
        select_by_class(view, afg, classes, predictor, parallel, cache, scratch)
    }
}

/// Scheduling failures.
///
/// The dataset variants are typed so admission layers (the streaming
/// broker) can label rejections precisely instead of collapsing every
/// failure into "no feasible placement".
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The AFG has a cycle (level computation failed).
    Cyclic,
    /// No involved site can run this task at all.
    NoFeasibleSite {
        /// The unplaceable task.
        task: TaskId,
        /// Its instance name.
        name: String,
    },
    /// A task reads a dataset the supplied catalog view does not know
    /// (including the case of scheduling a dataset-reading AFG through a
    /// legacy entry point that provides no view at all).
    UnknownDataset {
        /// The reading task.
        task: TaskId,
        /// The unknown dataset.
        dataset: DatasetId,
    },
    /// A task reads a dataset that is known but has no live replica.
    NoFeasibleReplica {
        /// The reading task.
        task: TaskId,
        /// The replica-less dataset.
        dataset: DatasetId,
    },
    /// Admitting a dataset output would overflow a site's storage.
    StorageCapacityExceeded {
        /// The site whose storage would overflow.
        site: SiteId,
        /// The dataset being materialised.
        dataset: DatasetId,
        /// Bytes the dataset needs.
        needed: u64,
        /// Bytes the site has left.
        capacity: u64,
    },
    /// [`IncrementalSchedule::apply`](crate::IncrementalSchedule::apply)
    /// was handed outputs for other sites, or the same sites in another
    /// order, than the schedule was built from. Nothing was applied.
    SiteOrderMismatch {
        /// The sites of construction, in order.
        expected: Vec<SiteId>,
        /// The sites of the refused outputs, in order.
        got: Vec<SiteId>,
    },
    /// The `levels` handed to the walk are not one finite, non-negative
    /// priority per task of the AFG — most likely the levels of another
    /// graph, or computed from a NaN cost. Nothing was placed.
    InvalidLevels {
        /// Tasks in the AFG.
        tasks: usize,
        /// Length of the `levels` slice passed.
        levels: usize,
        /// The lowest task whose level is NaN, infinite or negative, when
        /// the length is right.
        bad: Option<TaskId>,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Cyclic => write!(f, "application flow graph has a cycle"),
            SchedError::NoFeasibleSite { task, name } => {
                write!(f, "no site can run task {task} (`{name}`)")
            }
            SchedError::UnknownDataset { task, dataset } => {
                write!(f, "task {task} reads dataset {dataset} which is not in the catalog view")
            }
            SchedError::NoFeasibleReplica { task, dataset } => {
                write!(f, "task {task} reads dataset {dataset} which has no live replica")
            }
            SchedError::StorageCapacityExceeded { site, dataset, needed, capacity } => {
                write!(
                    f,
                    "dataset {dataset} needs {needed} bytes on site {site} \
                     but only {capacity} remain"
                )
            }
            SchedError::SiteOrderMismatch { expected, got } => {
                write!(f, "outputs cover sites {got:?}, the schedule was built from {expected:?}")
            }
            SchedError::InvalidLevels { bad: Some(task), .. } => {
                write!(f, "the level of task {task} is not a finite, non-negative number")
            }
            SchedError::InvalidLevels { tasks, levels, bad: None } => {
                write!(
                    f,
                    "levels has {levels} entries for an application flow graph of {tasks} tasks"
                )
            }
        }
    }
}

impl std::error::Error for SchedError {}

impl From<LevelError> for SchedError {
    fn from(_: LevelError) -> Self {
        SchedError::Cyclic
    }
}

/// Run the site-scheduler algorithm.
///
/// `remotes` are the views of *all* reachable remote sites; step 2 picks
/// the `config.k_neighbours` nearest ones according to `net`. The local
/// site always participates.
pub fn site_schedule(
    afg: &Afg,
    local: &SiteView,
    remotes: &[SiteView],
    net: &NetworkModel,
    config: &SchedulerConfig,
) -> Result<AllocationTable, SchedError> {
    site_schedule_with_data(afg, local, remotes, net, config, None)
}

/// Data-aware [`site_schedule`]: tasks whose inputs name catalog
/// datasets ([`vdce_afg::IoSpec::Dataset`]) are charged
/// `min` over live replicas of the transfer from each replica site, on
/// top of Figure 2's parent-site dataflow term, and the chosen replica
/// is recorded in the placement's
/// [`data_sources`](crate::TaskPlacement::data_sources). `data: None`
/// resolves like an empty view: any dataset reference is a typed
/// [`SchedError::UnknownDataset`] — dataset reads are never silently
/// free.
pub fn site_schedule_with_data(
    afg: &Afg,
    local: &SiteView,
    remotes: &[SiteView],
    net: &NetworkModel,
    config: &SchedulerConfig,
    data: Option<&DataView>,
) -> Result<AllocationTable, SchedError> {
    schedule_pipeline(afg, local, remotes, net, config, data, None)
}

/// Figure 2 end to end — the one body behind [`site_schedule`],
/// [`site_schedule_with_data`] and [`site_schedule_observed`]. `metrics`
/// only adds exports; the table is the same either way.
fn schedule_pipeline(
    afg: &Afg,
    local: &SiteView,
    remotes: &[SiteView],
    net: &NetworkModel,
    config: &SchedulerConfig,
    data: Option<&DataView>,
    metrics: Option<&MetricsRegistry>,
) -> Result<AllocationTable, SchedError> {
    // The AFG's task classes, indexed once for the level pass and every
    // involved site's host selection.
    let mut classes = TaskClasses::new(afg);
    // Priorities: level of each node on base-processor execution times
    // (task-performance DB of the local site).
    let levels = classes.levels(local, afg)?;

    // Step 2: k nearest neighbour sites that actually sent views.
    let neighbours = net.nearest_neighbours(local.site, config.k_neighbours);
    let mut involved: Vec<&SiteView> = vec![local];
    for n in neighbours {
        if let Some(v) = remotes.iter().find(|v| v.site == n) {
            involved.push(v);
        }
    }

    // Steps 3–5: host selection at every involved site, each against
    // its own frozen view. One predict cache and one scratch serve every
    // site (host names are federation-unique).
    let (cache, mut scratch) = (PredictCache::new(), SelectScratch::default());
    let outputs: Vec<HostSelectionOutput> = (involved.iter())
        .map(|v| host_selection_for(v, afg, &mut classes, config, &cache, &mut scratch))
        .collect();

    if let Some(m) = metrics {
        m.counter_add("sched.sites_involved", involved.len() as u64);
        let (hits, misses) = (cache.hits(), cache.misses());
        m.counter_add("sched.predict_cache.entries", cache.len() as u64);
        m.counter_add("sched.predict_cache.lookups", hits + misses);
        // Always 0 (a memo never evicts); exported so recorded metric
        // snapshots keep their name set.
        m.counter_add("sched.predict_cache.evictions", cache.evictions());
        m.gauge_set(&format!("{PROFILE_PREFIX}sched.predict_cache.hits"), hits as f64);
        m.gauge_set(&format!("{PROFILE_PREFIX}sched.predict_cache.misses"), misses as f64);
        let rate = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };
        m.gauge_set(&format!("{PROFILE_PREFIX}sched.predict_cache.hit_rate"), rate);
    }

    let table = schedule_walk(
        afg,
        &levels,
        local.site,
        &outputs,
        net,
        config.ignore_transfer_time,
        config.sequential,
        config.spread_critical.then_some(config.spread),
        data,
        metrics,
    )?;
    if let Some(m) = metrics {
        m.counter_add("sched.tasks_placed", table.len() as u64);
    }
    Ok(table)
}

/// Admission-time storage check for dataset *outputs*: every placement
/// that would materialise a catalog-known dataset output at its chosen
/// site must fit in the bytes the view says are free there
/// ([`DataView::free_at`]; sites absent from the free map are
/// uncapped). Outputs the view does not know are skipped — their size
/// is unknown until registration — and a site already holding a live
/// replica is charged nothing. Charges accumulate in task-id order, so
/// the verdict is a deterministic function of the table and the view.
pub fn validate_dataset_outputs(
    afg: &Afg,
    table: &AllocationTable,
    view: &DataView,
) -> Result<(), SchedError> {
    let mut charged: BTreeMap<SiteId, u64> = BTreeMap::new();
    for p in table.iter() {
        let Some(task) = afg.get_task(p.task) else { continue };
        for spec in &task.props.outputs {
            let Some(id) = spec.dataset_id() else { continue };
            let Some(ds) = view.get(id) else { continue };
            if ds.sites.contains(&p.site) {
                continue;
            }
            let Some(free) = view.free_at(p.site) else { continue };
            let already = charged.get(&p.site).copied().unwrap_or(0);
            let want = already.saturating_add(ds.size);
            if want > free {
                return Err(SchedError::StorageCapacityExceeded {
                    site: p.site,
                    dataset: id,
                    needed: ds.size,
                    capacity: free.saturating_sub(already),
                });
            }
            charged.insert(p.site, want);
        }
    }
    Ok(())
}

/// [`site_schedule`] with observability: identical algorithm and a
/// bit-identical [`AllocationTable`], plus metrics exported into
/// `metrics`.
///
/// Exported metric names:
///
/// - `sched.sites_involved`, `sched.tasks_placed` — counters, pure
///   functions of the inputs.
/// - `sched.predict_cache.entries` / `sched.predict_cache.lookups` —
///   deterministic cache statistics: distinct `(library task, host)`
///   prediction terms memoised, and term lookups (one per eligibility
///   group and candidate host, see
///   [`host_selection_classed`](crate::host_selection_classed)). Host
///   names are unique across the federation, so one [`PredictCache`] is
///   shared across every involved site's host selection without
///   changing any prediction.
/// - `sched.transfer_cache.lookups` — transfer-time consultations in
///   the DAG walk (deterministic: the walk is sequential).
/// - `profile.sched.predict_cache.hits` / `.misses` / `.hit_rate` —
///   the raw hit/miss split of those term lookups, kept in the
///   [`PROFILE_PREFIX`] namespace, which
///   [`MetricsRegistry::snapshot_deterministic`] excludes, so recorded
///   deterministic snapshots keep their name set.
pub fn site_schedule_observed(
    afg: &Afg,
    local: &SiteView,
    remotes: &[SiteView],
    net: &NetworkModel,
    config: &SchedulerConfig,
    metrics: &MetricsRegistry,
) -> Result<AllocationTable, SchedError> {
    schedule_pipeline(afg, local, remotes, net, config, None, Some(metrics))
}

/// Steps 6–7 of Figure 2, given the collected host-selection outputs.
/// Shared by the in-process scheduler above and the bus-based federation
/// protocol. Takes every option: the transfer-term
/// ablation, the sequential-reference switch, recovery-aware
/// critical-path spreading, and a dataset catalog view (see
/// [`site_schedule_with_data`] for the cost model). Both the sequential
/// and the optimised scheduler path funnel through the same walk, so the
/// spreading decision is bit-identical across the two.
#[allow(clippy::too_many_arguments)]
pub fn schedule_with_outputs_data(
    afg: &Afg,
    levels: &[f64],
    local_site: SiteId,
    outputs: &[HostSelectionOutput],
    net: &NetworkModel,
    ignore_transfer_time: bool,
    sequential: bool,
    spread: Option<SpreadPolicy>,
    data: Option<&DataView>,
) -> Result<AllocationTable, SchedError> {
    schedule_walk(
        afg,
        levels,
        local_site,
        outputs,
        net,
        ignore_transfer_time,
        sequential,
        spread,
        data,
        None,
    )
}

/// The ready set of step 6, in both implementations, as `sequential`
/// picks: the reference linear-scan `Vec` (`O(n)` per pick, as the seed
/// implementation did it) and a [`LevelReady`], the tasks ranked once by
/// level with the ready ranks in a bitset. Both yield tasks
/// highest-level-first with ties by ascending id; the property tests
/// compare the resulting tables for equality.
enum ReadyList {
    Scan(Vec<TaskId>),
    Ranked(LevelReady),
}

impl ReadyList {
    fn new(sequential: bool, levels: &[f64]) -> Self {
        if sequential {
            ReadyList::Scan(Vec::new())
        } else {
            ReadyList::Ranked(LevelReady::new(levels))
        }
    }

    fn push(&mut self, task: TaskId) {
        match self {
            ReadyList::Scan(v) => v.push(task),
            ReadyList::Ranked(r) => r.push(task),
        }
    }

    fn pop(&mut self, levels: &[f64]) -> Option<TaskId> {
        match self {
            ReadyList::Scan(v) => {
                // Highest level first; ties by ascending id.
                let (pos, _) = v.iter().enumerate().max_by(|(_, a), (_, b)| {
                    levels[a.index()].total_cmp(&levels[b.index()]).then(b.cmp(a))
                })?;
                Some(v.swap_remove(pos))
            }
            ReadyList::Ranked(r) => r.pop(),
        }
    }
}

/// The levels are the caller's ([`schedule_with_outputs_data`] is public):
/// the ready list indexes them by task and orders by them, so a slice of
/// the wrong length or a NaN, infinite or negative level is refused before
/// the walk starts.
fn check_levels(afg: &Afg, levels: &[f64]) -> Result<(), SchedError> {
    let tasks = afg.task_count();
    let invalid = |bad| SchedError::InvalidLevels { tasks, levels: levels.len(), bad };
    if levels.len() != tasks {
        return Err(invalid(None));
    }
    match levels.iter().position(|l| !(l.is_finite() && *l >= 0.0)) {
        Some(i) => Err(invalid(Some(TaskId(i as u32)))),
        None => Ok(()),
    }
}

/// The DAG walk of steps 6–7, optionally metered. With `metrics` set it
/// additionally counts `sched.transfer_cache.lookups` — the walk itself
/// is sequential, so the count is a pure function of the inputs. The
/// [`TransferCache`] stays a plain data snapshot (it must remain
/// `Clone + PartialEq` for the federation protocol), so the counting
/// happens here at the consultation site rather than inside the cache.
///
/// The walk records only which output won each task. The table's rows
/// are written after it, in one pass in task-id order: cloning a row's
/// name and hosts bumps two reference counts, and a locked increment
/// inside the level-ordered loop would stall each of its scattered cache
/// misses behind the one before.
#[allow(clippy::too_many_arguments)]
fn schedule_walk(
    afg: &Afg,
    levels: &[f64],
    local_site: SiteId,
    outputs: &[HostSelectionOutput],
    net: &NetworkModel,
    ignore_transfer_time: bool,
    sequential: bool,
    spread: Option<SpreadPolicy>,
    data: Option<&DataView>,
    metrics: Option<&MetricsRegistry>,
) -> Result<AllocationTable, SchedError> {
    check_levels(afg, levels)?;
    // Freeze the catalog view into per-task dataset inputs up front:
    // typed errors surface before any placement, and every task decides
    // against the same snapshot (the incremental order-independence
    // contract).
    let dsi = DatasetInputs::resolve(afg, data)?;
    let mut xfer_lookups = 0u64;
    // The index into `outputs` of each task's winning site; a parent's
    // site is read through it.
    let mut won: Vec<u32> = vec![u32::MAX; afg.task_count()];

    // Critical-path spreading (DESIGN.md §11): a task is *critical* when
    // its level is within the top quarter of the level range; the hosts
    // already serving critical tasks accumulate here (borrowed from the
    // outputs — the walk never owns host strings).
    let max_level = levels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let critical_floor = 0.75 * max_level;
    let mut critical_hosts: HashSet<&str> = HashSet::new();

    // Optimised path: snapshot the link matrix once; `transfer_time` on
    // the snapshot is bit-identical to the model's.
    let xfer_cache = if sequential { None } else { Some(TransferCache::new(net)) };
    let mut xfer_time = |from: SiteId, to: SiteId, bytes: u64| {
        xfer_lookups += 1;
        match &xfer_cache {
            Some(c) => c.transfer_time(from, to, bytes),
            None => net.transfer_time(from, to, bytes),
        }
    };

    // Adjacency index: the walk below touches every task's in- and
    // out-edges once; through the scanning accessors that is `O(n·e)`.
    let edge_idx = afg.edge_index();

    // Step 6: ready set = entry nodes.
    let mut remaining_parents = afg.in_degrees();
    let mut ready = ReadyList::new(sequential, levels);
    for t in afg.task_ids().filter(|t| remaining_parents[t.index()] == 0) {
        ready.push(t);
    }

    // (parent site, bytes) per in-edge of the current task, in edge
    // order — resolved once per task instead of once per candidate site.
    let mut parents: Vec<(SiteId, u64)> = Vec::new();

    while let Some(task) = ready.pop(levels) {
        parents.clear();
        if !ignore_transfer_time {
            for e in edge_idx.in_edges(afg, task) {
                // Parents are decided before children in a DAG walk.
                parents.push((outputs[won[e.from.index()] as usize].site, e.data_size));
            }
        }

        let is_critical = spread.is_some() && levels[task.index()] >= critical_floor - 1e-12;

        // Dataset inputs of this task. Under the transfer ablation the
        // replica term is excluded from the cost (like the parent term),
        // but the chosen source is still recorded for replay.
        let ds_cost: &[DsInput<'_>] = if ignore_transfer_time { &[] } else { dsi.for_task(task) };

        let best = choose_site_for_task(
            task,
            outputs,
            &parents,
            ds_cost,
            local_site,
            &mut xfer_time,
            if is_critical { spread.as_ref().map(|p| (p, &critical_hosts)) } else { None },
        );

        let (winner, choice) = best.ok_or_else(|| SchedError::NoFeasibleSite {
            task,
            name: afg.task(task).name.to_string(),
        })?;
        if is_critical {
            critical_hosts.extend(choice.hosts.iter().map(String::as_str));
        }
        won[task.index()] = winner as u32;

        // Update the ready set with children whose parents are all placed.
        for e in edge_idx.out_edges(afg, task) {
            remaining_parents[e.to.index()] -= 1;
            if remaining_parents[e.to.index()] == 0 {
                ready.push(e.to);
            }
        }
    }

    // One row per decided task, in task-id order.
    let mut table = AllocationTable::with_capacity(afg.name.clone(), afg.task_count());
    for (node, &w) in afg.tasks.iter().zip(&won).filter(|(_, &w)| w != u32::MAX) {
        let out = &outputs[w as usize];
        let choice = out.choice(node.id).expect("the walk decided the task on this choice");
        table.insert(TaskPlacement {
            task: node.id,
            task_name: node.name.clone(),
            site: out.site,
            hosts: choice.hosts.clone(),
            predicted_seconds: choice.predicted_seconds,
            data_sources: dataset_sources_for_site(dsi.for_task(node.id), out.site, &mut xfer_time),
        });
    }

    debug_assert_eq!(table.len(), afg.task_count(), "DAG walk must reach every task");
    if let Some(m) = metrics {
        m.counter_add("sched.transfer_cache.lookups", xfer_lookups);
    }
    Ok(table)
}

/// The argmin of step 7 for one task: probe every involved site's choice
/// table, add the parents' transfer times via
/// `xfer_time`, and pick the minimum `Timetotal` with the
/// local-first/ascending-site-id tie-break. With `spread` set it
/// additionally tracks the best candidate whose hosts are disjoint from
/// the accumulated critical hosts and takes it when within tolerance.
/// Answers the winning output's index in `outputs` and its choice.
///
/// Shared between the full DAG walk above and the O(changed) re-placement
/// in [`crate::incremental`] — sharing the decision function is what
/// makes the incremental path bit-identical per task.
pub(crate) fn choose_site_for_task<'a>(
    task: TaskId,
    outputs: &'a [HostSelectionOutput],
    parents: &[(SiteId, u64)],
    datasets: &[DsInput<'_>],
    local_site: SiteId,
    xfer_time: &mut dyn FnMut(SiteId, SiteId, u64) -> f64,
    spread: Option<(&SpreadPolicy, &HashSet<&str>)>,
) -> Option<(usize, &'a TaskHostChoice)> {
    // `best` is Figure 2's argmin, as (index into `outputs`, site,
    // choice, Timetotal); `best_spread` additionally requires the chosen
    // hosts to be disjoint from every previously placed critical task's
    // hosts.
    type Candidate<'c> = Option<(usize, SiteId, &'c TaskHostChoice, f64)>;
    let mut best: Candidate<'a> = None;
    let mut best_spread: Candidate<'a> = None;
    for (i, out) in outputs.iter().enumerate() {
        let Some(choice) = out.choice(task) else { continue };
        let site = out.site;
        // Σ over in-edges of transfer from the parent's site (empty for
        // entry tasks and under the ablation: pure Predict).
        let mut xfer = 0.0;
        for &(parent_site, bytes) in parents {
            xfer += xfer_time(parent_site, site, bytes);
        }
        // Plus, per dataset input, the *cheapest* live replica's
        // transfer — the data-aware extension of Timetotal.
        for d in datasets {
            xfer += cheapest_ds_source(d, site, xfer_time).1;
        }
        let total = xfer + choice.predicted_seconds;
        let better = |prev: &Candidate<'a>| match prev {
            None => true,
            Some((_, bsite, _, btotal)) => {
                total < btotal - 1e-15
                    || ((total - btotal).abs() <= 1e-15
                        && site_rank(site, local_site) < site_rank(*bsite, local_site))
            }
        };
        if better(&best) {
            best = Some((i, site, choice, total));
        }
        if let Some((_, critical_hosts)) = spread {
            if choice.hosts.iter().all(|h| !critical_hosts.contains(h.as_str()))
                && better(&best_spread)
            {
                best_spread = Some((i, site, choice, total));
            }
        }
    }
    // Recovery-aware preference: take the host-disjoint candidate when
    // it costs at most `policy.tolerance ×` the unconstrained optimum.
    if let (Some((.., btotal)), Some(cand), Some((policy, _))) = (&best, &best_spread, &spread) {
        if cand.3 <= btotal * policy.tolerance + 1e-15 {
            best = Some(*cand);
        }
    }
    best.map(|(i, _, choice, _)| (i, choice))
}

/// Cheapest replica source of one dataset input for a read at `to`:
/// strict `<` minimum over the replica sites, ties to the first listed
/// (replica sites are kept ascending, so ties resolve to the lowest
/// site id). Replica lists are non-empty by construction
/// ([`DatasetInputs::resolve`] rejects empty ones), so this always
/// answers. Shared between the cost term in [`choose_site_for_task`]
/// and the recording in [`dataset_sources_for_site`] so the recorded
/// source is exactly the one the argmin priced.
fn cheapest_ds_source(
    d: &DsInput<'_>,
    to: SiteId,
    xfer_time: &mut dyn FnMut(SiteId, SiteId, u64) -> f64,
) -> (SiteId, f64) {
    let mut best = (d.sites[0], xfer_time(d.sites[0], to, d.size));
    for &src in &d.sites[1..] {
        let t = xfer_time(src, to, d.size);
        if t < best.1 {
            best = (src, t);
        }
    }
    best
}

/// The replica each dataset input is served from once `site` has won
/// the argmin — what gets recorded in
/// [`data_sources`](crate::TaskPlacement::data_sources).
fn dataset_sources_for_site(
    datasets: &[DsInput<'_>],
    site: SiteId,
    xfer_time: &mut dyn FnMut(SiteId, SiteId, u64) -> f64,
) -> Vec<DataSource> {
    datasets
        .iter()
        .map(|d| DataSource { dataset: d.id, source: cheapest_ds_source(d, site, xfer_time).0 })
        .collect()
}

/// Tie-break rank: local site first, then ascending site id.
fn site_rank(site: SiteId, local: SiteId) -> (u8, u16) {
    if site == local {
        (0, site.0)
    } else {
        (1, site.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_paths, Case};
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_net::model::LinkParams;
    use vdce_repository::resources::ResourceRecord;
    use vdce_repository::SiteRepository;

    fn site_view(site: u16, hosts: &[(&str, f64)]) -> SiteView {
        SiteView::capture(SiteId(site), &site_repo(hosts))
    }

    fn site_repo(hosts: &[(&str, f64)]) -> SiteRepository {
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
        repo
    }

    /// source -> sort -> sink chain with large dataflow.
    fn chain_afg(n: u64) -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "src", n).unwrap();
        let m = b.add_task("Sort", "sort", n).unwrap();
        let k = b.add_task("Sink", "snk", n).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    fn cfg(k: usize) -> SchedulerConfig {
        SchedulerConfig { k_neighbours: k, ..SchedulerConfig::default() }
    }

    #[test]
    fn single_site_places_every_task_locally() {
        let local = site_view(0, &[("h0", 1.0), ("h1", 2.0)]);
        let net = NetworkModel::with_defaults(1);
        let afg = chain_afg(10_000);
        let table = site_schedule(&afg, &local, &[], &net, &cfg(3)).unwrap();
        assert!(table.is_complete_for(&afg));
        assert_eq!(table.sites_used(), vec![SiteId(0)]);
        // Every task lands on the faster host.
        for p in table.iter() {
            assert_eq!(p.hosts.to_vec(), vec!["h1".to_string()]);
        }
    }

    #[test]
    fn remote_site_with_much_faster_hosts_wins_entry_tasks() {
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 20.0)]);
        let net = NetworkModel::with_defaults(2);
        let afg = chain_afg(2_000_000);
        let table = site_schedule(&afg, &local, &[remote], &net, &cfg(1)).unwrap();
        assert_eq!(table.placement(TaskId(0)).unwrap().site, SiteId(1));
    }

    #[test]
    fn k_zero_disables_remote_sites() {
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 20.0)]);
        let net = NetworkModel::with_defaults(2);
        let afg = chain_afg(2_000_000);
        let table = site_schedule(&afg, &local, &[remote], &net, &cfg(0)).unwrap();
        assert_eq!(table.sites_used(), vec![SiteId(0)]);
    }

    #[test]
    fn expensive_transfer_keeps_children_near_parents() {
        // Remote is 3× faster, but the WAN link is made brutally slow so
        // the transfer term dominates for non-entry tasks.
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 3.0)]);
        let mut net = NetworkModel::with_defaults(2);
        net.set_link(SiteId(0), SiteId(1), LinkParams::new(30.0, 1_000.0));
        let afg = chain_afg(100_000);
        let table = site_schedule(&afg, &local, &[remote], &net, &cfg(1)).unwrap();
        let entry_site = table.placement(TaskId(0)).unwrap().site;
        // Children follow the entry task's site to dodge the transfer.
        assert_eq!(table.placement(TaskId(1)).unwrap().site, entry_site);
        assert_eq!(table.placement(TaskId(2)).unwrap().site, entry_site);
    }

    #[test]
    fn cheap_network_lets_tasks_spread_to_faster_sites() {
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 10.0)]);
        let mut net = NetworkModel::with_defaults(2);
        // Make every link (including intra-site) essentially free.
        for a in 0..2u16 {
            for b in a..2u16 {
                net.set_link(SiteId(a), SiteId(b), LinkParams::new(1e-6, 1e12));
            }
        }
        let afg = chain_afg(2_000_000);
        let table = site_schedule(&afg, &local, &[remote], &net, &cfg(1)).unwrap();
        for p in table.iter() {
            assert_eq!(p.site, SiteId(1), "free network → all tasks on the fast site");
        }
    }

    #[test]
    fn infeasible_everywhere_is_an_error() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("app", &lib);
        let t = b.add_task("Source", "s", 10).unwrap();
        b.set_preferred_host(t, "nonexistent").unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        b.connect(t, 0, k, 0).unwrap();
        let afg = b.build().unwrap();
        let local = site_view(0, &[("h", 1.0)]);
        let net = NetworkModel::with_defaults(1);
        let err = site_schedule(&afg, &local, &[], &net, &cfg(0)).unwrap_err();
        assert!(matches!(err, SchedError::NoFeasibleSite { task, .. } if task == t));
        assert!(err.to_string().contains("`s`"));
    }

    /// The walk takes its levels from the caller. One per task, finite and
    /// non-negative, or a typed error — in both ready-list implementations,
    /// which index the slice by task and order by its values.
    #[test]
    fn levels_of_the_wrong_length_or_not_finite_are_refused() {
        let local = site_view(0, &[("h0", 1.0), ("h1", 2.0)]);
        let net = NetworkModel::with_defaults(1);
        let afg = chain_afg(10_000);
        let config = cfg(0);
        let outputs = [crate::host_selection_classed(
            &local,
            &afg,
            &config.predictor,
            &config.parallel,
            &PredictCache::new(),
        )];
        let walk = |levels: &[f64], sequential: bool| {
            schedule_with_outputs_data(
                &afg,
                levels,
                SiteId(0),
                &outputs,
                &net,
                false,
                sequential,
                None,
                None,
            )
        };
        let good = local.levels(&afg).unwrap();
        for sequential in [false, true] {
            assert!(walk(&good, sequential).unwrap().is_complete_for(&afg));
            // Short (the ready list would index past its end) and long.
            for wrong in [&good[..2], &[good.as_slice(), &[0.0]].concat()] {
                let err = walk(wrong, sequential).unwrap_err();
                let expect = SchedError::InvalidLevels { tasks: 3, levels: wrong.len(), bad: None };
                assert_eq!(err, expect);
                assert!(err.to_string().contains(&format!("{} entries", wrong.len())));
            }
            // NaN (no numeric order for the ready list), infinite,
            // negative: the lowest offending task is named.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
                let levels = [good[0], bad, bad];
                let err = walk(&levels, sequential).unwrap_err();
                let expect =
                    SchedError::InvalidLevels { tasks: 3, levels: 3, bad: Some(TaskId(1)) };
                assert_eq!(err, expect, "level {bad}");
                assert!(err.to_string().contains("task t1"), "{err}");
            }
        }
    }

    #[test]
    fn task_infeasible_locally_is_placed_remotely() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("app", &lib);
        let t = b.add_task("Source", "s", 10).unwrap();
        b.set_machine_type(t, MachineType::SunSolaris).unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        b.connect(t, 0, k, 0).unwrap();
        let afg = b.build().unwrap();

        let local = site_view(0, &[("linux", 1.0)]); // no Solaris locally
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new(
                "sun",
                "10.0.0.2",
                MachineType::SunSolaris,
                1.0,
                1,
                1 << 30,
                "g0",
            ));
        });
        let remote = SiteView::capture(SiteId(1), &repo);
        let net = NetworkModel::with_defaults(2);
        let table = site_schedule(&afg, &local, &[remote], &net, &cfg(1)).unwrap();
        assert_eq!(table.placement(t).unwrap().site, SiteId(1));
        // The sink follows its parent to site 1: the tiny dataflow is
        // cheaper intra-site than over the WAN link back to site 0.
        assert_eq!(table.placement(k).unwrap().site, SiteId(1));
        assert_eq!(table.placement(k).unwrap().hosts.to_vec(), vec!["sun".to_string()]);
    }

    #[test]
    fn only_k_nearest_sites_are_involved() {
        let local = site_view(0, &[("l0", 1.0)]);
        let near = site_view(1, &[("n0", 5.0)]);
        let far = site_view(2, &[("f0", 50.0)]);
        let mut net = NetworkModel::with_defaults(3);
        net.set_link(SiteId(0), SiteId(1), LinkParams::new(0.001, 1e9));
        net.set_link(SiteId(0), SiteId(2), LinkParams::new(0.5, 1e9));
        let afg = chain_afg(2_000_000);
        // k=1: only site 1 may be used even though site 2 is faster.
        let table =
            site_schedule(&afg, &local, &[near.clone(), far.clone()], &net, &cfg(1)).unwrap();
        assert!(!table.sites_used().contains(&SiteId(2)));
        // k=2: the far fast site becomes available.
        let table2 = site_schedule(&afg, &local, &[near, far], &net, &cfg(2)).unwrap();
        assert!(table2.sites_used().contains(&SiteId(2)));
    }

    #[test]
    fn missing_remote_view_is_tolerated() {
        // Neighbour selection may name a site that sent no view (e.g. its
        // manager is down) — scheduling proceeds without it.
        let local = site_view(0, &[("l0", 1.0)]);
        let net = NetworkModel::with_defaults(4);
        let afg = chain_afg(1000);
        let table = site_schedule(&afg, &local, &[], &net, &cfg(3)).unwrap();
        assert!(table.is_complete_for(&afg));
    }

    #[test]
    fn transfer_ablation_ignores_parent_locality() {
        // Remote is barely faster, but the WAN link is slow: the faithful
        // algorithm keeps children with their parents, the ablated one
        // chases the faster host across the WAN.
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 1.3)]);
        let mut net = NetworkModel::with_defaults(2);
        net.set_link(SiteId(0), SiteId(1), LinkParams::new(5.0, 10_000.0));
        let afg = chain_afg(100_000);
        let faithful =
            site_schedule(&afg, &local, std::slice::from_ref(&remote), &net, &cfg(1)).unwrap();
        let ablated = site_schedule(
            &afg,
            &local,
            &[remote],
            &net,
            &SchedulerConfig { k_neighbours: 1, ignore_transfer_time: true, ..cfg(1) },
        )
        .unwrap();
        // Ablated: every task independently picks the faster remote host.
        for p in ablated.iter() {
            assert_eq!(p.site, SiteId(1));
        }
        // Faithful: after the entry task lands remotely, children stay
        // with it; crucially the two differ in *why* — verify the
        // faithful one would not pay the WAN both ways for a local entry.
        assert!(faithful.is_complete_for(&afg));
    }

    #[test]
    fn reference_and_classed_strategy_agree_bit_for_bit() {
        // Two sites, a chain at three task sizes, every knob setting: the
        // classed strategy (class batching + caches + heap) must reproduce
        // the reference tables exactly, as the oracle checks it on every
        // path. The property tests hold random cases to the same oracle.
        for tasks in [1_000u64, 100_000, 2_000_000] {
            for (ignore, spread) in [(false, false), (true, false), (false, true), (true, true)] {
                let config = SchedulerConfig {
                    k_neighbours: 1,
                    ignore_transfer_time: ignore,
                    spread_critical: spread,
                    ..SchedulerConfig::default()
                };
                let repos = vec![
                    site_repo(&[("l0", 1.0), ("l1", 2.5)]),
                    site_repo(&[("r0", 3.0), ("r1", 0.5)]),
                ];
                let name = format!("tasks={tasks} ignore={ignore} spread={spread}");
                let net = NetworkModel::with_defaults(2);
                let case =
                    Case::new(name, chain_afg(tasks), repos, net, DataView::default(), config);
                check_paths(&case);
            }
        }
    }

    /// The observed entry point is the same algorithm: bit-identical
    /// tables, plus a populated registry whose deterministic names are
    /// pure functions of the inputs.
    #[test]
    fn observed_matches_plain_and_populates_registry() {
        let local = site_view(0, &[("l0", 1.0), ("l1", 2.5)]);
        let remote = site_view(1, &[("r0", 3.0), ("r1", 0.5)]);
        let net = NetworkModel::with_defaults(2);
        let afg = chain_afg(100_000);
        let config = cfg(1);

        let plain =
            site_schedule(&afg, &local, std::slice::from_ref(&remote), &net, &config).unwrap();
        let metrics = MetricsRegistry::new();
        let observed = site_schedule_observed(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &config,
            &metrics,
        )
        .unwrap();
        assert_eq!(plain, observed);
        for (pa, pb) in plain.iter().zip(observed.iter()) {
            assert_eq!(pa.predicted_seconds.to_bits(), pb.predicted_seconds.to_bits());
        }

        assert_eq!(metrics.counter("sched.sites_involved"), 2);
        assert_eq!(metrics.counter("sched.tasks_placed"), afg.task_count() as u64);
        assert!(metrics.counter("sched.predict_cache.entries") > 0);
        assert!(metrics.counter("sched.predict_cache.lookups") > 0);
        // chain: 2 edges × 2 sites probed per non-entry task.
        assert_eq!(metrics.counter("sched.transfer_cache.lookups"), 4);
        assert!(metrics.gauge("profile.sched.predict_cache.hit_rate").is_some());

        // The deterministic snapshot excludes the profile namespace.
        let det = metrics.snapshot_deterministic();
        assert!(det.iter().all(|(name, _)| !name.starts_with(PROFILE_PREFIX)));
        assert!(det.get("sched.tasks_placed").is_some());

        // Two observed runs into fresh registries agree exactly on the
        // deterministic snapshot (the bit-identity property test covers
        // the replay engine; this covers the scheduler in isolation).
        let metrics2 = MetricsRegistry::new();
        site_schedule_observed(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &config,
            &metrics2,
        )
        .unwrap();
        assert_eq!(
            det.to_json_string(),
            metrics2.snapshot_deterministic().to_json_string(),
            "deterministic scheduler metrics must replay bit-identically"
        );
    }

    /// Two independent critical chains on two equally fast sites over a
    /// near-free network: without spreading the local-site tie-break puts
    /// both sources on the same host; with `spread_critical` the second
    /// source moves to the host-disjoint alternative.
    #[test]
    fn spread_critical_separates_equal_cost_critical_tasks() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("twin", &lib);
        let s0 = b.add_task("Source", "s0", 100_000).unwrap();
        let k0 = b.add_task("Sink", "k0", 100_000).unwrap();
        let s1 = b.add_task("Source", "s1", 100_000).unwrap();
        let k1 = b.add_task("Sink", "k1", 100_000).unwrap();
        b.connect(s0, 0, k0, 0).unwrap();
        b.connect(s1, 0, k1, 0).unwrap();
        let afg = b.build().unwrap();

        let local = site_view(0, &[("l0", 2.0)]);
        let remote = site_view(1, &[("r0", 2.0)]);
        let mut net = NetworkModel::with_defaults(2);
        for a in 0..2u16 {
            for c in a..2u16 {
                net.set_link(SiteId(a), SiteId(c), LinkParams::new(1e-9, 1e15));
            }
        }

        let plain =
            site_schedule(&afg, &local, std::slice::from_ref(&remote), &net, &cfg(1)).unwrap();
        assert_eq!(plain.placement(s0).unwrap().site, plain.placement(s1).unwrap().site);

        let spread = site_schedule(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &SchedulerConfig { spread_critical: true, ..cfg(1) },
        )
        .unwrap();
        let h0 = &spread.placement(s0).unwrap().hosts;
        let h1 = &spread.placement(s1).unwrap().hosts;
        assert!(h0.iter().all(|h| !h1.contains(h)), "critical sources share a host: {h0:?} {h1:?}");
    }

    /// When no near-optimal disjoint candidate exists, spreading must not
    /// degrade the placement: a 20× slower alternative is ignored.
    #[test]
    fn spread_critical_never_takes_a_far_worse_host() {
        let local = site_view(0, &[("fast", 20.0)]);
        let remote = site_view(1, &[("slow", 1.0)]);
        let net = NetworkModel::with_defaults(2);
        let afg = chain_afg(100_000);
        let spread = site_schedule(
            &afg,
            &local,
            &[remote],
            &net,
            &SchedulerConfig { spread_critical: true, ..cfg(1) },
        )
        .unwrap();
        for p in spread.iter() {
            assert_eq!(p.hosts.to_vec(), vec!["fast".to_string()]);
        }
    }

    /// The spread tolerance is a real knob: with a generous tolerance the
    /// scheduler pays a modestly worse host for crash isolation; with
    /// `tolerance: 1.0` (equal cost only) it refuses the same trade.
    #[test]
    fn spread_tolerance_knob_changes_the_decision() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("twin", &lib);
        let s0 = b.add_task("Source", "s0", 100_000).unwrap();
        let k0 = b.add_task("Sink", "k0", 100_000).unwrap();
        let s1 = b.add_task("Source", "s1", 100_000).unwrap();
        let k1 = b.add_task("Sink", "k1", 100_000).unwrap();
        b.connect(s0, 0, k0, 0).unwrap();
        b.connect(s1, 0, k1, 0).unwrap();
        let afg = b.build().unwrap();

        // The alternative host is ~5% slower: inside the default 1.10
        // tolerance, outside a 1.0 (equal-cost-only) tolerance.
        let local = site_view(0, &[("l0", 2.0)]);
        let remote = site_view(1, &[("r0", 1.9)]);
        let mut net = NetworkModel::with_defaults(2);
        for a in 0..2u16 {
            for c in a..2u16 {
                net.set_link(SiteId(a), SiteId(c), LinkParams::new(1e-9, 1e15));
            }
        }

        let lenient = site_schedule(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &SchedulerConfig { spread_critical: true, ..cfg(1) },
        )
        .unwrap();
        assert_ne!(
            lenient.placement(s0).unwrap().hosts,
            lenient.placement(s1).unwrap().hosts,
            "default tolerance accepts the 5%-worse disjoint host"
        );

        let strict = site_schedule(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &SchedulerConfig {
                spread_critical: true,
                spread: SpreadPolicy { tolerance: 1.0 },
                ..cfg(1)
            },
        )
        .unwrap();
        assert_eq!(
            strict.placement(s0).unwrap().hosts,
            strict.placement(s1).unwrap().hosts,
            "tolerance 1.0 refuses any cost increase"
        );
    }

    /// reader (Map, one input) -> sink, input bound by the caller.
    fn reader_afg(input: vdce_afg::IoSpec, n: u64) -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("reader", &lib);
        let m = b.add_task("Map", "m", n).unwrap();
        let k = b.add_task("Sink", "k", n).unwrap();
        b.set_input(m, 0, input).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    fn view_one(id: u64, size: u64, sites: &[u16]) -> DataView {
        let mut m = std::collections::BTreeMap::new();
        m.insert(
            DatasetId(id),
            vdce_data::DatasetSpec {
                size,
                sites: sites.iter().map(|&s| SiteId(s)).collect(),
                home: sites.first().map(|&s| SiteId(s)),
            },
        );
        DataView::from_specs(m)
    }

    /// Pins the legacy contract (satellite of DESIGN.md §18): inline
    /// *file* inputs are charged parent-site-only per Figure 2 — an
    /// entry task "requires no input" transfer, so the file's size never
    /// moves the placement. Only `IoSpec::Dataset` inputs get the
    /// min-over-replicas term.
    #[test]
    fn inline_file_inputs_stay_parent_site_only() {
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 10.0)]);
        let net = NetworkModel::with_defaults(2);
        let small = reader_afg(vdce_afg::IoSpec::inline_file("/in.dat", 1), 1000);
        let huge = reader_afg(vdce_afg::IoSpec::inline_file("/in.dat", 1 << 33), 1000);
        let a =
            site_schedule(&small, &local, std::slice::from_ref(&remote), &net, &cfg(1)).unwrap();
        let b = site_schedule(&huge, &local, std::slice::from_ref(&remote), &net, &cfg(1)).unwrap();
        assert_eq!(
            a.placement(TaskId(0)).unwrap().site,
            b.placement(TaskId(0)).unwrap().site,
            "inline file size must not move the placement"
        );
        assert!(a.iter().all(|p| p.data_sources.is_empty()));
    }

    /// The data-aware term: a dataset with its only replica on the slow
    /// local site pins the reader there (the 8 GiB WAN transfer dwarfs
    /// the 10× compute advantage), and the placement records which
    /// replica was charged. The same AFG through the legacy entry point
    /// is a typed [`SchedError::UnknownDataset`], never silently free.
    #[test]
    fn dataset_replicas_pull_placement_and_are_recorded() {
        let ds = DatasetId(7);
        let afg = reader_afg(vdce_afg::IoSpec::dataset(ds), 1000);
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 10.0)]);
        let net = NetworkModel::with_defaults(2);

        let err =
            site_schedule(&afg, &local, std::slice::from_ref(&remote), &net, &cfg(1)).unwrap_err();
        assert_eq!(err, SchedError::UnknownDataset { task: TaskId(0), dataset: ds });

        let pinned = view_one(7, 1 << 33, &[0]);
        let t = site_schedule_with_data(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &cfg(1),
            Some(&pinned),
        )
        .unwrap();
        let p = t.placement(TaskId(0)).unwrap();
        assert_eq!(p.site, SiteId(0), "sole huge replica pins the reader to its site");
        assert_eq!(p.data_sources, vec![DataSource { dataset: ds, source: SiteId(0) }]);

        // A second replica on the fast site frees the reader to move
        // there — and the recorded source moves with it.
        let replicated = view_one(7, 1 << 33, &[0, 1]);
        let t2 = site_schedule_with_data(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &cfg(1),
            Some(&replicated),
        )
        .unwrap();
        let p2 = t2.placement(TaskId(0)).unwrap();
        assert_eq!(p2.site, SiteId(1), "replication unlocks the faster site");
        assert_eq!(p2.data_sources, vec![DataSource { dataset: ds, source: SiteId(1) }]);
    }

    #[test]
    fn diamond_parents_all_placed_before_children() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("d", &lib);
        let a = b.add_task("Source", "a", 1000).unwrap();
        let l = b.add_task("Map", "l", 1000).unwrap();
        let r = b.add_task("Map", "r", 1000).unwrap();
        let j = b.add_task("Matrix_Add", "j", 64).unwrap();
        b.connect(a, 0, l, 0).unwrap();
        b.connect(a, 0, r, 0).unwrap();
        b.connect(l, 0, j, 0).unwrap();
        b.connect(r, 0, j, 1).unwrap();
        let afg = b.build().unwrap();
        let local = site_view(0, &[("h0", 1.0), ("h1", 1.0)]);
        let net = NetworkModel::with_defaults(1);
        let table = site_schedule(&afg, &local, &[], &net, &cfg(0)).unwrap();
        assert!(table.is_complete_for(&afg));
    }
}
