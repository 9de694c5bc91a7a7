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
//! This module is the *algorithm*, steps 1–5 in [`site_schedule`]; the
//! multicast of steps 3–5 is executed in-process here (each site's view
//! is already available) and over the inter-site message bus in
//! [`federated_schedule`](crate::federated_schedule). Steps 6–7 are
//! [`SchedRequest::walk`].

use crate::allocation::AllocationTable;
use crate::classes::TaskClasses;
use crate::host_selection::{host_selection, select_by_class, HostSelectionOutput, SelectScratch};
use crate::view::SiteView;
use std::collections::BTreeMap;
use std::fmt;
use vdce_afg::level::LevelError;
use vdce_afg::{Afg, DatasetId, TaskId};
use vdce_data::DataView;
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
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
    /// (including the case of scheduling a dataset-reading AFG with no
    /// view at all).
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

/// One Figure 2 request: what [`site_schedule`] maps and where, plus the
/// two options, each an `Option` field instead of a function of its own.
/// [`SchedRequest::walk`] runs steps 6–7 alone over host-selection
/// outputs already collected.
#[derive(Clone, Copy)]
pub struct SchedRequest<'a> {
    /// The application flow graph to map.
    pub afg: &'a Afg,
    /// The local site, which always participates; its task-performance
    /// database prices the levels.
    pub local: &'a SiteView,
    /// The views of *all* reachable remote sites; step 2 picks the
    /// `config.k_neighbours` nearest ones according to `net`.
    pub remotes: &'a [SiteView],
    /// The inter-site network: neighbour distances and transfer times.
    pub net: &'a NetworkModel,
    /// The scheduler's tunables.
    pub config: &'a SchedulerConfig,
    /// Dataset catalog view. Tasks whose inputs name catalog datasets
    /// ([`vdce_afg::IoSpec::Dataset`]) are charged `min` over live
    /// replicas of the transfer from each replica site, on top of Figure
    /// 2's parent-site dataflow term, and the chosen replica is recorded
    /// in the placement's
    /// [`data_sources`](crate::TaskPlacement::data_sources). `None`
    /// resolves like an empty view: any dataset reference is a typed
    /// [`SchedError::UnknownDataset`] — dataset reads are never silently
    /// free.
    pub data: Option<&'a DataView>,
    /// Registry the run exports its metrics into. The table is
    /// bit-identical with or without one. Exported names:
    ///
    /// - `sched.sites_involved`, `sched.tasks_placed` — counters, pure
    ///   functions of the inputs.
    /// - `sched.predict_cache.entries` / `sched.predict_cache.lookups` —
    ///   deterministic cache statistics: distinct `(library task, host)`
    ///   prediction terms memoised, and term lookups (one per eligibility
    ///   group and candidate host, see
    ///   [`host_selection_classed`](crate::host_selection_classed)). Host
    ///   names are unique across the federation, so one [`PredictCache`]
    ///   is shared across every involved site's host selection without
    ///   changing any prediction.
    /// - `sched.transfer_cache.lookups` — transfer-time consultations in
    ///   the DAG walk (deterministic: the walk is sequential).
    /// - `profile.sched.predict_cache.hits` / `.misses` / `.hit_rate` —
    ///   the raw hit/miss split of those term lookups, kept in the
    ///   [`PROFILE_PREFIX`] namespace, which
    ///   [`MetricsRegistry::snapshot_deterministic`] excludes, so recorded
    ///   deterministic snapshots keep their name set.
    pub metrics: Option<&'a MetricsRegistry>,
}

/// Run the site-scheduler algorithm, Figure 2 end to end, with the
/// options `req` carries.
pub fn site_schedule(req: &SchedRequest<'_>) -> Result<AllocationTable, SchedError> {
    let SchedRequest { afg, local, remotes, net, config, metrics, .. } = *req;
    // The AFG's task classes, indexed once for the level pass and every
    // involved site's host selection; its edges, indexed once for the
    // level pass and the walk.
    let mut classes = TaskClasses::new(afg);
    let edge_idx = afg.edge_index();
    // Priorities: level of each node on base-processor execution times
    // (task-performance DB of the local site).
    let levels = classes.levels(local, afg, &edge_idx)?;

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

    // Steps 6–7.
    let table = req.walk_indexed(&levels, &outputs, &edge_idx)?;
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

/// [`site_schedule`] with [`SchedRequest::data`] set.
#[deprecated(note = "perf/ only; ROADMAP item 4 leaf 2 deletes it")]
pub fn site_schedule_with_data(
    afg: &Afg,
    local: &SiteView,
    remotes: &[SiteView],
    net: &NetworkModel,
    config: &SchedulerConfig,
    data: Option<&DataView>,
) -> Result<AllocationTable, SchedError> {
    site_schedule(&SchedRequest { afg, local, remotes, net, config, data, metrics: None })
}

/// [`site_schedule`] with [`SchedRequest::metrics`] set.
#[deprecated(note = "perf/ only; ROADMAP item 4 leaf 2 deletes it")]
pub fn site_schedule_observed(
    afg: &Afg,
    local: &SiteView,
    remotes: &[SiteView],
    net: &NetworkModel,
    config: &SchedulerConfig,
    metrics: &MetricsRegistry,
) -> Result<AllocationTable, SchedError> {
    let metrics = Some(metrics);
    site_schedule(&SchedRequest { afg, local, remotes, net, config, data: None, metrics })
}

/// [`SchedRequest::walk`] with its three walk options unpacked and an
/// empty view of `local_site` (the walk reads only its id).
#[deprecated(note = "perf/ only; ROADMAP item 4 leaf 2 deletes it")]
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
    let mut config = SchedulerConfig { ignore_transfer_time, sequential, ..Default::default() };
    (config.spread_critical, config.spread) = (spread.is_some(), spread.unwrap_or_default());
    let (resources, tasks, constraints) = Default::default();
    let local = &SiteView { site: local_site, resources, tasks, constraints };
    let config = &config;
    SchedRequest { afg, local, remotes: &[], net, config, data, metrics: None }
        .walk(levels, outputs)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::oracle::{check_paths, Case};
    use crate::DataSource;
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_net::model::LinkParams;
    use vdce_repository::resources::ResourceRecord;
    use vdce_repository::SiteRepository;

    pub(crate) fn site_view(site: u16, hosts: &[(&str, f64)]) -> SiteView {
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
    pub(crate) fn chain_afg(n: u64) -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "src", n).unwrap();
        let m = b.add_task("Sort", "sort", n).unwrap();
        let k = b.add_task("Sink", "snk", n).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    pub(crate) fn cfg(k: usize) -> SchedulerConfig {
        SchedulerConfig { k_neighbours: k, ..SchedulerConfig::default() }
    }

    /// A request with neither option set.
    pub(crate) fn request<'a>(
        afg: &'a Afg,
        local: &'a SiteView,
        remotes: &'a [SiteView],
        net: &'a NetworkModel,
        config: &'a SchedulerConfig,
    ) -> SchedRequest<'a> {
        SchedRequest { afg, local, remotes, net, config, data: None, metrics: None }
    }

    /// The `perf/`-only wrappers answer as the request path with the same
    /// options, compared bit for bit. The AFG reads a dataset, which a
    /// walk or an evaluation without a catalog view refuses, so a wrapper
    /// that dropped `data` fails here; the placed-task counter shows a
    /// dropped registry, and a dataset whose only replica is local places
    /// its reader by the transfer-term ablation, which shows a dropped
    /// walk flag.
    #[test]
    #[allow(deprecated)]
    fn deprecated_wrappers_forward_their_options() {
        use crate::oracle::{same_schedules, same_tables};
        let afg = reader_afg(vdce_afg::IoSpec::dataset(DatasetId(7)), 1000);
        let local = site_view(0, &[("l0", 1.0)]);
        let remotes = [site_view(1, &[("r0", 10.0)])];
        let net = NetworkModel::with_defaults(2);
        let (view, config) = (view_one(7, 1 << 33, &[0]), cfg(1));
        let data = Some(&view);
        let req = SchedRequest { data, ..request(&afg, &local, &remotes, &net, &config) };
        let want = site_schedule(&req);
        let got = site_schedule_with_data(&afg, &local, &remotes, &net, &config, data);
        same_tables(&got, &want, "site_schedule_with_data", "wrapper");

        let levels = local.levels(&afg).unwrap();
        let table = want.unwrap();
        let got = crate::evaluate_with_data(&afg, &table, &net, &levels, data);
        let want = crate::evaluate(&afg, &table, &net, &levels, data);
        same_schedules(&table, &got, &want, "evaluate_with_data");

        let cache = PredictCache::new();
        let select =
            |v| crate::host_selection_classed(v, &afg, &config.predictor, &config.parallel, &cache);
        let outputs = [select(&local), select(&remotes[0])];
        let mut sites = Vec::new();
        for ignore in [false, true] {
            let config =
                SchedulerConfig { ignore_transfer_time: ignore, spread_critical: true, ..config };
            let want = SchedRequest { config: &config, ..req }.walk(&levels, &outputs);
            let (l, o, n, spread) = (&levels, &outputs, &net, Some(config.spread));
            let got =
                schedule_with_outputs_data(&afg, l, SiteId(0), o, n, ignore, false, spread, data);
            same_tables(&got, &want, "schedule_with_outputs_data", "wrapper");
            sites.push(want.unwrap().placement(TaskId(0)).unwrap().site);
        }
        assert_eq!(sites, [SiteId(0), SiteId(1)], "the ablation moves the reader");

        let afg = chain_afg(100_000);
        let (got_reg, want_reg) = (MetricsRegistry::new(), MetricsRegistry::new());
        let got = site_schedule_observed(&afg, &local, &remotes, &net, &config, &got_reg);
        let req = request(&afg, &local, &remotes, &net, &config);
        let want = site_schedule(&SchedRequest { metrics: Some(&want_reg), ..req });
        same_tables(&got, &want, "site_schedule_observed", "wrapper");
        assert_eq!(got_reg.counter("sched.tasks_placed"), 3);
        let snapshot = |m: &MetricsRegistry| m.snapshot_deterministic().to_json_string();
        assert_eq!(snapshot(&got_reg), snapshot(&want_reg));
    }

    #[test]
    fn single_site_places_every_task_locally() {
        let local = site_view(0, &[("h0", 1.0), ("h1", 2.0)]);
        let net = NetworkModel::with_defaults(1);
        let afg = chain_afg(10_000);
        let table = site_schedule(&request(&afg, &local, &[], &net, &cfg(3))).unwrap();
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
        let table = site_schedule(&request(&afg, &local, &[remote], &net, &cfg(1))).unwrap();
        assert_eq!(table.placement(TaskId(0)).unwrap().site, SiteId(1));
    }

    #[test]
    fn k_zero_disables_remote_sites() {
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 20.0)]);
        let net = NetworkModel::with_defaults(2);
        let afg = chain_afg(2_000_000);
        let table = site_schedule(&request(&afg, &local, &[remote], &net, &cfg(0))).unwrap();
        assert_eq!(table.sites_used(), vec![SiteId(0)]);
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
        let err = site_schedule(&request(&afg, &local, &[], &net, &cfg(0))).unwrap_err();
        assert!(matches!(err, SchedError::NoFeasibleSite { task, .. } if task == t));
        assert!(err.to_string().contains("`s`"));
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
        let table = site_schedule(&request(&afg, &local, &[remote], &net, &cfg(1))).unwrap();
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
            site_schedule(&request(&afg, &local, &[near.clone(), far.clone()], &net, &cfg(1)))
                .unwrap();
        assert!(!table.sites_used().contains(&SiteId(2)));
        // k=2: the far fast site becomes available.
        let table2 = site_schedule(&request(&afg, &local, &[near, far], &net, &cfg(2))).unwrap();
        assert!(table2.sites_used().contains(&SiteId(2)));
    }

    #[test]
    fn missing_remote_view_is_tolerated() {
        // Neighbour selection may name a site that sent no view (e.g. its
        // manager is down) — scheduling proceeds without it.
        let local = site_view(0, &[("l0", 1.0)]);
        let net = NetworkModel::with_defaults(4);
        let afg = chain_afg(1000);
        let table = site_schedule(&request(&afg, &local, &[], &net, &cfg(3))).unwrap();
        assert!(table.is_complete_for(&afg));
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

        let req = request(&afg, &local, std::slice::from_ref(&remote), &net, &config);
        let plain = site_schedule(&req).unwrap();
        let metrics = MetricsRegistry::new();
        let observed = site_schedule(&SchedRequest { metrics: Some(&metrics), ..req }).unwrap();
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
        site_schedule(&SchedRequest { metrics: Some(&metrics2), ..req }).unwrap();
        assert_eq!(
            det.to_json_string(),
            metrics2.snapshot_deterministic().to_json_string(),
            "deterministic scheduler metrics must replay bit-identically"
        );
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
        let table = site_schedule(&request(&afg, &local, &[remote], &net, &cfg(1))).unwrap();
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
        let table = site_schedule(&request(&afg, &local, &[remote], &net, &cfg(1))).unwrap();
        for p in table.iter() {
            assert_eq!(p.site, SiteId(1), "free network → all tasks on the fast site");
        }
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
            site_schedule(&request(&afg, &local, std::slice::from_ref(&remote), &net, &cfg(1)))
                .unwrap();
        let ablated = site_schedule(&request(
            &afg,
            &local,
            &[remote],
            &net,
            &SchedulerConfig { k_neighbours: 1, ignore_transfer_time: true, ..cfg(1) },
        ))
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
            site_schedule(&request(&afg, &local, std::slice::from_ref(&remote), &net, &cfg(1)))
                .unwrap();
        assert_eq!(plain.placement(s0).unwrap().site, plain.placement(s1).unwrap().site);

        let spread = site_schedule(&request(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &SchedulerConfig { spread_critical: true, ..cfg(1) },
        ))
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
        let spread = site_schedule(&request(
            &afg,
            &local,
            &[remote],
            &net,
            &SchedulerConfig { spread_critical: true, ..cfg(1) },
        ))
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

        let lenient = site_schedule(&request(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &SchedulerConfig { spread_critical: true, ..cfg(1) },
        ))
        .unwrap();
        assert_ne!(
            lenient.placement(s0).unwrap().hosts,
            lenient.placement(s1).unwrap().hosts,
            "default tolerance accepts the 5%-worse disjoint host"
        );

        let strict = site_schedule(&request(
            &afg,
            &local,
            std::slice::from_ref(&remote),
            &net,
            &SchedulerConfig {
                spread_critical: true,
                spread: SpreadPolicy { tolerance: 1.0 },
                ..cfg(1)
            },
        ))
        .unwrap();
        assert_eq!(
            strict.placement(s0).unwrap().hosts,
            strict.placement(s1).unwrap().hosts,
            "tolerance 1.0 refuses any cost increase"
        );
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
            site_schedule(&request(&small, &local, std::slice::from_ref(&remote), &net, &cfg(1)))
                .unwrap();
        let b =
            site_schedule(&request(&huge, &local, std::slice::from_ref(&remote), &net, &cfg(1)))
                .unwrap();
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
    /// replica was charged. The same AFG without a catalog view is a
    /// typed [`SchedError::UnknownDataset`], never silently free.
    #[test]
    fn dataset_replicas_pull_placement_and_are_recorded() {
        let ds = DatasetId(7);
        let afg = reader_afg(vdce_afg::IoSpec::dataset(ds), 1000);
        let local = site_view(0, &[("l0", 1.0)]);
        let remote = site_view(1, &[("r0", 10.0)]);
        let net = NetworkModel::with_defaults(2);

        let config = cfg(1);
        let req = request(&afg, &local, std::slice::from_ref(&remote), &net, &config);
        let err = site_schedule(&req).unwrap_err();
        assert_eq!(err, SchedError::UnknownDataset { task: TaskId(0), dataset: ds });

        let pinned = view_one(7, 1 << 33, &[0]);
        let t = site_schedule(&SchedRequest { data: Some(&pinned), ..req }).unwrap();
        let p = t.placement(TaskId(0)).unwrap();
        assert_eq!(p.site, SiteId(0), "sole huge replica pins the reader to its site");
        assert_eq!(p.data_sources, vec![DataSource { dataset: ds, source: SiteId(0) }]);

        // A second replica on the fast site frees the reader to move
        // there — and the recorded source moves with it.
        let replicated = view_one(7, 1 << 33, &[0, 1]);
        let t2 = site_schedule(&SchedRequest { data: Some(&replicated), ..req }).unwrap();
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
        let table = site_schedule(&request(&afg, &local, &[], &net, &cfg(0))).unwrap();
        assert!(table.is_complete_for(&afg));
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
}
