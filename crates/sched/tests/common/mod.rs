//! The scheduler's one case generator and its one differential oracle.
//!
//! Five paths must place a workload bit for bit alike: the reference walk
//! (`sequential: true`), the classed walk, `site_schedule` with metrics,
//! `IncrementalSchedule` built from empty, and the data-aware walk when
//! every dataset has one replica at the parent site. [`check_paths`]
//! asserts all of that on one [`Case`], together with Figure 3's classed
//! selection and §3's class-priced level pass against their references,
//! `evaluate` against [`evaluate_reference`], and the validity of every
//! table and schedule. Its parts, [`check_walks`], [`check_primary_only`]
//! and [`check_evaluation`], each back a property test of their own.
//! [`check_shared_selection`] holds selection over one shared task-class
//! index to the same references; the crate's unit tests run it, since
//! only they can build an index.
//! [`Case::random`] draws the cases the property tests feed it,
//! [`Case::relabelled`] the ones whose ready order is not topological;
//! [`Case::palette`] builds the fixed large ones. The crate's unit tests
//! include this module too, to hold named edge cases to the oracle.

// Each test binary that includes this module uses a different part of it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;
use vdce_afg::level::{blevel_map, level_map, LevelError};
use vdce_afg::{
    Afg, ComputationMode, DatasetId, Edge, IoSpec, KernelKind, MachineType, PortIndex, TaskId,
    TaskNode, TaskProperties,
};
use vdce_data::{DataView, DatasetSpec};
use vdce_net::model::{LinkParams, NetworkModel};
use vdce_net::topology::SiteId;
use vdce_obs::MetricsRegistry;
use vdce_predict::cache::PredictCache;
use vdce_repository::resources::{HostStatus, ResourceRecord};
use vdce_repository::{SiteRepository, TaskPerfDb};
use vdce_sched::{
    evaluate, host_selection, host_selection_classed, site_schedule, AllocationTable, EvalError,
    HostSelectionOutput, IncrementalSchedule, SchedError, SchedRequest, Schedule, SchedulerConfig,
    SiteView, SpreadPolicy, TimedTask,
};

/// One scheduling input: an AFG, a federation (site 0 is the local site),
/// a catalog view and the scheduler's knobs.
pub struct Case {
    /// Names the case in every failure message.
    pub name: String,
    pub afg: Afg,
    /// The sites' repositories, kept so a test can change a host and
    /// capture again.
    pub repos: Vec<SiteRepository>,
    /// `repos`, captured.
    pub views: Vec<SiteView>,
    pub net: NetworkModel,
    pub data: DataView,
    pub config: SchedulerConfig,
}

impl Case {
    /// The case of these inputs; `repos` are captured into `views`.
    pub fn new(
        name: String,
        afg: Afg,
        repos: Vec<SiteRepository>,
        net: NetworkModel,
        data: DataView,
        config: SchedulerConfig,
    ) -> Case {
        let views =
            repos.iter().enumerate().map(|(s, r)| SiteView::capture(SiteId(s as u16), r)).collect();
        Case { name, afg, repos, views, net, data, config }
    }

    /// The case as a scheduling request: its own configuration and its
    /// catalog view, no metrics.
    pub fn request(&self) -> SchedRequest<'_> {
        let (local, remotes, data) = (&self.views[0], &self.views[1..], Some(&self.data));
        let (afg, net, config) = (&self.afg, &self.net, &self.config);
        SchedRequest { afg, local, remotes, net, config, data, metrics: None }
    }

    /// The case `seed` draws:
    /// - a layered DAG of one to four layers of one to four tasks, each
    ///   task below the first fed by one or two tasks of the layer above;
    /// - up to three tasks flipped to parallel, asking for one to six
    ///   nodes;
    /// - half the time, task 0, the last task and one more run on Sun
    ///   only;
    /// - half the time, one to three dataset reads of datasets `1..=4`;
    /// - one to four sites of one to four Linux hosts and one Sun host
    ///   each, speeds 1–8, the Sun host of one site (or of none) down;
    /// - half the time, random WAN links;
    /// - a catalog view holding every dataset at one or two sites;
    /// - `k` in 0–3, and a quarter of the time each, the transfer
    ///   ablation and critical-path spreading at one of three tolerances.
    pub fn random(seed: u64) -> Case {
        Case::drawn(seed, 4)
    }

    /// A case whose ready order is not topological, as the walk and
    /// `evaluate` must handle: [`Case::random`]'s draw with layers up to
    /// 40 tasks wide, the task ids permuted at random (so an edge may run
    /// from a higher id to a lower one), the local site's view missing
    /// the `Map` entry (so every `Map` task's level is zero, tied levels
    /// fall back to id order, and a child can rank ahead of its parent)
    /// and `k` at least 1, so the remote sites can run `Map`.
    pub fn relabelled(seed: u64) -> Case {
        let mut case = Case::drawn(seed, 40);
        let mut rng = StdRng::seed_from_u64(!seed);
        let n = case.afg.task_count();
        let mut new_id: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            new_id.swap(i, rng.gen_range(0..=i));
        }
        let afg = &mut case.afg;
        for t in &mut afg.tasks {
            t.id = TaskId(new_id[t.id.index()]);
        }
        afg.tasks.sort_by_key(|t| t.id);
        for e in &mut afg.edges {
            (e.from, e.to) = (TaskId(new_id[e.from.index()]), TaskId(new_id[e.to.index()]));
        }
        case.views[0].tasks = tasks_without("Map");
        case.config.k_neighbours = case.config.k_neighbours.max(1);
        case.name = format!("relabelled case seed {seed}");
        case
    }

    /// The draw behind [`Case::random`], layers up to `width` tasks wide.
    fn drawn(seed: u64, width: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut afg = random_afg(&mut rng, width);
        let n = afg.task_count();
        for _ in 0..rng.gen_range(0..4) {
            let t = &mut afg.tasks[rng.gen_range(0..n)];
            t.props.mode = ComputationMode::Parallel;
            t.props.num_nodes = rng.gen_range(1..=6u32);
        }
        if rng.gen_bool(0.5) {
            for t in [0, n - 1, rng.gen_range(0..n)] {
                afg.tasks[t].props.machine_type = MachineType::SunSolaris;
            }
        }
        let datasets = rng.gen_range(1..=4u64);
        if rng.gen_bool(0.5) {
            for _ in 0..rng.gen_range(1..=3) {
                let id = DatasetId(rng.gen_range(1..=datasets));
                afg.tasks[rng.gen_range(0..n)].props.inputs.push(IoSpec::dataset(id));
            }
        }

        let sites = rng.gen_range(1..=4usize);
        let hosts = rng.gen_range(1..=4usize);
        // `sites`: every Sun host is up.
        let sun_down = rng.gen_range(0..=sites);
        let repos = (0..sites).map(|s| site_repo(s, hosts, s == sun_down, &mut rng)).collect();
        let mut net = NetworkModel::with_defaults(sites);
        if rng.gen_bool(0.5) {
            random_links(&mut net, sites, &mut rng);
        }
        let specs = (1..=datasets)
            .map(|d| {
                let mut at: Vec<SiteId> = (0..rng.gen_range(1..=2))
                    .map(|_| SiteId(rng.gen_range(0..sites) as u16))
                    .collect();
                at.sort_unstable();
                at.dedup();
                let size = (1 << 20) | rng.gen_range(0..64u64 << 20);
                (DatasetId(d), DatasetSpec { size, home: at.first().copied(), sites: at })
            })
            .collect();
        let config = SchedulerConfig {
            k_neighbours: rng.gen_range(0..4usize),
            ignore_transfer_time: rng.gen_bool(0.25),
            spread_critical: rng.gen_bool(0.25),
            spread: SpreadPolicy { tolerance: [1.0, 1.1, 1.5][rng.gen_range(0..3usize)] },
            ..SchedulerConfig::default()
        };
        let data = DataView::from_specs(specs);
        Case::new(format!("case seed {seed}"), afg, repos, net, data, config)
    }

    /// The palette workload of `tasks` tasks ([`palette_afg`]) over
    /// `sites` sites of eight Linux hosts and a Sun host, random WAN links,
    /// `k = 3` and no dataset reads. Quantised sizes make
    /// `(library task, size, host)` triples repeat, the structure the
    /// predict memo exploits, and multi-node selection re-predicts every
    /// ranking prefix in the reference.
    pub fn palette(tasks: usize, sites: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(42);
        let repos = (0..sites).map(|s| site_repo(s, 8, false, &mut rng)).collect();
        let mut net = NetworkModel::with_defaults(sites);
        random_links(&mut net, sites, &mut rng);
        let config = SchedulerConfig { k_neighbours: 3, ..SchedulerConfig::default() };
        let name = format!("palette {tasks} tasks / {sites} sites");
        Case::new(name, palette_afg(tasks), repos, net, DataView::default(), config)
    }

    /// Does any task read a catalog dataset?
    pub fn reads_datasets(&self) -> bool {
        self.afg.tasks.iter().any(|t| t.props.inputs.iter().any(|i| i.dataset_id().is_some()))
    }
}

/// Host name of site `site`'s one Sun host.
pub fn sun_host(site: usize) -> String {
    format!("s{site}sun")
}

/// Task `id` as a generated graph has it: a `Source` without inputs, a
/// `Map` with `inputs` dataflow inputs otherwise.
fn task_node(id: TaskId, inputs: usize, problem_size: u64) -> TaskNode {
    let entry = inputs == 0;
    TaskNode {
        id,
        name: format!("n{}", id.0).into(),
        library_task: if entry { "Source" } else { "Map" }.into(),
        kernel: if entry { KernelKind::Source } else { KernelKind::Map },
        problem_size,
        props: TaskProperties {
            inputs: vec![IoSpec::Dataflow; inputs],
            outputs: vec![IoSpec::Dataflow],
            ..TaskProperties::default()
        },
    }
}

fn random_afg(rng: &mut StdRng, width: usize) -> Afg {
    let mut g = Afg::new("prop");
    let mut above = 0..0;
    for layer in 0..rng.gen_range(1..=4) {
        let start = g.tasks.len();
        for _ in 0..rng.gen_range(1..=width) {
            let id = TaskId(g.tasks.len() as u32);
            let parents = if layer == 0 { 0 } else { rng.gen_range(1..=2usize) };
            g.tasks.push(task_node(id, parents, 1000 + rng.gen_range(0..100_000u64)));
            for port in 0..parents {
                g.edges.push(Edge {
                    from: TaskId(rng.gen_range(above.clone()) as u32),
                    from_port: PortIndex(0),
                    to: id,
                    to_port: PortIndex(port as u16),
                    data_size: 100 + rng.gen_range(0..1_000_000u64),
                });
            }
        }
        above = start..g.tasks.len();
    }
    g
}

/// The standard task-performance database without `library_task`'s
/// entry: a view holding it prices that task's level at zero and cannot
/// run it.
fn tasks_without(library_task: &str) -> TaskPerfDb {
    fn field<'v>(value: &'v mut Value, key: &str) -> &'v mut Value {
        let Value::Object(fields) = value else { panic!("`{key}`'s parent is not an object") };
        &mut fields.iter_mut().find(|(k, _)| k == key).expect("the field exists").1
    }
    let mut db = serde_json::to_value(&TaskPerfDb::standard()).expect("the database serialises");
    let Value::Object(entries) = field(field(&mut db, "library"), "entries") else {
        panic!("the library's entries are not an object")
    };
    let before = entries.len();
    entries.retain(|(name, _)| name != library_task);
    assert_eq!(entries.len() + 1, before, "the standard library has `{library_task}`");
    serde_json::from_value(&db).expect("the database reads back")
}

/// Layers of `width` tasks at the four palette sizes; every task below
/// the first layer is fed by two pseudo-random tasks of the layer above.
/// With `scramble` the ids within a layer are handed out in a stride
/// order, so the ready frontier receives ids in no particular order.
pub fn layered(tasks: usize, width: usize, scramble: bool) -> Afg {
    let mut g = Afg::new("layered");
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    for i in 0..tasks {
        let (inputs, size) = (if i < width { 0 } else { 2 }, [64_000, 128_000, 256_000, 512_000]);
        g.tasks.push(task_node(TaskId(i as u32), inputs, size[i % 4]));
    }
    // 7919 is prime and divides no layer size used here, so
    // `k * 7919 % in_layer` is a permutation of the layer.
    let slot = |layer: usize, k: usize| {
        let in_layer = (tasks - layer * width).min(width);
        layer * width + if scramble { k * 7919 % in_layer } else { k }
    };
    for layer in 1..tasks.div_ceil(width) {
        for k in 0..(tasks - layer * width).min(width) {
            for port in 0..2u16 {
                g.edges.push(Edge {
                    from: TaskId(slot(layer - 1, next() % width) as u32),
                    from_port: PortIndex(0),
                    to: TaskId(slot(layer, k) as u32),
                    to_port: PortIndex(port),
                    data_size: 1_000 + (next() % 1_000_000) as u64,
                });
            }
        }
    }
    g
}

/// The palette AFG: [`layered`] `tasks / 8` wide, every third task an
/// 8-node parallel task.
pub fn palette_afg(tasks: usize) -> Afg {
    let mut afg = layered(tasks, tasks / 8, false);
    for t in afg.tasks.iter_mut().step_by(3) {
        t.props.mode = ComputationMode::Parallel;
        t.props.num_nodes = 8;
    }
    afg
}

/// `hosts` Linux hosts `s<site>h<i>` and one Sun host, speeds 1–8; the
/// Sun host down when `sun_down`.
fn site_repo(site: usize, hosts: usize, sun_down: bool, rng: &mut StdRng) -> SiteRepository {
    let repo = SiteRepository::new();
    repo.resources_mut(|db| {
        let linux = (0..hosts).map(|h| (format!("s{site}h{h}"), MachineType::LinuxPc));
        for (name, machine) in linux.chain([(sun_host(site), MachineType::SunSolaris)]) {
            let speed = 1.0 + f64::from(rng.gen_range(0..8u8));
            db.upsert(ResourceRecord::new(name, "10.0.0.1", machine, speed, 1, 1 << 30, "g0"));
        }
        if sun_down {
            db.set_status(&sun_host(site), HostStatus::Down);
        }
    });
    repo
}

fn random_links(net: &mut NetworkModel, sites: usize, rng: &mut StdRng) {
    for a in 0..sites {
        for b in a + 1..sites {
            let d = f64::from(rng.gen_range(0..256u16));
            let link = LinkParams::new(0.001 + d / 500.0, 1e6 * (1.0 + d));
            net.set_link(SiteId(a as u16), SiteId(b as u16), link);
        }
    }
}

/// `data` with every dataset homed at `site`: its replicas there alone
/// when `only_there`, there and where they were otherwise.
fn homed_at(data: &DataView, datasets: &[DatasetId], site: SiteId, only_there: bool) -> DataView {
    let specs = datasets
        .iter()
        .filter_map(|&id| data.get(id).map(|spec| (id, spec)))
        .map(|(id, spec)| {
            let mut sites = if only_there { vec![] } else { spec.sites.clone() };
            sites.push(site);
            sites.sort_unstable();
            sites.dedup();
            (id, DatasetSpec { size: spec.size, sites, home: Some(site) })
        })
        .collect::<BTreeMap<_, _>>();
    DataView::from_specs(specs)
}

/// Every path of Figure 2 and Figure 3 against its reference on `case`.
/// Each prediction, start and finish is compared with `to_bits`.
pub fn check_paths(case: &Case) {
    let table = check_walks(case);
    check_primary_only(case);
    if let Ok(table) = &table {
        check_table_valid(case, table);
        check_evaluation(case, table);
    }
}

/// Figure 3's classed selection and §3's class-priced level pass against
/// their references at every site, and Figure 2's classed walk, observed
/// pipeline, walk over collected outputs and incremental construction
/// against the reference walk. Returns the classed walk's answer.
pub fn check_walks(case: &Case) -> Result<AllocationTable, SchedError> {
    let Case { name, afg, views, net, data, config, .. } = case;
    let (local, remotes) = (&views[0], &views[1..]);
    let (predictor, parallel) = (&config.predictor, &config.parallel);

    // Figure 3 at every site: the classed selection is the reference's,
    // through one memo shared across sites as the pipeline shares it.
    let memo = PredictCache::new();
    for view in views {
        let want = host_selection(view, afg, predictor, parallel);
        let got = host_selection_classed(view, afg, predictor, parallel, &memo);
        same_choices(&got, &want, name, "host selection");
    }
    check_levels(case);

    // Figure 2: the reference walk, the classed walk and the observed
    // pipeline. The observed entry point takes no catalog view, so it
    // answers as the reference does without one.
    let reference = SchedulerConfig { sequential: true, ..*config };
    let classed = SchedulerConfig { sequential: false, ..*config };
    let want = site_schedule(&SchedRequest { config: &reference, ..case.request() });
    let got = site_schedule(&SchedRequest { config: &classed, ..case.request() });
    same_tables(&got, &want, name, "classed walk");
    let metrics = MetricsRegistry::new();
    let metered =
        SchedRequest { config: &classed, data: None, metrics: Some(&metrics), ..case.request() };
    let observed = site_schedule(&metered);
    if case.reads_datasets() {
        let refused =
            site_schedule(&SchedRequest { config: &reference, data: None, ..case.request() });
        same_tables(&observed, &refused, name, "observed pipeline");
    } else {
        same_tables(&observed, &want, name, "observed pipeline");
    }
    if observed.is_ok() {
        assert_eq!(metrics.counter("sched.tasks_placed"), afg.task_count() as u64, "{name}");
    }

    // The walk alone, over the outputs of the sites step 2 involves.
    let levels = local.levels(afg).expect("generated graphs are acyclic");
    let mut involved = vec![local];
    for site in net.nearest_neighbours(local.site, config.k_neighbours) {
        involved.extend(remotes.iter().find(|v| v.site == site));
    }
    let memo = PredictCache::new();
    let outputs: Vec<_> = involved
        .iter()
        .map(|v| host_selection_classed(v, afg, predictor, parallel, &memo))
        .collect();
    let walk =
        |data| SchedRequest { config: &classed, data, ..case.request() }.walk(&levels, &outputs);
    same_tables(&walk(Some(data)), &want, name, "walk over collected outputs");

    // Incremental from empty: a topological walk through the same argmin,
    // without spreading and without a catalog view, so a dataset read is
    // refused up front as the walk refuses it without a view. Which of
    // several infeasible tasks it names depends on the order.
    if !config.spread_critical {
        let ignore = config.ignore_transfer_time;
        let inc = IncrementalSchedule::new(afg, local.site, outputs.clone(), net, ignore)
            .map(|s| s.table().clone());
        let full = walk(None);
        if !(inc.is_err() && matches!(full, Err(SchedError::NoFeasibleSite { .. }))) {
            same_tables(&inc, &full, name, "incremental");
        }
    }

    got
}

/// §3's level pass at every site, which prices each task class once and
/// each task by id alone, and `level_map` / `blevel_map`, against the
/// node-keyed level pass they replaced (every task priced through its
/// node, edges read through the scanning accessor), bit for bit.
pub fn check_levels(case: &Case) {
    let Case { name, afg, views, .. } = case;
    let bits = |l: Result<Vec<f64>, LevelError>| l.map(|l| l.iter().map(|x| x.to_bits()).collect());
    let comm = |bytes: u64| bytes as f64 * 1e-6;
    for view in views {
        let cost =
            |t: &TaskNode| view.tasks.base_time(&t.library_task, t.problem_size).unwrap_or(0.0);
        let want: Result<Vec<u64>, _> = bits(node_keyed_levels(afg, cost, |_| 0.0));
        assert_eq!(bits(view.levels(afg)), want, "{name}: levels at site {}", view.site);
        assert_eq!(bits(level_map(afg, cost)), want, "{name}: level_map at site {}", view.site);
        let want = bits(node_keyed_levels(afg, cost, comm));
        let got = bits(blevel_map(afg, cost, comm));
        assert_eq!(got, want, "{name}: blevel_map at site {}", view.site);
    }
}

/// The level pass as it read before it took task ids and a shared edge
/// index: the oracle of [`check_levels`].
fn node_keyed_levels(
    afg: &Afg,
    cost: impl Fn(&TaskNode) -> f64,
    comm: impl Fn(u64) -> f64,
) -> Result<Vec<f64>, LevelError> {
    let order = afg.topo_order().ok_or(LevelError::Cyclic)?;
    let mut level = vec![0.0f64; afg.task_count()];
    for &t in order.iter().rev() {
        let mut best = 0.0f64;
        for e in afg.out_edges(t) {
            let via = comm(e.data_size) + level[e.to.index()];
            if via > best {
                best = via;
            }
        }
        level[t.index()] = cost(afg.task(t)) + best;
    }
    Ok(level)
}

/// Figure 3 at every site the way the site scheduler runs it, over one
/// task-class index shared by every site: `shared` selects at a view
/// over that index through the memo it is given (the index is
/// crate-private, so only the crate's own tests can build one). Each
/// answer, and the memo's counts, are the one-shot
/// `host_selection_classed`'s, and the answers the reference's, bit for
/// bit.
pub fn check_shared_selection(
    case: &Case,
    mut shared: impl FnMut(&SiteView, &PredictCache) -> HostSelectionOutput,
) {
    let Case { name, afg, views, config, .. } = case;
    let (predictor, parallel) = (&config.predictor, &config.parallel);
    let (memo, shared_memo) = (PredictCache::new(), PredictCache::new());
    for view in views {
        let want = host_selection(view, afg, predictor, parallel);
        let one_shot = host_selection_classed(view, afg, predictor, parallel, &memo);
        same_choices(&one_shot, &want, name, "host selection");
        same_choices(&shared(view, &shared_memo), &want, name, "selection over a shared index");
    }
    let counts = |m: &PredictCache| (m.len(), m.hits(), m.misses());
    assert_eq!(counts(&shared_memo), counts(&memo), "{name}: memo counts");
}

/// The same output, every prediction compared bit for bit.
pub fn same_choices(got: &HostSelectionOutput, want: &HostSelectionOutput, case: &str, path: &str) {
    let site = want.site;
    assert_eq!(got, want, "{case}: {path} at site {site}");
    for (t, c) in want.choices.iter() {
        let bits = got.choice(t).map(|g| g.predicted_seconds.to_bits());
        assert_eq!(bits, Some(c.predicted_seconds.to_bits()), "{case}: {path}: {t} at {site}");
    }
}

/// Data-aware with one replica per dataset, at the parent site, is the
/// parent-site-only ablation of any view homed there, recorded sources
/// and JSON included. A case that reads no dataset has nothing to check.
pub fn check_primary_only(case: &Case) {
    let Case { name, afg, views, data, .. } = case;
    let local = &views[0];
    let ids: Vec<DatasetId> =
        afg.tasks.iter().flat_map(|t| &t.props.inputs).filter_map(IoSpec::dataset_id).collect();
    if ids.is_empty() {
        return;
    }
    let single = homed_at(data, &ids, local.site, true);
    let primary = homed_at(data, &ids, local.site, false).primary_only();
    let a = site_schedule(&SchedRequest { data: Some(&single), ..case.request() });
    let b = site_schedule(&SchedRequest { data: Some(&primary), ..case.request() });
    same_tables(&b, &a, name, "primary-only view");
}

/// `evaluate` with and without the catalog view against
/// [`evaluate_reference`] on `table`, a table scheduled for `case`, and
/// the timed schedule's validity.
pub fn check_evaluation(case: &Case, table: &AllocationTable) {
    let Case { name, afg, views, net, data, .. } = case;
    let levels = views[0].levels(afg).expect("generated graphs are acyclic");
    let timed = evaluate(afg, table, net, &levels, Some(data));
    let want = evaluate_reference(afg, table, net, &levels, Some(data));
    same_schedules(table, &timed, &want, name);
    let plain = evaluate(afg, table, net, &levels, None);
    same_schedules(table, &plain, &evaluate_reference(afg, table, net, &levels, None), name);
    check_schedule_valid(afg, &timed.expect("a scheduled table evaluates"), name);
}

/// `case` scheduled by its own configuration, with its catalog view.
pub fn schedule(case: &Case) -> Result<AllocationTable, SchedError> {
    site_schedule(&case.request())
}

/// The same result, and on success the same rows, predictions compared
/// bit for bit, and the same JSON.
pub fn same_tables(
    got: &Result<AllocationTable, SchedError>,
    want: &Result<AllocationTable, SchedError>,
    case: &str,
    path: &str,
) {
    assert_eq!(got, want, "{case}: {path}");
    if let (Ok(got), Ok(want)) = (got, want) {
        for (g, w) in got.iter().zip(want.iter()) {
            let (g, w) = (g.predicted_seconds.to_bits(), w.predicted_seconds.to_bits());
            assert_eq!(g, w, "{case}: {path}: prediction of a task");
        }
        assert_eq!(got.to_json(), want.to_json(), "{case}: {path}");
    }
}

/// `evaluate`'s answer against the reference's: the same result, and on
/// success the same schedule field by field, every time bit for bit,
/// with each timed task sharing its placement's host list.
pub fn same_schedules(
    table: &AllocationTable,
    got: &Result<Schedule, EvalError>,
    want: &Result<Schedule, EvalError>,
    case: &str,
) {
    let (Ok(got), Ok(want)) = (got, want) else {
        assert_eq!(got, want, "{case}: evaluate");
        return;
    };
    assert_eq!(got.tasks.len(), want.tasks.len(), "{case}");
    for (g, w) in got.tasks.iter().zip(&want.tasks) {
        let t = g.task;
        assert_eq!((t, g.site, &g.hosts), (w.task, w.site, &w.hosts), "{case}: {t}");
        assert_eq!(g.start.to_bits(), w.start.to_bits(), "{case}: start of {t}");
        assert_eq!(g.finish.to_bits(), w.finish.to_bits(), "{case}: finish of {t}");
        let placed = &table.placement(t).expect("evaluated tasks are placed").hosts;
        assert!(Arc::ptr_eq(&g.hosts, placed), "{case}: hosts of {t} were copied");
    }
    assert_eq!(got.makespan.to_bits(), want.makespan.to_bits(), "{case}: makespan");
}

/// Every task placed once, on up hosts of its site that match its
/// machine type, no more of them than it asks for, for a finite,
/// non-negative time.
pub fn check_table_valid(case: &Case, table: &AllocationTable) {
    let name = &case.name;
    assert!(table.is_complete_for(&case.afg), "{name}: incomplete table");
    for p in table.iter() {
        let view = case.views.iter().find(|v| v.site == p.site).expect("placement site exists");
        let props = &case.afg.task(p.task).props;
        assert!(p.hosts.len() as u32 <= props.effective_nodes(), "{name}: {} hosts", p.task);
        for h in p.hosts.iter() {
            let rec = view.resources.get(h).unwrap_or_else(|| panic!("{name}: {h} not at site"));
            assert!(rec.is_up(), "{name}: {h} is down");
            let any = props.machine_type == MachineType::Any;
            assert!(any || rec.machine == props.machine_type, "{name}: {h} for {}", p.task);
        }
        let secs = p.predicted_seconds;
        assert!(secs.is_finite() && secs >= 0.0, "{name}: {} takes {secs}", p.task);
    }
}

/// Precedence, host exclusivity, and the makespan as the last finish.
pub fn check_schedule_valid(afg: &Afg, schedule: &Schedule, case: &str) {
    for e in &afg.edges {
        let (from, to) = (&schedule.tasks[e.from.index()], &schedule.tasks[e.to.index()]);
        assert!(to.start >= from.finish - 1e-9, "{case}: precedence {} -> {}", e.from, e.to);
    }
    let mut per_host: HashMap<&str, Vec<(f64, f64)>> = HashMap::new();
    for t in &schedule.tasks {
        for h in t.hosts.iter() {
            per_host.entry(h.as_str()).or_default().push((t.start, t.finish));
        }
    }
    for (host, mut runs) in per_host {
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in runs.windows(2) {
            assert!(w[1].0 >= w[0].1 - 1e-9, "{case}: {host} runs two tasks at once: {w:?}");
        }
    }
    let last = schedule.tasks.iter().map(|t| t.finish).fold(0.0f64, f64::max);
    assert!((schedule.makespan - last).abs() < 1e-9, "{case}: makespan");
}

/// A ready task: popped highest level first, ties by ascending id — the
/// order `evaluate` and the walk specify.
struct Ready(f64, TaskId);

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then_with(|| other.1.cmp(&self.1))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ready {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ready {}

/// [`evaluate`] the plain way, over the public API only: the
/// table looked up by task wherever a row is needed, hosts numbered by
/// name in task order, a separate acyclicity pass, and each dataset read
/// resolved through [`DataView::get`]. Same rules: an input arrives at
/// its parent's finish plus the transfer (free between tasks sharing a
/// host), a dataset from its recorded source or else its cheapest
/// replica, and a task starts once its inputs are in and all its hosts
/// are free.
pub fn evaluate_reference(
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
    let mut reads: Vec<Vec<(DatasetId, &DatasetSpec)>> = vec![Vec::new(); n];
    for t in afg.task_ids() {
        for id in afg.task(t).props.inputs.iter().filter_map(IoSpec::dataset_id) {
            let spec = data.and_then(|v| v.get(id)).ok_or(EvalError::UnknownDataset(t, id))?;
            if spec.sites.is_empty() {
                return Err(EvalError::NoLiveReplica(t, id));
            }
            reads[t.index()].push((id, spec));
        }
    }
    if let Some(t) = afg.task_ids().find(|&t| table.placement(t).is_none()) {
        return Err(EvalError::MissingPlacement(t));
    }
    if !afg.is_dag() {
        return Err(EvalError::Cyclic);
    }
    let row = |t: TaskId| table.placement(t).expect("checked above");

    let mut host_index: HashMap<&str, usize> = HashMap::new();
    for t in afg.task_ids() {
        for h in row(t).hosts.iter() {
            let next = host_index.len();
            host_index.entry(h).or_insert(next);
        }
    }
    let mut host_free = vec![0.0f64; host_index.len()];
    let mut finish = vec![0.0f64; n];
    let mut timed: Vec<Option<TimedTask>> = vec![None; n];
    let mut remaining = afg.in_degrees();
    let mut ready: BinaryHeap<Ready> =
        afg.entry_nodes().into_iter().map(|t| Ready(levels[t.index()], t)).collect();

    while let Some(Ready(_, task)) = ready.pop() {
        let p = row(task);
        let mut data_ready = 0.0f64;
        for e in afg.in_edges(task) {
            let from = row(e.from);
            let same_host = from.hosts.iter().any(|h| p.hosts.contains(h));
            let xfer =
                if same_host { 0.0 } else { net.transfer_time(from.site, p.site, e.data_size) };
            data_ready = data_ready.max(finish[e.from.index()] + xfer);
        }
        for &(id, spec) in &reads[task.index()] {
            let src = match p.data_sources.iter().find(|s| s.dataset == id) {
                Some(s) => s.source,
                None => {
                    vdce_predict::cheapest_source_seconds(net, p.site, &spec.sites, spec.size)
                        .expect("a live replica")
                        .0
                }
            };
            data_ready = data_ready.max(net.transfer_time(src, p.site, spec.size));
        }
        let hosts: Vec<usize> = p.hosts.iter().map(|h| host_index[h.as_str()]).collect();
        let hosts_ready = hosts.iter().map(|&h| host_free[h]).fold(0.0f64, f64::max);
        let start = data_ready.max(hosts_ready);
        let end = start + p.predicted_seconds.max(0.0);
        finish[task.index()] = end;
        for &h in &hosts {
            host_free[h] = end;
        }
        let hosts = p.hosts.clone();
        timed[task.index()] = Some(TimedTask { task, site: p.site, hosts, start, finish: end });
        for e in afg.out_edges(task) {
            remaining[e.to.index()] -= 1;
            if remaining[e.to.index()] == 0 {
                ready.push(Ready(levels[e.to.index()], e.to));
            }
        }
    }
    let tasks: Vec<TimedTask> =
        timed.into_iter().map(|t| t.expect("a DAG walk times all")).collect();
    let makespan = tasks.iter().map(|t| t.finish).fold(0.0, f64::max);
    Ok(Schedule { tasks, makespan })
}
