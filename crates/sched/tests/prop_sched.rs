//! The scheduler's differential oracle, part by part over random cases
//! and whole over palette cases, and the properties it does not cover:
//! baselines, the dense table against its model, host selection on
//! quirky sites, a long-lived memo, `evaluate` on hand-built tables, and
//! what `k = 0` means.

mod common;

use common::{
    check_evaluation, check_paths, check_schedule_valid, check_table_valid, check_walks,
    evaluate_reference, same_schedules, schedule, Case,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use vdce_afg::{Afg, ComputationMode, DatasetId, Edge, IoSpec, MachineType, PortIndex, TaskId};
use vdce_data::{DataView, DatasetSpec};
use vdce_net::topology::SiteId;
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::ParallelModel;
use vdce_repository::resources::{HostStatus, ResourcePerfDb, ResourceRecord};
use vdce_repository::{SiteRepository, TaskConstraintsDb, TaskPerfDb};
use vdce_sched::site_scheduler::{site_schedule, SchedRequest, SchedulerConfig};
use vdce_sched::view::SiteView;
use vdce_sched::{
    baselines, evaluate, host_selection, host_selection_classed, AllocationTable, DataSource,
    SchedError, TaskPlacement,
};

/// Every placement path against the reference on the palette workload at
/// 50, 200 and 1,000 tasks over 2 and 8 sites.
#[test]
fn the_palette_workload_passes_the_oracle() {
    for tasks in [50, 200, 1000] {
        for sites in [2, 8] {
            check_paths(&Case::palette(tasks, sites));
        }
    }
}

/// The relabelled family does what it is for: in most of its cases the
/// schedule succeeds although some child ranks ahead of its parent in the
/// ready order (highest level first, ties by ascending id), across a
/// 64-task word of the ready set in many of them.
#[test]
fn relabelled_cases_rank_children_ahead_of_parents() {
    let (mut scheduled, mut inverted, mut across_words) = (0, 0, 0);
    for seed in 0..64 {
        let case = Case::relabelled(seed);
        let levels = case.views[0].levels(&case.afg).expect("generated graphs are acyclic");
        let mut by_rank: Vec<TaskId> = case.afg.task_ids().collect();
        by_rank.sort_by(|a, b| levels[b.index()].total_cmp(&levels[a.index()]).then(a.cmp(b)));
        let mut rank = vec![0; by_rank.len()];
        for (r, t) in by_rank.iter().enumerate() {
            rank[t.index()] = r;
        }
        // Does some child rank in an earlier group of `size` than its parent?
        let behind = |size: usize| {
            case.afg.edges.iter().any(|e| rank[e.to.index()] / size < rank[e.from.index()] / size)
        };
        if schedule(&case).is_ok() {
            scheduled += 1;
            inverted += usize::from(behind(1));
            across_words += usize::from(behind(64));
        }
    }
    assert!(
        scheduled >= 40 && inverted >= 16 && across_words >= 8,
        "{scheduled} {inverted} {across_words}"
    );
}

/// A table built by hand for `afg`, one row per task from four `draws`:
/// a site, one to three hosts out of that site's pool of three (so
/// children keep landing on their parents' hosts — the free-transfer
/// rule), a duration (negative ones included), and whether the host list
/// is a fresh `Arc` or the one every earlier row with that list holds.
/// Readers of a dataset record a source on odd draws only.
fn hand_built_table(afg: &Afg, sites: usize, draws: &[u8]) -> AllocationTable {
    let mut draw = draws.iter().copied().cycle();
    let mut shared: HashMap<Vec<String>, Arc<[String]>> = HashMap::new();
    let mut table = AllocationTable::new(&afg.name);
    for t in &afg.tasks {
        let site = draw.next().unwrap() as usize % sites;
        let (pick, secs, flags) =
            (draw.next().unwrap(), draw.next().unwrap(), draw.next().unwrap());
        let names: Vec<String> = (0..1 + pick as usize % 3)
            .map(|i| format!("s{site}h{}", (pick as usize / 3 + i) % 3))
            .collect();
        let hosts: Arc<[String]> = if flags & 1 == 0 {
            names.into()
        } else {
            shared.entry(names.clone()).or_insert_with(|| names.into()).clone()
        };
        let data_sources = if flags & 2 == 0 {
            vec![]
        } else {
            let source = SiteId((flags as usize / 4 % sites) as u16);
            t.props
                .inputs
                .iter()
                .filter_map(|i| i.dataset_id())
                .map(|dataset| DataSource { dataset, source })
                .collect()
        };
        table.insert(TaskPlacement {
            task: t.id,
            task_name: t.name.clone(),
            site: SiteId(site as u16),
            hosts,
            predicted_seconds: f64::from(secs) * 0.37 - 3.0,
            data_sources,
        });
    }
    table
}

/// What the allocation table was before it became dense rows, kept as the
/// model its every answer is checked against — JSON included.
#[derive(serde::Serialize)]
struct TableModel {
    application: String,
    placements: BTreeMap<TaskId, TaskPlacement>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_table_agrees_with_a_btreemap_model(
        ops in proptest::collection::vec((0u32..24, any::<u8>()), 0..48),
    ) {
        let mut table = AllocationTable::new("prop");
        let mut model = TableModel { application: "prop".into(), placements: BTreeMap::new() };
        for (i, &(task, draw)) in ops.iter().enumerate() {
            let site = u16::from(draw % 4);
            let row = TaskPlacement {
                task: TaskId(task),
                task_name: format!("n{task}").into(),
                site: SiteId(site),
                hosts: (0..1 + draw / 4 % 3).map(|h| format!("s{site}h{h}")).collect(),
                predicted_seconds: f64::from(draw) * 0.25,
                data_sources: if draw & 64 == 0 {
                    vec![]
                } else {
                    vec![DataSource { dataset: DatasetId(i as u64), source: SiteId(site) }]
                },
            };
            table.insert(row.clone());
            model.placements.insert(row.task, row);

            prop_assert_eq!(table.len(), model.placements.len());
            prop_assert_eq!(table.is_empty(), model.placements.is_empty());
            prop_assert_eq!(table.iter().len(), model.placements.len());
            prop_assert!(table.iter().eq(model.placements.values()));
            for t in (0..26).map(TaskId) {
                prop_assert_eq!(table.placement(t), model.placements.get(&t));
            }
        }
        let rows = || model.placements.values();
        let mut sites: Vec<SiteId> = rows().map(|p| p.site).collect();
        sites.sort_unstable();
        sites.dedup();
        prop_assert_eq!(table.sites_used(), sites);
        let mut hosts: Vec<&str> = rows().flat_map(|p| p.hosts.iter().map(String::as_str)).collect();
        hosts.sort_unstable();
        hosts.dedup();
        prop_assert_eq!(table.hosts_used(), hosts);
        for site in (0..5).map(SiteId) {
            let portion: Vec<&TaskPlacement> = rows().filter(|p| p.site == site).collect();
            prop_assert_eq!(table.portion_for_site(site), portion);
        }
        prop_assert_eq!(table.to_json(), serde_json::to_string_pretty(&model).unwrap());
        prop_assert_eq!(
            serde_json::to_string(&table).unwrap(),
            serde_json::to_string(&model).unwrap()
        );
        prop_assert_eq!(&AllocationTable::from_json(&table.to_json()).unwrap(), &table);
    }

    // The classed walk, the observed pipeline, the walk over collected
    // outputs and incremental construction against the reference walk
    // (`sequential: true`), and classed host selection against its
    // reference, on random cases.
    #[test]
    fn optimized_path_is_bit_identical_to_sequential_reference(seed in any::<u64>()) {
        let _ = check_walks(&Case::random(seed));
    }

    // The whole oracle on cases whose ready order is not topological: a
    // child ranked ahead of its parent must still be walked and timed in
    // the reference's order.
    #[test]
    fn relabelled_cases_pass_the_oracle(seed in any::<u64>()) {
        check_paths(&Case::relabelled(seed));
    }

    // Every table the scheduler builds places each task validly and
    // evaluates to a valid schedule.
    #[test]
    fn vdce_schedules_are_valid_and_evaluable(seed in any::<u64>()) {
        let case = Case::random(seed);
        match schedule(&case) {
            Ok(table) => {
                check_table_valid(&case, &table);
                let levels = case.views[0].levels(&case.afg).unwrap();
                let timed = evaluate(&case.afg, &table, &case.net, &levels, Some(&case.data));
                check_schedule_valid(&case.afg, &timed.unwrap(), &case.name);
            }
            // A Sun-only task finds no host where every Sun host is down.
            Err(e) => prop_assert!(matches!(e, SchedError::NoFeasibleSite { .. }), "{}", e),
        }
    }

    // `evaluate` against the reference evaluator on tables the scheduler
    // builds, where every task that picked a host set shares one `Arc`
    // with the others and parallel tasks occupy up to six hosts their
    // parents may sit on.
    #[test]
    fn evaluate_is_bit_identical_to_the_reference_on_scheduled_tables(seed in any::<u64>()) {
        let case = Case::random(seed);
        if let Ok(table) = schedule(&case) {
            check_evaluation(&case, &table);
        }
    }

    #[test]
    fn all_baselines_produce_valid_evaluable_tables(seed in any::<u64>()) {
        let case = Case::random(seed);
        let (afg, views, net) = (&case.afg, &case.views, &case.net);
        let refs: Vec<&SiteView> = views.iter().collect();
        let p = Predictor::default();
        let c = PredictCache::new();
        let tables = [
            baselines::random_schedule(afg, &refs, &p, seed, &c),
            baselines::round_robin_schedule(afg, &refs, &p, &c),
            baselines::local_only_schedule(afg, &views[0], &p, &c),
            baselines::min_min_schedule(afg, &refs, net, &p, &c),
            baselines::max_min_schedule(afg, &refs, net, &p, &c),
            baselines::heft_schedule(afg, &refs, net, &p, &c),
            baselines::heft_insertion_schedule(afg, &refs, net, &p, &c),
        ];
        let levels = views[0].levels(afg).unwrap();
        for table in tables {
            // A Sun-only task finds no host where every Sun host is down.
            let table = match table {
                Ok(table) => table,
                Err(e) => {
                    prop_assert!(matches!(e, SchedError::NoFeasibleSite { .. }), "{}", e);
                    continue;
                }
            };
            check_table_valid(&case, &table);
            let schedule = evaluate(afg, &table, net, &levels, Some(&case.data)).unwrap();
            check_schedule_valid(afg, &schedule, &case.name);
        }
    }

    // Class-batched host selection (candidate lanes + host-side terms)
    // must reproduce the per-task reference on everything the
    // eligibility filter and the model can see: continuous problem
    // sizes, measured rates on some hosts, paging / infeasible / loaded /
    // down hosts, pinned and machine-type-filtered tasks, parallel tasks
    // asking for 1–8 nodes, and an unknown library task.
    #[test]
    fn classed_host_selection_is_bit_identical_to_reference(
        seed in any::<u64>(),
        hosts in 1usize..9,
        host_quirks in proptest::collection::vec(any::<u8>(), 1..9),
        task_quirks in proptest::collection::vec(any::<u8>(), 1..12),
        measured in proptest::collection::vec((any::<u8>(), 1u32..5000), 0..6),
    ) {
        let mut afg = Case::random(seed).afg;
        for (i, t) in afg.tasks.iter_mut().enumerate() {
            let q = task_quirks[i % task_quirks.len()];
            match q % 7 {
                1 => t.props.preferred_host = Some(format!("h{}", q as usize % (hosts + 1))),
                2 => t.props.machine_type = MachineType::SunSolaris,
                3 => {
                    t.props.mode = ComputationMode::Parallel;
                    t.props.num_nodes = 1 + u32::from(q % 8);
                }
                4 => t.library_task = "Nope".into(),
                _ => {}
            }
        }
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for h in 0..hosts {
                let q = host_quirks[h % host_quirks.len()];
                let machine =
                    if q & 0x40 == 0 { MachineType::LinuxPc } else { MachineType::SunSolaris };
                let name = format!("h{h}");
                let speed = 1.0 + f64::from(q >> 4);
                db.upsert(ResourceRecord::new(&name, "10.0.0.1", machine, speed, 1, 1 << 30, "g0"));
                match q % 6 {
                    1 => drop(db.set_status(&name, vdce_repository::resources::HostStatus::Down)),
                    // Map needs 16 n bytes: 1 MiB total turns big sizes infeasible.
                    2 => db.upsert(ResourceRecord::new(&name, "10.0.0.1", machine, speed, 1, 1 << 20, "g0")),
                    3 => drop(db.record_sample(&name, 0.0, 1 << 18)), // pages above n = 16k
                    4 => drop(db.record_sample(&name, f64::from(q) / 16.0, 1 << 30)),
                    _ => {}
                }
            }
        });
        repo.tasks_mut(|db| {
            for &(h, millis) in &measured {
                db.record_execution("Map", &format!("h{}", h as usize % hosts), 50_000, f64::from(millis) / 1e3);
            }
        });
        let view = SiteView::capture(SiteId(0), &repo);
        let (p, pm) = (Predictor::default(), ParallelModel::default());
        let reference = host_selection(&view, &afg, &p, &pm);
        let cache = PredictCache::new();
        let classed = host_selection_classed(&view, &afg, &p, &pm, &cache);
        prop_assert_eq!(&reference, &classed);
        for (t, c) in reference.choices.iter() {
            prop_assert_eq!(
                c.predicted_seconds.to_bits(),
                classed.choice(t).unwrap().predicted_seconds.to_bits(),
                "task {}", t
            );
        }
        // A second call through the same memo is all term hits and the
        // same answer.
        let misses = cache.misses();
        prop_assert_eq!(&host_selection_classed(&view, &afg, &p, &pm, &cache), &classed);
        prop_assert_eq!(cache.misses(), misses);
    }

    // One memo kept across a run of views of two sites — load samples
    // (some with paging memory), status flips, hosts inserted anywhere in
    // the name order, hosts removed — must answer each call like the
    // reference on the *pinned view*: the current view with every host's
    // load taken from the first call that found it up. No task filters
    // (machine types are cleared), so every up host is a candidate of
    // every group and the first call that finds a host up is the one
    // that prices it.
    #[test]
    fn a_long_lived_memo_matches_the_reference_on_pinned_views(
        seed in any::<u64>(),
        speeds in proptest::collection::vec(any::<u8>(), 4..10),
        steps in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..32),
    ) {
        let mut afg = Case::random(seed).afg;
        for t in &mut afg.tasks {
            t.props.machine_type = MachineType::Any;
        }
        let library_tasks = afg.tasks.iter().map(|t| &t.library_task).collect::<BTreeSet<_>>().len();
        let record = |name: String, speed: u8| {
            let speed = 1.0 + f64::from(speed % 8);
            ResourceRecord::new(name, "10.0.0.1", MachineType::LinuxPc, speed, 1, 1 << 30, "g0")
        };
        // Two to five hosts a site, `s<site>h<i>`.
        let mut sites: Vec<ResourcePerfDb> = (0..2)
            .map(|s| {
                let mut db = ResourcePerfDb::new();
                for (h, &speed) in speeds.iter().enumerate().filter(|&(h, _)| h % 2 == s) {
                    db.upsert(record(format!("s{s}h{h}"), speed));
                }
                db
            })
            .collect();
        let (p, pm) = (Predictor::default(), ParallelModel::default());
        let memo = PredictCache::new();
        let mut first_up: HashMap<String, (f64, VecDeque<f64>)> = HashMap::new();
        for (k, &(what, pick, value)) in steps.iter().enumerate() {
            let s = usize::from(what & 1);
            let db = &mut sites[s];
            let names: Vec<String> = db.iter().map(|r| r.host_name.clone()).collect();
            let host = &names[usize::from(pick) % names.len()];
            match what >> 1 & 7 {
                0..=3 => {
                    let memory = if value & 0x80 == 0 { 1 << 30 } else { 1 << 16 };
                    db.record_sample(host, f64::from(value % 16) / 4.0, memory);
                }
                4 | 5 => {
                    let up = db.get(host).unwrap().is_up();
                    db.set_status(host, if up { HostStatus::Down } else { HostStatus::Up });
                }
                // Fresh names that sort first, among or after the others.
                6 => db.upsert(record(format!("s{s}{}{}", ['a', 'h', 'z'][usize::from(pick) % 3], 10 + k), value)),
                _ if names.len() > 1 => {
                    let mut kept = ResourcePerfDb::new();
                    for r in db.iter().filter(|r| r.host_name != *host) {
                        kept.upsert(r.clone());
                    }
                    *db = kept;
                }
                _ => {}
            }
            let view = SiteView {
                site: SiteId(s as u16),
                resources: sites[s].clone(),
                tasks: TaskPerfDb::standard(),
                constraints: TaskConstraintsDb::new(),
            };
            let classed = host_selection_classed(&view, &afg, &p, &pm, &memo);
            for r in view.resources.up_hosts() {
                first_up.entry(r.host_name.clone()).or_insert_with(|| (r.workload, r.workload_history.clone()));
            }
            let mut pinned = ResourcePerfDb::new();
            for r in view.resources.iter() {
                let mut r = r.clone();
                if let Some((workload, history)) = first_up.get(&r.host_name) {
                    (r.workload, r.workload_history) = (*workload, history.clone());
                }
                pinned.upsert(r);
            }
            let reference = host_selection(&SiteView { resources: pinned, ..view }, &afg, &p, &pm);
            prop_assert_eq!(&reference, &classed, "step {}", k);
            for (t, c) in reference.choices.iter() {
                let got = classed.choice(t).unwrap().predicted_seconds;
                prop_assert_eq!(c.predicted_seconds.to_bits(), got.to_bits(), "step {} task {}", k, t);
            }
            // One term per library task and host ever found up.
            prop_assert_eq!(memo.misses(), (library_tasks * first_up.len()) as u64);
            prop_assert_eq!(memo.len(), library_tasks * first_up.len());
        }
    }

    // The resolved-pass `evaluate` against the body it replaced, on
    // tables no scheduler would build: rows sharing hosts with their
    // parents, equal host lists held in distinct `Arc`s beside shared
    // ones, recorded and unrecorded replica sources, unknown and
    // replica-less datasets, and — a quarter of the time each — a missing
    // row and a back edge, half the time rows for tasks the AFG lacks.
    // Levels are arbitrary and full of ties; both walks must break them
    // alike. The case's own table is not used: only its graph, its site
    // count and its network.
    #[test]
    fn evaluate_is_bit_identical_to_the_reference_on_hand_built_tables(
        seed in any::<u64>(),
        draws in proptest::collection::vec(any::<u8>(), 4..40),
        readers in proptest::collection::vec(any::<u8>(), 0..6),
        missing_row in 0u8..4,
        extra_rows in any::<bool>(),
        back_edge in 0u8..4,
    ) {
        let Case { mut afg, views, net, .. } = Case::random(seed);
        let (n, sites) = (afg.tasks.len(), views.len());
        // Datasets 1–3 have replicas, 4 has none, 5 is not in the view.
        for &r in &readers {
            let id = match r % 32 { 30 => 4, 31 => 5, k => 1 + u64::from(k % 3) };
            afg.tasks[r as usize % n].props.inputs.push(IoSpec::dataset(DatasetId(id)));
        }
        let last = SiteId(sites as u16 - 1);
        let everywhere = (0..sites as u16).map(SiteId).collect();
        let replicas = [everywhere, vec![last], vec![SiteId(0)], vec![]];
        let specs: BTreeMap<DatasetId, DatasetSpec> = replicas
            .into_iter()
            .enumerate()
            .map(|(i, sites)| {
                let size = (1 << 20) + (u64::from(draws[i % draws.len()]) << 12);
                (DatasetId(i as u64 + 1), DatasetSpec { size, home: sites.first().copied(), sites })
            })
            .collect();
        let view = DataView::from_specs(specs);
        let data = (!readers.is_empty()).then_some(&view);

        let mut table = hand_built_table(&afg, sites, &draws);
        if missing_row == 0 {
            let gone = TaskId(u32::from(draws[0]) % n as u32);
            let mut kept = AllocationTable::new(&afg.name);
            for p in table.iter().filter(|p| p.task != gone) {
                kept.insert(p.clone());
            }
            table = kept;
        }
        if extra_rows {
            let row = table.iter().last().cloned();
            for extra in [n as u32, n as u32 + 5] {
                if let Some(mut row) = row.clone() {
                    row.task = TaskId(extra);
                    table.insert(row);
                }
            }
        }
        if back_edge == 0 {
            // Reverse an edge (or loop a lone task on itself): a cycle.
            let (from, to) = afg.edges.first().map_or((TaskId(0), TaskId(0)), |e| (e.to, e.from));
            let (from_port, to_port) = (PortIndex(0), PortIndex(0));
            afg.edges.push(Edge { from, from_port, to, to_port, data_size: 1 });
        }

        let levels: Vec<f64> = (0..n).map(|i| f64::from(draws[i % draws.len()] % 5)).collect();
        let got = evaluate(&afg, &table, &net, &levels, data);
        let want = evaluate_reference(&afg, &table, &net, &levels, data);
        prop_assert!(back_edge != 0 || want.is_err(), "a cyclic AFG evaluated");
        same_schedules(&table, &got, &want, &format!("seed {seed}"));
    }

    // Step 2 with `k = 0` involves no neighbour: every task lands at the
    // local site, or, when one cannot run there, nowhere.
    #[test]
    fn with_k0_every_task_is_placed_at_the_local_site(seed in any::<u64>()) {
        let case = Case::random(seed);
        let config = SchedulerConfig { k_neighbours: 0, ..case.config };
        let (local, remotes) = (&case.views[0], &case.views[1..]);
        let (afg, net, data) = (&case.afg, &case.net, Some(&case.data));
        let req = SchedRequest { afg, local, remotes, net, config: &config, data, metrics: None };
        match site_schedule(&req) {
            Ok(table) => prop_assert!(table.iter().all(|p| p.site == SiteId(0)), "{}", case.name),
            Err(e) => prop_assert!(matches!(e, SchedError::NoFeasibleSite { .. }), "{}", e),
        }
    }
}
