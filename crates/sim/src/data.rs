//! Data-aware workload generators (the PR-10 dataset family).
//!
//! Two workload shapes exercise the dataset catalog end to end:
//!
//! - [`sweep_workload`] — a Nimrod/G-style parameter sweep (PAPERS.md):
//!   one shared input dataset, many independent reader tasks whose
//!   problem sizes span a log-uniform range. The catalog journals every
//!   replica event, so a run can be replayed from the journal and
//!   compared bit-for-bit.
//! - [`pipeline_workload`] — a data-intensive pipeline in the Grid
//!   Service Broker mould (Venugopal & Buyya, PAPERS.md): a slow
//!   *archive* site holds the home replica of every stage-input
//!   dataset, fast compute sites hold cached replicas. Data-aware
//!   placement reads the co-located replica at a fast site;
//!   parent-site-only placement (the [`DataView::primary_only`](vdce_data::DataView::primary_only)
//!   ablation) must either compute at the slow archive or pull the
//!   dataset over the WAN — which is exactly the margin the `data` experiment
//!   gates on.
//!
//! Both generators are deterministic in their seed: same seed, same
//! AFG, same catalog state, same journal history.

use crate::dag_gen::task_name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use vdce_afg::{
    validate, Afg, DatasetId, Edge, IoSpec, KernelKind, MachineType, PortIndex, TaskId, TaskNode,
    TaskProperties,
};
use vdce_data::catalog::seed_dataset;
use vdce_data::DatasetCatalog;
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_repository::resources::ResourceRecord;
use vdce_repository::SiteRepository;
use vdce_sched::view::SiteView;
use vdce_store::{Journal, SnapshotPolicy};

/// A dataset workload ready to schedule: the federation (repositories,
/// captured views, network), the AFG, and the journaled catalog whose
/// [`DatasetCatalog::view`] feeds the data-aware scheduler.
pub struct DataScenario {
    /// Inter-site network model.
    pub net: NetworkModel,
    /// One repository per site, index = site id.
    pub repos: Vec<SiteRepository>,
    /// Captured scheduling views, parallel to `repos` (index 0 = the
    /// local front-end site).
    pub views: Vec<SiteView>,
    /// The application flow graph (validated).
    pub afg: Afg,
    /// The dataset catalog, journaling to [`DataScenario::journal`].
    pub catalog: DatasetCatalog,
    /// The catalog's write-ahead journal — replaying its history must
    /// reconstruct [`DataScenario::catalog`] bit-identically.
    pub journal: Journal,
}

fn site_repo(site: u16, hosts: usize, speed: f64) -> SiteRepository {
    let repo = SiteRepository::new();
    repo.resources_mut(|db| {
        for h in 0..hosts {
            db.upsert(ResourceRecord::new(
                format!("s{site}h{h}"),
                format!("10.{site}.0.{}", h + 1),
                MachineType::LinuxPc,
                speed,
                1,
                1 << 30,
                format!("s{site}-g0"),
            ));
        }
    });
    repo
}

fn capture_views(repos: &[SiteRepository]) -> Vec<SiteView> {
    repos.iter().enumerate().map(|(i, r)| SiteView::capture(SiteId(i as u16), r)).collect()
}

fn reader(id: u32, name: fmt::Arguments<'_>, size: u64, dataset: DatasetId) -> TaskNode {
    TaskNode {
        id: TaskId(id),
        name: task_name(name),
        library_task: "Map".into(),
        kernel: KernelKind::Map,
        problem_size: size,
        props: TaskProperties {
            inputs: vec![IoSpec::dataset(dataset)],
            outputs: vec![IoSpec::Dataflow],
            ..TaskProperties::default()
        },
    }
}

fn map_node(id: u32, name: fmt::Arguments<'_>, size: u64, ins: usize, outs: usize) -> TaskNode {
    TaskNode {
        id: TaskId(id),
        name: task_name(name),
        library_task: if outs == 0 { "Sink".into() } else { "Map".into() },
        kernel: if outs == 0 { KernelKind::Sink } else { KernelKind::Map },
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

/// Parameter sweep: `tasks` independent readers of one shared dataset,
/// problem sizes log-uniform in `[50k, 500k]`. Three homogeneous
/// 4-host sites; the dataset is replicated at sites 0 and 1 (home 0)
/// with generous storage caps, so every capacity check is live but
/// never violated.
pub fn sweep_workload(tasks: usize, dataset_bytes: u64, seed: u64) -> DataScenario {
    let repos: Vec<SiteRepository> = (0..3).map(|s| site_repo(s, 4, 1.0)).collect();
    let views = capture_views(&repos);
    let net = NetworkModel::with_defaults(3);

    let journal = Journal::enabled(SnapshotPolicy::manual());
    let mut catalog = DatasetCatalog::new();
    catalog.attach_journal(journal.clone());
    for s in 0..3u16 {
        catalog.set_capacity(SiteId(s), 1 << 40);
    }
    seed_dataset(&mut catalog, DatasetId(1), dataset_bytes, &[SiteId(0), SiteId(1)])
        .expect("sweep dataset fits the fresh catalog");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Afg::new(format!("sweep-{tasks}t-s{seed}"));
    for i in 0..tasks {
        let size = log_uniform(&mut rng, 50_000, 500_000);
        g.tasks.push(reader(i as u32, format_args!("p{i}"), size, DatasetId(1)));
    }
    debug_assert!(validate(&g).is_ok(), "sweep generator must emit valid AFGs");

    DataScenario { net, repos, views, afg: g, catalog, journal }
}

/// Data-intensive pipeline: `chains` parallel reader → transform chains
/// joined by one sink. Sites 0–2 are fast (speed 4) compute sites; site
/// 3 is the slow (speed 1) archive holding the *home* replica of every
/// chain's input dataset, with a cached replica at compute site
/// `chain % 3`. Under the full catalog view a reader computes at a fast
/// site next to its cached replica; under
/// [`DataView::primary_only`](vdce_data::DataView::primary_only) only the archive replica exists, so the
/// reader pays slow compute or a WAN-scale transfer of `dataset_bytes`.
pub fn pipeline_workload(chains: usize, dataset_bytes: u64, seed: u64) -> DataScenario {
    let mut repos: Vec<SiteRepository> = (0..3).map(|s| site_repo(s, 4, 4.0)).collect();
    repos.push(site_repo(3, 4, 1.0));
    let views = capture_views(&repos);
    let net = NetworkModel::with_defaults(4);

    let journal = Journal::enabled(SnapshotPolicy::manual());
    let mut catalog = DatasetCatalog::new();
    catalog.attach_journal(journal.clone());
    for s in 0..4u16 {
        catalog.set_capacity(SiteId(s), 1 << 40);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Afg::new(format!("pipeline-{chains}c-s{seed}"));
    let mut leaves = Vec::with_capacity(chains);
    for c in 0..chains {
        let id = DatasetId(c as u64 + 1);
        let cached = SiteId((c % 3) as u16);
        // Archive first: the home replica the primary-only ablation is
        // limited to.
        seed_dataset(&mut catalog, id, dataset_bytes, &[SiteId(3), cached])
            .expect("pipeline datasets fit the fresh catalog");

        let rid = g.tasks.len() as u32;
        let read_size = log_uniform(&mut rng, 2_000_000, 4_000_000);
        g.tasks.push(reader(rid, format_args!("read{c}"), read_size, id));
        let tid = g.tasks.len() as u32;
        let t_size = log_uniform(&mut rng, 50_000, 100_000);
        g.tasks.push(map_node(tid, format_args!("xform{c}"), t_size, 1, 1));
        g.edges.push(Edge {
            from: TaskId(rid),
            from_port: PortIndex(0),
            to: TaskId(tid),
            to_port: PortIndex(0),
            data_size: 64 << 10,
        });
        leaves.push(TaskId(tid));
    }
    let sink = g.tasks.len() as u32;
    g.tasks.push(map_node(sink, format_args!("collect"), 50_000, chains, 0));
    for (i, leaf) in leaves.iter().enumerate() {
        g.edges.push(Edge {
            from: *leaf,
            from_port: PortIndex(0),
            to: TaskId(sink),
            to_port: PortIndex(i as u16),
            data_size: 64 << 10,
        });
    }
    debug_assert!(validate(&g).is_ok(), "pipeline generator must emit valid AFGs");

    DataScenario { net, repos, views, afg: g, catalog, journal }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_data::DataView;
    use vdce_sched::{evaluate, site_schedule, SchedRequest, SchedulerConfig};

    fn schedule_and_makespan(sc: &DataScenario, view: &DataView) -> (Vec<u64>, f64) {
        let (afg, local, remotes, net) = (&sc.afg, &sc.views[0], &sc.views[1..], &sc.net);
        let (config, data) = (&SchedulerConfig::default(), Some(view));
        let req = SchedRequest { afg, local, remotes, net, config, data, metrics: None };
        let table = site_schedule(&req).expect("workload schedules");
        let levels: Vec<f64> = sc
            .afg
            .tasks
            .iter()
            .map(|t| sc.views[0].tasks.base_time(&t.library_task, t.problem_size).unwrap_or(0.0))
            .collect();
        let sched =
            evaluate(&sc.afg, &table, &sc.net, &levels, Some(view)).expect("schedules evaluate");
        let bits = table.iter().map(|p| p.predicted_seconds.to_bits()).collect();
        (bits, sched.makespan)
    }

    #[test]
    fn sweep_is_deterministic_and_valid() {
        let a = sweep_workload(40, 8 << 20, 7);
        let b = sweep_workload(40, 8 << 20, 7);
        assert!(validate(&a.afg).is_ok());
        assert_eq!(a.afg, b.afg);
        assert_eq!(a.catalog.state_hash(), b.catalog.state_hash());
        assert_eq!(a.journal.history(), b.journal.history());
        assert_eq!(a.catalog.violations(), 0);
        let c = sweep_workload(40, 8 << 20, 8);
        assert_ne!(a.afg, c.afg);
    }

    #[test]
    fn sweep_journal_replays_to_the_same_catalog() {
        let sc = sweep_workload(25, 8 << 20, 3);
        let history = sc.journal.history();
        let replayed =
            DatasetCatalog::replay(history.iter().map(|(t, p)| (t.as_str(), p.as_str())));
        assert_eq!(replayed.state(), sc.catalog.state());
        assert_eq!(replayed.state_hash(), sc.catalog.state_hash());
    }

    #[test]
    fn sweep_double_schedule_is_bit_identical() {
        let sc = sweep_workload(60, 8 << 20, 11);
        let view = sc.catalog.view();
        let (a_bits, a_mk) = schedule_and_makespan(&sc, &view);
        let (b_bits, b_mk) = schedule_and_makespan(&sc, &view);
        assert_eq!(a_bits, b_bits);
        assert_eq!(a_mk.to_bits(), b_mk.to_bits());
    }

    #[test]
    fn pipeline_data_aware_beats_primary_only() {
        let sc = pipeline_workload(6, 32 << 20, 5);
        let view = sc.catalog.view();
        let (_, data_aware) = schedule_and_makespan(&sc, &view);
        let (_, primary) = schedule_and_makespan(&sc, &view.primary_only());
        assert!(
            data_aware * 1.2 < primary,
            "data-aware {data_aware:.2}s must beat parent-site-only {primary:.2}s by ≥1.2×"
        );
        assert_eq!(sc.catalog.violations(), 0);
    }
}
