//! Property tests for the data-aware scheduling redesign (DESIGN.md
//! §18): the joint compute+transfer objective must *degrade* to the
//! paper's parent-site-only model when replica choice is trivial, and
//! every schedule must replay bit-identically from the same inputs.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vdce_afg::{
    Afg, DatasetId, Edge, IoSpec, KernelKind, MachineType, PortIndex, TaskId, TaskNode,
    TaskProperties,
};
use vdce_data::{DataView, DatasetSpec};
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_repository::resources::ResourceRecord;
use vdce_repository::SiteRepository;
use vdce_sched::view::SiteView;
use vdce_sched::{site_schedule_with_data, AllocationTable, SchedulerConfig};

/// Random layered DAG whose entry tasks read datasets: layer 0 is Map
/// readers bound to a dataset each, later layers are dataflow Maps fed
/// by one random parent.
fn gen_afg(widths: &[u8], picks: &[u8], sizes: &[u32], n_datasets: usize) -> Afg {
    let mut g = Afg::new("prop-data");
    let mut prev: Vec<TaskId> = Vec::new();
    let mut pick_iter = picks.iter().copied().cycle();
    let mut size_iter = sizes.iter().copied().cycle();
    for (li, &w) in widths.iter().enumerate() {
        let w = w.max(1) as usize;
        let mut layer = Vec::new();
        for i in 0..w {
            let id = TaskId(g.tasks.len() as u32);
            let entry = li == 0;
            let size = 1000 + size_iter.next().unwrap() as u64 % 100_000;
            let input = if entry {
                let ds = pick_iter.next().unwrap() as u64 % n_datasets as u64 + 1;
                IoSpec::dataset(DatasetId(ds))
            } else {
                IoSpec::Dataflow
            };
            g.tasks.push(TaskNode {
                id,
                name: format!("n{li}_{i}").into(),
                library_task: "Map".into(),
                kernel: KernelKind::Map,
                problem_size: size,
                props: TaskProperties {
                    inputs: vec![input],
                    outputs: vec![IoSpec::Dataflow],
                    ..TaskProperties::default()
                },
            });
            if !entry {
                let p = prev[pick_iter.next().unwrap() as usize % prev.len()];
                g.edges.push(Edge {
                    from: p,
                    from_port: PortIndex(0),
                    to: id,
                    to_port: PortIndex(0),
                    data_size: 100 + size_iter.next().unwrap() as u64 % 1_000_000,
                });
            }
            layer.push(id);
        }
        prev = layer;
    }
    g
}

fn gen_federation(sites: usize, hosts: usize, speeds: &[u8]) -> (Vec<SiteView>, NetworkModel) {
    let mut speed_iter = speeds.iter().copied().cycle();
    let mut views = Vec::new();
    for s in 0..sites {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for h in 0..hosts {
                db.upsert(ResourceRecord::new(
                    format!("s{s}h{h}"),
                    "10.0.0.1",
                    MachineType::LinuxPc,
                    1.0 + f64::from(speed_iter.next().unwrap() % 8),
                    1,
                    1 << 30,
                    "g0",
                ));
            }
        });
        views.push(SiteView::capture(SiteId(s as u16), &repo));
    }
    (views, NetworkModel::with_defaults(sites))
}

/// Datasets 1..=n, each sized from `sizes`, replicated at the given
/// site lists (home = first site).
fn gen_view(n: usize, sizes: &[u32], sites_of: impl Fn(usize) -> Vec<SiteId>) -> DataView {
    let mut size_iter = sizes.iter().copied().cycle();
    let mut specs = BTreeMap::new();
    for d in 1..=n {
        let mut sites = sites_of(d);
        sites.sort_unstable();
        sites.dedup();
        let home = sites.first().copied();
        let size = (1 << 20) | (size_iter.next().unwrap() as u64 % (64 << 20));
        specs.insert(DatasetId(d as u64), DatasetSpec { size, sites, home });
    }
    DataView::from_specs(specs)
}

fn schedule(afg: &Afg, views: &[SiteView], net: &NetworkModel, view: &DataView) -> AllocationTable {
    let cfg = SchedulerConfig::default();
    site_schedule_with_data(afg, &views[0], &views[1..], net, &cfg, Some(view))
        .expect("generated workload schedules")
}

fn table_bits(t: &AllocationTable) -> Vec<(TaskId, SiteId, Vec<String>, u64)> {
    t.iter().map(|p| (p.task, p.site, p.hosts.to_vec(), p.predicted_seconds.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // When every dataset has exactly one replica, co-located with the
    // parent (local) site, replica choice is trivial: the data-aware
    // schedule must be bit-identical to the parent-site-only ablation,
    // recorded replica sources included.
    #[test]
    fn single_colocated_replica_degrades_bit_identically(
        widths in proptest::collection::vec(1u8..5, 1..5),
        picks in proptest::collection::vec(any::<u8>(), 1..16),
        sizes in proptest::collection::vec(any::<u32>(), 1..16),
        sites in 2u8..4,
        hosts in 1u8..4,
        speeds in proptest::collection::vec(any::<u8>(), 1..8),
        n_datasets in 1usize..5,
    ) {
        let afg = gen_afg(&widths, &picks, &sizes, n_datasets);
        let (views, net) = gen_federation(sites as usize, hosts as usize, &speeds);
        // Exactly one replica per dataset, at the parent site.
        let view = gen_view(n_datasets, &sizes, |_| vec![SiteId(0)]);

        let full = schedule(&afg, &views, &net, &view);
        let primary = schedule(&afg, &views, &net, &view.primary_only());
        prop_assert_eq!(
            serde_json::to_string(&full).unwrap(),
            serde_json::to_string(&primary).unwrap(),
        );
    }

    // Same AFG, federation and catalog view in — byte-identical
    // allocation table out, however the replicas are spread.
    #[test]
    fn double_replay_is_bit_identical(
        widths in proptest::collection::vec(1u8..5, 1..5),
        picks in proptest::collection::vec(any::<u8>(), 1..16),
        sizes in proptest::collection::vec(any::<u32>(), 1..16),
        sites in 1u8..4,
        hosts in 1u8..4,
        speeds in proptest::collection::vec(any::<u8>(), 1..8),
        n_datasets in 1usize..5,
        spread in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let afg = gen_afg(&widths, &picks, &sizes, n_datasets);
        let n_sites = sites as usize;
        let (views, net) = gen_federation(n_sites, hosts as usize, &speeds);
        // Replicas scattered over a random non-empty subset of sites.
        let view = gen_view(n_datasets, &sizes, |d| {
            let a = SiteId((spread[d % spread.len()] as usize % n_sites) as u16);
            let b = SiteId((spread[(d + 1) % spread.len()] as usize % n_sites) as u16);
            vec![a, b]
        });

        let a = schedule(&afg, &views, &net, &view);
        let b = schedule(&afg, &views, &net, &view);
        prop_assert_eq!(table_bits(&a), table_bits(&b));
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
        );
    }
}
