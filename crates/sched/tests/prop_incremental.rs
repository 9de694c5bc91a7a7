//! Property tests for O(changed) incremental rescheduling: after an
//! arbitrary monitor event, [`IncrementalSchedule::apply`] must produce
//! a table bit-identical to a full Figure 2 re-walk over the updated
//! host-selection outputs, while re-deciding no more than the affected
//! set (the dirty seeds plus their descendants).
//!
//! Every site has Linux hosts and one Sun host, and a few tasks — always
//! the first and the last — run on Sun only. An event that takes a Sun
//! host down, or brings one up, makes those tasks feasible at its site
//! only before, or only after: one side of the diff has an empty slot.

use proptest::prelude::*;
use std::collections::HashSet;
use vdce_afg::level::level_map;
use vdce_afg::{
    Afg, Edge, IoSpec, KernelKind, MachineType, PortIndex, TaskId, TaskNode, TaskProperties,
};
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::ParallelModel;
use vdce_repository::resources::{HostStatus, ResourceRecord};
use vdce_repository::SiteRepository;
use vdce_sched::site_scheduler::schedule_with_outputs_data;
use vdce_sched::view::SiteView;
use vdce_sched::{host_selection_classed, HostSelectionOutput, IncrementalSchedule};

/// Random layered DAG built directly (Source/Map kernels). Task 0, the
/// last task and task `sun_extra % n` accept only [`MachineType::SunSolaris`].
fn gen_afg(widths: &[u8], picks: &[u8], sizes: &[u32], sun_extra: u8) -> Afg {
    let mut g = Afg::new("prop");
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
            g.tasks.push(TaskNode {
                id,
                name: format!("n{li}_{i}").into(),
                library_task: if entry { "Source" } else { "Map" }.into(),
                kernel: if entry { KernelKind::Source } else { KernelKind::Map },
                problem_size: size,
                props: TaskProperties {
                    inputs: vec![IoSpec::Dataflow; usize::from(!entry)],
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
    let n = g.tasks.len();
    for t in [0, n - 1, sun_extra as usize % n] {
        g.tasks[t].props.machine_type = MachineType::SunSolaris;
    }
    g
}

fn sun_host(site: usize) -> String {
    format!("s{site}sun")
}

/// `hosts` Linux hosts and one Sun host per site; the Sun host of site
/// `sun_down` (if there is such a site) starts out Down.
fn gen_repos(
    sites: usize,
    hosts: usize,
    speeds: &[u8],
    sun_down: usize,
) -> (Vec<SiteRepository>, NetworkModel) {
    let mut speed_iter = speeds.iter().copied().cycle();
    let mut repos = Vec::new();
    for s in 0..sites {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            let linux = (0..hosts).map(|h| (format!("s{s}h{h}"), MachineType::LinuxPc));
            for (name, machine) in linux.chain([(sun_host(s), MachineType::SunSolaris)]) {
                db.upsert(ResourceRecord::new(
                    name,
                    "10.0.0.1",
                    machine,
                    1.0 + f64::from(speed_iter.next().unwrap() % 8),
                    1,
                    1 << 30,
                    "g0",
                ));
            }
            if s == sun_down {
                db.set_status(&sun_host(s), HostStatus::Down);
            }
        });
        repos.push(repo);
    }
    (repos, NetworkModel::with_defaults(sites))
}

fn capture_outputs(repos: &[SiteRepository], afg: &Afg) -> Vec<HostSelectionOutput> {
    repos
        .iter()
        .enumerate()
        .map(|(s, repo)| {
            let view = SiteView::capture(SiteId(s as u16), repo);
            host_selection_classed(
                &view,
                afg,
                &Predictor::default(),
                &ParallelModel::default(),
                &PredictCache::new(),
            )
        })
        .collect()
}

fn levels_for(afg: &Afg, repo: &SiteRepository) -> Vec<f64> {
    let view = SiteView::capture(SiteId(0), repo);
    level_map(afg, |t| view.tasks.base_time(&t.library_task, t.problem_size).unwrap_or(0.0))
        .unwrap()
}

/// Upper bound on the affected set: tasks whose choices differ between
/// the two output sets, plus all their descendants.
fn affected_closure(
    afg: &Afg,
    old: &[HostSelectionOutput],
    new: &[HostSelectionOutput],
) -> HashSet<TaskId> {
    let mut seeds: Vec<TaskId> = Vec::new();
    for (o, n) in old.iter().zip(new) {
        for t in afg.task_ids() {
            let changed = match (o.choices.get(t), n.choices.get(t)) {
                (Some(a), Some(b)) => {
                    a.hosts != b.hosts
                        || a.predicted_seconds.to_bits() != b.predicted_seconds.to_bits()
                }
                (None, None) => false,
                _ => true,
            };
            if changed {
                seeds.push(t);
            }
        }
    }
    let mut set: HashSet<TaskId> = HashSet::new();
    let mut stack = seeds;
    while let Some(t) = stack.pop() {
        if set.insert(t) {
            for c in afg.children(t) {
                stack.push(c);
            }
        }
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_apply_is_bit_identical_to_full_rewalk(
        widths in proptest::collection::vec(1u8..5, 1..5),
        picks in proptest::collection::vec(any::<u8>(), 1..16),
        sizes in proptest::collection::vec(any::<u32>(), 1..16),
        sites in 1u8..4,
        hosts in 1u8..4,
        speeds in proptest::collection::vec(any::<u8>(), 1..8),
        sun_extra in any::<u8>(),
        sun_down in 0u8..4,
        event in 0u8..3,
        kill_site in any::<u8>(),
        kill_host in any::<u8>(),
        ignore_transfer in any::<bool>(),
    ) {
        let afg = gen_afg(&widths, &picks, &sizes, sun_extra);
        let sites = sites.clamp(1, 4) as usize;
        let hosts = hosts.clamp(1, 4) as usize;
        // `sun_down >= sites`: every Sun host starts Up.
        let sun_down = sun_down as usize;
        let (repos, net) = gen_repos(sites, hosts, &speeds, sun_down);
        let outputs = capture_outputs(&repos, &afg);
        let levels = levels_for(&afg, &repos[0]);

        // Construction matches the full walk bit-for-bit.
        let full = schedule_with_outputs_data(
            &afg, &levels, SiteId(0), &outputs, &net, ignore_transfer, false, None, None,
        );
        let inc = IncrementalSchedule::new(
            &afg, SiteId(0), outputs.clone(), &net, ignore_transfer,
        );
        let (full, mut inc) = match (full, inc) {
            (Ok(full), Ok(inc)) => (full, inc),
            // The only Sun host is Down: unschedulable on both paths.
            (full, inc) => {
                prop_assert!(
                    full.is_err() && inc.is_err(),
                    "construction disagrees: full={full:?} incremental={inc:?}"
                );
                prop_assert!(sites == 1 && sun_down == 0);
                return Ok(());
            }
        };
        prop_assert_eq!(inc.table(), &full);

        // Applying unchanged outputs replaces nothing.
        let delta = inc.apply(&afg, outputs.clone()).unwrap();
        prop_assert_eq!(delta.replaced, 0);
        prop_assert_eq!(delta.moved, 0);

        // Monitor event; its site reselects. 0: a Linux host dies. 1: a
        // Sun host dies — the Sun-only tasks (task 0 and the last among
        // them) lose their slot at that site. 2: the Sun host that began
        // Down comes up — they gain one.
        let ks = kill_site as usize % sites;
        let kh = kill_host as usize % hosts;
        let (site, host, status) = match event {
            1 => (ks, sun_host(ks), HostStatus::Down),
            2 if sun_down < sites => (sun_down, sun_host(sun_down), HostStatus::Up),
            _ => (ks, format!("s{ks}h{kh}"), HostStatus::Down),
        };
        repos[site].resources_mut(|db| db.set_status(&host, status));
        let new_outputs = capture_outputs(&repos, &afg);
        let last = TaskId(afg.task_count() as u32 - 1);
        if host == sun_host(site) && site != sun_down {
            // One-sided at both ends of the table.
            for t in [TaskId(0), last] {
                prop_assert!(outputs[site].choice(t).is_some());
                prop_assert!(new_outputs[site].choice(t).is_none());
            }
        } else if status == HostStatus::Up {
            for t in [TaskId(0), last] {
                prop_assert!(outputs[site].choice(t).is_none());
                prop_assert!(new_outputs[site].choice(t).is_some());
            }
        }

        let rewalk = schedule_with_outputs_data(
            &afg, &levels, SiteId(0), &new_outputs, &net, ignore_transfer, false, None, None,
        );
        let applied = inc.apply(&afg, new_outputs.clone());
        match (rewalk, applied) {
            (Ok(rewalk), Ok(delta)) => {
                prop_assert_eq!(inc.table(), &rewalk);
                for (a, b) in inc.table().iter().zip(rewalk.iter()) {
                    prop_assert_eq!(
                        a.predicted_seconds.to_bits(),
                        b.predicted_seconds.to_bits(),
                        "task {} prediction must be bit-identical", a.task
                    );
                }
                // O(changed): nothing outside the affected closure is
                // re-decided.
                let closure = affected_closure(&afg, &outputs, &new_outputs);
                prop_assert!(
                    delta.replaced <= closure.len(),
                    "replaced {} > affected closure {}", delta.replaced, closure.len()
                );
            }
            // Killing the only feasible host errors on both paths; the
            // incremental schedule is poisoned, nothing more to check.
            (Err(_), Err(_)) => {}
            (full, inc) => {
                prop_assert!(
                    false,
                    "full rewalk and incremental apply disagree on feasibility: \
                     full={full:?} incremental={inc:?}"
                );
            }
        }
    }
}
