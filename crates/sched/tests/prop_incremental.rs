//! Property tests for O(changed) incremental rescheduling: after an
//! arbitrary monitor event, [`IncrementalSchedule::apply`] must produce
//! a table bit-identical to a full Figure 2 re-walk over the updated
//! host-selection outputs, while re-deciding no more than the affected
//! set (the dirty seeds plus their descendants). Construction from empty
//! is the oracle's (`common::check_paths`).
//!
//! Every site of a generated case has Linux hosts and one Sun host, and
//! in half the cases a few tasks — always the first and the last — run on
//! Sun only. An event that takes a Sun host down, or brings one up, makes
//! those tasks feasible at its site only before, or only after: one side
//! of the diff has an empty slot.

mod common;

use common::{sun_host, Case};
use proptest::prelude::*;
use std::collections::HashSet;
use vdce_afg::{Afg, MachineType, TaskId};
use vdce_net::topology::SiteId;
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::ParallelModel;
use vdce_repository::resources::HostStatus;
use vdce_repository::SiteRepository;
use vdce_sched::view::SiteView;
use vdce_sched::{
    host_selection_classed, HostSelectionOutput, IncrementalSchedule, SchedRequest, SchedulerConfig,
};

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
        seed in any::<u64>(),
        event in 0u8..3,
        kill_site in any::<u8>(),
        kill_host in any::<u8>(),
    ) {
        let Case { mut afg, repos, views, net, config, .. } = Case::random(seed);
        // Built without a catalog view, the schedule refuses dataset reads.
        for t in &mut afg.tasks {
            t.props.inputs.retain(|i| i.dataset_id().is_none());
        }
        let ignore = config.ignore_transfer_time;
        let (sites, hosts) = (repos.len(), views[0].resources.iter().count() - 1);
        // The site whose Sun host starts out Down, if any.
        let sun_down = (0..sites).find(|&s| !views[s].resources.get(&sun_host(s)).unwrap().is_up());
        let sun_only = afg.tasks[0].props.machine_type == MachineType::SunSolaris;
        let outputs = capture_outputs(&repos, &afg);
        let levels = views[0].levels(&afg).unwrap();
        let Ok(mut inc) = IncrementalSchedule::new(&afg, SiteId(0), outputs.clone(), &net, ignore)
        else {
            // The only Sun host is Down.
            prop_assert!(sun_only && sites == 1 && sun_down == Some(0));
            return Ok(());
        };

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
        let (site, host, status) = match (event, sun_down) {
            (1, _) => (ks, sun_host(ks), HostStatus::Down),
            (2, Some(down)) => (down, sun_host(down), HostStatus::Up),
            _ => (ks, format!("s{ks}h{kh}"), HostStatus::Down),
        };
        repos[site].resources_mut(|db| db.set_status(&host, status));
        let new_outputs = capture_outputs(&repos, &afg);
        let last = TaskId(afg.task_count() as u32 - 1);
        if sun_only && host == sun_host(site) && Some(site) != sun_down {
            // One-sided at both ends of the table.
            for t in [TaskId(0), last] {
                prop_assert!(outputs[site].choice(t).is_some());
                prop_assert!(new_outputs[site].choice(t).is_none());
            }
        } else if sun_only && status == HostStatus::Up {
            for t in [TaskId(0), last] {
                prop_assert!(outputs[site].choice(t).is_none());
                prop_assert!(new_outputs[site].choice(t).is_some());
            }
        }

        let config = &SchedulerConfig { sequential: false, spread_critical: false, ..config };
        let (local, net) = (&views[0], &net);
        let req =
            SchedRequest { afg: &afg, local, remotes: &[], net, config, data: None, metrics: None };
        let rewalk = req.walk(&levels, &new_outputs);
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
