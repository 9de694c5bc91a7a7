//! Mid-execution re-selection (§4.1's rescheduling request, scheduler
//! side).
//!
//! When the Application Controller terminates a task — its host died or
//! crossed the load threshold — the task must be placed again, against
//! the *current* state of the federation rather than the snapshot the
//! original schedule was computed from. [`reselect_task`] is that entry
//! point: the Figure-3 host-selection argmin for a single task, over
//! fresh [`SiteView`]s, minus an explicit set of banned hosts (the
//! quarantine plus any host the caller is evicting from).
//!
//! It reuses the same machinery as the full scheduler — [`eligible`] for
//! the static candidate filters and the memoised
//! [`best_node_count_cached`] ranking — and shares the caller's
//! [`PredictCache`], so a burst of re-selections after a failure costs
//! one prediction per new `(task, size, host)` triple instead of one per
//! call.

use crate::host_selection::{eligible, TaskHostChoice};
use crate::view::SiteView;
use std::collections::BTreeSet;
use vdce_afg::{Afg, ComputationMode, TaskId};
use vdce_net::topology::SiteId;
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::{best_node_count_cached, ParallelModel};
use vdce_repository::resources::ResourceRecord;

/// Re-place one task against current site views.
///
/// `views` are searched in order and ties in predicted time go to the
/// earlier view, so callers should put the task's current (or home) site
/// first — the same local-first preference the site scheduler applies.
/// `banned` hosts are excluded outright, on top of the standard
/// `eligible` filters (down hosts, machine type, preferred host,
/// constraints).
///
/// Returns the best `(site, choice)` or `None` when no site can run the
/// task right now (the caller then backs off and retries).
pub fn reselect_task(
    views: &[&SiteView],
    afg: &Afg,
    task: TaskId,
    banned: &BTreeSet<String>,
    predictor: &Predictor,
    parallel: &ParallelModel,
    cache: &PredictCache,
) -> Option<(SiteId, TaskHostChoice)> {
    let node = afg.task(task);
    let requested = match node.props.mode {
        ComputationMode::Sequential => 1,
        ComputationMode::Parallel => node.props.effective_nodes(),
    };

    let mut best: Option<(SiteId, TaskHostChoice)> = None;
    for view in views {
        let candidates: Vec<&ResourceRecord> = view
            .resources
            .iter()
            .filter(|h| !banned.contains(&h.host_name) && eligible(view, afg, task, h))
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let Ok((hosts, secs)) = best_node_count_cached(
            predictor,
            parallel,
            cache,
            &view.tasks,
            &node.library_task,
            node.problem_size,
            requested,
            &candidates,
        ) else {
            continue;
        };
        let better = match &best {
            None => true,
            Some((_, b)) => secs < b.predicted_seconds,
        };
        if better {
            best = Some((
                view.site,
                TaskHostChoice {
                    hosts: hosts.iter().map(|h| h.host_name.clone()).collect(),
                    predicted_seconds: secs,
                },
            ));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_repository::resources::{HostStatus, ResourceRecord};
    use vdce_repository::SiteRepository;

    fn record(name: &str, speed: f64) -> ResourceRecord {
        ResourceRecord::new(name, "10.0.0.1", MachineType::LinuxPc, speed, 1, 1 << 30, "g0")
    }

    fn view_with(site: u16, hosts: Vec<ResourceRecord>) -> SiteView {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for h in hosts {
                db.upsert(h);
            }
        });
        SiteView::capture(SiteId(site), &repo)
    }

    fn one_task_afg() -> (Afg, TaskId) {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("app", &lib);
        let s = b.add_task("Source", "src", 1000).unwrap();
        let k = b.add_task("Sink", "snk", 1000).unwrap();
        b.connect(s, 0, k, 0).unwrap();
        (b.build().unwrap(), s)
    }

    fn reselect(
        views: &[SiteView],
        afg: &Afg,
        task: TaskId,
        banned: &BTreeSet<String>,
        cache: &PredictCache,
    ) -> Option<(SiteId, TaskHostChoice)> {
        reselect_task(
            &views.iter().collect::<Vec<_>>(),
            afg,
            task,
            banned,
            &Predictor::default(),
            &ParallelModel::default(),
            cache,
        )
    }

    #[test]
    fn picks_the_fastest_healthy_host() {
        let (afg, t) = one_task_afg();
        let views =
            vec![view_with(0, vec![record("slow", 1.0)]), view_with(1, vec![record("fast", 8.0)])];
        let (site, choice) =
            reselect(&views, &afg, t, &BTreeSet::new(), &PredictCache::new()).unwrap();
        assert_eq!(site, SiteId(1));
        assert_eq!(choice.hosts.to_vec(), vec!["fast".to_string()]);
    }

    #[test]
    fn banned_hosts_are_excluded() {
        let (afg, t) = one_task_afg();
        let views = vec![view_with(0, vec![record("fast", 8.0), record("slow", 1.0)])];
        let banned: BTreeSet<String> = ["fast".to_string()].into_iter().collect();
        let (_, choice) = reselect(&views, &afg, t, &banned, &PredictCache::new()).unwrap();
        assert_eq!(choice.hosts.to_vec(), vec!["slow".to_string()]);
    }

    #[test]
    fn down_hosts_are_excluded() {
        let (afg, t) = one_task_afg();
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(record("dead", 8.0));
            db.upsert(record("alive", 1.0));
            db.set_status("dead", HostStatus::Down);
        });
        let views = vec![SiteView::capture(SiteId(0), &repo)];
        let (_, choice) =
            reselect(&views, &afg, t, &BTreeSet::new(), &PredictCache::new()).unwrap();
        assert_eq!(choice.hosts.to_vec(), vec!["alive".to_string()]);
    }

    #[test]
    fn none_when_every_host_is_banned() {
        let (afg, t) = one_task_afg();
        let views = vec![view_with(0, vec![record("only", 1.0)])];
        let banned: BTreeSet<String> = ["only".to_string()].into_iter().collect();
        assert!(reselect(&views, &afg, t, &banned, &PredictCache::new()).is_none());
    }

    #[test]
    fn ties_prefer_the_earlier_view() {
        let (afg, t) = one_task_afg();
        // Identical hosts at both sites → identical predictions; the
        // first (home) view must win.
        let views =
            vec![view_with(3, vec![record("a", 2.0)]), view_with(1, vec![record("b", 2.0)])];
        let (site, _) = reselect(&views, &afg, t, &BTreeSet::new(), &PredictCache::new()).unwrap();
        assert_eq!(site, SiteId(3));
    }

    #[test]
    fn shared_cache_is_reused_across_calls() {
        let (afg, t) = one_task_afg();
        let views = vec![view_with(0, vec![record("h0", 1.0), record("h1", 2.0)])];
        let cache = PredictCache::new();
        let a = reselect(&views, &afg, t, &BTreeSet::new(), &cache).unwrap();
        let misses_after_first = cache.misses();
        let b = reselect(&views, &afg, t, &BTreeSet::new(), &cache).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.misses(), misses_after_first, "second call fully cached");
        assert!(cache.hits() > 0);
    }
}
