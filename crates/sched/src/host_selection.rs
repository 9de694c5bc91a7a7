//! The Host Selection Algorithm (Figure 3).
//!
//! ```text
//! 1. Retrieve task-specific parameters of AFG tasks from the
//!    task-performance database.
//! 2. Retrieve resource-specific parameters of a set of resources,
//!    R = {R1, R2, …, Rm}, from the resource-performance database.
//! 3. Set task-queue = {task_i | task_i in AFG}.
//! 4. For each task_i in task-queue:
//!      · Evaluate Predict(task_i, R_t) for all R_t in R.
//!      · Assign task_i to R_j, which minimises Predict(task_i, R_j).
//! ```
//!
//! Extended, per §3, "for parallel tasks the host selection algorithm is
//! updated to select the number of machines required within the site".
//!
//! Candidate filtering before the argmin:
//! - down hosts are skipped (failure detection marks them in the DB);
//! - the user's *preferred machine type* is honoured as a hard filter;
//! - a concrete *preferred machine* restricts the candidate set to that
//!   host;
//! - the task-constraints database must list the executable on the host
//!   (an empty constraints database is treated as "everything installed
//!   everywhere", matching a freshly initialised site).
//!
//! A task that no host of the site can run is simply absent from the
//! output; the site scheduler then tries other sites.

use crate::view::SiteView;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use vdce_afg::{Afg, ComputationMode, MachineType, TaskId};
use vdce_net::topology::SiteId;
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::{best_node_count, best_node_count_cached, ParallelModel};
use vdce_repository::resources::ResourceRecord;

/// The hosts chosen for one task at one site, with the minimised
/// prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskHostChoice {
    /// Chosen hosts (singleton for sequential tasks). Shared, immutable:
    /// a choice flows from host selection into allocation-table
    /// placements (often for thousands of tasks of the same class), and
    /// sharing the host list makes that flow a pointer copy instead of
    /// a string-vector clone per task.
    pub hosts: Arc<[String]>,
    /// Predicted execution seconds on that choice.
    pub predicted_seconds: f64,
}

/// Output of one site's host-selection run: "each site sends the mapping
/// information of each task, i.e., machine name and predicted execution
/// time, to the local site" (§3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSelectionOutput {
    /// The answering site.
    pub site: SiteId,
    /// Best choice per task; tasks infeasible at this site are absent.
    ///
    /// Choices are reference-counted so the class-batched path can hand
    /// one decision to every member of a task class without copying host
    /// strings, and so cloning an output (e.g. to absorb a monitor event
    /// incrementally) is O(tasks) pointer bumps. Shared, not mutable:
    /// replace an entry to change it.
    pub choices: BTreeMap<TaskId, Arc<TaskHostChoice>>,
}

impl HostSelectionOutput {
    /// Best choice for `task` at this site, if feasible.
    pub fn choice(&self, task: TaskId) -> Option<&TaskHostChoice> {
        self.choices.get(&task).map(Arc::as_ref)
    }
}

/// Does `host` pass the static filters for `task` in `afg`?
/// (Shared with the baseline schedulers so every algorithm sees the same
/// candidate sets.)
pub fn eligible(view: &SiteView, afg: &Afg, task: TaskId, host: &ResourceRecord) -> bool {
    let t = afg.task(task);
    if !host.is_up() {
        return false;
    }
    if !t.props.machine_type.accepts(host.machine) {
        return false;
    }
    if let Some(pref) = &t.props.preferred_host {
        if *pref != host.host_name {
            return false;
        }
    }
    // Task-constraints: empty DB = everything installed (fresh site).
    if !view.constraints.is_empty()
        && !view.constraints.is_installed(&t.library_task, &host.host_name)
    {
        return false;
    }
    true
}

/// Run the host-selection algorithm of Figure 3 for every task of `afg`
/// against the resources of `view`.
///
/// This is the *reference* implementation: one task after another, every
/// prediction evaluated directly. [`host_selection_classed`] is the
/// optimised path; the two produce bit-identical outputs (enforced by the
/// unit test below and the `prop_sched` property tests).
pub fn host_selection(
    view: &SiteView,
    afg: &Afg,
    predictor: &Predictor,
    parallel: &ParallelModel,
) -> HostSelectionOutput {
    // Collect the site's candidate resource set R once (step 2).
    let all_hosts: Vec<&ResourceRecord> = view.resources.iter().collect();
    let choices = afg
        .task_ids()
        .filter_map(|task| {
            pick_choice(view, afg, task, predictor, parallel, None, &all_hosts)
                .map(|c| (task, Arc::new(c)))
        })
        .collect();
    HostSelectionOutput { site: view.site, choices }
}

/// The per-task argmin of Figure 3, shared by the reference and the
/// class-batched path. `cache: None` evaluates every prediction directly
/// (the reference); `Some` memoises them.
fn pick_choice(
    view: &SiteView,
    afg: &Afg,
    task: TaskId,
    predictor: &Predictor,
    parallel: &ParallelModel,
    cache: Option<&PredictCache>,
    all_hosts: &[&ResourceRecord],
) -> Option<TaskHostChoice> {
    let node = afg.task(task);
    let candidates: Vec<&ResourceRecord> =
        all_hosts.iter().copied().filter(|h| eligible(view, afg, task, h)).collect();
    if candidates.is_empty() {
        return None;
    }
    let requested = match node.props.mode {
        ComputationMode::Sequential => 1,
        ComputationMode::Parallel => node.props.effective_nodes(),
    };
    let selected = match cache {
        None => best_node_count(
            predictor,
            parallel,
            &view.tasks,
            &node.library_task,
            node.problem_size,
            requested,
            &candidates,
        ),
        Some(cache) => best_node_count_cached(
            predictor,
            parallel,
            cache,
            &view.tasks,
            &node.library_task,
            node.problem_size,
            requested,
            &candidates,
        ),
    };
    match selected {
        Ok((hosts, secs)) => Some(TaskHostChoice {
            hosts: hosts.iter().map(|h| h.host_name.clone()).collect(),
            predicted_seconds: secs,
        }),
        Err(_) => None, // infeasible at this site
    }
}

/// Everything the Figure 3 argmin for one task depends on besides the
/// frozen view: two tasks with equal keys see identical candidate sets
/// and identical predictions, hence make identical choices.
///
/// - `library_task` + `problem_size` determine the prediction and the
///   constraints-database rows;
/// - `requested` (the effective node count, 1 for sequential) determines
///   the parallel search space;
/// - `machine_type` and `preferred_host` determine the eligibility
///   filter (the remaining filters depend only on the host and the
///   library task).
#[derive(PartialEq, Eq, Hash)]
struct ClassKey<'a> {
    library_task: &'a str,
    problem_size: u64,
    requested: u32,
    machine_type: MachineType,
    preferred_host: Option<&'a str>,
}

impl<'a> ClassKey<'a> {
    fn of(afg: &'a Afg, task: TaskId) -> Self {
        let node = afg.task(task);
        ClassKey {
            library_task: &node.library_task,
            problem_size: node.problem_size,
            requested: match node.props.mode {
                ComputationMode::Sequential => 1,
                ComputationMode::Parallel => node.props.effective_nodes(),
            },
            machine_type: node.props.machine_type,
            preferred_host: node.props.preferred_host.as_deref(),
        }
    }
}

/// The optimised [`host_selection`]: evaluates the argmin **once per task
/// class** instead of once per task, memoising predictions in `cache`.
///
/// Big AFGs are built from a small task library, so a 100k-task graph
/// typically has a few hundred distinct [`ClassKey`]s; every other task
/// is a clone of one of them. The class representative's choice is
/// computed by the exact same [`pick_choice`] the reference runs, then
/// cloned onto the rest of the class — bit-identical by construction.
/// Classes fan out across worker threads when there are at least two.
///
/// Host names are unique across a federation, so one cache may be shared
/// across every site of a scheduling round (and across rounds): sharing
/// never changes the choices, only how often the predictor is invoked.
/// The caller can read `cache.hits()`/`cache.misses()` afterwards — this
/// is how `site_schedule_observed` exports cache statistics.
pub fn host_selection_classed(
    view: &SiteView,
    afg: &Afg,
    predictor: &Predictor,
    parallel: &ParallelModel,
    cache: &PredictCache,
) -> HostSelectionOutput {
    let all_hosts: Vec<&ResourceRecord> = view.resources.iter().collect();

    // Group tasks by class, preserving first-seen (task id) order.
    let mut classes: Vec<Vec<TaskId>> = Vec::new();
    let mut index: HashMap<ClassKey<'_>, usize> = HashMap::new();
    for task in afg.task_ids() {
        let key = ClassKey::of(afg, task);
        match index.get(&key) {
            Some(&i) => classes[i].push(task),
            None => {
                index.insert(key, classes.len());
                classes.push(vec![task]);
            }
        }
    }

    let pick = |members: &Vec<TaskId>| -> Option<Arc<TaskHostChoice>> {
        pick_choice(view, afg, members[0], predictor, parallel, Some(cache), &all_hosts)
            .map(Arc::new)
    };
    let picked: Vec<Option<Arc<TaskHostChoice>>> = if classes.len() < 2 {
        classes.iter().map(pick).collect()
    } else {
        classes.par_iter().map(pick).collect()
    };

    // Scatter each class decision onto its members: one shared
    // allocation per class, a pointer bump per task. The dense scratch
    // restores ascending task order so the map is bulk-built from a
    // sorted stream instead of point-inserted.
    let mut by_task: Vec<Option<&Arc<TaskHostChoice>>> = vec![None; afg.task_count()];
    for (members, choice) in classes.iter().zip(&picked) {
        if let Some(c) = choice {
            for &t in members {
                by_task[t.index()] = Some(c);
            }
        }
    }
    let choices: BTreeMap<TaskId, Arc<TaskHostChoice>> = by_task
        .into_iter()
        .enumerate()
        .filter_map(|(i, c)| c.map(|c| (TaskId(i as u32), Arc::clone(c))))
        .collect();
    HostSelectionOutput { site: view.site, choices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::{AfgBuilder, IoSpec, MachineType, TaskLibrary};
    use vdce_repository::resources::{HostStatus, ResourceRecord};
    use vdce_repository::SiteRepository;

    fn record(name: &str, machine: MachineType, speed: f64) -> ResourceRecord {
        ResourceRecord::new(name, "10.0.0.1", machine, speed, 1, 1 << 30, "g0")
    }

    fn view_with(hosts: Vec<ResourceRecord>) -> SiteView {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for h in hosts {
                db.upsert(h);
            }
        });
        SiteView::capture(SiteId(0), &repo)
    }

    fn two_task_afg() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("app", &lib);
        let s = b.add_task("Source", "src", 1000).unwrap();
        let k = b.add_task("Sink", "snk", 1000).unwrap();
        b.connect(s, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    fn run(view: &SiteView, afg: &Afg) -> HostSelectionOutput {
        host_selection(view, afg, &Predictor::default(), &ParallelModel::default())
    }

    #[test]
    fn picks_the_fastest_host() {
        let view = view_with(vec![
            record("slow", MachineType::LinuxPc, 1.0),
            record("fast", MachineType::LinuxPc, 5.0),
        ]);
        let afg = two_task_afg();
        let out = run(&view, &afg);
        for t in afg.task_ids() {
            assert_eq!(out.choice(t).unwrap().hosts.to_vec(), vec!["fast".to_string()]);
        }
    }

    #[test]
    fn workload_can_beat_raw_speed() {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(record("fast_but_loaded", MachineType::LinuxPc, 2.0));
            db.upsert(record("slow_but_idle", MachineType::LinuxPc, 1.5));
            for _ in 0..4 {
                db.record_sample("fast_but_loaded", 3.0, 1 << 30);
            }
        });
        let view = SiteView::capture(SiteId(0), &repo);
        let afg = two_task_afg();
        let out = run(&view, &afg);
        // fast host: rate/2 × (1+3) = 2×; idle host: rate/1.5 ≈ 0.67× → idle wins.
        assert_eq!(
            out.choice(TaskId(0)).unwrap().hosts.to_vec(),
            vec!["slow_but_idle".to_string()]
        );
    }

    #[test]
    fn down_hosts_are_skipped() {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(record("dead_fast", MachineType::LinuxPc, 10.0));
            db.upsert(record("alive", MachineType::LinuxPc, 1.0));
            db.set_status("dead_fast", HostStatus::Down);
        });
        let view = SiteView::capture(SiteId(0), &repo);
        let out = run(&view, &two_task_afg());
        assert_eq!(out.choice(TaskId(0)).unwrap().hosts.to_vec(), vec!["alive".to_string()]);
    }

    #[test]
    fn machine_type_preference_is_a_hard_filter() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("app", &lib);
        let t = b.add_task("Source", "s", 100).unwrap();
        b.set_machine_type(t, MachineType::SunSolaris).unwrap();
        let k = b.add_task("Sink", "k", 100).unwrap();
        b.connect(t, 0, k, 0).unwrap();
        let afg = b.build().unwrap();

        let view = view_with(vec![
            record("linux_fast", MachineType::LinuxPc, 10.0),
            record("sun_slow", MachineType::SunSolaris, 1.0),
        ]);
        let out = run(&view, &afg);
        assert_eq!(out.choice(t).unwrap().hosts.to_vec(), vec!["sun_slow".to_string()]);
        // The unconstrained sink still picks the fast Linux box.
        assert_eq!(out.choice(k).unwrap().hosts.to_vec(), vec!["linux_fast".to_string()]);
    }

    #[test]
    fn preferred_host_pins_the_task() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("app", &lib);
        let t = b.add_task("Source", "s", 100).unwrap();
        b.set_preferred_host(t, "pin_me").unwrap();
        let k = b.add_task("Sink", "k", 100).unwrap();
        b.connect(t, 0, k, 0).unwrap();
        let afg = b.build().unwrap();
        let view = view_with(vec![
            record("faster", MachineType::LinuxPc, 10.0),
            record("pin_me", MachineType::LinuxPc, 1.0),
        ]);
        let out = run(&view, &afg);
        assert_eq!(out.choice(t).unwrap().hosts.to_vec(), vec!["pin_me".to_string()]);
    }

    #[test]
    fn missing_preferred_host_makes_task_infeasible_here() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("app", &lib);
        let t = b.add_task("Source", "s", 100).unwrap();
        b.set_preferred_host(t, "elsewhere").unwrap();
        let k = b.add_task("Sink", "k", 100).unwrap();
        b.connect(t, 0, k, 0).unwrap();
        let afg = b.build().unwrap();
        let view = view_with(vec![record("h", MachineType::LinuxPc, 1.0)]);
        let out = run(&view, &afg);
        assert!(out.choice(t).is_none());
        assert!(out.choice(k).is_some());
    }

    #[test]
    fn constraints_db_filters_uninstalled_hosts() {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(record("has_it", MachineType::LinuxPc, 1.0));
            db.upsert(record("lacks_it", MachineType::LinuxPc, 10.0));
        });
        repo.constraints_mut(|db| {
            db.register("Source", "has_it", "/usr/vdce/tasks/source");
            db.register("Sink", "has_it", "/usr/vdce/tasks/sink");
            db.register("Sink", "lacks_it", "/usr/vdce/tasks/sink");
        });
        let view = SiteView::capture(SiteId(0), &repo);
        let out = run(&view, &two_task_afg());
        assert_eq!(out.choice(TaskId(0)).unwrap().hosts.to_vec(), vec!["has_it".to_string()]);
        assert_eq!(out.choice(TaskId(1)).unwrap().hosts.to_vec(), vec!["lacks_it".to_string()]);
    }

    #[test]
    fn parallel_task_gets_a_node_set() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("app", &lib);
        let lu = b.add_task("LU_Decomposition", "lu", 2048).unwrap();
        b.set_mode(lu, vdce_afg::ComputationMode::Parallel).unwrap();
        b.set_num_nodes(lu, 4).unwrap();
        b.set_input(lu, 0, IoSpec::inline_file("/a.dat", 1 << 20)).unwrap();
        let afg = b.build().unwrap();
        let view = view_with(
            (0..6).map(|i| record(&format!("h{i}"), MachineType::LinuxPc, 1.0)).collect(),
        );
        let out = run(&view, &afg);
        let choice = out.choice(lu).unwrap();
        assert!(choice.hosts.len() > 1 && choice.hosts.len() <= 4);
    }

    /// The class-batched path must reproduce the reference bit-for-bit on
    /// a graph with repeated classes, a pinned task, a
    /// machine-type-filtered task, an infeasible task and a 4-node
    /// parallel task.
    #[test]
    fn classed_selection_matches_reference_bit_for_bit() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("classy", &lib);
        let src = b.add_task("Source", "src", 5000).unwrap();
        let mut prev = src;
        // Three identical Sorts (one class), two of a different size.
        for (i, size) in [(0u32, 9000u64), (1, 9000), (2, 9000), (3, 4000), (4, 4000)] {
            let s = b.add_task("Sort", &format!("s{i}"), size).unwrap();
            b.connect(prev, 0, s, 0).unwrap();
            prev = s;
        }
        let pinned = b.add_task("Sort", "pinned", 9000).unwrap();
        b.set_preferred_host(pinned, "h2").unwrap();
        b.connect(prev, 0, pinned, 0).unwrap();
        let sun = b.add_task("Sort", "sun", 9000).unwrap();
        b.set_machine_type(sun, MachineType::SunSolaris).unwrap();
        b.connect(pinned, 0, sun, 0).unwrap();
        let lost = b.add_task("Sort", "lost", 9000).unwrap();
        b.set_preferred_host(lost, "no_such_host").unwrap();
        b.connect(sun, 0, lost, 0).unwrap();
        let lu = b.add_task("LU_Decomposition", "lu", 1024).unwrap();
        b.set_mode(lu, vdce_afg::ComputationMode::Parallel).unwrap();
        b.set_num_nodes(lu, 4).unwrap();
        b.connect(lost, 0, lu, 0).unwrap();
        let afg = b.build().unwrap();

        let mut hosts: Vec<ResourceRecord> = (0..6)
            .map(|i| record(&format!("h{i}"), MachineType::LinuxPc, 1.0 + 0.3 * i as f64))
            .collect();
        hosts.push(record("sun0", MachineType::SunSolaris, 2.0));
        let view = view_with(hosts);

        let p = Predictor::default();
        let pm = ParallelModel::default();
        let reference = host_selection(&view, &afg, &p, &pm);
        let classed = host_selection_classed(&view, &afg, &p, &pm, &PredictCache::new());
        assert_eq!(reference, classed);
        assert!(classed.choice(lost).is_none());
        assert!(classed.choice(lu).unwrap().hosts.len() > 1);
        for (t, c) in &reference.choices {
            let cc = &classed.choices[t];
            assert_eq!(c.predicted_seconds.to_bits(), cc.predicted_seconds.to_bits());
        }
        // The three same-size Sorts really are one class.
        assert_eq!(classed.choices[&TaskId(1)], classed.choices[&TaskId(3)]);
    }

    #[test]
    fn empty_site_yields_empty_output() {
        let view = view_with(vec![]);
        let out = run(&view, &two_task_afg());
        assert!(out.choices.is_empty());
    }
}
