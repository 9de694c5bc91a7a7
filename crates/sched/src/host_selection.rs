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

use crate::classes::TaskClasses;
use crate::view::SiteView;
use serde::{Deserialize, JsonReader, JsonWriter, Serialize};
use std::io::Write;
use std::ops::Range;
use std::sync::Arc;
use vdce_afg::{Afg, TaskCosts, TaskId};
use vdce_net::topology::SiteId;
use vdce_predict::cache::{PredictCache, SiteTerms};
use vdce_predict::model::{HostTerm, Predictor};
use vdce_predict::parallel::{best_node_count, rank_nodes, ParallelModel};
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

/// One site's choices for every task of an AFG: task `i`'s class, then
/// that class's choice, or none where the task cannot run at the site.
///
/// Immutable and reference-counted: cloning a table (to absorb a monitor
/// event incrementally, to keep a pending submission's outputs) is two
/// pointer bumps, and two clones are recognisably the same table
/// (`ChoiceTable::ptr_eq`) without looking at a task. The members of a
/// task class share one entry of the choice list, and every site's table
/// of one schedule shares one task → class map, so a table holds one
/// decision per class and nothing per task, and building one allocates
/// its choice list alone; the host lists inside are `Arc`s, so
/// placements still share them. Build a new table to change one.
///
/// Serialises as the JSON object `{"<task id>": {choice}, ..}` over the
/// feasible tasks in id order, so equality ignores trailing infeasible
/// tasks: they do not survive a round trip.
#[derive(Debug, Clone, Default)]
pub struct ChoiceTable {
    /// Per task, its index into `choices`: its class in the
    /// [`TaskClasses`] the table was selected over, or the task's own id
    /// where every task is its own class (the reference). A table read
    /// from the wire lists the tasks it received in arrival order and
    /// names the others [`ABSENT`].
    class_of: Arc<[u32]>,
    choices: Arc<[Option<TaskHostChoice>]>,
}

/// The index of a task a wire table did not list: past the end of any
/// choice list.
const ABSENT: u32 = u32::MAX;

/// Most tasks a table deserialised from the wire may have — a
/// [`ChoiceTable`] or an [`AllocationTable`](crate::AllocationTable): both
/// are dense, so the highest task id in the input sizes the allocation.
const MAX_WIRE_SLOTS: usize = 1 << 24;

impl ChoiceTable {
    /// The choice for `task`, if feasible at this site.
    pub fn get(&self, task: TaskId) -> Option<&TaskHostChoice> {
        self.choice_at(*self.class_of.get(task.index())?)
    }

    /// The feasible tasks with their choices, in task-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskHostChoice)> {
        let classes = self.class_of.iter().enumerate();
        classes.filter_map(|(i, &c)| Some((TaskId(i as u32), self.choice_at(c)?)))
    }

    /// The choices of the feasible tasks, in task-id order.
    pub fn values(&self) -> impl Iterator<Item = &TaskHostChoice> {
        self.iter().map(|(_, c)| c)
    }

    fn choice_at(&self, class: u32) -> Option<&TaskHostChoice> {
        self.choices.get(class as usize)?.as_ref()
    }

    /// Are `self` and `other` the same allocations — clones of one table?
    /// `true` implies equal; `false` says nothing.
    pub(crate) fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.choices, &other.choices) && Arc::ptr_eq(&self.class_of, &other.class_of)
    }

    /// Call `changed` for each task of `0..tasks` whose choice differs
    /// between `self` and `other`: feasible on one side only, other hosts
    /// (`Arc`'s `==`, a pointer compare first) or other prediction bits, as
    /// the bit-identity contract counts them. Each (old class, new class)
    /// pair is compared once, for any two class maps: `memo` (scratch, reset
    /// here) holds per old class the last new class met and its verdict; a
    /// pair it does not hold is compared again.
    pub(crate) fn diff(
        &self,
        other: &Self,
        tasks: usize,
        memo: &mut Vec<Option<(u32, bool)>>,
        mut changed: impl FnMut(TaskId),
    ) {
        let class = |t: &Self, i: usize| t.class_of.get(i).copied().unwrap_or(ABSENT);
        fn key(c: &TaskHostChoice) -> (&Arc<[String]>, u64) {
            (&c.hosts, c.predicted_seconds.to_bits())
        }
        let same = |a, b| self.choice_at(a).map(key) == other.choice_at(b).map(key);
        memo.clear();
        memo.resize(self.choices.len(), None);
        for task in 0..tasks {
            let (a, b) = (class(self, task), class(other, task));
            let verdict = match memo.get_mut(a as usize) {
                Some(&mut Some((seen, verdict))) if seen == b => verdict,
                Some(slot) => slot.insert((b, same(a, b))).1,
                None => same(a, b),
            };
            if !verdict {
                changed(TaskId(task as u32));
            }
        }
    }
}

impl PartialEq for ChoiceTable {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.iter().eq(other.iter())
    }
}

impl Serialize for ChoiceTable {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        let mut seq = w.begin_object();
        for (task, choice) in self.iter() {
            w.map_key(&mut seq, &task);
            choice.write_json(w);
        }
        w.end_object(seq);
    }
}

/// Keys may come in any order; a repeated key keeps its last value. An
/// unlisted task costs four bytes, as in a table built here.
impl Deserialize for ChoiceTable {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, serde::Error> {
        let mut class_of: Vec<u32> = Vec::new();
        let mut choices: Vec<Option<TaskHostChoice>> = Vec::new();
        let mut seq = r.begin_object("ChoiceTable")?;
        while let Some(task) = r.next_map_key::<TaskId>(&mut seq)? {
            let slot = wire_slot(task)?;
            let choice = Some(TaskHostChoice::read_json(r)?);
            if class_of.len() <= slot {
                class_of.resize(slot + 1, ABSENT);
            }
            match class_of[slot] {
                ABSENT => {
                    class_of[slot] = choices.len() as u32;
                    choices.push(choice);
                }
                c => choices[c as usize] = choice,
            }
        }
        Ok(ChoiceTable { class_of: class_of.into(), choices: choices.into() })
    }
}

/// The slot of `task` in a dense table read from the wire: its index,
/// refused at or beyond [`MAX_WIRE_SLOTS`] before anything is sized by it.
pub(crate) fn wire_slot(task: TaskId) -> Result<usize, serde::Error> {
    if task.index() >= MAX_WIRE_SLOTS {
        return Err(serde::Error::msg(format!("task id {} is beyond any dense table", task.0)));
    }
    Ok(task.index())
}

/// Output of one site's host-selection run: "each site sends the mapping
/// information of each task, i.e., machine name and predicted execution
/// time, to the local site" (§3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSelectionOutput {
    /// The answering site.
    pub site: SiteId,
    /// Best choice per task, one slot per task of the AFG.
    pub choices: ChoiceTable,
}

impl HostSelectionOutput {
    /// Best choice for `task` at this site, if feasible.
    pub fn choice(&self, task: TaskId) -> Option<&TaskHostChoice> {
        self.choices.get(task)
    }
}

/// Does `host` pass the static filters for `task` in `afg`?
/// (Shared with the baseline schedulers so every algorithm sees the same
/// candidate sets.)
pub(crate) fn eligible(view: &SiteView, afg: &Afg, task: TaskId, host: &ResourceRecord) -> bool {
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
/// unit tests below and by `tests/prop_sched.rs`, which runs the
/// scheduler oracle).
pub fn host_selection(
    view: &SiteView,
    afg: &Afg,
    predictor: &Predictor,
    parallel: &ParallelModel,
) -> HostSelectionOutput {
    // Collect the site's candidate resource set R once (step 2).
    let all_hosts: Vec<&ResourceRecord> = view.resources.iter().collect();
    let choices: Arc<[Option<TaskHostChoice>]> = (afg.task_ids())
        .map(|task| {
            let node = afg.task(task);
            let candidates: Vec<&ResourceRecord> =
                all_hosts.iter().copied().filter(|h| eligible(view, afg, task, h)).collect();
            if candidates.is_empty() {
                return None;
            }
            best_node_count(
                predictor,
                parallel,
                &view.tasks,
                &node.library_task,
                node.problem_size,
                node.props.effective_nodes(),
                &candidates,
            )
            .ok() // infeasible at this site
            .map(|(hosts, secs)| TaskHostChoice {
                hosts: hosts.iter().map(|h| h.host_name.clone()).collect(),
                predicted_seconds: secs,
            })
        })
        .collect();
    // Every task its own class.
    let class_of = (0..choices.len() as u32).collect();
    HostSelectionOutput { site: view.site, choices: ChoiceTable { class_of, choices } }
}

/// One eligible host of an eligibility group, with everything its price
/// reads of the host that does not depend on the problem size: its term
/// and its two memory figures. Eligible hosts are up, so the class loop
/// prices a lane ([`Predictor::price`]) without its host record.
#[derive(Debug)]
struct Lane {
    /// Position of the host in the view: its one-host list, its name.
    slot: u32,
    term: HostTerm,
    total_memory: u64,
    available_memory: u64,
}

/// One eligibility group at the site being selected.
#[derive(Debug)]
struct GroupLanes {
    /// Its range of [`SelectScratch::lanes`].
    lanes: Range<usize>,
    /// The site's cost models for the group, where they differ from those
    /// its classes' task-side costs were computed from: recompute them.
    recost: Option<TaskCosts>,
}

/// What one site's selection builds and drops: owned by the caller and
/// reused across the sites and calls it makes, so a selection allocates
/// no lanes of its own. It holds host slots and copied host figures, not
/// hosts, and no borrow of any view; [`select_priced`] clears it before
/// use, so it carries nothing from one site to the next.
#[derive(Debug, Default)]
pub(crate) struct SelectScratch {
    /// Every group's lanes, back to back.
    lanes: Vec<Lane>,
    /// Per group, its lanes and costs; `None` when the site's task
    /// library does not know the library task (nothing can be predicted).
    groups: Vec<Option<GroupLanes>>,
    /// One class's feasible lanes and their predictions.
    feasible: Vec<(u32, f64)>,
}

/// The optimised [`host_selection`]: the tasks' classes (see
/// `TaskClasses`) are indexed once, each eligibility group's candidate
/// lanes — eligibility filter, library entry, one host-side prediction
/// term per candidate ([`Predictor::host_term`]) beside the candidate's
/// memory — are built once, back to back in one lane list, and each class
/// prices every lane of its group ([`Predictor::price`]) and runs the
/// reference's node-count search ([`rank_nodes`]) once; every member of
/// the class shares the decision. The terms and the pricing are the code
/// the reference's `predict` runs, so the outputs are bit-identical by
/// construction.
///
/// Classes are few where a task library is small: the 40k-task palette
/// graph of `vdce_perf`'s `batch_wide` has 3 groups and 17 classes.
/// Where problem sizes vary they are many (7,833 classes for the 8,001
/// tasks of `batch_data`'s reader → transform chains) and a task costs a
/// few multiplies per candidate host.
///
/// This call indexes `afg` itself. The site scheduler and the streaming
/// service index an AFG once and run the same body at every site they
/// involve, which also prices each class's task side once.
///
/// The terms go through `cache`'s term rows for `view.site`
/// ([`PredictCache::site_terms`]). Within one call that only counts them
/// (`cache.hits()` / `cache.misses()`, how a `site_schedule` with a
/// metrics registry exports cache statistics); across calls it pins a host's term to the
/// load it was first seen at — see [`vdce_predict::cache`] for choosing
/// that scope. One memo may be shared across sites.
pub fn host_selection_classed(
    view: &SiteView,
    afg: &Afg,
    predictor: &Predictor,
    parallel: &ParallelModel,
    cache: &PredictCache,
) -> HostSelectionOutput {
    let (classes, scratch) = (&mut TaskClasses::new(afg), &mut SelectScratch::default());
    select_by_class(view, afg, classes, predictor, parallel, cache, scratch)
}

/// [`host_selection_classed`] over `classes`, the index of `afg`, its
/// terms memoised into `cache`, in `scratch`.
pub(crate) fn select_by_class(
    view: &SiteView,
    afg: &Afg,
    classes: &mut TaskClasses,
    predictor: &Predictor,
    parallel: &ParallelModel,
    cache: &PredictCache,
    scratch: &mut SelectScratch,
) -> HostSelectionOutput {
    let terms = cache.site_terms(predictor, &view.tasks, view.site, view.resources.iter());
    let side = Memoised { terms, view, lists: vec![None; view.resources.len()] };
    select_priced(view, afg, classes, predictor, parallel, side, scratch)
}

/// Where [`select_priced`] gets the host side of a view: a row per
/// eligibility group, a term per row and host, and a host's one-host list.
pub(crate) trait HostSide<'t> {
    /// A group's handle on its library task's terms.
    type Row: Copy;
    /// The row of eligibility group `group`, whose library task is `task`.
    fn row(&mut self, group: usize, task: &'t str) -> Self::Row;
    /// The term in `row` of `host`, the view's host at position `pos`.
    fn term(&mut self, row: Self::Row, pos: usize, host: &ResourceRecord) -> HostTerm;
    /// The list `[host]` for the view's host at position `pos`, shared by
    /// every singleton choice of it.
    fn host_list(&mut self, pos: usize) -> Arc<[String]>;
}

/// The batch callers' host side: terms through a memo, and one-host lists
/// made for this call on first use.
struct Memoised<'a> {
    terms: SiteTerms<'a>,
    view: &'a SiteView,
    lists: Vec<Option<Arc<[String]>>>,
}

impl<'t> HostSide<'t> for Memoised<'_> {
    type Row = (usize, &'t str);
    fn row(&mut self, _group: usize, task: &'t str) -> Self::Row {
        self.terms.row(task)
    }
    fn term(&mut self, row: Self::Row, pos: usize, host: &ResourceRecord) -> HostTerm {
        self.terms.term(row, pos, host)
    }
    fn host_list(&mut self, pos: usize) -> Arc<[String]> {
        let view = self.view;
        self.lists[pos].get_or_insert_with(|| Arc::new([host_name(view, pos)])).clone()
    }
}

/// The name of the view's host at position `pos`. A walk to it: only a
/// chosen host is named, once per call or choice.
fn host_name(view: &SiteView, pos: usize) -> String {
    let host = view.resources.iter().nth(pos).expect("a lane's slot is a position in its view");
    host.host_name.clone()
}

/// The body of [`select_by_class`] over the hosts of `view` in view
/// order, with its host side from `side`, in `scratch`. A class's
/// task-side costs are recomputed only where `view`'s library gives its
/// group other cost models than the ones they came from. The output is
/// one allocation, its choice list; `classes.class_of` is shared.
pub(crate) fn select_priced<'t>(
    view: &SiteView,
    afg: &'t Afg,
    classes: &mut TaskClasses,
    predictor: &Predictor,
    parallel: &ParallelModel,
    mut side: impl HostSide<'t>,
    scratch: &mut SelectScratch,
) -> HostSelectionOutput {
    let SelectScratch { lanes, groups, feasible } = scratch;
    lanes.clear();
    groups.clear();
    // Sized once, not grown: room for four groups' lanes (a stream
    // submission draws on three library tasks), every group, every host.
    let hosts = view.resources.len();
    lanes.reserve(hosts * classes.groups.len().min(4));
    groups.reserve(classes.groups.len());
    feasible.reserve(hosts);
    for (g, group) in classes.groups.iter_mut().enumerate() {
        let library_task = &afg.task(group.member).library_task;
        let Some(entry) = view.tasks.entry(library_task) else {
            groups.push(None);
            continue;
        };
        let costs = entry.task_costs();
        let recost = match group.costs {
            Some(from) if from.same_bits(&costs) => None,
            _ => Some(costs),
        };
        group.costs = Some(costs);
        let row = side.row(g, library_task);
        let start = lanes.len();
        for (slot, host) in view.resources.iter().enumerate() {
            if eligible(view, afg, group.member, host) {
                lanes.push(Lane {
                    slot: slot as u32,
                    term: side.term(row, slot, host),
                    total_memory: host.total_memory,
                    available_memory: host.available_memory,
                });
            }
        }
        groups.push(Some(GroupLanes { lanes: start..lanes.len(), recost }));
    }
    // One exact-length pass: collected into the table's list directly.
    let choices = classes.classes.iter_mut().map(|class| {
        let GroupLanes { lanes: range, recost } = groups[class.group as usize].as_ref()?;
        if let Some(costs) = recost {
            (class.flops, class.required) = costs.at(class.problem_size);
        }
        let (flops, required) = (class.flops, class.required);
        let lanes = &lanes[range.clone()];
        feasible.clear();
        for (i, lane) in lanes.iter().enumerate() {
            let (total, available) = (lane.total_memory, lane.available_memory);
            if let Some(t) = predictor.price(flops, required, lane.term, total, available) {
                feasible.push((i as u32, t));
            }
        }
        let (p, predicted_seconds) = rank_nodes(parallel, class.requested, feasible)?;
        let slot = |c: &(u32, f64)| lanes[c.0 as usize].slot as usize;
        let hosts = if p == 1 {
            side.host_list(slot(&feasible[0]))
        } else {
            feasible[..p].iter().map(|c| host_name(view, slot(c))).collect()
        };
        Some(TaskHostChoice { hosts, predicted_seconds })
    });
    let table = ChoiceTable { class_of: classes.class_of.clone(), choices: choices.collect() };
    HostSelectionOutput { site: view.site, choices: table }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{same_choices, Case};
    use std::collections::HashMap;
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
        for (t, c) in reference.choices.iter() {
            let cc = classed.choice(t).unwrap();
            assert_eq!(c.predicted_seconds.to_bits(), cc.predicted_seconds.to_bits());
        }
        // The three same-size Sorts really are one class: one shared host list.
        let (a, b) = (classed.choice(TaskId(1)).unwrap(), classed.choice(TaskId(3)).unwrap());
        assert!(Arc::ptr_eq(&a.hosts, &b.hosts));
    }

    /// Parameter-sweep shape: every task its own class (all problem sizes
    /// distinct), with 1-, 4- and 8-node parallel tasks, a pinned task and
    /// an infeasible one. The classed path must still match the reference
    /// bit for bit, and singleton choices on one host share one host list.
    #[test]
    fn all_distinct_sizes_match_reference_and_share_singletons() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("sweep", &lib);
        let mut prev = b.add_task("Source", "src", 5000).unwrap();
        for i in 0..24u64 {
            let s = b.add_task("Sort", &format!("s{i}"), 3000 + 137 * i).unwrap();
            b.connect(prev, 0, s, 0).unwrap();
            prev = s;
        }
        let mut parallel = Vec::new();
        for (i, nodes) in [1u32, 4, 8].into_iter().enumerate() {
            let lu = b.add_task("LU_Decomposition", &format!("lu{nodes}"), 1024 + 64 * i as u64);
            let lu = lu.unwrap();
            b.set_mode(lu, vdce_afg::ComputationMode::Parallel).unwrap();
            b.set_num_nodes(lu, nodes).unwrap();
            b.connect(prev, 0, lu, 0).unwrap();
            parallel.push(lu);
        }
        let pinned = b.add_task("Sort", "pinned", 7777).unwrap();
        b.set_preferred_host(pinned, "h5").unwrap();
        b.connect(prev, 0, pinned, 0).unwrap();
        let lost = b.add_task("Sort", "lost", 8888).unwrap();
        b.set_preferred_host(lost, "no_such_host").unwrap();
        b.connect(pinned, 0, lost, 0).unwrap();
        let afg = b.build().unwrap();

        let hosts =
            (0..10).map(|i| record(&format!("h{i}"), MachineType::LinuxPc, 1.0 + 0.2 * i as f64));
        let view = view_with(hosts.collect());
        let p = Predictor::default();
        let pm = ParallelModel::default();
        let reference = host_selection(&view, &afg, &p, &pm);
        let classed = host_selection_classed(&view, &afg, &p, &pm, &PredictCache::new());
        assert_eq!(reference, classed);
        for t in afg.task_ids() {
            match (reference.choice(t), classed.choice(t)) {
                (Some(r), Some(c)) => {
                    assert_eq!(r.hosts, c.hosts);
                    assert_eq!(r.predicted_seconds.to_bits(), c.predicted_seconds.to_bits());
                }
                (None, None) => {}
                _ => panic!("feasibility of {t:?} differs"),
            }
        }
        assert!(classed.choice(lost).is_none());
        assert_eq!(classed.choice(pinned).unwrap().hosts.to_vec(), vec!["h5".to_string()]);
        assert!(classed.choice(parallel[2]).unwrap().hosts.len() > 1);

        let mut singleton: HashMap<&str, &Arc<[String]>> = HashMap::new();
        let mut shared = 0;
        for c in classed.choices.values().filter(|c| c.hosts.len() == 1) {
            match singleton.get(c.hosts[0].as_str()) {
                Some(first) => {
                    assert!(Arc::ptr_eq(first, &c.hosts), "{} copied", c.hosts[0]);
                    shared += 1;
                }
                None => {
                    singleton.insert(&c.hosts[0], &c.hosts);
                }
            }
        }
        assert!(shared > 0, "no two singleton choices landed on one host");
    }

    fn site(hosts: &[(&str, f64)]) -> SiteRepository {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for &(name, speed) in hosts {
                db.upsert(record(name, MachineType::LinuxPc, speed));
            }
        });
        repo
    }

    /// Source → Sort → a 2-node LU → Sink: four eligibility groups, one
    /// of them choosing a host pair.
    fn memo_afg() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("memo", &lib);
        let src = b.add_task("Source", "src", 1000).unwrap();
        let sort = b.add_task("Sort", "sort", 9000).unwrap();
        let lu = b.add_task("LU_Decomposition", "lu", 1024).unwrap();
        b.set_mode(lu, vdce_afg::ComputationMode::Parallel).unwrap();
        b.set_num_nodes(lu, 2).unwrap();
        let snk = b.add_task("Sink", "snk", 1000).unwrap();
        b.connect(src, 0, sort, 0).unwrap();
        b.connect(sort, 0, lu, 0).unwrap();
        b.connect(lu, 0, snk, 0).unwrap();
        b.build().unwrap()
    }

    /// `host_selection_classed` on a fresh capture of `repo` as `site`.
    fn classed(repo: &SiteRepository, site: u16, memo: &PredictCache) -> HostSelectionOutput {
        let view = SiteView::capture(SiteId(site), repo);
        let (p, pm) = (Predictor::default(), ParallelModel::default());
        host_selection_classed(&view, &memo_afg(), &p, &pm, memo)
    }

    /// Every feasible choice as `"<task> <host+host> <prediction bits>"`.
    fn lines(out: &HostSelectionOutput) -> Vec<String> {
        let line = |(t, c): (TaskId, &TaskHostChoice)| {
            format!("{} {} {:#018x}", t.0, c.hosts.join("+"), c.predicted_seconds.to_bits())
        };
        out.choices.iter().map(line).collect()
    }

    /// `(len, hits, misses)` of a memo.
    fn counts(memo: &PredictCache) -> (usize, u64, u64) {
        (memo.len(), memo.hits(), memo.misses())
    }

    fn sample(repo: &SiteRepository, loads: &[(&str, f64)]) {
        repo.resources_mut(|db| {
            for &(host, load) in loads {
                assert!(db.record_sample(host, load, 1 << 30));
            }
        });
    }

    fn set_status(repo: &SiteRepository, host: &str, status: HostStatus) {
        repo.resources_mut(|db| assert!(db.set_status(host, status)));
    }

    /// A memo that lives across captures prices every host at the load
    /// of its first lookup: a load sample on every host moves nothing.
    #[test]
    fn a_long_lived_memo_keeps_its_first_prices_across_load_samples() {
        let repo = site(&[("h1", 1.0), ("h2", 2.0), ("h3", 3.0)]);
        let memo = PredictCache::new();
        let first = classed(&repo, 0, &memo);
        assert_eq!(
            lines(&first),
            [
                "0 h3 0x3f0179ec9cbd821e",
                "1 h3 0x3f902423089bf415",
                "2 h3+h2 0x402d9b888f3f7984",
                "3 h3 0x3f0179ec9cbd821e"
            ]
        );
        assert_eq!(counts(&memo), (12, 0, 12));

        sample(&repo, &[("h1", 0.5), ("h2", 4.0), ("h3", 2.0)]);
        let again = classed(&repo, 0, &memo);
        assert_eq!(lines(&again), lines(&first));
        assert_eq!(again, first);
        assert_eq!(counts(&memo), (12, 12, 12));
        // The samples are real: a fresh memo prices them.
        let fresh = classed(&repo, 0, &PredictCache::new());
        assert_eq!(
            lines(&fresh),
            [
                "0 h3 0x3f1a36e2eb1c432d",
                "1 h3 0x3fa836348ce9ee20",
                "2 h3+h1 0x404632170f46a561",
                "3 h3 0x3f1a36e2eb1c432d"
            ]
        );
    }

    /// A host down at the memo's first call gets its term at the first
    /// call that finds it up, and keeps it; a host up at the first call
    /// keeps its first term through a Down/Up cycle and a new load.
    #[test]
    fn a_host_is_pinned_at_the_first_call_that_finds_it_up() {
        let repo = site(&[("h1", 6.0), ("h2", 3.0), ("h3", 2.0)]);
        set_status(&repo, "h1", HostStatus::Down);
        let memo = PredictCache::new();
        assert_eq!(
            lines(&classed(&repo, 0, &memo)),
            [
                "0 h2 0x3f0179ec9cbd821e",
                "1 h2 0x3f902423089bf415",
                "2 h2+h3 0x402d9b888f3f7984",
                "3 h2 0x3f0179ec9cbd821e"
            ]
        );
        assert_eq!(counts(&memo), (8, 0, 8));

        // h1 comes up at load 0.5 and is priced there...
        set_status(&repo, "h1", HostStatus::Up);
        sample(&repo, &[("h1", 0.5)]);
        let up = classed(&repo, 0, &memo);
        assert_eq!(
            lines(&up),
            [
                "0 h1 0x3efa36e2eb1c432d",
                "1 h1 0x3f8836348ce9ee20",
                "2 h1+h2 0x40253d3b2401e3ca",
                "3 h1 0x3efa36e2eb1c432d"
            ]
        );
        assert_eq!(counts(&memo), (12, 8, 12));

        // ...and stays there.
        sample(&repo, &[("h1", 3.0)]);
        assert_eq!(lines(&classed(&repo, 0, &memo)), lines(&up));
        assert_eq!(counts(&memo), (12, 20, 12));

        // h2 leaves, then returns at a load that would lose it the pair.
        set_status(&repo, "h2", HostStatus::Down);
        assert_eq!(
            lines(&classed(&repo, 0, &memo)),
            [
                "0 h1 0x3efa36e2eb1c432d",
                "1 h1 0x3f8836348ce9ee20",
                "2 h1+h3 0x40287a3a565e8b38",
                "3 h1 0x3efa36e2eb1c432d"
            ]
        );
        assert_eq!(counts(&memo), (12, 28, 12));

        set_status(&repo, "h2", HostStatus::Up);
        sample(&repo, &[("h2", 5.0)]);
        assert_eq!(lines(&classed(&repo, 0, &memo)), lines(&up));
        assert_eq!(counts(&memo), (12, 40, 12));
    }

    /// A host whose name sorts first shifts every position of the view;
    /// it is priced at its own load, the others at their first ones.
    #[test]
    fn an_inserted_host_shifts_every_position_and_the_rest_stay_pinned() {
        let repo = site(&[("m1", 1.0), ("m2", 2.0)]);
        let memo = PredictCache::new();
        let first = classed(&repo, 0, &memo);
        assert_eq!(
            lines(&first),
            [
                "0 m2 0x3f0a36e2eb1c432c",
                "1 m2 0x3f9836348ce9ee1f",
                "2 m2+m1 0x403877aafa359576",
                "3 m2 0x3f0a36e2eb1c432c"
            ]
        );
        assert_eq!(counts(&memo), (8, 0, 8));

        sample(&repo, &[("m1", 2.0), ("m2", 2.0)]);
        repo.resources_mut(|db| db.upsert(record("a0", MachineType::LinuxPc, 5.0)));
        sample(&repo, &[("a0", 1.0)]);
        let shifted = classed(&repo, 0, &memo);
        assert_eq!(
            lines(&shifted),
            [
                "0 a0 0x3f04f8b588e368f1",
                "1 a0 0x3f935e9070bb24e6",
                "2 a0+m2 0x40308db74531ea52",
                "3 a0 0x3f04f8b588e368f1"
            ]
        );
        assert_eq!(counts(&memo), (12, 8, 12));

        // The same as a fresh memo over the first loads plus `a0`.
        let pinned = site(&[("a0", 5.0), ("m1", 1.0), ("m2", 2.0)]);
        sample(&pinned, &[("a0", 1.0)]);
        assert_eq!(lines(&classed(&pinned, 0, &PredictCache::new())), lines(&shifted));
    }

    /// One memo serves two sites; each keeps its own first prices.
    #[test]
    fn one_memo_prices_two_sites() {
        let sites = [site(&[("s0a", 1.0), ("s0b", 2.0)]), site(&[("s1a", 3.0), ("s1b", 0.5)])];
        let memo = PredictCache::new();
        let first0 = classed(&sites[0], 0, &memo);
        assert_eq!(
            lines(&first0),
            [
                "0 s0b 0x3f0a36e2eb1c432c",
                "1 s0b 0x3f9836348ce9ee1f",
                "2 s0b+s0a 0x403877aafa359576",
                "3 s0b 0x3f0a36e2eb1c432c"
            ]
        );
        assert_eq!(counts(&memo), (8, 0, 8));
        let first1 = classed(&sites[1], 1, &memo);
        assert_eq!(
            lines(&first1),
            [
                "0 s1a 0x3f0179ec9cbd821e",
                "1 s1a 0x3f902423089bf415",
                "2 s1a+s1b 0x4034a1f608acea23",
                "3 s1a 0x3f0179ec9cbd821e"
            ]
        );
        assert_eq!(counts(&memo), (16, 0, 16));

        sample(&sites[0], &[("s0a", 3.0), ("s0b", 1.0)]);
        sample(&sites[1], &[("s1a", 2.0), ("s1b", 0.0)]);
        assert_eq!(lines(&classed(&sites[1], 1, &memo)), lines(&first1));
        assert_eq!(counts(&memo), (16, 8, 16));
        assert_eq!(lines(&classed(&sites[0], 0, &memo)), lines(&first0));
        assert_eq!(counts(&memo), (16, 16, 16));
    }

    /// `view` with `task`'s `model` ("computation" or "memory_bytes")
    /// coefficient set to `coeff`, as site `site`.
    fn repriced(view: &SiteView, site: u16, task: &str, model: &str, coeff: f64) -> SiteView {
        let mut tasks = serde_json::to_value(&view.tasks).unwrap();
        let coeff = serde_json::Value::Number(serde_json::Number::F(coeff));
        tasks["library"]["entries"][task][model]["coeff"] = coeff;
        let tasks = serde_json::from_value(&tasks).unwrap();
        SiteView { site: SiteId(site), tasks, ..view.clone() }
    }

    /// Sites whose libraries give `Sort` other computation or memory
    /// models, or a computation coefficient of `-0.0` against one of
    /// `0.0`: one index and one scratch, visiting them in turn and back,
    /// price each class's task side from the visited site's own models, so
    /// each site's selection is its own one-shot selection, bit for bit.
    #[test]
    fn task_side_costs_follow_each_sites_library() {
        let afg = memo_afg();
        let hosts = (0..4).map(|i| record(&format!("h{i}"), MachineType::LinuxPc, 1.0 + i as f64));
        let base = view_with(hosts.collect());
        let (p, pm) = (Predictor::default(), ParallelModel::default());
        let sites = [
            SiteView { site: SiteId(1), ..base.clone() },
            repriced(&base, 2, "Sort", "computation", 7.5),
            // More memory than any host has: `Sort` cannot run there.
            repriced(&base, 3, "Sort", "memory_bytes", 1e30),
            repriced(&base, 4, "Sort", "computation", 0.0),
            repriced(&base, 5, "Sort", "computation", -0.0),
            SiteView { site: SiteId(6), ..base.clone() },
        ];
        let sort = TaskId(1);
        let own = |v: &SiteView| host_selection_classed(v, &afg, &p, &pm, &PredictCache::new());
        assert_ne!(lines(&own(&sites[1])), lines(&own(&sites[0])));
        assert!(own(&sites[2]).choice(sort).is_none() && own(&sites[0]).choice(sort).is_some());
        let signs = [3, 4].map(|i| own(&sites[i]).choice(sort).unwrap().predicted_seconds);
        assert_ne!(signs[0].to_bits(), signs[1].to_bits());

        let (mut classes, mut scratch) = (TaskClasses::new(&afg), SelectScratch::default());
        let memo = PredictCache::new();
        for view in sites.iter().chain(sites.iter().rev()) {
            let got = select_by_class(view, &afg, &mut classes, &p, &pm, &memo, &mut scratch);
            assert_eq!(lines(&got), lines(&own(view)), "site {}", view.site);
            assert_eq!(got, host_selection(view, &afg, &p, &pm), "site {}", view.site);
        }
    }

    /// One scratch reused across sites of different host counts, AFGs of
    /// different group counts and views missing a library task gives the
    /// table a fresh scratch gives, and keeps the lanes of the last site
    /// only.
    #[test]
    fn a_reused_scratch_selects_as_a_fresh_one() {
        let cases = (0..128).flat_map(|seed| [Case::random(seed), Case::relabelled(seed)]);
        let mut scratch = SelectScratch::default();
        for case in cases {
            let (afg, p, pm) = (&case.afg, &case.config.predictor, &case.config.parallel);
            for view in &case.views {
                let mut fresh = SelectScratch::default();
                let select = |scratch: &mut SelectScratch| {
                    let (classes, memo) = (&mut TaskClasses::new(afg), &PredictCache::new());
                    select_by_class(view, afg, classes, p, pm, memo, scratch)
                };
                let (got, want) = (select(&mut scratch), select(&mut fresh));
                same_choices(&got, &want, &case.name, "selection in a reused scratch");
                assert_eq!(scratch.lanes.len(), fresh.lanes.len(), "{}: lanes kept", case.name);
            }
        }
    }

    /// One site whose hosts sit on the memory edges of `LU_Decomposition`
    /// at n = 1024, which requires `r` bytes: available at `r - 1`, `r`,
    /// `r + 1` and 0, total at `r` and `r - 1`. Each edge host `b<i>` gets
    /// a sequential task pinned to it and a 2-node parallel task over its
    /// machine type, shared only with a roomy companion `c<i>`; Source and
    /// Sink see all twelve hosts, all equally fast, so their argmin is a
    /// tie. The lanes copy the memory figures out of the host records, and
    /// must price them as the reference prices the records: bit for bit,
    /// `>` at both edges, and a host with no memory left paged at
    /// `r / 1`, not divided by zero.
    #[test]
    fn lanes_price_memory_boundaries_as_the_reference() {
        let n = 1024;
        let lib = TaskLibrary::standard();
        let r = lib.get("LU_Decomposition").unwrap().required_memory(n);
        // (available, total) of each edge host.
        let edges =
            [(r - 1, 2 * r), (r, 2 * r), (r + 1, 2 * r), (0, 2 * r), (r, r), (r - 1, r - 1)];
        let mut hosts = Vec::new();
        for (i, &(available, total)) in edges.iter().enumerate() {
            let machine = MachineType::CONCRETE[i];
            let mut edge =
                ResourceRecord::new(format!("b{i}"), "10.0.0.1", machine, 1.0, 1, total, "g0");
            edge.available_memory = available;
            hosts.push(edge);
            hosts.push(ResourceRecord::new(
                format!("c{i}"),
                "10.0.0.2",
                machine,
                1.0,
                1,
                4 * r,
                "g0",
            ));
        }
        let view = view_with(hosts);

        let mut b = AfgBuilder::new("edges", &lib);
        let mut prev = b.add_task("Source", "src", 1000).unwrap();
        let (mut pinned, mut parallel) = (Vec::new(), Vec::new());
        for i in 0..edges.len() {
            let seq = b.add_task("LU_Decomposition", &format!("seq{i}"), n).unwrap();
            b.set_preferred_host(seq, format!("b{i}")).unwrap();
            let par = b.add_task("LU_Decomposition", &format!("par{i}"), n).unwrap();
            b.set_mode(par, vdce_afg::ComputationMode::Parallel).unwrap();
            b.set_num_nodes(par, 2).unwrap();
            b.set_machine_type(par, MachineType::CONCRETE[i]).unwrap();
            b.connect(prev, 0, seq, 0).unwrap();
            b.connect(seq, 0, par, 0).unwrap();
            pinned.push(seq);
            parallel.push(par);
            prev = par;
        }
        let snk = b.add_task("Sink", "snk", 1000).unwrap();
        b.connect(prev, 0, snk, 0).unwrap();
        let afg = b.build().unwrap();

        let (p, pm) = (Predictor::default(), ParallelModel::default());
        let reference = host_selection(&view, &afg, &p, &pm);
        let classed = host_selection_classed(&view, &afg, &p, &pm, &PredictCache::new());
        assert_eq!(lines(&classed), lines(&reference));
        assert_eq!(classed, reference);
        // Task 11, seq5, is the one infeasible task.
        assert_eq!(
            lines(&classed),
            [
                "0 b0 0x3f1a36e2eb1c432c",
                "1 b0 0x4051e54cf652d932",
                "2 c0+b0 0x4042cba4f7ffe42d",
                "3 b1 0x4051e54c672874da",
                "4 b1+c1 0x4042cba4b3fef593",
                "5 b2 0x4051e54c672874da",
                "6 b2+c2 0x4042cba4b3fef593",
                "7 b3 0x4381e54c55432875",
                "8 c3 0x4051e54c672874da",
                "9 b4 0x4051e54c672874da",
                "10 b4+c4 0x4042cba4b3fef593",
                "12 c5 0x4051e54c672874da",
                "13 b0 0x3f1a36e2eb1c432c"
            ]
        );

        // Never a host that cannot hold the task.
        let total = |name: &str| view.resources.get(name).unwrap().total_memory;
        for (t, c) in classed.choices.iter() {
            let lu = afg.task(t).library_task == "LU_Decomposition";
            assert!(!lu || c.hosts.iter().all(|h| total(h) >= r), "{t:?} on {:?}", c.hosts);
        }
        // The pinned prices: `>` at the total (b4 fits, b5 does not) and at
        // the available memory (b1 and b2 page no more than b4; b0 pages
        // by one byte), and b3's ratio is `r`, a finite penalty.
        let secs = |i: usize| classed.choice(pinned[i]).map(|c| c.predicted_seconds);
        assert!(secs(5).is_none() && secs(4).is_some());
        let unpaged = secs(4).unwrap().to_bits();
        assert_eq!([1, 2].map(|i| secs(i).unwrap().to_bits()), [unpaged; 2]);
        assert!(secs(0).unwrap() > secs(1).unwrap());
        assert!(secs(3).unwrap().is_finite() && secs(3).unwrap() > secs(0).unwrap());
        // A tie between twelve equal hosts goes to the first in view order.
        assert_eq!(classed.choice(snk).unwrap().hosts.to_vec(), ["b0".to_string()]);
        assert_eq!(classed.choice(parallel[5]).unwrap().hosts.to_vec(), ["c5".to_string()]);
    }

    #[test]
    fn empty_site_yields_empty_output() {
        let view = view_with(vec![]);
        let out = run(&view, &two_task_afg());
        assert_eq!(out.choices.values().count(), 0);
        assert_eq!(serde_json::to_string(&out).unwrap(), r#"{"site":0,"choices":{}}"#);
    }

    /// `SchedMessage::wire_bytes` feeds bus-traffic accounting, so the
    /// serialised form is pinned to what the `BTreeMap`-backed output of
    /// PR 19 produced for the same inputs: feasible tasks only, keyed by
    /// task id, in id order.
    #[test]
    fn wire_form_is_pinned() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("wire", &lib);
        let src = b.add_task("Source", "src", 1000).unwrap();
        let lost = b.add_task("Sort", "lost", 1000).unwrap();
        b.set_preferred_host(lost, "elsewhere").unwrap();
        let sort = b.add_task("Sort", "sort", 1000).unwrap();
        let snk = b.add_task("Sink", "snk", 1000).unwrap();
        b.set_preferred_host(snk, "elsewhere").unwrap();
        b.connect(src, 0, lost, 0).unwrap();
        b.connect(lost, 0, sort, 0).unwrap();
        b.connect(sort, 0, snk, 0).unwrap();
        let afg = b.build().unwrap();
        let view = view_with(vec![
            record("h0", MachineType::LinuxPc, 2.0),
            record("h1", MachineType::LinuxPc, 1.0),
        ]);
        let out = run(&view, &afg);
        assert!(out.choice(lost).is_none() && out.choice(snk).is_none());

        let json = serde_json::to_string(&out).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"site":0,"choices":{"#,
                r#""0":{"hosts":["h0"],"predicted_seconds":0.000049999999999999996},"#,
                r#""2":{"hosts":["h0"],"predicted_seconds":0.0019931568569324177}}}"#
            )
        );
        // The trailing empty slot does not survive the trip; equality
        // does not see it.
        let back: HostSelectionOutput = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out);
        assert_eq!(back.choices.iter().map(|(t, _)| t.0).collect::<Vec<_>>(), [0, 2]);

        let reply =
            crate::federation::SchedMessage::HostSelectionReply { request_id: 7, output: out };
        assert_eq!(reply.wire_bytes(), 199);
    }

    /// A table over `class_of` with `choices`, as the classed path builds one.
    fn table(class_of: &[u32], choices: &[Option<TaskHostChoice>]) -> ChoiceTable {
        ChoiceTable { class_of: class_of.into(), choices: choices.into() }
    }

    /// A choice on `host` with a host list of its own: equal to another
    /// only by value.
    fn pick(host: &str, secs: f64) -> Option<TaskHostChoice> {
        Some(TaskHostChoice { hosts: Arc::new([host.to_string()]), predicted_seconds: secs })
    }

    /// The tasks of `0..tasks` that `old.diff(new)` reports, asserted equal
    /// to the tasks a per-task comparison of `get` reports.
    fn diffed(old: &ChoiceTable, new: &ChoiceTable, tasks: usize) -> Vec<u32> {
        let mut marked = Vec::new();
        old.diff(new, tasks, &mut vec![Some((0, true)); 3], |t| marked.push(t.0));
        let differs = |t: &u32| match (old.get(TaskId(*t)), new.get(TaskId(*t))) {
            (Some(a), Some(b)) => {
                a.hosts != b.hosts || a.predicted_seconds.to_bits() != b.predicted_seconds.to_bits()
            }
            (a, b) => a.is_some() != b.is_some(),
        };
        assert_eq!(marked, (0..tasks as u32).filter(differs).collect::<Vec<_>>());
        marked
    }

    #[test]
    fn diff_over_a_renumbered_class_map_marks_the_changed_classes_members() {
        let old = table(&[0, 1, 2, 0, 1, 2, 0, 1, 2, 0], &[pick("h0", 1.0), pick("h1", 2.0), None]);
        // Old class 0 is new class 2, 1 is 0 and 2 is 1.
        let renumbered = [2, 0, 1, 2, 0, 1, 2, 0, 1, 2];
        let same = table(&renumbered, &[pick("h1", 2.0), None, pick("h0", 1.0)]);
        assert_eq!(diffed(&old, &same, 10), [0u32; 0]);
        let moved = table(&renumbered, &[pick("h1", 2.0), None, pick("h0", 1.5)]);
        assert_eq!(diffed(&old, &moved, 10), [0, 3, 6, 9]);
        let signed = table(&[0, 0], &[pick("h0", 0.0)]);
        assert_eq!(diffed(&signed, &table(&[0, 0], &[pick("h0", -0.0)]), 2), [0, 1]);
    }

    #[test]
    fn diff_over_a_split_class_compares_each_new_class() {
        let one = table(&[0; 8], &[pick("h0", 1.0)]);
        let split = table(&[0, 1, 0, 1, 0, 1, 1, 0], &[pick("h0", 1.0), pick("h1", 1.0)]);
        assert_eq!(diffed(&one, &split, 8), [1, 3, 5, 6]);
        assert_eq!(diffed(&split, &one, 8), [1, 3, 5, 6]);
    }

    /// A wire table names the tasks it did not list `ABSENT` and ends at
    /// the last one it did.
    #[test]
    fn diff_against_a_wire_table_reads_absent_and_missing_slots_as_infeasible() {
        let classed = table(&[0, 1, 1, 0, 2, 2], &[pick("h0", 1.0), None, pick("h2", 3.0)]);
        let choice = r#"{"hosts":["h0"],"predicted_seconds":1.0}"#;
        let wire: ChoiceTable =
            serde_json::from_str(&format!(r#"{{"3":{choice},"0":{choice}}}"#)).unwrap();
        assert_eq!(wire.class_of[..], [1, ABSENT, ABSENT, 0]);
        assert_eq!(diffed(&classed, &wire, 6), [4, 5]);
        assert_eq!(diffed(&wire, &classed, 6), [4, 5]);
        let other = r#"{"hosts":["h9"],"predicted_seconds":1.0}"#;
        let wire: ChoiceTable =
            serde_json::from_str(&format!(r#"{{"0":{choice},"3":{other}}}"#)).unwrap();
        assert_eq!(diffed(&classed, &wire, 6), [3, 4, 5]);
        assert_eq!(diffed(&wire, &classed, 6), [3, 4, 5]);
    }

    /// Random class maps of random lengths over a pool of choices, some
    /// equal only by value, some only by `==` on the prediction.
    #[test]
    fn diff_matches_a_per_task_comparison_on_random_maps() {
        let pool = [None, pick("h0", 1.0), pick("h0", 1.0), pick("h1", 1.0), pick("h0", -0.0)];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |below: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) % below
        };
        for _ in 0..500 {
            let mut side = || {
                let choices: Vec<_> =
                    (0..next(5)).map(|_| pool[next(5) as usize].clone()).collect();
                let class_of: Vec<u32> = (0..next(13))
                    .map(|_| if next(6) == 0 { ABSENT } else { next(5) as u32 })
                    .collect();
                table(&class_of, &choices)
            };
            let (old, new) = (side(), side());
            diffed(&old, &new, 12);
        }
    }

    #[test]
    fn a_task_id_beyond_any_table_is_refused_not_allocated() {
        let json = r#"{"site":0,"choices":{"4294967295":{"hosts":["h"],"predicted_seconds":1.0}}}"#;
        assert!(serde_json::from_str::<HostSelectionOutput>(json).is_err());
    }
}
