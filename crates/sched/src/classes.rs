//! Task classes: the part of a task's Figure-3 price the AFG fixes.
//!
//! Host selection prices a task at a host from five fields of the task —
//! its library task, preferred machine type, preferred host, problem size
//! and requested node count — and the host. Tasks equal in those five
//! fields form a *class*: at every site they see the same candidates and
//! get the same argmin. The first three alone fix the candidate set and
//! the host-side prediction terms; tasks equal in them form an
//! *eligibility group*.
//!
//! The AFG is multicast to every involved site (Figure 2, step 3), so the
//! index is built once per AFG per schedule and handed to every site's
//! selection and to the level pass of §3, each of which then prices a
//! class instead of a task.
//!
//! The index also carries each class's task-side costs (computation size
//! and required memory), computed at the first site that prices the class
//! and reused at every later site whose library gives its group the same
//! cost models bit for bit (`vdce_afg::TaskCosts::same_bits`); a site
//! whose library differs prices the class from its own models.

use crate::view::SiteView;
use std::sync::Arc;
use vdce_afg::level::{level_pass, LevelError};
use vdce_afg::{Afg, EdgeIndex, MachineType, TaskCosts, TaskId};
use vdce_predict::cache::FxMap;

/// What the eligibility filter of one task depends on besides the host:
/// tasks with equal keys see the same candidate set and the same
/// host-side prediction terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct EligibilityKey<'a> {
    library_task: &'a str,
    machine_type: MachineType,
    preferred_host: Option<&'a str>,
}

/// One class: everything Figure 3 needs of its members besides the
/// candidate set, which its group fixes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Class {
    /// Its eligibility group, an index into [`TaskClasses::groups`].
    pub(crate) group: u32,
    pub(crate) problem_size: u64,
    /// Nodes the members ask for (`effective_nodes`).
    pub(crate) requested: u32,
    /// Computation size and required memory at `problem_size`, under its
    /// group's `costs`; unset while those are `None`.
    pub(crate) flops: f64,
    pub(crate) required: u64,
}

/// One eligibility group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Group {
    /// One member.
    pub(crate) member: TaskId,
    /// The library models its classes' task-side costs were last computed
    /// from; `None` until a site's library first knows its library task.
    pub(crate) costs: Option<TaskCosts>,
}

/// The task → class index of one AFG. Owned, so a holder (a pending
/// stream submission) keeps it beside the AFG without borrowing it.
/// Classes and groups are numbered in the order their first member
/// appears in task-id order.
#[derive(Debug)]
pub(crate) struct TaskClasses {
    /// Per task, its class. Shared with every choice table built over
    /// this index, which looks a task up through it.
    pub(crate) class_of: Arc<[u32]>,
    /// Per class.
    pub(crate) classes: Vec<Class>,
    /// Per eligibility group.
    pub(crate) groups: Vec<Group>,
}

impl TaskClasses {
    /// Classify every task of `afg`: at most two hash probes per task,
    /// one of them on integers.
    pub(crate) fn new(afg: &Afg) -> Self {
        // Group key → (group, first member); (group, problem size,
        // requested nodes) → class. A stream submission's ten classes
        // never regrow the class map.
        let mut group_ids: FxMap<EligibilityKey<'_>, (u32, TaskId)> = FxMap::default();
        let mut class_ids: FxMap<(u32, u64, u32), u32> =
            FxMap::with_capacity_and_hasher(afg.task_count().min(16), Default::default());
        let mut last: Option<(EligibilityKey<'_>, u32)> = None;
        let class_of: Arc<[u32]> = (afg.tasks.iter().enumerate())
            .map(|(i, node)| {
                let key = EligibilityKey {
                    library_task: &node.library_task,
                    machine_type: node.props.machine_type,
                    preferred_host: node.props.preferred_host.as_deref(),
                };
                // Neighbouring tasks tend to share a group: compare
                // before hashing.
                let group = match last {
                    Some((k, g)) if k == key => g,
                    _ => {
                        let next = group_ids.len() as u32;
                        let g = group_ids.entry(key).or_insert((next, TaskId(i as u32))).0;
                        last = Some((key, g));
                        g
                    }
                };
                let next = class_ids.len() as u32;
                let requested = node.props.effective_nodes();
                *class_ids.entry((group, node.problem_size, requested)).or_insert(next)
            })
            .collect();
        let mut classes = vec![Class::default(); class_ids.len()];
        for (&(group, problem_size, requested), &c) in &class_ids {
            classes[c as usize] = Class { group, problem_size, requested, ..Class::default() };
        }
        let mut groups = vec![Group { member: TaskId(0), costs: None }; group_ids.len()];
        for &(g, member) in group_ids.values() {
            groups[g as usize].member = member;
        }
        TaskClasses { class_of, classes, groups }
    }

    /// The level priority of every task of `afg` (§3) on `view`'s
    /// base-processor execution times, `base_time` looked up once per
    /// class and each task priced by its class id alone; a library task
    /// the view does not know costs 0. `afg` is the graph the index and
    /// `idx` were built from.
    pub(crate) fn levels(
        &self,
        view: &SiteView,
        afg: &Afg,
        idx: &EdgeIndex,
    ) -> Result<Vec<f64>, LevelError> {
        debug_assert_eq!(self.class_of.len(), afg.task_count(), "an index of another graph");
        let cost: Vec<f64> = (self.classes.iter())
            .map(|c| {
                let library_task = &afg.task(self.groups[c.group as usize].member).library_task;
                view.tasks.base_time(library_task, c.problem_size).unwrap_or(0.0)
            })
            .collect();
        level_pass(afg, idx, |t| cost[self.class_of[t.index()] as usize], |_| 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_selection::{select_by_class, SelectScratch};
    use crate::oracle::{check_shared_selection, Case};
    use vdce_afg::{AfgBuilder, ComputationMode, TaskLibrary};

    /// Every site's selection over one index of the AFG, as the site
    /// scheduler runs it, is the one-shot call's and the reference's, on
    /// 256 random cases and the palette workload over 2 and 8 sites. One
    /// scratch serves every site of every case, so it is reused across
    /// host counts and group counts.
    #[test]
    fn selection_over_a_shared_index_passes_the_oracle() {
        let palette = [Case::palette(1_000, 2), Case::palette(1_000, 8)];
        let mut scratch = SelectScratch::default();
        for case in (0..256).map(Case::random).chain(palette) {
            let (afg, config) = (&case.afg, &case.config);
            let (predictor, parallel) = (&config.predictor, &config.parallel);
            let mut classes = TaskClasses::new(afg);
            check_shared_selection(&case, |view, memo| {
                select_by_class(view, afg, &mut classes, predictor, parallel, memo, &mut scratch)
            });
        }
    }

    /// A base task and one twin per key field, each differing from the
    /// base in that field alone, plus an exact copy of the base.
    #[test]
    fn each_key_field_separates_classes() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("keys", &lib);
        let mut prev = b.add_task("Source", "src", 1000).unwrap();
        let names = ["base", "copy", "library", "machine", "pinned", "size", "nodes"];
        let mut ids = Vec::new();
        for name in names {
            let t = b.add_task("Sort", name, 9000).unwrap();
            b.connect(prev, 0, t, 0).unwrap();
            ids.push(t);
            prev = t;
        }
        let mut afg = b.build().unwrap();
        for &t in &ids {
            afg.tasks[t.index()].props.mode = ComputationMode::Parallel;
            afg.tasks[t.index()].props.num_nodes = 2;
        }
        let [base, copy, library, machine, pinned, size, nodes] = ids[..] else { unreachable!() };
        afg.tasks[library.index()].library_task = "Map".into();
        afg.tasks[machine.index()].props.machine_type = MachineType::SunSolaris;
        afg.tasks[pinned.index()].props.preferred_host = Some("h1".into());
        afg.tasks[size.index()].problem_size = 9001;
        afg.tasks[nodes.index()].props.num_nodes = 4;

        let index = TaskClasses::new(&afg);
        let class = |t: TaskId| index.class_of[t.index()];
        assert_eq!(class(copy), class(base));
        let twins = [library, machine, pinned, size, nodes];
        for (i, &t) in twins.iter().enumerate() {
            assert_ne!(class(t), class(base), "{}", afg.task(t).name);
            for &u in &twins[..i] {
                assert_ne!(class(t), class(u), "{} and {}", afg.task(t).name, afg.task(u).name);
            }
        }
        // The Source, the base with its copy, and the five twins.
        assert_eq!(index.classes.len(), 7);
        // Size and node count split classes, not groups.
        let group = |t: TaskId| index.classes[class(t) as usize].group;
        assert_eq!((group(size), group(nodes)), (group(base), group(base)));
        assert_eq!(index.groups.len(), 5);
        assert_eq!(index.groups[group(base) as usize].member, base);
    }
}
