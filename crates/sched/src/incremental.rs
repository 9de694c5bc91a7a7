//! O(changed) incremental rescheduling.
//!
//! A monitor event (host crash, load spike, measurement update) changes
//! one site's host-selection output; the seed response was to re-run the
//! whole Figure 2 walk over all 100k tasks. This module re-places only
//! the *affected set* and is property-tested bit-identical to that full
//! re-walk (`tests/prop_incremental.rs`; construction from empty is the
//! scheduler oracle's, `tests/common`).
//!
//! ## Why re-placement order does not matter
//!
//! In [`crate::site_scheduler`]'s walk **without** `spread_critical`,
//! the decision for a task depends only on (a) the per-site
//! [`TaskHostChoice`]s for that task and (b) its
//! parents' chosen *sites* (the transfer term). Level priorities order
//! the walk but never enter any decision, so *any* topological
//! re-placement order yields the same table as the level-order walk —
//! decision by decision, through the shared
//! [`choose_site_for_task`](crate::site_scheduler) argmin. That
//! order-independence is the invariant the incremental path rests on,
//! and why it refuses `spread_critical` (whose accumulated
//! critical-host set makes decisions order-*dependent*).
//!
//! ## Dirty propagation
//!
//! A task is dirty when its own choices changed or a parent's chosen
//! **site** changed. The first is a diff of old against new outputs: a
//! site whose table is the same allocation as before (every site a
//! monitor event did not touch) is skipped on one pointer compare, the
//! others are diffed per task, comparing each pair of old and new
//! classes once ([`ChoiceTable::diff`](crate::ChoiceTable)). The dirty
//! tasks are marked in a bitmap over topological position
//! ([`TopoMarks`]) and re-decided by one forward sweep of it: a child
//! sits after its parent, so a mark made during the sweep is always
//! ahead of it. A child is marked only when its parent's site actually
//! moved, so an event whose effects dampen out re-decides O(changed)
//! tasks, not O(n), and the sweep itself reads n/64 words.

use crate::allocation::{AllocationTable, TaskPlacement};
use crate::data_inputs::DatasetInputs;
use crate::host_selection::{HostSelectionOutput, TaskHostChoice};
use crate::site_scheduler::SchedError;
use crate::walk::choose_site_for_task;
use std::sync::Arc;
use vdce_afg::{Afg, EdgeIndex, TaskId, TopoMarks};
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_net::TransferCache;

/// What one [`IncrementalSchedule::apply`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReschedulingDelta {
    /// Tasks whose own host-selection choices changed (the seeds).
    pub dirty: usize,
    /// Tasks re-decided (seeds plus children reached by propagation).
    pub replaced: usize,
    /// Re-decided tasks whose placement actually changed.
    pub moved: usize,
}

/// A schedule that can absorb host-selection deltas in O(changed).
///
/// Build one with [`IncrementalSchedule::new`] from the collected
/// host-selection outputs (the same inputs
/// [`SchedRequest::walk`](crate::SchedRequest::walk) takes, minus the
/// levels — see the module docs for why levels don't matter), then feed
/// it updated outputs with [`apply`](IncrementalSchedule::apply) after
/// each monitor event.
///
/// If `apply` fails because a task became infeasible everywhere, the
/// internal state is **poisoned** — partially updated — and the schedule
/// must be rebuilt with `new` from scratch.
#[derive(Debug, Clone)]
pub struct IncrementalSchedule {
    local_site: SiteId,
    ignore_transfer_time: bool,
    /// The link table, shared with every schedule built over the same
    /// fixed network model.
    xfer: Arc<TransferCache>,
    idx: EdgeIndex,
    /// The topological order (position → task) and its inverse.
    order: Vec<TaskId>,
    topo_pos: Vec<u32>,
    site_of: Vec<SiteId>,
    outputs: Vec<HostSelectionOutput>,
    table: AllocationTable,
    /// Scratch of `apply`, reset by every call (so a poisoned schedule's
    /// leftovers never reach the next one): the dirty positions, and the
    /// class-pair memo of [`ChoiceTable::diff`](crate::ChoiceTable).
    marks: TopoMarks,
    memo: Vec<Option<(u32, bool)>>,
}

/// The answering sites of `outputs`, in order.
fn sites(outputs: &[HostSelectionOutput]) -> impl Iterator<Item = SiteId> + '_ {
    outputs.iter().map(|o| o.site)
}

impl IncrementalSchedule {
    /// Place every task of `afg` from `outputs` (topological order;
    /// bit-identical to the level-order walk, see the module docs).
    ///
    /// `outputs` must be in the same site order the site scheduler uses
    /// (local first); `apply` requires the same order again.
    pub fn new(
        afg: &Afg,
        local_site: SiteId,
        outputs: Vec<HostSelectionOutput>,
        net: &NetworkModel,
        ignore_transfer_time: bool,
    ) -> Result<Self, SchedError> {
        let xfer = Arc::new(TransferCache::new(net));
        Self::with_links(afg, local_site, outputs, xfer, ignore_transfer_time)
    }

    /// [`IncrementalSchedule::new`] over `xfer`, a link table of the
    /// network model already built (a caller whose model never changes
    /// builds it once).
    pub(crate) fn with_links(
        afg: &Afg,
        local_site: SiteId,
        outputs: Vec<HostSelectionOutput>,
        xfer: Arc<TransferCache>,
        ignore_transfer_time: bool,
    ) -> Result<Self, SchedError> {
        // No catalog view: a dataset read is refused, as the walk refuses
        // it with `data: None`, so no placement has a dataset term.
        DatasetInputs::resolve(afg, None)?;
        let idx = afg.edge_index();
        let order = afg.topo_order_with(&idx).ok_or(SchedError::Cyclic)?;
        let n = afg.task_count();
        let mut topo_pos = vec![0u32; n];
        for (i, t) in order.iter().enumerate() {
            topo_pos[t.index()] = i as u32;
        }

        let mut inc = IncrementalSchedule {
            local_site,
            ignore_transfer_time,
            xfer,
            idx,
            order: Vec::new(),
            topo_pos,
            // Entry value never read: every task is decided before any
            // child reads it (topological order).
            site_of: vec![SiteId(0); n],
            outputs: Vec::new(),
            table: AllocationTable::with_capacity(afg.name.clone(), n),
            marks: TopoMarks::default(),
            memo: Vec::new(),
        };
        let mut parents = Vec::new();
        for &task in &order {
            let (site, choice) = inc.decide(afg, &outputs, task, &mut parents)?;
            inc.site_of[task.index()] = site;
            inc.table.insert(TaskPlacement {
                task,
                task_name: afg.task(task).name.clone(),
                site,
                hosts: choice.hosts.clone(),
                predicted_seconds: choice.predicted_seconds,
                data_sources: Vec::new(),
            });
        }
        inc.order = order;
        inc.outputs = outputs;
        Ok(inc)
    }

    /// The walk's decision for `task` under `outputs`, from its parents'
    /// current sites; `parents` is scratch.
    fn decide<'o>(
        &self,
        afg: &Afg,
        outputs: &'o [HostSelectionOutput],
        task: TaskId,
        parents: &mut Vec<(SiteId, u64)>,
    ) -> Result<(SiteId, &'o TaskHostChoice), SchedError> {
        parents.clear();
        if !self.ignore_transfer_time {
            for e in self.idx.in_edges(afg, task) {
                parents.push((self.site_of[e.from.index()], e.data_size));
            }
        }
        let xfer = &mut |a, b, bytes| self.xfer.transfer_time(a, b, bytes);
        let best = choose_site_for_task(task, outputs, parents, &[], self.local_site, xfer, None);
        let (winner, choice) = best.ok_or_else(|| SchedError::NoFeasibleSite {
            task,
            name: afg.task(task).name.to_string(),
        })?;
        Ok((outputs[winner].site, choice))
    }

    /// The current allocation table.
    pub fn table(&self) -> &AllocationTable {
        &self.table
    }

    /// The per-site host-selection outputs the table was placed from.
    pub(crate) fn outputs(&self) -> &[HostSelectionOutput] {
        &self.outputs
    }

    /// Absorb updated host-selection outputs, re-deciding only the
    /// affected tasks. `new_outputs` must cover the same sites in the
    /// same order as construction (a changed federation means a changed
    /// problem — rebuild instead).
    ///
    /// Returns how much work the delta caused. Outputs for other sites or
    /// another site order are refused with
    /// [`SchedError::SiteOrderMismatch`] before anything is touched; on
    /// any other error the schedule is poisoned (see the type docs).
    pub fn apply(
        &mut self,
        afg: &Afg,
        new_outputs: Vec<HostSelectionOutput>,
    ) -> Result<ReschedulingDelta, SchedError> {
        if !sites(&self.outputs).eq(sites(&new_outputs)) {
            return Err(SchedError::SiteOrderMismatch {
                expected: sites(&self.outputs).collect(),
                got: sites(&new_outputs).collect(),
            });
        }

        // Seed the dirty set: tasks whose own choice changed at any site.
        // A monitor event re-selects one site and hands back clones of
        // the other tables, which one pointer compare recognises; the
        // rest are diffed class pair by class pair.
        self.marks.reset(afg.task_count());
        for (old, new) in self.outputs.iter().zip(&new_outputs) {
            if old.choices.ptr_eq(&new.choices) {
                continue;
            }
            old.choices.diff(&new.choices, afg.task_count(), &mut self.memo, |task| {
                self.marks.mark(self.topo_pos[task.index()] as usize);
            });
        }
        let dirty = self.marks.count();

        let mut parents = Vec::new();
        let mut replaced = 0usize;
        let mut moved = 0usize;
        // A forward sweep: every parent of a popped task — dirty or not —
        // already carries its final site in `site_of`.
        while let Some(pos) = self.marks.pop_forward() {
            let task = self.order[pos];
            replaced += 1;
            let (site, choice) = self.decide(afg, &new_outputs, task, &mut parents)?;
            let site_changed = self.site_of[task.index()] != site;
            let row = self.table.placement_mut(task).expect("constructed complete");
            if site_changed
                || row.hosts != choice.hosts
                || row.predicted_seconds.to_bits() != choice.predicted_seconds.to_bits()
            {
                moved += 1;
                self.site_of[task.index()] = site;
                // The row keeps its slot and name; only the decision moves.
                row.site = site;
                row.hosts = choice.hosts.clone();
                row.predicted_seconds = choice.predicted_seconds;
            }
            // A child's decision reads only this task's *site*; its own
            // choices were diffed in the seeding pass.
            if site_changed && !self.ignore_transfer_time {
                for e in self.idx.out_edges(afg, task) {
                    self.marks.mark(self.topo_pos[e.to.index()] as usize);
                }
            }
        }

        self.outputs = new_outputs;
        Ok(ReschedulingDelta { dirty, replaced, moved })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_selection::host_selection;
    use crate::site_scheduler::{SchedRequest, SchedulerConfig};
    use crate::view::SiteView;
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_predict::model::Predictor;
    use vdce_predict::parallel::ParallelModel;
    use vdce_repository::resources::{HostStatus, ResourceRecord};
    use vdce_repository::SiteRepository;

    fn repo(hosts: &[(&str, f64)]) -> SiteRepository {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for (name, speed) in hosts {
                db.upsert(ResourceRecord::new(
                    *name,
                    "10.0.0.1",
                    MachineType::LinuxPc,
                    *speed,
                    1,
                    1 << 30,
                    "g0",
                ));
            }
        });
        repo
    }

    fn chain_afg(n: u64) -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "src", n).unwrap();
        let m = b.add_task("Sort", "sort", n).unwrap();
        let k = b.add_task("Sink", "snk", n).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    fn outputs_for(views: &[&SiteView], afg: &Afg) -> Vec<HostSelectionOutput> {
        views
            .iter()
            .map(|v| host_selection(v, afg, &Predictor::default(), &ParallelModel::default()))
            .collect()
    }

    /// The from-scratch walk `new` and `apply` must agree with.
    fn full_walk(
        afg: &Afg,
        levels: &[f64],
        outputs: &[HostSelectionOutput],
        net: &NetworkModel,
    ) -> AllocationTable {
        let (local, config) =
            (&SiteView::capture(SiteId(0), &repo(&[])), &SchedulerConfig::default());
        let req = SchedRequest { afg, local, remotes: &[], net, config, data: None, metrics: None };
        req.walk(levels, outputs).unwrap()
    }

    #[test]
    fn construction_matches_the_full_walk_bitwise() {
        let afg = chain_afg(100_000);
        let r0 = repo(&[("l0", 1.0), ("l1", 2.5)]);
        let r1 = repo(&[("r0", 3.0), ("r1", 0.5)]);
        let v0 = SiteView::capture(SiteId(0), &r0);
        let v1 = SiteView::capture(SiteId(1), &r1);
        let net = NetworkModel::with_defaults(2);
        let outputs = outputs_for(&[&v0, &v1], &afg);

        let levels = v0.levels(&afg).unwrap();
        let full = full_walk(&afg, &levels, &outputs, &net);

        let inc = IncrementalSchedule::new(&afg, SiteId(0), outputs, &net, false).unwrap();
        assert_eq!(*inc.table(), full);
        for (a, b) in inc.table().iter().zip(full.iter()) {
            assert_eq!(a.predicted_seconds.to_bits(), b.predicted_seconds.to_bits());
        }
    }

    /// Clones of the current outputs are the same tables: every site is
    /// skipped on the pointer compare.
    #[test]
    fn unchanged_outputs_touch_nothing() {
        let afg = chain_afg(50_000);
        let r0 = repo(&[("l0", 1.0)]);
        let r1 = repo(&[("r0", 3.0)]);
        let v0 = SiteView::capture(SiteId(0), &r0);
        let v1 = SiteView::capture(SiteId(1), &r1);
        let net = NetworkModel::with_defaults(2);
        let outputs = outputs_for(&[&v0, &v1], &afg);
        let clones = outputs.clone();
        assert!(outputs.iter().zip(&clones).all(|(a, b)| a.choices.ptr_eq(&b.choices)));
        let mut inc = IncrementalSchedule::new(&afg, SiteId(0), outputs, &net, false).unwrap();
        let before = inc.table().clone();
        let delta = inc.apply(&afg, clones).unwrap();
        assert_eq!(delta, ReschedulingDelta::default());
        assert_eq!(*inc.table(), before);
    }

    /// Equal tables built separately share nothing, so every slot is
    /// compared by value — and none differs.
    #[test]
    fn equal_valued_outputs_touch_nothing() {
        let afg = chain_afg(50_000);
        let r0 = repo(&[("l0", 1.0)]);
        let r1 = repo(&[("r0", 3.0)]);
        let v0 = SiteView::capture(SiteId(0), &r0);
        let v1 = SiteView::capture(SiteId(1), &r1);
        let net = NetworkModel::with_defaults(2);
        let outputs = outputs_for(&[&v0, &v1], &afg);
        let rebuilt = outputs_for(&[&v0, &v1], &afg);
        assert!(outputs.iter().zip(&rebuilt).all(|(a, b)| !a.choices.ptr_eq(&b.choices)));
        assert_eq!(outputs, rebuilt);
        let mut inc = IncrementalSchedule::new(&afg, SiteId(0), outputs, &net, false).unwrap();
        let before = inc.table().clone();
        let delta = inc.apply(&afg, rebuilt).unwrap();
        assert_eq!(delta, ReschedulingDelta::default());
        assert_eq!(*inc.table(), before);
    }

    #[test]
    fn host_crash_replaces_only_the_affected_set_and_matches_full_rewalk() {
        let afg = chain_afg(100_000);
        let r0 = repo(&[("l0", 1.0), ("l1", 2.5)]);
        let r1 = repo(&[("r0", 3.0), ("r1", 0.5)]);
        let v0 = SiteView::capture(SiteId(0), &r0);
        let v1 = SiteView::capture(SiteId(1), &r1);
        let net = NetworkModel::with_defaults(2);
        let outputs = outputs_for(&[&v0, &v1], &afg);
        let mut inc = IncrementalSchedule::new(&afg, SiteId(0), outputs, &net, false).unwrap();

        // Monitor event: the fast remote host dies; site 1 reselects.
        r1.resources_mut(|db| db.set_status("r0", HostStatus::Down));
        let v1b = SiteView::capture(SiteId(1), &r1);
        let new_outputs = outputs_for(&[&v0, &v1b], &afg);
        let delta = inc.apply(&afg, new_outputs.clone()).unwrap();
        assert!(delta.replaced <= afg.task_count());
        assert!(delta.dirty > 0, "killing the chosen host must dirty something");

        let levels = v0.levels(&afg).unwrap();
        let full = full_walk(&afg, &levels, &new_outputs, &net);
        assert_eq!(*inc.table(), full);
        for (a, b) in inc.table().iter().zip(full.iter()) {
            assert_eq!(a.predicted_seconds.to_bits(), b.predicted_seconds.to_bits());
        }
    }

    /// `repo(linux)` plus one slow Sun host, `sun`.
    fn repo_with_sun(linux: &[(&str, f64)], sun: &str) -> SiteRepository {
        let r = repo(linux);
        r.resources_mut(|db| {
            db.upsert(ResourceRecord::new(
                sun,
                "10.0.0.2",
                MachineType::SunSolaris,
                0.2,
                1,
                1 << 30,
                "g0",
            ))
        });
        r
    }

    /// Source → Sorts → Sink, `len` tasks in all, so task `i` sits at
    /// topological position `i`; the tasks in `sun_only` run on Sun hosts
    /// only.
    fn long_chain(len: u32, sun_only: &[u32]) -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("long", &lib);
        let mut prev = b.add_task("Source", "src", 100_000).unwrap();
        for i in 1..len {
            let kind = if i + 1 == len { "Sink" } else { "Sort" };
            let t = b.add_task(kind, &format!("t{i}"), 100_000).unwrap();
            if sun_only.contains(&i) {
                b.set_machine_type(t, MachineType::SunSolaris).unwrap();
            }
            b.connect(prev, 0, t, 0).unwrap();
            prev = t;
        }
        b.build().unwrap()
    }

    /// Sun-only tasks on both sides of the bitmap's word boundaries at
    /// positions 64 and 128 lose site 0's Sun host: each moves to site 1
    /// and drags its children along, so the sweep pops children marked in
    /// the word it is reading as well as in the next one. Both the event and its
    /// healing must match a full re-walk, bit for bit.
    #[test]
    fn dirty_positions_across_word_boundaries_match_full_rewalk() {
        let afg = long_chain(150, &[40, 63, 64, 127, 128, 129]);
        let r0 = repo_with_sun(&[("l0", 2.0), ("l1", 1.0)], "s0");
        let r1 = repo_with_sun(&[("r0", 1.5)], "s1");
        let v0 = SiteView::capture(SiteId(0), &r0);
        let v1 = SiteView::capture(SiteId(1), &r1);
        let net = NetworkModel::with_defaults(2);
        let levels = v0.levels(&afg).unwrap();
        let outputs = outputs_for(&[&v0, &v1], &afg);
        let initial = full_walk(&afg, &levels, &outputs, &net);
        let mut inc = IncrementalSchedule::new(&afg, SiteId(0), outputs, &net, false).unwrap();
        assert!(inc.table().iter().all(|p| p.site == SiteId(0)));

        r0.resources_mut(|db| db.set_status("s0", HostStatus::Down));
        let v0b = SiteView::capture(SiteId(0), &r0);
        let down = outputs_for(&[&v0b, &v1], &afg);
        let delta = inc.apply(&afg, down.clone()).unwrap();
        assert_eq!(delta, ReschedulingDelta { dirty: 6, replaced: 110, moved: 110 });
        let full = full_walk(&afg, &levels, &down, &net);
        assert_eq!(*inc.table(), full);
        for (a, b) in inc.table().iter().zip(full.iter()) {
            assert_eq!(a.predicted_seconds.to_bits(), b.predicted_seconds.to_bits());
        }

        let healed = outputs_for(&[&v0, &v1], &afg);
        let delta = inc.apply(&afg, healed).unwrap();
        assert_eq!(delta, ReschedulingDelta { dirty: 6, replaced: 110, moved: 110 });
        assert_eq!(*inc.table(), initial);
    }

    /// An `apply` that fails poisons the schedule, but the next call
    /// starts from fresh scratch: it does not panic, and the failed
    /// sweep's marks (task 100's seed) do not leak into it.
    #[test]
    fn apply_after_a_failed_apply_does_not_panic() {
        let afg = long_chain(150, &[40, 100]);
        let r0 = repo_with_sun(&[("l0", 2.0)], "s0");
        let r1 = repo_with_sun(&[("r0", 1.5)], "s1");
        let v0 = SiteView::capture(SiteId(0), &r0);
        let v1 = SiteView::capture(SiteId(1), &r1);
        let net = NetworkModel::with_defaults(2);
        let outputs = outputs_for(&[&v0, &v1], &afg);
        let mut inc =
            IncrementalSchedule::new(&afg, SiteId(0), outputs.clone(), &net, false).unwrap();

        r0.resources_mut(|db| db.set_status("s0", HostStatus::Down));
        r1.resources_mut(|db| db.set_status("s1", HostStatus::Down));
        let v0b = SiteView::capture(SiteId(0), &r0);
        let v1b = SiteView::capture(SiteId(1), &r1);
        let err = inc.apply(&afg, outputs_for(&[&v0b, &v1b], &afg));
        assert!(matches!(err, Err(SchedError::NoFeasibleSite { task: TaskId(40), .. })), "{err:?}");
        assert_eq!(inc.apply(&afg, outputs), Ok(ReschedulingDelta::default()));
    }

    #[test]
    fn apply_rejects_reordered_sites() {
        let afg = chain_afg(1000);
        let r0 = repo(&[("l0", 1.0)]);
        let r1 = repo(&[("r0", 3.0)]);
        let v0 = SiteView::capture(SiteId(0), &r0);
        let v1 = SiteView::capture(SiteId(1), &r1);
        let net = NetworkModel::with_defaults(2);
        let outputs = outputs_for(&[&v0, &v1], &afg);
        let swapped = outputs_for(&[&v1, &v0], &afg);
        let mut inc = IncrementalSchedule::new(&afg, SiteId(0), outputs, &net, false).unwrap();
        let before = inc.table().clone();
        assert_eq!(
            inc.apply(&afg, swapped),
            Err(SchedError::SiteOrderMismatch {
                expected: vec![SiteId(0), SiteId(1)],
                got: vec![SiteId(1), SiteId(0)],
            })
        );
        // Refused before anything was touched: the schedule still works.
        assert_eq!(*inc.table(), before);
        let again = outputs_for(&[&v0, &v1], &afg);
        assert_eq!(inc.apply(&afg, again), Ok(ReschedulingDelta::default()));
    }
}
