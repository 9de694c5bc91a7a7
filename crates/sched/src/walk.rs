//! Steps 6–7 of the Site Scheduler Algorithm (Figure 2): the DAG walk
//! over the collected host-selection outputs.
//!
//! [`SchedRequest::walk`] is shared by the in-process site scheduler and
//! the bus-based federation protocol; [`choose_site_for_task`], its
//! per-task argmin, is shared with the O(changed) re-placement in
//! [`crate::incremental`].

use crate::allocation::{AllocationTable, DataSource, TaskPlacement};
use crate::arena::LevelReady;
use crate::data_inputs::{DatasetInputs, DsInput};
use crate::host_selection::{HostSelectionOutput, TaskHostChoice};
use crate::site_scheduler::{SchedError, SchedRequest, SpreadPolicy};
use std::collections::HashSet;
use vdce_afg::{Afg, TaskId};
use vdce_net::topology::SiteId;
use vdce_net::TransferCache;

impl SchedRequest<'_> {
    /// Steps 6–7 of Figure 2 over `outputs`, the collected host-selection
    /// outputs of the involved sites, in priority order `levels`. Only
    /// `local`'s site id is read (for the local-first tie-break), never
    /// its databases or `remotes`. From `config` the walk reads the
    /// transfer-term ablation, the sequential-reference switch and
    /// recovery-aware critical-path spreading; `data` prices dataset
    /// reads and `metrics` counts `sched.transfer_cache.lookups` — the
    /// walk is sequential, so the count is a pure function of the
    /// inputs. The [`TransferCache`] stays a plain data snapshot (it
    /// must remain `Clone + PartialEq` for the federation protocol), so
    /// the counting happens here at the consultation site rather than
    /// inside the cache. Both the sequential and the optimised scheduler
    /// path funnel through this walk, so the spreading decision is
    /// bit-identical across the two.
    ///
    /// The walk records only which output won each task. The table's rows
    /// are written after it, in one pass in task-id order: cloning a row's
    /// name and hosts bumps two reference counts, and a locked increment
    /// inside the level-ordered loop would stall each of its scattered cache
    /// misses behind the one before.
    pub fn walk(
        &self,
        levels: &[f64],
        outputs: &[HostSelectionOutput],
    ) -> Result<AllocationTable, SchedError> {
        let SchedRequest { afg, local, net, config, data, metrics, .. } = *self;
        let (local_site, ignore_transfer_time) = (local.site, config.ignore_transfer_time);
        let spread = config.spread_critical.then_some(config.spread);
        check_levels(afg, levels)?;
        // Freeze the catalog view into per-task dataset inputs up front:
        // typed errors surface before any placement, and every task decides
        // against the same snapshot (the incremental order-independence
        // contract).
        let dsi = DatasetInputs::resolve(afg, data)?;
        let mut xfer_lookups = 0u64;
        // The index into `outputs` of each task's winning site; a parent's
        // site is read through it.
        let mut won: Vec<u32> = vec![u32::MAX; afg.task_count()];

        // Critical-path spreading (DESIGN.md §11): a task is *critical* when
        // its level is within the top quarter of the level range; the hosts
        // already serving critical tasks accumulate here (borrowed from the
        // outputs — the walk never owns host strings).
        let max_level = levels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let critical_floor = 0.75 * max_level;
        let mut critical_hosts: HashSet<&str> = HashSet::new();

        // Optimised path: snapshot the link matrix once; `transfer_time` on
        // the snapshot is bit-identical to the model's.
        let xfer_cache = if config.sequential { None } else { Some(TransferCache::new(net)) };
        let mut xfer_time = |from: SiteId, to: SiteId, bytes: u64| {
            xfer_lookups += 1;
            match &xfer_cache {
                Some(c) => c.transfer_time(from, to, bytes),
                None => net.transfer_time(from, to, bytes),
            }
        };

        // Adjacency index: the walk below touches every task's in- and
        // out-edges once; through the scanning accessors that is `O(n·e)`.
        let edge_idx = afg.edge_index();

        // Step 6: ready set = entry nodes.
        let mut remaining_parents = afg.in_degrees();
        let mut ready = ReadyList::new(config.sequential, levels);
        for t in afg.task_ids().filter(|t| remaining_parents[t.index()] == 0) {
            ready.push(t);
        }

        // (parent site, bytes) per in-edge of the current task, in edge
        // order — resolved once per task instead of once per candidate site.
        let mut parents: Vec<(SiteId, u64)> = Vec::new();

        while let Some(task) = ready.pop(levels) {
            parents.clear();
            if !ignore_transfer_time {
                for e in edge_idx.in_edges(afg, task) {
                    // Parents are decided before children in a DAG walk.
                    parents.push((outputs[won[e.from.index()] as usize].site, e.data_size));
                }
            }

            let is_critical = spread.is_some() && levels[task.index()] >= critical_floor - 1e-12;

            // Dataset inputs of this task. Under the transfer ablation the
            // replica term is excluded from the cost (like the parent term),
            // but the chosen source is still recorded for replay.
            let ds_cost: &[DsInput<'_>] =
                if ignore_transfer_time { &[] } else { dsi.for_task(task) };

            let best = choose_site_for_task(
                task,
                outputs,
                &parents,
                ds_cost,
                local_site,
                &mut xfer_time,
                if is_critical { spread.as_ref().map(|p| (p, &critical_hosts)) } else { None },
            );

            let (winner, choice) = best.ok_or_else(|| SchedError::NoFeasibleSite {
                task,
                name: afg.task(task).name.to_string(),
            })?;
            if is_critical {
                critical_hosts.extend(choice.hosts.iter().map(String::as_str));
            }
            won[task.index()] = winner as u32;

            // Update the ready set with children whose parents are all placed.
            for e in edge_idx.out_edges(afg, task) {
                remaining_parents[e.to.index()] -= 1;
                if remaining_parents[e.to.index()] == 0 {
                    ready.push(e.to);
                }
            }
        }

        // One row per decided task, in task-id order.
        let mut table = AllocationTable::with_capacity(afg.name.clone(), afg.task_count());
        for (node, &w) in afg.tasks.iter().zip(&won).filter(|(_, &w)| w != u32::MAX) {
            let out = &outputs[w as usize];
            let choice = out.choice(node.id).expect("the walk decided the task on this choice");
            table.insert(TaskPlacement {
                task: node.id,
                task_name: node.name.clone(),
                site: out.site,
                hosts: choice.hosts.clone(),
                predicted_seconds: choice.predicted_seconds,
                data_sources: (dsi.for_task(node.id).iter())
                    .map(|d| DataSource {
                        dataset: d.id,
                        source: cheapest_ds_source(d, out.site, &mut xfer_time).0,
                    })
                    .collect(),
            });
        }

        debug_assert_eq!(table.len(), afg.task_count(), "DAG walk must reach every task");
        if let Some(m) = metrics {
            m.counter_add("sched.transfer_cache.lookups", xfer_lookups);
        }
        Ok(table)
    }
}

/// The ready set of step 6, in both implementations, as `sequential`
/// picks: the reference linear-scan `Vec` (`O(n)` per pick, as the seed
/// implementation did it) and a [`LevelReady`], the tasks ranked once by
/// level with the ready ranks in a bitset. Both yield tasks
/// highest-level-first with ties by ascending id; the property tests
/// compare the resulting tables for equality.
enum ReadyList {
    Scan(Vec<TaskId>),
    Ranked(LevelReady),
}

impl ReadyList {
    fn new(sequential: bool, levels: &[f64]) -> Self {
        if sequential {
            ReadyList::Scan(Vec::new())
        } else {
            ReadyList::Ranked(LevelReady::new(levels))
        }
    }

    fn push(&mut self, task: TaskId) {
        match self {
            ReadyList::Scan(v) => v.push(task),
            ReadyList::Ranked(r) => r.push(task),
        }
    }

    fn pop(&mut self, levels: &[f64]) -> Option<TaskId> {
        match self {
            ReadyList::Scan(v) => {
                // Highest level first; ties by ascending id.
                let (pos, _) = v.iter().enumerate().max_by(|(_, a), (_, b)| {
                    levels[a.index()].total_cmp(&levels[b.index()]).then(b.cmp(a))
                })?;
                Some(v.swap_remove(pos))
            }
            ReadyList::Ranked(r) => r.pop(),
        }
    }
}

/// The levels are the caller's ([`SchedRequest::walk`] is public): the
/// ready list indexes them by task and orders by them, so a slice of the
/// wrong length or a NaN, infinite or negative level is refused before
/// the walk starts.
fn check_levels(afg: &Afg, levels: &[f64]) -> Result<(), SchedError> {
    let tasks = afg.task_count();
    let invalid = |bad| SchedError::InvalidLevels { tasks, levels: levels.len(), bad };
    if levels.len() != tasks {
        return Err(invalid(None));
    }
    match levels.iter().position(|l| !(l.is_finite() && *l >= 0.0)) {
        Some(i) => Err(invalid(Some(TaskId(i as u32)))),
        None => Ok(()),
    }
}

/// The argmin of step 7 for one task: probe every involved site's choice
/// table, add the parents' transfer times via
/// `xfer_time`, and pick the minimum `Timetotal` with the
/// local-first/ascending-site-id tie-break. With `spread` set it
/// additionally tracks the best candidate whose hosts are disjoint from
/// the accumulated critical hosts and takes it when within tolerance.
/// Answers the winning output's index in `outputs` and its choice.
///
/// Shared between the full DAG walk above and the O(changed) re-placement
/// in [`crate::incremental`] — sharing the decision function is what
/// makes the incremental path bit-identical per task.
pub(crate) fn choose_site_for_task<'a>(
    task: TaskId,
    outputs: &'a [HostSelectionOutput],
    parents: &[(SiteId, u64)],
    datasets: &[DsInput<'_>],
    local_site: SiteId,
    xfer_time: &mut dyn FnMut(SiteId, SiteId, u64) -> f64,
    spread: Option<(&SpreadPolicy, &HashSet<&str>)>,
) -> Option<(usize, &'a TaskHostChoice)> {
    // `best` is Figure 2's argmin, as (index into `outputs`, site,
    // choice, Timetotal); `best_spread` additionally requires the chosen
    // hosts to be disjoint from every previously placed critical task's
    // hosts.
    type Candidate<'c> = Option<(usize, SiteId, &'c TaskHostChoice, f64)>;
    let mut best: Candidate<'a> = None;
    let mut best_spread: Candidate<'a> = None;
    for (i, out) in outputs.iter().enumerate() {
        let Some(choice) = out.choice(task) else { continue };
        let site = out.site;
        // Σ over in-edges of transfer from the parent's site (empty for
        // entry tasks and under the ablation: pure Predict).
        let mut xfer = 0.0;
        for &(parent_site, bytes) in parents {
            xfer += xfer_time(parent_site, site, bytes);
        }
        // Plus, per dataset input, the *cheapest* live replica's
        // transfer — the data-aware extension of Timetotal.
        for d in datasets {
            xfer += cheapest_ds_source(d, site, xfer_time).1;
        }
        let total = xfer + choice.predicted_seconds;
        let better = |prev: &Candidate<'a>| match prev {
            None => true,
            Some((_, bsite, _, btotal)) => {
                total < btotal - 1e-15
                    || ((total - btotal).abs() <= 1e-15
                        && site_rank(site, local_site) < site_rank(*bsite, local_site))
            }
        };
        if better(&best) {
            best = Some((i, site, choice, total));
        }
        if let Some((_, critical_hosts)) = spread {
            if choice.hosts.iter().all(|h| !critical_hosts.contains(h.as_str()))
                && better(&best_spread)
            {
                best_spread = Some((i, site, choice, total));
            }
        }
    }
    // Recovery-aware preference: take the host-disjoint candidate when
    // it costs at most `policy.tolerance ×` the unconstrained optimum.
    if let (Some((.., btotal)), Some(cand), Some((policy, _))) = (&best, &best_spread, &spread) {
        if cand.3 <= btotal * policy.tolerance + 1e-15 {
            best = Some(*cand);
        }
    }
    best.map(|(i, _, choice, _)| (i, choice))
}

/// Cheapest replica source of one dataset input for a read at `to`:
/// strict `<` minimum over the replica sites, ties to the first listed
/// (replica sites are kept ascending, so ties resolve to the lowest
/// site id). Replica lists are non-empty by construction
/// ([`DatasetInputs::resolve`] rejects empty ones), so this always
/// answers. Shared between the cost term in [`choose_site_for_task`]
/// and the recorded `data_sources` of the winning site, so the recorded
/// source is exactly the one the argmin priced.
fn cheapest_ds_source(
    d: &DsInput<'_>,
    to: SiteId,
    xfer_time: &mut dyn FnMut(SiteId, SiteId, u64) -> f64,
) -> (SiteId, f64) {
    let mut best = (d.sites[0], xfer_time(d.sites[0], to, d.size));
    for &src in &d.sites[1..] {
        let t = xfer_time(src, to, d.size);
        if t < best.1 {
            best = (src, t);
        }
    }
    best
}

/// Tie-break rank: local site first, then ascending site id.
fn site_rank(site: SiteId, local: SiteId) -> (bool, u16) {
    (site != local, site.0)
}

#[cfg(test)]
mod tests {
    use crate::site_scheduler::tests::{cfg, chain_afg, request, site_view};
    use crate::site_scheduler::SchedError;
    use crate::SchedulerConfig;
    use vdce_afg::TaskId;
    use vdce_net::model::NetworkModel;
    use vdce_predict::cache::PredictCache;

    /// The walk takes its levels from the caller. One per task, finite and
    /// non-negative, or a typed error — in both ready-list implementations,
    /// which index the slice by task and order by its values.
    #[test]
    fn levels_of_the_wrong_length_or_not_finite_are_refused() {
        let local = site_view(0, &[("h0", 1.0), ("h1", 2.0)]);
        let net = NetworkModel::with_defaults(1);
        let afg = chain_afg(10_000);
        let config = cfg(0);
        let outputs = [crate::host_selection_classed(
            &local,
            &afg,
            &config.predictor,
            &config.parallel,
            &PredictCache::new(),
        )];
        let walk = |levels: &[f64], sequential: bool| {
            request(&afg, &local, &[], &net, &SchedulerConfig { sequential, ..config })
                .walk(levels, &outputs)
        };
        let good = local.levels(&afg).unwrap();
        for sequential in [false, true] {
            assert!(walk(&good, sequential).unwrap().is_complete_for(&afg));
            // Short (the ready list would index past its end) and long.
            for wrong in [&good[..2], &[good.as_slice(), &[0.0]].concat()] {
                let err = walk(wrong, sequential).unwrap_err();
                let expect = SchedError::InvalidLevels { tasks: 3, levels: wrong.len(), bad: None };
                assert_eq!(err, expect);
                assert!(err.to_string().contains(&format!("{} entries", wrong.len())));
            }
            // NaN (no numeric order for the ready list), infinite,
            // negative: the lowest offending task is named.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
                let levels = [good[0], bad, bad];
                let err = walk(&levels, sequential).unwrap_err();
                let expect =
                    SchedError::InvalidLevels { tasks: 3, levels: 3, bad: Some(TaskId(1)) };
                assert_eq!(err, expect, "level {bad}");
                assert!(err.to_string().contains("task t1"), "{err}");
            }
        }
    }
}
