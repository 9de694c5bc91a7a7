//! Allocation counts of the batch path's graph passes, held in tier-1.
//!
//! `evaluate` borrows everything it reads from the table and shares each
//! placement's host list, so the number of allocations it makes is a
//! handful of arrays — independent of how many tasks the AFG has (it
//! used to copy every placement's host names: ~2.5 allocations per
//! task). `site_schedule` writes one dense row per task that shares its
//! name with the AFG node and its hosts with the choice, so it too
//! allocates per call (it used to clone a name and grow a tree per task);
//! both rank the tasks by level once and keep the ready ranks in a
//! bitset, a fixed three arrays. `Afg::topo_order` keeps its frontier in
//! the same bitset, over task ids, so a 25k-wide layer costs a bit scan
//! per task, in the same order as before.
//!
//! The file installs a counting allocator and holds exactly one `#[test]`,
//! so no other test allocates beside the measured regions.

mod common;

use common::{layered, palette_afg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vdce_afg::level::level_map;
use vdce_afg::{Afg, MachineType, TaskId};
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_repository::resources::ResourceRecord;
use vdce_repository::SiteRepository;
use vdce_sched::{
    evaluate, site_schedule, AllocationTable, SchedRequest, SchedulerConfig, SiteView,
};

struct Counting;

// A statistic only: it publishes no other data, so `Relaxed` is enough.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes (its result is dropped after the reading).
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

/// The order `topo_order` is specified to return, the slow way: of the
/// tasks whose parents are all out, always the one with the lowest id.
fn min_ready_scan(g: &Afg) -> Vec<TaskId> {
    let mut deg = g.in_degrees();
    let mut out = vec![false; g.task_count()];
    let mut order = Vec::new();
    while let Some(t) = g.task_ids().find(|t| !out[t.index()] && deg[t.index()] == 0) {
        out[t.index()] = true;
        order.push(t);
        for e in g.out_edges(t) {
            deg[e.to.index()] -= 1;
        }
    }
    order
}

fn federation(sites: usize, hosts: usize) -> (Vec<SiteView>, NetworkModel) {
    let views = (0..sites)
        .map(|s| {
            let repo = SiteRepository::new();
            repo.resources_mut(|db| {
                for h in 0..hosts {
                    let speed = 2.0 + s as f64; // equal within a site: wide node sets pay off
                    let name = format!("s{s}h{h}");
                    let rec = ResourceRecord::new(
                        name,
                        "10.0.0.1",
                        MachineType::LinuxPc,
                        speed,
                        1,
                        1 << 30,
                        "g0",
                    );
                    db.upsert(rec);
                }
            });
            SiteView::capture(SiteId(s as u16), &repo)
        })
        .collect();
    (views, NetworkModel::with_defaults(sites))
}

/// A palette AFG of `tasks` tasks, every third one a parallel task asking
/// for 8 nodes, scheduled on 4 × 12 hosts: the table, and the allocation
/// calls `site_schedule` made to produce it.
fn scheduled(tasks: usize) -> (Afg, NetworkModel, AllocationTable, u64) {
    let afg = palette_afg(tasks);
    let (views, net) = federation(4, 12);
    let (local, remotes, config) = (&views[0], &views[1..], &SchedulerConfig::default());
    let req =
        SchedRequest { afg: &afg, local, remotes, net: &net, config, data: None, metrics: None };
    let (table, allocs) = allocs_of(|| site_schedule(&req));
    let table = table.expect("the palette AFG schedules");
    let widest = table.iter().map(|p| p.hosts.len()).max();
    assert!(widest >= Some(4), "parallel tasks got at most {widest:?} hosts");
    (afg, net, table, allocs)
}

/// Allocations of one `evaluate` over the scheduled palette AFG.
fn evaluate_allocs(tasks: usize) -> u64 {
    let (afg, net, table, _) = scheduled(tasks);
    let levels = level_map(&afg, |t| t.problem_size as f64).expect("layered graphs are acyclic");
    let (schedule, allocs) = allocs_of(|| evaluate(&afg, &table, &net, &levels, None));
    let schedule = schedule.expect("complete tables evaluate");
    assert_eq!(schedule.tasks.len(), tasks);
    assert!(schedule.makespan > 0.0);
    allocs
}

#[test]
fn graph_passes_allocate_per_call_not_per_task() {
    // `evaluate`: a fixed set of arrays (a few of them grown by
    // doubling), so twice the tasks may add a couple of regrowths — not
    // the ~5,000 allocations 2,000 more tasks used to cost.
    let (small, large) = (evaluate_allocs(2_000), evaluate_allocs(4_000));
    assert!(small <= 64, "evaluate made {small} allocations on 2k tasks");
    assert!(large <= small + 4, "evaluate: {small} allocations on 2k tasks, {large} on 4k");

    // `site_schedule`: levels, one choice per task class and site, the
    // walk's arrays and the table's one row vector — a row shares its name
    // with the AFG and its hosts with the choice, so four times the tasks
    // add buffer doublings, not a name and a share of a tree node each.
    let (_, _, _, small) = scheduled(2_000);
    let (_, _, table, large) = scheduled(8_000);
    assert!(large < 1_000, "site_schedule made {large} allocations on 8k tasks");
    assert!(large <= small + 16, "site_schedule: {small} allocations on 2k tasks, {large} on 8k");

    // The table's iterator knows its length, so collecting it sizes the
    // target once; a clone copies the application name and the row vector
    // and bumps the reference counts inside the rows.
    let (sites, allocs) = allocs_of(|| table.iter().map(|p| p.site).collect::<Vec<_>>());
    assert_eq!((sites.len(), allocs), (8_000, 1));
    let (copy, allocs) = allocs_of(|| table.clone());
    assert_eq!((copy == table, allocs), (true, 2));

    // `topo_order`: the specified order on a 500-task down-scale …
    let down = layered(500, 250, true);
    assert_eq!(down.topo_order().expect("acyclic"), min_ready_scan(&down));
    // … and a valid order of all 50k tasks under a 25k-wide frontier,
    // from three arrays grown by doubling at most.
    let wide = layered(50_000, 25_000, true);
    let idx = wide.edge_index();
    let (order, allocs) = allocs_of(|| wide.topo_order_with(&idx));
    let order = order.expect("acyclic");
    assert!(allocs <= 40, "topo_order made {allocs} allocations");
    let mut position = vec![usize::MAX; wide.task_count()];
    for (i, t) in order.iter().enumerate() {
        position[t.index()] = i;
    }
    assert!(position.iter().all(|&p| p != usize::MAX), "a task is missing from the order");
    assert!(wide.edges.iter().all(|e| position[e.from.index()] < position[e.to.index()]));
}
