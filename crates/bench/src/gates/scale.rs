//! Hot-path scale curves: wall-clock placement throughput of the site
//! scheduler over DAG size × federation size, plus the O(changed)
//! incremental-rescheduling path against a full re-walk. Records
//! `BENCH_scale.json`.
//!
//! Two measurements per run:
//!
//! - **configs** — `site_schedule` (class-batched host selection + heap
//!   ready list + SoA walk) timed over tasks × sites. One extra untimed
//!   run with a metrics registry per config must place the same
//!   table, and populates the embedded metric snapshot (cache
//!   statistics).
//! - **incremental** — a single monitor event (one host marked Down, its
//!   site's host selection recomputed) absorbed by
//!   [`IncrementalSchedule::apply`] vs a full Figure 2 re-walk over the
//!   updated outputs, at 10k tasks / 8 sites and 100k / 64. The claim:
//!   the two tables are bit-identical.
//!
//! Every timing sits under the artifact's `wall_clock` section. Speed
//! regressions are `vdce_perf`'s to catch (`perf/`), which controls for
//! noise.

use super::WALL_CLOCK_NOTE;
use crate::exp::Claims;
use crate::{bench_dag, bench_federation, shape_palette_workload, split_views};
use serde_json::json;
use std::collections::HashMap;
use std::time::Instant;
use vdce_afg::Afg;
use vdce_net::topology::SiteId;
use vdce_obs::{MetricsRegistry, MetricsSnapshot, Report, RunArtifact, Table};
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::ParallelModel;
use vdce_repository::resources::HostStatus;
use vdce_sched::site_scheduler::{site_schedule, SchedRequest, SchedulerConfig};
use vdce_sched::view::SiteView;
use vdce_sched::{
    host_selection_classed, AllocationTable, HostSelectionOutput as Output, IncrementalSchedule,
    ReschedulingDelta,
};
use vdce_sim::pool_gen::Federation;

/// k nearest neighbour sites, every config (the acceptance setting).
const K: usize = 3;

/// Best-of-`reps` wall-clock seconds for one run.
fn time_run<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

fn reps_for(tasks: usize) -> usize {
    match tasks {
        t if t >= 100_000 => 1,
        t if t >= 10_000 => 3,
        _ => 5,
    }
}

/// Best-of-reps seconds of `site_schedule` on one (tasks, sites) cell,
/// and the metric snapshot of an untimed observed run (cache statistics).
fn measure_config(tasks: usize, sites: usize, claims: &mut Claims) -> (f64, MetricsSnapshot) {
    let fed = bench_federation(sites, 8);
    let views = fed.views();
    let (local, remotes) = split_views(&views);
    let mut afg = bench_dag(tasks, 42);
    shape_palette_workload(&mut afg);
    let config = &SchedulerConfig { k_neighbours: K, ..SchedulerConfig::default() };
    let req = SchedRequest {
        afg: &afg,
        local,
        remotes,
        net: &fed.net,
        config,
        data: None,
        metrics: None,
    };

    let (secs, table) =
        time_run(reps_for(tasks), || site_schedule(&req).expect("schedulable benchmark config"));
    let metrics = MetricsRegistry::new();
    let observed =
        site_schedule(&SchedRequest { metrics: Some(&metrics), ..req }).expect("observed run");
    claims.check(table.len() == afg.task_count() && observed == table, || {
        format!("{tasks} tasks / {sites} sites: incomplete, or the observed run differs")
    });
    (secs, metrics.snapshot())
}

/// Class-batched host selection at `site`.
fn host_selection(fed: &Federation, site: SiteId, afg: &Afg, cache: &PredictCache) -> Output {
    let view = SiteView::capture(site, &fed.repos[site.0 as usize]);
    let (predictor, parallel) = (Predictor::default(), ParallelModel::default());
    host_selection_classed(&view, afg, &predictor, &parallel, cache)
}

/// One monitor event on a (tasks, sites) config: kill a host at the
/// first remote involved site, recompute that site's host selection,
/// then absorb the delta incrementally and via a full re-walk, which
/// must place bit-identical tables. Returns the delta and the best-of-reps
/// seconds of both.
fn measure_incremental(
    tasks: usize,
    sites: usize,
    claims: &mut Claims,
) -> (ReschedulingDelta, f64, f64) {
    let fed = bench_federation(sites, 8);
    let mut afg = bench_dag(tasks, 42);
    shape_palette_workload(&mut afg);
    let cache = PredictCache::new();
    // The k-involved sites in the order `site_schedule` uses: local
    // first, then the nearest neighbours.
    let involved = std::iter::once(SiteId(0)).chain(fed.net.nearest_neighbours(SiteId(0), K));
    let outputs: Vec<Output> = involved.map(|s| host_selection(&fed, s, &afg, &cache)).collect();

    let inc = IncrementalSchedule::new(&afg, SiteId(0), outputs.clone(), &fed.net, false)
        .expect("schedulable benchmark config");

    // Monitor event: the least-loaded host that still carries placements
    // dies — a non-empty but small dirty set, the shape a monitor event
    // usually has (killing the globally fastest host would re-pick every
    // task class at its site). Only the victim's site re-runs host
    // selection — the other views are untouched, so their outputs are
    // reused as-is (the pattern a monitor-driven scheduler follows).
    let mut load: HashMap<(SiteId, &str), usize> = HashMap::new();
    for p in inc.table().iter() {
        for h in p.hosts.iter() {
            *load.entry((p.site, h.as_str())).or_default() += 1;
        }
    }
    let (&(event_site, victim), _) = load
        .iter()
        .min_by_key(|(&(site, host), &count)| (count, site, host))
        .expect("non-empty schedule");
    let victim = victim.to_string();
    fed.repos[event_site.0 as usize].resources_mut(|db| db.set_status(&victim, HostStatus::Down));
    let mut new_outputs = outputs.clone();
    let slot = new_outputs.iter().position(|o| o.site == event_site).expect("involved");
    new_outputs[slot] = host_selection(&fed, event_site, &afg, &cache);

    // Full Figure 2 re-walk over the updated outputs (level recompute
    // included — a from-scratch scheduler pays it on every event).
    let local_view = SiteView::capture(SiteId(0), &fed.repos[0]);
    let (local, config, net) = (&local_view, &SchedulerConfig::default(), &fed.net);
    let req =
        SchedRequest { afg: &afg, local, remotes: &[], net, config, data: None, metrics: None };
    let reps = reps_for(tasks);
    let (full_s, rewalk) = time_run(reps, || {
        let levels = local_view.levels(&afg).expect("acyclic");
        req.walk(&levels, &new_outputs).expect("schedulable after event")
    });

    // Incremental absorb: clone the pre-event schedule each rep (outside
    // the timed region) so every rep applies the same delta.
    let mut inc_s = f64::INFINITY;
    let mut applied = None;
    for _ in 0..reps {
        let mut fresh = inc.clone();
        let next = new_outputs.clone();
        let t0 = Instant::now();
        let delta = fresh.apply(&afg, next).expect("schedulable after event");
        inc_s = inc_s.min(t0.elapsed().as_secs_f64());
        applied = Some((fresh, delta));
    }
    let (applied, delta) = applied.expect("reps >= 1");

    let (a, b) = (applied.table(), &rewalk);
    let bits = |t: &AllocationTable| -> Vec<u64> {
        t.iter().map(|p| p.predicted_seconds.to_bits()).collect()
    };
    claims.check(a == b && bits(a) == bits(b), || {
        format!("{tasks} tasks / {sites} sites: incremental apply differs from the full re-walk")
    });
    (delta, full_s, inc_s)
}

pub(super) fn run(claims: &mut Claims) -> (String, RunArtifact) {
    let mut t = Table::new(&["tasks", "sites", "wall_ms", "placements/s"]);
    let (mut configs, mut config_times) = (Vec::new(), Vec::new());
    // Keep the largest config's observed snapshot for the artifact.
    let mut snapshot = None;
    for tasks in [1_000usize, 10_000, 100_000] {
        for sites in [8usize, 64] {
            let (secs, snap) = measure_config(tasks, sites, claims);
            let (wall_ms, per_sec) = (secs * 1e3, tasks as f64 / secs);
            t.row(&[
                tasks.to_string(),
                sites.to_string(),
                format!("{wall_ms:.2}"),
                format!("{per_sec:.0}"),
            ]);
            configs.push(json!({"tasks": tasks, "sites": sites, "k": K}));
            config_times.push(json!({
                "tasks": tasks, "sites": sites, "wall_ms": wall_ms, "placements_per_sec": per_sec
            }));
            snapshot = Some(snap);
        }
    }

    let mut it =
        Table::new(&["tasks", "sites", "dirty", "replaced", "full_ms", "inc_ms", "speedup"]);
    let (mut incremental, mut incremental_times) = (Vec::new(), Vec::new());
    for (tasks, sites) in [(10_000usize, 8usize), (100_000, 64)] {
        let (delta, full_s, inc_s) = measure_incremental(tasks, sites, claims);
        let (full_ms, inc_ms, speedup) = (full_s * 1e3, inc_s * 1e3, full_s / inc_s);
        it.row(&[
            tasks.to_string(),
            sites.to_string(),
            delta.dirty.to_string(),
            delta.replaced.to_string(),
            format!("{full_ms:.2}"),
            format!("{inc_ms:.3}"),
            format!("{speedup:.0}x"),
        ]);
        // `dirty`: tasks whose own host-selection choice changed at some
        // site; `replaced`: placements `apply` re-decided; `moved`: those
        // whose content actually changed.
        incremental.push(json!({
            "tasks": tasks, "sites": sites, "k": K,
            "dirty": (delta.dirty), "replaced": (delta.replaced), "moved": (delta.moved)
        }));
        incremental_times.push(json!({
            "tasks": tasks, "sites": sites,
            "full_rewalk_ms": full_ms, "incremental_ms": inc_ms, "speedup": speedup
        }));
    }

    let report = Report::new("hot-path scale curves (k=3)")
        .table(t)
        .table(it)
        .note("incremental tables checked bit-identical to the full re-walk");
    let wall_clock =
        json!({"note": WALL_CLOCK_NOTE, "configs": config_times, "incremental": incremental_times});
    let artifact = RunArtifact::new("exp_scale")
        .meta("k_neighbours", K)
        .meta("hosts_per_site", 8usize)
        .meta("workload", "layered random DAG, palette granularities, 1/3 parallel (8 nodes)")
        .metrics(snapshot.expect("the grid is not empty"))
        .section("configs", &configs)
        .section("incremental", &incremental)
        .section("wall_clock", &wall_clock);
    (report.render(), artifact)
}
