//! Hot-path scale curves: wall-clock placement throughput of the site
//! scheduler over DAG size × federation size, plus the O(changed)
//! incremental-rescheduling path against a full re-walk.
//!
//! Two measurements per run:
//!
//! - **configs** — `site_schedule` (class-batched host selection + heap
//!   ready list + SoA walk) timed over tasks × sites.
//! - **incremental** — a single monitor event (one host marked Down, its
//!   site's host selection recomputed) absorbed by
//!   [`IncrementalSchedule::apply`] vs a full Figure 2 re-walk over the
//!   updated outputs; the tables are asserted bit-identical.
//!
//! Writes `BENCH_scale.json` (a schema-v1 [`RunArtifact`]) in the
//! current directory. Timed runs use the plain entry points; one extra
//! untimed [`site_schedule_observed`] run per config populates the
//! embedded metric snapshot (cache statistics).
//!
//! `--quick` runs the CI gate instead: on the 10k-task / 8-site / k=3
//! config it asserts incremental == full-re-walk bit-identity (a panic,
//! so a non-zero exit, on divergence) and writes nothing. Regressions in
//! speed are `vdce_perf`'s to catch (`perf/`), which controls for noise.

use std::time::Instant;
use vdce_bench::{bench_dag, bench_federation, shape_palette_workload, split_views};
use vdce_net::topology::SiteId;
use vdce_obs::{MetricsRegistry, Report, RunArtifact, Table};
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::ParallelModel;
use vdce_repository::resources::HostStatus;
use vdce_sched::site_scheduler::{
    schedule_with_outputs_data, site_schedule, site_schedule_observed, SchedulerConfig,
};
use vdce_sched::view::SiteView;
use vdce_sched::{
    host_selection_classed, AllocationTable, HostSelectionOutput, IncrementalSchedule,
};
use vdce_sim::pool_gen::Federation;

/// k nearest neighbour sites, every config (the acceptance setting).
const K: usize = 3;

/// One measured scale-curve row (serialised into `BENCH_scale.json`).
#[derive(serde::Serialize)]
struct MeasuredRow {
    tasks: usize,
    sites: usize,
    k: usize,
    wall_ms: f64,
    placements_per_sec: f64,
}

/// The incremental-rescheduling section of the artifact.
#[derive(serde::Serialize)]
struct IncrementalRow {
    tasks: usize,
    sites: usize,
    k: usize,
    /// Tasks whose own host-selection choice changed at some site.
    dirty: usize,
    /// Placements re-decided by `apply`.
    replaced: usize,
    /// Placements whose content actually changed.
    moved: usize,
    full_rewalk_ms: f64,
    incremental_ms: f64,
    speedup: f64,
}

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

/// Time `site_schedule` on one (tasks, sites) cell; also returns the
/// metric snapshot of an untimed observed run (cache statistics).
fn measure_config(tasks: usize, sites: usize) -> (MeasuredRow, vdce_obs::MetricsSnapshot) {
    let fed = bench_federation(sites, 8);
    let views = fed.views();
    let (local, remotes) = split_views(&views);
    let mut afg = bench_dag(tasks, 42);
    shape_palette_workload(&mut afg);
    let cfg = SchedulerConfig { k_neighbours: K, ..SchedulerConfig::default() };

    let (secs, table) = time_run(reps_for(tasks), || {
        site_schedule(&afg, local, remotes, &fed.net, &cfg).expect("schedulable benchmark config")
    });
    assert_eq!(table.len(), afg.task_count(), "every task placed");

    // Untimed observed run: cache statistics into the registry embedded
    // in the artifact.
    let metrics = MetricsRegistry::new();
    let obs = site_schedule_observed(&afg, local, remotes, &fed.net, &cfg, &metrics)
        .expect("observed run");
    assert_eq!(obs, table, "observed path must be bit-identical");

    (
        MeasuredRow {
            tasks,
            sites,
            k: K,
            wall_ms: secs * 1e3,
            placements_per_sec: tasks as f64 / secs,
        },
        metrics.snapshot(),
    )
}

/// Class-batched host selection for the k-involved sites, in the same
/// order `site_schedule` uses (local first, then nearest neighbours).
fn involved_outputs(
    fed: &Federation,
    afg: &vdce_afg::Afg,
    cache: &PredictCache,
) -> Vec<HostSelectionOutput> {
    let mut sites = vec![SiteId(0)];
    sites.extend(fed.net.nearest_neighbours(SiteId(0), K));
    sites
        .iter()
        .map(|&s| {
            let view = SiteView::capture(s, &fed.repos[s.0 as usize]);
            host_selection_classed(
                &view,
                afg,
                &Predictor::default(),
                &ParallelModel::default(),
                cache,
            )
        })
        .collect()
}

/// One monitor event on a (tasks, sites) config: kill a host at the
/// first remote involved site, recompute that site's host selection,
/// then absorb the delta incrementally and via a full re-walk.
/// Returns the measured row; panics if the tables diverge.
fn measure_incremental(tasks: usize, sites: usize) -> IncrementalRow {
    let fed = bench_federation(sites, 8);
    let mut afg = bench_dag(tasks, 42);
    shape_palette_workload(&mut afg);
    let cache = PredictCache::new();
    let outputs = involved_outputs(&fed, &afg, &cache);

    let inc = IncrementalSchedule::new(&afg, SiteId(0), outputs.clone(), &fed.net, false)
        .expect("schedulable benchmark config");

    // Monitor event: the least-loaded host that still carries placements
    // dies — a non-empty but small dirty set, the shape a monitor event
    // usually has (killing the globally fastest host would re-pick every
    // task class at its site). Only the victim's site re-runs host
    // selection — the other views are untouched, so their outputs are
    // reused as-is (the pattern a monitor-driven scheduler follows).
    let mut load: std::collections::HashMap<(SiteId, &str), usize> =
        std::collections::HashMap::new();
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
    let view = SiteView::capture(event_site, &fed.repos[event_site.0 as usize]);
    new_outputs[slot] = host_selection_classed(
        &view,
        &afg,
        &Predictor::default(),
        &ParallelModel::default(),
        &cache,
    );

    // Full Figure 2 re-walk over the updated outputs (level recompute
    // included — a from-scratch scheduler pays it on every event).
    let local_view = SiteView::capture(SiteId(0), &fed.repos[0]);
    let reps = reps_for(tasks);
    let (full_s, rewalk) = time_run(reps, || {
        let levels = local_view.levels(&afg).expect("acyclic");
        schedule_with_outputs_data(
            &afg,
            &levels,
            SiteId(0),
            &new_outputs,
            &fed.net,
            false,
            false,
            None,
            None,
        )
        .expect("schedulable after event")
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

    assert_tables_bit_identical(applied.table(), &rewalk);

    IncrementalRow {
        tasks,
        sites,
        k: K,
        dirty: delta.dirty,
        replaced: delta.replaced,
        moved: delta.moved,
        full_rewalk_ms: full_s * 1e3,
        incremental_ms: inc_s * 1e3,
        speedup: full_s / inc_s,
    }
}

fn assert_tables_bit_identical(a: &AllocationTable, b: &AllocationTable) {
    assert_eq!(a, b, "incremental apply must match the full re-walk");
    for (pa, pb) in a.iter().zip(b.iter()) {
        assert_eq!(
            pa.predicted_seconds.to_bits(),
            pb.predicted_seconds.to_bits(),
            "task {} prediction must be bit-identical",
            pa.task
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        run_quick_gate();
        return;
    }

    let grid: Vec<(usize, usize)> = [1_000usize, 10_000, 100_000]
        .iter()
        .flat_map(|&tasks| [8usize, 64].map(|sites| (tasks, sites)))
        .collect();

    let mut t = Table::new(&["tasks", "sites", "wall_ms", "placements/s"]);
    let mut rows = Vec::new();
    // Keep the largest config's observed snapshot for the artifact.
    let mut snapshot = None;
    for &(tasks, sites) in &grid {
        let (row, snap) = measure_config(tasks, sites);
        t.row(&[
            tasks.to_string(),
            sites.to_string(),
            format!("{:.2}", row.wall_ms),
            format!("{:.0}", row.placements_per_sec),
        ]);
        rows.push(row);
        snapshot = Some(snap);
    }

    let inc_rows: Vec<IncrementalRow> = [(10_000usize, 8usize), (100_000, 64)]
        .iter()
        .map(|&(t, s)| measure_incremental(t, s))
        .collect();

    let mut it =
        Table::new(&["tasks", "sites", "dirty", "replaced", "full_ms", "inc_ms", "speedup"]);
    for r in &inc_rows {
        it.row(&[
            r.tasks.to_string(),
            r.sites.to_string(),
            r.dirty.to_string(),
            r.replaced.to_string(),
            format!("{:.2}", r.full_rewalk_ms),
            format!("{:.3}", r.incremental_ms),
            format!("{:.0}x", r.speedup),
        ]);
    }

    RunArtifact::new("exp_scale")
        .meta("k_neighbours", K)
        .meta("hosts_per_site", 8usize)
        .meta("workload", "layered random DAG, palette granularities, 1/3 parallel (8 nodes)")
        .metrics(snapshot.expect("the grid is not empty"))
        .section("configs", &rows)
        .section("incremental", &inc_rows)
        .write("BENCH_scale.json")
        .expect("write BENCH_scale.json");

    Report::new("hot-path scale curves (k=3)")
        .table(t)
        .table(it)
        .note("incremental tables asserted bit-identical to the full re-walk")
        .note("wrote BENCH_scale.json")
        .print();
}

/// The CI gate: 10k tasks / 8 sites / k=3. [`measure_incremental`]
/// panics (non-zero exit) if the incremental apply diverges from the
/// full re-walk; nothing is written.
fn run_quick_gate() {
    let inc = measure_incremental(10_000, 8);
    println!(
        "quick: incremental apply replaced {} of 10000 ({} moved, {} dirty), \
         bit-identical to the full re-walk",
        inc.replaced, inc.moved, inc.dirty
    );
    println!("\nquick gate OK");
}
