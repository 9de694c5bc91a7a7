//! Data-aware scheduling (DESIGN.md §18): schedule the replicated-dataset
//! workloads and hold the Dataset/Replica API to its contract. Records
//! `BENCH_data.json` (makespans, margins, journal lengths).
//!
//! Claims, each a row of the artifact's `gates` section:
//!
//! 1. **Data-aware placement wins** — on the data-intensive pipeline
//!    (slow archive site holds every home replica, fast compute sites
//!    hold caches) the joint compute+transfer objective must beat the
//!    parent-site-only ablation ([`DataView::primary_only`]) by at
//!    least [`MARGIN`];
//! 2. **Single-co-located-replica equivalence** — when every dataset
//!    has exactly one replica, at the parent site, the data-aware
//!    schedule must be *bit-identical* to the parent-site-only one
//!    (the redesign degrades to the paper's model, it doesn't drift);
//! 3. **Replays are bit-identical** — scheduling the parameter sweep
//!    twice yields byte-identical allocation tables (recorded replica
//!    sources included) and bit-identical makespans, and replaying the
//!    catalog's WAL journal reconstructs the same `state_hash`;
//! 4. **Zero storage violations** — no scenario run may trip a
//!    capacity rejection in the catalog.

use crate::exp::Claims;
use serde::Serialize;
use serde_json::{json, Value};
use vdce_data::{DataView, DatasetCatalog};
use vdce_obs::{Report, RunArtifact, Table};
use vdce_sched::{evaluate, site_schedule, SchedRequest, SchedulerConfig};
use vdce_sim::data::{pipeline_workload, sweep_workload, DataScenario};

/// Required pipeline advantage: data-aware makespan × MARGIN must stay
/// below the parent-site-only makespan.
const MARGIN: f64 = 1.2;

/// Pipeline chains, their dataset size, and the sweep's task count.
const CHAINS: usize = 12;
const DATASET_BYTES: u64 = 64 << 20;
const SWEEP_TASKS: usize = 600;

/// One gate row in the report and `BENCH_data.json`.
#[derive(Debug, Clone, Serialize)]
struct GateRow {
    gate: String,
    observed: String,
    required: String,
    ok: bool,
}

/// One scheduled-scenario row of `BENCH_data.json`.
fn run_row(scenario: &str, sc: &DataScenario, makespan_s: f64) -> Value {
    json!({
        "scenario": scenario, "tasks": (sc.afg.tasks.len()), "datasets": (sc.catalog.len()),
        "makespan_s": makespan_s, "journal_records": (sc.journal.history().len()),
        "violations": (sc.catalog.violations())
    })
}

/// Schedule `sc` against `view` and return the serialized allocation
/// table (placements + recorded replica sources, byte-exact) and the
/// evaluated makespan.
fn schedule(sc: &DataScenario, view: &DataView) -> (String, f64) {
    let (afg, local, remotes, net) = (&sc.afg, &sc.views[0], &sc.views[1..], &sc.net);
    let (config, data) = (&SchedulerConfig::default(), Some(view));
    let req = SchedRequest { afg, local, remotes, net, config, data, metrics: None };
    let table = site_schedule(&req).expect("scenario schedules");
    let levels: Vec<f64> = sc
        .afg
        .tasks
        .iter()
        .map(|t| sc.views[0].tasks.base_time(&t.library_task, t.problem_size).unwrap_or(0.0))
        .collect();
    let sched = evaluate(&sc.afg, &table, &sc.net, &levels, Some(view))
        .expect("scheduled scenario evaluates");
    let json = serde_json::to_string(&table).expect("allocation table serialises");
    (json, sched.makespan)
}

pub(super) fn run(claims: &mut Claims) -> (String, RunArtifact) {
    let mut gates: Vec<GateRow> = Vec::new();
    let mut gate = |name: &str, observed: String, required: String, ok: bool| {
        gates.push(GateRow { gate: name.into(), observed, required, ok });
    };

    // Gate 1: data-aware beats parent-site-only on the pipeline.
    let pipeline = pipeline_workload(CHAINS, DATASET_BYTES, 5);
    let view = pipeline.catalog.view();
    let (_, data_aware) = schedule(&pipeline, &view);
    let (_, primary) = schedule(&pipeline, &view.primary_only());
    gate(
        "pipeline data-aware wins",
        format!("{:.2}s vs {:.2}s ({:.2}x)", data_aware, primary, primary / data_aware),
        format!(">= {MARGIN:.2}x"),
        data_aware * MARGIN < primary,
    );

    // Gate 2: with exactly one replica per dataset, co-located with the
    // parent site, the data-aware schedule degrades bit-identically to
    // the parent-site-only one. The sweep's home replica lives at the
    // parent site (site 0); dropping the cache at site 1 leaves a
    // single co-located replica.
    let mut single = sweep_workload(SWEEP_TASKS, 8 << 20, 11);
    single
        .catalog
        .invalidate_replica(vdce_afg::DatasetId(1), vdce_net::topology::SiteId(1))
        .expect("sweep cache replica exists to invalidate");
    let sview = single.catalog.view();
    let (full_json, full_mk) = schedule(&single, &sview);
    let (primary_json, primary_mk) = schedule(&single, &sview.primary_only());
    let identical = full_json == primary_json && full_mk.to_bits() == primary_mk.to_bits();
    gate(
        "single co-located replica equivalence",
        if identical {
            "bit-identical".into()
        } else {
            format!("tables differ ({:.4}s vs {:.4}s)", full_mk, primary_mk)
        },
        "bit-identical".into(),
        identical,
    );

    // Gate 3a: double sweep schedule is bit-identical.
    let sweep = sweep_workload(SWEEP_TASKS, 8 << 20, 7);
    let wview = sweep.catalog.view();
    let (a_json, a_mk) = schedule(&sweep, &wview);
    let (b_json, b_mk) = schedule(&sweep, &wview);
    let identical = a_json == b_json && a_mk.to_bits() == b_mk.to_bits();
    gate(
        "sweep double replay",
        if identical { "bit-identical".into() } else { "DIVERGED".into() },
        "bit-identical".into(),
        identical,
    );

    // Gate 3b: replaying the catalog's WAL journal reconstructs the
    // exact catalog state the run used.
    let history = sweep.journal.history();
    let replayed = DatasetCatalog::replay(history.iter().map(|(t, p)| (t.as_str(), p.as_str())));
    let equal = replayed.state_hash() == sweep.catalog.state_hash();
    gate(
        "catalog journal replay",
        format!("{} record(s), hash {}", history.len(), if equal { "equal" } else { "DIFFERS" }),
        "state_hash equal".into(),
        equal,
    );

    // Gate 4: zero storage-capacity violations across every run.
    let violations =
        pipeline.catalog.violations() + single.catalog.violations() + sweep.catalog.violations();
    gate("storage violations", violations.to_string(), "0".into(), violations == 0);

    let mut table = Table::new(&["gate", "observed", "required", "ok"]);
    for g in &gates {
        table.row(&[
            g.gate.clone(),
            g.observed.clone(),
            g.required.clone(),
            if g.ok { "yes".into() } else { "NO".into() },
        ]);
        claims.check(g.ok, || {
            format!("{} — observed {}, required {}", g.gate, g.observed, g.required)
        });
    }
    let runs = vec![
        run_row("pipeline(data-aware)", &pipeline, data_aware),
        run_row("pipeline(primary-only)", &pipeline, primary),
        run_row("sweep", &sweep, a_mk),
    ];
    let failed = gates.iter().filter(|g| !g.ok).count();
    let report = Report::new("data-aware scheduling over replicated datasets")
        .table(table)
        .note(format!(
            "{CHAINS} chain(s), {} MiB dataset(s), {SWEEP_TASKS} sweep task(s); {} gate(s), {failed} failing",
            DATASET_BYTES >> 20,
            gates.len(),
        ));
    let artifact = RunArtifact::new("exp_data")
        .meta("chains", CHAINS)
        .meta("dataset_bytes", DATASET_BYTES)
        .meta("sweep_tasks", SWEEP_TASKS)
        .meta("required_margin", MARGIN)
        .meta("observed_margin", primary / data_aware)
        .meta("violations", violations)
        .section("gates", &gates)
        .section("runs", &runs);
    (report.render(), artifact)
}
