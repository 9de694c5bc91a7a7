//! Streaming-service throughput and latency curves: the multi-tenant
//! admission + scheduling service (`vdce_sched::service`) under seeded
//! Poisson submission traces, swept over tenants × arrival rate ×
//! {8, 64} sites.
//!
//! Each cell materialises a Poisson trace, replays it through the
//! runtime submission gateway into a fresh [`StreamService`], and
//! records two kinds of numbers:
//!
//! - **deterministic outcomes** (logical time): admissions, rejections
//!   by broker reason, time-to-placement percentiles, restarts, the
//!   per-tenant starvation audit, and the placements digest. Two
//!   replays of the same scenario must agree on every byte of these —
//!   that is the `scenarios` section of the artifact.
//! - **wall-clock throughput**: sustained submissions/sec actually
//!   absorbed while draining the trace — the `throughput` section.
//!   Wall-clock never enters the deterministic section, so the
//!   byte-identity replay gate stays machine-independent.
//!
//! Writes `BENCH_stream.json` (schema-v1 [`RunArtifact`]).
//!
//! `--quick` runs the CI gate instead, on the 8-site acceptance cell:
//! two full replays must produce byte-identical deterministic
//! sections, the recorded placements digest, zero starved tenants, and
//! a p99 time-to-placement ceiling (logical time). Exits 1 on failure; writes nothing. Regressions in
//! speed are `vdce_perf`'s to catch (`perf/`), which controls for noise.

use std::time::Instant;
use vdce_obs::{MetricsRegistry, Report, RunArtifact, Table};
use vdce_sched::service::stream::{ServiceConfig, StreamReport};
use vdce_sim::arrivals::TraceSpec;
use vdce_sim::dag_gen::DagSpec;
use vdce_sim::pool_gen::FederationSpec;
use vdce_sim::stream::{run_stream, StreamScenario};

/// Quick-gate ceiling on p99 time-to-placement (logical seconds) at the
/// acceptance cell. The cell runs just past saturation on the front-end
/// site, so the observed p99 (~132s logical) is the queueing delay of
/// local-domain tenants; the measure is deterministic, so the ~2x
/// margin is for workload drift, not machine noise. Anything past the
/// ceiling means dispatch ordering or aging regressed — a wait headed
/// for the starvation bound (915s for the lowest priority class).
const QUICK_P99_TTP_CEILING_S: f64 = 300.0;

/// `placements_digest` of the acceptance cell: every dispatch and
/// completion of the quick scenario, placement by placement. A change
/// that should not move a placement must leave it here. ROADMAP item 3's
/// staleness fix (re-selecting a queued submission at current loads)
/// moves placements on purpose; it re-records this value in a commit of
/// its own.
const QUICK_PLACEMENTS_DIGEST: u64 = 0xb219_4d83_7ddb_8c41;

/// Deterministic outcome of one swept cell (identical across replays).
#[derive(serde::Serialize)]
struct ScenarioRow {
    sites: usize,
    tenants: usize,
    rate_per_s: f64,
    horizon_s: f64,
    report: StreamReport,
}

/// Wall-clock throughput of one swept cell (machine-dependent; kept out
/// of the deterministic section).
#[derive(serde::Serialize)]
struct ThroughputRow {
    sites: usize,
    tenants: usize,
    rate_per_s: f64,
    wall_ms: f64,
    submissions_per_sec: f64,
}

/// The acceptance / CI-gate cell: 8 sites, enough tenants to exercise
/// every priority class and domain, a rate that keeps the service busy
/// without saturating the quick gate's time budget.
fn quick_scenario() -> StreamScenario {
    scenario(8, 64, 2.0, 40.0)
}

fn scenario(sites: usize, tenants: usize, rate_per_s: f64, horizon_s: f64) -> StreamScenario {
    StreamScenario {
        fed: FederationSpec { sites, hosts_per_site: 8, ..FederationSpec::default() },
        trace: TraceSpec { tenants, rate_per_s, horizon_s, ..TraceSpec::default() },
        // Problem sizes chosen so a submission's logical makespan is
        // tens of seconds: at these rates aggregate demand sits near
        // the federation's slot capacity, so the pending queue, aging,
        // and time-to-placement percentiles are actually exercised.
        dag: DagSpec { tasks: 10, min_size: 5_000_000, max_size: 50_000_000, ..DagSpec::default() },
        cfg: ServiceConfig::default(),
        ..StreamScenario::default()
    }
}

/// Run one cell: returns its deterministic row and wall-clock row.
fn measure(sc: &StreamScenario) -> (ScenarioRow, ThroughputRow) {
    let t0 = Instant::now();
    let report = run_stream(sc, None);
    let wall = t0.elapsed().as_secs_f64();
    let (sites, tenants, rate) = (sc.fed.sites, sc.trace.tenants, sc.trace.rate_per_s);
    (
        ScenarioRow {
            sites,
            tenants,
            rate_per_s: rate,
            horizon_s: sc.trace.horizon_s,
            report: report.clone(),
        },
        ThroughputRow {
            sites,
            tenants,
            rate_per_s: rate,
            wall_ms: wall * 1e3,
            submissions_per_sec: report.submitted as f64 / wall.max(1e-9),
        },
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        run_quick_gate();
        return;
    }

    // tenants × rate, each at 8 and 64 sites. Rates scale with the
    // tenant count so per-tenant pressure stays comparable while the
    // aggregate stream thickens. The first 8-site cell is the quick
    // gate's acceptance cell, so the recorded artifact always carries
    // its baseline throughput.
    let cells: Vec<(usize, usize, f64)> = [8usize, 64]
        .iter()
        .flat_map(|&sites| {
            [(64usize, 2.0f64), (512, 1.5), (2048, 3.0)]
                .map(|(tenants, rate)| (sites, tenants, rate))
        })
        .collect();

    let mut table = Table::new(&[
        "sites",
        "tenants",
        "rate/s",
        "submitted",
        "admitted",
        "done",
        "p50 ttp",
        "p99 ttp",
        "subs/s",
        "starved",
    ]);
    let mut scenario_rows = Vec::new();
    let mut throughput_rows = Vec::new();
    for &(sites, tenants, rate) in &cells {
        let sc = scenario(sites, tenants, rate, 60.0);
        let (srow, trow) = measure(&sc);
        table.row(&[
            sites.to_string(),
            tenants.to_string(),
            format!("{rate:.1}"),
            srow.report.submitted.to_string(),
            srow.report.admitted.to_string(),
            srow.report.completed.to_string(),
            format!("{:.2}s", srow.report.ttp_p50_s),
            format!("{:.2}s", srow.report.ttp_p99_s),
            format!("{:.0}", trow.submissions_per_sec),
            srow.report.starved_tenants.to_string(),
        ]);
        scenario_rows.push(srow);
        throughput_rows.push(trow);
    }

    // Export the acceptance cell's service counters as the embedded
    // metric snapshot (deterministic: no profile.* entries are set).
    let metrics = MetricsRegistry::new();
    run_stream(&quick_scenario(), Some(&metrics));

    let artifact = RunArtifact::new("exp_stream")
        .meta("hosts_per_site", 8usize)
        .meta("dag_tasks", 10usize)
        .meta("horizon_s", 60.0f64)
        .meta(
            "workload",
            "Poisson arrivals, layered random DAGs, log-uniform deadline/budget slack",
        )
        .meta(
            "determinism",
            "scenarios section is byte-identical across replays; wall-clock lives in throughput",
        )
        .metrics(metrics.snapshot_deterministic())
        .section("scenarios", &scenario_rows)
        .section("throughput", &throughput_rows);
    artifact.write("BENCH_stream.json").expect("write BENCH_stream.json");

    Report::new("streaming service: tenants x rate x sites")
        .table(table)
        .note("scenarios section is replay-deterministic; throughput is wall-clock")
        .note("wrote BENCH_stream.json")
        .print();
}

/// The CI gate. See the module docs.
fn run_quick_gate() {
    let mut failures: Vec<String> = Vec::new();
    let sc = quick_scenario();

    // Two full replays of the same scenario; byte-identity of the
    // deterministic payload is the whole point.
    let first = run_stream(&sc, None);
    let second = run_stream(&sc, None);

    let bytes_a = serde_json::to_string(&first).expect("report serialises");
    let bytes_b = serde_json::to_string(&second).expect("report serialises");
    if bytes_a != bytes_b {
        failures.push("two replays of the same trace serialised differently".to_string());
    }
    if first.placements_digest != second.placements_digest {
        failures.push(format!(
            "placement digests diverge across replays: {:#x} vs {:#x}",
            first.placements_digest, second.placements_digest
        ));
    }

    println!(
        "quick: 8 sites / {} tenants / rate {}: {} submitted, {} admitted, {} completed",
        sc.trace.tenants, sc.trace.rate_per_s, first.submitted, first.admitted, first.completed
    );
    println!(
        "quick: ttp p50 {:.2}s p99 {:.2}s max {:.2}s (logical); digest {:#x}",
        first.ttp_p50_s, first.ttp_p99_s, first.ttp_max_s, first.placements_digest
    );

    if first.placements_digest != QUICK_PLACEMENTS_DIGEST {
        failures.push(format!(
            "placements digest {:#x} is not the recorded {QUICK_PLACEMENTS_DIGEST:#x}: \
             a placement moved",
            first.placements_digest
        ));
    }
    if first.submitted == 0 || first.admitted == 0 {
        failures.push("gate scenario admitted nothing — workload misconfigured".to_string());
    }
    if first.ttp_p99_s > QUICK_P99_TTP_CEILING_S {
        failures.push(format!(
            "p99 time-to-placement {:.2}s above ceiling {QUICK_P99_TTP_CEILING_S}s",
            first.ttp_p99_s
        ));
    }
    if first.starved_tenants != 0 {
        let worst = first
            .tenants
            .iter()
            .filter(|t| t.starved)
            .map(|t| {
                format!(
                    "tenant{} (prio {}, waited {:.1}s > {:.1}s)",
                    t.tenant, t.priority, t.max_wait_s, t.wait_bound_s
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        failures.push(format!(
            "{} tenant(s) starved past the aging bound: {worst}",
            first.starved_tenants
        ));
    }

    if failures.is_empty() {
        println!("\nquick gate OK");
    } else {
        for f in &failures {
            eprintln!("GATE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
