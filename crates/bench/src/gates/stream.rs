//! Streaming-service throughput and latency curves: the multi-tenant
//! admission + scheduling service (`vdce_sched::service`) under seeded
//! Poisson submission traces, swept over tenants × arrival rate ×
//! {8, 64} sites. Records `BENCH_stream.json`.
//!
//! Each cell materialises a Poisson trace, replays it through the
//! runtime submission gateway into a fresh
//! [`StreamService`](vdce_sched::service::stream::StreamService), and
//! records two kinds of numbers:
//!
//! - **deterministic outcomes** (logical time): admissions, rejections
//!   by broker reason, time-to-placement percentiles, restarts, the
//!   per-tenant starvation audit, and the placements digest — the
//!   `scenarios` section of the artifact.
//! - **wall-clock throughput**: sustained submissions/sec actually
//!   absorbed while draining the trace — `wall_clock.throughput`.
//!
//! Claims, on the 8-site acceptance cell: two replays produce
//! byte-identical reports, the placements digest is the recorded
//! [`PLACEMENTS_DIGEST`], no tenant starves, and p99 time-to-placement
//! (logical time) stays under [`P99_TTP_CEILING_S`]. Speed regressions
//! are `vdce_perf`'s to catch (`perf/`), which controls for noise.

use super::same_json;
use super::WALL_CLOCK_NOTE;
use crate::exp::Claims;
use serde_json::json;
use std::time::Instant;
use vdce_obs::{MetricsRegistry, Report, RunArtifact, Table};
use vdce_sched::service::stream::{ServiceConfig, StreamReport};
use vdce_sim::arrivals::TraceSpec;
use vdce_sim::dag_gen::DagSpec;
use vdce_sim::pool_gen::FederationSpec;
use vdce_sim::stream::{run_stream, StreamScenario};

/// Ceiling on the acceptance cell's p99 time-to-placement (logical
/// seconds). The cell runs just past saturation on the front-end site,
/// so the observed p99 (~132s logical) is the queueing delay of
/// local-domain tenants; the measure is deterministic, so the ~2x
/// margin is for workload drift, not machine noise. Anything past the
/// ceiling means dispatch ordering or aging regressed — a wait headed
/// for the starvation bound (915s for the lowest priority class).
const P99_TTP_CEILING_S: f64 = 300.0;

/// `placements_digest` of the acceptance cell: every dispatch and
/// completion, placement by placement. A change that should not move a
/// placement must leave it here. ROADMAP item 2's staleness fix
/// (re-selecting a queued submission at current loads) moves placements
/// on purpose; it re-records this value in a commit of its own.
const PLACEMENTS_DIGEST: u64 = 0xb219_4d83_7ddb_8c41;

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

pub(super) fn run(claims: &mut Claims) -> (String, RunArtifact) {
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
    let (mut scenarios, mut throughput) = (Vec::new(), Vec::new());
    // tenants × rate, each at 8 and 64 sites. Rates scale with the
    // tenant count so per-tenant pressure stays comparable while the
    // aggregate stream thickens.
    for sites in [8usize, 64] {
        for (tenants, rate) in [(64usize, 2.0f64), (512, 1.5), (2048, 3.0)] {
            let t0 = Instant::now();
            let r = run_stream(&scenario(sites, tenants, rate, 60.0), None);
            let wall = t0.elapsed().as_secs_f64();
            let per_sec = r.submitted as f64 / wall.max(1e-9);
            table.row(&[
                sites.to_string(),
                tenants.to_string(),
                format!("{rate:.1}"),
                r.submitted.to_string(),
                r.admitted.to_string(),
                r.completed.to_string(),
                format!("{:.2}s", r.ttp_p50_s),
                format!("{:.2}s", r.ttp_p99_s),
                format!("{per_sec:.0}"),
                r.starved_tenants.to_string(),
            ]);
            scenarios.push(json!({
                "sites": sites, "tenants": tenants, "rate_per_s": rate, "horizon_s": 60.0, "report": r
            }));
            throughput.push(json!({
                "sites": sites, "tenants": tenants, "rate_per_s": rate,
                "wall_ms": (wall * 1e3), "submissions_per_sec": per_sec
            }));
        }
    }

    // The acceptance cell (8 sites, enough tenants to exercise every
    // priority class and domain, a rate that keeps the service busy),
    // twice: once metered (its service counters are the embedded metric
    // snapshot; no profile.* entries are set) and once plain. Both
    // replays must serialise byte for byte the same.
    let sc = scenario(8, 64, 2.0, 40.0);
    let metrics = MetricsRegistry::new();
    let first = run_stream(&sc, Some(&metrics));
    let second = run_stream(&sc, None);
    let acceptance = acceptance_claims(&first, &second, claims);

    let report = Report::new("streaming service: tenants x rate x sites")
        .table(table)
        .note("scenarios section is replay-deterministic; throughput is wall-clock")
        .note(acceptance);
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
        .section("scenarios", &scenarios)
        .section("wall_clock", &json!({"note": WALL_CLOCK_NOTE, "throughput": throughput}));
    (report.render(), artifact)
}

/// Check the acceptance cell's two replays; returns the report note.
fn acceptance_claims(first: &StreamReport, second: &StreamReport, claims: &mut Claims) -> String {
    claims.check(same_json(first, second), || {
        format!(
            "two replays of the acceptance cell serialised differently (digests {:#x} vs {:#x})",
            first.placements_digest, second.placements_digest
        )
    });
    claims.check(first.placements_digest == PLACEMENTS_DIGEST, || {
        format!(
            "placements digest {:#x} is not the recorded {PLACEMENTS_DIGEST:#x}: a placement moved",
            first.placements_digest
        )
    });
    claims.check(first.submitted > 0 && first.admitted > 0, || {
        "the acceptance cell admitted nothing — workload misconfigured".to_string()
    });
    claims.check(first.ttp_p99_s <= P99_TTP_CEILING_S, || {
        format!("p99 time-to-placement {:.2}s above ceiling {P99_TTP_CEILING_S}s", first.ttp_p99_s)
    });
    claims.check(first.starved_tenants == 0, || {
        let worst: Vec<String> = first
            .tenants
            .iter()
            .filter(|t| t.starved)
            .map(|t| {
                format!(
                    "tenant{} (prio {}, waited {:.1}s > {:.1}s)",
                    t.tenant, t.priority, t.max_wait_s, t.wait_bound_s
                )
            })
            .collect();
        format!(
            "{} tenant(s) starved past the aging bound: {}",
            first.starved_tenants,
            worst.join(", ")
        )
    });
    format!(
        "acceptance cell (8 sites, 64 tenants, rate 2.0, 40 s): {} submitted, {} admitted; \
         ttp p99 {:.2}s (logical); digest {:#x}",
        first.submitted, first.admitted, first.ttp_p99_s, first.placements_digest
    )
}
