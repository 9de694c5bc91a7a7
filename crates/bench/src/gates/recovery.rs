//! Durable control-plane recovery (DESIGN.md §16): every named
//! [`FaultScenario`] is replayed with the event-sourced control plane
//! on — WAL journaling, periodic snapshots, deputy replication — and
//! then killed and restarted at [`KILLS`] seed-derived points, including
//! mid-write (torn final record). Records `BENCH_recovery.json`.
//!
//! Claims:
//!
//! 1. **Durability only observes** — the durable replay's recovery
//!    report must serialize bit-identically to the un-journaled run's;
//! 2. **Zero lost control-plane state** — every kill-and-restart must
//!    recover to exactly the state a pure replay reaches at the kill
//!    point, and resuming past it must land on the sealed final state
//!    bit for bit ([`vdce_sim::recovery::verify_recovery`]);
//! 3. **No divergence** — deputy replicas, fed the same event stream,
//!    must pass every state-hash check (`store.replication.divergences`
//!    stays 0);
//! 4. **The on-disk WAL recovers** — a damaged-WAL fixture
//!    (`target/recovery_fixture.wal`, torn tail included) reads back its
//!    record prefix, and `FileWal` truncates the tail and appends after.
//!
//! It also sweeps recovery latency against log length, snapshot
//! interval, and replication hash-check cadence. The latencies read the
//! clock: they sit under the artifact's `wall_clock` section.
//!
//! [`FaultScenario`]: vdce_sim::scenario::FaultScenario

use super::same_json;
use super::WALL_CLOCK_NOTE;
use crate::exp::{write_file, Claims};
use serde::Serialize;
use serde_json::{json, Value};
use std::time::Instant;
use vdce_obs::{MetricsSnapshot, Observer, Report, RunArtifact, Table};
use vdce_runtime::DurableOptions;
use vdce_sim::recovery::{verify_kill, verify_recovery};
use vdce_sim::scenario::all_fault_scenarios;
use vdce_sim::{run_fault_scenario, ReplayRequest};
use vdce_store::{read_wal, FileWal, Journal, SnapshotPolicy};

/// Kill points per scenario.
const KILLS: usize = 12;

/// Per-scenario gate result recorded in `BENCH_recovery.json`.
#[derive(Serialize)]
struct ScenarioRecovery {
    scenario: String,
    /// Journal records the durable replay appended.
    records: u64,
    /// Snapshots installed (>= 1: the initial state).
    snapshots: u64,
    /// Kill-and-restart points verified lossless.
    kills_verified: u64,
    /// Largest replay suffix any kill recovered through.
    max_replayed: u64,
    /// Deputy replication frames shipped across all sites.
    replication_frames: u64,
    /// State-hash checks run on deputy replicas.
    hash_checks: u64,
    /// Divergences detected (gated to 0).
    divergences: u64,
}

pub(super) fn run(claims: &mut Claims) -> (String, RunArtifact) {
    let scenarios = all_fault_scenarios();
    let mut rows: Vec<ScenarioRecovery> = Vec::new();
    let mut churn = None;

    for (i, fs) in scenarios.iter().enumerate() {
        let metered = Observer::enabled();
        let opts = DurableOptions::new(SnapshotPolicy::every(256), 8);
        let durable_report = run_fault_scenario(
            fs.name,
            &ReplayRequest { obs: Some(&metered), durable: Some(&opts), ..fs.request() },
        );
        if fs.name == "weibull-churn" {
            // Clones share the underlying store: keep a handle to the
            // longest-history journal for the damaged-WAL fixture.
            churn = Some(opts.journal.clone());
        }

        // Gate 1: durability only observes.
        let plain_report = run_fault_scenario(fs.name, &fs.request());
        claims.check(same_json(&durable_report, &plain_report), || {
            format!("{}: durable replay perturbed the recovery report", fs.name)
        });

        // Gate 2: kill-and-restart loses nothing, at any kill point.
        let seed = 0x5EED_0000 + i as u64;
        let summary = match verify_recovery(&opts.journal, KILLS, seed) {
            Ok(s) => s,
            Err(e) => {
                claims.fail(format!("{}: {e}", fs.name));
                continue;
            }
        };
        claims.check(summary.kills.len() == KILLS, || {
            format!("{}: {} of {KILLS} kill points verified", fs.name, summary.kills.len())
        });

        // Gate 3: deputies never diverged.
        let divergences = metered.metrics.counter("store.replication.divergences");
        claims.check(divergences == 0, || {
            format!("{}: {divergences} replication divergence(s)", fs.name)
        });

        rows.push(ScenarioRecovery {
            scenario: fs.name.to_string(),
            records: summary.records,
            snapshots: summary.snapshots,
            kills_verified: summary.kills.len() as u64,
            max_replayed: summary.kills.iter().map(|k| k.replayed).max().unwrap_or(0),
            replication_frames: metered.metrics.counter("store.replication.frames"),
            hash_checks: metered.metrics.counter("store.replication.hash_checks"),
            divergences,
        });
    }

    let mut table = Table::new(&["scenario", "records", "snapshots", "kills", "diverged"]);
    for r in &rows {
        table.row(&[
            r.scenario.clone(),
            r.records.to_string(),
            r.snapshots.to_string(),
            r.kills_verified.to_string(),
            r.divergences.to_string(),
        ]);
    }
    let mut report =
        Report::new("durable control plane: kill-and-restart recovery").table(table).note(format!(
            "{} scenario(s), {KILLS} kill point(s) each, incl. torn-tail kills; \
             recovered state asserted bit-identical to the sealed final state",
            rows.len(),
        ));

    // Gate 4: the damaged WAL image of a mid-write kill, torn tail
    // included, recovers from disk.
    match fixture(&churn.expect("weibull-churn is a named scenario")) {
        Ok(note) => report = report.note(note),
        Err(e) => claims.fail(e),
    }

    let (latency, latency_us, sweep_metrics) = latency_sweep(claims);
    let (snapshots, snapshot_us) = snapshot_sweep(claims);
    let artifact = RunArtifact::new("exp_recovery")
        .meta("scenario_count", rows.len())
        .meta("kills_per_scenario", KILLS)
        .meta("snapshot_every_records", 256u64)
        .meta("deputy_check_every", 8u64)
        .metrics(sweep_metrics)
        .section("scenarios", &rows)
        .section("recovery_latency", &latency)
        .section("snapshot_sweep", &snapshots)
        .section("replication_sweep", &replication_sweep(claims))
        .section(
            "wall_clock",
            &json!({
                "note": WALL_CLOCK_NOTE, "recovery_latency": latency_us, "snapshot_sweep": snapshot_us
            }),
        );
    (report.render(), artifact)
}

/// A long-history durable run the sweeps share: the churn scenario
/// under the given snapshot policy and replication cadence.
fn churn_journal(policy: SnapshotPolicy, check_every: u64) -> (DurableOptions, Observer) {
    let fs = all_fault_scenarios()
        .into_iter()
        .find(|s| s.name == "weibull-churn")
        .expect("weibull-churn is a named scenario");
    let metered = Observer::enabled();
    let opts =
        DurableOptions { journal: Journal::enabled(policy), deputy_check_every: check_every };
    run_fault_scenario(
        fs.name,
        &ReplayRequest { obs: Some(&metered), durable: Some(&opts), ..fs.request() },
    );
    (opts, metered)
}

/// Recovery latency as the kill point moves through the history — the
/// cost of a restart grows with the un-snapshotted suffix. One cell per
/// cut (the fraction of the history on disk at the kill, the records
/// replayed, the WAL bytes read back), and each recovery's wall clock
/// (build + recover + replay + resume).
fn latency_sweep(claims: &mut Claims) -> (Vec<Value>, Vec<Value>, MetricsSnapshot) {
    // Manual policy: only the initial snapshot, so the replay suffix is
    // the whole prefix and latency scales with log length.
    let (opts, metered) = churn_journal(SnapshotPolicy::manual(), 8);
    let total = opts.journal.len();
    let (mut cells, mut times) = (Vec::new(), Vec::new());
    for frac in [0.25, 0.5, 0.75, 1.0] {
        let cut = ((total as f64) * frac) as u64;
        let torn = if cut < total { 0x70AD } else { 0 };
        let t0 = Instant::now();
        match verify_kill(&opts.journal, cut, torn) {
            Ok(k) => {
                let recover_us = t0.elapsed().as_micros() as u64;
                cells.push(json!({
                    "cut_fraction": frac, "replayed": (k.replayed), "wal_bytes": (k.wal_bytes)
                }));
                times.push(json!({"cut_fraction": frac, "recover_us": recover_us}));
            }
            Err(e) => claims.fail(format!("latency sweep at {frac}: {e}")),
        }
    }
    (cells, times, metered.metrics.snapshot_deterministic())
}

/// Cut a standalone WAL image out of `journal`'s log — every record
/// before the middle one, then half of that one's frame (a torn tail) —
/// and write it to `target/recovery_fixture.wal`. `read_wal` must
/// recover its record prefix; so must `FileWal`, on a copy, which must
/// also truncate the torn tail off the file and take an append after.
fn fixture(journal: &Journal) -> Result<String, String> {
    let cut = journal.len() as usize / 2;
    let bytes = journal.read(|view| view.wal(0..cut, view.frame(cut).len() / 2));
    let wal = read_wal(&bytes).map_err(|e| format!("fixture does not recover: {e}"))?;
    if wal.records.len() != cut || wal.torn_bytes == 0 {
        return Err(format!(
            "fixture: expected {cut} records + torn tail, got {} records, {} torn bytes",
            wal.records.len(),
            wal.torn_bytes
        ));
    }
    let path = "target/recovery_fixture.wal";
    write_file(path, &bytes)?;

    let copy = "target/recovery_fixture_filewal.wal";
    write_file(copy, &bytes)?;
    let (mut file_wal, rec) = FileWal::open(copy).map_err(|e| format!("file-wal: open: {e}"))?;
    let on_disk = std::fs::metadata(copy).map_or(0, |m| m.len());
    if rec.records.len() != cut || rec.torn_bytes == 0 || on_disk != rec.valid_len as u64 {
        return Err(format!(
            "file-wal: recovered {} records, {} torn bytes, {on_disk} bytes left on disk; \
             expected {cut} records, a torn tail, and the valid prefix ({} bytes)",
            rec.records.len(),
            rec.torn_bytes,
            rec.valid_len
        ));
    }
    file_wal
        .append(b"post-recovery append")
        .and_then(|_| file_wal.sync())
        .map_err(|e| format!("file-wal: append after recovery: {e}"))?;
    drop(file_wal);
    let (_, reopened) = FileWal::open(copy).map_err(|e| format!("file-wal: reopen: {e}"))?;
    if reopened.records.len() != cut + 1 {
        return Err(format!(
            "file-wal: reopen saw {} records, expected {}",
            reopened.records.len(),
            cut + 1
        ));
    }
    Ok(format!("wrote {path} ({} bytes, {cut} records + torn tail)", bytes.len()))
}

/// Snapshot-interval sweep: tighter cadences bound the replay suffix
/// (faster recovery) at the cost of more snapshot installs. One cell per
/// `SnapshotPolicy::every(n)` (0: only the initial snapshot): snapshots
/// installed, live WAL bytes at shutdown, records replayed recovering a
/// clean-shutdown kill; and that recovery's wall clock.
fn snapshot_sweep(claims: &mut Claims) -> (Vec<Value>, Vec<Value>) {
    let (mut cells, mut times) = (Vec::new(), Vec::new());
    for every in [0u64, 16, 64, 256] {
        let policy =
            if every == 0 { SnapshotPolicy::manual() } else { SnapshotPolicy::every(every) };
        let (opts, _) = churn_journal(policy, 8);
        let stats = opts.journal.stats();
        let t0 = Instant::now();
        match verify_kill(&opts.journal, opts.journal.len(), 0) {
            Ok(k) => {
                let recover_us = t0.elapsed().as_micros() as u64;
                cells.push(json!({
                    "every_records": every, "snapshots": (stats.snapshots),
                    "wal_bytes": (stats.wal_bytes), "replayed_at_shutdown": (k.replayed)
                }));
                times.push(json!({"every_records": every, "recover_us": recover_us}));
            }
            Err(e) => claims.fail(format!("snapshot sweep every={every}: {e}")),
        }
    }
    (cells, times)
}

/// Replication-cadence sweep: how many events a deputy may lag behind a
/// hash check (`frames / hash_checks`), against the check cost actually
/// paid. One cell per hash-check cadence in shipped frames.
fn replication_sweep(claims: &mut Claims) -> Vec<Value> {
    let mut cells = Vec::new();
    for check_every in [1u64, 4, 16, 64] {
        let (_, metered) = churn_journal(SnapshotPolicy::every(256), check_every);
        let counter = |name| metered.metrics.counter(name);
        let divergences = counter("store.replication.divergences");
        claims.check(divergences == 0, || {
            format!("replication sweep check_every={check_every}: {divergences} divergence(s)")
        });
        cells.push(json!({
            "check_every": check_every, "frames": (counter("store.replication.frames")),
            "hash_checks": (counter("store.replication.hash_checks")), "divergences": divergences
        }));
    }
    cells
}
