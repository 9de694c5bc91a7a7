//! Durable control-plane recovery gate (DESIGN.md §16): every named
//! [`FaultScenario`] is replayed with the event-sourced control plane
//! on — WAL journaling, periodic snapshots, deputy replication — and
//! then killed and restarted at several seed-derived points, including
//! mid-write (torn final record).
//!
//! Gated properties (quick and full):
//!
//! 1. **Durability only observes** — the durable replay's recovery
//!    report must serialize bit-identically to the un-journaled run's;
//! 2. **Zero lost control-plane state** — every kill-and-restart must
//!    recover to exactly the state a pure replay reaches at the kill
//!    point, and resuming past it must land on the sealed final state
//!    bit for bit ([`vdce_sim::recovery::verify_recovery`]);
//! 3. **No divergence** — deputy replicas, fed the same event stream,
//!    must pass every state-hash check (`store.replication.divergences`
//!    stays 0).
//!
//! A violated property exits non-zero; `ci.sh` runs `--quick` as the
//! per-scenario kill-and-restart regression gate. The full run
//! additionally sweeps recovery latency against log length, snapshot
//! interval, and replication hash-check cadence, writes
//! `BENCH_recovery.json`, and drops a sample damaged-WAL fixture
//! (`target/recovery_fixture.wal`) that recovers with a torn tail.
//!
//! [`FaultScenario`]: vdce_sim::scenario::FaultScenario

use serde::{Deserialize, Serialize};
use std::time::Instant;
use vdce_obs::{Observer, Report, RunArtifact, Table};
use vdce_runtime::DurableOptions;
use vdce_sim::recovery::{verify_kill, verify_recovery};
use vdce_sim::scenario::all_fault_scenarios;
use vdce_store::{read_wal, FileWal, SnapshotPolicy};

/// Kill points per scenario in the sweep (`--quick` uses fewer).
const KILLS_FULL: usize = 12;
const KILLS_QUICK: usize = 4;

/// Per-scenario gate result recorded in `BENCH_recovery.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// One cell of the recovery-latency-vs-log-length sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LatencyCell {
    /// Fraction of the journal history on disk at the kill.
    cut_fraction: f64,
    /// Records replayed during recovery.
    replayed: u64,
    /// WAL bytes read back.
    wal_bytes: u64,
    /// Wall-clock microseconds for build + recover + replay + resume.
    recover_us: u64,
}

/// One cell of the snapshot-interval sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SnapshotCell {
    /// `SnapshotPolicy::every(n)`; 0 = only the initial snapshot.
    every_records: u64,
    /// Snapshots the run installed.
    snapshots: u64,
    /// Live WAL bytes at shutdown (post-compaction).
    wal_bytes: u64,
    /// Records replayed when recovering a clean-shutdown kill.
    replayed_at_shutdown: u64,
    /// Wall-clock microseconds for that recovery.
    recover_us: u64,
}

/// One cell of the replication-cadence sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ReplicationCell {
    /// Hash-check cadence in shipped frames (0 = boundary checks only).
    check_every: u64,
    /// Frames shipped to deputy replicas.
    frames: u64,
    /// Hash checks run (the divergence-detection lag is `frames /
    /// hash_checks` events).
    hash_checks: u64,
    /// Divergences detected (must stay 0 on healthy runs).
    divergences: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let kills = if quick { KILLS_QUICK } else { KILLS_FULL };

    let scenarios = all_fault_scenarios();
    let obs = Observer::disabled();
    let mut rows: Vec<ScenarioRecovery> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut churn_journal_handle = None;

    for (i, fs) in scenarios.iter().enumerate() {
        let metered = Observer::enabled();
        let opts = DurableOptions::new(SnapshotPolicy::every(256), 8);
        let durable_report = fs.run(&metered, Some(&opts));
        if fs.name == "weibull-churn" {
            // Clones share the underlying store: keep a handle to the
            // longest-history journal for the damaged-WAL fixture.
            churn_journal_handle = Some(opts.journal.clone());
        }

        // Gate 1: durability only observes.
        let plain_report = fs.run(&obs, None);
        let jd = serde_json::to_string(&durable_report).expect("serialise report");
        let jp = serde_json::to_string(&plain_report).expect("serialise report");
        if jd != jp {
            failures.push(format!("{}: durable replay perturbed the recovery report", fs.name));
        }

        // Gate 2: kill-and-restart loses nothing, at any kill point.
        let seed = 0x5EED_0000 + i as u64;
        let summary = match verify_recovery(&opts.journal, kills, seed) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("{}: {e}", fs.name));
                continue;
            }
        };

        // Gate 3: deputies never diverged.
        let divergences = metered.metrics.counter("store.replication.divergences");
        if divergences != 0 {
            failures.push(format!("{}: {divergences} replication divergence(s)", fs.name));
        }

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
    let mut report_out = Report::new(&format!(
        "durable control plane: kill-and-restart recovery{}",
        if quick { " [quick]" } else { "" }
    ))
    .table(table)
    .note(format!(
        "{} scenario(s), {} kill point(s) each, incl. torn-tail kills; \
         recovered state asserted bit-identical to the sealed final state",
        rows.len(),
        kills.max(2)
    ));

    // Sample fixture: the damaged WAL image of a mid-write kill, torn
    // tail included — CI uploads it so a recovered-WAL example is
    // attached to every run (quick and full).
    if let Some(journal) = churn_journal_handle.filter(|_| failures.is_empty()) {
        report_out = report_out.note(write_fixture(&journal, &mut failures));
    }

    if !quick && failures.is_empty() {
        let (latency, sweep_metrics) = latency_sweep(&mut failures);
        let snapshots = snapshot_sweep(&mut failures);
        let replication = replication_sweep(&mut failures);
        RunArtifact::new("exp_recovery")
            .meta("scenario_count", rows.len())
            .meta("kills_per_scenario", kills)
            .meta("snapshot_every_records", 256u64)
            .meta("deputy_check_every", 8u64)
            .metrics(sweep_metrics)
            .section("scenarios", &rows)
            .section("recovery_latency", &latency)
            .section("snapshot_sweep", &snapshots)
            .section("replication_sweep", &replication)
            .write("BENCH_recovery.json")
            .expect("write BENCH_recovery.json");
        report_out = report_out.note("wrote BENCH_recovery.json");
    }
    report_out.print();

    if failures.is_empty() {
        println!("\nrecovery gate OK");
    } else {
        for f in &failures {
            eprintln!("GATE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}

/// A long-history durable run the sweeps share: the churn scenario
/// under the given snapshot policy and replication cadence.
fn churn_journal(policy: SnapshotPolicy, check_every: u64) -> (DurableOptions, Observer) {
    let fs = all_fault_scenarios()
        .into_iter()
        .find(|s| s.name == "weibull-churn")
        .expect("weibull-churn is a named scenario");
    let metered = Observer::enabled();
    let opts = DurableOptions {
        journal: vdce_store::Journal::enabled(policy),
        deputy_check_every: check_every,
    };
    fs.run(&metered, Some(&opts));
    (opts, metered)
}

/// Recovery latency as the kill point moves through the history — the
/// cost of a restart grows with the un-snapshotted suffix.
fn latency_sweep(failures: &mut Vec<String>) -> (Vec<LatencyCell>, vdce_obs::MetricsSnapshot) {
    // Manual policy: only the initial snapshot, so the replay suffix is
    // the whole prefix and latency scales with log length.
    let (opts, metered) = churn_journal(SnapshotPolicy::manual(), 8);
    let total = opts.journal.len();
    let mut cells = Vec::new();
    for frac in [0.25, 0.5, 0.75, 1.0] {
        let cut = ((total as f64) * frac) as u64;
        let torn = if cut < total { 0x70AD } else { 0 };
        let t0 = Instant::now();
        match verify_kill(&opts.journal, cut, torn) {
            Ok(k) => cells.push(LatencyCell {
                cut_fraction: frac,
                replayed: k.replayed,
                wal_bytes: k.wal_bytes,
                recover_us: t0.elapsed().as_micros() as u64,
            }),
            Err(e) => failures.push(format!("latency sweep at {frac}: {e}")),
        }
    }

    (cells, metered.metrics.snapshot_deterministic())
}

/// Cut a standalone WAL image out of `journal`'s log — every record
/// before the middle one, then half of that one's frame (a torn tail) —
/// and persist it for CI upload.
fn write_fixture(journal: &vdce_store::Journal, failures: &mut Vec<String>) -> String {
    let cut = journal.len() as usize / 2;
    let bytes = journal.read(|view| view.wal(0..cut, view.frame(cut).len() / 2));
    match read_wal(&bytes) {
        Ok(wal) if wal.records.len() == cut && wal.torn_bytes > 0 => {}
        Ok(wal) => {
            failures.push(format!(
                "fixture: expected {cut} records + torn tail, got {} records, {} torn bytes",
                wal.records.len(),
                wal.torn_bytes
            ));
        }
        Err(e) => failures.push(format!("fixture does not recover: {e}")),
    }
    let path = "target/recovery_fixture.wal";
    match std::fs::write(path, &bytes) {
        Ok(()) => {
            file_wal_gate(&bytes, cut, failures);
            format!("wrote {path} ({} bytes, {cut} records + torn tail)", bytes.len())
        }
        Err(e) => {
            failures.push(format!("fixture write failed: {e}"));
            String::new()
        }
    }
}

/// Round-trip the damaged fixture through the on-disk WAL: `FileWal`
/// must recover the same record prefix `read_wal` does and physically
/// truncate the torn tail off the file. Works on a copy so the
/// uploaded fixture keeps its torn tail.
fn file_wal_gate(damaged: &[u8], expect_records: usize, failures: &mut Vec<String>) {
    let path = "target/recovery_fixture_filewal.wal";
    if let Err(e) = std::fs::write(path, damaged) {
        failures.push(format!("file-wal gate: copy failed: {e}"));
        return;
    }
    match FileWal::open(path) {
        Ok((mut wal, rec)) => {
            if rec.records.len() != expect_records || rec.torn_bytes == 0 {
                failures.push(format!(
                    "file-wal gate: expected {expect_records} records + torn tail, \
                     got {} records, {} torn bytes",
                    rec.records.len(),
                    rec.torn_bytes
                ));
            }
            let on_disk = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            if on_disk != rec.valid_len as u64 {
                failures.push(format!(
                    "file-wal gate: torn tail not truncated off the file \
                     ({on_disk} bytes on disk, valid prefix {})",
                    rec.valid_len
                ));
            }
            if wal.append(b"post-recovery append").and_then(|_| wal.sync()).is_err() {
                failures.push("file-wal gate: append after recovery failed".into());
            }
            drop(wal);
            match FileWal::open(path) {
                Ok((_, rec2)) if rec2.records.len() == expect_records + 1 => {}
                Ok((_, rec2)) => failures.push(format!(
                    "file-wal gate: reopen saw {} records, expected {}",
                    rec2.records.len(),
                    expect_records + 1
                )),
                Err(e) => failures.push(format!("file-wal gate: reopen failed: {e}")),
            }
        }
        Err(e) => failures.push(format!("file-wal gate: open failed: {e}")),
    }
}

/// Snapshot-interval sweep: tighter cadences bound the replay suffix
/// (faster recovery) at the cost of more snapshot installs.
fn snapshot_sweep(failures: &mut Vec<String>) -> Vec<SnapshotCell> {
    let mut cells = Vec::new();
    for every in [0u64, 16, 64, 256] {
        let policy =
            if every == 0 { SnapshotPolicy::manual() } else { SnapshotPolicy::every(every) };
        let (opts, _) = churn_journal(policy, 8);
        let stats = opts.journal.stats();
        let t0 = Instant::now();
        match verify_kill(&opts.journal, opts.journal.len(), 0) {
            Ok(k) => cells.push(SnapshotCell {
                every_records: every,
                snapshots: stats.snapshots,
                wal_bytes: stats.wal_bytes,
                replayed_at_shutdown: k.replayed,
                recover_us: t0.elapsed().as_micros() as u64,
            }),
            Err(e) => failures.push(format!("snapshot sweep every={every}: {e}")),
        }
    }
    cells
}

/// Replication-cadence sweep: how many events a deputy may lag behind a
/// hash check, against the check cost actually paid.
fn replication_sweep(failures: &mut Vec<String>) -> Vec<ReplicationCell> {
    let mut cells = Vec::new();
    for check_every in [1u64, 4, 16, 64] {
        let (_, metered) = churn_journal(SnapshotPolicy::every(256), check_every);
        let divergences = metered.metrics.counter("store.replication.divergences");
        if divergences != 0 {
            failures.push(format!(
                "replication sweep check_every={check_every}: {divergences} divergence(s)"
            ));
        }
        cells.push(ReplicationCell {
            check_every,
            frames: metered.metrics.counter("store.replication.frames"),
            hash_checks: metered.metrics.counter("store.replication.hash_checks"),
            divergences,
        });
    }
    cells
}
