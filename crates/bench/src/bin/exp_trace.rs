//! Trace-determinism gate: replay a named fault scenario twice with
//! tracing enabled, validate the JSONL trace against the schema, and
//! require the trace *and* the deterministic metric snapshot to be
//! bit-identical across the two runs.
//!
//! This is the executable form of the observability contract (DESIGN.md
//! §13): spans and events are keyed by logical sim time only, and every
//! metric outside the `profile.` namespace is a pure function of the
//! replay inputs. `ci.sh` runs this on the default scenario; `--all`
//! covers the whole quick set, `--scenario <name>` picks one by name
//! from the full named-scenario list, and `--dump <path>` writes the
//! first scenario's validated trace JSONL to a file.
//!
//! Exits non-zero on a schema violation or any run-to-run difference.

use vdce_obs::{validate_jsonl, Observer, Report, Table};
use vdce_sim::scenario::{all_fault_scenarios, quick_fault_scenarios, FaultScenario};

/// One traced double-run; returns the row cells or an error string.
/// With `dump`, the first run's validated JSONL is also written there.
fn check(fs: &FaultScenario, dump: Option<&str>) -> Result<Vec<String>, String> {
    let obs_a = Observer::enabled();
    let report_a = fs.run(&obs_a, None);
    let obs_b = Observer::enabled();
    let report_b = fs.run(&obs_b, None);

    let jsonl_a = obs_a.trace.to_jsonl();
    let jsonl_b = obs_b.trace.to_jsonl();
    let stats = validate_jsonl(&jsonl_a).map_err(|e| format!("{}: invalid trace: {e}", fs.name))?;
    validate_jsonl(&jsonl_b).map_err(|e| format!("{}: invalid trace (2nd run): {e}", fs.name))?;
    if let Some(path) = dump {
        std::fs::write(path, &jsonl_a).map_err(|e| format!("{}: write {path}: {e}", fs.name))?;
    }

    if jsonl_a != jsonl_b {
        return Err(format!(
            "{}: traces differ across replays ({} vs {} lines)",
            fs.name,
            jsonl_a.lines().count(),
            jsonl_b.lines().count()
        ));
    }
    let snap_a = obs_a.metrics.snapshot_deterministic().to_json_string();
    let snap_b = obs_b.metrics.snapshot_deterministic().to_json_string();
    if snap_a != snap_b {
        return Err(format!("{}: deterministic metric snapshots differ across replays", fs.name));
    }
    let json_a = serde_json::to_string(&report_a).expect("serialise report");
    let json_b = serde_json::to_string(&report_b).expect("serialise report");
    if json_a != json_b {
        return Err(format!("{}: recovery reports differ across replays", fs.name));
    }

    let metric_count = obs_a.metrics.snapshot_deterministic().len();
    Ok(vec![
        fs.name.to_string(),
        stats.lines.to_string(),
        stats.events.to_string(),
        stats.spans.to_string(),
        metric_count.to_string(),
        "yes".to_string(),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let all = args.iter().any(|a| a == "--all");
    let by_name = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_string());
    let dump = args
        .iter()
        .position(|a| a == "--dump")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_string());

    let scenarios: Vec<FaultScenario> = if let Some(name) = &by_name {
        let found: Vec<FaultScenario> =
            all_fault_scenarios().into_iter().filter(|f| f.name == *name).collect();
        if found.is_empty() {
            eprintln!("GATE FAILURE: unknown scenario `{name}`");
            std::process::exit(1);
        }
        found
    } else if all {
        quick_fault_scenarios()
    } else {
        quick_fault_scenarios().into_iter().take(1).collect()
    };

    let mut t = Table::new(&["scenario", "lines", "events", "spans", "det_metrics", "identical"]);
    let mut failures = Vec::new();
    for (i, fs) in scenarios.iter().enumerate() {
        // --dump writes the first scenario's validated trace only.
        match check(fs, if i == 0 { dump.as_deref() } else { None }) {
            Ok(row) => t.row(&row),
            Err(e) => failures.push(e),
        }
    }

    Report::new("trace determinism: schema-valid JSONL, bit-identical across replays")
        .table(t)
        .note("each scenario replayed twice with tracing on; traces, deterministic metric snapshots, and recovery reports compared byte for byte")
        .print();

    if failures.is_empty() {
        println!("\ntrace gate OK");
    } else {
        for f in &failures {
            eprintln!("GATE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
