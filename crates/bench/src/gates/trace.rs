//! Trace determinism: replay every named fault scenario twice with
//! tracing enabled, validate the JSONL trace against the schema, and
//! require the trace, the deterministic metric snapshot and the
//! recovery report to be bit-identical across the two runs.
//!
//! This is the executable form of the observability contract (DESIGN.md
//! §13): spans and events are keyed by logical sim time only, and every
//! metric outside the `profile.` namespace is a pure function of the
//! replay inputs. The first scenario's validated trace is left at
//! [`JSONL`] for inspection.

use super::same_json;
use crate::exp::{write_file, Claims};
use vdce_obs::{validate_jsonl, Observer, Report, Table};
use vdce_sim::scenario::{all_fault_scenarios, FaultScenario};
use vdce_sim::{run_fault_scenario, ReplayRequest};

/// Where the first scenario's trace lands.
const JSONL: &str = "target/exp_trace.jsonl";

/// One traced double-run; returns the row cells or the broken claim.
/// With `dump`, the first run's validated JSONL is also written there.
fn check(fs: &FaultScenario, dump: Option<&str>) -> Result<Vec<String>, String> {
    let obs_a = Observer::enabled();
    let report_a =
        run_fault_scenario(fs.name, &ReplayRequest { obs: Some(&obs_a), ..fs.request() });
    let obs_b = Observer::enabled();
    let report_b =
        run_fault_scenario(fs.name, &ReplayRequest { obs: Some(&obs_b), ..fs.request() });

    let jsonl_a = obs_a.trace.to_jsonl();
    let jsonl_b = obs_b.trace.to_jsonl();
    let stats = validate_jsonl(&jsonl_a).map_err(|e| format!("{}: invalid trace: {e}", fs.name))?;
    validate_jsonl(&jsonl_b).map_err(|e| format!("{}: invalid trace (2nd run): {e}", fs.name))?;
    if let Some(path) = dump {
        write_file(path, &jsonl_a).map_err(|e| format!("{}: {e}", fs.name))?;
    }

    if jsonl_a != jsonl_b {
        return Err(format!(
            "{}: traces differ across replays ({} vs {} lines)",
            fs.name,
            jsonl_a.lines().count(),
            jsonl_b.lines().count()
        ));
    }
    let snap_a = obs_a.metrics.snapshot_deterministic();
    if snap_a.to_json_string() != obs_b.metrics.snapshot_deterministic().to_json_string() {
        return Err(format!("{}: deterministic metric snapshots differ across replays", fs.name));
    }
    if !same_json(&report_a, &report_b) {
        return Err(format!("{}: recovery reports differ across replays", fs.name));
    }

    Ok(vec![
        fs.name.to_string(),
        stats.lines.to_string(),
        stats.events.to_string(),
        stats.spans.to_string(),
        snap_a.len().to_string(),
        "yes".to_string(),
    ])
}

pub(super) fn run(claims: &mut Claims) -> String {
    let mut t = Table::new(&["scenario", "lines", "events", "spans", "det_metrics", "identical"]);
    for (i, fs) in all_fault_scenarios().iter().enumerate() {
        match check(fs, (i == 0).then_some(JSONL)) {
            Ok(row) => t.row(&row),
            Err(e) => claims.fail(e),
        }
    }
    Report::new("trace determinism: schema-valid JSONL, bit-identical across replays")
        .table(t)
        .note(
            "each scenario replayed twice with tracing on; traces, deterministic metric \
             snapshots, and recovery reports compared byte for byte",
        )
        .note(format!("wrote {JSONL} (the first scenario's trace)"))
        .render()
}
