//! Artifact-schema migration: the committed `BENCH_faults.json` was
//! regenerated through the [`vdce_obs::RunArtifact`] writer (schema v1),
//! which moved the old free-floating scalar keys under `meta` and added
//! an embedded `metrics` snapshot. This test pins the envelope *and*
//! proves every key a pre-migration consumer read is still reachable —
//! either at its old top-level location (`scenarios` stays top-level so
//! the quick-gate deserializer keeps working) or at its documented new
//! home under `meta`.

use serde_json::Value;

fn load(name: &str) -> Value {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (regenerate with the full exp_* runs)"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(n) => n.as_u64(),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn as_array(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Array(a) => Some(a),
        _ => None,
    }
}

fn as_object(v: &Value) -> Option<&[(String, Value)]> {
    match v {
        Value::Object(o) => Some(o),
        _ => None,
    }
}

#[test]
fn bench_faults_covers_pre_migration_keys() {
    let v = load("BENCH_faults.json");
    assert_eq!(as_u64(&v["schema_version"]), Some(1), "schema_version must be 1");
    assert_eq!(as_str(&v["bench"]), Some("exp_faults"));

    let scenarios = as_array(&v["scenarios"]).expect("scenarios is an array");
    assert!(!scenarios.is_empty(), "scenarios non-empty");
    assert_eq!(
        as_u64(&v["meta"]["scenario_count"]),
        Some(scenarios.len() as u64),
        "meta.scenario_count matches the scenarios section"
    );

    // Every RecoveryReport field a pre-migration consumer read.
    for rep in scenarios {
        assert!(as_str(&rep["scenario"]).is_some(), "scenarios[].scenario");
        for key in [
            "baseline_makespan",
            "makespan",
            "inflation",
            "checkpoint_overhead",
            "recovered_work_fraction",
        ] {
            assert!(matches!(rep[key], Value::Number(_)), "scenarios[].{key} is a number");
        }
        for key in [
            "migrations",
            "retries",
            "quarantined",
            "tasks_completed",
            "tasks_failed",
            "checkpoints_taken",
            "site_failovers",
            "replica_transfers",
            "replica_bytes",
        ] {
            assert!(as_u64(&rep[key]).is_some(), "scenarios[].{key} is an integer");
        }
        assert!(as_array(&rep["faults"]).is_some(), "scenarios[].faults is an array");
    }

    // New: accumulated replay metrics (counters sum across scenarios).
    let metrics = as_object(&v["metrics"]).expect("metrics is an object");
    for key in ["replay.tasks_completed", "replay.migrations", "replay.detection_latency"] {
        assert!(
            metrics.iter().any(|(k, _)| k == key),
            "metrics contains `{key}` (replay instrumentation missing from artifact)"
        );
    }
}
