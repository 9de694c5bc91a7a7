//! `RunArtifact`: the single writer for `BENCH_*.json` files.
//!
//! Every experiment binary that persists results builds one artifact:
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "bench": "exp_scale",
//!   "meta": { ... scenario knobs ... },
//!   "metrics": { ... MetricsSnapshot ... },
//!   <one top-level key per section, e.g. "configs": [...]>
//! }
//! ```
//!
//! Sections keep their pre-redesign top-level position (`configs`,
//! `scenarios`) so existing consumers (external diff tooling) keep
//! parsing the files unchanged; the migration test in
//! `crates/bench/tests/artifact_migration.rs` pins that coverage.

use crate::metrics::MetricsSnapshot;
use serde::Serialize;
use serde_json::{Number, Value};

/// Version of the artifact envelope; bump on breaking shape changes.
pub(crate) const ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// Builder for one schema-versioned benchmark artifact.
pub struct RunArtifact {
    bench: String,
    meta: Vec<(String, Value)>,
    metrics: Option<MetricsSnapshot>,
    sections: Vec<(String, Value)>,
}

impl RunArtifact {
    /// Artifact for the named benchmark.
    pub fn new(bench: &str) -> Self {
        RunArtifact {
            bench: bench.to_string(),
            meta: Vec::new(),
            metrics: None,
            sections: Vec::new(),
        }
    }

    /// Attach one scenario-metadata entry (insertion order preserved).
    pub fn meta(mut self, key: &str, value: impl Serialize) -> Self {
        let value = serde_json::to_value(&value).expect("artifact meta serialises");
        self.meta.push((key.to_string(), value));
        self
    }

    /// Embed a metric snapshot.
    pub fn metrics(mut self, snapshot: MetricsSnapshot) -> Self {
        self.metrics = Some(snapshot);
        self
    }

    /// Attach a top-level payload section (e.g. `configs`, `scenarios`).
    ///
    /// Panics on reserved envelope keys.
    pub fn section(mut self, key: &str, value: &impl Serialize) -> Self {
        assert!(
            !matches!(key, "schema_version" | "bench" | "meta" | "metrics"),
            "section key `{key}` collides with the artifact envelope"
        );
        let value = serde_json::to_value(value).expect("artifact section serialises");
        self.sections.push((key.to_string(), value));
        self
    }

    /// The full artifact as a JSON value.
    pub(crate) fn to_value(&self) -> Value {
        let mut obj = vec![
            (
                "schema_version".to_string(),
                Value::Number(Number::U(ARTIFACT_SCHEMA_VERSION as u64)),
            ),
            ("bench".to_string(), Value::String(self.bench.clone())),
            ("meta".to_string(), Value::Object(self.meta.clone())),
        ];
        if let Some(m) = &self.metrics {
            obj.push(("metrics".to_string(), m.to_value()));
        }
        obj.extend(self.sections.iter().cloned());
        Value::Object(obj)
    }

    /// Pretty-printed JSON (what lands on disk, less the final newline).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("artifact serialises")
    }

    /// Write the artifact to `path` with a trailing newline.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_pretty() + "\n")
    }
}

fn obj(v: &Value) -> Option<&[(String, Value)]> {
    match v {
        Value::Object(pairs) => Some(pairs),
        _ => None,
    }
}

fn field<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::Number(_))
}

/// Validate a parsed `BENCH_*.json` against the schema-v1 envelope.
/// Returns every problem found (empty = valid). This is the CI check
/// a hand-edited or stale artifact trips.
pub fn validate(v: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(top) = obj(v) else {
        return vec!["artifact is not a JSON object".to_string()];
    };

    match field(top, "schema_version") {
        Some(Value::Number(Number::U(n))) if *n == ARTIFACT_SCHEMA_VERSION as u64 => {}
        Some(Value::Number(n)) => {
            let shown = match n {
                Number::U(u) => u.to_string(),
                Number::I(i) => i.to_string(),
                Number::F(f) => f.to_string(),
            };
            problems.push(format!("schema_version is {shown}, expected {ARTIFACT_SCHEMA_VERSION}"));
        }
        Some(_) => problems.push("schema_version is not a number".to_string()),
        None => problems.push("missing schema_version".to_string()),
    }

    match field(top, "bench") {
        Some(Value::String(s)) if !s.is_empty() => {}
        Some(Value::String(_)) => problems.push("bench name is empty".to_string()),
        Some(_) => problems.push("bench is not a string".to_string()),
        None => problems.push("missing bench".to_string()),
    }

    match field(top, "meta") {
        Some(Value::Object(_)) => {}
        Some(_) => problems.push("meta is not an object".to_string()),
        None => problems.push("missing meta".to_string()),
    }

    if let Some(metrics) = field(top, "metrics") {
        match obj(metrics) {
            None => problems.push("metrics is not an object".to_string()),
            Some(entries) => {
                for (name, entry) in entries {
                    let Some(fields) = obj(entry) else {
                        problems.push(format!("metric `{name}` is not an object"));
                        continue;
                    };
                    match field(fields, "type") {
                        Some(Value::String(t)) if t == "counter" || t == "gauge" => {
                            if !field(fields, "value").is_some_and(is_number) {
                                problems
                                    .push(format!("metric `{name}` ({t}) has no numeric value"));
                            }
                        }
                        Some(Value::String(t)) if t == "histogram" => {
                            for key in ["bounds", "counts"] {
                                if !matches!(field(fields, key), Some(Value::Array(_))) {
                                    problems.push(format!(
                                        "metric `{name}` (histogram) missing `{key}` array"
                                    ));
                                }
                            }
                            for key in ["count", "sum"] {
                                if !field(fields, key).is_some_and(is_number) {
                                    problems.push(format!(
                                        "metric `{name}` (histogram) missing numeric `{key}`"
                                    ));
                                }
                            }
                        }
                        Some(Value::String(t)) => {
                            problems.push(format!("metric `{name}` has unknown type `{t}`"));
                        }
                        _ => problems.push(format!("metric `{name}` has no type tag")),
                    }
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn as_u64(v: &Value) -> Option<u64> {
        match v {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    #[test]
    fn envelope_shape_and_section_passthrough() {
        let reg = MetricsRegistry::new();
        reg.counter_add("sched.tasks_placed", 60);
        let a = RunArtifact::new("exp_demo")
            .meta("k_neighbours", 3u32)
            .meta("quick", false)
            .metrics(reg.snapshot())
            .section("configs", &vec![1u32, 2, 3]);
        let v = a.to_value();
        assert_eq!(as_u64(&v["schema_version"]), Some(1));
        assert_eq!(v["bench"], Value::String("exp_demo".to_string()));
        assert_eq!(as_u64(&v["meta"]["k_neighbours"]), Some(3));
        assert_eq!(v["meta"]["quick"], Value::Bool(false));
        assert_eq!(as_u64(&v["metrics"]["sched.tasks_placed"]["value"]), Some(60));
        assert_eq!(as_u64(&v["configs"][1]), Some(2));
    }

    #[test]
    #[should_panic(expected = "collides with the artifact envelope")]
    fn reserved_section_keys_rejected() {
        let _ = RunArtifact::new("x").section("meta", &1u32);
    }

    #[test]
    fn validate_accepts_what_the_builder_writes() {
        let reg = MetricsRegistry::new();
        reg.counter_add("stream.admitted", 7);
        reg.gauge_set("stream.queue_depth", 2.0);
        reg.observe("stream.ttp", &[1.0, 5.0], 0.4);
        let a = RunArtifact::new("exp_stream")
            .meta("sites", 8u32)
            .metrics(reg.snapshot())
            .section("scenarios", &vec![1u32]);
        assert_eq!(validate(&a.to_value()), Vec::<String>::new());
        // Round-trip through the serialised form too.
        let parsed: Value = serde_json::from_str(&a.to_json_pretty()).unwrap();
        assert_eq!(validate(&parsed), Vec::<String>::new());
    }

    #[test]
    fn validate_catches_envelope_corruption() {
        assert!(!validate(&Value::Bool(true)).is_empty());

        let missing: Value = serde_json::from_str(r#"{"bench":"x"}"#).unwrap();
        let problems = validate(&missing);
        assert!(problems.iter().any(|p| p.contains("schema_version")));
        assert!(problems.iter().any(|p| p.contains("meta")));

        let bad_version: Value =
            serde_json::from_str(r#"{"schema_version":99,"bench":"x","meta":{}}"#).unwrap();
        assert!(validate(&bad_version).iter().any(|p| p.contains("expected 1")));

        let bad_metric: Value = serde_json::from_str(
            r#"{"schema_version":1,"bench":"x","meta":{},"metrics":{"m":{"type":"counter"}}}"#,
        )
        .unwrap();
        assert!(validate(&bad_metric).iter().any(|p| p.contains("no numeric value")));
    }
}
