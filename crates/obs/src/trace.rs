//! Deterministic logical-time tracing.
//!
//! A [`TraceSink`] records [`TraceRecord`]s — point events and closed
//! spans — stamped with **logical sim time** supplied by the caller.
//! Wall-clock time never enters a record, so replaying the same
//! `(federation, afg, plan, cfg)` tuple produces byte-identical JSONL:
//! that property is CI-gated (`exp trace`) and property-tested across
//! every named `FaultScenario`.
//!
//! The JSONL schema, version 2 (one object per line; v2 added the
//! optional top-level `sample_n` key on sampled high-frequency events, and
//! a breaking shape change bumps the version):
//!
//! ```json
//! {"t":12.5,"kind":"event","name":"task_started","fields":{"task":3,"host":"s0h1"}}
//! {"t":12.5,"end":19.0,"kind":"span","name":"task_run","fields":{"task":3}}
//! ```
//!
//! `fields` values are scalars only (string/integer/float/bool) —
//! [`validate_jsonl`] enforces this, plus finite non-negative times and
//! `end >= t` for spans.
//!
//! ## Sampling high-frequency events
//!
//! Monitor daemons tick every host on a fixed cadence, so
//! `monitor_sample` events dominate long traces without carrying much
//! marginal information. [`TraceSink::sampled`] builds a sink that
//! keeps 1-in-N high-frequency events ([`TraceSink::hf_event`]),
//! deciding **deterministically from the logical timestamp** (an
//! FNV-1a hash of `t.to_bits()`), never from wall clock or a counter —
//! so replayed runs sample the same lines and the byte-identity gate
//! still holds. Kept samples carry a top-level `sample_n` key (schema
//! v2) recording the inverse sampling rate, so downstream consumers can
//! rescale counts. At the default `n = 1` the sink is bit-identical to
//! an unsampled one.

use serde_json::{Number, Value};
use vdce_store::{fnv1a, AppendLog};

/// A scalar field value attached to a trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// String field.
    Str(String),
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Float field (must be finite to validate).
    F64(f64),
    /// Boolean field.
    Bool(bool),
}

impl FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::Str(s) => Value::String(s.clone()),
            FieldValue::U64(u) => Value::Number(Number::U(*u)),
            FieldValue::I64(i) => Value::Number(Number::I(*i)),
            FieldValue::F64(f) => Value::Number(Number::F(*f)),
            FieldValue::Bool(b) => Value::Bool(*b),
        }
    }
}

/// The bare value: a string unquoted, a number or bool as `Display`
/// writes it.
impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::U64(u) => write!(f, "{u}"),
            FieldValue::I64(i) => write!(f, "{i}"),
            FieldValue::F64(x) => write!(f, "{x}"),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}

impl From<u64> for FieldValue {
    fn from(u: u64) -> Self {
        FieldValue::U64(u)
    }
}

impl From<u32> for FieldValue {
    fn from(u: u32) -> Self {
        FieldValue::U64(u as u64)
    }
}

impl From<u16> for FieldValue {
    fn from(u: u16) -> Self {
        FieldValue::U64(u as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(u: usize) -> Self {
        FieldValue::U64(u as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(i: i64) -> Self {
        FieldValue::I64(i)
    }
}

impl From<f64> for FieldValue {
    fn from(f: f64) -> Self {
        FieldValue::F64(f)
    }
}

impl From<bool> for FieldValue {
    fn from(b: bool) -> Self {
        FieldValue::Bool(b)
    }
}

/// One trace line: a point event (`end == None`) or a closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Logical time of the event / span start.
    pub t: f64,
    /// Span end time; `None` for point events.
    pub end: Option<f64>,
    /// Record name (snake_case by convention).
    pub name: String,
    /// Scalar payload, serialised in insertion order.
    pub fields: Vec<(String, FieldValue)>,
    /// Inverse sampling rate for a kept high-frequency event (`None`
    /// for unsampled records — the v1 shape).
    pub sample_n: Option<u32>,
}

impl TraceRecord {
    /// JSON object for one JSONL line.
    pub(crate) fn to_value(&self) -> Value {
        let mut obj = vec![("t".to_string(), Value::Number(Number::F(self.t)))];
        if let Some(end) = self.end {
            obj.push(("end".to_string(), Value::Number(Number::F(end))));
        }
        let kind = if self.end.is_some() { "span" } else { "event" };
        obj.push(("kind".to_string(), Value::String(kind.to_string())));
        obj.push(("name".to_string(), Value::String(self.name.clone())));
        let fields: Vec<(String, Value)> =
            self.fields.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
        obj.push(("fields".to_string(), Value::Object(fields)));
        if let Some(n) = self.sample_n {
            obj.push(("sample_n".to_string(), Value::Number(Number::U(n as u64))));
        }
        Value::Object(obj)
    }
}

/// Shared, cheaply clonable sink for trace records, backed by the
/// shared [`AppendLog`] substrate (the same buffer shape the runtime
/// `EventLog` and checkpoint store use — DESIGN.md §16).
///
/// A disabled sink ([`Default`]) drops
/// records without locking, so tracing costs one branch when off.
#[derive(Clone)]
pub struct TraceSink {
    inner: Option<AppendLog<TraceRecord>>,
    sample_n: u32,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::disabled()
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .field("records", &self.len())
            .finish()
    }
}

impl TraceSink {
    /// An enabled sink that keeps every record (`sample_n == 1`).
    pub fn new() -> Self {
        TraceSink { inner: Some(AppendLog::new()), sample_n: 1 }
    }

    /// An enabled sink that keeps roughly 1-in-`n` high-frequency
    /// events (see [`TraceSink::hf_event`]); regular events and spans
    /// are always kept. `n <= 1` keeps everything, bit-identically to
    /// [`TraceSink::new`].
    pub fn sampled(n: u32) -> Self {
        TraceSink { inner: Some(AppendLog::new()), sample_n: n.max(1) }
    }

    /// A sink that drops everything.
    pub(crate) fn disabled() -> Self {
        TraceSink { inner: None, sample_n: 1 }
    }

    /// Is this sink recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record a point event at logical time `t`.
    pub fn event(&self, t: f64, name: &str, fields: Vec<(String, FieldValue)>) {
        if let Some(inner) = &self.inner {
            inner.push(TraceRecord {
                t,
                end: None,
                name: name.to_string(),
                fields,
                sample_n: None,
            });
        }
    }

    /// Record a *high-frequency* point event — a monitor tick or other
    /// cadence-driven emission that dominates long traces. On a sampled
    /// sink only ~1-in-`sample_n` are kept, decided deterministically
    /// from the logical timestamp (`fnv1a(t.to_bits()) % n == 0`), so a
    /// bit-identical replay keeps exactly the same lines. Kept records
    /// carry the `sample_n` key; at `sample_n == 1` this is exactly
    /// [`TraceSink::event`].
    pub fn hf_event(&self, t: f64, name: &str, fields: Vec<(String, FieldValue)>) {
        let Some(inner) = &self.inner else { return };
        if self.sample_n <= 1 {
            inner.push(TraceRecord {
                t,
                end: None,
                name: name.to_string(),
                fields,
                sample_n: None,
            });
            return;
        }
        if fnv1a(&t.to_bits().to_le_bytes()).is_multiple_of(self.sample_n as u64) {
            inner.push(TraceRecord {
                t,
                end: None,
                name: name.to_string(),
                fields,
                sample_n: Some(self.sample_n),
            });
        }
    }

    /// Record a closed span `[t, end]`.
    pub fn span(&self, t: f64, end: f64, name: &str, fields: Vec<(String, FieldValue)>) {
        if let Some(inner) = &self.inner {
            inner.push(TraceRecord {
                t,
                end: Some(end),
                name: name.to_string(),
                fields,
                sample_n: None,
            });
        }
    }

    /// Number of records so far (0 when disabled).
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, AppendLog::len)
    }

    /// True when no records have been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the captured records.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner.as_ref().map_or_else(Vec::new, AppendLog::snapshot)
    }

    /// Serialise every record as one JSON object per line.
    ///
    /// Record order is insertion order and field order is declaration
    /// order, so for a deterministic caller the output is byte-stable.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&serde_json::to_string(&r.to_value()).expect("trace record serialises"));
            out.push('\n');
        }
        out
    }
}

/// Counts from a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total lines.
    pub lines: usize,
    /// Point events.
    pub events: usize,
    /// Closed spans.
    pub spans: usize,
    /// Records carrying a `sample_n` key (kept high-frequency events).
    pub sampled: usize,
}

fn scalar_kind(v: &Value) -> Option<&'static str> {
    match v {
        Value::String(_) => Some("string"),
        Value::Number(_) => Some("number"),
        Value::Bool(_) => Some("bool"),
        _ => None,
    }
}

/// Validate JSONL trace output against the schema.
///
/// Checks, per line: valid JSON object; `t` a finite number `>= 0`;
/// `kind` is `"event"` or `"span"`; spans carry a finite `end >= t` and
/// events carry no `end`; `name` a non-empty string; `fields` an object
/// whose values are all scalars; an optional `sample_n` (schema v2, on
/// sampled high-frequency events only) is an integer `>= 1`.
pub fn validate_jsonl(jsonl: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats { lines: 0, events: 0, spans: 0, sampled: 0 };
    for (i, line) in jsonl.lines().enumerate() {
        let n = i + 1;
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("line {n}: invalid JSON: {e}"))?;
        let Value::Object(_) = &v else {
            return Err(format!("line {n}: expected a JSON object"));
        };
        let t = match &v["t"] {
            Value::Number(x) => x.as_f64(),
            _ => return Err(format!("line {n}: missing numeric `t`")),
        };
        if !t.is_finite() || t < 0.0 {
            return Err(format!("line {n}: `t` must be finite and >= 0, got {t}"));
        }
        let kind = match &v["kind"] {
            Value::String(s) => s.as_str(),
            _ => return Err(format!("line {n}: missing string `kind`")),
        };
        match kind {
            "event" => {
                if v["end"] != Value::Null {
                    return Err(format!("line {n}: events must not carry `end`"));
                }
                stats.events += 1;
            }
            "span" => {
                let end = match &v["end"] {
                    Value::Number(x) => x.as_f64(),
                    _ => return Err(format!("line {n}: spans need a numeric `end`")),
                };
                if !end.is_finite() || end < t {
                    return Err(format!("line {n}: span `end` ({end}) must be finite and >= t"));
                }
                stats.spans += 1;
            }
            other => return Err(format!("line {n}: unknown kind `{other}`")),
        }
        match &v["name"] {
            Value::String(s) if !s.is_empty() => {}
            _ => return Err(format!("line {n}: missing non-empty string `name`")),
        }
        match &v["fields"] {
            Value::Object(fields) => {
                for (k, fv) in fields {
                    if scalar_kind(fv).is_none() {
                        return Err(format!("line {n}: field `{k}` must be a scalar"));
                    }
                }
            }
            _ => return Err(format!("line {n}: missing object `fields`")),
        }
        match &v["sample_n"] {
            Value::Null => {}
            Value::Number(x) => {
                let s = x.as_f64();
                if !(s.is_finite() && s >= 1.0 && s.fract() == 0.0) {
                    return Err(format!("line {n}: `sample_n` must be an integer >= 1, got {s}"));
                }
                stats.sampled += 1;
            }
            _ => return Err(format!("line {n}: `sample_n` must be a number")),
        }
        stats.lines += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_drops_everything() {
        let s = TraceSink::disabled();
        s.event(1.0, "x", vec![]);
        s.span(1.0, 2.0, "y", vec![]);
        assert!(!s.is_enabled());
        assert!(s.is_empty());
        assert_eq!(s.to_jsonl(), "");
    }

    #[test]
    fn jsonl_round_trips_and_validates() {
        let s = TraceSink::new();
        s.event(
            0.5,
            "task_started",
            vec![("task".into(), 3u64.into()), ("host".into(), "s0h1".into())],
        );
        s.span(0.5, 2.25, "task_run", vec![("task".into(), 3u64.into())]);
        let jsonl = s.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"t\":0.5,\"kind\":\"event\",\"name\":\"task_started\",\"fields\":{\"task\":3,\"host\":\"s0h1\"}}\n\
             {\"t\":0.5,\"end\":2.25,\"kind\":\"span\",\"name\":\"task_run\",\"fields\":{\"task\":3}}\n"
        );
        let stats = validate_jsonl(&jsonl).unwrap();
        assert_eq!(stats, TraceStats { lines: 2, events: 1, spans: 1, sampled: 0 });
    }

    #[test]
    fn unsampled_hf_event_is_bit_identical_to_event() {
        let a = TraceSink::new();
        let b = TraceSink::new();
        for i in 0..50 {
            let t = i as f64 * 0.25;
            a.event(t, "monitor_sample", vec![("workload".into(), (i as f64).into())]);
            b.hf_event(t, "monitor_sample", vec![("workload".into(), (i as f64).into())]);
        }
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn sampled_sink_keeps_a_deterministic_timestamp_keyed_subset() {
        let n = 4u32;
        let a = TraceSink::sampled(n);
        let b = TraceSink::sampled(n);
        let total = 400;
        for i in 0..total {
            let t = i as f64 * 0.125;
            a.hf_event(t, "monitor_sample", vec![("i".into(), (i as u64).into())]);
            b.hf_event(t, "monitor_sample", vec![("i".into(), (i as u64).into())]);
            a.event(t, "task_started", vec![]);
            b.event(t, "task_started", vec![]);
        }
        // Same timestamps → byte-identical decisions on both sinks.
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        // Regular events are never dropped; hf events thinned well
        // below the full rate but not to zero.
        let kept = a.records().iter().filter(|r| r.name == "monitor_sample").count();
        assert!(kept > 0 && kept < total / 2, "kept {kept} of {total}");
        assert_eq!(a.records().iter().filter(|r| r.name == "task_started").count(), total);
        // Kept hf records carry the inverse rate; validation counts them.
        assert!(a
            .records()
            .iter()
            .filter(|r| r.name == "monitor_sample")
            .all(|r| r.sample_n == Some(n)));
        let stats = validate_jsonl(&a.to_jsonl()).unwrap();
        assert_eq!(stats.sampled, kept);
    }

    #[test]
    fn validation_rejects_bad_sample_n() {
        assert!(validate_jsonl(
            "{\"t\":1.0,\"kind\":\"event\",\"name\":\"x\",\"fields\":{},\"sample_n\":0}"
        )
        .is_err());
        assert!(validate_jsonl(
            "{\"t\":1.0,\"kind\":\"event\",\"name\":\"x\",\"fields\":{},\"sample_n\":\"4\"}"
        )
        .is_err());
        assert!(validate_jsonl(
            "{\"t\":1.0,\"kind\":\"event\",\"name\":\"x\",\"fields\":{},\"sample_n\":8}"
        )
        .is_ok());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(validate_jsonl("not json").is_err());
        assert!(validate_jsonl("{\"kind\":\"event\",\"name\":\"x\",\"fields\":{}}").is_err());
        assert!(
            validate_jsonl("{\"t\":1.0,\"kind\":\"huh\",\"name\":\"x\",\"fields\":{}}").is_err()
        );
        assert!(
            validate_jsonl("{\"t\":-1.0,\"kind\":\"event\",\"name\":\"x\",\"fields\":{}}").is_err()
        );
        assert!(validate_jsonl(
            "{\"t\":2.0,\"end\":1.0,\"kind\":\"span\",\"name\":\"x\",\"fields\":{}}"
        )
        .is_err());
        assert!(validate_jsonl(
            "{\"t\":1.0,\"kind\":\"event\",\"name\":\"x\",\"fields\":{\"a\":[1]}}"
        )
        .is_err());
        assert!(
            validate_jsonl("{\"t\":1.0,\"kind\":\"event\",\"name\":\"\",\"fields\":{}}").is_err()
        );
    }

    #[test]
    fn shared_clones_feed_one_buffer() {
        let a = TraceSink::new();
        let b = a.clone();
        a.event(1.0, "one", vec![]);
        b.event(2.0, "two", vec![]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }
}
