//! Turning measurements into the printed report, the final JSON line, the
//! per-layer values derived from spans, and `BENCHMARK.json`.

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{layer_totals, sum_count, LayerTotals, Span};
use crate::workloads::{LayerValues, WORKLOADS};
use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    /// Samples behind the value; 1 for a count or a single reading.
    samples: usize,
    /// First and third quartile of the samples, when there are several.
    quartiles: Option<(f64, f64)>,
}

impl Metric {
    /// A single reading (or a value that is the same in every pass).
    pub fn value(name: &'static str, value: f64) -> Self {
        Metric { name, value, samples: 1, quartiles: None }
    }

    /// The median of `samples`, with their quartiles and count.
    pub fn samples(name: &'static str, samples: &[f64]) -> Self {
        Metric {
            name,
            value: stats::median(samples),
            samples: samples.len(),
            quartiles: Some(stats::quartiles(samples)),
        }
    }
}

/// Everything one run reports.
pub struct RunResult {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn def_of(name: &str) -> &'static Def {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

impl RunResult {
    /// A result over `attempted` operations of which `failed` failed their
    /// output check, plus run-level `failures` (one line each).
    pub fn new(attempted: u64, failed: u64, failures: Vec<String>) -> Self {
        RunResult { attempted, failed, failures, metrics: Vec::new(), notes: Vec::new() }
    }

    /// Add a metric (its name must be in the catalogue).
    pub fn push(&mut self, m: Metric) {
        def_of(m.name);
        self.metrics.push(m);
    }

    /// Add a free-form line to the human-readable part.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Did every operation and every check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name,
                def_of(m.name).unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Print the report; the JSON object is the last line.
    pub fn print(&self) {
        for m in &self.metrics {
            let d = def_of(m.name);
            let mut line = format!("{:<40} {:>16.6} {:<6}", m.name, m.value, d.unit);
            if d.bound > 0.0 {
                let _ = write!(line, " bound {:.2}", d.bound);
            }
            let _ = write!(line, " n={}", m.samples);
            if let Some((q1, q3)) = m.quartiles {
                let _ = write!(line, " q1 {q1:.6} q3 {q3:.6}");
            }
            println!("{line}");
        }
        for n in &self.notes {
            println!("{n}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        if self.failed > 0 {
            println!(
                "FAILED: {} of {} operation(s) failed their output check",
                self.failed, self.attempted
            );
        }
        println!("{}", self.json());
    }
}

/// `VmHWM` of this process, MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-op tail as a line for the human-readable report.
pub fn tail_note(op_ms: &[f64]) -> String {
    match stats::tail(op_ms) {
        Some((pct, ms)) => format!("op tail: p{pct} = {ms:.4} ms over {} ops", op_ms.len()),
        None => format!("op tail: {} ops are too few for a percentile", op_ms.len()),
    }
}

/// Layer span name → the per-layer metrics derived from its totals.
struct Derived {
    span: &'static str,
    /// Self time per op.
    time: Option<(&'static str, f64)>,
    allocs: Option<&'static str>,
    alloc_bytes: Option<&'static str>,
}

const fn ms(span: &'static str, metric: &'static str) -> Derived {
    Derived { span, time: Some((metric, 1e-6)), allocs: None, alloc_bytes: None }
}

const fn us(span: &'static str, metric: &'static str) -> Derived {
    Derived { span, time: Some((metric, 1e-3)), allocs: None, alloc_bytes: None }
}

const fn with_allocs(
    span: &'static str,
    metric: &'static str,
    allocs: &'static str,
    alloc_bytes: &'static str,
) -> Derived {
    Derived {
        span,
        time: Some((metric, 1e-6)),
        allocs: Some(allocs),
        alloc_bytes: Some(alloc_bytes),
    }
}

const DERIVED: &[Derived] = &[
    with_allocs("afg.level", "afg.level.ms", "afg.level.allocs", "afg.level.alloc_bytes"),
    ms("sched.view_capture", "sched.view_capture.ms"),
    with_allocs(
        "sched.host_selection",
        "sched.host_selection.ms",
        "sched.host_selection.allocs",
        "sched.host_selection.alloc_bytes",
    ),
    with_allocs("sched.walk", "sched.walk.ms", "sched.walk.allocs", "sched.walk.alloc_bytes"),
    us("net.nearest_neighbours", "net.nearest_neighbours.us"),
    with_allocs(
        "sched.makespan",
        "sched.makespan.ms",
        "sched.makespan.allocs",
        "sched.makespan.alloc_bytes",
    ),
    ms("sched.validate_outputs", "sched.validate_outputs.ms"),
    us("data.catalog.view", "data.catalog.view_us"),
    with_allocs(
        "sched.incremental.apply",
        "sched.incremental.apply_ms",
        "sched.incremental.apply_allocs",
        "sched.incremental.apply_alloc_bytes",
    ),
    ms("sched.incremental.new", "sched.incremental.new_ms"),
    us("runtime.submission.submit", "runtime.submission.submit_us"),
    with_allocs(
        "sched.service.step",
        "sched.service.step_ms",
        "sched.service.step_allocs",
        "sched.service.step_alloc_bytes",
    ),
    ms("sim.replay.plain", "sim.replay.plain_ms"),
    ms("sim.replay.durable", "sim.replay.durable_ms"),
    ms("sim.recovery.verify_kill", "sim.recovery.verify_kill_ms"),
];

/// Fill `values` with every per-layer metric that comes from span
/// arithmetic: self time, allocations and work counts per op. Values the
/// workload measured itself are kept.
pub fn derive_layer_values(spans: &[Span], untraced_p50_ms: f64, values: &mut LayerValues) {
    let totals = layer_totals(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let root = get("driver.op");
    let ops = root.spans.max(1) as f64;
    let mut set = |name: &'static str, v: f64| {
        values.entry(name).or_insert(v);
    };

    for d in DERIVED {
        let t = get(d.span);
        if t.spans == 0 {
            continue;
        }
        if let Some((metric, scale)) = d.time {
            set(metric, t.self_ns as f64 * scale / ops);
        }
        if let Some(metric) = d.allocs {
            set(metric, t.allocs as f64 / ops);
        }
        if let Some(metric) = d.alloc_bytes {
            set(metric, t.alloc_bytes as f64 / ops);
        }
    }

    let per_count = |t: LayerTotals, span: &str, key: &str| {
        t.total_ns as f64 / sum_count(spans, span, key).max(1.0)
    };
    if get("afg.level").spans > 0 {
        set("afg.level.ns_per_task", per_count(get("afg.level"), "afg.level", "tasks"));
    }
    if get("sched.walk").spans > 0 {
        set("sched.walk.ns_per_task", per_count(get("sched.walk"), "sched.walk", "tasks"));
    }
    let hs = get("sched.host_selection");
    if hs.spans > 0 {
        set("sched.host_selection.us_per_site", hs.total_ns as f64 / 1e3 / hs.spans as f64);
    }

    // The streaming service: what the step costs beyond the same admission
    // done outside it.
    let (step, shadow) = (get("sched.service.step"), get("driver.shadow_admit"));
    if step.spans > 0 {
        let (step_ms, shadow_ms) =
            (step.total_ns as f64 / 1e6 / ops, shadow.total_ns as f64 / 1e6 / ops);
        set("sched.service.shadow_admit_ms", shadow_ms);
        set("sched.service.overhead_ms", step_ms - shadow_ms);
        let drain = get("sched.service.drain");
        set("sched.service.drain_ms", drain.total_ns as f64 / 1e6 / drain.spans.max(1) as f64);
    }

    // How much of an op the named layers account for. For the stream
    // workloads the op *is* two library calls, so the question is instead
    // how much of it the shadow admission explains.
    let coverage = if step.spans > 0 {
        (get("runtime.submission.submit").total_ns + shadow.total_ns.min(step.total_ns)) as f64
            / root.total_ns.max(1) as f64
    } else {
        1.0 - root.self_ns as f64 / root.total_ns.max(1) as f64
    };
    set("driver.layer_coverage", coverage);

    let traced_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "driver.op")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    if !traced_ms.is_empty() && untraced_p50_ms > 0.0 {
        set("driver.trace_overhead_x", stats::median(&traced_ms) / untraced_p50_ms);
    }
}

/// Self-time share of each layer of a traced run, as text: of the time
/// inside the ops, and — for spans recorded beside the ops (the shadow
/// admission, the final drain) — relative to that same total.
pub fn share_table(spans: &[Span]) -> String {
    let inside_op: Vec<bool> = {
        let mut inside = vec![false; spans.len()];
        for s in spans {
            inside[s.id as usize] = match s.parent {
                None => s.name == "driver.op",
                Some(p) => inside[p as usize],
            };
        }
        inside
    };
    let totals = layer_totals(spans);
    let op_ns = totals.get("driver.op").map_or(0, |t| t.total_ns).max(1) as f64;
    let mut rows: Vec<(&str, &LayerTotals)> = totals.iter().map(|(k, v)| (*k, v)).collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
    let mut out = String::from("layer self time, as a share of the time inside the ops:");
    for (name, t) in rows {
        let beside = spans.iter().any(|s| s.name == name && !inside_op[s.id as usize]);
        let _ = write!(
            out,
            "\n  {:<28} {:>6.1}%  {:>9} span(s){}",
            name,
            t.self_ns as f64 * 100.0 / op_ns,
            t.spans,
            if beside { "  (beside the op)" } else { "" }
        );
    }
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"perf/bench.sh\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": 10,\n  \"workloads\": [\n",
    );
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            better(d),
            d.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            better(d)
        );
    }
    out.push_str("  ]\n}");
    out
}

fn better(d: &Def) -> &'static str {
    if d.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk.trim_end(),
            benchmark_json(),
            "regenerate with `vdce_perf --describe > BENCHMARK.json`"
        );
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn median_over_rounds_is_what_a_sampled_metric_reports() {
        let m = Metric::samples("throughput_ops_s", &[9.0, 10.0, 30.0, 11.0, 10.5]);
        assert_eq!((m.value, m.samples), (10.5, 5));
        let (q1, q3) = m.quartiles.expect("several samples have quartiles");
        assert!(q1 <= m.value && m.value <= q3);
        let mut r = RunResult::new(12, 0, Vec::new());
        r.push(m);
        r.push(Metric::value("setup_s", 0.25));
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"throughput_ops_s\": {\"value\": 10.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        assert!(!RunResult::new(5, 1, Vec::new()).correct());
        assert!(!RunResult::new(5, 0, vec!["digest mismatch".into()]).correct());
        assert!(RunResult::new(5, 0, Vec::new()).correct());
    }

    #[test]
    fn layer_values_come_from_span_arithmetic() {
        let span = |id, parent, name, start, end| Span {
            op: 0,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            allocs: 4,
            alloc_bytes: 40,
            counts: vec![("tasks", 10.0)],
        };
        // Two ops of 1 ms; each walks for 0.6 ms and levels for 0.3 ms.
        let spans = vec![
            span(0, None, "driver.op", 0, 1_000_000),
            span(1, Some(0), "afg.level", 0, 300_000),
            span(2, Some(0), "sched.walk", 300_000, 900_000),
            span(3, None, "driver.op", 1_000_000, 2_000_000),
            span(4, Some(3), "afg.level", 1_000_000, 1_300_000),
            span(5, Some(3), "sched.walk", 1_300_000, 1_900_000),
        ];
        let mut v = LayerValues::new();
        v.insert("sched.walk.allocs", 99.0);
        derive_layer_values(&spans, 0.5, &mut v);
        assert!((v["sched.walk.ms"] - 0.6).abs() < 1e-12);
        assert!((v["afg.level.ms"] - 0.3).abs() < 1e-12);
        assert!((v["afg.level.ns_per_task"] - 30_000.0).abs() < 1e-9);
        assert!((v["driver.layer_coverage"] - 0.9).abs() < 1e-12);
        assert!((v["driver.trace_overhead_x"] - 2.0).abs() < 1e-12);
        assert_eq!(v["sched.walk.allocs"], 99.0, "a workload's own value wins");
        assert_eq!(v["afg.level.allocs"], 4.0);
    }
}
