//! VDCE observability layer.
//!
//! The paper's Runtime System is explicitly a *monitoring* system:
//! hardware/software monitors feed scheduling, failure detection, and an
//! "Application Performance Visualization" facility (§4). This crate is
//! that facility for the reproduction, split into three orthogonal APIs:
//!
//! 1. [`trace::TraceSink`] — deterministic tracing. Spans and events are
//!    keyed by **logical sim time** (never wall clock) and serialise to
//!    JSONL that is bit-identical across replays of the same scenario.
//! 2. [`metrics::MetricsRegistry`] — counters, gauges, and fixed-bucket
//!    histograms, threaded through the scheduler, the runtime
//!    executor/monitors, DSM, and the fault-replay engine.
//! 3. [`artifact::RunArtifact`] — the single way `exp_*` binaries emit
//!    `BENCH_*.json`: schema-versioned, with embedded metric snapshots
//!    and scenario metadata.
//!
//! Nothing in this crate reads the wall clock. Values that are not part
//! of the replay contract (e.g. the predict-cache hit/miss split) go
//! under the `profile.` metric namespace, which
//! [`metrics::MetricsRegistry::snapshot_deterministic`] excludes.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod artifact;
mod metrics;
mod report;
mod trace;

pub use artifact::{validate as validate_artifact, RunArtifact};
pub use metrics::{MetricsRegistry, MetricsSnapshot, PROFILE_PREFIX};
pub use report::{Report, Table};
pub use trace::{validate_jsonl, FieldValue, TraceRecord, TraceSink, TraceStats};

/// A trace sink and a metrics registry bundled for threading through a
/// run (scheduler call, replay, executor session) as one handle.
#[derive(Default)]
pub struct Observer {
    /// Logical-time trace; share with [`TraceSink::clone`].
    pub trace: TraceSink,
    /// Metric registry for the run.
    pub metrics: MetricsRegistry,
}

impl Observer {
    /// Observer with tracing enabled.
    pub fn enabled() -> Self {
        Observer { trace: TraceSink::new(), metrics: MetricsRegistry::new() }
    }

    /// Observer whose trace sink drops everything (metrics still work —
    /// they are cheap and only touched at run boundaries).
    pub fn disabled() -> Self {
        Observer { trace: TraceSink::disabled(), metrics: MetricsRegistry::new() }
    }
}
