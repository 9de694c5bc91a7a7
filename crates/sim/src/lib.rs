//! # vdce-sim — experiment substrate for the VDCE reproduction
//!
//! The paper's evaluation is a campus-wide proof of concept with no
//! numeric tables; EXPERIMENTS.md reconstructs quantitative experiments
//! around its four figures. This crate provides everything those
//! experiments share:
//!
//! - [`dag_gen`] — reproducible application-flow-graph families (layered
//!   random DAGs, fork-join, Gaussian elimination, FFT butterflies,
//!   chains and fans) with controllable computation and communication
//!   scales;
//! - [`pool_gen`] — reproducible federations: per-site repositories with
//!   heterogeneous hosts plus the matching topology and network model;
//! - [`Summary`], [`geomean`] and [`Table`] — summary statistics and
//!   aligned table rendering for the `exp_*` binaries;
//! - [`compare_schedulers`] and [`run_monitoring_experiment`] — canned
//!   scheduler-comparison and monitoring experiments (the latter drives
//!   the Monitor daemons with a synthetic random-walk load trace) shared
//!   by examples and EXPERIMENTS.md;
//! - [`FaultPlan`] — the seeded, serializable fault-injection plan DSL
//!   (crashes, outages, spikes, degraded/flaky links);
//! - [`mod@replay`] — deterministic replay of a fault plan against the real
//!   runtime control plane, with mid-execution recovery
//!   (detect → quarantine → re-select → migrate → retry): one `Replay`
//!   state machine, one method per tick step, behind
//!   [`ReplayRequest::run`], and [`run_fault_scenario`]
//!   folding a faulty replay and its fault-free twin into the
//!   [`RecoveryReport`] the `faults` experiment records;
//! - [`arrivals`] — seeded Poisson submission traces for the streaming
//!   scheduler service;
//! - [`stream`] — the streaming-service harness: trace + federation +
//!   fault plan in, replay-deterministic `StreamReport` out;
//! - [`recovery`] — kill-and-restart verification of the durable
//!   control plane (DESIGN.md §16): damaged-WAL construction at
//!   arbitrary kill points, snapshot + replay recovery, and
//!   bit-identical resume against the sealed final state;
//! - [`FuzzCase`] — the seeded scenario fuzzer (DESIGN.md §17): adversarial
//!   fault-plan generation over the named scenarios, the end-to-end
//!   invariant engine, and the delta-debugging shrinker that minimises
//!   violating seeds into committable reproducers;
//! - [`data`] — data-aware workloads over replicated datasets
//!   (DESIGN.md §18): the parameter-sweep and data-intensive pipeline
//!   scenarios the `data` experiment runs against.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod arrivals;
pub mod dag_gen;
pub mod data;
mod faults;
mod fuzz;
mod harness;
mod metrics;
pub mod pool_gen;
pub mod recovery;
pub mod replay;
pub mod scenario;
pub mod stream;
mod trace;

pub use arrivals::{poisson_trace, Arrival, TraceSpec};
pub use dag_gen::DagSpec;
pub use data::{pipeline_workload, sweep_workload, DataScenario};
pub use faults::{Fault, FaultPlan};
pub use fuzz::{
    check_case, check_invariant, shrink, CaseOutcome, FaultClass, FuzzCase, Invariant,
    InvariantProfile, ShrinkOutcome, Violation,
};
pub use harness::{compare_schedulers, comparison_table, run_monitoring_experiment, SchedulerKind};
pub use metrics::{geomean, recovery_table, RecoveryReport, Summary, Table};
pub use pool_gen::{build_federation, Federation, FederationSpec};
pub use recovery::{verify_kill, verify_recovery, KillReport, RecoverySummary};
pub use replay::{run_fault_scenario, ReplayConfig, ReplayOutcome, ReplayRequest};
pub use scenario::Scenario;
pub use stream::{run_stream, StreamScenario};
