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
//! - [`trace`] — synthetic load traces for the Monitor daemons (constant,
//!   spike, random walk);
//! - [`metrics`] — summary statistics and aligned table rendering for the
//!   `exp_*` binaries;
//! - [`harness`] — canned scheduler-comparison and monitoring experiments
//!   shared by benches, examples and EXPERIMENTS.md;
//! - [`faults`] — the seeded, serializable fault-injection plan DSL
//!   (crashes, outages, spikes, degraded/flaky links);
//! - [`replay`] — deterministic replay of a fault plan against the real
//!   runtime control plane, with mid-execution recovery
//!   (detect → quarantine → re-select → migrate → retry): one `Replay`
//!   state machine, one method per tick step, behind [`replay()`] /
//!   `replay_observed` / [`replay_durable`], and [`run_fault_scenario`]
//!   folding a faulty replay and its fault-free twin into the
//!   [`metrics::RecoveryReport`] the `exp_faults` binary emits;
//! - [`arrivals`] — seeded Poisson submission traces for the streaming
//!   scheduler service;
//! - [`stream`] — the streaming-service harness: trace + federation +
//!   fault plan in, replay-deterministic `StreamReport` out;
//! - [`recovery`] — kill-and-restart verification of the durable
//!   control plane (DESIGN.md §16): damaged-WAL construction at
//!   arbitrary kill points, snapshot + replay recovery, and
//!   bit-identical resume against the sealed final state;
//! - [`fuzz`] — the seeded scenario fuzzer (DESIGN.md §17): adversarial
//!   fault-plan generation over the named scenarios, the end-to-end
//!   invariant engine, and the delta-debugging shrinker that minimises
//!   violating seeds into committable reproducers;
//! - [`data`] — data-aware workloads over replicated datasets
//!   (DESIGN.md §18): the parameter-sweep and data-intensive pipeline
//!   scenarios the `exp_data` gates run against.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrivals;
pub mod dag_gen;
pub mod data;
pub mod faults;
pub mod fuzz;
pub mod harness;
pub mod metrics;
pub mod pool_gen;
pub mod recovery;
pub mod replay;
pub mod scenario;
pub mod stream;
pub mod trace;

pub use arrivals::{poisson_trace, Arrival, TraceSpec};
pub use dag_gen::DagSpec;
pub use data::{pipeline_workload, sweep_workload, DataScenario};
pub use faults::{Fault, FaultPlan};
pub use fuzz::{
    check_case, check_invariant, shrink, CaseOutcome, FaultClass, FuzzCase, Invariant,
    InvariantProfile, ShrinkOutcome, Violation,
};
pub use harness::{compare_schedulers, SchedulerKind};
pub use metrics::{summarise, RecoveryReport, Summary, Table};
pub use pool_gen::{build_federation, Federation, FederationSpec};
pub use recovery::{verify_kill, verify_recovery, KillReport, RecoverySummary};
pub use replay::{replay, replay_durable, run_fault_scenario, ReplayConfig, ReplayOutcome};
pub use scenario::Scenario;
pub use stream::{run_stream, StreamScenario};
