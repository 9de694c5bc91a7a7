//! # vdce-runtime — the VDCE Runtime System
//!
//! §4 of the paper: "The VDCE Runtime System separates control and data
//! functions by allocating them to the Control Manager and Data Manager,
//! respectively."
//!
//! **Control Manager** (§4.1):
//! - [`MonitorDaemon`] — the Monitor daemon on every host, measuring CPU
//!   load and memory availability at each tick;
//! - [`GroupManager`] — the Group Manager per host group: forwards only
//!   *significantly changed* workloads to the Site Manager and detects
//!   failures by echo-probing its hosts;
//! - [`SiteManager`] — the Site Manager on the VDCE server: updates the
//!   site repository with monitoring and failure information and writes
//!   measured execution times back to the task-performance database after
//!   each run;
//! - [`ThresholdGate`] — the Application Controller's rescheduling
//!   gate: relocates a task whose host is down or above the load
//!   threshold when it launches. `vdce_core::Session::submit` is the rest
//!   of the Application Controller: it sets up the execution environment,
//!   broadcasts the start-up signal and runs the application through the
//!   gate.
//!
//! **Data Manager** (§4.2): [`DataManager`] — socket-based point-to-point
//! channels for inter-task communication, with an in-process transport
//! (`std::sync::mpsc`) and a real loopback-TCP transport, both behind the same
//! acknowledged-setup protocol.
//!
//! **Tasks**: [`run_kernel`] implements every library task as real
//! computation (this replaces the executables the task-constraints
//! database points at; see DESIGN.md §3). [`execute`] runs a scheduled
//! application. [`IoService`], [`ConsoleService`] and
//! [`VisualizationService`] are the user-requested I/O, console
//! (suspend/restart) and visualization services. [`EventLog`] is the
//! runtime event log the visualization service renders. [`CheckpointStore`]
//! persists task progress so the fault replay's recovery resumes from the
//! latest valid checkpoint instead of restarting from zero (DESIGN.md §11).
//! [`submission`] is the authenticated front door to the streaming
//! scheduler service (DESIGN.md §15): credentials in, queued
//! submissions out.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod app_controller;
mod checkpoint;
mod data_manager;
mod durable;
mod events;
mod executor;
mod group;
mod kernels;
mod monitor;
mod net_monitor;
mod recovery;
mod services;
mod site_manager;
pub mod submission;

pub use app_controller::ThresholdGate;
pub use checkpoint::{
    CheckpointEvent, CheckpointPolicy, CheckpointState, CheckpointStore, ControlCheckpoint,
    PlannedCheckpoint, RunPlan,
};
pub use data_manager::{ChannelId, DataManager, Transport};
pub use durable::{
    write_snapshot, ControlEvent, ControlEventError, ControlState, DeputyLink, DurableOptions,
    JournaledSiteEvent, RepoReplica,
};
pub use events::{EventLog, LogRecord, RuntimeEvent, WorkLedger};
pub use executor::{
    execute, AlwaysProceed, Execution, ExecutionOutcome, HostLockRegistry, StartGate, TaskRunRecord,
};
pub use group::{FlagEcho, GroupManager};
pub use kernels::{
    decode_f64s, encode_f64s, run_kernel, run_kernel_parallel, synth_matrix, synth_values,
};
pub use monitor::{LoadProbe, MonitorDaemon, MonitorReport, SyntheticProbe};
pub use net_monitor::{LinkProbe, NetworkMonitor, SyntheticLinkProbe};
pub use recovery::{BackoffPolicy, Quarantine, SiteQuarantine};
pub use services::{ConsoleService, IoService, VisualizationService};
pub use site_manager::{ControlMessage, FailoverEvent, SiteFailover, SiteManager, SiteTableEvent};
pub use submission::{SubmissionError, SubmissionGateway};
