//! # vdce-runtime — the VDCE Runtime System
//!
//! §4 of the paper: "The VDCE Runtime System separates control and data
//! functions by allocating them to the Control Manager and Data Manager,
//! respectively."
//!
//! **Control Manager** (§4.1):
//! - [`monitor`] — the Monitor daemon on every host, periodically
//!   measuring CPU load and memory availability;
//! - [`group`] — the Group Manager per host group: forwards only
//!   *significantly changed* workloads to the Site Manager and detects
//!   failures by echo-probing its hosts;
//! - [`site_manager`] — the Site Manager on the VDCE server: updates the
//!   site repository with monitoring and failure information, writes
//!   measured execution times back to the task-performance database after
//!   each run, and distributes the resource allocation table;
//! - [`app_controller`] — the Application Controller: sets up the
//!   execution environment, waits for Data-Manager acknowledgements,
//!   broadcasts the start-up signal, monitors running tasks and requests
//!   rescheduling when a host exceeds the load threshold.
//!
//! **Data Manager** (§4.2): [`data_manager`] — socket-based point-to-point
//! channels for inter-task communication, with an in-process transport
//! (crossbeam) and a real loopback-TCP transport, both behind the same
//! acknowledged-setup protocol.
//!
//! **Tasks**: [`kernels`] implements every library task as real
//! computation (this replaces the executables the task-constraints
//! database points at; see DESIGN.md §3). [`executor`] runs a scheduled
//! application. [`services`] provides the user-requested I/O, console
//! (suspend/restart) and visualization services. [`events`] is the
//! runtime event log the visualization service renders. [`checkpoint`]
//! persists task progress so recovery resumes from the latest valid
//! checkpoint instead of restarting from zero (DESIGN.md §11).
//! [`submission`] is the authenticated front door to the streaming
//! scheduler service (DESIGN.md §15): credentials in, queued
//! submissions out.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app_controller;
pub mod checkpoint;
pub mod data_manager;
pub mod durable;
pub mod events;
pub mod executor;
pub mod group;
pub mod kernels;
pub mod monitor;
pub mod net_monitor;
pub mod recovery;
pub mod services;
pub mod site_manager;
pub mod submission;

pub use app_controller::{AppController, AppControllerConfig, ExecutionReport, ThresholdGate};
pub use checkpoint::{
    checkpoint_dataset_id, CheckpointEvent, CheckpointPolicy, CheckpointState, CheckpointStore,
    ControlCheckpoint, MtbfEstimator, PlannedCheckpoint, RunPlan, TaskCheckpoint, CHECKPOINT_NS,
};
pub use data_manager::{ChannelId, DataManager, Transport};
pub use durable::{
    write_snapshot, ControlEvent, ControlEventError, ControlState, DeputyLink, DurableOptions,
    JournaledSiteEvent, RepoReplica,
};
pub use events::{EventLog, LogRecord, RuntimeEvent, WorkLedger};
pub use executor::{execute, Execution, HostLockRegistry};
pub use kernels::run_kernel;
pub use monitor::{LoadProbe, MonitorDaemon, MonitorReport, SyntheticProbe};
pub use net_monitor::{LinkProbe, NetworkMonitor, SyntheticLinkProbe};
pub use recovery::{BackoffPolicy, Quarantine, SiteQuarantine};
pub use services::{ConsoleService, IoService, VisualizationService};
pub use site_manager::{ControlMessage, FailoverEvent, SiteFailover, SiteManager, SiteTableEvent};
pub use submission::{SubmissionError, SubmissionGateway};
