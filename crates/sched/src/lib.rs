//! # vdce-sched — the VDCE Application Scheduler
//!
//! "The main function of the Application Scheduler module in VDCE is to
//! interpret the application flow graph and to assign the most suitable
//! available resources for running the application tasks in order to
//! minimize the schedule length (total execution time) in a transparent
//! manner" (§3).
//!
//! The scheduler is a *list scheduler*: each task's priority is its
//! **level** (largest sum of base-processor computation costs on any path
//! to an exit node, `vdce-afg::level`), and two built-in algorithms do the
//! mapping:
//!
//! - [`host_selection()`] — Figure 3: per site, pick for each task the
//!   resource (or, for parallel tasks, the set of resources) minimising
//!   the predicted execution time;
//! - [`site_scheduler`](site_scheduler::site_schedule) — Figure 2: pick the k nearest neighbour sites,
//!   collect every site's host-selection output, then walk the ready set
//!   in priority order assigning entry tasks to the fastest site and
//!   non-entry tasks to the site minimising *input transfer time +
//!   predicted execution time*.
//!
//! Supporting pieces: [`view`] (snapshots of a site's databases, i.e.
//! what the AFG multicast carries back), [`AllocationTable`] (the resource
//! allocation table handed to the Site Manager), [`evaluate`] (schedule
//! simulation), [`baselines`] (random, round-robin, min-min,
//! max-min, local-only and HEFT comparators for the benchmarks),
//! [`federated_schedule`] (the multicast protocol over the inter-site
//! message bus), [`reselect_task`] (single-task re-selection for
//! mid-execution recovery — the scheduler side of a rescheduling request),
//! [`IncrementalSchedule`] (O(changed) re-placement after monitor events,
//! bit-identical to a full re-walk), and [`service`] (the streaming
//! multi-tenant admission + scheduling service layered on top:
//! tenant accounts and quotas, deadline-and-budget brokering, and
//! weighted-fair aging over a deterministic logical-time event loop).

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod allocation;
mod arena;
pub mod baselines;
mod classes;
mod data_inputs;
mod federation;
mod host_selection;
mod incremental;
mod makespan;
mod reselect;
pub mod service;
pub mod site_scheduler;
pub mod view;
mod walk;

// The scheduler oracle of the integration tests (`tests/common`), so a
// unit test can hold a named edge case to it. It names this crate
// `vdce_sched`, as a test binary does.
#[cfg(test)]
extern crate self as vdce_sched;
#[cfg(test)]
#[allow(unreachable_pub)]
#[path = "../tests/common/mod.rs"]
mod oracle;

pub use allocation::{AllocationTable, DataSource, TaskPlacement};
pub use federation::{federated_schedule, RemoteScheduler, SchedMessage};
pub use host_selection::{
    host_selection, host_selection_classed, ChoiceTable, HostSelectionOutput, TaskHostChoice,
};
pub use incremental::{IncrementalSchedule, ReschedulingDelta};
#[allow(deprecated)]
pub use makespan::evaluate_with_data;
pub use makespan::{evaluate, EvalError, Schedule, TimedTask};
pub use reselect::reselect_task;
pub use service::{
    AgingPolicy, BrokerDecision, BrokerPolicy, Quota, RejectReason, ServiceConfig, StreamReport,
    StreamService, SubmissionId, SubmissionRequest, TenantRegistry, TenantRow,
};
pub use site_scheduler::{
    site_schedule, validate_dataset_outputs, SchedError, SchedRequest, SchedulerConfig,
    SpreadPolicy,
};
#[allow(deprecated)]
pub use site_scheduler::{site_schedule_observed, site_schedule_with_data};
pub use view::SiteView;
