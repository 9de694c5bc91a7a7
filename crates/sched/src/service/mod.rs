//! The streaming multi-tenant scheduler service.
//!
//! Batch VDCE schedules one AFG per call. This module is the
//! long-running layer above it — the piece Nimrod/G adds to a
//! computational grid: a front-end **service** that many tenants submit
//! to concurrently, each authenticated against the paper's 5-tuple
//! account record, each constrained by a deadline and a budget, all
//! sharing the federation's capacity under weighted-fair aging.
//!
//! Four parts:
//!
//! - [`tenant`] — the account registry (5-tuple + per-tenant quota);
//! - `broker` — the deadline-and-budget admission decision;
//! - `aging` — effective-priority aging and the starvation bound;
//! - [`stream`] — the deterministic logical-time event loop that ties
//!   them to [`IncrementalSchedule`](crate::IncrementalSchedule): every
//!   arrival, completion, and host event re-places only the affected
//!   ready set.
//!
//! The whole service is replay-deterministic: feeding the same trace
//! of submissions and fault injections twice produces bit-identical
//! placements, times, and reports ([`StreamReport::placements_digest`]
//! is the fingerprint CI compares across replays).

mod aging;
mod broker;
pub mod stream;
pub mod tenant;

pub use aging::AgingPolicy;
pub use broker::{BrokerDecision, BrokerPolicy, RejectReason};
pub use stream::{
    ServiceConfig, StreamReport, StreamService, SubmissionId, SubmissionRequest, TenantRow,
};
pub use tenant::{Quota, TenantRegistry};
