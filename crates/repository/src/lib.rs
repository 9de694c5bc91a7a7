//! # vdce-repository — the VDCE site repository
//!
//! Each VDCE site keeps a *site repository* "for storing user-accounts
//! information, task and resource parameters that are used by the
//! scheduler" (§3). This crate implements its four databases:
//!
//! - [`accounts::UserAccountsDb`] — each user is the paper's 5-tuple
//!   *(user name, password, user ID, priority, access domain type)*; used
//!   for authentication when the Application Editor connects.
//! - [`resources::ResourcePerfDb`] — per-host attributes (host name, IP,
//!   architecture/OS type, total and available memory, recent workload
//!   measurements) plus up/down status maintained by the Group Managers'
//!   failure detection.
//! - [`tasks::TaskPerfDb`] — per-task implementation parameters
//!   (computation size, communication size, required memory) and measured
//!   execution times, written back by the Site Manager after each run.
//! - [`constraints::TaskConstraintsDb`] — the absolute path of each task
//!   executable on each host.
//!
//! [`repository::SiteRepository`] bundles the four, as one
//! [`RepositorySnapshot`] value behind one lock, into a thread-safe
//! facade (site managers, group managers and schedulers all touch it
//! concurrently) and supports JSON snapshots.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod accounts;
mod constraints;
mod events;
mod repository;
pub mod resources;
mod tasks;

pub use accounts::{AccessDomain, AuthError, UserAccount, UserAccountsDb, UserId};
pub use constraints::TaskConstraintsDb;
pub use events::{JournaledRepoEvent, RepoEvent};
pub use repository::{RepositorySnapshot, SiteRepository};
pub use resources::{HostStatus, ResourcePerfDb, ResourceRecord};
pub use tasks::TaskPerfDb;
