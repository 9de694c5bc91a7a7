//! # vdce-dsm — distributed shared memory for VDCE
//!
//! The paper closes with: *"We are also implementing a distributed shared
//! memory model that will allow VDCE users to describe their applications
//! using a shared memory paradigm"* (§5). This crate implements that
//! future work: a page-based, sequentially-consistent DSM in the style of
//! the mid-90s systems (IVY / TreadMarks-era), sized for VDCE task groups
//! running on the hosts of one site.
//!
//! Design (see DESIGN.md):
//!
//! - a shared **region** is split into fixed-size pages;
//! - each *node* (a VDCE host participating in the computation) keeps a
//!   local page cache with MSI states (**M**odified / **S**hared /
//!   **I**nvalid);
//! - a home **directory** tracks, per page, the current owner and sharer
//!   set, serving read misses (owner writes back, readers share) and
//!   write misses (sharers invalidated, requester becomes exclusive
//!   owner) — the classic write-invalidate protocol;
//! - [`DsmBarrier`] and [`DsmLock`] are the barrier and lock primitives shared-memory VDCE
//!   applications need;
//! - every protocol action is counted ([`DsmStats`]) so experiments can
//!   report page traffic, invalidations and hit rates.
//!
//! The "network" between node caches and the directory is modelled as
//! synchronous calls under fine-grained locks (the reproduction's DSM
//! daemons live in one process); the protocol state machine, coherence
//! guarantees and traffic accounting are the real thing.
//!
//! ```
//! use vdce_dsm::DsmRegion;
//! use std::sync::Arc;
//!
//! let dsm = Arc::new(DsmRegion::new(4096, 256, 2));
//! let a = dsm.handle(0);
//! let b = dsm.handle(1);
//! a.write_f64(0, 42.0);
//! assert_eq!(b.read_f64(0), 42.0);       // b takes a read miss, then shares
//! assert!(dsm.stats().read_misses >= 1);
//! ```

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod region;
mod stats;
mod sync;

pub use region::{DsmHandle, DsmRegion, DsmSnapshot};
pub use stats::DsmStats;
pub use sync::{DsmBarrier, DsmLock};
