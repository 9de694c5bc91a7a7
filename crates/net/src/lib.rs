//! # vdce-net — the VDCE network substrate
//!
//! The paper runs VDCE over a campus/wide-area network of *sites*, each
//! fronted by a VDCE server; the site-scheduler algorithm (Figure 2) needs
//! `transfer_time(S_parent, S_j)` between sites and a notion of the *k
//! nearest neighbour sites*, and the Site Managers exchange scheduling and
//! monitoring messages ("the inter-site coordination and message transfer
//! … are handled by Site Managers", §4.1).
//!
//! The authors had ATM and Fast Ethernet between real machines; this crate
//! substitutes a deterministic model (see DESIGN.md §3):
//!
//! - [`Topology`] — named sites and their host lists;
//! - [`NetworkModel`] — per-site-pair latency and bandwidth, the
//!   `transfer_time` function, and k-nearest-site queries;
//! - [`TransferCache`] — a dense per-run snapshot of the link
//!   matrix for the schedulers' hot transfer-time loop;
//! - [`gen`] — reproducible topology generators (star, ring, metro
//!   clusters, uniform random);
//! - [`Clock`] — the clock trait, with the wall-clock [`RealClock`];
//! - [`MessageBus`] — an in-memory, multicast-capable message bus
//!   connecting the per-site endpoints, with per-link traffic accounting.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod bus;
mod cache;
mod clock;
pub mod gen;
pub mod model;
mod partition;
pub mod topology;

pub use bus::{BusError, Endpoint, MessageBus};
pub use cache::TransferCache;
pub use clock::{Clock, RealClock};
pub use model::{LinkParams, NetworkModel};
pub use partition::PartitionState;
pub use topology::{SiteId, SiteInfo, Topology};
