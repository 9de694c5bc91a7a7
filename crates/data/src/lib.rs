//! # vdce-data — replicated datasets as first-class objects
//!
//! VDCE (Figure 2) charges communication from the *parent's* site only:
//! `transfer_time(S_parent, S_j) × file_size`. That cannot express
//! data-oriented grid workloads where an input exists as a *dataset*
//! with replicas at several sites and the broker picks compute site and
//! data source jointly (Venugopal & Buyya's Grid Service Broker). This
//! crate supplies the missing object model:
//!
//! - [`DatasetCatalog`] — the federation-wide mutable catalog mapping
//!   [`DatasetId`] to `{size, replicas}` with per-site storage-capacity
//!   accounting. Every mutation is a [`DataEvent`] journaled (tag
//!   `data`) through the `vdce-store` write-ahead [`Journal`] *before*
//!   it is applied, so a catalog replays bit-identically from its WAL.
//! - [`DataView`] — the immutable snapshot the scheduler consumes: per
//!   dataset its size, live replica sites (ascending) and home site.
//!   [`DataView::primary_only`] degrades every dataset to its home
//!   replica, which is exactly the paper's parent-site-only model and
//!   serves as the ablation baseline in the `data` experiment.
//!
//! Checkpoints are wired in as just another replicated dataset (replica
//! fan-out > 1) by `vdce_runtime::checkpoint`.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod catalog;
mod events;
mod view;

pub use catalog::{DataError, DatasetCatalog};
pub use events::{CatalogState, DataEvent, DatasetRecord, Replica};
pub use view::{DataView, DatasetSpec};

pub use vdce_afg::DatasetId;
pub use vdce_store::Journal;
