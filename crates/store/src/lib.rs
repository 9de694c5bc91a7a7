//! # vdce-store — the durable control-plane substrate
//!
//! The paper's Site Manager keeps the whole control plane (site
//! repository, resource-performance DB, checkpoint records) in process
//! memory — a single `kill -9` loses every workload sample, measured
//! execution time and checkpoint the site has accumulated. This crate
//! is the persistence layer DESIGN.md §16 adds underneath it:
//!
//! - [`WalWriter`] / [`read_wal`] — a length-prefixed, CRC-checksummed
//!   write-ahead log. [`WalWriter`] appends framed records to a byte
//!   image; [`read_wal`] recovers them, truncating a torn tail (a crash
//!   mid-write) silently and rejecting a corrupted checksum with a
//!   typed [`WalError`] — never a panic.
//! - [`FileWal`] — the same framing spilled to
//!   an actual on-disk file: append/`fdatasync` group-commit
//!   discipline, recovery that physically truncates a torn tail off
//!   the file.
//! - [`fnv1a`] / [`Fnv1a`] — deterministic 64-bit FNV-1a state hashing,
//!   the cheap fingerprint behind snapshot integrity and replica
//!   divergence detection.
//! - [`AppendLog`] — the shared in-memory append-only
//!   buffer that `EventLog` and the obs trace sink sit on (one
//!   substrate, one write path).
//! - [`Journal`] — the tagged event journal the
//!   event-sourced control plane writes through. Each record is framed
//!   once, into one log the journal never resets; the durable
//!   [`StoreImage`] (newest snapshot + the frames after it), the record
//!   history and the WAL of any kill point ([`JournalView::wal`]) are
//!   byte ranges of that log.
//! - [`Replicator`] — the leader-follower
//!   channel that ships each journaled event to a deputy replica and
//!   compares state hashes on a fixed cadence; a mismatch surfaces as
//!   [`ReplicationError::Divergence`].

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod file_wal;
mod hash;
mod journal;
mod log;
mod replication;
mod wal;

pub use file_wal::{FileWal, FileWalError};
pub use hash::{fnv1a, fnv1a_json, Fnv1a};
pub use journal::{
    encode_record, recover, Journal, JournalError, JournalStats, JournalView, Recovered,
    SnapshotPolicy, SnapshotRecord, StoreImage,
};
pub use log::AppendLog;
pub use replication::{Replica, ReplicationError, ReplicationStats, Replicator};
pub use wal::{crc32, read_wal, WalError, WalRecovery, WalWriter, WAL_HEADER_LEN};
