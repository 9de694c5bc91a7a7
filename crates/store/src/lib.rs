//! # vdce-store — the durable control-plane substrate
//!
//! The paper's Site Manager keeps the whole control plane (site
//! repository, resource-performance DB, checkpoint records) in process
//! memory — a single `kill -9` loses every workload sample, measured
//! execution time and checkpoint the site has accumulated. This crate
//! is the persistence layer DESIGN.md §16 adds underneath it:
//!
//! - [`wal`] — a length-prefixed, CRC-checksummed write-ahead log.
//!   [`wal::WalWriter`] appends framed records to a byte image;
//!   [`wal::read_wal`] recovers them, truncating a torn tail (a crash
//!   mid-write) silently and rejecting a corrupted checksum with a
//!   typed [`wal::WalError`] — never a panic.
//! - [`file_wal`] — [`file_wal::FileWal`], the same framing spilled to
//!   an actual on-disk file: append/`fdatasync` group-commit
//!   discipline, recovery that physically truncates a torn tail off
//!   the file, and an [`log::AppendLog`] mirror for in-process readers.
//! - [`hash`] — deterministic 64-bit FNV-1a state hashing, the cheap
//!   fingerprint behind snapshot integrity and replica divergence
//!   detection.
//! - [`log`] — [`log::AppendLog`], the shared in-memory append-only
//!   buffer that `EventLog`, the obs trace sink and the journal all
//!   sit on (one substrate, one write path).
//! - [`journal`] — [`journal::Journal`]: the tagged event journal the
//!   event-sourced control plane writes through, with periodic
//!   snapshot + WAL compaction and recovery from a
//!   [`journal::StoreImage`].
//! - [`replication`] — [`replication::Replicator`], the leader-follower
//!   channel that ships each journaled event to a deputy replica and
//!   compares state hashes on a fixed cadence; a mismatch surfaces as
//!   [`replication::ReplicationError::Divergence`].

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod file_wal;
pub mod hash;
pub mod journal;
pub mod log;
pub mod replication;
pub mod wal;

pub use file_wal::{FileWal, FileWalError};
pub use hash::{fnv1a, fnv1a_json, Fnv1a};
pub use journal::{
    decode_record, encode_record, recover, Journal, JournalError, JournalStats, JournalView,
    Recovered, SnapshotPolicy, SnapshotRecord, StoreImage,
};
pub use log::AppendLog;
pub use replication::{Replica, ReplicationError, ReplicationStats, Replicator};
pub use wal::{crc32, read_wal, WalError, WalRecovery, WalWriter, WAL_HEADER_LEN};
