//! The tagged event journal the event-sourced control plane writes
//! through.
//!
//! Every control-plane mutation — a repository event, a checkpoint
//! record, a site-table transition, a runtime log entry — is serialized
//! by its owning component and appended here as a `(tag, payload)`
//! record *before* it is applied (write-ahead discipline). The journal
//! frames each record once, into one [`WalWriter`] log it never resets,
//! and notes where each frame starts. Recovery is "load the newest
//! snapshot, replay the WAL records after it".
//!
//! Like the obs `TraceSink`, a journal is cheap to thread everywhere:
//! [`Journal::disabled`] is a `None` branch per append, so un-journaled
//! replays keep their exact pre-PR behaviour. Clones share the journal.
//!
//! The log is the only copy of a record, read two ways: the **durable
//! image** ([`Journal::image`]) — the newest snapshot plus the WAL magic
//! and the frames after it, what a restarted Site Manager would read —
//! and **every record** ([`JournalView::record`], [`Journal::history`])
//! with the WAL a kill at any record boundary leaves behind
//! ([`JournalView::wal`]), which the recovery harness replays and resumes.

use crate::wal::{read_wal, WalError, WalWriter, RECORD_HEADER_LEN, WAL_HEADER_LEN, WAL_MAGIC};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// When a snapshot comes due; the durable image starts at the newest one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Install a snapshot every this many appended records; `0` never
    /// snapshots automatically (explicit installs still work).
    pub every_records: u64,
}

impl SnapshotPolicy {
    /// Never snapshot automatically.
    pub fn manual() -> Self {
        SnapshotPolicy { every_records: 0 }
    }

    /// Snapshot every `n` records.
    pub fn every(n: u64) -> Self {
        SnapshotPolicy { every_records: n }
    }
}

/// One installed state snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Global sequence number the snapshot covers: the state after the
    /// first `seq` journal records.
    pub seq: u64,
    /// Serialized state (the owning state machine defines the format).
    pub state: Vec<u8>,
    /// [`crate::hash::fnv1a`] of `state`, pinned at install time.
    pub hash: u64,
}

/// The durable image a restart recovers from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreImage {
    /// Newest installed snapshot, if any.
    pub snapshot: Option<SnapshotRecord>,
    /// WAL image holding every record after that snapshot.
    pub wal: Vec<u8>,
}

/// Counters describing a journal's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended over the journal's lifetime.
    pub records: u64,
    /// Bytes of the durable image's WAL: magic + frames since the newest snapshot.
    pub wal_bytes: u64,
    /// Bytes of every record's frame, the whole log less its magic.
    pub wal_bytes_total: u64,
    /// Snapshots installed.
    pub snapshots: u64,
}

/// A recovered journal: starting snapshot plus the decoded records to
/// replay on top of it, all borrowed from the [`StoreImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered<'a> {
    /// Snapshot to start from (`None` = the state machine's initial
    /// state).
    pub snapshot: Option<&'a SnapshotRecord>,
    /// `(tag, payload)` records to apply after the snapshot, in order.
    pub events: Vec<(&'a str, &'a str)>,
    /// Bytes of torn WAL tail dropped during recovery.
    pub torn_bytes: usize,
}

/// Everything a journal holds, borrowed for the length of one
/// [`Journal::read`]: the recovery harness walks whole histories and
/// snapshot lists per kill point, which the cloning accessors would copy
/// each time.
#[derive(Debug, Clone, Copy)]
pub struct JournalView<'a> {
    /// The framed log: the WAL magic, then every record's frame in order.
    log: &'a [u8],
    /// Byte offset in `log` where each record's frame starts.
    starts: &'a [usize],
    /// Every snapshot installed, oldest first.
    pub snapshots: &'a [SnapshotRecord],
    /// The sealed final state, if [`Journal::seal`] was called.
    pub final_state: Option<&'a SnapshotRecord>,
}

impl<'a> JournalView<'a> {
    /// Records ever appended.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Has nothing been appended?
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Records the newest snapshot covers (0 before any).
    fn snapshot_seq(&self) -> usize {
        self.snapshots.last().map_or(0, |s| s.seq as usize)
    }

    /// Where record `i`'s frame starts; `len()` gives the end of the log.
    fn start(&self, i: usize) -> usize {
        self.starts.get(i).copied().unwrap_or(self.log.len())
    }

    /// Record `i`'s frame, header included.
    pub fn frame(&self, i: usize) -> &'a [u8] {
        &self.log[self.starts[i]..self.start(i + 1)]
    }

    /// Record `i` as `(tag, payload)`, borrowed out of its frame.
    pub fn record(&self, i: usize) -> (&'a str, &'a str) {
        let payload = &self.frame(i)[RECORD_HEADER_LEN..];
        decode_record(payload).expect("the journal frames `tag payload` text")
    }

    /// The WAL of `records` plus `torn` bytes of the next one's frame, as a
    /// process that last snapshotted at `records.start` leaves it when it
    /// dies there: the WAL magic and one byte range of the log.
    pub fn wal(&self, records: Range<usize>, torn: usize) -> Vec<u8> {
        let end = self.start(records.end) + torn;
        [&WAL_MAGIC[..], &self.log[self.start(records.start)..end]].concat()
    }
}

/// Why a [`StoreImage`] could not be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The WAL image itself failed to read.
    Wal(WalError),
    /// A record passed its checksum but is not a valid `tag payload`
    /// journal frame.
    MalformedRecord {
        /// 0-based index of the bad record within the image.
        index: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Wal(e) => write!(f, "{e}"),
            JournalError::MalformedRecord { index } => {
                write!(f, "journal record {index} is not a `tag payload` frame")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<WalError> for JournalError {
    fn from(e: WalError) -> Self {
        JournalError::Wal(e)
    }
}

/// Frame one journal record: the tag, one space, the payload.
pub fn encode_record(tag: &str, payload: &str) -> Vec<u8> {
    debug_assert!(!tag.contains(' '), "journal tags must not contain spaces");
    [tag.as_bytes(), b" ", payload.as_bytes()].concat()
}

/// Split a record back into `(tag, payload)`.
fn decode_record(bytes: &[u8]) -> Option<(&str, &str)> {
    std::str::from_utf8(bytes).ok()?.split_once(' ')
}

/// Recover a [`StoreImage`]: read the WAL (truncating a torn tail),
/// split every record, and return the snapshot + replay list, borrowed
/// from `image`.
pub fn recover(image: &StoreImage) -> Result<Recovered<'_>, JournalError> {
    let wal = read_wal(&image.wal)?;
    let mut events = Vec::with_capacity(wal.records.len());
    for (index, rec) in wal.records.into_iter().enumerate() {
        events.push(decode_record(rec).ok_or(JournalError::MalformedRecord { index })?);
    }
    Ok(Recovered { snapshot: image.snapshot.as_ref(), events, torn_bytes: wal.torn_bytes })
}

#[derive(Debug)]
struct JournalInner {
    /// Every record's frame, in append order; never reset.
    log: WalWriter,
    /// Byte offset in `log` where each record's frame starts.
    starts: Vec<usize>,
    snapshots: Vec<SnapshotRecord>,
    policy: SnapshotPolicy,
    final_state: Option<SnapshotRecord>,
}

/// The shared control-plane journal. Clones share state; a disabled
/// journal makes every write a no-op branch.
#[derive(Clone, Default)]
pub struct Journal {
    inner: Option<Arc<Mutex<JournalInner>>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Journal(disabled)"),
            Some(inner) => {
                let g = inner.lock();
                write!(f, "Journal(records: {}, snapshots: {})", g.starts.len(), g.snapshots.len())
            }
        }
    }
}

impl Journal {
    /// A journal that drops everything — the default for un-journaled
    /// replays.
    pub fn disabled() -> Self {
        Journal { inner: None }
    }

    /// A live journal compacting under `policy`.
    pub fn enabled(policy: SnapshotPolicy) -> Self {
        Journal {
            inner: Some(Arc::new(Mutex::new(JournalInner {
                log: WalWriter::new(),
                starts: Vec::new(),
                snapshots: Vec::new(),
                policy,
                final_state: None,
            }))),
        }
    }

    /// Is this journal recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Append one `(tag, payload)` record. Returns the record's global
    /// sequence number, or `None` when disabled.
    pub fn append(&self, tag: &str, payload: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let mut g = inner.lock();
        debug_assert!(!tag.contains(' '), "journal tags must not contain spaces");
        let start = g.log.byte_len();
        g.starts.push(start);
        // The frame `encode_record` builds, without building it.
        Some(g.log.append_parts(&[tag.as_bytes(), b" ", payload.as_bytes()]))
    }

    /// Has the snapshot policy come due? (Always `false` when disabled
    /// or under a manual policy.)
    pub fn snapshot_due(&self) -> bool {
        let Some(inner) = self.inner.as_ref() else { return false };
        let g = inner.lock();
        let since = g.starts.len() as u64 - g.snapshots.last().map_or(0, |s| s.seq);
        g.policy.every_records > 0 && since >= g.policy.every_records
    }

    /// Install a snapshot of the owning state machine's current state;
    /// the durable image starts at it from now on. No-op when disabled.
    pub fn install_snapshot(&self, state: Vec<u8>, hash: u64) {
        let Some(inner) = self.inner.as_ref() else { return };
        let mut g = inner.lock();
        let seq = g.starts.len() as u64;
        g.snapshots.push(SnapshotRecord { seq, state, hash });
    }

    /// Pin the final state at shutdown (the recovery harness compares
    /// recovered state against this). Does not compact.
    pub fn seal(&self, state: Vec<u8>, hash: u64) {
        let Some(inner) = self.inner.as_ref() else { return };
        let mut g = inner.lock();
        let seq = g.starts.len() as u64;
        g.final_state = Some(SnapshotRecord { seq, state, hash });
    }

    /// The sealed final state, if [`Journal::seal`] was called.
    pub fn final_state(&self) -> Option<SnapshotRecord> {
        self.inner.as_ref().and_then(|i| i.lock().final_state.clone())
    }

    /// Records appended over the journal's lifetime.
    pub fn len(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.lock().starts.len() as u64)
    }

    /// Has nothing been appended?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> JournalStats {
        if !self.is_enabled() {
            return JournalStats::default();
        }
        self.read(|view| JournalStats {
            records: view.len() as u64,
            wal_bytes: (WAL_HEADER_LEN + view.log.len() - view.start(view.snapshot_seq())) as u64,
            wal_bytes_total: (view.log.len() - WAL_HEADER_LEN) as u64,
            snapshots: view.snapshots.len() as u64,
        })
    }

    /// Run `f` over a borrowed view of the journal's contents — the
    /// non-cloning counterpart of [`Journal::history`],
    /// [`Journal::snapshots`] and [`Journal::final_state`]. The journal is
    /// locked for the duration, so `f` must not write to it.
    pub fn read<R>(&self, f: impl FnOnce(JournalView<'_>) -> R) -> R {
        let Some(inner) = &self.inner else {
            return f(JournalView { log: &[], starts: &[], snapshots: &[], final_state: None });
        };
        let g = inner.lock();
        let (log, starts, snapshots) = (g.log.bytes(), &g.starts[..], &g.snapshots[..]);
        f(JournalView { log, starts, snapshots, final_state: g.final_state.as_ref() })
    }

    /// Every record ever appended, in order, decoded out of the log.
    pub fn history(&self) -> Vec<(String, String)> {
        let owned = |(tag, payload): (&str, &str)| (tag.to_string(), payload.to_string());
        self.read(|view| (0..view.len()).map(|i| owned(view.record(i))).collect())
    }

    /// Every snapshot installed, oldest first.
    pub fn snapshots(&self) -> Vec<SnapshotRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.lock().snapshots.clone())
    }

    /// The durable image as of now: newest snapshot + WAL since it.
    pub fn image(&self) -> StoreImage {
        self.read(|view| StoreImage {
            snapshot: view.snapshots.last().cloned(),
            wal: view.wal(view.snapshot_seq()..view.len(), 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a;

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        assert_eq!(j.append("repo", "{}"), None);
        assert!(!j.snapshot_due());
        assert_eq!(j.stats(), JournalStats::default());
        assert!(j.history().is_empty());
        assert!(j.is_empty());
    }

    #[test]
    fn append_then_recover_round_trips() {
        let j = Journal::enabled(SnapshotPolicy::manual());
        assert_eq!(j.append("repo", r#"{"site":0}"#), Some(0));
        assert_eq!(j.append("log", r#"{"t":1.5}"#), Some(1));
        let image = j.image();
        let rec = recover(&image).unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.events, [("repo", r#"{"site":0}"#), ("log", r#"{"t":1.5}"#)]);
        assert_eq!(rec.torn_bytes, 0);
    }

    #[test]
    fn snapshot_compacts_the_wal() {
        let j = Journal::enabled(SnapshotPolicy::every(2));
        j.append("a", "1");
        assert!(!j.snapshot_due());
        j.append("a", "2");
        assert!(j.snapshot_due());
        let state = b"state-after-2".to_vec();
        j.install_snapshot(state.clone(), fnv1a(&state));
        assert!(!j.snapshot_due());
        j.append("a", "3");

        let image = j.image();
        let rec = recover(&image).unwrap();
        let snap = rec.snapshot.expect("snapshot present");
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.state, state);
        assert_eq!(rec.events, [("a", "3")]);

        // Full history survives compaction for the recovery harness.
        assert_eq!(j.history().len(), 3);
        let stats = j.stats();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.snapshots, 1);
        assert!(stats.wal_bytes < stats.wal_bytes_total);
    }

    #[test]
    fn append_frames_what_encode_record_builds() {
        let records = [("repo", r#"{"site":0}"#), ("log", ""), ("ckpt", "a b  c")];
        let j = Journal::enabled(SnapshotPolicy::manual());
        let mut w = WalWriter::new();
        for (tag, payload) in records {
            j.append(tag, payload);
            w.append(&encode_record(tag, payload));
        }
        assert_eq!(j.image().wal, w.into_bytes());
    }

    #[test]
    fn payloads_with_spaces_survive_framing() {
        let j = Journal::enabled(SnapshotPolicy::manual());
        j.append("log", r#"{"reason": "host a died, tasks moved"}"#);
        let image = j.image();
        let rec = recover(&image).unwrap();
        assert_eq!(rec.events[0].1, r#"{"reason": "host a died, tasks moved"}"#);
    }

    #[test]
    fn read_borrows_what_the_cloning_accessors_copy() {
        let j = Journal::enabled(SnapshotPolicy::manual());
        j.append("a", "1");
        j.install_snapshot(b"s".to_vec(), fnv1a(b"s"));
        j.append("a", "2");
        j.seal(b"final".to_vec(), fnv1a(b"final"));
        let (snapshots, sealed) = j.read(|view| {
            assert_eq!((view.record(0), view.record(1)), (("a", "1"), ("a", "2")));
            assert_eq!(view.len(), 2);
            (view.snapshots.to_vec(), view.final_state.cloned())
        });
        assert_eq!(snapshots, j.snapshots());
        assert_eq!(sealed, j.final_state());
        assert_eq!(snapshots.len(), 1);
        Journal::disabled().read(|view| {
            assert!(view.is_empty() && view.snapshots.is_empty());
            assert_eq!(view.wal(0..0, 0), WAL_MAGIC);
            assert!(view.final_state.is_none());
        });
    }

    #[test]
    fn seal_pins_final_state() {
        let j = Journal::enabled(SnapshotPolicy::manual());
        j.append("a", "1");
        j.seal(b"final".to_vec(), fnv1a(b"final"));
        let f = j.final_state().unwrap();
        assert_eq!(f.seq, 1);
        assert_eq!(f.state, b"final");
    }

    #[test]
    fn malformed_record_is_a_typed_error() {
        let mut w = WalWriter::new();
        w.append(b"no-space-separator-here");
        let img = StoreImage { snapshot: None, wal: w.into_bytes() };
        assert_eq!(recover(&img).unwrap_err(), JournalError::MalformedRecord { index: 0 });
    }

    #[test]
    fn clones_share_the_journal() {
        let j = Journal::enabled(SnapshotPolicy::manual());
        let j2 = j.clone();
        j2.append("a", "1");
        assert_eq!(j.len(), 1);
    }
}
