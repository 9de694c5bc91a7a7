//! Kill-and-restart verification of the durable control plane
//! (DESIGN.md §16).
//!
//! A durable replay (a [`ReplayRequest`](crate::ReplayRequest) with
//! `durable` set) leaves behind a sealed [`Journal`]: the full event
//! history, every installed snapshot, and the final [`ControlState`]
//! pinned at shutdown. This
//! harness simulates a Site Manager process death at an arbitrary point
//! of that run — including mid-write, with a torn final WAL record —
//! and proves the crash lost nothing:
//!
//! 1. **Build the damaged image**: the newest snapshot at or before the
//!    cut, and the WAL a restarted process would find — every complete
//!    record after it, for mid-write kills a torn byte-prefix of the next
//!    one — as one byte range of the journal's log ([`JournalView::wal`]).
//! 2. **Recover**: [`vdce_store::recover`] must truncate exactly the
//!    torn tail and hand back exactly the records before the cut.
//! 3. **Replay**: applying those records to the snapshot must equal the
//!    state a pure replay of the *full* history reaches at the cut —
//!    i.e. snapshots are consistent with event replay.
//! 4. **Resume**: applying the remaining history must land on the
//!    sealed final state **bit-identically** (bytes, length and hash). The
//!    resumed state is serialised into a sink that compares each chunk
//!    with the seal and hashes it, so nothing is kept.
//!
//! Any deviation is a typed failure string naming the kill point; the
//! `recovery` experiment runs this at several seed-derived kill points
//! per named fault scenario.

use std::io;
use std::vec::Drain;
use vdce_runtime::{ControlEvent, ControlEventError, ControlState};
use vdce_store::{recover, Fnv1a, Journal, JournalView, StoreImage};

/// What one simulated kill-and-restart observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillReport {
    /// Journal records fully on disk when the process died.
    pub(crate) cut_record: u64,
    /// Bytes of the torn (partially written) record at the tail.
    pub torn_bytes: u64,
    /// Sequence number of the snapshot recovery started from.
    pub(crate) snapshot_seq: u64,
    /// Events replayed on top of the snapshot during recovery.
    pub replayed: u64,
    /// Bytes of the damaged WAL image read back.
    pub wal_bytes: u64,
}

/// Aggregate of one journal's kill-point sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Records in the journal's full history.
    pub records: u64,
    /// Snapshots the run installed.
    pub snapshots: u64,
    /// One report per simulated kill.
    pub kills: Vec<KillReport>,
}

/// Deterministic pseudo-random stream for kill-point selection
/// (xorshift64*; the seed is part of the experiment definition).
fn next_rand(x: &mut u64) -> u64 {
    let mut v = x.wrapping_add(0x9e3779b97f4a7c15);
    *x = v;
    v = (v ^ (v >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    v = (v ^ (v >> 27)).wrapping_mul(0x94d049bb133111eb);
    v ^ (v >> 31)
}

/// Simulate a process death after `cut` complete journal records (plus,
/// when `torn_seed != 0` and a record follows, a torn byte-prefix of
/// that next record) and verify recovery end to end. See the module
/// docs for the four checks; returns what the kill observed, or a
/// failure description.
pub fn verify_kill(journal: &Journal, cut: u64, torn_seed: u64) -> Result<KillReport, String> {
    journal.read(|view| verify_kill_in(view, cut, torn_seed))
}

fn verify_kill_in(view: JournalView<'_>, cut: u64, torn_seed: u64) -> Result<KillReport, String> {
    let total = view.len() as u64;
    if cut > total {
        return Err(format!("cut {cut} beyond journal length {total}"));
    }
    let sealed = view
        .final_state
        .ok_or_else(|| "journal is not sealed (run a durable replay first)".to_string())?;

    // 1. Damaged image: snapshot <= cut, complete records after it, and
    // optionally a strict byte-prefix of the record being written.
    let snapshot = view.snapshots.iter().rfind(|s| s.seq <= cut);
    let snap_seq = snapshot.map_or(0, |s| s.seq);
    let (snap_at, cut_at) = (snap_seq as usize, cut as usize);
    let expected_torn = if torn_seed != 0 && cut < total {
        // A strict prefix: at least 1 byte written, at least 1 missing.
        1 + (torn_seed as usize % (view.frame(cut_at).len() - 1))
    } else {
        0
    };
    let wal = view.wal(snap_at..cut_at, expected_torn);
    let wal_bytes = wal.len() as u64;
    let image = StoreImage { snapshot: snapshot.cloned(), wal };

    // 2. Recover: exact torn-tail accounting, exact record list.
    let recovered = recover(&image).map_err(|e| format!("kill at {cut}: {e}"))?;
    if recovered.torn_bytes != expected_torn {
        return Err(format!(
            "kill at {cut}: recovery dropped {} torn bytes, expected {expected_torn}",
            recovered.torn_bytes
        ));
    }
    if recovered.events.len() as u64 != cut - snap_seq {
        return Err(format!(
            "kill at {cut}: recovered {} events after snapshot seq {snap_seq}, expected {}",
            recovered.events.len(),
            cut - snap_seq
        ));
    }
    let journaled = (snap_at..cut_at).map(|i| view.record(i));
    if !recovered.events.iter().copied().eq(journaled) {
        return Err(format!(
            "kill at {cut}: records recovered after snapshot seq {snap_seq} are not the \
             records journaled"
        ));
    }

    // The recovered records being the journaled ones byte for byte, one
    // decode of the history serves every leg below. A record that does
    // not decode fails the first leg that reaches it.
    let initial = view.snapshots.first().filter(|s| s.seq == 0);
    // With the seq-0 snapshot as the recovery point the pure replay *is*
    // the recovered one, so there is nothing to cross-check.
    let cross_check = initial.filter(|_| snap_seq > 0);
    let decoded_from = if cross_check.is_some() { 0 } else { snap_at };
    let mut events: Vec<_> = (decoded_from..view.len())
        .map(|i| view.record(i))
        .map(|(tag, payload)| ControlEvent::decode(tag, payload))
        .collect();
    let undecodable = |i: usize, leg: &str, e: &ControlEventError| {
        format!("kill at {cut}: {leg} `{}` record: {e}", view.record(i).0)
    };
    // Move `events`, the decoded records from `first` on, into `state`.
    let apply_owned = |state: &mut ControlState, events: Drain<'_, _>, first: usize, leg: &str| {
        for (i, event) in events.enumerate() {
            match event {
                Ok(event) => state.apply_owned(event),
                Err(e) => return Err(undecodable(first + i, leg, &e)),
            }
        }
        Ok(())
    };

    // 3. Replay onto the snapshot; cross-check against a pure replay of
    // the full history from the initial (seq-0) snapshot when one
    // exists — proving compaction never changed the state machine. Only
    // then is `snap..cut` applied twice, so only then is it borrowed:
    // every other record is moved into the one state that applies it.
    let mut state = match recovered.snapshot {
        Some(s) => ControlState::from_bytes(&s.state)
            .map_err(|e| format!("kill at {cut}: snapshot does not parse: {e}"))?,
        None => ControlState::default(),
    };
    if let Some(initial) = cross_check {
        for (i, event) in events[snap_at..cut_at].iter().enumerate() {
            match event {
                Ok(event) => state.apply(event),
                Err(e) => return Err(undecodable(snap_at + i, "replaying", e)),
            }
        }
        let mut pure = ControlState::from_bytes(&initial.state)
            .map_err(|e| format!("initial snapshot does not parse: {e}"))?;
        apply_owned(&mut pure, events.drain(..cut_at), 0, "pure replay of")?;
        if pure != state {
            return Err(format!(
                "kill at {cut}: recovered state (snapshot seq {snap_seq} + {} events) \
                 diverges from pure replay of the full history",
                recovered.events.len()
            ));
        }
    } else {
        apply_owned(&mut state, events.drain(..cut_at - snap_at), snap_at, "replaying")?;
    }

    // 4. Resume past the kill: the journaled suffix must carry the
    // restarted process to the sealed final state, bit for bit.
    apply_owned(&mut state, events.drain(..), cut_at, "resuming")?;
    let mut check = SealCheck { sealed: &sealed.state, at: 0, matched: true, hash: Fnv1a::new() };
    serde_json::to_writer(&mut check, &state).expect("comparing cannot fail to write");
    if !check.matched || check.at != sealed.state.len() || check.hash.finish() != sealed.hash {
        return Err(format!(
            "kill at {cut}: resumed state is not bit-identical to the sealed final state"
        ));
    }

    Ok(KillReport {
        cut_record: cut,
        torn_bytes: expected_torn as u64,
        snapshot_seq: snap_seq,
        replayed: cut - snap_seq,
        wal_bytes,
    })
}

/// The byte sink the resumed state is serialised into: each chunk is
/// compared with the sealed bytes at its offset and folded into a hash,
/// then dropped.
struct SealCheck<'a> {
    sealed: &'a [u8],
    /// Bytes written so far.
    at: usize,
    /// Every chunk so far equalled the sealed bytes at its offset.
    matched: bool,
    hash: Fnv1a,
}

impl io::Write for SealCheck<'_> {
    fn write(&mut self, chunk: &[u8]) -> io::Result<usize> {
        let end = self.at + chunk.len();
        self.matched = self.matched && self.sealed.get(self.at..end) == Some(chunk);
        self.at = end;
        self.hash.update(chunk);
        Ok(chunk.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Sweep `kills` kill points over a sealed journal: always the two
/// edges (death before any record was written, death at a clean
/// shutdown), the rest seed-derived — mid-write (torn) and between
/// records alternately. Fails on the first kill that loses state.
pub fn verify_recovery(
    journal: &Journal,
    kills: usize,
    seed: u64,
) -> Result<RecoverySummary, String> {
    let total = journal.len();
    let stats = journal.stats();
    let mut rng = seed;
    let mut reports = Vec::with_capacity(kills.max(2));
    reports.push(verify_kill(journal, 0, 0)?);
    reports.push(verify_kill(journal, total, 0)?);
    for i in 0..kills.saturating_sub(2) {
        let cut = next_rand(&mut rng) % (total + 1);
        let torn = if i % 2 == 0 { next_rand(&mut rng) | 1 } else { 0 };
        reports.push(verify_kill(journal, cut, torn)?);
    }
    Ok(RecoverySummary { records: total, snapshots: stats.snapshots, kills: reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_gen::{layered_random, DagSpec};
    use crate::faults::{Fault, FaultPlan};
    use crate::pool_gen::{build_federation, FederationSpec, WanShape};
    use crate::replay::{ReplayConfig, ReplayRequest};
    use vdce_net::topology::SiteId;
    use vdce_runtime::{CheckpointPolicy, DurableOptions};
    use vdce_store::SnapshotPolicy;

    fn sealed_journal(snapshot_every: u64) -> DurableOptions {
        let f = build_federation(&FederationSpec {
            sites: 2,
            hosts_per_site: 3,
            heterogeneity: 2.0,
            group_size: 4,
            shape: WanShape::Star,
            seed: 21,
            ..FederationSpec::default()
        });
        let afg = layered_random(&DagSpec { tasks: 12, width: 3, ..DagSpec::default() }, 5);
        let cfg = ReplayConfig {
            checkpoint: CheckpointPolicy::every(0.1, 0.005),
            ..ReplayConfig::scaled_to(60.0)
        };
        let victim = f.hosts(SiteId(0))[0].clone();
        let plan = FaultPlan { seed: 5, faults: vec![Fault::HostCrash { host: victim, at: 15.0 }] };
        let opts = DurableOptions::new(SnapshotPolicy::every(snapshot_every), 4);
        let (federation, afg, plan, config) = (&f, &afg, &plan, &cfg);
        ReplayRequest { federation, afg, plan, config, obs: None, durable: Some(&opts) }.run();
        opts
    }

    #[test]
    fn kill_and_restart_recovers_bit_identically() {
        let opts = sealed_journal(64);
        let summary = verify_recovery(&opts.journal, 8, 0xDEAD).expect("no state lost");
        assert!(summary.records > 0);
        assert!(summary.snapshots >= 1, "initial snapshot installed");
        assert_eq!(summary.kills.len(), 8);
        assert!(
            summary.kills.iter().any(|k| k.torn_bytes > 0),
            "sweep must include a mid-write (torn) kill"
        );
        assert!(
            summary.kills.iter().any(|k| k.snapshot_seq > 0),
            "sweep must exercise recovery from a compacting snapshot"
        );
    }

    #[test]
    fn every_record_boundary_recovers_clean_and_torn() {
        let opts = sealed_journal(64);
        let total = opts.journal.len();
        for cut in 0..=total {
            let clean = verify_kill(&opts.journal, cut, 0).expect("clean kill");
            assert_eq!((clean.cut_record, clean.torn_bytes), (cut, 0));
            if cut < total {
                let torn = verify_kill(&opts.journal, cut, 2 * cut + 1).expect("torn kill");
                assert!(torn.torn_bytes > 0 && torn.wal_bytes > clean.wal_bytes, "cut {cut}");
            }
        }
    }

    #[test]
    fn manual_snapshot_policy_replays_the_whole_history() {
        // every_records = 0: only the initial seq-0 snapshot exists, so
        // every kill recovers by full replay — the worst-case log length.
        let opts = sealed_journal(0);
        let total = opts.journal.len();
        let report = verify_kill(&opts.journal, total, 0).expect("clean-shutdown kill");
        assert_eq!(report.snapshot_seq, 0);
        assert_eq!(report.replayed, total);
    }

    #[test]
    fn moving_events_in_reaches_the_state_borrowing_them_does() {
        let opts = sealed_journal(64);
        let (mut borrowed, sealed) = opts.journal.read(|view| {
            let first = ControlState::from_bytes(&view.snapshots[0].state).unwrap();
            (first, view.final_state.unwrap().clone())
        });
        let mut owned = borrowed.clone();
        for (tag, payload) in opts.journal.history() {
            let event = ControlEvent::decode(&tag, &payload).unwrap();
            borrowed.apply(&event);
            owned.apply_owned(event);
            assert_eq!(owned, borrowed, "after a `{tag}` record");
        }
        assert_eq!((owned.to_bytes(), owned.hash()), (sealed.state, sealed.hash));
    }

    /// An edit of a seal's bytes and hash.
    type SealEdit = fn(&mut Vec<u8>, &mut u64);

    /// A copy of `src`, record by record and snapshot by snapshot, with
    /// record `bad`'s payload (if any) replaced by text no tag decodes and
    /// the seal's bytes and hash passed through `seal`.
    fn copied(src: &Journal, bad: Option<usize>, seal: SealEdit) -> Journal {
        let copy = Journal::enabled(SnapshotPolicy::manual());
        src.read(|view| {
            let mut snapshots = view.snapshots.iter().peekable();
            for i in 0..view.len() {
                let (tag, payload) = view.record(i);
                while let Some(s) = snapshots.next_if(|s| s.seq == i as u64) {
                    copy.install_snapshot(s.state.clone(), s.hash);
                }
                copy.append(tag, if Some(i) == bad { "not json" } else { payload });
            }
            let sealed = view.final_state.expect("sealed");
            let (mut state, mut hash) = (sealed.state.clone(), sealed.hash);
            seal(&mut state, &mut hash);
            copy.seal(state, hash);
        });
        copy
    }

    /// `src` with record `bad`'s payload replaced by text no tag decodes.
    fn with_undecodable_record(src: &Journal, bad: usize) -> Journal {
        copied(src, Some(bad), |_, _| {})
    }

    #[test]
    fn a_seal_one_byte_or_one_hash_off_fails_the_resume() {
        let opts = sealed_journal(64);
        let total = opts.journal.len();
        // A cut before the first compacting snapshot, a torn one after it,
        // and a clean shutdown.
        let kills = [(0, 0), (total / 2, 7), (total, 0)];
        let exact = copied(&opts.journal, None, |_, _| {});
        for (cut, torn) in kills {
            verify_kill(&exact, cut, torn).expect("an exact copy recovers");
        }
        // Each seal but the last keeps the hash of the true bytes, so only
        // its bytes or its length can give it away.
        let seals: [(&str, SealEdit); 4] = [
            ("one extra trailing byte", |state, _| state.push(b' ')),
            ("one byte short", |state, _| state.truncate(state.len() - 1)),
            ("a different last byte", |state, _| *state.last_mut().expect("sealed bytes") ^= 1),
            ("a hash off by one", |_, hash| *hash = hash.wrapping_add(1)),
        ];
        for (what, seal) in seals {
            let journal = copied(&opts.journal, None, seal);
            for (cut, torn) in kills {
                assert_eq!(
                    verify_kill(&journal, cut, torn).expect_err(what),
                    format!(
                        "kill at {cut}: resumed state is not bit-identical to the sealed final \
                         state"
                    ),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn an_undecodable_record_fails_the_first_leg_that_reaches_it() {
        let opts = sealed_journal(64);
        let total = opts.journal.len() as usize;
        // A cut half-way between the first compacting snapshot and the next.
        let seqs: Vec<usize> = opts.journal.snapshots().iter().map(|s| s.seq as usize).collect();
        let (snap, next) = (seqs[1], seqs[2]);
        let cut = (snap + next) / 2;
        assert!(0 < snap && snap + 1 < cut && cut < next && next < total, "{seqs:?} of {total}");
        let message = |cut: usize, leg: &str, bad: usize| {
            let tag = &opts.journal.history()[bad].0;
            let e = ControlEvent::decode(tag, "not json").unwrap_err();
            format!("kill at {cut}: {leg} `{tag}` record: {e}")
        };
        // Recovery from a compacting snapshot: the pure replay alone reads
        // the records before it.
        for (bad, leg) in [
            (snap / 2, "pure replay of"),
            ((snap + cut) / 2, "replaying"),
            (cut - 1, "replaying"),
            (cut, "resuming"),
            (total - 1, "resuming"),
        ] {
            let err = verify_kill(&with_undecodable_record(&opts.journal, bad), cut as u64, 0);
            assert_eq!(err.unwrap_err(), message(cut, leg, bad), "record {bad}");
        }
        // Recovery from the seq-0 snapshot: no cross-check, two legs.
        let early = snap / 2;
        for (bad, leg) in [(0, "replaying"), (early - 1, "replaying"), (early, "resuming")] {
            let err = verify_kill(&with_undecodable_record(&opts.journal, bad), early as u64, 7);
            assert_eq!(err.unwrap_err(), message(early, leg, bad), "record {bad}");
        }
    }

    #[test]
    fn recovery_failures_are_descriptive_not_panics() {
        let opts = sealed_journal(64);
        let err = verify_kill(&opts.journal, opts.journal.len() + 1, 0).unwrap_err();
        assert!(err.contains("beyond journal length"));
        // An unsealed journal is refused up front.
        let unsealed = vdce_store::Journal::enabled(SnapshotPolicy::manual());
        unsealed.append("log", "{\"t\":0.0,\"event\":\"StartupSignal\"}");
        assert!(verify_kill(&unsealed, 0, 0).unwrap_err().contains("not sealed"));
    }
}
