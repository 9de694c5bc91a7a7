//! Property tests for the WAL crash model.
//!
//! The crash model is suffix truncation: a crash mid-append loses an
//! arbitrary byte suffix but never scrambles earlier bytes. These
//! properties drive that model with arbitrary event sequences and
//! arbitrary kill offsets, and separately check that a checksum flip —
//! which the crash model can never produce — is rejected with a typed
//! error instead of a panic.
//!
//! The journal is held to a model of the design it replaced, which kept
//! each record twice: a `(tag, payload)` history beside a WAL image it
//! reset at every snapshot. Every count, image, recovery and kill WAL the
//! one-log journal derives must equal what the model stored.

use proptest::prelude::*;
use vdce_store::{
    crc32, encode_record, fnv1a, read_wal, recover, Journal, JournalStats, SnapshotPolicy,
    SnapshotRecord, StoreImage, WalError, WalWriter, WAL_HEADER_LEN,
};

// Arbitrary record payloads: any bytes, including empty and spaces.
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..20)
}

fn image(records: &[Vec<u8>]) -> Vec<u8> {
    let mut w = WalWriter::new();
    for r in records {
        w.append(r);
    }
    w.into_bytes()
}

proptest! {
    // Append → crash at ANY byte offset → recover: every record whose
    // bytes fully survived is recovered intact and in order; the torn
    // final record is truncated, never surfaced corrupted.
    #[test]
    fn crash_at_any_offset_recovers_the_intact_prefix(
        records in payloads(),
        cut_frac in 0.0f64..=1.0,
    ) {
        let img = image(&records);
        let cut = ((img.len() as f64) * cut_frac).round() as usize;
        let cut = cut.min(img.len());
        let torn = &img[..cut];

        let rec = read_wal(torn).expect("truncation is never an error");

        // The recovered records are exactly the longest record-prefix
        // whose framed bytes fit within the cut.
        let mut offset = WAL_HEADER_LEN;
        let mut expect: Vec<Vec<u8>> = Vec::new();
        for r in &records {
            let end = offset + 8 + r.len();
            if end > cut {
                break;
            }
            expect.push(r.clone());
            offset = end;
        }
        prop_assert_eq!(&rec.records, &expect);

        // Torn accounting is exact: valid prefix + dropped tail = cut.
        prop_assert_eq!(rec.valid_len + rec.torn_bytes, cut);
        if cut >= WAL_HEADER_LEN {
            prop_assert_eq!(rec.valid_len, offset);
        } else {
            prop_assert_eq!(rec.valid_len, 0);
        }
    }

    // A clean (uncut) image always recovers every record with no torn
    // bytes — the round-trip identity.
    #[test]
    fn clean_image_round_trips(records in payloads()) {
        let img = image(&records);
        let rec = read_wal(&img).unwrap();
        prop_assert_eq!(&rec.records, &records);
        prop_assert_eq!(rec.torn_bytes, 0);
        prop_assert_eq!(rec.valid_len, img.len());
    }

    // Flipping any payload byte of any fully-present record is caught
    // by the checksum and reported as a typed error — never a panic,
    // never silently-wrong data.
    #[test]
    fn corrupted_checksum_is_rejected_with_a_typed_error(
        records in payloads().prop_filter("need a non-empty record", |rs| {
            rs.iter().any(|r| !r.is_empty())
        }),
        victim_seed in any::<u32>(),
        byte_seed in any::<u32>(),
        flip in 1u8..=255,
    ) {
        // Pick a victim record with a non-empty payload.
        let non_empty: Vec<usize> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, _)| i)
            .collect();
        let victim = non_empty[victim_seed as usize % non_empty.len()];

        let mut img = image(&records);
        // Locate the victim's payload within the image.
        let mut offset = WAL_HEADER_LEN;
        for r in records.iter().take(victim) {
            offset += 8 + r.len();
        }
        let payload_at = offset + 8;
        let byte = payload_at + byte_seed as usize % records[victim].len();
        img[byte] ^= flip;

        match read_wal(&img) {
            Err(WalError::CorruptRecord { index, offset: off, stored, computed }) => {
                prop_assert_eq!(index, victim);
                prop_assert_eq!(off, offset);
                prop_assert_ne!(stored, computed);
            }
            other => prop_assert!(false, "expected CorruptRecord, got {:?}", other),
        }
    }

    // crc32 detects any single-byte change (a checksum sanity floor).
    #[test]
    fn crc32_differs_under_single_byte_flip(
        mut bytes in proptest::collection::vec(any::<u8>(), 1..64),
        at_seed in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let before = crc32(&bytes);
        let at = at_seed as usize % bytes.len();
        bytes[at] ^= flip;
        prop_assert_ne!(crc32(&bytes), before);
    }
}

/// One step of a journal's life.
#[derive(Debug, Clone)]
enum Step {
    Append(String, String),
    Snapshot,
}

// Tags without spaces; payloads with spaces, non-ASCII text, or empty.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step =
        (0u8..5, "[a-z_]{1,6}", "[a-z0-9 é漢{}\":,]{0,24}").prop_map(|(kind, tag, payload)| {
            if kind == 0 {
                Step::Snapshot
            } else {
                Step::Append(tag, payload)
            }
        });
    proptest::collection::vec(step, 0..32)
}

/// The journal that kept each record twice, as a model.
#[derive(Default)]
struct TwoCopyJournal {
    history: Vec<(String, String)>,
    wal: WalWriter,
    snapshots: Vec<SnapshotRecord>,
    since_snapshot: u64,
    wal_bytes_total: u64,
}

impl TwoCopyJournal {
    fn append(&mut self, tag: &str, payload: &str) {
        let before = self.wal.byte_len();
        self.wal.append(&encode_record(tag, payload));
        self.wal_bytes_total += (self.wal.byte_len() - before) as u64;
        self.history.push((tag.to_string(), payload.to_string()));
        self.since_snapshot += 1;
    }

    fn install_snapshot(&mut self, state: Vec<u8>, hash: u64) {
        let seq = self.history.len() as u64;
        self.snapshots.push(SnapshotRecord { seq, state, hash });
        self.wal = WalWriter::new();
        self.since_snapshot = 0;
    }

    fn image(&self) -> StoreImage {
        StoreImage { snapshot: self.snapshots.last().cloned(), wal: self.wal.clone().into_bytes() }
    }

    fn stats(&self) -> JournalStats {
        JournalStats {
            records: self.history.len() as u64,
            wal_bytes: self.wal.byte_len() as u64,
            wal_bytes_total: self.wal_bytes_total,
            snapshots: self.snapshots.len() as u64,
        }
    }

    /// The WAL of records `from..cut`, re-framed, plus the first `torn`
    /// bytes of record `cut`'s frame.
    fn kill_wal(&self, from: usize, cut: usize, torn: usize) -> Vec<u8> {
        let mut w = WalWriter::new();
        for (tag, payload) in &self.history[from..cut] {
            w.append(&encode_record(tag, payload));
        }
        let clean = w.byte_len();
        if let Some((tag, payload)) = self.history.get(cut) {
            w.append(&encode_record(tag, payload));
        }
        let mut bytes = w.into_bytes();
        bytes.truncate(clean + torn);
        bytes
    }
}

fn assert_journal_is_the_model(j: &Journal, m: &TwoCopyJournal, every: u64) {
    assert_eq!(j.len(), m.history.len() as u64);
    assert_eq!(j.history(), m.history);
    assert_eq!(j.image(), m.image());
    assert_eq!(j.stats(), m.stats());
    assert_eq!(j.snapshot_due(), every > 0 && m.since_snapshot >= every);
    let from = m.history.len() - m.since_snapshot as usize;
    let image = j.image();
    let since: Vec<_> = m.history[from..].iter().map(|(t, p)| (t.as_str(), p.as_str())).collect();
    assert_eq!(recover(&image).unwrap().events, since);
}

proptest! {
    // The one-log journal derives, after every step, exactly what the
    // two-copy journal stored; after the seal its view borrows every
    // record and cuts every kill WAL — every cut, every torn length, from
    // record 0 and from the newest snapshot — byte for byte.
    #[test]
    fn one_log_journal_equals_the_two_copy_model(steps in steps(), every in 0u64..4) {
        let j = Journal::enabled(SnapshotPolicy::every(every));
        let mut m = TwoCopyJournal::default();
        assert_journal_is_the_model(&j, &m, every);
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Append(tag, payload) => {
                    prop_assert_eq!(j.append(tag, payload), Some(m.history.len() as u64));
                    m.append(tag, payload);
                }
                Step::Snapshot => {
                    let state = format!("state {i}").into_bytes();
                    j.install_snapshot(state.clone(), fnv1a(&state));
                    m.install_snapshot(state.clone(), fnv1a(&state));
                }
            }
            assert_journal_is_the_model(&j, &m, every);
        }
        j.seal(b"final".to_vec(), fnv1a(b"final"));
        assert_journal_is_the_model(&j, &m, every);

        let sealed =
            SnapshotRecord { seq: m.history.len() as u64, state: b"final".to_vec(), hash: fnv1a(b"final") };
        j.read(|view| {
            assert_eq!(view.final_state, Some(&sealed));
            assert_eq!(view.snapshots, &m.snapshots[..]);
            assert_eq!(view.len(), m.history.len());
            for (i, (tag, payload)) in m.history.iter().enumerate() {
                assert_eq!(view.record(i), (tag.as_str(), payload.as_str()));
            }
            for cut in 0..=view.len() {
                let newest = m.snapshots.iter().rfind(|s| s.seq as usize <= cut);
                let frame_len = if cut < view.len() { view.frame(cut).len() } else { 1 };
                for from in [0, newest.map_or(0, |s| s.seq as usize)] {
                    for torn in 0..frame_len {
                        assert_eq!(
                            view.wal(from..cut, torn),
                            m.kill_wal(from, cut, torn),
                            "records {from}..{cut}, {torn} torn bytes"
                        );
                    }
                }
            }
        });
    }
}
