//! The durable control plane's bytes, pinned and attacked.
//!
//! *Golden bytes*: every journal payload, snapshot and seal is JSON text, and
//! the state hash is a hash of that text — so a serialiser that moved one
//! byte would still pass every replay-against-replay check. The constants
//! below were recorded at commit `b9fda64` (the last one whose serialiser
//! went through the `Value` tree); they hold the format to that commit, not
//! to itself.
//!
//! *Malformed input*: whatever a torn or corrupted store hands the decoders
//! — any strict prefix, any flipped byte, absurd nesting — they return a
//! typed error and never panic.

use vdce_obs::Observer;
use vdce_runtime::{ControlEvent, ControlEventError, ControlState, DurableOptions};
use vdce_sim::replay::replay_durable;
use vdce_sim::scenario::{
    crash_mid_run_checkpointed, manager_failover, site_crash_ckpt_replica, FaultScenario,
};
use vdce_store::{fnv1a, Fnv1a, SnapshotPolicy};

/// The scenario's durable replay as `exp_recovery` configures it.
fn sealed(fs: &FaultScenario) -> DurableOptions {
    let opts = DurableOptions::new(SnapshotPolicy::every(256), 8);
    replay_durable(
        &fs.scenario.federation,
        &fs.scenario.afg,
        &fs.plan,
        &fs.config,
        &Observer::disabled(),
        &opts,
    );
    opts
}

struct Golden {
    records: u64,
    wal_bytes_total: u64,
    snapshots: u64,
    sealed_len: usize,
    sealed_hash: u64,
    /// FNV-1a of every history payload, concatenated in order.
    payloads_fnv: u64,
}

fn assert_golden(fs: &FaultScenario, want: &Golden) {
    let opts = sealed(fs);
    let journal = &opts.journal;
    let stats = journal.stats();
    let seal = journal.final_state().expect("durable replays seal");
    let mut payloads = Fnv1a::new();
    for (_, payload) in journal.history() {
        payloads.update(payload.as_bytes());
    }
    let name = fs.name;
    assert_eq!(journal.len(), want.records, "{name}: journal records");
    assert_eq!(stats.wal_bytes_total, want.wal_bytes_total, "{name}: WAL bytes");
    assert_eq!(stats.snapshots, want.snapshots, "{name}: snapshots");
    assert_eq!(seal.state.len(), want.sealed_len, "{name}: sealed state length");
    assert_eq!(seal.hash, want.sealed_hash, "{name}: sealed state hash");
    assert_eq!(fnv1a(&seal.state), want.sealed_hash, "{name}: seal hash is of the seal bytes");
    assert_eq!(payloads.finish(), want.payloads_fnv, "{name}: history payloads");
    // The streamed fingerprint and the buffered one are the same function.
    let state = ControlState::from_bytes(&seal.state).expect("the seal parses");
    assert_eq!(state.hash(), want.sealed_hash, "{name}: streamed hash of the reparsed seal");
    assert_eq!(state.to_bytes(), seal.state, "{name}: reserialised seal");
}

#[test]
fn journal_snapshot_and_seal_bytes_are_the_parents() {
    // All four tags (`repo`, `ckpt`, `site`, `log`) and seven snapshots.
    assert_golden(
        &site_crash_ckpt_replica(),
        &Golden {
            records: 1677,
            wal_bytes_total: 172_087,
            snapshots: 7,
            sealed_len: 154_043,
            sealed_hash: 0x0553_b784_6752_6b78,
            payloads_fnv: 0xbc6a_0c4e_92d3_5953,
        },
    );
    assert_golden(
        &manager_failover(),
        &Golden {
            records: 427,
            wal_bytes_total: 43_004,
            snapshots: 2,
            sealed_len: 61_589,
            sealed_hash: 0xc0be_3380_c94d_4f63,
            payloads_fnv: 0x42ee_7b6a_96dc_8ff0,
        },
    );
}

/// Deterministic stream for flip positions (SplitMix64).
fn next_rand(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut v = *x;
    v = (v ^ (v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    v = (v ^ (v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    v ^ (v >> 31)
}

/// `bytes` with one byte changed, `n` times over.
fn flips(bytes: &[u8], n: usize, seed: u64) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut rng = seed;
    (0..n).map(move |_| {
        let mut damaged = bytes.to_vec();
        let at = next_rand(&mut rng) as usize % bytes.len();
        damaged[at] ^= 1 << (next_rand(&mut rng) % 8);
        damaged
    })
}

#[test]
fn damaged_snapshots_and_payloads_are_typed_errors() {
    let opts = sealed(&site_crash_ckpt_replica());
    // Every prefix of a snapshot is quadratic work, so take a small one:
    // the seq-0 state of the smoke campus. A strict prefix of a JSON
    // object is never a JSON document.
    let small = sealed(&crash_mid_run_checkpointed()).journal.snapshots().remove(0).state;
    assert!(ControlState::from_bytes(&small).is_ok());
    for cut in 0..small.len() {
        assert!(ControlState::from_bytes(&small[..cut]).is_err(), "prefix of {cut} bytes");
    }
    // Flips go to the newest snapshot, where checkpoints and the event log
    // are populated too. A flipped byte may still parse (a digit for a
    // digit); it must not panic.
    let snapshot = opts.journal.snapshots().pop().expect("a snapshot was installed").state;
    assert!(ControlState::from_bytes(&snapshot).is_ok());
    let refused =
        flips(&snapshot, 400, 0xf11b).filter(|d| ControlState::from_bytes(d).is_err()).count();
    assert!(refused > 100, "only {refused} of 400 flips were refused");

    // One payload per tag: the longest, so every field shape is in it.
    let history = opts.journal.history();
    for tag in ["repo", "ckpt", "site", "log"] {
        let payload = history
            .iter()
            .filter(|(t, _)| t == tag)
            .map(|(_, p)| p.as_str())
            .max_by_key(|p| p.len())
            .unwrap_or_else(|| panic!("no `{tag}` record in the history"));
        assert!(ControlEvent::decode(tag, payload).is_ok());
        for cut in 0..payload.len() {
            if !payload.is_char_boundary(cut) {
                continue;
            }
            match ControlEvent::decode(tag, &payload[..cut]) {
                Err(ControlEventError::BadPayload { tag: t, .. }) => assert_eq!(t, tag),
                other => panic!("`{tag}` prefix of {cut} bytes decoded to {other:?}"),
            }
        }
        for damaged in flips(payload.as_bytes(), 300, 0x7a9 + tag.len() as u64) {
            // Not UTF-8 any more: such a record never reaches `decode`
            // (`vdce_store::decode_record` refuses it first).
            let Ok(text) = std::str::from_utf8(&damaged) else { continue };
            match ControlEvent::decode(tag, text) {
                Ok(_) | Err(ControlEventError::BadPayload { .. }) => {}
                Err(other) => panic!("`{tag}` flip gave {other:?}"),
            }
        }
        assert_eq!(
            ControlEvent::decode("nope", payload),
            Err(ControlEventError::UnknownTag { tag: "nope".into() })
        );
    }
}

#[test]
fn absurd_nesting_is_refused_not_a_stack_overflow() {
    let deep = "[".repeat(10_000);
    assert!(ControlState::from_bytes(deep.as_bytes()).is_err());
    assert!(ControlState::from_bytes(format!("{{\"repos\":{deep}").as_bytes()).is_err());
    assert!(ControlState::from_bytes(format!("{{\"unknown\":{deep}").as_bytes()).is_err());
    for tag in ["repo", "ckpt", "site", "log"] {
        assert!(matches!(
            ControlEvent::decode(tag, &deep),
            Err(ControlEventError::BadPayload { .. })
        ));
    }
}
