//! The durable control plane's bytes, pinned and attacked.
//!
//! *Golden bytes*: every journal payload, snapshot and seal is JSON text, and
//! the state hash is a hash of that text — so a serialiser that moved one
//! byte, or a replay step that moved one control-plane mutation ahead of
//! another, would still pass every replay-against-replay check. The table
//! below was recorded at commit `cdffc53`, the parent of the commit that made
//! the replay engine a state machine with one method per tick step; it holds
//! the format, the order of every journaled mutation and the outcome of all
//! 17 fault scenarios to that commit, not to themselves. (The
//! `site-crash-ckpt-replica` and `manager-failover` journal rows go back
//! further, to `b9fda64`, the last commit whose serialiser went through the
//! `Value` tree.) The `image_fnv` and `kills_fnv` columns were recorded at
//! `a68110a`, the last commit whose journal kept each record twice: a
//! `(tag, payload)` history beside a WAL image it reset at every snapshot.
//!
//! *Malformed input*: whatever a torn or corrupted store hands the decoders
//! — any strict prefix, any flipped byte, a span written twice, absurd
//! nesting — they return a typed error and never panic.

use vdce_runtime::{ControlEvent, ControlEventError, ControlState, DurableOptions};
use vdce_sim::recovery::verify_recovery;
use vdce_sim::replay::{run_fault_scenario, ReplayOutcome, ReplayRequest};
use vdce_sim::scenario::{
    all_fault_scenarios, crash_mid_run_checkpointed, site_crash_ckpt_replica, FaultScenario,
};
use vdce_store::{fnv1a, Fnv1a, SnapshotPolicy};

/// The scenario's durable replay as `exp_recovery` configures it.
fn sealed(fs: &FaultScenario) -> (DurableOptions, ReplayOutcome) {
    let opts = DurableOptions::new(SnapshotPolicy::every(256), 8);
    let outcome = replayed(fs, Some(&opts));
    (opts, outcome)
}

/// The scenario's replay, unobserved, durable when `durable` is set.
fn replayed(fs: &FaultScenario, durable: Option<&DurableOptions>) -> ReplayOutcome {
    ReplayRequest { durable, ..fs.request() }.run()
}

struct Golden {
    name: &'static str,
    records: u64,
    wal_bytes_total: u64,
    snapshots: u64,
    sealed_len: usize,
    sealed_hash: u64,
    /// FNV-1a of every history payload, concatenated in order.
    payloads_fnv: u64,
    /// FNV-1a of `format!("{:?}", ReplayOutcome)`, plain and durable alike.
    outcome_fnv: u64,
    /// FNV-1a of the `RecoveryReport` JSON.
    report_fnv: u64,
    /// FNV-1a of the durable image's WAL bytes at shutdown.
    image_fnv: u64,
    /// FNV-1a of `format!("{:?}", verify_recovery(..))` at four kill
    /// points.
    kills_fnv: u64,
}

/// `all_fault_scenarios()` in order.
const GOLDEN: [Golden; 17] = [
    Golden {
        name: "crash-mid-run",
        records: 233,
        wal_bytes_total: 24_155,
        snapshots: 1,
        sealed_len: 27_422,
        sealed_hash: 0x62dc_cc82_9e6c_b162,
        payloads_fnv: 0x0349_2b85_fd7c_98a6,
        outcome_fnv: 0x54ad_60ca_e282_3d38,
        report_fnv: 0xd688_655a_eba1_9c5e,
        image_fnv: 0x52d3_ada8_ad79_3fc5,
        kills_fnv: 0xf6ac_bcc7_469f_47dd,
    },
    Golden {
        name: "crash-mid-run-ckpt",
        records: 382,
        wal_bytes_total: 44_669,
        snapshots: 2,
        sealed_len: 43_999,
        sealed_hash: 0x4834_4658_6f18_7079,
        payloads_fnv: 0x8528_bb1d_bf19_e1da,
        outcome_fnv: 0x9aba_5e81_97e1_c6fa,
        report_fnv: 0xaa67_26b4_4527_b234,
        image_fnv: 0x2f4b_268e_929e_90fe,
        kills_fnv: 0x24cb_240f_7327_ee6f,
    },
    Golden {
        name: "crash-two-campus",
        records: 524,
        wal_bytes_total: 53_195,
        snapshots: 3,
        sealed_len: 61_479,
        sealed_hash: 0x0e55_9823_7c1e_8f7e,
        payloads_fnv: 0xbfac_b6ea_ca73_919d,
        outcome_fnv: 0x6365_0ac2_0e97_855b,
        report_fnv: 0x0f58_8ac2_410d_29a2,
        image_fnv: 0xaaef_a3dc_ab79_9b36,
        kills_fnv: 0x9714_460c_9b75_ae52,
    },
    Golden {
        name: "crash-spread-ckpt",
        records: 525,
        wal_bytes_total: 58_880,
        snapshots: 3,
        sealed_len: 64_927,
        sealed_hash: 0x04bf_015f_9cc2_6c7c,
        payloads_fnv: 0x0087_ad26_8de1_089f,
        outcome_fnv: 0x00d9_7bb1_157f_bc50,
        report_fnv: 0xa144_276d_2dea_2ca7,
        image_fnv: 0x4ba7_4681_6cc5_41c8,
        kills_fnv: 0x9993_4545_9dce_7116,
    },
    Golden {
        name: "transient-outage",
        records: 585,
        wal_bytes_total: 58_742,
        snapshots: 3,
        sealed_len: 75_505,
        sealed_hash: 0x1c9c_a5b4_f5e2_e6ab,
        payloads_fnv: 0xadfb_0d23_8868_c8ef,
        outcome_fnv: 0x442d_f3c3_b749_f9e2,
        report_fnv: 0xb821_b407_2d73_9503,
        image_fnv: 0x280d_daab_45dc_4f93,
        kills_fnv: 0xf153_fa97_45dd_f9f1,
    },
    Golden {
        name: "load-spike-eviction",
        records: 258,
        wal_bytes_total: 26_786,
        snapshots: 2,
        sealed_len: 29_688,
        sealed_hash: 0x946d_2384_b093_7277,
        payloads_fnv: 0xe3a3_5da7_6d41_8b4d,
        outcome_fnv: 0xbffd_4407_9017_f215,
        report_fnv: 0x4ee8_ab02_b700_ebac,
        image_fnv: 0x4ba7_4681_6cc5_41c8,
        kills_fnv: 0xf369_d9bf_d644_20bb,
    },
    Golden {
        name: "degraded-wan",
        records: 1_628,
        wal_bytes_total: 165_427,
        snapshots: 6,
        sealed_len: 188_600,
        sealed_hash: 0x499e_407a_eb61_9eb6,
        payloads_fnv: 0x8399_b770_a1fb_c66b,
        outcome_fnv: 0xee38_96a6_f349_6c40,
        report_fnv: 0x4ab9_1284_e356_8d52,
        image_fnv: 0x84fc_8f19_92b1_e4ec,
        kills_fnv: 0x602c_98b5_99c1_e2ab,
    },
    Golden {
        name: "flaky-wan",
        records: 804,
        wal_bytes_total: 81_776,
        snapshots: 4,
        sealed_len: 101_400,
        sealed_hash: 0x4864_a489_c88a_4f04,
        payloads_fnv: 0x1e1c_41af_7619_8d64,
        outcome_fnv: 0xef2c_617f_5b54_92f9,
        report_fnv: 0xc77b_73f8_cd21_05fe,
        image_fnv: 0xfa49_0c31_de16_ea28,
        kills_fnv: 0xa6a1_fd1e_b94d_c3c8,
    },
    Golden {
        name: "weibull-churn",
        records: 981,
        wal_bytes_total: 101_795,
        snapshots: 4,
        sealed_len: 94_613,
        sealed_hash: 0x77c8_c52d_c0ba_cb0c,
        payloads_fnv: 0x0b27_f1ec_37b9_2bf1,
        outcome_fnv: 0xd816_4b3b_7c79_67fa,
        report_fnv: 0xbbd2_18c7_fc07_d766,
        image_fnv: 0x6b60_e749_340a_5c7a,
        kills_fnv: 0x61df_95e9_087b_0cff,
    },
    Golden {
        name: "manager-failover",
        records: 427,
        wal_bytes_total: 43_004,
        snapshots: 2,
        sealed_len: 61_589,
        sealed_hash: 0xc0be_3380_c94d_4f63,
        payloads_fnv: 0x42ee_7b6a_96dc_8ff0,
        outcome_fnv: 0x85af_f418_d3e6_944c,
        report_fnv: 0x3ce7_cb7d_e4e8_c42c,
        image_fnv: 0xa9cc_2d1a_2a25_45b5,
        kills_fnv: 0x4450_a444_758a_a7c3,
    },
    Golden {
        name: "site-crash",
        records: 608,
        wal_bytes_total: 61_693,
        snapshots: 3,
        sealed_len: 75_632,
        sealed_hash: 0xa3c0_2f91_b958_7a32,
        payloads_fnv: 0xa48c_dfcf_90cb_8628,
        outcome_fnv: 0x6c0c_e417_07a2_0863,
        report_fnv: 0xaa5b_3d11_bb10_adc4,
        image_fnv: 0x13c9_944a_5f6c_0f09,
        kills_fnv: 0x3e2c_7c64_8914_712f,
    },
    Golden {
        name: "site-crash-ckpt-local",
        records: 1_005,
        wal_bytes_total: 111_584,
        snapshots: 4,
        sealed_len: 116_179,
        sealed_hash: 0xf8da_e858_a0fb_ffab,
        payloads_fnv: 0x04cf_b904_24dd_393c,
        outcome_fnv: 0xe5f2_962c_b2ae_ee3a,
        report_fnv: 0xeb43_557c_a326_64b5,
        image_fnv: 0xa7fb_8180_04f0_bce4,
        kills_fnv: 0x98d7_df09_8fdd_943c,
    },
    Golden {
        name: "site-crash-ckpt-replica",
        records: 1_677,
        wal_bytes_total: 172_087,
        snapshots: 7,
        sealed_len: 154_043,
        sealed_hash: 0x0553_b784_6752_6b78,
        payloads_fnv: 0xbc6a_0c4e_92d3_5953,
        outcome_fnv: 0x647e_11e4_e503_53c1,
        report_fnv: 0x79bb_cefa_6eff_90c3,
        image_fnv: 0x4ba7_4681_6cc5_41c8,
        kills_fnv: 0x8448_6767_cbd7_6199,
    },
    Golden {
        name: "partition-heal",
        records: 388,
        wal_bytes_total: 39_584,
        snapshots: 2,
        sealed_len: 49_554,
        sealed_hash: 0x7f09_2380_5d92_1124,
        payloads_fnv: 0x95cb_3e6f_d6b3_9765,
        outcome_fnv: 0xdd26_3700_0c10_787d,
        report_fnv: 0x4f5c_f242_e506_5f2b,
        image_fnv: 0xc064_b749_23e6_6f7a,
        kills_fnv: 0xd02a_484a_6600_1ead,
    },
    Golden {
        name: "fuzz-outage-hotspot",
        records: 1_633,
        wal_bytes_total: 164_507,
        snapshots: 7,
        sealed_len: 174_820,
        sealed_hash: 0x19c4_2812_22a6_8b7e,
        payloads_fnv: 0x89ee_1f06_65d0_cf92,
        outcome_fnv: 0x3da3_9399_e1f8_d75b,
        report_fnv: 0x13ef_81ab_fa4c_5166,
        image_fnv: 0x3c57_17d3_cf50_9c45,
        kills_fnv: 0x6dba_84bc_0f8b_e0ae,
    },
    Golden {
        name: "fuzz-spike-pileup",
        records: 719,
        wal_bytes_total: 72_834,
        snapshots: 3,
        sealed_len: 78_884,
        sealed_hash: 0xe664_e976_380a_3d2a,
        payloads_fnv: 0xcb99_1ba9_8a79_13b0,
        outcome_fnv: 0x478a_c070_3d03_6ac6,
        report_fnv: 0xe72f_2c63_79f1_f2e5,
        image_fnv: 0xe842_dc4c_6459_f481,
        kills_fnv: 0xf55c_1080_72e9_5775,
    },
    Golden {
        name: "fuzz-site-blink",
        records: 749,
        wal_bytes_total: 75_098,
        snapshots: 3,
        sealed_len: 79_976,
        sealed_hash: 0xcfe4_541a_f32e_bbf5,
        payloads_fnv: 0x3d08_5220_9afa_7b70,
        outcome_fnv: 0xe016_c8f6_fe9c_5175,
        report_fnv: 0x1f44_82fe_f663_22f6,
        image_fnv: 0xe9cb_3402_6de6_0edc,
        kills_fnv: 0x5ab8_7732_e7b0_0a74,
    },
];

fn assert_golden(fs: &FaultScenario, want: &Golden, index: usize) {
    let name = fs.name;
    assert_eq!(name, want.name, "the table follows `all_fault_scenarios()`");
    let (opts, durable) = sealed(fs);
    let journal = &opts.journal;
    let stats = journal.stats();
    let seal = journal.final_state().expect("durable replays seal");
    let mut payloads = Fnv1a::new();
    for (_, payload) in journal.history() {
        payloads.update(payload.as_bytes());
    }
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

    let plain = replayed(fs, None);
    let outcome_fnv = |o: &ReplayOutcome| fnv1a(format!("{o:?}").as_bytes());
    assert_eq!(outcome_fnv(&plain), want.outcome_fnv, "{name}: plain outcome");
    assert_eq!(outcome_fnv(&durable), want.outcome_fnv, "{name}: durable outcome");
    let report = serde_json::to_string(&run_fault_scenario(fs.name, &fs.request()))
        .expect("reports serialise");
    assert_eq!(fnv1a(report.as_bytes()), want.report_fnv, "{name}: recovery report");

    // The durable image a restart reads, and every kill report at four
    // kill points drawn for this scenario.
    let kills = verify_recovery(journal, 4, 0x5EED_0000 + index as u64);
    assert_eq!(fnv1a(&journal.image().wal), want.image_fnv, "{name}: durable image WAL");
    assert_eq!(fnv1a(format!("{kills:?}").as_bytes()), want.kills_fnv, "{name}: kill reports");
}

#[test]
fn every_fault_scenario_replays_to_the_parents_bytes() {
    let scenarios = all_fault_scenarios();
    assert_eq!(scenarios.len(), GOLDEN.len());
    for (index, (fs, want)) in scenarios.iter().zip(&GOLDEN).enumerate() {
        assert_golden(fs, want, index);
    }
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

/// `bytes` with one span repeated in place, `n` times over.
fn repeats(bytes: &[u8], n: usize, seed: u64) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut rng = seed;
    (0..n).map(move |_| {
        let at = next_rand(&mut rng) as usize % bytes.len();
        let end = at + next_rand(&mut rng) as usize % (bytes.len() - at);
        [&bytes[..end], &bytes[at..end], &bytes[end..]].concat()
    })
}

#[test]
fn damaged_snapshots_and_payloads_are_typed_errors() {
    let opts = sealed(&site_crash_ckpt_replica()).0;
    // Every prefix of a snapshot is quadratic work, so take a small one:
    // the seq-0 state of the smoke campus. A strict prefix of a JSON
    // object is never a JSON document.
    let small = sealed(&crash_mid_run_checkpointed()).0.journal.snapshots().remove(0).state;
    assert!(ControlState::from_bytes(&small).is_ok());
    for cut in 0..small.len() {
        assert!(ControlState::from_bytes(&small[..cut]).is_err(), "prefix of {cut} bytes");
    }
    // Flips and repeated spans go to the newest snapshot, where
    // checkpoints and the event log are populated too. Either may still
    // parse (a digit for a digit, a digit twice, a member twice); it must
    // not panic.
    let snapshot = opts.journal.snapshots().pop().expect("a snapshot was installed").state;
    assert!(ControlState::from_bytes(&snapshot).is_ok());
    let refused =
        flips(&snapshot, 400, 0xf11b).filter(|d| ControlState::from_bytes(d).is_err()).count();
    assert!(refused > 100, "only {refused} of 400 flips were refused");
    let refused =
        repeats(&snapshot, 400, 0x5ba2).filter(|d| ControlState::from_bytes(d).is_err()).count();
    assert!(refused > 100, "only {refused} of 400 repeated spans were refused");

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
