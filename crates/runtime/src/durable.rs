//! The durable control plane (DESIGN.md §16): one event-sourced state
//! machine over every mutable control-plane structure.
//!
//! Four components journal through the shared `vdce_store`
//! [`Journal`], each under its own tag:
//!
//! | tag    | payload                                   | owner                |
//! |--------|-------------------------------------------|----------------------|
//! | `repo` | [`JournaledRepoEvent`]                    | site repositories    |
//! | `ckpt` | [`CheckpointEvent`]                       | the checkpoint store |
//! | `site` | [`SiteTableEvent`] + site index           | failover host tables |
//! | `log`  | [`LogRecord`]                             | the runtime event log|
//!
//! [`ControlState`] is the product state machine: the serializable
//! aggregate of all four, with a pure [`ControlState::apply`] per
//! journal record. Recovery is `snapshot + replay`: start from the
//! newest installed [`ControlState`] snapshot and apply every WAL
//! record after it — bit-identical to the state an uninterrupted run
//! reaches, which the recovery harness asserts byte-for-byte.
//!
//! The bytes have two writers. A live run never builds a
//! [`ControlState`]: [`write_snapshot`] streams the same JSON from the
//! components by reference. Recovery parses it with the typed derive,
//! replays, and re-serialises with the typed derive; the harness's
//! "resumed ≡ sealed, bit for bit" check is therefore also the check
//! that the two writers agree.
//!
//! [`DeputyLink`] is the replication half: the leader Site Manager
//! ships each repository event to its deputy's [`RepoReplica`] and the
//! channel compares state hashes on a cadence, latching a typed
//! divergence error the harness surfaces as a metric.

use crate::checkpoint::{CheckpointEvent, CheckpointState, CheckpointStore};
use crate::events::{EventLog, LogRecord};
use crate::site_manager::{SiteFailover, SiteTableEvent};
use serde::{Deserialize, JsonWriter, Serialize};
use vdce_repository::{JournaledRepoEvent, RepositorySnapshot, SiteRepository};
use vdce_store::{
    fnv1a, fnv1a_json, Journal, Replica, ReplicationError, ReplicationStats, Replicator,
    SnapshotPolicy,
};

/// The `site`-tagged journal payload: a liveness transition plus the
/// site whose host table it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournaledSiteEvent {
    /// Owning site index.
    pub site: u16,
    /// The transition.
    pub event: SiteTableEvent,
}

/// One decoded control-plane journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// A site-repository mutation (`repo`).
    Repo(JournaledRepoEvent),
    /// A checkpoint-store mutation (`ckpt`).
    Checkpoint(CheckpointEvent),
    /// A failover host-table transition (`site`).
    Site(JournaledSiteEvent),
    /// A runtime event-log append (`log`).
    Log(LogRecord),
}

/// A journal record that does not decode as a control-plane event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlEventError {
    /// The tag is not one of `repo`/`ckpt`/`site`/`log`.
    UnknownTag {
        /// The tag found.
        tag: String,
    },
    /// The payload does not parse as the tag's event type.
    BadPayload {
        /// The record's tag.
        tag: String,
        /// Parser error text.
        error: String,
    },
}

impl std::fmt::Display for ControlEventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlEventError::UnknownTag { tag } => {
                write!(f, "unknown control-plane journal tag `{tag}`")
            }
            ControlEventError::BadPayload { tag, error } => {
                write!(f, "bad `{tag}` journal payload: {error}")
            }
        }
    }
}

impl std::error::Error for ControlEventError {}

impl ControlEvent {
    /// The journal tag this event is framed under.
    pub fn tag(&self) -> &'static str {
        match self {
            ControlEvent::Repo(_) => "repo",
            ControlEvent::Checkpoint(_) => "ckpt",
            ControlEvent::Site(_) => "site",
            ControlEvent::Log(_) => "log",
        }
    }

    /// Serialize the payload half of the journal record.
    pub fn payload(&self) -> String {
        let encode =
            |r: Result<String, serde_json::Error>| r.expect("control events always serialize");
        match self {
            ControlEvent::Repo(e) => encode(serde_json::to_string(e)),
            ControlEvent::Checkpoint(e) => encode(serde_json::to_string(e)),
            ControlEvent::Site(e) => encode(serde_json::to_string(e)),
            ControlEvent::Log(e) => encode(serde_json::to_string(e)),
        }
    }

    /// Decode one `(tag, payload)` journal record.
    pub fn decode(tag: &str, payload: &str) -> Result<ControlEvent, ControlEventError> {
        let bad = |e: serde_json::Error| ControlEventError::BadPayload {
            tag: tag.to_string(),
            error: e.to_string(),
        };
        match tag {
            "repo" => Ok(ControlEvent::Repo(serde_json::from_str(payload).map_err(bad)?)),
            "ckpt" => Ok(ControlEvent::Checkpoint(serde_json::from_str(payload).map_err(bad)?)),
            "site" => Ok(ControlEvent::Site(serde_json::from_str(payload).map_err(bad)?)),
            "log" => Ok(ControlEvent::Log(serde_json::from_str(payload).map_err(bad)?)),
            other => Err(ControlEventError::UnknownTag { tag: other.to_string() }),
        }
    }
}

/// The aggregate control-plane state machine: everything a Site-Manager
/// process death would lose, as one serializable value with a pure
/// per-event transition.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ControlState {
    /// Per-site repository state, indexed by site.
    pub repos: Vec<RepositorySnapshot>,
    /// Checkpoint-store control state.
    pub checkpoints: CheckpointState,
    /// Per-site failover host tables, indexed by site.
    pub sites: Vec<SiteFailover>,
    /// The runtime event log.
    pub log: Vec<LogRecord>,
}

/// Room left for the part of a snapshot outside its log to outgrow the
/// previous snapshot's: about what one compaction interval of checkpoint
/// records adds. Reserved, not touched, and given back by the final
/// `shrink_to_fit`.
const HEAD_SLACK: usize = 32 << 10;

/// Serialise the live control plane into the bytes of its
/// [`ControlState`] and their [`fnv1a`] hash — what a snapshot installs
/// and a seal pins — without building the state: every repository and the
/// checkpoint store write the same values the state holds, by reference,
/// and the event log splices the JSON it already wrote for the journal. [`ControlState::from_bytes`] is the
/// reader of this format and [`ControlState::to_bytes`] its typed
/// writer; recovery holds the two writers to the same bytes.
///
/// `head_hint` is the expected size of everything outside the log (the
/// previous snapshot's, say): with it the buffer is allocated once and
/// never doubled, which is what keeps a snapshot from costing twice its
/// size at the peak. Only sizing depends on it.
pub fn write_snapshot<'r>(
    repos: impl IntoIterator<Item = &'r SiteRepository>,
    store: &CheckpointStore,
    sites: &[SiteFailover],
    log: &EventLog,
    head_hint: usize,
) -> (Vec<u8>, u64) {
    let capacity = head_hint + HEAD_SLACK + log.with_journaled_json(<[u8]>::len);
    let mut w = JsonWriter::new(Vec::with_capacity(capacity), None);
    let mut obj = w.begin_object();
    w.key(&mut obj, br#""repos":"#);
    let mut arr = w.begin_array();
    for repo in repos {
        w.elem(&mut arr);
        repo.write_snapshot_json(&mut w);
    }
    w.end_array(arr);
    w.key(&mut obj, br#""checkpoints":"#);
    store.state().write_json(&mut w);
    w.key(&mut obj, br#""sites":"#);
    sites.write_json(&mut w);
    w.key(&mut obj, br#""log":"#);
    let arr = w.begin_array();
    log.with_journaled_json(|json| w.raw_json(json));
    w.end_array(arr);
    w.end_object(obj);
    let mut bytes = w.finish().expect("writing to a Vec cannot fail");
    // Snapshots outlive the run in the journal: keep no slack.
    bytes.shrink_to_fit();
    let hash = fnv1a(&bytes);
    (bytes, hash)
}

impl ControlState {
    /// Apply one decoded event — the pure transition WAL replay runs.
    /// Events naming a site index the state does not have are dropped
    /// (deterministically; they cannot occur in well-formed journals).
    pub fn apply(&mut self, event: &ControlEvent) {
        match event {
            ControlEvent::Repo(e) => {
                if let Some(repo) = self.repos.get_mut(e.site as usize) {
                    e.event.apply(repo);
                }
            }
            ControlEvent::Checkpoint(e) => {
                self.checkpoints.apply(e);
            }
            ControlEvent::Site(e) => {
                if let Some(table) = self.sites.get_mut(e.site as usize) {
                    table.apply(&e.event);
                }
            }
            ControlEvent::Log(e) => self.log.push(e.clone()),
        }
    }

    /// [`ControlState::apply`] of an event the caller is done with: a
    /// `log` record is moved into the state, not cloned.
    pub fn apply_owned(&mut self, event: ControlEvent) {
        match event {
            ControlEvent::Log(e) => self.log.push(e),
            other => self.apply(&other),
        }
    }

    /// Canonical serialized form (the snapshot / seal byte format).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("control state always serialises")
    }

    /// Parse a serialized [`ControlState`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, serde_json::Error> {
        serde_json::from_slice(bytes)
    }

    /// Deterministic fingerprint of the serialized state: FNV-1a of
    /// [`ControlState::to_bytes`], streamed rather than buffered.
    pub fn hash(&self) -> u64 {
        fnv1a_json(self)
    }
}

/// Options for running a replay with the durable control plane on.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// The shared journal every component writes through.
    pub journal: Journal,
    /// Deputy replication hash-check cadence in frames (`0` disables
    /// the per-frame cadence; boundary checks still run).
    pub deputy_check_every: u64,
}

impl DurableOptions {
    /// Durable control plane journaling under `policy`, with deputy
    /// hash checks every `deputy_check_every` frames.
    pub fn new(policy: SnapshotPolicy, deputy_check_every: u64) -> Self {
        DurableOptions { journal: Journal::enabled(policy), deputy_check_every }
    }
}

/// The deputy's copy of one site repository: a [`Replica`] that applies
/// shipped `repo` events to a detached snapshot.
#[derive(Debug, Clone)]
pub struct RepoReplica {
    state: RepositorySnapshot,
}

impl RepoReplica {
    /// Replica starting from the leader's current state.
    pub(crate) fn new(state: RepositorySnapshot) -> Self {
        RepoReplica { state }
    }

    /// Mutable access to the replica state. Exists so divergence
    /// injection (tests, fault drills) can corrupt the follower; the
    /// replication channel must then detect the corruption at its next
    /// hash check.
    #[cfg(test)]
    pub(crate) fn state_mut(&mut self) -> &mut RepositorySnapshot {
        &mut self.state
    }
}

impl Replica for RepoReplica {
    fn apply_event(&mut self, tag: &str, payload: &str) {
        if tag != "repo" {
            return;
        }
        if let Ok(wire) = serde_json::from_str::<JournaledRepoEvent>(payload) {
            wire.event.apply(&mut self.state);
        }
    }

    fn state_hash(&self) -> u64 {
        fnv1a_json(&self.state)
    }
}

/// The leader-side handle of one site's deputy replication channel:
/// the replica plus the [`Replicator`] shipping events into it.
#[derive(Debug)]
pub struct DeputyLink {
    replica: RepoReplica,
    channel: Replicator,
}

impl DeputyLink {
    /// Link whose replica starts from `initial` (the leader's state at
    /// attach time), hash-checked every `check_every` shipped events.
    pub fn new(initial: RepositorySnapshot, check_every: u64) -> Self {
        DeputyLink { replica: RepoReplica::new(initial), channel: Replicator::new(check_every) }
    }

    /// Ship one repository event, as its `repo` journal payload, to the
    /// replica. `leader_hash` is only evaluated on hash-check frames.
    pub(crate) fn ship(
        &mut self,
        payload: &str,
        leader_hash: impl FnOnce() -> u64,
    ) -> Result<(), ReplicationError> {
        self.channel.replicate(&mut self.replica, "repo", payload, leader_hash)
    }

    /// Force a hash check against `leader_hash` now (failover
    /// boundary).
    pub fn check(&mut self, leader_hash: u64) -> Result<(), ReplicationError> {
        self.channel.check(&self.replica, leader_hash)
    }

    /// The replica (e.g. to promote it on leader death, or to inject
    /// divergence in drills).
    #[cfg(test)]
    pub(crate) fn replica_mut(&mut self) -> &mut RepoReplica {
        &mut self.replica
    }

    /// Channel counters.
    pub fn stats(&self) -> ReplicationStats {
        self.channel.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RuntimeEvent;
    use vdce_afg::{MachineType, TaskId};
    use vdce_net::topology::SiteId;
    use vdce_repository::resources::{HostStatus, ResourceRecord};
    use vdce_repository::{RepoEvent, SiteRepository};

    fn seeded_repo(host: &str) -> SiteRepository {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new(
                host,
                "10.0.0.1",
                MachineType::LinuxPc,
                1.0,
                1,
                1 << 26,
                "g0",
            ))
        });
        repo
    }

    fn sample(host: &str, workload: f64) -> JournaledRepoEvent {
        JournaledRepoEvent {
            site: 0,
            event: RepoEvent::RecordSample {
                host: host.into(),
                workload,
                available_memory: 1 << 20,
            },
        }
    }

    #[test]
    fn control_events_round_trip_through_tag_payload() {
        let events = [
            ControlEvent::Repo(sample("h", 1.5)),
            ControlEvent::Checkpoint(CheckpointEvent::AddReplica {
                task: TaskId(3),
                seq: 0,
                host: "h".into(),
            }),
            ControlEvent::Site(JournaledSiteEvent {
                site: 2,
                event: SiteTableEvent::HostDown { host: "h".into() },
            }),
            ControlEvent::Log(LogRecord { t: 1.0, event: RuntimeEvent::StartupSignal }),
        ];
        for e in &events {
            let back = ControlEvent::decode(e.tag(), &e.payload()).unwrap();
            assert_eq!(&back, e);
        }
        assert!(matches!(
            ControlEvent::decode("nope", "{}"),
            Err(ControlEventError::UnknownTag { .. })
        ));
        assert!(matches!(
            ControlEvent::decode("repo", "not json"),
            Err(ControlEventError::BadPayload { .. })
        ));
    }

    /// `v` as compact JSON with every object's members in reverse order
    /// and key number `escape` (in document order) spelled with its first
    /// character as a `\u00XX` escape; `seen` counts the keys written.
    fn respell(v: &serde_json::Value, escape: usize, seen: &mut usize, out: &mut String) {
        use serde_json::Value;
        match v {
            Value::Object(members) => {
                out.push('{');
                for (i, (k, member)) in members.iter().rev().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let mut key = serde_json::to_string(k).unwrap();
                    if *seen == escape {
                        let escaped = format!("\\u{:04x}", key.as_bytes()[1]);
                        key.replace_range(1..2, &escaped);
                    }
                    *seen += 1;
                    out.push_str(&key);
                    out.push(':');
                    respell(member, escape, seen, out);
                }
                out.push('}');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    respell(item, escape, seen, out);
                }
                out.push(']');
            }
            scalar => out.push_str(&serde_json::to_string(scalar).unwrap()),
        }
    }

    #[test]
    fn payloads_with_members_reversed_and_a_key_escaped_decode_the_same() {
        let events = [
            ControlEvent::Repo(sample("h0", 0.25)),
            ControlEvent::Checkpoint(CheckpointEvent::AddReplica {
                task: TaskId(3),
                seq: 7,
                host: "h1".into(),
            }),
            ControlEvent::Site(JournaledSiteEvent {
                site: 2,
                event: SiteTableEvent::HostDown { host: "h2".into() },
            }),
            ControlEvent::Log(LogRecord {
                t: 1.5,
                event: RuntimeEvent::TaskStarted { task: TaskId(4), host: "h3".into() },
            }),
        ];
        for e in &events {
            let tree: serde_json::Value = serde_json::from_str(&e.payload()).unwrap();
            for escape in 0.. {
                let (mut text, mut seen) = (String::new(), 0);
                respell(&tree, escape, &mut seen, &mut text);
                if escape >= seen {
                    assert!(escape >= 3, "{}: only {seen} keys", e.tag());
                    break;
                }
                assert!(text.contains("\\u00"), "{text}");
                assert_eq!(ControlEvent::decode(e.tag(), &text).as_ref(), Ok(e), "{text}");
            }
        }
    }

    #[test]
    fn journaled_run_replays_to_the_captured_state() {
        // A miniature durable run: journal attached to every component,
        // snapshot of the initial state, mutations, then replay.
        let journal = Journal::enabled(SnapshotPolicy::manual());
        let repo = seeded_repo("h");
        repo.attach_journal(0, journal.clone());
        let mut store = CheckpointStore::new();
        store.attach_journal(journal.clone());
        let log = EventLog::new().with_journal(journal.clone());
        let mut sites =
            vec![SiteFailover::new(SiteId(0), "h", std::slice::from_ref(&"h".to_string()))];

        let (bytes, hash) =
            write_snapshot(std::slice::from_ref(&repo), &store, &sites, &EventLog::new(), 0);
        let initial = ControlState::from_bytes(&bytes).unwrap();
        assert_eq!(hash, initial.hash(), "streamed hash is the hash of the bytes");
        journal.install_snapshot(bytes, hash);

        // Mutations, each through its journaled write path.
        let event =
            RepoEvent::RecordSample { host: "h".into(), workload: 3.0, available_memory: 1 << 21 };
        repo.apply_event(event, false);
        store.record(TaskId(0), 0.5, 1.0, vec!["h".into()]);
        log.emit(2.0, RuntimeEvent::HostFailed { host: "h".into() });
        let site_event =
            JournaledSiteEvent { site: 0, event: SiteTableEvent::HostDown { host: "h".into() } };
        journal.append("site", &serde_json::to_string(&site_event).unwrap());
        sites[0].apply(&site_event.event);
        repo.apply_event(
            RepoEvent::SetStatus { host: "h".into(), status: HostStatus::Down },
            false,
        );

        // The by-reference writer and the typed one agree on the live
        // state, bytes and hash.
        let sealed = write_snapshot(&[repo], &store, &sites, &log, 0);
        let live = ControlState::from_bytes(&sealed.0).unwrap();
        assert_eq!(live.to_bytes(), sealed.0);
        assert_eq!(live.hash(), sealed.1);
        assert_eq!(live.log.len(), 1);
        journal.seal(sealed.0, sealed.1);

        // Recover: snapshot + replay of the WAL after it.
        let image = journal.image();
        let recovered = vdce_store::recover(&image).unwrap();
        assert_eq!(recovered.events.len(), 5);
        let snap = recovered.snapshot.expect("initial snapshot installed");
        let mut state = ControlState::from_bytes(&snap.state).unwrap();
        let mut owned = state.clone();
        for (tag, payload) in &recovered.events {
            state.apply(&ControlEvent::decode(tag, payload).unwrap());
            owned.apply_owned(ControlEvent::decode(tag, payload).unwrap());
        }
        assert_eq!(state, live, "replayed state equals the live state");
        assert_eq!(owned, live, "moving the events in changes nothing");
        assert_eq!(state.to_bytes(), journal.final_state().unwrap().state, "bit-identical");
        assert_eq!(state.hash(), journal.final_state().unwrap().hash);
    }

    /// The `log` array of a snapshot of `log` alone, as text.
    fn log_json(log: &EventLog) -> String {
        let (bytes, hash) = write_snapshot(&[], &CheckpointStore::new(), &[], log, 0);
        assert_eq!(hash, fnv1a(&bytes));
        let text = String::from_utf8(bytes).unwrap();
        let head = r#"{"repos":[],"checkpoints":{"by_task":{},"taken":0},"sites":[],"log":"#;
        text.strip_prefix(head).and_then(|t| t.strip_suffix('}')).expect("snapshot shape").into()
    }

    #[test]
    fn log_text_is_kept_for_a_journal_only_and_shared_by_clones() {
        let journaled = || EventLog::new().with_journal(Journal::enabled(SnapshotPolicy::manual()));
        assert_eq!(log_json(&journaled()), "[]");

        // Without a journal nothing is retained — nothing would be replayed.
        let plain = EventLog::new();
        plain.emit(0.0, RuntimeEvent::Resumed);
        assert!(plain.with_journaled_json(<[u8]>::is_empty));
        assert!(plain.with_journal(Journal::disabled()).with_journaled_json(<[u8]>::is_empty));

        // A clone taken before the emits writes into the same text.
        let log = journaled();
        let clone = log.clone();
        clone.emit(1.0, RuntimeEvent::Suspended);
        log.emit(2.0, RuntimeEvent::Resumed);
        let both = r#"[{"t":1,"event":"Suspended"},{"t":2,"event":"Resumed"}]"#;
        assert_eq!(log_json(&log), both);
        assert_eq!(log_json(&clone), both);
    }

    /// Entries a log held before its journal was attached are in no WAL,
    /// but a snapshot's `log` is the whole log all the same.
    #[test]
    fn attaching_a_journal_to_a_log_with_entries_keeps_them_in_snapshots() {
        let journal = Journal::enabled(SnapshotPolicy::manual());
        let log = EventLog::new();
        log.emit(0.5, RuntimeEvent::StartupSignal);
        log.emit(1.25, RuntimeEvent::TaskStarted { task: TaskId(3), host: "h".into() });
        let log = log.with_journal(journal.clone());
        log.emit(2.0, RuntimeEvent::HostFailed { host: "h".into() });
        assert_eq!(
            log_json(&log),
            r#"[{"t":0.5,"event":"StartupSignal"},{"t":1.25,"event":{"TaskStarted":{"task":3,"host":"h"}}},{"t":2,"event":{"HostFailed":{"host":"h"}}}]"#
        );
        let only = r#"{"t":2,"event":{"HostFailed":{"host":"h"}}}"#;
        assert_eq!(journal.history(), vec![("log".to_string(), only.to_string())]);
    }

    #[test]
    fn spliced_records_are_the_bytes_the_derive_writes() {
        let log = EventLog::new().with_journal(Journal::enabled(SnapshotPolicy::manual()));
        let records = [
            LogRecord {
                t: f64::INFINITY,
                event: RuntimeEvent::TaskFailed {
                    task: TaskId(1),
                    reason: "a \"q\" \\ \u{1} z".into(),
                },
            },
            LogRecord { t: f64::NAN, event: RuntimeEvent::StartupSignal },
            LogRecord {
                t: 0.1 + 0.2,
                event: RuntimeEvent::MonitorSample { host: "s0h0".into(), workload: 1e-7 },
            },
        ];
        for r in &records {
            log.emit(r.t, r.event.clone());
        }
        assert_eq!(log_json(&log), serde_json::to_string(&records.to_vec()).unwrap());
        assert!(log_json(&log).starts_with(
            r#"[{"t":null,"event":{"TaskFailed":{"task":1,"reason":"a \"q\" \\ \u0001 z"}}},"#
        ));
    }

    /// NaN and infinity have no JSON spelling: a record carrying one would
    /// be written as `null` and fail to decode, leaving the journal
    /// unrecoverable. They are refused where they enter.
    #[test]
    fn non_finite_measurements_never_reach_the_journal() {
        use crate::group::GroupManager;
        use crate::monitor::{MonitorDaemon, SyntheticProbe};
        use crate::site_manager::{ControlMessage, SiteManager};
        let journal = Journal::enabled(SnapshotPolicy::manual());
        let repo = seeded_repo("h");
        repo.attach_journal(0, journal.clone());
        let log = EventLog::new().with_journal(journal.clone());
        let store = CheckpointStore::new();
        let (bytes, hash) = write_snapshot(std::slice::from_ref(&repo), &store, &[], &log, 0);
        journal.install_snapshot(bytes, hash);

        // A NaN probe reading, then a good one, through the monitoring chain.
        let manager = SiteManager::new(SiteId(0), repo.clone());
        let mut deputy = DeputyLink::new(repo.snapshot(), 1);
        let mut probe = SyntheticProbe::new(0.0, 1 << 20);
        probe.set_trace("h", vec![(0.0, f64::NAN), (1.0, 2.0)]);
        let daemon = MonitorDaemon::new("h", log.clone());
        let mut group = GroupManager::new("g", vec!["h".into()], 0.5, log.clone());
        for t in [0.0, 1.0] {
            probe.set_time(t);
            let report = daemon.tick(t, &probe);
            assert_eq!(report.is_some(), t == 1.0, "the NaN reading is dropped");
            if let Some(msg) = report.and_then(|r| group.handle_report(t, &r)) {
                assert!(manager.process(&msg, Some(&mut deputy)));
            }
        }
        // A NaN workload and an infinite execution time sent to the
        // manager directly.
        let nan = ControlMessage::WorkloadUpdate {
            host: "h".into(),
            workload: f64::NAN,
            available_memory: 1,
        };
        let inf = ControlMessage::ExecutionCompleted {
            library_task: "Map".into(),
            host: "h".into(),
            problem_size: 8,
            seconds: f64::INFINITY,
        };
        assert!(!manager.process(&nan, Some(&mut deputy)));
        assert!(!manager.process(&inf, Some(&mut deputy)));
        deputy.check(repo.state_hash()).unwrap();

        let (bytes, hash) = write_snapshot(&[repo], &store, &[], &log, 0);
        journal.seal(bytes.clone(), hash);
        let image = journal.image();
        let recovered = vdce_store::recover(&image).unwrap();
        let tags: Vec<&str> = recovered.events.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, ["log", "log", "repo"], "one sample, its forward, one update");
        let mut state = ControlState::from_bytes(&recovered.snapshot.unwrap().state).unwrap();
        for (tag, payload) in &recovered.events {
            state.apply(&ControlEvent::decode(tag, payload).unwrap());
        }
        assert_eq!(state.to_bytes(), bytes, "recovery reaches the live state");
    }

    #[test]
    fn deputy_stays_in_sync_and_detects_injected_divergence() {
        let repo = seeded_repo("h");
        let mut link = DeputyLink::new(repo.snapshot(), 2);
        let apply = |workload: f64| repo.apply_event(sample("h", workload).event, true).1.unwrap();
        for i in 0..6 {
            let payload = apply(i as f64);
            link.ship(&payload, || repo.state_hash()).unwrap();
        }
        assert_eq!(link.stats().frames, 6);
        assert_eq!(link.stats().divergences, 0);
        link.check(repo.state_hash()).unwrap();

        // Inject divergence: corrupt the replica's copy directly.
        link.replica_mut().state_mut().resources.set_status("h", HostStatus::Down);
        let payload = apply(9.0);
        let err = loop {
            if let Err(e) = link.ship(&payload, || repo.state_hash()) {
                break e;
            }
        };
        assert!(matches!(err, ReplicationError::Divergence { .. }));
        assert_eq!(link.stats().divergences, 1, "sticky error counted once");
    }
}
