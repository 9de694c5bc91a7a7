//! Checkpoint-restart support (DESIGN.md §11): the policy, its run
//! plan and the store the fault replay resumes from.
//!
//! - [`CheckpointPolicy`] — *when* checkpoints are taken (a fraction of
//!   task work per interval) and *what they cost* (a fraction of task
//!   work per write). [`CheckpointPolicy::run_plan`] turns the policy
//!   into the deterministic timeline of one task run: total duration
//!   plus the offset/progress/cost of every planned checkpoint. The
//!   fault replay (`vdce_sim`) prices every run it starts with it.
//! - [`CheckpointStore`] — the durable record: the journaled
//!   [`CheckpointState`] (per-task sequences of [`ControlCheckpoint`]s,
//!   each tagged with the hosts it is stored on). Restart asks for
//!   [`CheckpointStore::latest_valid`]: the newest checkpoint with at
//!   least one *reachable* replica — a checkpoint whose only copies sit
//!   on a crashed or quarantined host is unusable, and the store falls
//!   back to the next-newest reachable one (or nothing, which means
//!   restart-from-zero).
//!
//! Policies default to **disabled**: restart-from-zero.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vdce_afg::TaskId;
use vdce_store::Journal;

/// When checkpoints are taken and what each write costs, both expressed
/// as fractions of the task's full work so the policy is
/// placement-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Fraction of the task's full work between consecutive checkpoints.
    /// `0` (or `>= 1`) disables checkpointing.
    pub(crate) interval_fraction: f64,
    /// Fraction of the task's full work one checkpoint write costs.
    pub(crate) overhead_fraction: f64,
    /// Replicate every checkpoint to a host on another site, so a task
    /// whose whole home site dies can still resume. The replication
    /// transfer of `state_bytes` is charged through the network model —
    /// replicas are durable only once the transfer completes.
    pub replicate_cross_site: bool,
    /// Serialized size of one checkpoint (progress, outputs, DSM pages)
    /// for replication-traffic accounting.
    pub state_bytes: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::disabled()
    }
}

impl CheckpointPolicy {
    /// No checkpoints — the pre-checkpoint restart-from-zero behaviour.
    pub fn disabled() -> Self {
        CheckpointPolicy {
            interval_fraction: 0.0,
            overhead_fraction: 0.0,
            replicate_cross_site: false,
            state_bytes: 0,
        }
    }

    /// Checkpoint every `interval_fraction` of task work, paying
    /// `overhead_fraction` of task work per write.
    pub fn every(interval_fraction: f64, overhead_fraction: f64) -> Self {
        CheckpointPolicy { interval_fraction, overhead_fraction, ..CheckpointPolicy::disabled() }
    }

    /// This policy with cross-site replication of `state_bytes` per
    /// checkpoint turned on.
    pub fn with_replicas(mut self, state_bytes: u64) -> Self {
        self.replicate_cross_site = true;
        self.state_bytes = state_bytes;
        self
    }

    /// Does this policy take checkpoints at all?
    pub fn is_enabled(&self) -> bool {
        self.interval_fraction > 0.0 && self.interval_fraction < 1.0
    }

    /// The deterministic timeline of one task run under this policy.
    ///
    /// `full_work` is the task's full predicted seconds on its hosts;
    /// `resume_from` is the progress fraction restored from a checkpoint
    /// (`0.0` for a fresh start). A checkpoint that would land exactly at
    /// task completion is useless and is not planned.
    pub fn run_plan(&self, full_work: f64, resume_from: f64) -> RunPlan {
        let w = full_work.max(0.0);
        let r = resume_from.clamp(0.0, 1.0);
        let remaining = (1.0 - r) * w;
        if !self.is_enabled() || remaining <= 0.0 {
            return RunPlan { duration: remaining, checkpoints: Vec::new() };
        }
        let i = self.interval_fraction;
        let o = self.overhead_fraction.max(0.0);
        // Number of *useful* checkpoints: one per interval boundary
        // strictly inside the remaining work (the boundary at completion
        // is dropped).
        let n = (((1.0 - r) / i - 1e-9).ceil() as i64 - 1).max(0) as usize;
        let cost = o * w;
        let checkpoints = (1..=n)
            .map(|k| PlannedCheckpoint {
                offset: k as f64 * (i + o) * w,
                progress: r + k as f64 * i,
                cost,
            })
            .collect();
        RunPlan { duration: remaining + n as f64 * cost, checkpoints }
    }
}

/// One checkpoint in a [`RunPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedCheckpoint {
    /// Seconds after run start at which the write completes.
    pub offset: f64,
    /// Cumulative progress fraction the checkpoint persists.
    pub progress: f64,
    /// Seconds the write costs (already included in the run duration).
    pub cost: f64,
}

/// Duration and checkpoint timeline of one task run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Total run seconds: remaining work plus checkpoint overhead.
    pub duration: f64,
    /// Planned checkpoints, in offset order.
    pub checkpoints: Vec<PlannedCheckpoint>,
}

/// One journaled mutation of the checkpoint store (the `ckpt` journal
/// tag).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckpointEvent {
    /// [`CheckpointStore::record`]: a new checkpoint was persisted.
    Record {
        /// The task.
        task: TaskId,
        /// Completed fraction persisted.
        progress: f64,
        /// Time (clock seconds) the checkpoint was written.
        taken_at: f64,
        /// Hosts holding a copy.
        stored_on: Vec<String>,
    },
    /// [`CheckpointStore::add_replica`]: a replication transfer landed.
    AddReplica {
        /// The task.
        task: TaskId,
        /// Checkpoint sequence number.
        seq: u64,
        /// Host now holding a copy.
        host: String,
    },
}

/// The control-plane fields of one checkpoint — what the journal can
/// reconstruct after a Site Manager restart (see [`CheckpointEvent`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlCheckpoint {
    /// Per-task sequence number.
    pub seq: u64,
    /// Completed fraction persisted.
    pub progress: f64,
    /// Time (clock seconds) the checkpoint was written.
    pub taken_at: f64,
    /// Hosts holding a copy.
    pub stored_on: Vec<String>,
}

/// The control-plane state of a [`CheckpointStore`], serializable: the
/// state machine the live store and WAL replay apply
/// [`CheckpointEvent`]s to.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CheckpointState {
    /// Live checkpoints by task.
    pub(crate) by_task: BTreeMap<TaskId, Vec<ControlCheckpoint>>,
    /// Lifetime checkpoints recorded.
    pub taken: u64,
}

impl CheckpointState {
    /// Apply one event — the one transition of the checkpoint control
    /// state, which [`CheckpointStore`] and WAL replay both run. Returns
    /// whether it changed anything: a replica the checkpoint already has,
    /// or of a checkpoint that does not exist, is refused.
    pub(crate) fn apply(&mut self, event: &CheckpointEvent) -> bool {
        match event {
            CheckpointEvent::Record { task, progress, taken_at, stored_on } => {
                let seqs = self.by_task.entry(*task).or_default();
                let seq = seqs.len() as u64;
                seqs.push(ControlCheckpoint {
                    seq,
                    progress: *progress,
                    taken_at: *taken_at,
                    stored_on: stored_on.clone(),
                });
                self.taken += 1;
                true
            }
            CheckpointEvent::AddReplica { task, seq, host } => {
                let Some(cp) = self
                    .by_task
                    .get_mut(task)
                    .and_then(|cps| cps.iter_mut().find(|cp| cp.seq == *seq))
                else {
                    return false;
                };
                let fresh = !cp.stored_on.iter().any(|h| h == host);
                if fresh {
                    cp.stored_on.push(host.clone());
                }
                fresh
            }
        }
    }
}

/// The append-only checkpoint store: the journaled [`CheckpointState`].
#[derive(Debug, Default)]
pub struct CheckpointStore {
    state: CheckpointState,
    journal: Journal,
}

impl CheckpointStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a control-plane journal: every subsequent mutation is
    /// appended as a [`CheckpointEvent`] (tag `ckpt`) before it is
    /// applied.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// The control state: what snapshots write and recovery rebuilds.
    pub fn state(&self) -> &CheckpointState {
        &self.state
    }

    /// Journal `event` (write-ahead), then apply it.
    fn apply(&mut self, event: &CheckpointEvent) -> bool {
        if self.journal.is_enabled() {
            let payload = serde_json::to_string(event).expect("checkpoint events always serialize");
            self.journal.append("ckpt", &payload);
        }
        self.state.apply(event)
    }

    /// Persist a checkpoint of `task` at `progress`, written at
    /// `taken_at`, with copies on `stored_on`; returns the per-task
    /// sequence number assigned.
    pub fn record(
        &mut self,
        task: TaskId,
        progress: f64,
        taken_at: f64,
        stored_on: Vec<String>,
    ) -> u64 {
        self.apply(&CheckpointEvent::Record { task, progress, taken_at, stored_on });
        self.state.by_task[&task].len() as u64 - 1
    }

    /// The newest checkpoint of `task` with at least one reachable
    /// replica. A checkpoint stored only on unreachable (crashed or
    /// quarantined) hosts is skipped and the next-newest is considered —
    /// `None` means restart-from-zero.
    pub fn latest_valid(
        &self,
        task: TaskId,
        reachable: impl Fn(&str) -> bool,
    ) -> Option<&ControlCheckpoint> {
        let cps = self.state.by_task.get(&task)?;
        cps.iter().rev().find(|cp| cp.stored_on.iter().any(|h| reachable(h)))
    }

    /// Add a replica host to an existing checkpoint of `task` (a
    /// completed cross-site replication transfer). Returns `false` when
    /// the checkpoint does not exist or the host already holds a copy.
    pub fn add_replica(&mut self, task: TaskId, seq: u64, host: &str) -> bool {
        self.apply(&CheckpointEvent::AddReplica { task, seq, host: host.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: u32) -> TaskId {
        TaskId(i)
    }

    /// Record a checkpoint of `task` stored on `hosts`.
    fn rec(store: &mut CheckpointStore, task: u32, progress: f64, at: f64, hosts: &[&str]) -> u64 {
        let hosts = hosts.iter().map(|h| h.to_string()).collect();
        store.record(tid(task), progress, at, hosts)
    }

    #[test]
    fn disabled_policy_plans_no_checkpoints() {
        let p = CheckpointPolicy::disabled();
        assert!(!p.is_enabled());
        let plan = p.run_plan(100.0, 0.0);
        assert!(plan.checkpoints.is_empty());
        assert_eq!(plan.duration, 100.0);
        let plan = p.run_plan(100.0, 0.4);
        assert!((plan.duration - 60.0).abs() < 1e-12);
    }

    #[test]
    fn run_plan_spaces_checkpoints_by_interval() {
        let p = CheckpointPolicy::every(0.25, 0.02);
        let plan = p.run_plan(100.0, 0.0);
        // Boundaries at 25/50/75% of work; the one at 100% is useless.
        assert_eq!(plan.checkpoints.len(), 3);
        let offsets: Vec<f64> = plan.checkpoints.iter().map(|c| c.offset).collect();
        assert_eq!(offsets, vec![27.0, 54.0, 81.0]);
        let progress: Vec<f64> = plan.checkpoints.iter().map(|c| c.progress).collect();
        assert_eq!(progress, vec![0.25, 0.5, 0.75]);
        assert!(plan.checkpoints.iter().all(|c| (c.cost - 2.0).abs() < 1e-12));
        assert!((plan.duration - 106.0).abs() < 1e-12, "100s work + 3 × 2s writes");
    }

    #[test]
    fn run_plan_resumes_past_completed_intervals() {
        let p = CheckpointPolicy::every(0.25, 0.02);
        let plan = p.run_plan(100.0, 0.5);
        assert_eq!(plan.checkpoints.len(), 1, "only the 75% boundary remains");
        assert!((plan.checkpoints[0].progress - 0.75).abs() < 1e-12);
        assert!((plan.duration - 52.0).abs() < 1e-12, "50s remaining + one 2s write");
        // Fully resumed: nothing left to do.
        let done = p.run_plan(100.0, 1.0);
        assert_eq!(done.duration, 0.0);
        assert!(done.checkpoints.is_empty());
    }

    #[test]
    fn store_assigns_sequences_and_tracks_totals() {
        let mut store = CheckpointStore::new();
        let s0 = rec(&mut store, 0, 0.25, 1.0, &["a"]);
        let s1 = rec(&mut store, 0, 0.5, 2.0, &["a"]);
        let s2 = rec(&mut store, 1, 0.25, 1.0, &["b"]);
        assert_eq!((s0, s1, s2), (0, 1, 0));
        let state = store.state();
        assert_eq!(state.taken, 3);
        assert_eq!(state.by_task.len(), 2);
        assert_eq!(store.latest_valid(tid(0), |_| true).unwrap().progress, 0.5);
    }

    #[test]
    fn latest_valid_falls_back_past_unreachable_replicas() {
        let mut store = CheckpointStore::new();
        rec(&mut store, 0, 0.25, 1.0, &["alive"]);
        rec(&mut store, 0, 0.5, 2.0, &["dead"]);
        // Newest checkpoint sits on the dead host: fall back to 0.25.
        let cp = store.latest_valid(tid(0), |h| h != "dead").unwrap();
        assert_eq!(cp.progress, 0.25);
        // Any replica reachable keeps a checkpoint usable.
        rec(&mut store, 0, 0.75, 3.0, &["dead", "alive"]);
        let cp = store.latest_valid(tid(0), |h| h != "dead").unwrap();
        assert_eq!(cp.progress, 0.75);
        // Everything unreachable: restart from zero.
        assert!(store.latest_valid(tid(0), |_| false).is_none());
    }

    #[test]
    fn add_replica_extends_stored_on() {
        let mut store = CheckpointStore::new();
        let seq = rec(&mut store, 0, 0.5, 1.0, &["home"]);
        assert!(store.add_replica(tid(0), seq, "remote"));
        assert!(!store.add_replica(tid(0), seq, "remote"), "duplicate replica refused");
        assert!(!store.add_replica(tid(0), 99, "remote"), "unknown sequence refused");
        assert!(!store.add_replica(tid(7), 0, "remote"), "unknown task refused");
        let cp = store.latest_valid(tid(0), |_| true).unwrap();
        assert_eq!(cp.stored_on, vec!["home".to_string(), "remote".to_string()]);
        // The replica keeps the checkpoint valid when home is dead.
        let valid = store.latest_valid(tid(0), |h| h != "home").unwrap();
        assert_eq!(valid.progress, 0.5);
    }

    #[test]
    fn journaled_store_writes_ahead_and_state_replays() {
        let journal = Journal::enabled(vdce_store::SnapshotPolicy::manual());
        let mut store = CheckpointStore::new();
        store.attach_journal(journal.clone());
        let seq = rec(&mut store, 0, 0.5, 1.0, &["home"]);
        store.add_replica(tid(0), seq, "remote");
        rec(&mut store, 1, 0.25, 2.0, &["b"]);
        assert_eq!(journal.len(), 3, "every mutation journaled");

        // Replaying the journal onto a fresh state reproduces the
        // store's control-plane projection exactly.
        let mut replayed = CheckpointState::default();
        for (tag, payload) in journal.history() {
            assert_eq!(tag, "ckpt");
            let event: CheckpointEvent = serde_json::from_str(&payload).unwrap();
            replayed.apply(&event);
        }
        assert_eq!(replayed, *store.state());
        assert_eq!(replayed.taken, 2);
        assert_eq!(replayed.by_task.len(), 2);
        assert_eq!(
            replayed.by_task[&tid(0)][0].stored_on,
            vec!["home".to_string(), "remote".to_string()]
        );
    }

    #[test]
    fn rejected_mutations_replay_to_the_same_state() {
        // A journaled-but-rejected mutation (duplicate replica, unknown
        // task) must replay to the same no-op, or recovery would drift.
        let journal = Journal::enabled(vdce_store::SnapshotPolicy::manual());
        let mut store = CheckpointStore::new();
        store.attach_journal(journal.clone());
        let seq = rec(&mut store, 0, 0.5, 1.0, &["h"]);
        assert!(!store.add_replica(tid(0), seq, "h"), "duplicate host");
        assert!(!store.add_replica(tid(9), 0, "x"), "unknown task");
        let mut replayed = CheckpointState::default();
        for (_, payload) in journal.history() {
            replayed.apply(&serde_json::from_str(&payload).unwrap());
        }
        assert_eq!(replayed, *store.state());
    }

    #[test]
    fn control_state_serializes_deterministically() {
        let mut store = CheckpointStore::new();
        rec(&mut store, 2, 0.5, 1.5, &["a"]);
        rec(&mut store, 0, 0.25, 1.0, &["b"]);
        let s = store.state();
        let json = serde_json::to_string(s).unwrap();
        assert_eq!(json, serde_json::to_string(&s.clone()).unwrap());
        let back: CheckpointState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, *s);
    }
}
