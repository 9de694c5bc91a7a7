//! Checkpoint-restart support (ROADMAP: "checkpoint-restart instead of
//! restart-from-zero").
//!
//! PR-2 recovery restarts migrated tasks from zero, which is where the
//! 1.34–1.48× host-crash inflation came from. This module adds the
//! missing persistence layer:
//!
//! - [`CheckpointPolicy`] — *when* checkpoints are taken (a fraction of
//!   task work per interval) and *what they cost* (a fraction of task
//!   work per write). [`CheckpointPolicy::run_plan`] turns the policy
//!   into the deterministic timeline of one task run: total duration
//!   plus the offset/progress/cost of every planned checkpoint. Both
//!   the real executor and the virtual-clock replay consume the same
//!   plan, so measured overhead and simulated overhead agree by
//!   construction.
//! - [`CheckpointStore`] — the durable record: the journaled
//!   [`CheckpointState`] (per-task sequences of [`ControlCheckpoint`]s,
//!   each tagged with the hosts it is stored on) plus each checkpoint's
//!   produced-output payloads. Restart asks for
//!   [`CheckpointStore::latest_valid`]: the newest checkpoint with at
//!   least one *reachable* replica — a checkpoint whose only copies sit
//!   on a crashed or quarantined host is unusable, and the store falls
//!   back to the next-newest reachable one (or nothing, which means
//!   restart-from-zero).
//!
//! Dataflow tasks persist their completed fraction plus produced-output
//! payloads (so a resumed consumer can re-deliver without re-executing).
//! Policies default to **disabled** so every pre-checkpoint baseline
//! keeps its exact behaviour.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use vdce_afg::TaskId;
use vdce_store::Journal;

/// When checkpoints are taken and what each write costs, both expressed
/// as fractions of the task's full work so the policy is
/// placement-independent.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CheckpointPolicy {
    /// Fraction of the task's full work between consecutive checkpoints.
    /// `0` (or `>= 1`) disables checkpointing.
    pub(crate) interval_fraction: f64,
    /// Fraction of the task's full work one checkpoint write costs.
    pub(crate) overhead_fraction: f64,
    /// Adapt the interval to the observed failure rate: when an MTBF
    /// estimate is available (see [`MtbfEstimator`]), the effective
    /// interval follows Young's approximation `T_opt = √(2·C·MTBF)`
    /// instead of the fixed `interval_fraction`; with no failures
    /// observed yet the fixed interval is used unchanged.
    #[serde(default)]
    pub adaptive: bool,
    /// Replicate every checkpoint to a host on another site, so a task
    /// whose whole home site dies can still resume. The replication
    /// transfer of `state_bytes` is charged through the network model —
    /// replicas are durable only once the transfer completes.
    #[serde(default)]
    pub replicate_cross_site: bool,
    /// Serialized size of one checkpoint (progress, outputs, DSM pages)
    /// for replication-traffic accounting.
    #[serde(default)]
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
            adaptive: false,
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
        self.run_plan_with_interval(full_work, resume_from, self.interval_fraction)
    }

    /// [`CheckpointPolicy::run_plan`] with the interval adapted to an
    /// MTBF estimate (see [`CheckpointPolicy::adaptive`]): pass the
    /// current [`MtbfEstimator::mtbf`]. With `adaptive: false` or no
    /// estimate yet, this is exactly `run_plan`.
    pub fn run_plan_adaptive(
        &self,
        full_work: f64,
        resume_from: f64,
        mtbf: Option<f64>,
    ) -> RunPlan {
        self.run_plan_with_interval(
            full_work,
            resume_from,
            self.effective_interval(mtbf, full_work),
        )
    }

    /// The interval fraction actually used for a task of `full_work`
    /// seconds given an MTBF estimate. Young's approximation picks
    /// `T_opt = √(2·C·MTBF)` seconds between checkpoints, where `C` is
    /// the per-write cost in seconds; the result is clamped to
    /// `[0.02, 0.9]` of the task so a noisy estimate can neither thrash
    /// (checkpoint storms) nor disable checkpointing outright.
    pub(crate) fn effective_interval(&self, mtbf: Option<f64>, full_work: f64) -> f64 {
        if !self.adaptive || !self.is_enabled() {
            return self.interval_fraction;
        }
        let (Some(m), true) = (mtbf, full_work > 0.0 && self.overhead_fraction > 0.0) else {
            return self.interval_fraction;
        };
        if !(m.is_finite() && m > 0.0) {
            return self.interval_fraction;
        }
        let cost_s = self.overhead_fraction * full_work;
        let t_opt = (2.0 * cost_s * m).sqrt();
        (t_opt / full_work).clamp(0.02, 0.9)
    }

    fn run_plan_with_interval(&self, full_work: f64, resume_from: f64, interval: f64) -> RunPlan {
        let w = full_work.max(0.0);
        let r = resume_from.clamp(0.0, 1.0);
        let remaining = (1.0 - r) * w;
        if !self.is_enabled() || remaining <= 0.0 || interval <= 0.0 || interval >= 1.0 {
            return RunPlan { duration: remaining, checkpoints: Vec::new() };
        }
        let i = interval;
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

/// Exponentially weighted moving average of observed inter-failure
/// times — the MTBF estimate driving [`CheckpointPolicy::adaptive`].
///
/// Failures are fed in as absolute times via
/// [`MtbfEstimator::record_failure`]; the estimator tracks the gaps
/// between consecutive *distinct* failure times. Zero gaps (several
/// hosts dying at the same instant, e.g. a whole-site outage) are one
/// correlated event, not evidence of a zero MTBF, and leave the average
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtbfEstimator {
    /// EWMA smoothing factor in `(0, 1]`: weight of the newest gap.
    alpha: f64,
    last_failure: Option<f64>,
    ewma: Option<f64>,
}

impl MtbfEstimator {
    /// Estimator with smoothing factor `alpha` (weight of the newest
    /// inter-failure gap; `1.0` tracks only the latest gap).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        MtbfEstimator { alpha, last_failure: None, ewma: None }
    }

    /// Record a failure observed at absolute time `t` (seconds). Out of
    /// order observations are tolerated: the gap is measured from the
    /// latest failure seen so far.
    pub fn record_failure(&mut self, t: f64) {
        match self.last_failure {
            None => self.last_failure = Some(t),
            Some(prev) => {
                let gap = t - prev;
                if gap > 0.0 {
                    self.ewma = Some(match self.ewma {
                        None => gap,
                        Some(e) => self.alpha * gap + (1.0 - self.alpha) * e,
                    });
                    self.last_failure = Some(t);
                }
            }
        }
    }

    /// The current MTBF estimate, or `None` until two distinct failure
    /// times have been observed.
    pub fn mtbf(&self) -> Option<f64> {
        self.ewma
    }
}

/// One journaled mutation of the checkpoint store (the `ckpt` journal
/// tag). Only *control* fields are journaled: produced-output payloads
/// are data-plane state, re-derivable from task re-execution.
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

/// Produced-output payloads of one checkpoint, by out-port index.
type Outputs = BTreeMap<usize, Arc<[u8]>>;

/// What [`CheckpointStore::latest_valid`] returns for a checkpoint
/// recorded without outputs.
static NO_OUTPUTS: Outputs = BTreeMap::new();

/// The append-only checkpoint store: the journaled [`CheckpointState`]
/// plus each checkpoint's produced-output payloads, keyed by
/// `(task, seq)`. Dataflow tasks record their outputs so a fully
/// checkpointed task can re-deliver without re-executing; they are
/// data-plane state, re-derivable by re-execution, and not journaled.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    state: CheckpointState,
    outputs: BTreeMap<(TaskId, u64), Outputs>,
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
    /// `taken_at`, with copies on `stored_on` and `outputs` (empty for a
    /// task with nothing to re-deliver); returns the per-task sequence
    /// number assigned.
    pub fn record(
        &mut self,
        task: TaskId,
        progress: f64,
        taken_at: f64,
        stored_on: Vec<String>,
        outputs: Outputs,
    ) -> u64 {
        self.apply(&CheckpointEvent::Record { task, progress, taken_at, stored_on });
        let seq = self.state.by_task[&task].len() as u64 - 1;
        if !outputs.is_empty() {
            self.outputs.insert((task, seq), outputs);
        }
        seq
    }

    /// The newest checkpoint of `task` with at least one reachable
    /// replica, with the outputs recorded with it. A checkpoint stored
    /// only on unreachable (crashed or quarantined) hosts is skipped and
    /// the next-newest is considered — `None` means restart-from-zero.
    pub fn latest_valid(
        &self,
        task: TaskId,
        reachable: impl Fn(&str) -> bool,
    ) -> Option<(&ControlCheckpoint, &Outputs)> {
        let cps = self.state.by_task.get(&task)?;
        let cp = cps.iter().rev().find(|cp| cp.stored_on.iter().any(|h| reachable(h)))?;
        Some((cp, self.outputs.get(&(task, cp.seq)).unwrap_or(&NO_OUTPUTS)))
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

    /// Record an output-less checkpoint of `task` stored on `hosts`.
    fn rec(store: &mut CheckpointStore, task: u32, progress: f64, at: f64, hosts: &[&str]) -> u64 {
        let hosts = hosts.iter().map(|h| h.to_string()).collect();
        store.record(tid(task), progress, at, hosts, Outputs::new())
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
        assert_eq!(store.latest_valid(tid(0), |_| true).unwrap().0.progress, 0.5);
    }

    #[test]
    fn latest_valid_falls_back_past_unreachable_replicas() {
        let mut store = CheckpointStore::new();
        rec(&mut store, 0, 0.25, 1.0, &["alive"]);
        rec(&mut store, 0, 0.5, 2.0, &["dead"]);
        // Newest checkpoint sits on the dead host: fall back to 0.25.
        let (cp, _) = store.latest_valid(tid(0), |h| h != "dead").unwrap();
        assert_eq!(cp.progress, 0.25);
        // Any replica reachable keeps a checkpoint usable.
        rec(&mut store, 0, 0.75, 3.0, &["dead", "alive"]);
        let (cp, _) = store.latest_valid(tid(0), |h| h != "dead").unwrap();
        assert_eq!(cp.progress, 0.75);
        // Everything unreachable: restart from zero.
        assert!(store.latest_valid(tid(0), |_| false).is_none());
    }

    #[test]
    fn latest_valid_returns_the_outputs_of_the_checkpoint_it_falls_back_to() {
        let mut store = CheckpointStore::new();
        let payload = |b: u8| -> Arc<[u8]> { Arc::from(vec![b; 4]) };
        let older = Outputs::from([(0, payload(1)), (1, payload(2))]);
        let newer = Outputs::from([(0, payload(9))]);
        store.record(tid(0), 1.0, 1.0, vec!["alive".into()], older.clone());
        store.record(tid(0), 1.0, 2.0, vec!["dead".into()], newer.clone());
        rec(&mut store, 1, 1.0, 3.0, &["alive"]);
        // The newer checkpoint is unreachable: the older one comes back
        // with its own outputs, not the newer one's and not none.
        let (cp, outputs) = store.latest_valid(tid(0), |h| h != "dead").unwrap();
        assert_eq!((cp.seq, cp.taken_at), (0, 1.0));
        assert_eq!(*outputs, older);
        let (cp, outputs) = store.latest_valid(tid(0), |_| true).unwrap();
        assert_eq!((cp.seq, outputs), (1, &newer));
        // A checkpoint recorded without outputs has none.
        assert!(store.latest_valid(tid(1), |_| true).unwrap().1.is_empty());
    }

    #[test]
    fn mtbf_estimator_tracks_inter_failure_gaps() {
        let mut e = MtbfEstimator::new(0.5);
        assert_eq!(e.mtbf(), None);
        e.record_failure(10.0);
        assert_eq!(e.mtbf(), None, "one failure has no gap yet");
        e.record_failure(30.0);
        assert_eq!(e.mtbf(), Some(20.0), "first gap seeds the EWMA");
        e.record_failure(70.0);
        // 0.5 × 40 + 0.5 × 20 = 30.
        assert!((e.mtbf().unwrap() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn mtbf_estimator_ignores_simultaneous_failures() {
        let mut e = MtbfEstimator::new(0.5);
        e.record_failure(5.0);
        e.record_failure(5.0);
        e.record_failure(5.0);
        assert_eq!(e.mtbf(), None, "a correlated burst is one event");
        e.record_failure(25.0);
        assert_eq!(e.mtbf(), Some(20.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn mtbf_estimator_rejects_bad_alpha() {
        let _ = MtbfEstimator::new(0.0);
    }

    #[test]
    fn adaptive_interval_follows_youngs_approximation() {
        let p = CheckpointPolicy { adaptive: true, ..CheckpointPolicy::every(0.25, 0.02) };
        // No estimate yet: the fixed interval is used.
        assert_eq!(p.effective_interval(None, 100.0), 0.25);
        assert_eq!(p.run_plan_adaptive(100.0, 0.0, None), p.run_plan(100.0, 0.0));
        // MTBF 100s, cost 2s: T_opt = √(2·2·100) = 20s → 0.2 of the task.
        let i = p.effective_interval(Some(100.0), 100.0);
        assert!((i - 0.2).abs() < 1e-12, "got {i}");
        // Frequent failures shorten the interval, rare ones lengthen it,
        // and the clamp keeps both within [0.02, 0.9].
        assert!(p.effective_interval(Some(1.0), 100.0) < i);
        assert!(p.effective_interval(Some(10_000.0), 100.0) > i);
        assert_eq!(p.effective_interval(Some(1e-9), 100.0), 0.02);
        assert_eq!(p.effective_interval(Some(1e12), 100.0), 0.9);
        // Non-adaptive policies never move.
        let fixed = CheckpointPolicy::every(0.25, 0.02);
        assert_eq!(fixed.effective_interval(Some(100.0), 100.0), 0.25);
    }

    #[test]
    fn adaptive_plan_spaces_checkpoints_by_the_effective_interval() {
        let p = CheckpointPolicy { adaptive: true, ..CheckpointPolicy::every(0.25, 0.02) };
        let plan = p.run_plan_adaptive(100.0, 0.0, Some(100.0));
        // Effective interval 0.2 → boundaries at 20/40/60/80%.
        assert_eq!(plan.checkpoints.len(), 4);
        let progress: Vec<f64> = plan.checkpoints.iter().map(|c| c.progress).collect();
        for (got, want) in progress.iter().zip([0.2, 0.4, 0.6, 0.8]) {
            assert!((got - want).abs() < 1e-9, "{progress:?}");
        }
    }

    #[test]
    fn add_replica_extends_stored_on() {
        let mut store = CheckpointStore::new();
        let seq = rec(&mut store, 0, 0.5, 1.0, &["home"]);
        assert!(store.add_replica(tid(0), seq, "remote"));
        assert!(!store.add_replica(tid(0), seq, "remote"), "duplicate replica refused");
        assert!(!store.add_replica(tid(0), 99, "remote"), "unknown sequence refused");
        assert!(!store.add_replica(tid(7), 0, "remote"), "unknown task refused");
        let (cp, _) = store.latest_valid(tid(0), |_| true).unwrap();
        assert_eq!(cp.stored_on, vec!["home".to_string(), "remote".to_string()]);
        // The replica keeps the checkpoint valid when home is dead.
        let (valid, _) = store.latest_valid(tid(0), |h| h != "home").unwrap();
        assert_eq!(valid.progress, 0.5);
    }

    #[test]
    fn replica_policy_round_trips_and_defaults_off() {
        let p = CheckpointPolicy::every(0.1, 0.002).with_replicas(1 << 20);
        assert!(p.replicate_cross_site);
        let json = serde_json::to_string(&p).unwrap();
        let back: CheckpointPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // Old serialized policies (no new fields) still parse.
        let legacy: CheckpointPolicy =
            serde_json::from_str(r#"{"interval_fraction":0.25,"overhead_fraction":0.02}"#).unwrap();
        assert!(!legacy.adaptive);
        assert!(!legacy.replicate_cross_site);
        assert_eq!(legacy.state_bytes, 0);
    }

    #[test]
    fn mtbf_estimator_with_zero_failures_is_empty() {
        let e = MtbfEstimator::new(0.5);
        assert_eq!(e.mtbf(), None);
    }

    #[test]
    fn mtbf_estimator_with_a_single_failure_has_no_estimate() {
        let mut e = MtbfEstimator::new(0.3);
        e.record_failure(42.0);
        assert_eq!(e.mtbf(), None, "a gap needs two distinct failure times");
    }

    #[test]
    fn mtbf_estimator_tolerates_out_of_order_timestamps() {
        let mut e = MtbfEstimator::new(0.5);
        e.record_failure(100.0);
        // An observation from the past (clock skew between group
        // managers): a negative gap is not evidence about the failure
        // rate and must not poison the EWMA or move the latest-failure
        // watermark backwards.
        e.record_failure(40.0);
        assert_eq!(e.mtbf(), None);
        // The next in-order failure measures its gap from 100, not 40.
        e.record_failure(130.0);
        assert_eq!(e.mtbf(), Some(30.0));
        // A late straggler after an estimate exists: ignored by the
        // average.
        e.record_failure(10.0);
        assert_eq!(e.mtbf(), Some(30.0));
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
