//! Deterministic fault replay with mid-execution recovery.
//!
//! [`replay`] executes an AFG against a generated [`Federation`] under a
//! [`FaultPlan`], driving the *real* runtime control plane on a virtual
//! clock: per-host Monitor daemons sample a [`SyntheticProbe`], Group
//! Managers apply the significant-change filter and echo-probe failure
//! detection, Site Managers fold control messages into deep-copied site
//! repositories, and a [`NetworkMonitor`] folds link probes into a
//! [`SharedNetworkModel`]. Faults enter the run exactly where real
//! faults would: crashes and outages flip the [`FlagEcho`] the echo
//! prober watches, link faults override the [`SyntheticLinkProbe`], and
//! load spikes are baked into the monitoring probe's traces.
//!
//! Recovery is the DESIGN.md §10 state machine: **detect** (echo probe /
//! monitor report) → **quarantine** ([`Quarantine`]) → **re-select**
//! ([`reselect_task`], local-first, sharing one [`PredictCache`]) →
//! **migrate** (terminate-and-restart on the new hosts) → **retry**
//! (bounded [`BackoffPolicy`] waits when no capacity is available).
//!
//! Site-level faults (DESIGN.md §12) ride the same machinery: a
//! [`Fault::SiteOutage`] expands into per-host kills plus severing every
//! WAN link of the site, a [`Fault::SitePartition`] severs the links
//! between two site groups. Ground-truth connectivity lives in a
//! [`PartitionState`]; the *detected* state comes from the
//! [`NetworkMonitor`]'s timed-out probes and gates re-selection, while
//! per-site [`SiteFailover`] trackers promote deputy Site Managers and
//! quarantine sites ([`SiteQuarantine`]) whose last host died. With
//! `replicate_cross_site` checkpoints additionally stream to the nearest
//! other site, each transfer charged through the network model, so a
//! whole-site loss resumes from a remote replica instead of zero.
//!
//! Everything is a pure function of `(federation, afg, plan, config)`:
//! state lives in `BTree*` collections, channels are drained in creation
//! order, and the only randomness is the plan seed — replaying twice
//! yields identical [`ReplayOutcome`]s (asserted by `exp_faults`).

use crate::faults::{Fault, FaultEvent, FaultPlan};
use crate::metrics::{FaultOutcome, RecoveryReport};
use crate::pool_gen::Federation;
use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vdce_afg::{Afg, TaskId};
use vdce_net::model::SharedNetworkModel;
use vdce_net::topology::SiteId;
use vdce_net::PartitionState;
use vdce_obs::{MetricsRegistry, Observer};
use vdce_predict::cache::PredictCache;
use vdce_repository::SiteRepository;
use vdce_runtime::durable::{ControlEvent, ControlState, DeputyLink, JournaledSiteEvent};
use vdce_runtime::events::{EventLog, RuntimeEvent};
use vdce_runtime::group::{FlagEcho, GroupManager};
use vdce_runtime::monitor::{MonitorDaemon, MonitorReport, SyntheticProbe};
use vdce_runtime::net_monitor::{NetworkMonitor, SyntheticLinkProbe};
use vdce_runtime::site_manager::{
    ControlMessage, FailoverEvent, SiteFailover, SiteManager, SiteTableEvent,
};
use vdce_runtime::{
    BackoffPolicy, CheckpointPolicy, CheckpointStore, DurableOptions, MtbfEstimator, Quarantine,
    SiteQuarantine, TaskCheckpoint,
};
use vdce_sched::{reselect_task, site_schedule_observed, SchedulerConfig};
use vdce_store::Journal;

/// Tunables of one replay.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Virtual seconds per simulation tick.
    pub tick: f64,
    /// Echo-probe period (failure-detection granularity).
    pub echo_period: f64,
    /// Group Manager significant-change threshold.
    pub significance_threshold: f64,
    /// Workload above which a running task's host is considered
    /// overloaded and eviction is attempted.
    pub load_threshold: f64,
    /// Retry/backoff policy for tasks that cannot be placed.
    pub backoff: BackoffPolicy,
    /// Scheduler used for the initial allocation.
    pub scheduler: SchedulerConfig,
    /// Checkpoint policy every task runs under. Disabled by default —
    /// the pre-checkpoint restart-from-zero behaviour, bit for bit.
    pub checkpoint: CheckpointPolicy,
    /// Hard stop: the replay aborts (remaining tasks fail) at this
    /// virtual time.
    pub max_time: f64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            tick: 1.0,
            echo_period: 4.0,
            significance_threshold: 0.5,
            load_threshold: 4.0,
            backoff: BackoffPolicy::default(),
            scheduler: SchedulerConfig::default(),
            checkpoint: CheckpointPolicy::disabled(),
            max_time: 20_000.0,
        }
    }
}

impl ReplayConfig {
    /// Config whose clocks are scaled to an estimated fault-free
    /// makespan, so detection granularity and backoff stay proportionate
    /// across workloads of very different absolute durations.
    pub fn scaled_to(makespan_estimate: f64) -> Self {
        let tick = (makespan_estimate / 64.0).max(1e-3);
        ReplayConfig {
            tick,
            echo_period: 4.0 * tick,
            backoff: BackoffPolicy {
                base_s: 2.0 * tick,
                factor: 2.0,
                max_s: 16.0 * tick,
                max_retries: 6,
            },
            max_time: (makespan_estimate * 50.0).max(100.0 * tick),
            ..ReplayConfig::default()
        }
    }
}

/// Execution state of one task during a replay.
#[derive(Debug, Clone, PartialEq)]
enum TaskState {
    /// Placed, waiting for inputs / host availability.
    Pending,
    /// Backing off until `resume_at`, then re-selecting.
    Waiting {
        /// Virtual time to retry placement.
        resume_at: f64,
    },
    /// Executing on `hosts` until `end`.
    Running {
        /// Virtual start.
        start: f64,
        /// Virtual finish.
        end: f64,
    },
    /// Finished at `end`.
    Completed {
        /// Virtual finish.
        end: f64,
    },
    /// Exhausted its retries or lost an ancestor.
    Failed,
}

/// What one replay produced. Pure function of its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Max completion time over completed tasks (0 when none completed).
    pub makespan: f64,
    /// Tasks that completed.
    pub tasks_completed: u64,
    /// Tasks that failed (retries exhausted, or a failed ancestor).
    pub tasks_failed: u64,
    /// Terminate-and-migrate events (host set changed on restart).
    pub migrations: u64,
    /// Backoff retries scheduled.
    pub retries: u64,
    /// Hosts ever quarantined.
    pub quarantined_total: u64,
    /// Hosts re-admitted from quarantine.
    pub readmitted_total: u64,
    /// Hosts still quarantined at the end.
    pub quarantined_at_end: u64,
    /// Per-fault detection latency (plan order); `None` = unobserved.
    pub detections: Vec<Option<f64>>,
    /// Per-fault recovery verdict (plan order).
    pub recovered: Vec<bool>,
    /// Hosts each task last ran on (empty when it never ran).
    pub final_hosts: Vec<Vec<String>>,
    /// Checkpoints recorded (0 under a disabled policy).
    pub checkpoints_taken: u64,
    /// Virtual seconds spent on checkpoint writes across all runs.
    pub checkpoint_overhead: f64,
    /// Progress fraction each restart resumed from, in restart order
    /// (`0.0` = restart-from-zero).
    pub resumed_progress: Vec<f64>,
    /// Σ resumed / Σ progress-lost-at-kill (`1.0` when nothing was
    /// killed): how much in-flight work checkpoints salvaged.
    pub recovered_work_fraction: f64,
    /// Deputy promotions: a site's acting manager died and another live
    /// host of the site took the role over.
    pub site_failovers: u64,
    /// Sites quarantined at federation level (lifetime count).
    pub sites_quarantined: u64,
    /// Sites still quarantined at the end.
    pub sites_quarantined_at_end: u64,
    /// Completed cross-site checkpoint replication transfers.
    pub replica_transfers: u64,
    /// Checkpoint-state bytes pushed across sites (initiated transfers).
    pub replica_bytes: u64,
    /// Per restart under a checkpoint policy: `(resumed, best_reachable)`
    /// where `best_reachable` is the newest checkpoint progress stored on
    /// any ground-truth-up host at restart time. `resumed <
    /// best_reachable` means detection lag hid a usable replica.
    pub resumes: Vec<(f64, f64)>,
}

/// Fixed detection-latency histogram bounds (virtual seconds). Fixed at
/// compile time so bucket counts are comparable across runs and
/// platforms.
pub const DETECTION_LATENCY_BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 120.0];

impl ReplayOutcome {
    /// Export the outcome into `m` under the `replay.` namespace. Every
    /// value is a pure function of the replay inputs, so two replays of
    /// the same scenario export identical deterministic snapshots.
    /// Counters *add*, so exporting several outcomes into one registry
    /// accumulates across runs.
    pub fn export_metrics(&self, m: &MetricsRegistry) {
        m.counter_add("replay.tasks_completed", self.tasks_completed);
        m.counter_add("replay.tasks_failed", self.tasks_failed);
        m.counter_add("replay.migrations", self.migrations);
        m.counter_add("replay.retries", self.retries);
        m.counter_add("replay.quarantined_total", self.quarantined_total);
        m.counter_add("replay.readmitted_total", self.readmitted_total);
        m.counter_add("replay.checkpoints_taken", self.checkpoints_taken);
        m.counter_add("replay.site_failovers", self.site_failovers);
        m.counter_add("replay.sites_quarantined", self.sites_quarantined);
        m.counter_add("replay.replica_transfers", self.replica_transfers);
        m.counter_add("replay.replica_bytes", self.replica_bytes);
        m.gauge_set("replay.makespan", self.makespan);
        m.gauge_set("replay.checkpoint_overhead", self.checkpoint_overhead);
        m.gauge_set("replay.recovered_work_fraction", self.recovered_work_fraction);
        for d in self.detections.iter().flatten() {
            m.observe("replay.detection_latency", DETECTION_LATENCY_BOUNDS, *d);
        }
    }
}

/// One site's control-plane stack inside the replay.
struct SiteStack {
    manager: SiteManager,
    group: GroupManager,
    daemons: Vec<MonitorDaemon>,
    monitor_rx: Receiver<MonitorReport>,
    control_rx: Receiver<ControlMessage>,
}

/// Replay `afg` on `federation` under `plan`. See the module docs for
/// the tick pipeline; deterministic in all four arguments.
pub fn replay(
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
) -> ReplayOutcome {
    replay_observed(federation, afg, plan, cfg, &Observer::disabled())
}

/// [`replay`] with observability: the same outcome bit for bit, plus
/// every [`RuntimeEvent`] mirrored into `obs.trace` at its virtual
/// timestamp, scheduler metrics from the initial allocation, and the
/// outcome exported into `obs.metrics` via
/// [`ReplayOutcome::export_metrics`]. With a disabled trace sink this
/// *is* [`replay`] — the mirroring short-circuits.
pub fn replay_observed(
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
    obs: &Observer,
) -> ReplayOutcome {
    replay_inner(federation, afg, plan, cfg, obs, None)
}

/// [`replay_observed`] with the durable control plane on (DESIGN.md
/// §16): every control-plane mutation — repository events, checkpoint
/// records, site-table transitions, runtime log appends — is journaled
/// write-ahead through `durable.journal`, state snapshots are installed
/// on the journal's cadence (plus one of the initial state, so recovery
/// never depends on re-running setup), each Site Manager ships its
/// repository events to a deputy replica with periodic state-hash
/// checks, and the final state is sealed for the recovery harness.
/// The returned outcome is bit-identical to the un-journaled replay —
/// durability only observes.
pub fn replay_durable(
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
    obs: &Observer,
    durable: &DurableOptions,
) -> ReplayOutcome {
    replay_inner(federation, afg, plan, cfg, obs, Some(durable))
}

/// Journal a site-table liveness transition (`site` tag) ahead of
/// applying it to the live failover tracker. No-op when disabled.
fn journal_site(journal: &Journal, site: SiteId, event: SiteTableEvent) {
    if journal.is_enabled() {
        let ev = ControlEvent::Site(JournaledSiteEvent { site: site.0, event });
        journal.append(ev.tag(), &ev.payload());
    }
}

fn replay_inner(
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
    obs: &Observer,
    durable: Option<&DurableOptions>,
) -> ReplayOutcome {
    let sites = federation.topology.site_count();
    let n = afg.task_count();
    let journal = durable.map_or_else(Journal::disabled, |d| d.journal.clone());
    let log = EventLog::traced(obs.trace.clone()).with_journal(journal.clone());
    let quarantine = Quarantine::new();

    // Deep-copy every repository so the caller's federation is untouched
    // and repeated replays start from identical state.
    let repos: Vec<SiteRepository> =
        federation.repos.iter().map(|r| SiteRepository::from_snapshot(r.snapshot())).collect();
    for (i, repo) in repos.iter().enumerate() {
        repo.attach_journal(i as u16, journal.clone());
    }

    // Host name → owning site.
    let mut host_site: BTreeMap<String, SiteId> = BTreeMap::new();
    for site in federation.topology.sites() {
        for h in &site.hosts {
            host_site.insert(h.clone(), site.id);
        }
    }

    // --- Initial allocation (site 0 is the home site). -----------------
    let views: Vec<_> = repos
        .iter()
        .enumerate()
        .map(|(i, r)| vdce_sched::SiteView::capture(SiteId(i as u16), r))
        .collect();
    let table = site_schedule_observed(
        afg,
        &views[0],
        &views[1..],
        &federation.net,
        &cfg.scheduler,
        &obs.metrics,
    )
    .expect("replay requires a schedulable AFG");
    let levels = views[0].levels(afg).expect("AFG is a DAG");

    // Current placement per task: (site, hosts, predicted seconds).
    let mut placement: Vec<(SiteId, Vec<String>, f64)> = afg
        .task_ids()
        .map(|t| {
            let p = table.placement(t).expect("complete table");
            (p.site, p.hosts.to_vec(), p.predicted_seconds)
        })
        .collect();

    // --- Monitoring / control plane. -----------------------------------
    let probe = Arc::new(SyntheticProbe::new(0.0, 1 << 30));
    for f in &plan.faults {
        if let Fault::LoadSpike { host, at, height, duration } = f {
            probe.add_spike(host.clone(), *at, *height, *duration);
        }
    }
    let echo = Arc::new(FlagEcho::new());
    let mut stacks: Vec<SiteStack> = Vec::with_capacity(sites);
    for (i, repo) in repos.iter().enumerate() {
        let site = SiteId(i as u16);
        let (ctl_tx, ctl_rx) = unbounded();
        let (mon_tx, mon_rx) = unbounded();
        let hosts = federation.hosts(site);
        let daemons: Vec<MonitorDaemon> = hosts
            .iter()
            .map(|h| MonitorDaemon::new(h.clone(), probe.clone(), mon_tx.clone(), log.clone()))
            .collect();
        let mut manager = SiteManager::new(site, repo.clone());
        if let Some(d) = durable {
            // The deputy's replica starts from the leader's state at
            // attach time — before any tick mutates the repository.
            manager = manager.with_deputy(Arc::new(Mutex::new(DeputyLink::new(
                repo.snapshot(),
                d.deputy_check_every,
            ))));
        }
        stacks.push(SiteStack {
            manager,
            group: GroupManager::new(
                format!("s{i}-gm"),
                hosts,
                cfg.significance_threshold,
                echo.clone(),
                ctl_tx,
                log.clone(),
            ),
            daemons,
            monitor_rx: mon_rx,
            control_rx: ctl_rx,
        });
    }

    // Network plane: EMA weight 1.0 so the model tracks the probe
    // exactly; the probe is pre-seeded with every pristine link so
    // monitor rounds never clobber un-faulted heterogeneous links.
    let shared_net = SharedNetworkModel::new(federation.net.clone(), 1.0);
    let link_probe = Arc::new(SyntheticLinkProbe::new(1.0, 1.0));
    for a in 0..sites as u16 {
        for b in a..sites as u16 {
            let l = federation.net.link(SiteId(a), SiteId(b));
            link_probe.set(SiteId(a), SiteId(b), l.latency_s, l.bandwidth_bps);
        }
    }
    let net_mon = NetworkMonitor::new(shared_net.clone(), link_probe.clone(), sites);
    let cache = PredictCache::new();

    // --- Fault bookkeeping. ---------------------------------------------
    let timeline = plan.timeline(cfg.tick);
    let mut next_event = 0usize;
    let mut detections: Vec<Option<f64>> = vec![None; plan.faults.len()];
    // First time a degrade of fault i actually hit the link probe.
    let mut degrade_applied: BTreeMap<usize, f64> = BTreeMap::new();
    let quiesce_t = timeline.iter().map(|e| e.t).fold(0.0f64, f64::max)
        + plan
            .faults
            .iter()
            .map(|f| match f {
                Fault::LoadSpike { at, duration, .. } => at + duration,
                _ => 0.0,
            })
            .fold(0.0f64, f64::max)
            .max(0.0);
    let quiesce_t = quiesce_t + 2.0 * cfg.echo_period;

    // --- Task bookkeeping. ----------------------------------------------
    let mut state: Vec<TaskState> = vec![TaskState::Pending; n];
    let mut attempts: Vec<u32> = vec![0; n];
    let mut floor: Vec<f64> = vec![0.0; n];
    let mut finish: Vec<f64> = vec![0.0; n];
    let mut last_hosts: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut host_free: BTreeMap<String, f64> = BTreeMap::new();
    let mut dead: BTreeSet<String> = BTreeSet::new();
    let edge_idx = afg.edge_index();
    let mut migrations = 0u64;
    let mut retries = 0u64;

    // --- Checkpoint bookkeeping (DESIGN.md §11). ------------------------
    // Ground-truth host liveness from the fault-plan timeline (distinct
    // from `dead`, which only fills once the control plane *detects* a
    // failure): a checkpoint written while its host is actually down is
    // lost, whether or not anyone has noticed yet.
    let mut down_now: BTreeSet<String> = BTreeSet::new();
    let store = CheckpointStore::new();
    store.attach_journal(journal.clone());
    // Per task, for its current run: planned checkpoints still to flush
    // as (absolute completion time, progress, cost), the resume fraction
    // the run started from, its full work, and checkpoint cost already
    // paid (needed to convert elapsed time back into progress on a kill).
    let mut pending_ckpts: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); n];
    let mut resume_from: Vec<f64> = vec![0.0; n];
    let mut run_w: Vec<f64> = vec![0.0; n];
    let mut done_ckpt_cost: Vec<f64> = vec![0.0; n];
    let mut checkpoints_taken = 0u64;
    let mut checkpoint_overhead = 0.0f64;
    let mut resumed_progress: Vec<f64> = Vec::new();
    let mut lost_progress_sum = 0.0f64;
    // Lexicographically-ordered hosts per site, for replica selection.
    let site_hosts_sorted: Vec<Vec<String>> = (0..sites)
        .map(|i| {
            let mut h = federation.hosts(SiteId(i as u16));
            h.sort();
            h
        })
        .collect();

    // --- Site-level fault bookkeeping (DESIGN.md §12). ------------------
    // Ground-truth connectivity (what the fault plan actually cut) versus
    // the state the network monitor has *detected* through timed-out
    // probes — re-selection filters on the detected view, transfers and
    // replica landings obey the ground truth.
    let mut severed_now = PartitionState::new();
    let mut detected_part = PartitionState::new();
    let site_quarantine = SiteQuarantine::new();
    let mut failover: Vec<SiteFailover> = federation
        .topology
        .sites()
        .iter()
        .map(|s| SiteFailover::new(s.id, s.server_host.clone(), &s.hosts))
        .collect();
    // Durable runs start from a seq-0 snapshot of the fully set-up
    // control plane, so recovery is pure `snapshot + replay` — it never
    // re-runs setup (administrative repository writes happen before the
    // journal attaches and are only restored through this snapshot).
    if durable.is_some() {
        let initial = ControlState::capture(&repos, &store, &failover, &log);
        let (bytes, hash) = initial.to_hashed_bytes();
        journal.install_snapshot(bytes, hash);
    }
    let mut site_failovers = 0u64;
    let mut mtbf = MtbfEstimator::new(0.5);
    // First time a partition of fault i actually severed links.
    let mut partition_applied: BTreeMap<usize, f64> = BTreeMap::new();
    // In-flight cross-site checkpoint replications, in initiation order:
    // (ready_at, task, seq, src site, dst site, target host).
    let mut pending_replicas: Vec<(f64, TaskId, u64, SiteId, SiteId, String)> = Vec::new();
    let mut replica_transfers = 0u64;
    let mut replica_bytes = 0u64;
    let mut resumes: Vec<(f64, f64)> = Vec::new();

    // Flush every planned checkpoint of `task`'s current run due by `t`:
    // the write's cost is always paid (it is part of the run duration),
    // but the checkpoint is only *recorded* when every executing host is
    // actually up — a host dying under the write loses it. Surviving
    // checkpoints get a same-site replica (the lexicographically smallest
    // other up host) so a later crash of the executing host does not
    // strand them. Returns `(seq, write time)` of each checkpoint
    // recorded, for cross-site replication.
    #[allow(clippy::too_many_arguments)]
    fn flush_due_checkpoints(
        task: TaskId,
        t: f64,
        eps: f64,
        exec_hosts: &[String],
        site_hosts: &[String],
        pending: &mut Vec<(f64, f64, f64)>,
        down_now: &BTreeSet<String>,
        store: &CheckpointStore,
        checkpoints_taken: &mut u64,
        checkpoint_overhead: &mut f64,
        done_cost: &mut f64,
    ) -> Vec<(u64, f64)> {
        let mut recorded = Vec::new();
        while let Some(&(at, progress, cost)) = pending.first() {
            if at > t + eps {
                break;
            }
            pending.remove(0);
            *checkpoint_overhead += cost;
            *done_cost += cost;
            if exec_hosts.iter().any(|h| down_now.contains(h)) {
                continue; // host died under the write: checkpoint lost
            }
            let mut stored_on: Vec<String> = exec_hosts.to_vec();
            if let Some(replica) =
                site_hosts.iter().find(|h| !down_now.contains(*h) && !exec_hosts.contains(*h))
            {
                stored_on.push(replica.clone());
            }
            let seq = store.record(TaskCheckpoint::new(task, progress, at, stored_on));
            *checkpoints_taken += 1;
            recorded.push((seq, at));
        }
        recorded
    }

    // Queue one cross-site replication per newly recorded checkpoint:
    // the target is the nearest other site (by modelled transfer time of
    // the state payload, ties to the smaller id) that is not quarantined,
    // is detected-reachable from the source, and still has a live host
    // (its lexicographically smallest non-dead one). The transfer is
    // charged through the network model — the copy only becomes usable at
    // `write_t + transfer_time`, and it still has to *land* (step 2.6).
    #[allow(clippy::too_many_arguments)]
    fn enqueue_replicas(
        task: TaskId,
        src: SiteId,
        recorded: &[(u64, f64)],
        bytes: u64,
        net: &vdce_net::model::NetworkModel,
        sites: usize,
        site_hosts_sorted: &[Vec<String>],
        dead: &BTreeSet<String>,
        site_q: &SiteQuarantine,
        detected: &PartitionState,
        pending: &mut Vec<(f64, TaskId, u64, SiteId, SiteId, String)>,
        replica_bytes: &mut u64,
    ) {
        if recorded.is_empty() {
            return;
        }
        let mut best: Option<(f64, SiteId, &String)> = None;
        for (i, hosts) in site_hosts_sorted.iter().enumerate() {
            let dst = SiteId(i as u16);
            if dst == src || site_q.contains(dst) || !detected.reachable(src, dst, sites) {
                continue;
            }
            let Some(host) = hosts.iter().find(|h| !dead.contains(*h)) else {
                continue;
            };
            let cost = net.transfer_time(src, dst, bytes);
            if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best = Some((cost, dst, host));
            }
        }
        let Some((cost, dst, host)) = best else { return };
        for &(seq, write_t) in recorded {
            pending.push((write_t + cost, task, seq, src, dst, host.clone()));
            *replica_bytes += bytes;
        }
    }

    // Progress fraction a run killed at `t` had actually reached: the
    // resume floor plus useful elapsed seconds (checkpoint writes paid so
    // far are not useful work) over full work.
    fn progress_at_kill(start: f64, t: f64, resume: f64, w: f64, done_cost: f64) -> f64 {
        if w <= 1e-12 {
            return resume;
        }
        (resume + ((t - start) - done_cost) / w).clamp(resume, 1.0)
    }

    // Task order for the start step: level desc, id asc — the same
    // contention tie-break `makespan::evaluate` applies.
    let mut by_priority: Vec<TaskId> = afg.task_ids().collect();
    by_priority.sort_by(|a, b| {
        levels[b.index()]
            .partial_cmp(&levels[a.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });

    let eps = 1e-9;
    let mut t = 0.0f64;
    let mut next_echo = 0.0f64;

    // Schedule a backoff wait for `task`, or fail it when exhausted.
    let schedule_retry = |task: TaskId,
                          t: f64,
                          state: &mut Vec<TaskState>,
                          attempts: &mut Vec<u32>,
                          retries: &mut u64,
                          log: &EventLog,
                          cfg: &ReplayConfig| {
        attempts[task.index()] += 1;
        let attempt = attempts[task.index()];
        if attempt > cfg.backoff.max_retries {
            state[task.index()] = TaskState::Failed;
        } else {
            *retries += 1;
            log.emit(t, RuntimeEvent::TaskRetried { task, attempt });
            state[task.index()] =
                TaskState::Waiting { resume_at: t + cfg.backoff.delay(attempt - 1) };
        }
    };

    loop {
        let all_terminal =
            state.iter().all(|s| matches!(s, TaskState::Completed { .. } | TaskState::Failed));
        if (all_terminal && t > quiesce_t + eps) || t > cfg.max_time {
            break;
        }

        // 1. Completions due by now.
        for task in afg.task_ids() {
            if let TaskState::Running { start, end } = state[task.index()] {
                if end <= t + eps {
                    state[task.index()] = TaskState::Completed { end };
                    finish[task.index()] = end;
                    let node = afg.task(task);
                    let (site, hosts, predicted) = placement[task.index()].clone();
                    // The one place both endpoints of the task's final
                    // run are known: close its logical-time span.
                    obs.trace.span(
                        start,
                        end,
                        "task_run",
                        vec![
                            ("task".to_string(), node.name.clone().into()),
                            ("site".to_string(), site.0.into()),
                            ("hosts".to_string(), hosts.join("+").into()),
                        ],
                    );
                    // Every planned checkpoint of this run lands before
                    // its completion — flush any not yet processed.
                    let recorded = flush_due_checkpoints(
                        task,
                        end,
                        eps,
                        &hosts,
                        &site_hosts_sorted[site.index()],
                        &mut pending_ckpts[task.index()],
                        &down_now,
                        &store,
                        &mut checkpoints_taken,
                        &mut checkpoint_overhead,
                        &mut done_ckpt_cost[task.index()],
                    );
                    if cfg.checkpoint.replicate_cross_site {
                        enqueue_replicas(
                            task,
                            site,
                            &recorded,
                            cfg.checkpoint.state_bytes,
                            &federation.net,
                            sites,
                            &site_hosts_sorted,
                            &dead,
                            &site_quarantine,
                            &detected_part,
                            &mut pending_replicas,
                            &mut replica_bytes,
                        );
                    }
                    for h in &hosts {
                        host_free.insert(h.clone(), end);
                    }
                    // Execution-time write-back (§4.1 function 2).
                    stacks[site.index()].manager.process(&ControlMessage::ExecutionCompleted {
                        library_task: node.library_task.clone(),
                        host: hosts[0].clone(),
                        problem_size: node.problem_size,
                        seconds: predicted,
                    });
                }
            }
        }

        // 2. Fault-plan events due by now.
        while next_event < timeline.len() && timeline[next_event].t <= t + eps {
            let ev = &timeline[next_event];
            match &ev.event {
                FaultEvent::HostDown { host } => {
                    // Checkpoints that came due before the crash instant
                    // physically completed — flush them for the victim's
                    // running tasks before marking it down, so the tick
                    // granularity of step 2.5 does not retroactively
                    // lose them.
                    if cfg.checkpoint.is_enabled() {
                        for task in afg.task_ids() {
                            if !matches!(state[task.index()], TaskState::Running { .. }) {
                                continue;
                            }
                            let (site, hosts, _) = placement[task.index()].clone();
                            if !hosts.contains(host) {
                                continue;
                            }
                            let recorded = flush_due_checkpoints(
                                task,
                                ev.t,
                                eps,
                                &hosts,
                                &site_hosts_sorted[site.index()],
                                &mut pending_ckpts[task.index()],
                                &down_now,
                                &store,
                                &mut checkpoints_taken,
                                &mut checkpoint_overhead,
                                &mut done_ckpt_cost[task.index()],
                            );
                            if cfg.checkpoint.replicate_cross_site {
                                enqueue_replicas(
                                    task,
                                    site,
                                    &recorded,
                                    cfg.checkpoint.state_bytes,
                                    &federation.net,
                                    sites,
                                    &site_hosts_sorted,
                                    &dead,
                                    &site_quarantine,
                                    &detected_part,
                                    &mut pending_replicas,
                                    &mut replica_bytes,
                                );
                            }
                        }
                    }
                    down_now.insert(host.clone());
                    echo.kill(host.clone());
                }
                FaultEvent::HostUp { host } => {
                    down_now.remove(host);
                    echo.revive(host);
                }
                FaultEvent::LinkDegrade { a, b, latency_factor, bandwidth_factor } => {
                    let l = federation.net.link(SiteId(*a), SiteId(*b));
                    link_probe.set(
                        SiteId(*a),
                        SiteId(*b),
                        l.latency_s * latency_factor,
                        l.bandwidth_bps * bandwidth_factor,
                    );
                    degrade_applied.entry(ev.fault).or_insert(ev.t);
                }
                FaultEvent::LinkRestore { a, b } => {
                    let l = federation.net.link(SiteId(*a), SiteId(*b));
                    link_probe.set(SiteId(*a), SiteId(*b), l.latency_s, l.bandwidth_bps);
                }
                FaultEvent::SiteDown { site } => {
                    let s = SiteId(*site);
                    // Same reasoning as HostDown: writes completed before
                    // the outage instant survive (on-site copies die with
                    // the site, but an already-initiated cross-site
                    // replica can still land).
                    if cfg.checkpoint.is_enabled() {
                        for task in afg.task_ids() {
                            if !matches!(state[task.index()], TaskState::Running { .. }) {
                                continue;
                            }
                            let (psite, hosts, _) = placement[task.index()].clone();
                            if !hosts.iter().any(|h| host_site.get(h) == Some(&s)) {
                                continue;
                            }
                            let recorded = flush_due_checkpoints(
                                task,
                                ev.t,
                                eps,
                                &hosts,
                                &site_hosts_sorted[psite.index()],
                                &mut pending_ckpts[task.index()],
                                &down_now,
                                &store,
                                &mut checkpoints_taken,
                                &mut checkpoint_overhead,
                                &mut done_ckpt_cost[task.index()],
                            );
                            if cfg.checkpoint.replicate_cross_site {
                                enqueue_replicas(
                                    task,
                                    psite,
                                    &recorded,
                                    cfg.checkpoint.state_bytes,
                                    &federation.net,
                                    sites,
                                    &site_hosts_sorted,
                                    &dead,
                                    &site_quarantine,
                                    &detected_part,
                                    &mut pending_replicas,
                                    &mut replica_bytes,
                                );
                            }
                        }
                    }
                    for h in &site_hosts_sorted[s.index()] {
                        down_now.insert(h.clone());
                        echo.kill(h.clone());
                    }
                    severed_now.isolate(s, sites);
                }
                FaultEvent::SiteUp { site } => {
                    let s = SiteId(*site);
                    for h in &site_hosts_sorted[s.index()] {
                        down_now.remove(h);
                        echo.revive(h);
                    }
                    severed_now.rejoin(s);
                }
                FaultEvent::PartitionStart { a, b } => {
                    let ga: Vec<SiteId> = a.iter().map(|s| SiteId(*s)).collect();
                    let gb: Vec<SiteId> = b.iter().map(|s| SiteId(*s)).collect();
                    severed_now.sever_groups(&ga, &gb);
                    partition_applied.entry(ev.fault).or_insert(ev.t);
                }
                FaultEvent::PartitionHeal { a, b } => {
                    let ga: Vec<SiteId> = a.iter().map(|s| SiteId(*s)).collect();
                    let gb: Vec<SiteId> = b.iter().map(|s| SiteId(*s)).collect();
                    severed_now.heal_groups(&ga, &gb);
                }
            }
            next_event += 1;
        }

        // Mirror ground-truth connectivity into the link probe so the
        // network monitor can *observe* cuts: probes on severed links
        // time out instead of reporting a measurement.
        for a in 0..sites as u16 {
            for b in (a + 1)..sites as u16 {
                if severed_now.is_severed(SiteId(a), SiteId(b)) {
                    link_probe.sever(SiteId(a), SiteId(b));
                } else {
                    link_probe.heal(SiteId(a), SiteId(b));
                }
            }
        }

        // 2.5. Flush planned checkpoints that came due on running tasks,
        // gated on the *ground-truth* liveness just updated: the flush
        // happens at tick granularity but `taken_at` keeps the planned
        // (backdated) write time, so the store is tick-size independent.
        if cfg.checkpoint.is_enabled() {
            for task in afg.task_ids() {
                if !matches!(state[task.index()], TaskState::Running { .. }) {
                    continue;
                }
                let (site, hosts, _) = placement[task.index()].clone();
                let recorded = flush_due_checkpoints(
                    task,
                    t,
                    eps,
                    &hosts,
                    &site_hosts_sorted[site.index()],
                    &mut pending_ckpts[task.index()],
                    &down_now,
                    &store,
                    &mut checkpoints_taken,
                    &mut checkpoint_overhead,
                    &mut done_ckpt_cost[task.index()],
                );
                if cfg.checkpoint.replicate_cross_site {
                    enqueue_replicas(
                        task,
                        site,
                        &recorded,
                        cfg.checkpoint.state_bytes,
                        &federation.net,
                        sites,
                        &site_hosts_sorted,
                        &dead,
                        &site_quarantine,
                        &detected_part,
                        &mut pending_replicas,
                        &mut replica_bytes,
                    );
                }
            }
        }

        // 2.6. Cross-site replica transfers that matured: the copy lands
        // on the target host if, right now, the target is up and the
        // source site can still reach it — a transfer overtaken by the
        // very fault it was guarding against is lost with the link.
        if !pending_replicas.is_empty() {
            let mut still = Vec::with_capacity(pending_replicas.len());
            for (ready_at, task, seq, src, dst, host) in std::mem::take(&mut pending_replicas) {
                if ready_at > t + eps {
                    still.push((ready_at, task, seq, src, dst, host));
                    continue;
                }
                if !down_now.contains(&host)
                    && severed_now.reachable(src, dst, sites)
                    && store.add_replica(task, seq, &host)
                {
                    replica_transfers += 1;
                    log.emit(t, RuntimeEvent::CheckpointReplicated { task, seq, host });
                }
            }
            pending_replicas = still;
        }

        // 3. Monitoring round: load samples every tick, echo probing on
        // its own (coarser) period, link probing every tick.
        probe.set_time(t);
        let echo_round = t + eps >= next_echo;
        if echo_round {
            next_echo += cfg.echo_period;
        }
        for stack in &mut stacks {
            for d in &stack.daemons {
                d.tick(t);
            }
            while let Ok(report) = stack.monitor_rx.try_recv() {
                stack.group.handle_report(t, &report);
            }
            if echo_round {
                stack.group.probe_hosts(t);
            }
        }
        net_mon.tick();
        detected_part = net_mon.reachability();
        for (idx, applied_at) in &degrade_applied {
            if detections[*idx].is_none() && t + eps >= *applied_at {
                detections[*idx] = Some((t - plan.faults[*idx].at()).max(0.0));
            }
        }
        for (idx, applied_at) in &partition_applied {
            if detections[*idx].is_none() && t + eps >= *applied_at {
                if let Fault::SitePartition { a, b, .. } = &plan.faults[*idx] {
                    let seen = a.iter().any(|x| {
                        b.iter().any(|y| detected_part.is_severed(SiteId(*x), SiteId(*y)))
                    });
                    if seen {
                        detections[*idx] = Some((t - plan.faults[*idx].at()).max(0.0));
                    }
                }
            }
        }

        // 4. Drain control messages into the repositories, attributing
        // observations to plan faults.
        let mut newly_dead: Vec<String> = Vec::new();
        let mut newly_alive: Vec<String> = Vec::new();
        for stack in &stacks {
            stack.manager.drain_observed(&stack.control_rx, |msg, ok| {
                if !ok {
                    return;
                }
                match msg {
                    ControlMessage::HostFailure { host } => {
                        if dead.insert(host.clone()) {
                            newly_dead.push(host.clone());
                        }
                        for (i, f) in plan.faults.iter().enumerate() {
                            let matches = match f {
                                Fault::HostCrash { host: h, at }
                                | Fault::TransientOutage { host: h, at, .. } => {
                                    h == host && *at <= t + eps
                                }
                                Fault::SiteOutage { site, at, .. } => {
                                    host_site.get(host) == Some(&SiteId(*site)) && *at <= t + eps
                                }
                                _ => false,
                            };
                            if matches && detections[i].is_none() {
                                detections[i] = Some((t - f.at()).max(0.0));
                                break;
                            }
                        }
                    }
                    ControlMessage::HostRecovered { host } => {
                        if dead.remove(host) {
                            newly_alive.push(host.clone());
                        }
                    }
                    ControlMessage::WorkloadUpdate { host, workload, .. } => {
                        for (i, f) in plan.faults.iter().enumerate() {
                            if let Fault::LoadSpike { host: h, at, height, duration } = f {
                                let in_window =
                                    *at <= t + eps && t <= at + duration + 2.0 * cfg.tick;
                                if h == host
                                    && in_window
                                    && *workload >= 0.5 * height
                                    && detections[i].is_none()
                                {
                                    detections[i] = Some(t - at);
                                }
                            }
                        }
                    }
                    ControlMessage::ExecutionCompleted { .. } => {}
                }
            });
        }

        // 5. Quarantine newly-dead hosts; terminate tasks running there.
        // Detected deaths also drive the per-site failover trackers (a
        // deputy takes the Site Manager role, or the whole site is
        // quarantined) and the MTBF estimator behind adaptive
        // checkpoint intervals.
        let mut promoted: Vec<(SiteId, String, String)> = Vec::new();
        for h in &newly_dead {
            if quarantine.quarantine(h) {
                log.emit(t, RuntimeEvent::HostQuarantined { host: h.clone() });
            }
            let s = host_site[h];
            journal_site(&journal, s, SiteTableEvent::HostDown { host: h.clone() });
            if let Some(ev) = failover[s.index()].on_host_down(h) {
                match ev {
                    FailoverEvent::DeputyPromoted { from, to } => promoted.push((s, from, to)),
                    FailoverEvent::SiteQuarantined => {
                        if site_quarantine.quarantine(s) {
                            log.emit(t, RuntimeEvent::SiteQuarantined { site: s.0 });
                        }
                    }
                    FailoverEvent::ManagerRestored { .. } | FailoverEvent::SiteRejoined { .. } => {}
                }
            }
            mtbf.record_failure(t);
        }
        // A site that lost every host in one detection round did not
        // meaningfully fail over — suppress the intermediate promotions
        // and keep only the quarantine verdict.
        for (s, from, to) in promoted {
            if !failover[s.index()].is_quarantined() {
                site_failovers += 1;
                log.emit(t, RuntimeEvent::SiteManagerFailedOver { site: s.0, from, to });
            }
        }
        for h in &newly_alive {
            if quarantine.readmit(h) {
                log.emit(t, RuntimeEvent::HostReadmitted { host: h.clone() });
            }
            let s = host_site[h];
            journal_site(&journal, s, SiteTableEvent::HostUp { host: h.clone() });
            if let Some(ev) = failover[s.index()].on_host_up(h) {
                match ev {
                    FailoverEvent::SiteRejoined { .. } => {
                        if site_quarantine.readmit(s) {
                            log.emit(t, RuntimeEvent::SiteRejoined { site: s.0 });
                        }
                    }
                    FailoverEvent::DeputyPromoted { from, to } => {
                        // A returning host outranks the acting deputy
                        // while the primary is still down.
                        site_failovers += 1;
                        log.emit(t, RuntimeEvent::SiteManagerFailedOver { site: s.0, from, to });
                    }
                    FailoverEvent::ManagerRestored { .. } | FailoverEvent::SiteQuarantined => {}
                }
            }
        }
        if !newly_dead.is_empty() {
            for task in afg.task_ids() {
                if let TaskState::Running { start, .. } = state[task.index()] {
                    if placement[task.index()].1.iter().any(|h| dead.contains(h)) {
                        // Terminate: the in-flight work is lost (modulo
                        // checkpoints), re-selection follows.
                        for h in &placement[task.index()].1 {
                            host_free.insert(h.clone(), t);
                        }
                        lost_progress_sum += progress_at_kill(
                            start,
                            t,
                            resume_from[task.index()],
                            run_w[task.index()],
                            done_ckpt_cost[task.index()],
                        );
                        pending_ckpts[task.index()].clear();
                        state[task.index()] = TaskState::Waiting { resume_at: t };
                    }
                }
            }
        }

        // 6. Load evictions, with an anti-churn guard: only terminate
        // when re-selection away from the overloaded hosts succeeds.
        let banned_base: BTreeSet<String> = quarantine.snapshot().union(&dead).cloned().collect();
        let mut fresh_views: Option<Vec<vdce_sched::SiteView>> = None;
        for &task in &by_priority {
            let TaskState::Running { start: run_start, .. } = state[task.index()] else {
                continue;
            };
            let (site, hosts, _) = placement[task.index()].clone();
            let overloaded: Vec<String> = hosts
                .iter()
                .filter(|h| {
                    stacks[host_site[*h].index()]
                        .manager
                        .repository()
                        .resources(|db| db.get(h).map(|r| r.workload).unwrap_or(0.0))
                        > cfg.load_threshold
                })
                .cloned()
                .collect();
            if overloaded.is_empty() {
                continue;
            }
            let views = fresh_views
                .get_or_insert_with(|| stacks.iter().map(|s| s.manager.view()).collect());
            let ordered = reachable_views(views, site, &site_quarantine, &detected_part, sites);
            let mut banned = banned_base.clone();
            banned.extend(overloaded);
            if let Some((new_site, choice)) = reselect_task(
                &ordered,
                afg,
                task,
                &banned,
                &cfg.scheduler.predictor,
                &cfg.scheduler.parallel,
                &cache,
            ) {
                for h in &hosts {
                    host_free.insert(h.clone(), t);
                }
                lost_progress_sum += progress_at_kill(
                    run_start,
                    t,
                    resume_from[task.index()],
                    run_w[task.index()],
                    done_ckpt_cost[task.index()],
                );
                pending_ckpts[task.index()].clear();
                placement[task.index()] =
                    (new_site, choice.hosts.to_vec(), choice.predicted_seconds);
                floor[task.index()] = t;
                state[task.index()] = TaskState::Pending;
            }
        }

        // 7. Waiting tasks whose backoff matured: re-select or back off
        // again.
        for &task in &by_priority {
            let TaskState::Waiting { resume_at } = state[task.index()] else { continue };
            if resume_at > t + eps {
                continue;
            }
            let views = fresh_views
                .get_or_insert_with(|| stacks.iter().map(|s| s.manager.view()).collect());
            let ordered = reachable_views(
                views,
                placement[task.index()].0,
                &site_quarantine,
                &detected_part,
                sites,
            );
            match reselect_task(
                &ordered,
                afg,
                task,
                &banned_base,
                &cfg.scheduler.predictor,
                &cfg.scheduler.parallel,
                &cache,
            ) {
                Some((new_site, choice)) => {
                    placement[task.index()] =
                        (new_site, choice.hosts.to_vec(), choice.predicted_seconds);
                    floor[task.index()] = t;
                    state[task.index()] = TaskState::Pending;
                }
                None => schedule_retry(task, t, &mut state, &mut attempts, &mut retries, &log, cfg),
            }
        }

        // 8. Start ready pending tasks (priority order). Starts are
        // backdated to the exact data-ready / host-free instant (as in
        // `makespan::evaluate`) so tick quantisation does not inflate the
        // fault-free makespan; recovered tasks are floored at their
        // recovery time.
        let net_now = shared_net.snapshot();
        for &task in &by_priority {
            if state[task.index()] != TaskState::Pending {
                continue;
            }
            let mut parents_done = true;
            let mut parent_failed = false;
            for e in edge_idx.in_edges(afg, task) {
                match state[e.from.index()] {
                    TaskState::Completed { .. } => {}
                    TaskState::Failed => parent_failed = true,
                    _ => parents_done = false,
                }
            }
            if parent_failed {
                state[task.index()] = TaskState::Failed;
                continue;
            }
            if !parents_done {
                continue;
            }
            let (site, hosts, predicted) = placement[task.index()].clone();
            if hosts.iter().any(|h| dead.contains(h) || quarantine.contains(h)) {
                // Placement went stale before the task ever started.
                state[task.index()] = TaskState::Waiting { resume_at: t };
                continue;
            }
            // During a partition each side only starts tasks whose inputs
            // are locally reachable: an in-edge crossing a severed cut
            // blocks the start, and the floor keeps rising so the
            // eventual start is not backdated across the heal.
            if !severed_now.is_whole() {
                // A quarantined source site does not block: quarantine is
                // the federation's verdict that the site is gone for
                // good, so its outputs are treated as staged (recovered
                // from checkpoints/replicas or re-derived) rather than
                // awaited across a cut that will never heal.
                let blocked = edge_idx.in_edges(afg, task).any(|e| {
                    let (psite, phosts, _) = &placement[e.from.index()];
                    let same_host = phosts.iter().any(|h| hosts.contains(h));
                    !same_host
                        && !site_quarantine.contains(*psite)
                        && !severed_now.reachable(*psite, site, sites)
                });
                if blocked {
                    floor[task.index()] = floor[task.index()].max(t + cfg.tick);
                    continue;
                }
            }
            let mut data_ready = 0.0f64;
            for e in edge_idx.in_edges(afg, task) {
                let (psite, phosts, _) = &placement[e.from.index()];
                let same_host = phosts.iter().any(|h| hosts.contains(h));
                let xfer =
                    if same_host { 0.0 } else { net_now.transfer_time(*psite, site, e.data_size) };
                data_ready = data_ready.max(finish[e.from.index()] + xfer);
            }
            let hosts_ready = hosts
                .iter()
                .map(|h| host_free.get(h).copied().unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            let start = data_ready.max(hosts_ready).max(floor[task.index()]);
            // Resume from the newest checkpoint with a reachable replica
            // (ground-truth up, not detected-dead, not quarantined) —
            // restart-from-zero when none survives. The run plan prices
            // in both the skipped work and the upcoming writes.
            let resume = if cfg.checkpoint.is_enabled() {
                store
                    .latest_valid(task, |h| {
                        !down_now.contains(h) && !dead.contains(h) && !quarantine.contains(h)
                    })
                    .map(|cp| cp.progress)
                    .unwrap_or(0.0)
            } else {
                0.0
            };
            let w = predicted.max(0.0);
            let rplan = cfg.checkpoint.run_plan_adaptive(w, resume, mtbf.mtbf());
            let end = start + rplan.duration;
            for h in &hosts {
                host_free.insert(h.clone(), end);
            }
            if !last_hosts[task.index()].is_empty() {
                resumed_progress.push(resume);
                resumes.push((
                    resume,
                    store
                        .latest_valid(task, |h| !down_now.contains(h))
                        .map(|cp| cp.progress)
                        .unwrap_or(0.0),
                ));
                if last_hosts[task.index()] != hosts {
                    migrations += 1;
                    log.emit(
                        t,
                        RuntimeEvent::TaskMigrated {
                            task,
                            from_host: last_hosts[task.index()][0].clone(),
                            to_host: hosts[0].clone(),
                        },
                    );
                }
            }
            last_hosts[task.index()] = hosts.clone();
            resume_from[task.index()] = resume;
            run_w[task.index()] = w;
            done_ckpt_cost[task.index()] = 0.0;
            pending_ckpts[task.index()] =
                rplan.checkpoints.iter().map(|c| (start + c.offset, c.progress, c.cost)).collect();
            state[task.index()] = TaskState::Running { start, end };
        }

        // 9. Failure cascade: descendants of failed tasks can never run.
        loop {
            let mut changed = false;
            for task in afg.task_ids() {
                if matches!(state[task.index()], TaskState::Pending | TaskState::Waiting { .. })
                    && edge_idx
                        .in_edges(afg, task)
                        .any(|e| state[e.from.index()] == TaskState::Failed)
                {
                    state[task.index()] = TaskState::Failed;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Snapshot + compact when the journal's cadence comes due, so
        // recovery replays a bounded suffix instead of the whole run.
        if journal.snapshot_due() {
            let snap = ControlState::capture(&repos, &store, &failover, &log);
            let (bytes, hash) = snap.to_hashed_bytes();
            journal.install_snapshot(bytes, hash);
        }

        t += cfg.tick;
    }

    // Anything still in flight past max_time counts as failed.
    for s in state.iter_mut() {
        if !matches!(s, TaskState::Completed { .. } | TaskState::Failed) {
            *s = TaskState::Failed;
        }
    }

    let tasks_completed =
        state.iter().filter(|s| matches!(s, TaskState::Completed { .. })).count() as u64;
    let tasks_failed = n as u64 - tasks_completed;
    let makespan = afg
        .task_ids()
        .filter_map(|task| match state[task.index()] {
            TaskState::Completed { end } => Some(end),
            _ => None,
        })
        .fold(0.0f64, f64::max);

    let recovered = plan
        .faults
        .iter()
        .enumerate()
        .map(|(i, f)| match f {
            Fault::HostCrash { host, at } => {
                let Some(lat) = detections[i] else { return false };
                let detect_abs = at + lat;
                tasks_failed == 0
                    && afg.task_ids().all(|task| match state[task.index()] {
                        TaskState::Completed { end } => {
                            !last_hosts[task.index()].contains(host) || end <= detect_abs + eps
                        }
                        _ => true,
                    })
            }
            Fault::TransientOutage { host, .. } => !quarantine.contains(host),
            Fault::LoadSpike { at, duration, .. } => t > at + duration && detections[i].is_some(),
            Fault::DegradedLink { at, duration, .. } => {
                t > at + duration && detections[i].is_some()
            }
            Fault::FlakyLink { at, duration, .. } => {
                t > at + duration && (!degrade_applied.contains_key(&i) || detections[i].is_some())
            }
            Fault::SiteOutage { site, down_for, .. } => {
                let s = SiteId(*site);
                match down_for {
                    // A permanent site crash is absorbed when it was
                    // detected, the site ended quarantined, and no task
                    // was lost with it.
                    None => {
                        tasks_failed == 0 && detections[i].is_some() && site_quarantine.contains(s)
                    }
                    // A transient outage is absorbed when the site was
                    // re-admitted to the federation.
                    Some(_) => !site_quarantine.contains(s),
                }
            }
            Fault::SitePartition { at, duration, .. } => {
                t > at + duration && detections[i].is_some() && tasks_failed == 0
            }
        })
        .collect();

    let recovered_work_fraction = if lost_progress_sum > eps {
        resumed_progress.iter().sum::<f64>() / lost_progress_sum
    } else {
        1.0
    };

    let outcome = ReplayOutcome {
        makespan,
        tasks_completed,
        tasks_failed,
        migrations,
        retries,
        quarantined_total: quarantine.quarantined_total(),
        readmitted_total: quarantine.readmitted_total(),
        quarantined_at_end: quarantine.len() as u64,
        detections,
        recovered,
        final_hosts: last_hosts,
        checkpoints_taken,
        checkpoint_overhead,
        resumed_progress,
        recovered_work_fraction,
        site_failovers,
        sites_quarantined: site_quarantine.quarantined_total(),
        sites_quarantined_at_end: site_quarantine.len() as u64,
        replica_transfers,
        replica_bytes,
        resumes,
    };
    if durable.is_some() {
        // A forced hash check on every deputy link closes the run: any
        // divergence the per-frame cadence missed latches here, and the
        // channel counters surface as metrics.
        for (i, stack) in stacks.iter().enumerate() {
            if let Some(link) = stack.manager.deputy() {
                let mut link = link.lock();
                let _ = link.check(repos[i].state_hash());
                let st = link.stats();
                obs.metrics.counter_add("store.replication.frames", st.frames);
                obs.metrics.counter_add("store.replication.hash_checks", st.hash_checks);
                obs.metrics.counter_add("store.replication.divergences", st.divergences);
            }
        }
        // Seal the final control-plane state: the recovery harness
        // asserts kill-and-restart reaches these exact bytes.
        let fin = ControlState::capture(&repos, &store, &failover, &log);
        let (bytes, hash) = fin.to_hashed_bytes();
        journal.seal(bytes, hash);
        let js = journal.stats();
        obs.metrics.counter_add("store.journal.records", js.records);
        obs.metrics.counter_add("store.journal.snapshots", js.snapshots);
        obs.metrics.counter_add("store.journal.wal_bytes_total", js.wal_bytes_total);
    }
    outcome.export_metrics(&obs.metrics);
    outcome
}

/// Views with `local` first, the rest in site order — the tie-break
/// [`reselect_task`] expects.
fn local_first(views: &[vdce_sched::SiteView], local: SiteId) -> Vec<vdce_sched::SiteView> {
    let mut ordered: Vec<vdce_sched::SiteView> = Vec::with_capacity(views.len());
    for v in views {
        if v.site == local {
            ordered.insert(0, v.clone());
        } else {
            ordered.push(v.clone());
        }
    }
    ordered
}

/// Views usable for re-selection from `local`'s vantage point:
/// [`local_first`] ordering, minus quarantined sites and sites the
/// detected partition overlay says are unreachable. A task anchored on
/// a quarantined site re-anchors on the smallest live site (its work
/// has to move to the surviving side anyway).
fn reachable_views(
    views: &[vdce_sched::SiteView],
    local: SiteId,
    site_q: &SiteQuarantine,
    detected: &PartitionState,
    n_sites: usize,
) -> Vec<vdce_sched::SiteView> {
    let anchor = if site_q.contains(local) {
        views.iter().map(|v| v.site).find(|s| !site_q.contains(*s)).unwrap_or(local)
    } else {
        local
    };
    local_first(views, local)
        .into_iter()
        .filter(|v| !site_q.contains(v.site) && detected.reachable(anchor, v.site, n_sites))
        .collect()
}

/// Replay `plan` and its fault-free twin, folding both into a
/// [`RecoveryReport`] (the unit `exp_faults` emits per scenario).
pub fn run_fault_scenario(
    name: &str,
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
) -> RecoveryReport {
    run_fault_scenario_observed(name, federation, afg, plan, cfg, &Observer::disabled())
}

/// [`run_fault_scenario`] with observability. Only the *faulty* replay
/// is observed — the fault-free twin would interleave a second run's
/// events into the trace and double every counter.
pub fn run_fault_scenario_observed(
    name: &str,
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
    obs: &Observer,
) -> RecoveryReport {
    run_fault_scenario_inner(name, federation, afg, plan, cfg, obs, None)
}

/// [`run_fault_scenario_observed`] with the durable control plane on
/// for the *faulty* replay (the fault-free twin stays un-journaled —
/// its mutations would interleave into the WAL). Same report bit for
/// bit as the un-journaled runner; afterwards `durable.journal` holds
/// the full event history, snapshots, and sealed final state for the
/// kill-and-restart harness.
pub fn run_fault_scenario_durable(
    name: &str,
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
    obs: &Observer,
    durable: &DurableOptions,
) -> RecoveryReport {
    run_fault_scenario_inner(name, federation, afg, plan, cfg, obs, Some(durable))
}

#[allow(clippy::too_many_arguments)]
fn run_fault_scenario_inner(
    name: &str,
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
    obs: &Observer,
    durable: Option<&DurableOptions>,
) -> RecoveryReport {
    let baseline = replay(federation, afg, &FaultPlan::empty(), cfg);
    let faulty = replay_inner(federation, afg, plan, cfg, obs, durable);
    let faults = plan
        .faults
        .iter()
        .enumerate()
        .map(|(i, f)| FaultOutcome {
            fault: f.label(),
            injected_at: f.at(),
            detection_latency: faulty.detections[i],
            recovered: faulty.recovered[i],
            site: match f {
                Fault::HostCrash { host, .. }
                | Fault::TransientOutage { host, .. }
                | Fault::LoadSpike { host, .. } => {
                    federation.topology.site_of_host(host).map(|s| s.0)
                }
                Fault::SiteOutage { site, .. } => Some(*site),
                Fault::DegradedLink { .. }
                | Fault::FlakyLink { .. }
                | Fault::SitePartition { .. } => None,
            },
        })
        .collect();
    RecoveryReport {
        scenario: name.to_string(),
        seed: plan.seed,
        baseline_makespan: baseline.makespan,
        makespan: faulty.makespan,
        inflation: if baseline.makespan > 0.0 { faulty.makespan / baseline.makespan } else { 1.0 },
        migrations: faulty.migrations,
        retries: faulty.retries,
        quarantined: faulty.quarantined_total,
        readmitted: faulty.readmitted_total,
        quarantined_at_end: faulty.quarantined_at_end,
        tasks_completed: faulty.tasks_completed,
        tasks_failed: faulty.tasks_failed,
        checkpoints_taken: faulty.checkpoints_taken,
        checkpoint_overhead: faulty.checkpoint_overhead,
        resumed_progress: faulty.resumed_progress.clone(),
        recovered_work_fraction: faulty.recovered_work_fraction,
        site_failovers: faulty.site_failovers,
        sites_quarantined: faulty.sites_quarantined,
        sites_quarantined_at_end: faulty.sites_quarantined_at_end,
        replica_transfers: faulty.replica_transfers,
        replica_bytes: faulty.replica_bytes,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_gen::{self, DagSpec};
    use crate::pool_gen::{build_federation, FederationSpec, WanShape};
    use vdce_sched::evaluate;
    use vdce_sched::site_schedule;

    fn small_federation() -> Federation {
        build_federation(&FederationSpec {
            sites: 2,
            hosts_per_site: 3,
            heterogeneity: 2.0,
            group_size: 4,
            shape: WanShape::Star,
            seed: 21,
            ..FederationSpec::default()
        })
    }

    fn small_afg() -> Afg {
        dag_gen::layered_random(&DagSpec { tasks: 12, width: 3, ..DagSpec::default() }, 5)
    }

    fn baseline_makespan(f: &Federation, afg: &Afg) -> f64 {
        let views = f.views();
        let cfg = SchedulerConfig::default();
        let table = site_schedule(afg, &views[0], &views[1..], &f.net, &cfg).unwrap();
        let levels = views[0].levels(afg).unwrap();
        evaluate(afg, &table, &f.net, &levels).unwrap().makespan
    }

    #[test]
    fn fault_free_replay_tracks_static_evaluation() {
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let out = replay(&f, &afg, &FaultPlan::empty(), &ReplayConfig::scaled_to(est));
        assert_eq!(out.tasks_completed, afg.task_count() as u64);
        assert_eq!(out.tasks_failed, 0);
        assert_eq!(out.migrations, 0);
        assert_eq!(out.retries, 0);
        // The replay is time-causal: hosts are reserved in virtual-time
        // order, whereas `evaluate` reserves them in list-priority order
        // — so the replay may pack hosts tighter (but never by more than
        // the reservation-order slack) and must stay the same order of
        // magnitude.
        let ratio = out.makespan / est;
        assert!(
            (0.4..=1.5).contains(&ratio),
            "replay {} vs evaluate {} (ratio {ratio:.3})",
            out.makespan,
            est
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let cfg = ReplayConfig::scaled_to(est);
        let plan = FaultPlan {
            seed: 3,
            faults: vec![
                Fault::TransientOutage {
                    host: f.hosts(SiteId(0))[0].clone(),
                    at: 0.3 * est,
                    down_for: 6.0 * cfg.tick,
                },
                Fault::FlakyLink {
                    a: 0,
                    b: 1,
                    at: 0.0,
                    duration: 0.5 * est,
                    drop_probability: 0.3,
                },
            ],
        };
        let a = replay(&f, &afg, &plan, &cfg);
        let b = replay(&f, &afg, &plan, &cfg);
        assert_eq!(a, b, "same (federation, afg, plan, cfg) must replay identically");
    }

    #[test]
    fn crash_quarantines_and_migrates_off_the_dead_host() {
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let cfg = ReplayConfig::scaled_to(est);
        // Crash the host carrying the most placements mid-run.
        let views = f.views();
        let table = site_schedule(&afg, &views[0], &views[1..], &f.net, &cfg.scheduler).unwrap();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for p in table.iter() {
            for h in p.hosts.iter() {
                *counts.entry(h).or_default() += 1;
            }
        }
        let victim =
            counts.iter().max_by_key(|(h, c)| (**c, std::cmp::Reverse(**h))).unwrap().0.to_string();
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::HostCrash { host: victim.clone(), at: 0.25 * est }],
        };
        let out = replay(&f, &afg, &plan, &cfg);
        assert_eq!(out.tasks_failed, 0, "all tasks must complete despite the crash");
        assert!(out.detections[0].is_some(), "crash must be detected");
        assert_eq!(out.quarantined_at_end, 1, "crashed host stays quarantined");
        assert!(out.recovered[0], "crash scenario recovers");
        assert!(
            out.makespan < 2.0 * est,
            "inflation bounded: {} vs baseline {}",
            out.makespan,
            est
        );
        // recovered[0] already implies no task's final run sat on the
        // dead host past detection; the busiest host dying mid-run must
        // also have forced at least one migration.
        assert!(out.migrations >= 1, "expected terminate-and-migrate, got none");
    }

    #[test]
    fn transient_outage_readmits_the_host() {
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let cfg = ReplayConfig::scaled_to(est);
        let host = f.hosts(SiteId(1))[0].clone();
        let plan = FaultPlan {
            seed: 2,
            faults: vec![Fault::TransientOutage { host, at: 0.2 * est, down_for: 8.0 * cfg.tick }],
        };
        let out = replay(&f, &afg, &plan, &cfg);
        assert_eq!(out.tasks_failed, 0);
        assert_eq!(out.quarantined_at_end, 0, "host must be re-admitted");
        assert!(out.recovered[0]);
        if out.quarantined_total > 0 {
            assert_eq!(out.readmitted_total, out.quarantined_total);
        }
    }

    #[test]
    fn disabled_checkpoint_policy_is_inert() {
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let out = replay(&f, &afg, &FaultPlan::empty(), &ReplayConfig::scaled_to(est));
        assert_eq!(out.checkpoints_taken, 0);
        assert_eq!(out.checkpoint_overhead, 0.0);
        assert!(out.resumed_progress.is_empty());
        assert_eq!(out.recovered_work_fraction, 1.0);
    }

    /// The crash scenario of `crash_quarantines_and_migrates_off_the_dead_host`,
    /// run twice: restart-from-zero versus checkpointed. The checkpointed
    /// run must resume mid-task (positive resumed progress), lose strictly
    /// less relative time to the crash, and stay deterministic.
    #[test]
    fn checkpointed_crash_beats_restart_from_zero() {
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let plain_cfg = ReplayConfig::scaled_to(est);
        let ckpt_cfg = ReplayConfig {
            checkpoint: CheckpointPolicy::every(0.1, 0.005),
            ..ReplayConfig::scaled_to(est)
        };
        let views = f.views();
        let table =
            site_schedule(&afg, &views[0], &views[1..], &f.net, &plain_cfg.scheduler).unwrap();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for p in table.iter() {
            for h in p.hosts.iter() {
                *counts.entry(h).or_default() += 1;
            }
        }
        let victim =
            counts.iter().max_by_key(|(h, c)| (**c, std::cmp::Reverse(**h))).unwrap().0.to_string();
        let plan =
            FaultPlan { seed: 1, faults: vec![Fault::HostCrash { host: victim, at: 0.25 * est }] };

        let plain = run_fault_scenario("plain", &f, &afg, &plan, &plain_cfg);
        let ckpt = run_fault_scenario("ckpt", &f, &afg, &plan, &ckpt_cfg);

        assert_eq!(ckpt.tasks_failed, 0);
        assert!(ckpt.checkpoints_taken > 0, "the policy must actually write checkpoints");
        assert!(ckpt.checkpoint_overhead > 0.0);
        assert!(
            ckpt.resumed_progress.iter().any(|r| *r > 0.0),
            "at least one restart must resume from a checkpoint: {:?}",
            ckpt.resumed_progress
        );
        assert!(ckpt.recovered_work_fraction > 0.0);
        assert!(
            plain.resumed_progress.iter().all(|r| *r == 0.0),
            "no-checkpoint runs restart cold"
        );
        assert!(
            ckpt.inflation < plain.inflation + 1e-9,
            "checkpointed inflation {} must not exceed restart-from-zero {}",
            ckpt.inflation,
            plain.inflation
        );

        // Determinism extends to the checkpoint machinery.
        let again = run_fault_scenario("ckpt", &f, &afg, &plan, &ckpt_cfg);
        assert_eq!(ckpt, again);
    }

    /// A checkpoint whose every replica is unreachable must not be
    /// resumed from: crash the executing host *and* its same-site replica
    /// partner, and the restart still succeeds (possibly from an older
    /// checkpoint or zero) without phantom progress.
    #[test]
    fn checkpoints_on_unreachable_hosts_are_skipped() {
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let cfg = ReplayConfig {
            checkpoint: CheckpointPolicy::every(0.2, 0.005),
            ..ReplayConfig::scaled_to(est)
        };
        // Crash an entire site's hosts in quick succession.
        let site0 = f.hosts(SiteId(0));
        let plan = FaultPlan {
            seed: 13,
            faults: site0
                .iter()
                .map(|h| Fault::HostCrash { host: h.clone(), at: 0.3 * est })
                .collect(),
        };
        let out = replay(&f, &afg, &plan, &cfg);
        assert_eq!(out.tasks_failed, 0, "site 1 must absorb the work");
        // Every resumed fraction must be backed by a checkpoint that was
        // actually recorded (no resume exceeds 1.0, none negative).
        assert!(out.resumed_progress.iter().all(|r| (0.0..=1.0).contains(r)));
        let a = replay(&f, &afg, &plan, &cfg);
        assert_eq!(a, out, "deterministic under whole-site loss");
    }

    /// Durability only observes: the same crash scenario replayed with
    /// the full durable control plane (journal, snapshots, deputies)
    /// must produce a bit-identical outcome, a populated sealed journal,
    /// and zero replication divergences.
    #[test]
    fn durable_replay_is_bit_identical_and_seals_the_journal() {
        use vdce_store::SnapshotPolicy;
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let cfg = ReplayConfig {
            checkpoint: CheckpointPolicy::every(0.1, 0.005),
            ..ReplayConfig::scaled_to(est)
        };
        let victim = f.hosts(SiteId(0))[0].clone();
        let plan =
            FaultPlan { seed: 5, faults: vec![Fault::HostCrash { host: victim, at: 0.25 * est }] };

        let plain = replay(&f, &afg, &plan, &cfg);
        let opts = DurableOptions::new(SnapshotPolicy::every(64), 4);
        let obs = Observer::disabled();
        let durable = replay_durable(&f, &afg, &plan, &cfg, &obs, &opts);
        assert_eq!(plain, durable, "journaling must not perturb the replay");

        let journal = &opts.journal;
        assert!(!journal.is_empty(), "a faulty run journals control-plane events");
        let sealed = journal.final_state().expect("durable replays seal their final state");
        assert_eq!(sealed.seq, journal.len());
        // The sealed state parses back and self-hashes consistently.
        let state = ControlState::from_bytes(&sealed.state).unwrap();
        assert_eq!(state.hash(), sealed.hash);

        // Replays are deterministic, so the journal is too.
        let opts2 = DurableOptions::new(SnapshotPolicy::every(64), 4);
        replay_durable(&f, &afg, &plan, &cfg, &obs, &opts2);
        assert_eq!(journal.history(), opts2.journal.history());
        assert_eq!(sealed, opts2.journal.final_state().unwrap());
    }

    /// Metrics contract of the durable replay: replication counters are
    /// exported, healthy runs report zero divergences, and the journal
    /// stats land in the registry.
    #[test]
    fn durable_replay_exports_replication_metrics() {
        use vdce_obs::Observer;
        use vdce_store::SnapshotPolicy;
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let cfg = ReplayConfig::scaled_to(est);
        let host = f.hosts(SiteId(1))[0].clone();
        let plan = FaultPlan {
            seed: 7,
            faults: vec![Fault::TransientOutage { host, at: 0.2 * est, down_for: 8.0 * cfg.tick }],
        };
        let opts = DurableOptions::new(SnapshotPolicy::every(128), 8);
        let obs = Observer::enabled();
        replay_durable(&f, &afg, &plan, &cfg, &obs, &opts);
        assert!(obs.metrics.counter("store.replication.frames") > 0);
        assert!(obs.metrics.counter("store.replication.hash_checks") > 0);
        assert_eq!(obs.metrics.counter("store.replication.divergences"), 0);
        assert_eq!(obs.metrics.counter("store.journal.records"), opts.journal.len());
    }

    #[test]
    fn recovery_report_round_trips_and_is_stable() {
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let cfg = ReplayConfig::scaled_to(est);
        let plan = FaultPlan {
            seed: 9,
            faults: vec![Fault::DegradedLink {
                a: 0,
                b: 1,
                at: 0.1 * est,
                duration: 0.3 * est,
                latency_factor: 20.0,
                bandwidth_factor: 0.05,
            }],
        };
        let r1 = run_fault_scenario("unit", &f, &afg, &plan, &cfg);
        let r2 = run_fault_scenario("unit", &f, &afg, &plan, &cfg);
        let j1 = serde_json::to_string(&r1).unwrap();
        let j2 = serde_json::to_string(&r2).unwrap();
        assert_eq!(j1, j2, "bit-identical reports across replays");
        let back: RecoveryReport = serde_json::from_str(&j1).unwrap();
        assert_eq!(back, r1);
        assert!(r1.inflation >= 1.0 - 1e-9, "degraded link cannot speed the run up");
    }
}
