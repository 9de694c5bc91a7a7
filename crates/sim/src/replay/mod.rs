//! Deterministic fault replay with mid-execution recovery.
//!
//! [`replay`] executes an AFG against a generated [`Federation`] under a
//! [`FaultPlan`], driving the *real* runtime control plane on a virtual
//! clock: per-host Monitor daemons sample a `SyntheticProbe`, Group
//! Managers apply the significant-change filter and echo-probe failure
//! detection, Site Managers fold control messages into deep-copied site
//! repositories, and a `NetworkMonitor` folds link probes into a
//! `SharedNetworkModel`. Faults enter the run exactly where real
//! faults would: crashes and outages flip the `FlagEcho` the echo
//! prober watches, link faults override the `SyntheticLinkProbe`, and
//! load spikes are baked into the monitoring probe's traces.
//!
//! Recovery is the DESIGN.md §10 state machine: **detect** (echo probe /
//! monitor report) → **quarantine** (`Quarantine`) → **re-select**
//! (`reselect_task`, local-first, sharing one `PredictCache`) →
//! **migrate** (terminate-and-restart on the new hosts) → **retry**
//! (bounded [`BackoffPolicy`] waits when no capacity is available).
//!
//! Site-level faults (DESIGN.md §12) ride the same machinery: a
//! [`Fault::SiteOutage`] expands into per-host kills plus severing every
//! WAN link of the site, a [`Fault::SitePartition`] severs the links
//! between two site groups. Ground-truth connectivity lives in a
//! `PartitionState`; the *detected* state comes from the
//! `NetworkMonitor`'s timed-out probes and gates re-selection, while
//! per-site `SiteFailover` trackers promote deputy Site Managers and
//! quarantine sites (`SiteQuarantine`) whose last host died. With
//! `replicate_cross_site` checkpoints additionally stream to the nearest
//! other site, each transfer charged through the network model, so a
//! whole-site loss resumes from a remote replica instead of zero.
//!
//! Everything is a pure function of `(federation, afg, plan, config)`:
//! state lives in `BTree*` collections, each site's control messages are
//! applied in the order its Group Manager returned them, and the only
//! randomness is the plan seed — replaying twice
//! yields identical [`ReplayOutcome`]s (asserted by `exp_faults`).
//!
//! This module holds what callers see — [`ReplayConfig`],
//! [`ReplayOutcome`] and the entry points, every one of which is
//! `Replay::new(..).run()`. `engine` is that state machine: the tick
//! loop with one method per step, its fields split into the plan's
//! ground truth and the control plane's detected view. `plane` builds
//! the control plane the engine drives.

mod engine;
mod plane;

use crate::faults::{Fault, FaultPlan};
use crate::metrics::{FaultOutcome, RecoveryReport};
use crate::pool_gen::Federation;
use engine::{Inputs, Replay};
use vdce_afg::Afg;
use vdce_obs::{MetricsRegistry, Observer};
use vdce_runtime::{BackoffPolicy, CheckpointPolicy, DurableOptions};
use vdce_sched::SchedulerConfig;

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

/// What one replay produced. Pure function of its inputs.
#[derive(Debug, Clone, Default, PartialEq)]
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
    pub(crate) final_hosts: Vec<Vec<String>>,
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
pub(crate) const DETECTION_LATENCY_BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 120.0];

impl ReplayOutcome {
    /// Export the outcome into `m` under the `replay.` namespace. Every
    /// value is a pure function of the replay inputs, so two replays of
    /// the same scenario export identical deterministic snapshots.
    /// Counters *add*, so exporting several outcomes into one registry
    /// accumulates across runs.
    pub(crate) fn export_metrics(&self, m: &MetricsRegistry) {
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
/// every runtime event mirrored into `obs.trace` at its virtual
/// timestamp, scheduler metrics from the initial allocation, and the
/// outcome exported into `obs.metrics` via
/// `ReplayOutcome::export_metrics`. With a disabled trace sink this
/// *is* [`replay`] — the mirroring short-circuits.
pub fn replay_observed(
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
    obs: &Observer,
) -> ReplayOutcome {
    Replay::new(&Inputs::new(federation, afg, plan, cfg, obs), None).run()
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
    Replay::new(&Inputs::new(federation, afg, plan, cfg, obs), Some(durable)).run()
}

/// Replay `plan` and its fault-free twin, folding both into a
/// [`RecoveryReport`] (the unit `exp_faults` emits per scenario).
///
/// Only the *faulty* replay is observed and, with `durable`, journaled —
/// the fault-free twin would interleave a second run's events into the
/// trace and the WAL and double every counter. Neither changes the
/// report; after a durable run `durable.journal` holds the full event
/// history, snapshots, and sealed final state for the kill-and-restart
/// harness.
pub fn run_fault_scenario(
    name: &str,
    federation: &Federation,
    afg: &Afg,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
    obs: &Observer,
    durable: Option<&DurableOptions>,
) -> RecoveryReport {
    let baseline = replay(federation, afg, &FaultPlan::empty(), cfg);
    let faulty = Replay::new(&Inputs::new(federation, afg, plan, cfg, obs), durable).run();
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
    use std::collections::BTreeMap;
    use vdce_net::topology::SiteId;
    use vdce_runtime::ControlState;
    use vdce_sched::{evaluate, site_schedule};

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

        let plain =
            run_fault_scenario("plain", &f, &afg, &plan, &plain_cfg, &Observer::disabled(), None);
        let ckpt =
            run_fault_scenario("ckpt", &f, &afg, &plan, &ckpt_cfg, &Observer::disabled(), None);

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
        let again =
            run_fault_scenario("ckpt", &f, &afg, &plan, &ckpt_cfg, &Observer::disabled(), None);
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

    /// In each monitoring round every daemon of a site samples before the
    /// site's Group Manager handles any report, so the journal holds a
    /// site's `MonitorSample` entries of a tick ahead of its
    /// `WorkloadForwarded` entries.
    #[test]
    fn a_sites_samples_precede_its_forwards_within_a_tick() {
        use std::collections::BTreeSet;
        use vdce_runtime::{LogRecord, RuntimeEvent};
        use vdce_store::SnapshotPolicy;
        let f = small_federation();
        let afg = small_afg();
        let est = baseline_makespan(&f, &afg);
        let cfg = ReplayConfig::scaled_to(est);
        let host = f.hosts(SiteId(0))[0].clone();
        let spike = Fault::LoadSpike { host, at: 0.2 * est, height: 6.0, duration: 0.3 * est };
        let plan = FaultPlan { seed: 3, faults: vec![spike] };
        let opts = DurableOptions::new(SnapshotPolicy::manual(), 4);
        replay_durable(&f, &afg, &plan, &cfg, &Observer::disabled(), &opts);

        // (tick, site) pairs whose Group Manager has forwarded a report.
        let mut forwarded = BTreeSet::new();
        let (mut samples, mut forwards) = (0, 0);
        for (tag, payload) in opts.journal.history() {
            if tag != "log" {
                continue;
            }
            let rec: LogRecord = serde_json::from_str(&payload).unwrap();
            match &rec.event {
                RuntimeEvent::MonitorSample { host, .. } => {
                    samples += 1;
                    let key = (rec.t.to_bits(), f.topology.site_of_host(host));
                    assert!(
                        !forwarded.contains(&key),
                        "{host} sampled after a forward at {}",
                        rec.t
                    );
                }
                RuntimeEvent::WorkloadForwarded { host, .. } => {
                    forwards += 1;
                    forwarded.insert((rec.t.to_bits(), f.topology.site_of_host(host)));
                }
                _ => {}
            }
        }
        assert!(forwards > 6 && samples > forwards, "{samples} samples, {forwards} forwards");
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
        let r1 = run_fault_scenario("unit", &f, &afg, &plan, &cfg, &Observer::disabled(), None);
        let r2 = run_fault_scenario("unit", &f, &afg, &plan, &cfg, &Observer::disabled(), None);
        let j1 = serde_json::to_string(&r1).unwrap();
        let j2 = serde_json::to_string(&r2).unwrap();
        assert_eq!(j1, j2, "bit-identical reports across replays");
        let back: RecoveryReport = serde_json::from_str(&j1).unwrap();
        assert_eq!(back, r1);
        assert!(r1.inflation >= 1.0 - 1e-9, "degraded link cannot speed the run up");
    }
}
