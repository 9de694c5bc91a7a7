//! The Application Controller (§4.1).
//!
//! > "The Application Controller sets up the execution environment and
//! > manages the services provided by interacting with the Data Manager.
//! > … When all the required acknowledgments are received an execution
//! > startup signal is sent to start the application execution. … If the
//! > current load on any of these machines is more than a predefined
//! > threshold value, the Application Controller terminates the task
//! > execution on the machine and sends a task rescheduling request."
//!
//! [`AppController::run`] therefore:
//! 1. receives the execution request (the AFG + local allocation portion),
//! 2. activates the Data Manager and waits for every channel-setup
//!    acknowledgment,
//! 3. broadcasts the start-up signal ([`RuntimeEvent::StartupSignal`]),
//! 4. executes the application with a [`StartGate`] that relocates any
//!    task whose host is down or above the load threshold at launch time
//!    (rescheduling happens at task granularity: the paper terminates the
//!    running executable and reschedules; we intercept at the moment the
//!    executable would be started, which exercises the same control loop
//!    without mid-kernel signal handling), and
//! 5. reports measured execution times to the Site Manager for
//!    task-performance write-back.

use crate::checkpoint::CheckpointStore;
use crate::data_manager::{DataManager, Transport};
use crate::events::{EventKind, EventLog, RuntimeEvent};
use crate::executor::{
    execute, CheckpointContext, Execution, ExecutionOutcome, ExecutorConfig, GateDecision,
    HostLockRegistry, StartGate,
};
use crate::recovery::Quarantine;
use crate::services::{ConsoleService, IoService};
use crate::site_manager::{ControlMessage, SiteManager};
use crossbeam::channel::unbounded;
use std::sync::Arc;
use vdce_afg::{Afg, TaskId};
use vdce_net::clock::{Clock, RealClock};
use vdce_predict::model::Predictor;
use vdce_repository::SiteRepository;
use vdce_sched::allocation::AllocationTable;

/// Application-Controller tunables.
#[derive(Debug, Clone)]
pub struct AppControllerConfig {
    /// Load threshold above which a host triggers task rescheduling.
    pub load_threshold: f64,
    /// Executor settings.
    pub executor: ExecutorConfig,
    /// Data-plane transport.
    pub transport: Transport,
    /// Optional off-site checkpoint replica host (DESIGN.md §12): when
    /// set, every checkpoint the executor records is also stored there,
    /// surviving the loss of the site that ran the application.
    pub checkpoint_replica_host: Option<String>,
}

impl Default for AppControllerConfig {
    fn default() -> Self {
        AppControllerConfig {
            load_threshold: 4.0,
            executor: ExecutorConfig::default(),
            transport: Transport::InProc,
            checkpoint_replica_host: None,
        }
    }
}

/// What a completed run looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The executor's outcome.
    pub outcome: ExecutionOutcome,
    /// How many tasks were relocated by threshold rescheduling.
    pub rescheduled_tasks: usize,
    /// Channel-setup acknowledgments received before start-up.
    pub setup_acks: usize,
}

/// The threshold-rescheduling start gate: consults the live resource
/// database just before each task launches. Public so the high-level
/// environment (`vdce-core`) can execute federated allocations through
/// the same control loop.
pub struct ThresholdGate<'a> {
    repo: &'a SiteRepository,
    threshold: f64,
    predictor: Predictor,
    afg: &'a Afg,
    quarantine: Option<&'a Quarantine>,
}

impl<'a> ThresholdGate<'a> {
    /// Gate over `repo` with the given load threshold, for `afg`.
    pub fn new(repo: &'a SiteRepository, threshold: f64, afg: &'a Afg) -> Self {
        ThresholdGate { repo, threshold, predictor: Predictor::default(), afg, quarantine: None }
    }

    /// Consult `q` as well: quarantined hosts count as troubled and are
    /// never picked as replacements, even if the repository still (or
    /// again) lists them as up.
    pub fn with_quarantine(mut self, q: &'a Quarantine) -> Self {
        self.quarantine = Some(q);
        self
    }
}

impl ThresholdGate<'_> {
    fn is_quarantined(&self, host: &str) -> bool {
        self.quarantine.is_some_and(|q| q.contains(host))
    }
    /// Best replacement hosts for `task` (same count as requested),
    /// preferring up hosts below the threshold, by predicted time.
    fn pick_replacements(&self, task: TaskId, count: usize) -> Option<Vec<String>> {
        let node = self.afg.task(task);
        let mut candidates: Vec<(f64, String)> = Vec::new();
        self.repo.resources(|db| {
            self.repo.tasks(|tasks| {
                for host in db.up_hosts() {
                    if host.smoothed_workload() > self.threshold
                        || self.is_quarantined(&host.host_name)
                    {
                        continue;
                    }
                    if !node.props.machine_type.accepts(host.machine) {
                        continue;
                    }
                    if let Ok(t) =
                        self.predictor.predict(tasks, &node.library_task, node.problem_size, host)
                    {
                        candidates.push((t, host.host_name.clone()));
                    }
                }
            })
        });
        if candidates.is_empty() {
            return None;
        }
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        Some(candidates.into_iter().take(count.max(1)).map(|(_, h)| h).collect())
    }
}

impl StartGate for ThresholdGate<'_> {
    fn check(&self, task: TaskId, hosts: &[String]) -> GateDecision {
        let troubled = self.repo.resources(|db| {
            hosts.iter().any(|h| match db.get(h) {
                Some(r) => {
                    !r.is_up() || r.smoothed_workload() > self.threshold || self.is_quarantined(h)
                }
                None => true,
            })
        });
        if !troubled {
            return GateDecision::Proceed;
        }
        match self.pick_replacements(task, hosts.len()) {
            Some(new_hosts) if new_hosts != hosts => GateDecision::Relocate(new_hosts),
            Some(_) => GateDecision::Proceed, // nothing better available
            None => GateDecision::Abort(format!(
                "no host below load threshold {} available",
                self.threshold
            )),
        }
    }
}

/// The Application Controller of one site.
pub struct AppController {
    site_manager: SiteManager,
    config: AppControllerConfig,
    log: EventLog,
    quarantine: Arc<Quarantine>,
    checkpoints: Option<CheckpointStore>,
}

impl AppController {
    /// Controller reporting to `site_manager`.
    pub fn new(site_manager: SiteManager, config: AppControllerConfig, log: EventLog) -> Self {
        AppController {
            site_manager,
            config,
            log,
            quarantine: Arc::new(Quarantine::new()),
            checkpoints: None,
        }
    }

    /// Attach a checkpoint store: runs through this controller persist
    /// task progress into `store` and resume from it, with replicas on
    /// quarantined hosts treated as unreachable.
    pub fn with_checkpoints(mut self, store: CheckpointStore) -> Self {
        self.checkpoints = Some(store);
        self
    }

    /// The checkpoint store, when one is attached.
    pub fn checkpoints(&self) -> Option<&CheckpointStore> {
        self.checkpoints.as_ref()
    }

    /// The event log this controller writes to.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The dead-host quarantine consulted by this controller's gates.
    pub fn quarantine(&self) -> &Arc<Quarantine> {
        &self.quarantine
    }

    /// React to a failure report from the monitoring plane: mark the
    /// host down in the repository and quarantine it, so in-flight and
    /// upcoming tasks steer clear until it recovers.
    pub fn note_host_failed(&self, t: f64, host: &str) {
        self.site_manager.process(&ControlMessage::HostFailure { host: host.to_string() });
        if self.quarantine.quarantine(host) {
            self.log.emit(t, RuntimeEvent::HostQuarantined { host: host.to_string() });
        }
    }

    /// React to a recovery report: mark the host up again and re-admit it
    /// from quarantine.
    pub fn note_host_recovered(&self, t: f64, host: &str) {
        self.site_manager.process(&ControlMessage::HostRecovered { host: host.to_string() });
        if self.quarantine.readmit(host) {
            self.log.emit(t, RuntimeEvent::HostReadmitted { host: host.to_string() });
        }
    }

    /// Handle an execution request end-to-end (steps 1–5 of the module
    /// docs). `console` and `io` are the user-requested services attached
    /// to this run.
    pub fn run(
        &self,
        afg: &Afg,
        table: &AllocationTable,
        io: &IoService,
        console: &ConsoleService,
    ) -> ExecutionReport {
        let clock = RealClock::new();

        // Step 2: activate the Data Manager. (Channels are opened inside
        // the executor; we pre-open a probe channel set here only to
        // count acknowledgments explicitly, matching the paper's
        // ack-then-start sequence.)
        let dm = DataManager::new(self.config.transport, self.log.clone());

        // Step 3: start-up signal once all acknowledgments will be
        // available — with the synchronous open_all used by the executor,
        // "all acks received" is equivalent to successful setup, so the
        // signal marks the transition.
        self.log.emit(clock.now(), RuntimeEvent::StartupSignal);

        // Steps 4–5: execute with the threshold gate, reporting
        // completions to the Site Manager.
        let gate =
            ThresholdGate::new(self.site_manager.repository(), self.config.load_threshold, afg)
                .with_quarantine(&self.quarantine);
        let (tx, rx) = unbounded();
        let quarantine = Arc::clone(&self.quarantine);
        let reachable = move |h: &str| !quarantine.contains(h);
        let ctx = self.checkpoints.as_ref().map(|store| CheckpointContext {
            store,
            reachable: &reachable,
            replicate_to: self.config.checkpoint_replica_host.clone(),
        });
        let outcome = execute(&Execution {
            afg,
            table,
            dm: &dm,
            io,
            console,
            gate: &gate,
            log: &self.log,
            clock: &clock,
            completions: Some(tx),
            config: &self.config.executor,
            registry: &HostLockRegistry::new(),
            checkpoint: ctx.as_ref(),
        });
        // Write measured execution times back into the repository.
        self.site_manager.drain(&rx);

        let rescheduled = self.log.query(EventKind::RescheduleRequested).count();
        ExecutionReport { outcome, rescheduled_tasks: rescheduled, setup_acks: dm.setup_acks() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_net::topology::SiteId;
    use vdce_repository::resources::{HostStatus, ResourceRecord};
    use vdce_sched::allocation::TaskPlacement;

    fn repo_with_hosts(hosts: &[&str]) -> SiteRepository {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for h in hosts {
                db.upsert(ResourceRecord::new(
                    *h,
                    "10.0.0.1",
                    MachineType::LinuxPc,
                    1.0,
                    1,
                    1 << 30,
                    "g0",
                ));
            }
        });
        repo
    }

    fn chain() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "s", 400).unwrap();
        let m = b.add_task("Map", "m", 400).unwrap();
        let k = b.add_task("Sink", "k", 400).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    fn table_on(afg: &Afg, host: &str) -> AllocationTable {
        let mut t = AllocationTable::new(&afg.name);
        for id in afg.task_ids() {
            t.insert(TaskPlacement {
                task: id,
                task_name: afg.task(id).name.clone(),
                site: SiteId(0),
                hosts: vec![host.to_string()].into(),
                predicted_seconds: 0.001,
                data_sources: vec![],
            });
        }
        t
    }

    fn controller(repo: SiteRepository) -> AppController {
        let log = EventLog::new();
        AppController::new(SiteManager::new(SiteId(0), repo), AppControllerConfig::default(), log)
    }

    #[test]
    fn healthy_run_completes_and_writes_back_measurements() {
        let repo = repo_with_hosts(&["h0", "h1"]);
        let ac = controller(repo.clone());
        let afg = chain();
        let report = ac.run(
            &afg,
            &table_on(&afg, "h0"),
            &IoService::new(),
            &ConsoleService::new(ac.log().clone()),
        );
        assert!(report.outcome.success);
        assert_eq!(report.rescheduled_tasks, 0);
        // Measured times reached the task-performance DB.
        repo.tasks(|db| {
            assert!(db.sample_count("Source", "h0") >= 1);
            assert!(db.sample_count("Map", "h0") >= 1);
        });
        assert_eq!(ac.log().query(EventKind::StartupSignal).count(), 1);
    }

    #[test]
    fn overloaded_host_triggers_rescheduling() {
        let repo = repo_with_hosts(&["busy", "idle"]);
        repo.resources_mut(|db| {
            for _ in 0..4 {
                db.record_sample("busy", 9.0, 1 << 30); // way above threshold 4.0
            }
        });
        let ac = controller(repo);
        let afg = chain();
        let report = ac.run(
            &afg,
            &table_on(&afg, "busy"),
            &IoService::new(),
            &ConsoleService::new(ac.log().clone()),
        );
        assert!(report.outcome.success);
        assert!(report.rescheduled_tasks >= 3, "every task moves off the busy host");
        for r in &report.outcome.records {
            assert_eq!(r.hosts, vec!["idle".to_string()]);
        }
    }

    #[test]
    fn down_host_triggers_rescheduling() {
        let repo = repo_with_hosts(&["dead", "alive"]);
        repo.resources_mut(|db| {
            db.set_status("dead", HostStatus::Down);
        });
        let ac = controller(repo);
        let afg = chain();
        let report = ac.run(
            &afg,
            &table_on(&afg, "dead"),
            &IoService::new(),
            &ConsoleService::new(ac.log().clone()),
        );
        assert!(report.outcome.success);
        for r in &report.outcome.records {
            assert_eq!(r.hosts, vec!["alive".to_string()]);
        }
    }

    #[test]
    fn no_viable_replacement_aborts_the_task() {
        let repo = repo_with_hosts(&["only"]);
        repo.resources_mut(|db| {
            db.set_status("only", HostStatus::Down);
        });
        let ac = controller(repo);
        let afg = chain();
        let report = ac.run(
            &afg,
            &table_on(&afg, "only"),
            &IoService::new(),
            &ConsoleService::new(ac.log().clone()),
        );
        assert!(!report.outcome.success);
        assert!(report
            .outcome
            .records
            .iter()
            .any(|r| r.error.as_deref().is_some_and(|e| e.contains("threshold"))));
    }

    #[test]
    fn quarantined_host_is_avoided_even_if_repo_says_up() {
        // The repository lists "flaky" as up (stale view between echo
        // rounds), but the quarantine knows better.
        let repo = repo_with_hosts(&["flaky", "steady"]);
        let ac = controller(repo.clone());
        ac.note_host_failed(1.0, "flaky");
        repo.resources_mut(|db| db.set_status("flaky", HostStatus::Up));
        let afg = chain();
        let report = ac.run(
            &afg,
            &table_on(&afg, "flaky"),
            &IoService::new(),
            &ConsoleService::new(ac.log().clone()),
        );
        assert!(report.outcome.success);
        for r in &report.outcome.records {
            assert_eq!(r.hosts, vec!["steady".to_string()]);
        }
        assert_eq!(ac.log().query(EventKind::HostQuarantined).count(), 1);
    }

    #[test]
    fn readmitted_host_is_usable_again() {
        let repo = repo_with_hosts(&["flaky", "steady"]);
        let ac = controller(repo);
        ac.note_host_failed(1.0, "flaky");
        assert!(ac.quarantine().contains("flaky"));
        ac.note_host_recovered(5.0, "flaky");
        assert!(ac.quarantine().is_empty());
        let afg = chain();
        let report = ac.run(
            &afg,
            &table_on(&afg, "flaky"),
            &IoService::new(),
            &ConsoleService::new(ac.log().clone()),
        );
        assert!(report.outcome.success);
        for r in &report.outcome.records {
            assert_eq!(r.hosts, vec!["flaky".to_string()], "runs where scheduled again");
        }
        assert_eq!(ac.log().query(EventKind::HostReadmitted).count(), 1);
    }

    #[test]
    fn checkpointed_controller_resumes_second_run() {
        use crate::checkpoint::CheckpointPolicy;
        let repo = repo_with_hosts(&["h0", "h1"]);
        let store = CheckpointStore::new();
        let config = AppControllerConfig {
            executor: ExecutorConfig {
                checkpoint: CheckpointPolicy::every(0.5, 0.0),
                ..ExecutorConfig::default()
            },
            ..AppControllerConfig::default()
        };
        let log = EventLog::new();
        let ac = AppController::new(SiteManager::new(SiteId(0), repo), config, log)
            .with_checkpoints(store.clone());
        let afg = chain();
        let table = table_on(&afg, "h0");

        let r1 = ac.run(&afg, &table, &IoService::new(), &ConsoleService::new(ac.log().clone()));
        assert!(r1.outcome.success);
        assert_eq!(store.taken_total(), 3, "first run checkpoints every task");
        let started = ac.log().query(EventKind::TaskStarted).count();

        let r2 = ac.run(&afg, &table, &IoService::new(), &ConsoleService::new(ac.log().clone()));
        assert!(r2.outcome.success);
        assert_eq!(
            ac.log().query(EventKind::TaskStarted).count(),
            started,
            "second run re-executes nothing"
        );
        assert_eq!(ac.log().query(EventKind::TaskResumed).count(), 3);
    }

    #[test]
    fn quarantined_replica_invalidates_checkpoints() {
        use crate::checkpoint::CheckpointPolicy;
        let repo = repo_with_hosts(&["h0", "h1"]);
        let store = CheckpointStore::new();
        let config = AppControllerConfig {
            executor: ExecutorConfig {
                checkpoint: CheckpointPolicy::every(0.5, 0.0),
                ..ExecutorConfig::default()
            },
            ..AppControllerConfig::default()
        };
        let log = EventLog::new();
        let ac = AppController::new(SiteManager::new(SiteId(0), repo), config, log)
            .with_checkpoints(store.clone());
        let afg = chain();
        let table = table_on(&afg, "h0");
        assert!(
            ac.run(&afg, &table, &IoService::new(), &ConsoleService::new(ac.log().clone()))
                .outcome
                .success
        );

        // All checkpoints live on h0 — quarantining it makes them
        // unusable, so the rerun executes (on the replacement host).
        ac.note_host_failed(1.0, "h0");
        let started = ac.log().query(EventKind::TaskStarted).count();
        let r2 = ac.run(&afg, &table, &IoService::new(), &ConsoleService::new(ac.log().clone()));
        assert!(r2.outcome.success);
        assert_eq!(ac.log().query(EventKind::TaskResumed).count(), 0);
        assert_eq!(
            ac.log().query(EventKind::TaskStarted).count(),
            started + 3,
            "every task re-executed once its checkpoints became unreachable"
        );
        for r in &r2.outcome.records {
            assert_eq!(r.hosts, vec!["h1".to_string()], "rerun lands on the healthy host");
        }
    }

    #[test]
    fn learned_rates_improve_with_repeated_runs() {
        let repo = repo_with_hosts(&["h0"]);
        let ac = controller(repo.clone());
        let afg = chain();
        let table = table_on(&afg, "h0");
        for _ in 0..3 {
            let io = IoService::new();
            let console = ConsoleService::new(ac.log().clone());
            assert!(ac.run(&afg, &table, &io, &console).outcome.success);
        }
        repo.tasks(|db| {
            assert_eq!(db.sample_count("Sort", "h0"), 0, "Sort not in this app");
            assert_eq!(db.sample_count("Map", "h0"), 3);
        });
    }
}
