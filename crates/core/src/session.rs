//! Authenticated sessions and the submit pipeline.
//!
//! A [`Session`] is what the paper's user holds after the Application
//! Editor authenticates against the Site Manager (§2). Its
//! [`Session::submit`] runs the full VDCE pipeline on an uploaded
//! [`AfgDocument`]:
//!
//! 1. authorship and validation checks,
//! 2. **scheduling** — the site-scheduler algorithm over the k nearest
//!    neighbour sites permitted by the user's access domain,
//! 3. **execution** — Data-Manager channels, start-up signal, threshold
//!    rescheduling gate, real kernels,
//! 4. **write-back** — measured execution times routed to the owning
//!    site's task-performance database,
//! 5. a [`RunReport`] with the allocation table, predicted schedule,
//!    execution records and visualisation artefacts.

use crate::env::Vdce;
use crate::report::RunReport;
use std::fmt;
use std::time::Duration;
use vdce_afg::AfgDocument;
use vdce_net::topology::SiteId;
use vdce_net::{Clock, RealClock};
use vdce_repository::accounts::{AccessDomain, UserAccount};
use vdce_repository::SiteRepository;
use vdce_runtime::{
    execute, ConsoleService, DataManager, EventLog, Execution, IoService, RuntimeEvent,
    ThresholdGate, VisualizationService,
};
use vdce_sched::evaluate;
use vdce_sched::site_scheduler::{site_schedule, SchedError, SchedRequest, SchedulerConfig};
use vdce_sched::view::SiteView;

/// Login failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoginError {
    /// Bad user/password (indistinguishable on purpose).
    AuthenticationFailed,
    /// The site id does not exist.
    NoSuchSite(SiteId),
}

impl fmt::Display for LoginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoginError::AuthenticationFailed => write!(f, "authentication failed"),
            LoginError::NoSuchSite(s) => write!(f, "no such site {s}"),
        }
    }
}

impl std::error::Error for LoginError {}

/// Submission failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The document's author is not the session user.
    NotAuthor {
        /// Document author.
        author: String,
        /// Session user.
        user: String,
    },
    /// The scheduler could not place the application.
    Scheduling(SchedError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::NotAuthor { author, user } => {
                write!(f, "document author `{author}` is not the session user `{user}`")
            }
            SubmitError::Scheduling(e) => write!(f, "scheduling failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// An authenticated user session homed at one site.
pub struct Session<'v> {
    vdce: &'v Vdce,
    account: UserAccount,
    home: SiteId,
    io: IoService,
    console: ConsoleService,
    log: EventLog,
    /// Started at login: stamps the session's log, its console's
    /// suspensions and every submission's runs alike.
    clock: RealClock,
}

impl<'v> Session<'v> {
    pub(crate) fn open(
        vdce: &'v Vdce,
        site: SiteId,
        user: &str,
        password: &str,
    ) -> Result<Self, LoginError> {
        if site.index() >= vdce.site_count() {
            return Err(LoginError::NoSuchSite(site));
        }
        let account = vdce
            .repository(site)
            .accounts(|db| db.authenticate(user, password).cloned())
            .map_err(|_| LoginError::AuthenticationFailed)?;
        let log = EventLog::new();
        let clock = RealClock::new();
        Ok(Session {
            vdce,
            account,
            home: site,
            io: IoService::new(),
            console: ConsoleService::new(log.clone(), clock.clone()),
            log,
            clock,
        })
    }

    /// The authenticated account.
    pub fn account(&self) -> &UserAccount {
        &self.account
    }

    /// The session's home site.
    pub fn home_site(&self) -> SiteId {
        self.home
    }

    /// The session's I/O service (upload input files here).
    pub fn io(&self) -> &IoService {
        &self.io
    }

    /// The session's console service (suspend/resume running
    /// applications).
    pub fn console(&self) -> &ConsoleService {
        &self.console
    }

    /// Effective neighbour count for this user: the access-domain type of
    /// the 5-tuple caps how far applications may be scheduled.
    pub fn effective_k(&self) -> usize {
        match self.account.domain {
            AccessDomain::LocalSite => 0,
            AccessDomain::Neighbours => self.vdce.config().k_neighbours,
            AccessDomain::Global => self.vdce.site_count().saturating_sub(1),
        }
    }

    /// Submit an application document: schedule it across the federation
    /// and execute it (see the module docs).
    pub fn submit(&self, doc: &AfgDocument) -> Result<RunReport, SubmitError> {
        if doc.author != self.account.user_name {
            return Err(SubmitError::NotAuthor {
                author: doc.author.clone(),
                user: self.account.user_name.clone(),
            });
        }
        let afg = &doc.afg;

        // --- Scheduling phase -----------------------------------------
        let local_view = SiteView::capture(self.home, self.vdce.repository(self.home));
        let remote_views: Vec<SiteView> = (0..self.vdce.site_count() as u16)
            .map(SiteId)
            .filter(|s| *s != self.home)
            .map(|s| SiteView::capture(s, self.vdce.repository(s)))
            .collect();
        let config =
            &SchedulerConfig { k_neighbours: self.effective_k(), ..SchedulerConfig::default() };
        let (local, remotes, net) = (&local_view, &remote_views[..], self.vdce.net());
        let req = SchedRequest { afg, local, remotes, net, config, data: None, metrics: None };
        let table = site_schedule(&req).map_err(SubmitError::Scheduling)?;

        // Predicted schedule (for the report's predicted-vs-measured
        // comparison).
        let levels =
            local_view.levels(afg).map_err(|_| SubmitError::Scheduling(SchedError::Cyclic))?;
        let predicted = evaluate(afg, &table, self.vdce.net(), &levels, None).ok();

        // --- Execution phase ------------------------------------------
        // Merged repository: the Application Controller's threshold gate
        // and rescheduling need every involved host's live record.
        let merged = SiteRepository::new();
        merged.resources_mut(|dst| {
            for s in 0..self.vdce.site_count() as u16 {
                self.vdce.repository(SiteId(s)).resources(|src| {
                    for r in src.iter() {
                        dst.upsert(r.clone());
                    }
                });
            }
        });
        let gate = ThresholdGate::new(&merged, self.vdce.config().load_threshold, afg);
        let dm = DataManager::new(self.vdce.config().transport, self.log.clone());
        self.log.emit(self.clock.now(), RuntimeEvent::StartupSignal);
        let (tx, rx) = std::sync::mpsc::channel();
        let outcome = execute(Execution {
            afg,
            table: &table,
            dm: &dm,
            io: &self.io,
            console: &self.console,
            gate: &gate,
            log: &self.log,
            clock: &self.clock,
            completions: Some(tx),
            input_timeout: Duration::from_secs(30),
            registry: self.vdce.host_locks(),
        });

        // --- Write-back phase ------------------------------------------
        // Route each measured execution time to the owning site's
        // Site Manager (matching §4.1's post-run task-perf update).
        while let Ok(msg) = rx.try_recv() {
            let host = match &msg {
                vdce_runtime::ControlMessage::ExecutionCompleted { host, .. } => host.clone(),
                _ => continue,
            };
            if let Some(site) = self.vdce.topology().site_of_host(&host) {
                self.vdce.site_manager(site).process(&msg, None);
            } else {
                // Relocated onto a host the topology doesn't know (merged
                // repo only) — book it at the home site.
                self.vdce.site_manager(self.home).process(&msg, None);
            }
        }

        let viz = VisualizationService::new(self.log.clone());
        Ok(RunReport {
            allocation: table,
            predicted,
            outcome,
            gantt: viz.gantt(64),
            timeline_csv: viz.timeline_csv(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::{AfgBuilder, ComputationMode, IoSpec, MachineType, TaskLibrary};
    use vdce_repository::accounts::AccessDomain;

    fn federation() -> Vdce {
        let mut b = Vdce::builder();
        let s0 = b.add_site("alpha");
        let s1 = b.add_site("beta");
        for i in 0..3 {
            b.add_host(s0, format!("a{i}"), MachineType::LinuxPc, 1.0 + i as f64, 1 << 30);
            b.add_host(s1, format!("b{i}"), MachineType::SunSolaris, 2.0 + i as f64, 1 << 30);
        }
        b.add_user("user_k", "pw", 5, AccessDomain::Global);
        b.add_user("homebody", "pw", 1, AccessDomain::LocalSite);
        b.build()
    }

    fn chain_doc(author: &str) -> AfgDocument {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "src", 2000).unwrap();
        let m = b.add_task("Sort", "sort", 2000).unwrap();
        let k = b.add_task("Sink", "snk", 2000).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        AfgDocument::new(author, b.build().unwrap()).unwrap()
    }

    #[test]
    fn end_to_end_submit_succeeds() {
        let v = federation();
        let session = v.login(SiteId(0), "user_k", "pw").unwrap();
        let report = session.submit(&chain_doc("user_k")).unwrap();
        assert!(report.outcome.success);
        assert_eq!(report.allocation.len(), 3);
        assert!(report.predicted.is_some());
        assert!(report.gantt.contains('#'));
        assert!(report.timeline_csv.contains("task_finished"));
    }

    #[test]
    fn measured_times_land_in_owning_site_repo() {
        let v = federation();
        let session = v.login(SiteId(0), "user_k", "pw").unwrap();
        let report = session.submit(&chain_doc("user_k")).unwrap();
        // Every executed host has a measurement recorded at its site.
        for rec in &report.outcome.records {
            for host in &rec.hosts {
                let site = v.topology().site_of_host(host).unwrap();
                let lib_task = &report.allocation.placement(rec.task).unwrap().task_name;
                let _ = lib_task;
                let any = v.repository(site).tasks(|db| {
                    ["Source", "Sort", "Sink"].iter().any(|t| db.sample_count(t, host) > 0)
                });
                assert!(any, "host {host} must have a measurement at its site");
            }
        }
    }

    #[test]
    fn local_domain_user_never_leaves_home_site() {
        let v = federation();
        let session = v.login(SiteId(0), "homebody", "pw").unwrap();
        assert_eq!(session.effective_k(), 0);
        let report = session.submit(&chain_doc("homebody")).unwrap();
        assert_eq!(report.allocation.sites_used(), vec![SiteId(0)]);
    }

    #[test]
    fn global_domain_user_can_use_remote_faster_site() {
        let v = federation();
        let session = v.login(SiteId(0), "user_k", "pw").unwrap();
        assert_eq!(session.effective_k(), 1);
    }

    /// The time of every timeline row naming `event`.
    fn times_of(csv: &str, event: &str) -> Vec<f64> {
        csv.lines()
            .skip(1)
            .filter_map(|row| row.split_once(','))
            .filter(|(_, rest)| rest.split(',').next() == Some(event))
            .map(|(t, _)| t.parse().unwrap())
            .collect()
    }

    #[test]
    fn console_and_every_submission_share_the_session_clock() {
        let last = |csv: &str, event| times_of(csv, event).into_iter().fold(0.0, f64::max);
        let v = federation();
        let session = v.login(SiteId(0), "user_k", "pw").unwrap();
        let first = session.submit(&chain_doc("user_k")).unwrap();
        let first_done = last(&first.timeline_csv, "task_finished");
        assert!(first_done > 0.0);
        // A second submission continues the session's time line.
        let second = session.submit(&chain_doc("user_k")).unwrap();
        let startups = times_of(&second.timeline_csv, "startup_signal");
        assert_eq!(startups.len(), 2);
        assert!(startups[1] >= first_done, "{startups:?} vs {first_done}");
        // The console stamps suspend and resume on the same clock.
        let second_done = last(&second.timeline_csv, "task_finished");
        session.console().suspend();
        session.console().resume();
        let csv = VisualizationService::new(session.log.clone()).timeline_csv();
        for event in ["suspended", "resumed"] {
            let t = times_of(&csv, event);
            assert!(
                t.len() == 1 && t[0] >= second_done,
                "{event} at {t:?}, run done at {second_done}"
            );
        }
    }

    #[test]
    fn submit_rejects_foreign_documents() {
        let v = federation();
        let session = v.login(SiteId(0), "user_k", "pw").unwrap();
        let err = session.submit(&chain_doc("someone_else")).unwrap_err();
        assert!(matches!(err, SubmitError::NotAuthor { .. }));
        assert!(err.to_string().contains("someone_else"));
    }

    #[test]
    fn submit_surfaces_scheduling_errors() {
        let v = federation();
        let session = v.login(SiteId(0), "user_k", "pw").unwrap();
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("bad", &lib);
        let t = b.add_task("Source", "s", 10).unwrap();
        b.set_preferred_host(t, "machine_that_does_not_exist").unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        b.connect(t, 0, k, 0).unwrap();
        let doc = AfgDocument::new("user_k", b.build().unwrap()).unwrap();
        assert!(matches!(session.submit(&doc), Err(SubmitError::Scheduling(_))));
    }

    #[test]
    fn uploaded_input_file_is_used() {
        let v = federation();
        let session = v.login(SiteId(0), "user_k", "pw").unwrap();
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("solve", &lib);
        let lu = b.add_task("LU_Decomposition", "lu", 4).unwrap();
        b.set_input(lu, 0, IoSpec::inline_file("/users/VDCE/user_k/matrix_A.dat", 0)).unwrap();
        let k = b.add_task("Sink", "k", 4).unwrap();
        b.connect(lu, 0, k, 0).unwrap();
        let doc = AfgDocument::new("user_k", b.build().unwrap()).unwrap();
        // Upload an identity-ish diagonally dominant matrix.
        let m = vdce_runtime::synth_matrix(1, 4);
        session.io().put("/users/VDCE/user_k/matrix_A.dat", vdce_runtime::encode_f64s(&m));
        let report = session.submit(&doc).unwrap();
        assert!(report.outcome.success);
    }

    #[test]
    fn parallel_task_runs_across_nodes() {
        let v = federation();
        let session = v.login(SiteId(0), "user_k", "pw").unwrap();
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("par", &lib);
        let lu = b.add_task("LU_Decomposition", "lu", 64).unwrap();
        b.set_mode(lu, ComputationMode::Parallel).unwrap();
        b.set_num_nodes(lu, 2).unwrap();
        b.set_input(lu, 0, IoSpec::inline_file("/A.dat", 0)).unwrap();
        let k = b.add_task("Sink", "k", 64).unwrap();
        b.connect(lu, 0, k, 0).unwrap();
        let doc = AfgDocument::new("user_k", b.build().unwrap()).unwrap();
        let report = session.submit(&doc).unwrap();
        assert!(report.outcome.success);
    }
}
