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
//! `vdce_core::Session::submit` runs that sequence: it activates the
//! Data Manager, emits [`RuntimeEvent::StartupSignal`], executes the
//! application and writes measured times back through the Site Managers.
//! This module is its rescheduling half, the [`ThresholdGate`]: a
//! [`StartGate`] that relocates any task whose host is down or above the
//! load threshold at launch time (rescheduling happens at task
//! granularity: the paper terminates the running executable and
//! reschedules; the gate intercepts at the moment the executable would be
//! started, which exercises the same control loop without mid-kernel
//! signal handling).
//!
//! [`RuntimeEvent::StartupSignal`]: crate::RuntimeEvent::StartupSignal

use crate::executor::{GateDecision, StartGate};
use vdce_afg::{Afg, TaskId};
use vdce_predict::model::Predictor;
use vdce_repository::SiteRepository;

/// The threshold-rescheduling start gate: consults the live resource
/// database just before each task launches. Public so the high-level
/// environment (`vdce-core`) can execute federated allocations through
/// the same control loop.
pub struct ThresholdGate<'a> {
    repo: &'a SiteRepository,
    threshold: f64,
    predictor: Predictor,
    afg: &'a Afg,
}

impl<'a> ThresholdGate<'a> {
    /// Gate over `repo` with the given load threshold, for `afg`.
    pub fn new(repo: &'a SiteRepository, threshold: f64, afg: &'a Afg) -> Self {
        ThresholdGate { repo, threshold, predictor: Predictor::default(), afg }
    }
}

impl ThresholdGate<'_> {
    /// Best replacement hosts for `task` (same count as requested),
    /// preferring up hosts below the threshold, by predicted time.
    fn pick_replacements(&self, task: TaskId, count: usize) -> Option<Vec<String>> {
        let node = self.afg.task(task);
        let mut candidates: Vec<(f64, String)> = Vec::new();
        self.repo.resources(|db| {
            self.repo.tasks(|tasks| {
                for host in db.up_hosts() {
                    if host.smoothed_workload() > self.threshold {
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
                Some(r) => !r.is_up() || r.smoothed_workload() > self.threshold,
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

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_repository::resources::{HostStatus, ResourceRecord};

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

    /// The gate's decision for every task of `afg` scheduled on `host`.
    fn decisions(repo: &SiteRepository, afg: &Afg, host: &str) -> Vec<GateDecision> {
        let gate = ThresholdGate::new(repo, 4.0, afg);
        afg.task_ids().map(|t| gate.check(t, &[host.to_string()])).collect()
    }

    #[test]
    fn healthy_host_proceeds() {
        let repo = repo_with_hosts(&["h0", "h1"]);
        let afg = chain();
        assert!(decisions(&repo, &afg, "h0").iter().all(|d| *d == GateDecision::Proceed));
    }

    #[test]
    fn overloaded_host_triggers_rescheduling() {
        let repo = repo_with_hosts(&["busy", "idle"]);
        repo.resources_mut(|db| {
            for _ in 0..4 {
                db.record_sample("busy", 9.0, 1 << 30); // way above threshold 4.0
            }
        });
        let afg = chain();
        for d in decisions(&repo, &afg, "busy") {
            assert_eq!(d, GateDecision::Relocate(vec!["idle".to_string()]), "every task moves");
        }
    }

    #[test]
    fn down_host_triggers_rescheduling() {
        let repo = repo_with_hosts(&["dead", "alive"]);
        repo.resources_mut(|db| {
            db.set_status("dead", HostStatus::Down);
        });
        let afg = chain();
        for d in decisions(&repo, &afg, "dead") {
            assert_eq!(d, GateDecision::Relocate(vec!["alive".to_string()]));
        }
    }

    #[test]
    fn no_viable_replacement_aborts_the_task() {
        let repo = repo_with_hosts(&["only"]);
        repo.resources_mut(|db| {
            db.set_status("only", HostStatus::Down);
        });
        let afg = chain();
        for d in decisions(&repo, &afg, "only") {
            assert!(matches!(d, GateDecision::Abort(e) if e.contains("threshold")));
        }
    }
}
