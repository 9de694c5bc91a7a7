//! Event-sourced mutations of the site repository.
//!
//! The Site Manager's steady-state writes — workload samples, host
//! up/down transitions, post-run execution measurements — are the
//! control-plane state a process death would otherwise lose. Each one
//! is a [`RepoEvent`]: a small serializable value with a pure,
//! deterministic [`RepoEvent::apply`], the one transition there is. The
//! live [`SiteRepository`](crate::SiteRepository) journals the event
//! *before* applying it
//! ([`apply_event`](crate::SiteRepository::apply_event)) to the same
//! [`RepositorySnapshot`] value that a write-ahead log replay — or a
//! deputy replica applying the same events in the same order — rebuilds.
//!
//! Rare administrative writes (adding user accounts, registering
//! executables, host registration) happen at setup time, before a
//! journal is attached; recovery restores them from the initial
//! snapshot rather than from events.

use crate::repository::RepositorySnapshot;
use crate::resources::HostStatus;
use serde::{Deserialize, Serialize};

/// One journaled mutation of a site repository.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RepoEvent {
    /// A Group Manager workload report for one host (§4.1 monitoring).
    RecordSample {
        /// Host name.
        host: String,
        /// Measured workload (run-queue length).
        workload: f64,
        /// Available memory in bytes.
        available_memory: u64,
    },
    /// Failure detection marked a host up or down.
    SetStatus {
        /// Host name.
        host: String,
        /// New status.
        status: HostStatus,
    },
    /// The Site Manager's post-run task-performance write-back.
    RecordExecution {
        /// Library task name.
        task: String,
        /// Host the task ran on.
        host: String,
        /// Problem size of the run.
        problem_size: u64,
        /// Measured wall-clock seconds.
        seconds: f64,
    },
}

impl RepoEvent {
    /// Apply this event to a detached snapshot — the pure state
    /// transition `apply(event, state) -> state'` that WAL replay and
    /// deputy replicas share with the live repository. Returns whether
    /// the event applied (events naming unknown hosts or tasks are
    /// dropped, deterministically on both paths).
    pub fn apply(&self, state: &mut RepositorySnapshot) -> bool {
        match self {
            RepoEvent::RecordSample { host, workload, available_memory } => {
                state.resources.record_sample(host, *workload, *available_memory)
            }
            RepoEvent::SetStatus { host, status } => state.resources.set_status(host, *status),
            RepoEvent::RecordExecution { task, host, problem_size, seconds } => {
                state.tasks.record_execution(task, host, *problem_size, *seconds)
            }
        }
    }

    /// Are the event's numbers finite? JSON spells no NaN or infinity.
    pub(crate) fn is_finite(&self) -> bool {
        match self {
            RepoEvent::RecordSample { workload, .. } => workload.is_finite(),
            RepoEvent::SetStatus { .. } => true,
            RepoEvent::RecordExecution { seconds, .. } => seconds.is_finite(),
        }
    }
}

/// The journal payload for the `repo` tag: a [`RepoEvent`] plus the
/// site it belongs to, so one control-plane journal can multiplex
/// every site's repository.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournaledRepoEvent {
    /// Owning site index.
    pub site: u16,
    /// The event.
    pub event: RepoEvent,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::SiteRepository;
    use crate::resources::ResourceRecord;
    use vdce_afg::MachineType;

    fn seeded() -> SiteRepository {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new(
                "civet",
                "10.0.0.9",
                MachineType::LinuxPc,
                1.0,
                1,
                1 << 26,
                "g0",
            ))
        });
        repo
    }

    #[test]
    fn live_apply_and_pure_apply_agree() {
        let live = seeded();
        let mut replayed = seeded().snapshot();
        let events = [
            RepoEvent::RecordSample {
                host: "civet".into(),
                workload: 2.5,
                available_memory: 1 << 20,
            },
            RepoEvent::SetStatus { host: "civet".into(), status: HostStatus::Down },
            RepoEvent::RecordExecution {
                task: "Map".into(),
                host: "civet".into(),
                problem_size: 512,
                seconds: 0.25,
            },
            RepoEvent::SetStatus { host: "civet".into(), status: HostStatus::Up },
        ];
        for e in &events {
            live.apply_event(e.clone(), false);
            e.apply(&mut replayed);
        }
        assert_eq!(live.snapshot(), replayed);
    }

    #[test]
    fn events_serialize_round_trip() {
        let e = RepoEvent::RecordExecution {
            task: "FFT".into(),
            host: "civet".into(),
            problem_size: 4096,
            seconds: 1.75,
        };
        let wire =
            serde_json::to_string(&JournaledRepoEvent { site: 3, event: e.clone() }).unwrap();
        let back: JournaledRepoEvent = serde_json::from_str(&wire).unwrap();
        assert_eq!(back.site, 3);
        assert_eq!(back.event, e);
    }
}
