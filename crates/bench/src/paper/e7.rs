//! E7 / §4.1 — threshold rescheduling under load: execution time with
//! and without the Application Controller's load-threshold relocation
//! when the fastest hosts are hit by a load spike *between* scheduling
//! and execution (the stale-schedule scenario the controller exists
//! for).
//!
//! Claim under test: "If the current load on any of these machines is
//! more than a predefined threshold value, the Application Controller
//! terminates the task execution … and sends a task rescheduling
//! request."

use super::Claims;
use std::time::Duration;
use vdce_afg::{Afg, AfgBuilder, MachineType, TaskLibrary};
use vdce_net::topology::SiteId;
use vdce_net::RealClock;
use vdce_obs::Report;
use vdce_repository::resources::ResourceRecord;
use vdce_repository::SiteRepository;
use vdce_runtime::{
    execute, AlwaysProceed, ConsoleService, DataManager, EventLog, Execution, HostLockRegistry,
    IoService, RuntimeEvent, StartGate, ThresholdGate, Transport,
};
use vdce_sched::site_scheduler::{site_schedule, SchedRequest, SchedulerConfig};
use vdce_sched::view::SiteView;
use vdce_sim::Table;

fn repo() -> SiteRepository {
    let repo = SiteRepository::new();
    let fast = (0..2).map(|i| (format!("fast{i}"), format!("10.0.0.{}", i + 1), 4.0, "g0"));
    let steady = (0..4).map(|i| (format!("steady{i}"), format!("10.0.1.{i}"), 1.0, "g1"));
    repo.resources_mut(|db| {
        for (name, ip, speed, group) in fast.chain(steady) {
            let linux = MachineType::LinuxPc;
            db.upsert(ResourceRecord::new(name, ip, linux, speed, 1, 1 << 30, group));
        }
    });
    repo
}

fn fan_afg() -> Afg {
    let lib = TaskLibrary::standard();
    let mut b = AfgBuilder::new("e7-fan", &lib);
    let src = b.add_task("Source", "src", 20_000).unwrap();
    for i in 0..6 {
        let name = format!("sort{i}");
        let m = b.add_task("Sort", &name, 400_000).unwrap();
        b.connect(src, 0, m, 0).unwrap();
    }
    b.build().unwrap()
}

/// Returns (wall seconds, reschedules, tasks executed on spiked hosts).
fn spiked_run(gated: bool) -> (f64, usize, usize) {
    let repo = repo();
    let afg = fan_afg();

    // 1. Schedule against the CLEAN view: everything piles onto the fast
    //    hosts.
    let view = SiteView::capture(SiteId(0), &repo);
    let net = vdce_net::model::NetworkModel::with_defaults(1);
    let (local, net, config) = (&view, &net, &SchedulerConfig::default());
    let req =
        SchedRequest { afg: &afg, local, remotes: &[], net, config, data: None, metrics: None };
    let table = site_schedule(&req).unwrap();

    // 2. The spike arrives: monitoring floods the repository with load 12
    //    on the fast hosts (simulating external users grabbing them).
    repo.resources_mut(|db| {
        for h in ["fast0", "fast1"] {
            for _ in 0..16 {
                db.record_sample(h, 12.0, 1 << 30);
            }
        }
    });

    // 3. Execute, with or without the Application Controller's gate.
    let log = EventLog::new();
    let dm = DataManager::new(Transport::InProc, log.clone());
    let io = IoService::new();
    let clock = RealClock::new();
    let console = ConsoleService::new(log.clone(), clock.clone());
    let gate_box: Box<dyn StartGate> = if gated {
        Box::new(ThresholdGate::new(&repo, 4.0, &afg))
    } else {
        Box::new(AlwaysProceed)
    };
    // Simulate that spiked hosts really are slower: the executor runs real
    // kernels, so "slow host" is modelled by the time-sharing penalty at
    // kernel level — here we keep kernels real and count placement
    // instead; wall time differences come from contention on two hosts
    // vs spreading over six.
    let outcome = execute(Execution {
        afg: &afg,
        table: &table,
        dm: &dm,
        io: &io,
        console: &console,
        gate: gate_box.as_ref(),
        log: &log,
        clock: &clock,
        completions: None,
        input_timeout: Duration::from_secs(30),
        registry: &HostLockRegistry::new(),
    });
    assert!(outcome.success);
    let rescheds = log.count(|e| matches!(e, RuntimeEvent::RescheduleRequested { .. }));
    let on_fast =
        outcome.records.iter().filter(|r| r.hosts.iter().any(|h| h.starts_with("fast"))).count();
    (outcome.wall_seconds, rescheds, on_fast)
}

pub(super) fn run(claims: &mut Claims) -> String {
    let mut t =
        Table::new(&["application_controller", "wall_s", "reschedules", "tasks_on_spiked_hosts"]);
    for &(label, gated) in &[("active (threshold 4)", true), ("disabled", false)] {
        let (wall, rescheds, on_fast) = spiked_run(gated);
        // Active, every task placed on a spiked host migrates; disabled,
        // they all stay there.
        let migrated = rescheds > 0 && on_fast == 0;
        let stayed = rescheds == 0 && on_fast > 0;
        claims.check(if gated { migrated } else { stayed }, || {
            format!("e7: {label}: {rescheds} reschedules, {on_fast} tasks on spiked hosts")
        });
        t.row(&[
            label.to_string(),
            format!("{wall:.4}"),
            rescheds.to_string(),
            on_fast.to_string(),
        ]);
    }
    Report::new("E7: threshold rescheduling under a post-schedule load spike")
        .table(t)
        .note("active: tasks are relocated off the spiked fast hosts at launch time")
        .render()
}
