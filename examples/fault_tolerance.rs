//! Failure detection and threshold rescheduling (§4.1).
//!
//! Demonstrates the two Control-Manager feedback loops:
//!
//! 1. **Echo-probe failure detection** — a Group Manager's echo round
//!    marks a dead host "down" in the resource-performance database, and
//!    the next submission avoids it.
//! 2. **Load-threshold rescheduling** — load spikes reported by Monitor
//!    daemons push a host over the Application Controller's threshold;
//!    tasks scheduled there are relocated at launch time.
//!
//! Plus the checkpoint layer of DESIGN.md §11:
//!
//! 3. **Checkpointed crash recovery** — the same mid-run host crash is
//!    replayed restart-from-zero and with periodic checkpoints; the
//!    checkpointed run resumes migrated tasks from their last snapshot
//!    instead of re-executing them.
//! 4. **DSM snapshot/restore** — a shared-memory region is snapshotted,
//!    scribbled over, and rewound bit-for-bit.
//!
//! ```sh
//! cargo run --example fault_tolerance
//! ```

use vdce_afg::{AfgBuilder, AfgDocument, MachineType, TaskLibrary};
use vdce_core::Vdce;
use vdce_repository::AccessDomain;
use vdce_runtime::{EventLog, FlagEcho, GroupManager};
use vdce_sim::run_fault_scenario;
use vdce_sim::scenario::{crash_mid_run, crash_mid_run_checkpointed, FaultScenario};

fn doc(author: &str) -> AfgDocument {
    let lib = TaskLibrary::standard();
    let mut afg = AfgBuilder::new("ft-demo", &lib);
    let src = afg.add_task("Source", "src", 40_000).unwrap();
    let mid = afg.add_task("Sort", "sort", 40_000).unwrap();
    let snk = afg.add_task("Sink", "snk", 40_000).unwrap();
    afg.connect(src, 0, mid, 0).unwrap();
    afg.connect(mid, 0, snk, 0).unwrap();
    AfgDocument::new(author, afg.build().unwrap()).unwrap()
}

fn main() {
    let mut b = Vdce::builder();
    let site = b.add_site("campus");
    b.add_host(site, "fast_but_doomed", MachineType::LinuxPc, 4.0, 1 << 30);
    b.add_host(site, "steady", MachineType::LinuxPc, 1.0, 1 << 30);
    b.add_user("operator", "pw", 5, AccessDomain::LocalSite);
    let vdce = b.build();
    let session = vdce.login(site, "operator", "pw").unwrap();

    // --- Healthy run: everything lands on the fast host ---------------
    let r1 = session.submit(&doc("operator")).unwrap();
    println!("--- healthy run ---\n{}", r1.render());
    assert!(r1.outcome.success);
    assert!(r1.allocation.hosts_used().contains(&"fast_but_doomed"));

    // --- The fast host dies; a Group Manager detects it ---------------
    let mut echo = FlagEcho::new();
    echo.kill("fast_but_doomed");
    let hosts = vec!["fast_but_doomed".into(), "steady".into()];
    let mut gm = GroupManager::new("campus-g0", hosts, 1.0, EventLog::new());
    let changed = gm.probe_hosts(0.0, &echo);
    println!("\necho round detected failures: {changed:?}");
    for msg in &changed {
        vdce.site_manager(site).process(msg, None);
    }

    // --- Next submission avoids the dead host --------------------------
    let r2 = session.submit(&doc("operator")).unwrap();
    println!("--- after failure detection ---\n{}", r2.render());
    assert!(r2.outcome.success);
    assert_eq!(r2.allocation.hosts_used(), vec!["steady"]);

    // --- The host recovers but is now heavily loaded -------------------
    vdce.repository(site).resources_mut(|db| {
        db.set_status("fast_but_doomed", vdce_repository::HostStatus::Up);
        for _ in 0..8 {
            db.record_sample("fast_but_doomed", 9.0, 1 << 30); // load 9 ≫ threshold 4
        }
    });
    let r3 = session.submit(&doc("operator")).unwrap();
    println!("--- after load spike (threshold rescheduling) ---\n{}", r3.render());
    assert!(r3.outcome.success);
    // Whether the scheduler avoided it up front (workload-aware
    // prediction) or the Application Controller relocated at launch, no
    // task may have run on the overloaded host.
    for rec in &r3.outcome.records {
        assert!(!rec.hosts.contains(&"fast_but_doomed".to_string()));
    }
    println!("no task executed on the overloaded host ✓");

    // --- Checkpointed crash recovery (DESIGN.md §11) -------------------
    // The same mid-run crash, twice: restart-from-zero, then with a
    // checkpoint every 10% of a task's work at 0.2% overhead per write.
    let run = |fs: FaultScenario| run_fault_scenario(fs.name, &fs.request());
    let plain = run(crash_mid_run());
    let ckpt = run(crash_mid_run_checkpointed());
    println!("\n--- checkpointed crash recovery ---");
    println!(
        "restart-from-zero: inflation {:.3}x, {} migrations, every restart from 0%",
        plain.inflation, plain.migrations
    );
    println!(
        "checkpointed:      inflation {:.3}x, {} checkpoints ({:.4}s overhead), \
         {:.0}% of lost work recovered",
        ckpt.inflation,
        ckpt.checkpoints_taken,
        ckpt.checkpoint_overhead,
        100.0 * ckpt.recovered_work_fraction
    );
    assert_eq!(ckpt.tasks_failed, 0);
    assert!(plain.resumed_progress.iter().all(|r| *r == 0.0));
    assert!(ckpt.resumed_progress.iter().any(|r| *r > 0.0));
    assert!(ckpt.inflation < plain.inflation);
    println!("crash absorbed cheaper than restart-from-zero ✓");

    // --- DSM snapshot/restore -------------------------------------------
    let region = vdce_dsm::DsmRegion::new(64, 16, 2);
    region.handle(0).write_u64(0, 0xDEAD_BEEF);
    region.handle(1).write_u64(8, 42);
    let snap = region.snapshot();
    region.handle(0).write_u64(0, 0); // post-snapshot damage
    region.handle(1).write_u64(8, 7);
    region.restore(&snap);
    assert_eq!(region.handle(1).read_u64(0), 0xDEAD_BEEF);
    assert_eq!(region.handle(0).read_u64(8), 42);
    println!("DSM region rewound to snapshot bit-for-bit ✓");
}
