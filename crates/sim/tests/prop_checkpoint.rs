//! Property tests for the checkpointing subsystem, end to end:
//!
//! (a) no completed work is re-executed past a restored checkpoint —
//!     the [`CheckpointPolicy`] timing model credits the full resumed
//!     fraction, and a checkpointed crash replay completes every task;
//! (b) a [`DsmRegion`] snapshot/restore round-trip is bit-identical —
//!     restoring rewinds the region to exactly the snapshotted bytes no
//!     matter what was written in between;
//! (c) replaying the same fault plan twice yields an identical
//!     [`RecoveryReport`], checkpoints included.

use proptest::prelude::*;
use vdce_dsm::DsmRegion;
use vdce_runtime::CheckpointPolicy;
use vdce_sim::dag_gen::{layered_random, DagSpec};
use vdce_sim::pool_gen::{build_federation, Federation, FederationSpec, WanShape};
use vdce_sim::replay::{run_fault_scenario, ReplayConfig, ReplayRequest};
use vdce_sim::scenario::{schedule_estimate, Scenario};
use vdce_sim::{Fault, FaultPlan, RecoveryReport};

/// The recovery report of `plan` on `scenario`, unobserved and un-journaled.
fn recovery_report(
    name: &str,
    scenario: &Scenario,
    plan: &FaultPlan,
    cfg: &ReplayConfig,
) -> RecoveryReport {
    let (federation, afg, config) = (&scenario.federation, &scenario.afg, cfg);
    run_fault_scenario(
        name,
        &ReplayRequest { federation, afg, plan, config, obs: None, durable: None },
    )
}

fn fed(sites: usize, hosts: usize, seed: u64) -> Federation {
    build_federation(&FederationSpec {
        sites,
        hosts_per_site: hosts,
        heterogeneity: 2.0,
        group_size: 4,
        shape: WanShape::Star,
        seed,
        ..FederationSpec::default()
    })
}

/// A crash on the busiest host plus a transient outage later in the run
/// — the fault mix every checkpointed replay below is subjected to.
fn crash_plan(scenario: &Scenario, est: f64, tick: f64, seed: u64, crash_frac: f64) -> FaultPlan {
    let (_, victim) = schedule_estimate(scenario);
    FaultPlan {
        seed,
        faults: vec![
            Fault::HostCrash { host: victim.clone(), at: crash_frac * est },
            Fault::TransientOutage { host: victim, at: 0.8 * est, down_for: 4.0 * tick },
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // (a) The timing model never re-executes completed work: resuming
    // from progress `r` removes at least `r * w` seconds versus the
    // restart-from-zero plan of the same task (checkpoint writes can
    // only get cheaper, never dearer, on the shorter remainder).
    #[test]
    fn resumed_runs_never_reexecute_completed_work(
        w in 0.01f64..1000.0,
        r01 in 0u32..=100,
        interval in 1u32..=50,
        overhead in 0u32..=20,
    ) {
        let r = f64::from(r01) / 100.0;
        let policy =
            CheckpointPolicy::every(f64::from(interval) / 100.0, f64::from(overhead) / 1000.0);
        let from_zero = policy.run_plan(w, 0.0);
        let resumed = policy.run_plan(w, r);
        prop_assert!(
            resumed.duration <= from_zero.duration - r * w + 1e-9,
            "resume from {r} must drop at least {} seconds, went {} -> {}",
            r * w, from_zero.duration, resumed.duration
        );
        // Every planned checkpoint of the resumed run is strictly past
        // the restored progress: completed work is never re-snapshotted.
        for c in &resumed.checkpoints {
            prop_assert!(c.progress > r - 1e-12);
        }
    }

    // (a, continued) A checkpointed crash replay loses no tasks and the
    // recovered-work accounting stays within its bounds.
    #[test]
    fn checkpointed_crash_completes_everything(
        sites in 1usize..3,
        hosts_per_site in 3usize..5,
        fed_seed in 1u64..500,
        dag_seed in 1u64..500,
        tasks in 8usize..16,
        crash_pct in 10u32..60,
    ) {
        let federation = fed(sites, hosts_per_site, fed_seed);
        let afg = layered_random(&DagSpec { tasks, width: 3, ..DagSpec::default() }, dag_seed);
        let scenario = Scenario { name: "prop-ckpt", federation, afg };
        let (est, _) = schedule_estimate(&scenario);
        let cfg = ReplayConfig {
            checkpoint: CheckpointPolicy::every(0.1, 0.002),
            ..ReplayConfig::scaled_to(est)
        };
        let plan =
            crash_plan(&scenario, est, cfg.tick, 7, f64::from(crash_pct) / 100.0);

        let report = recovery_report("prop-ckpt", &scenario, &plan, &cfg);
        prop_assert_eq!(report.tasks_failed, 0, "no task may fail with checkpointing on");
        prop_assert_eq!(report.tasks_completed, scenario.afg.tasks.len() as u64);
        for r in &report.resumed_progress {
            prop_assert!((0.0..=1.0).contains(r), "resume fraction {r} out of range");
        }
        prop_assert!(
            (0.0..=1.0 + 1e-9).contains(&report.recovered_work_fraction),
            "recovered-work fraction {} out of range",
            report.recovered_work_fraction
        );
    }

    // (b) DSM snapshot/restore round-trips bit-identically: whatever is
    // written after the snapshot, restore rewinds the region to exactly
    // the snapshotted bytes, on every node.
    #[test]
    fn dsm_snapshot_restore_is_bit_identical(
        size in 1usize..256,
        page_size in 1usize..32,
        nodes in 1usize..4,
        before in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 0..12),
        after in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..12),
    ) {
        let region = DsmRegion::new(size, page_size, nodes);
        let apply = |writes: &[(u8, u16, u8)]| {
            for (node, offset, byte) in writes {
                let node = *node as usize % nodes;
                let offset = *offset as usize % size;
                region.handle(node).write(offset, &[*byte]);
            }
        };
        apply(&before);
        let snap = region.snapshot();
        let golden = snap.read(0, size);

        apply(&after);
        region.restore(&snap);

        for node in 0..nodes {
            prop_assert_eq!(
                region.handle(node).read(0, size),
                golden.clone(),
                "node {} sees different bytes after restore",
                node
            );
        }
        // Re-snapshotting the restored region reproduces the original.
        prop_assert_eq!(region.snapshot().read(0, size), golden);
    }

    // (c) Replaying the same plan twice yields a bit-identical
    // RecoveryReport — checkpoint counters, overhead and resume
    // fractions included.
    #[test]
    fn checkpointed_replay_is_bit_identical(
        fed_seed in 1u64..500,
        dag_seed in 1u64..500,
        tasks in 8usize..14,
        crash_pct in 10u32..60,
    ) {
        let federation = fed(2, 3, fed_seed);
        let afg = layered_random(&DagSpec { tasks, width: 3, ..DagSpec::default() }, dag_seed);
        let scenario = Scenario { name: "prop-ckpt-det", federation, afg };
        let (est, _) = schedule_estimate(&scenario);
        let cfg = ReplayConfig {
            checkpoint: CheckpointPolicy::every(0.15, 0.002),
            ..ReplayConfig::scaled_to(est)
        };
        let plan =
            crash_plan(&scenario, est, cfg.tick, 11, f64::from(crash_pct) / 100.0);

        let a = recovery_report("prop-ckpt-det", &scenario, &plan, &cfg);
        let b = recovery_report("prop-ckpt-det", &scenario, &plan, &cfg);
        prop_assert_eq!(
            serde_json::to_string(&a).expect("serialise"),
            serde_json::to_string(&b).expect("serialise"),
            "same plan, different report"
        );
    }
}
