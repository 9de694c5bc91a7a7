//! Observability determinism: for every named fault scenario, two
//! traced replays of the *same* inputs must produce bit-identical
//! trace JSONL and bit-identical deterministic metric snapshots.
//!
//! This is the library-level form of the `trace` experiment's gate: it runs
//! [`ReplayRequest::run`] directly (no fault-free baseline twin), with
//! tracing enabled, across the whole named-scenario catalogue — so the
//! contract "spans and events are keyed by logical sim time only, and
//! every metric outside the `profile.` namespace is a pure function of
//! the replay inputs" is enforced for each scenario, not just the quick
//! subset.

use vdce_obs::{validate_jsonl, Observer};
use vdce_sim::replay::{ReplayOutcome, ReplayRequest};
use vdce_sim::scenario::{all_fault_scenarios, FaultScenario};

/// `fs` replayed into `obs`, without the fault-free twin.
fn replay_into(fs: &FaultScenario, obs: &Observer) -> ReplayOutcome {
    let (federation, afg, plan, config) =
        (&fs.scenario.federation, &fs.scenario.afg, &fs.plan, &fs.config);
    ReplayRequest { federation, afg, plan, config, obs: Some(obs), durable: None }.run()
}

#[test]
fn traces_and_metrics_bit_identical_across_replays() {
    for fs in all_fault_scenarios() {
        let obs_a = Observer::enabled();
        let out_a = replay_into(&fs, &obs_a);
        let obs_b = Observer::enabled();
        let out_b = replay_into(&fs, &obs_b);

        let jsonl_a = obs_a.trace.to_jsonl();
        let jsonl_b = obs_b.trace.to_jsonl();
        let stats = validate_jsonl(&jsonl_a)
            .unwrap_or_else(|e| panic!("{}: invalid trace JSONL: {e}", fs.name));
        assert!(stats.lines > 0, "{}: traced replay produced an empty trace", fs.name);
        assert_eq!(jsonl_a, jsonl_b, "{}: traces differ across replays", fs.name);

        let snap_a = obs_a.metrics.snapshot_deterministic().to_json_string();
        let snap_b = obs_b.metrics.snapshot_deterministic().to_json_string();
        assert!(
            !obs_a.metrics.snapshot_deterministic().is_empty(),
            "{}: no deterministic metrics recorded",
            fs.name
        );
        assert_eq!(
            snap_a, snap_b,
            "{}: deterministic metric snapshots differ across replays",
            fs.name
        );

        assert_eq!(out_a.makespan, out_b.makespan, "{}: outcomes differ across replays", fs.name);
    }
}

#[test]
fn scheduler_metrics_present_after_observed_replay() {
    let fs = all_fault_scenarios().into_iter().next().expect("catalogue is non-empty");
    let obs = Observer::enabled();
    replay_into(&fs, &obs);
    for name in [
        "sched.sites_involved",
        "sched.tasks_placed",
        "sched.predict_cache.entries",
        "sched.predict_cache.lookups",
        "replay.tasks_completed",
    ] {
        assert!(
            obs.metrics.counter(name) > 0,
            "counter `{name}` missing or zero after an observed replay"
        );
    }
    assert!(
        obs.metrics.gauge("replay.makespan").is_some(),
        "gauge `replay.makespan` missing after an observed replay"
    );
}
