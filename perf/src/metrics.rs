//! The metric catalogue: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` must list exactly these (a unit test
//! compares the two), so a metric is added or renamed in one place.

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Is a higher value better?
    pub higher_is_better: bool,
    /// End-to-end only: share of the parent's median the metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def { name, unit, higher_is_better: higher, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, higher_is_better: false, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, higher_is_better: true, bound: 0.0 }
}

/// What a user of the system sees. Reported for every workload, from the
/// untraced run only.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_ops_s", "1/s", true, 0.25),
    e2e("allocs_per_op", "count", false, 0.25),
    e2e("alloc_bytes_per_op", "bytes", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
    e2e("served_share", "ratio", true, 0.2),
];

/// Single layers, from the traced run. A layer a workload does not enter
/// reports 0 there.
pub const PER_LAYER: &[Def] = &[
    // Set-up and the JSON admission boundary.
    lower("sim.dag_gen.ms", "ms"),
    lower("sim.pool_gen.ms", "ms"),
    lower("sim.arrivals.ms", "ms"),
    lower("afg.document.parse_ms", "ms"),
    lower("afg.validate.ms", "ms"),
    // Level priorities.
    lower("afg.level.ms", "ms"),
    lower("afg.level.ns_per_task", "ns"),
    lower("afg.level.allocs", "count"),
    lower("afg.level.alloc_bytes", "bytes"),
    // Host selection (Figure 3) and its prediction memo.
    lower("sched.view_capture.ms", "ms"),
    lower("sched.host_selection.ms", "ms"),
    lower("sched.host_selection.us_per_site", "us"),
    lower("sched.host_selection.allocs", "count"),
    lower("sched.host_selection.alloc_bytes", "bytes"),
    lower("predict.cache.lookups", "count"),
    higher("predict.cache.hit_rate", "ratio"),
    lower("predict.cache.evictions", "count"),
    // The site-scheduler walk (Figure 2) and the simulated makespan.
    lower("sched.walk.ms", "ms"),
    lower("sched.walk.ns_per_task", "ns"),
    lower("sched.walk.allocs", "count"),
    lower("sched.walk.alloc_bytes", "bytes"),
    lower("net.transfer_cache.lookups", "count"),
    lower("net.nearest_neighbours.us", "us"),
    lower("sched.makespan.ms", "ms"),
    lower("sched.makespan.allocs", "count"),
    lower("sched.makespan.alloc_bytes", "bytes"),
    lower("sched.makespan.predicted_s", "s"),
    lower("sched.validate_outputs.ms", "ms"),
    // The dataset catalog.
    lower("data.catalog.view_us", "us"),
    lower("data.resolve_ms", "ms"),
    lower("data.catalog.state_hash_us", "us"),
    lower("data.catalog.replay_ms", "ms"),
    lower("data.catalog.register_us", "us"),
    // Incremental rescheduling.
    lower("sched.incremental.new_ms", "ms"),
    lower("sched.incremental.apply_ms", "ms"),
    lower("sched.incremental.apply_allocs", "count"),
    lower("sched.incremental.apply_alloc_bytes", "bytes"),
    lower("sched.incremental.dirty", "count"),
    lower("sched.incremental.replaced", "count"),
    lower("sched.incremental.moved", "count"),
    higher("sched.incremental.useful_ratio", "ratio"),
    // The streaming service.
    lower("runtime.submission.submit_us", "us"),
    lower("sched.service.step_ms", "ms"),
    lower("sched.service.step_allocs", "count"),
    lower("sched.service.step_alloc_bytes", "bytes"),
    lower("sched.service.shadow_admit_ms", "ms"),
    lower("sched.service.overhead_ms", "ms"),
    lower("sched.service.step_ms_per_pending", "ms"),
    lower("sched.service.pending_max", "count"),
    lower("sched.service.pending_mean", "count"),
    lower("sched.service.active_max", "count"),
    lower("sched.service.events", "count"),
    lower("sched.service.deferred", "count"),
    lower("sched.service.restarts", "count"),
    lower("sched.service.drain_ms", "ms"),
    lower("sched.service.rejected_share", "ratio"),
    lower("sched.service.horizon_s", "s"),
    lower("sched.service.ttp_p99_logical_s", "s"),
    higher("sched.service.deadline_met_share", "ratio"),
    // Fault replay, the journal, the WAL, the durable state machine.
    lower("sim.replay.plain_ms", "ms"),
    lower("sim.replay.durable_ms", "ms"),
    lower("sim.replay.durable_overhead_x", "x"),
    lower("sim.replay.makespan_sum_s", "s"),
    lower("sim.recovery.verify_kill_ms", "ms"),
    lower("sim.recovery.replayed_records", "count"),
    lower("sim.recovery.ms_per_krecord", "ms"),
    lower("store.journal.append_ns", "ns"),
    lower("store.journal.records", "count"),
    lower("store.journal.bytes_per_record", "bytes"),
    lower("store.journal.bytes_per_op", "bytes"),
    lower("store.journal.snapshots", "count"),
    lower("store.journal.recover_ms", "ms"),
    lower("store.wal.append_ns", "ns"),
    lower("store.wal.read_ns_per_record", "ns"),
    lower("store.wal.framing_overhead", "x"),
    lower("store.file_wal.append_sync_us", "us"),
    lower("store.replication.frames", "count"),
    lower("store.replication.hash_checks", "count"),
    lower("store.replication.divergences", "count"),
    lower("store.replication.hash_us", "us"),
    lower("runtime.durable.encode_ns", "ns"),
    lower("runtime.durable.decode_ns", "ns"),
    lower("runtime.durable.apply_ns", "ns"),
    lower("runtime.durable.hash_us", "us"),
    lower("runtime.durable.to_bytes_us", "us"),
    lower("runtime.durable.snapshot_bytes", "bytes"),
    higher("durable.explained_share", "ratio"),
    lower("obs.trace.overhead_x", "x"),
    // The driver itself.
    lower("driver.op_p50_ms", "ms"),
    lower("driver.op_tail_ms", "ms"),
    lower("driver.op_tail_pct", "%"),
    higher("driver.layer_coverage", "ratio"),
    lower("driver.trace_overhead_x", "x"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        let names: BTreeSet<&str> = all.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), all.len(), "a metric name is used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for d in all {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
