//! E4 / Figure 4 — the Resource Controller: monitoring traffic reduction
//! from the Group Manager's significant-change filter, and failure
//! detection latency vs the echo-probe period.
//!
//! Reconstructed claims under test (§4.1): forwarding only considerable
//! workload changes cuts repository-update traffic, and echo probing
//! detects failures within one probe period.

use super::Claims;
use vdce_obs::Report;
use vdce_sim::{run_monitoring_experiment, Table};

pub(super) fn run(_: &mut Claims) -> String {
    // --- Significant-change filter: threshold sweep --------------------
    let mut t1 = Table::new(&["hosts", "threshold", "samples", "forwarded", "traffic_reduction"]);
    for &hosts in &[8usize, 32] {
        for &th in &[0.0f64, 0.5, 1.0, 2.0, 4.0] {
            let out = run_monitoring_experiment(hosts, th, 1.0, 5.0, 300.0, &[], 4);
            t1.row(&[
                hosts.to_string(),
                format!("{th}"),
                out.samples.to_string(),
                out.forwarded.to_string(),
                format!("{:.1}%", out.reduction * 100.0),
            ]);
        }
    }
    // --- Failure detection: echo-period sweep --------------------------
    let mut t2 = Table::new(&["echo_period_s", "runs", "mean_detect_latency_s", "max_latency_s"]);
    for &period in &[1.0f64, 2.0, 5.0, 10.0] {
        let mut lats = Vec::new();
        for seed in 0..10u64 {
            let fail_at = 90.0 + seed as f64 * 3.7; // stagger vs probe phase
            let out = run_monitoring_experiment(8, 1.0, 1.0, period, 200.0, &[(0, fail_at)], seed);
            lats.push(
                out.detection_latencies
                    .first()
                    .copied()
                    .expect("failure injected must be detected"),
            );
        }
        let mean = lats.iter().sum::<f64>() / lats.len() as f64;
        let max = lats.iter().cloned().fold(0.0f64, f64::max);
        t2.row(&[
            format!("{period}"),
            lats.len().to_string(),
            format!("{mean:.2}"),
            format!("{max:.2}"),
        ]);
    }
    Report::new("E4 / Figure 4: Resource Controller")
        .table(t1)
        .text("failure detection: echo-period sweep:")
        .table(t2)
        .note("detection latency is bounded by the echo period, as §4.1 implies")
        .render()
}
