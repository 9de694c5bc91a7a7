//! Summary statistics and table rendering for the experiment binaries,
//! plus the [`RecoveryReport`] surfaced by the fault-replay harness.

use serde::{Deserialize, Serialize};

/// Summary of a sample of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile (nearest-rank).
    pub(crate) p95: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarise a sample; `None` if empty or containing non-finite values.
pub(crate) fn summarise(values: &[f64]) -> Option<Summary> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len();
    let pct = |p: f64| {
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    };
    Some(Summary {
        n,
        mean: sorted.iter().sum::<f64>() / n as f64,
        median: pct(0.50),
        p95: pct(0.95),
        min: sorted[0],
        max: sorted[n - 1],
    })
}

/// Geometric mean of strictly positive values; `None` otherwise.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Outcome of one injected fault in a replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// Stable fault label (`crash:<host>`, `spike:<host>`, …).
    pub fault: String,
    /// Virtual injection time.
    pub(crate) injected_at: f64,
    /// Virtual seconds from injection to detection by the monitoring
    /// plane; `None` if the fault produced no observable change (e.g. a
    /// flaky link that never dropped, an outage between echo rounds).
    pub detection_latency: Option<f64>,
    /// Did the system fully absorb this fault (see DESIGN.md §10 for the
    /// per-kind criteria)?
    pub recovered: bool,
    /// Site the fault touched: the victim host's site for host faults,
    /// the site itself for site outages, `None` for link faults (they
    /// belong to a pair of sites, not one).
    #[serde(default)]
    pub site: Option<u16>,
}

/// What a fault-injected replay cost, versus the fault-free run of the
/// same scenario. Every field derives deterministically from the
/// `(scenario, plan, config)` triple — replaying twice must produce a
/// bit-identical report (the `faults` experiment checks this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Scenario name.
    pub scenario: String,
    /// The fault plan's seed.
    pub seed: u64,
    /// Fault-free virtual makespan.
    pub baseline_makespan: f64,
    /// Virtual makespan under the fault plan.
    pub makespan: f64,
    /// `makespan / baseline_makespan` (1.0 = faults absorbed for free).
    pub inflation: f64,
    /// Tasks terminated on one host and restarted on another.
    pub migrations: u64,
    /// Backoff retries spent waiting for capacity to come back.
    pub retries: u64,
    /// Hosts that entered quarantine (lifetime count).
    pub quarantined: u64,
    /// Hosts re-admitted from quarantine on recovery.
    pub(crate) readmitted: u64,
    /// Hosts still quarantined when the replay ended.
    pub quarantined_at_end: u64,
    /// Tasks that completed.
    pub tasks_completed: u64,
    /// Tasks that exhausted their retries (or had a failed ancestor).
    pub tasks_failed: u64,
    /// Checkpoints recorded during the faulty replay (0 when the
    /// checkpoint policy is disabled).
    #[serde(default)]
    pub checkpoints_taken: u64,
    /// Total virtual seconds the faulty replay spent writing checkpoints.
    #[serde(default)]
    pub checkpoint_overhead: f64,
    /// Progress fraction each migration restart resumed from, in restart
    /// order — `0.0` entries are restart-from-zero (no valid checkpoint
    /// survived), positive entries resumed mid-task.
    #[serde(default)]
    pub resumed_progress: Vec<f64>,
    /// Of the work in flight when tasks were killed, the fraction
    /// recovered from checkpoints instead of re-executed
    /// (Σ resumed / Σ lost; `1.0` when nothing was ever lost).
    #[serde(default = "one")]
    pub recovered_work_fraction: f64,
    /// Site Manager failovers: a deputy host took over the role after
    /// the acting manager died (DESIGN.md §12).
    #[serde(default)]
    pub site_failovers: u64,
    /// Sites quarantined at federation level (lifetime count).
    #[serde(default)]
    pub sites_quarantined: u64,
    /// Sites still quarantined when the replay ended.
    #[serde(default)]
    pub sites_quarantined_at_end: u64,
    /// Cross-site checkpoint replication transfers that completed.
    #[serde(default)]
    pub replica_transfers: u64,
    /// Bytes of checkpoint state pushed across sites (charged through
    /// the network model — replication is not free).
    #[serde(default)]
    pub replica_bytes: u64,
    /// Per-fault outcomes, in plan order.
    pub faults: Vec<FaultOutcome>,
}

fn one() -> f64 {
    1.0
}

impl RecoveryReport {
    /// Did every task complete and every fault recover?
    pub fn recovered_all(&self) -> bool {
        self.tasks_failed == 0 && self.faults.iter().all(|f| f.recovered)
    }

    /// Mean detection latency over the faults that were detected.
    pub(crate) fn mean_detection_latency(&self) -> Option<f64> {
        let detected: Vec<f64> = self.faults.iter().filter_map(|f| f.detection_latency).collect();
        summarise(&detected).map(|s| s.mean)
    }
}

/// Render recovery reports as a table (one row per report).
pub fn recovery_table(reports: &[RecoveryReport]) -> Table {
    let mut t = Table::new(&[
        "scenario",
        "baseline_s",
        "faulty_s",
        "inflation",
        "migrations",
        "retries",
        "ckpts",
        "ckpt_ovh_s",
        "recovered_work",
        "site_fo",
        "repl_xfers",
        "repl_bytes",
        "mean_detect_s",
        "recovered",
    ]);
    for r in reports {
        t.row(&[
            r.scenario.clone(),
            format!("{:.4}", r.baseline_makespan),
            format!("{:.4}", r.makespan),
            format!("{:.3}", r.inflation),
            r.migrations.to_string(),
            r.retries.to_string(),
            r.checkpoints_taken.to_string(),
            format!("{:.4}", r.checkpoint_overhead),
            format!("{:.3}", r.recovered_work_fraction),
            r.site_failovers.to_string(),
            r.replica_transfers.to_string(),
            r.replica_bytes.to_string(),
            r.mean_detection_latency().map_or("-".into(), |m| format!("{m:.2}")),
            if r.recovered_all() { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}

/// Re-export of the aligned text table, which moved to `vdce_obs` in
/// the observability redesign (it is now a [`vdce_obs::Report`]
/// building block shared by every experiment binary).
pub use vdce_obs::Table;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summarise(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p95, 5.0);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(summarise(&[]).is_none());
        assert!(summarise(&[1.0, f64::NAN]).is_none());
        assert!(summarise(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn single_value_summary() {
        let s = summarise(&[2.5]).unwrap();
        assert_eq!((s.mean, s.median, s.p95, s.min, s.max), (2.5, 2.5, 2.5, 2.5, 2.5));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[0.0]).is_none());
        assert!(geomean(&[-1.0]).is_none());
    }

    /// A report written before checkpoints existed lost nothing a
    /// checkpoint could have recovered: the absent fraction reads as the
    /// `default = "one"` path says, the absent counters as `Default`.
    #[test]
    fn report_predating_checkpoints_reads_its_defaults() {
        let old = r#"{"scenario":"s","seed":1,"baseline_makespan":2,"makespan":3,
            "inflation":1.5,"migrations":0,"retries":0,"quarantined":0,"readmitted":0,
            "quarantined_at_end":0,"tasks_completed":4,"tasks_failed":0,"faults":[]}"#;
        let report: RecoveryReport = serde_json::from_str(old).unwrap();
        assert_eq!(report.recovered_work_fraction, 1.0);
        assert_eq!(report.checkpoints_taken, 0);
        assert_eq!(report.checkpoint_overhead, 0.0);
        assert!(report.resumed_progress.is_empty());
        let given = old.replacen('{', r#"{"recovered_work_fraction":0.25,"#, 1);
        let report: RecoveryReport = serde_json::from_str(&given).unwrap();
        assert_eq!(report.recovered_work_fraction, 0.25);
    }

    /// `Table` moved to `vdce_obs`; the old path keeps working.
    #[test]
    fn table_reexport_is_usable() {
        let mut t = Table::new(&["algo", "makespan"]);
        t.row(&["vdce".into(), "1.25".into()]);
        assert!(t.render().contains("makespan"));
        assert_eq!(t.len(), 1);
    }
}
