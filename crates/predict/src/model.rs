//! The `Predict(task, R)` execution-time model.
//!
//! See the crate docs for the model's five ingredients. All times are in
//! seconds. Prediction never schedules onto a down host: that is a
//! [`PredictError::HostDown`], not a large number, so callers cannot
//! accidentally rank a dead host.

use serde::{Deserialize, Serialize};
use std::fmt;
use vdce_repository::resources::ResourceRecord;
use vdce_repository::TaskPerfDb;

/// Why a prediction could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// Task name is not in the task-performance database.
    UnknownTask(String),
    /// The host is marked down in the resource-performance database.
    HostDown(String),
    /// The host can never run the task (e.g. total memory smaller than the
    /// task's requirement).
    Infeasible {
        /// Host name.
        host: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::UnknownTask(t) => write!(f, "unknown task `{t}`"),
            PredictError::HostDown(h) => write!(f, "host `{h}` is down"),
            PredictError::Infeasible { host, reason } => {
                write!(f, "task infeasible on `{host}`: {reason}")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// Tunables of the prediction model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Predictor {
    /// Weight of the measured `(task, host)` rate once at least
    /// `confidence_samples` samples exist (blended with the analytic
    /// model below that).
    pub(crate) confidence_samples: u64,
    /// Quadratic paging penalty factor applied when required memory
    /// exceeds available memory.
    pub(crate) paging_factor: f64,
}

impl Default for Predictor {
    fn default() -> Self {
        Predictor { confidence_samples: 3, paging_factor: 8.0 }
    }
}

/// The host-side half of `Predict(task, R)`: everything that depends on
/// the host's speed, load and measured rates but not on the problem
/// size. One term prices every size of a library task on its host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostTerm {
    /// Seconds per flop of the task on this host: the analytic rate,
    /// blended with the measured one by sample confidence.
    pub rate: f64,
    /// Time-sharing multiplier: with w runnable processes the task gets
    /// 1/(1+w) of the CPU.
    pub(crate) load_mult: f64,
}

impl Predictor {
    /// Evaluate `Predict(task, R)`: the predicted execution time in
    /// seconds of `task` at `problem_size` on `host`, given the current
    /// contents of the task-performance database.
    pub fn predict(
        &self,
        tasks: &TaskPerfDb,
        task: &str,
        problem_size: u64,
        host: &ResourceRecord,
    ) -> Result<f64, PredictError> {
        let entry = tasks.entry(task).ok_or_else(|| PredictError::UnknownTask(task.to_string()))?;
        self.eval(
            entry.computation_size(problem_size),
            entry.required_memory(problem_size),
            self.host_term(tasks, task, host),
            host,
        )
    }

    /// [`Predictor::predict`] over many candidate hosts of one
    /// `(task, problem size)` class, appending one result per host to
    /// `out` (in `hosts` order) after a single library-entry lookup.
    pub(crate) fn predict_batch(
        &self,
        tasks: &TaskPerfDb,
        task: &str,
        problem_size: u64,
        hosts: &[&ResourceRecord],
        out: &mut Vec<Result<f64, PredictError>>,
    ) {
        let Some(entry) = tasks.entry(task) else {
            out.extend(hosts.iter().map(|_| Err(PredictError::UnknownTask(task.to_string()))));
            return;
        };
        let (flops, required) =
            (entry.computation_size(problem_size), entry.required_memory(problem_size));
        out.extend(
            hosts.iter().map(|h| self.eval(flops, required, self.host_term(tasks, task, h), h)),
        );
    }

    /// The host-side term of `task` (a known library task) on `host`.
    pub(crate) fn host_term(
        &self,
        tasks: &TaskPerfDb,
        task: &str,
        host: &ResourceRecord,
    ) -> HostTerm {
        // Analytic rate: base-processor seconds/flop scaled by host speed.
        let analytic_rate = tasks.base_rate(task) / host.relative_speed.max(1e-9);

        // Measured rate (already host-specific) blended in by confidence.
        let rate = match tasks.measured_rate(task, &host.host_name) {
            Some(measured) => {
                let n = tasks.sample_count(task, &host.host_name);
                let w = (n as f64 / self.confidence_samples as f64).min(1.0);
                w * measured + (1.0 - w) * analytic_rate
            }
            None => analytic_rate,
        };
        HostTerm { rate, load_mult: 1.0 + host.smoothed_workload().max(0.0) }
    }

    /// The size-dependent half: feasibility of `required` bytes on
    /// `host`, then `flops` priced through `term` and the paging penalty
    /// ([`Predictor::price`] over the host's two memory figures, with its
    /// errors typed). Every prediction in the workspace is that one
    /// pricing function over a `Predictor::host_term` — which is what
    /// makes the scalar, batched and lane-wise paths bit-identical.
    pub fn eval(
        &self,
        flops: f64,
        required: u64,
        term: HostTerm,
        host: &ResourceRecord,
    ) -> Result<f64, PredictError> {
        if !host.is_up() {
            return Err(PredictError::HostDown(host.host_name.clone()));
        }
        let (total, available) = (host.total_memory, host.available_memory);
        self.price(flops, required, term, total, available).ok_or_else(|| {
            PredictError::Infeasible {
                host: host.host_name.clone(),
                reason: format!("requires {required} B of memory, host has {total} B total"),
            }
        })
    }

    /// `flops` and `required` bytes priced on an up host of
    /// `total_memory` and `available_memory` bytes, through its `term`:
    /// `None` where the host can never hold `required`, else the product
    /// of the term and the paging penalty. Reads nothing else of the
    /// host and allocates nothing, so a caller that copied those figures
    /// out of the host record prices exactly as [`Predictor::eval`] does.
    #[inline]
    pub fn price(
        &self,
        flops: f64,
        required: u64,
        term: HostTerm,
        total_memory: u64,
        available_memory: u64,
    ) -> Option<f64> {
        if required > total_memory {
            return None;
        }
        // Paging penalty: quadratic in the overcommit ratio.
        let mem_mult = if required > available_memory {
            let ratio = required as f64 / available_memory.max(1) as f64;
            1.0 + self.paging_factor * (ratio - 1.0) * ratio
        } else {
            1.0
        };
        Some(flops * term.rate * term.load_mult * mem_mult)
    }
}

/// Convenience: `Predict(task, R)` with default tunables.
pub fn predict_seconds(
    tasks: &TaskPerfDb,
    task: &str,
    problem_size: u64,
    host: &ResourceRecord,
) -> Result<f64, PredictError> {
    Predictor::default().predict(tasks, task, problem_size, host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::MachineType;
    use vdce_repository::resources::HostStatus;

    fn host(name: &str, speed: f64) -> ResourceRecord {
        ResourceRecord::new(name, "10.0.0.1", MachineType::SunSolaris, speed, 1, 1 << 30, "g0")
    }

    #[test]
    fn faster_host_predicts_shorter_time() {
        let db = TaskPerfDb::standard();
        let slow = host("slow", 1.0);
        let fast = host("fast", 4.0);
        let ts = predict_seconds(&db, "Matrix_Multiplication", 128, &slow).unwrap();
        let tf = predict_seconds(&db, "Matrix_Multiplication", 128, &fast).unwrap();
        assert!((ts / tf - 4.0).abs() < 1e-9, "4× speed must be 4× faster");
    }

    #[test]
    fn workload_inflates_prediction_linearly() {
        let db = TaskPerfDb::standard();
        let idle = host("idle", 1.0);
        let mut busy = host("busy", 1.0);
        for _ in 0..4 {
            busy.workload_history.push_back(3.0);
        }
        busy.workload = 3.0;
        let ti = predict_seconds(&db, "Sort", 10_000, &idle).unwrap();
        let tb = predict_seconds(&db, "Sort", 10_000, &busy).unwrap();
        assert!((tb / ti - 4.0).abs() < 1e-9, "workload 3 → 4× slower");
    }

    #[test]
    fn down_host_is_an_error_not_a_number() {
        let db = TaskPerfDb::standard();
        let mut h = host("h", 1.0);
        h.status = HostStatus::Down;
        assert_eq!(predict_seconds(&db, "Sort", 100, &h), Err(PredictError::HostDown("h".into())));
    }

    #[test]
    fn unknown_task_is_an_error() {
        let db = TaskPerfDb::standard();
        assert!(matches!(
            predict_seconds(&db, "Nope", 100, &host("h", 1.0)),
            Err(PredictError::UnknownTask(_))
        ));
    }

    #[test]
    fn memory_overcommit_penalises_but_total_shortfall_is_infeasible() {
        let db = TaskPerfDb::standard();
        // LU at n=1024 needs 16n² = 16 MiB.
        let mut tight = host("tight", 1.0);
        tight.total_memory = 32 << 20;
        tight.available_memory = 4 << 20; // less than required → paging
        let mut roomy = host("roomy", 1.0);
        roomy.total_memory = 32 << 20;
        roomy.available_memory = 32 << 20;
        let tp = predict_seconds(&db, "LU_Decomposition", 1024, &tight).unwrap();
        let tr = predict_seconds(&db, "LU_Decomposition", 1024, &roomy).unwrap();
        assert!(tp > tr * 2.0, "paging must hurt: {tp} vs {tr}");

        let mut tiny = host("tiny", 1.0);
        tiny.total_memory = 1 << 20; // can never fit
        assert!(matches!(
            predict_seconds(&db, "LU_Decomposition", 1024, &tiny),
            Err(PredictError::Infeasible { .. })
        ));
    }

    #[test]
    fn measured_rate_dominates_after_enough_samples() {
        let mut db = TaskPerfDb::standard();
        let h = host("h", 1.0);
        let analytic = predict_seconds(&db, "Map", 1000, &h).unwrap();
        // Feed 10 measurements of 5× the analytic time.
        for _ in 0..10 {
            db.record_execution("Map", "h", 1000, analytic * 5.0);
        }
        let blended = predict_seconds(&db, "Map", 1000, &h).unwrap();
        assert!(
            (blended / analytic - 5.0).abs() < 0.01,
            "with many samples prediction follows measurements: {blended} vs {analytic}"
        );
    }

    #[test]
    fn single_measurement_only_partially_trusted() {
        let mut db = TaskPerfDb::standard();
        let h = host("h", 1.0);
        let analytic = predict_seconds(&db, "Map", 1000, &h).unwrap();
        db.record_execution("Map", "h", 1000, analytic * 9.0);
        let blended = predict_seconds(&db, "Map", 1000, &h).unwrap();
        assert!(blended > analytic * 1.5 && blended < analytic * 9.0);
    }

    #[test]
    fn prediction_scales_with_problem_size() {
        let db = TaskPerfDb::standard();
        let h = host("h", 1.0);
        let t1 = predict_seconds(&db, "Matrix_Multiplication", 100, &h).unwrap();
        let t2 = predict_seconds(&db, "Matrix_Multiplication", 200, &h).unwrap();
        assert!((t2 / t1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn error_display() {
        let e = PredictError::Infeasible { host: "h".into(), reason: "r".into() };
        assert!(e.to_string().contains("h"));
    }

    /// A host population exercising every lane of the kernel: up, down,
    /// total-memory infeasible, paging-penalised, and measured-rate.
    fn mixed_hosts() -> Vec<ResourceRecord> {
        let mut hs: Vec<ResourceRecord> =
            (0..6).map(|i| host(&format!("h{i}"), 1.0 + i as f64)).collect();
        hs[1].status = HostStatus::Down;
        hs[2].total_memory = 1 << 10;
        hs[3].available_memory = 1 << 10; // paging path
        for _ in 0..3 {
            hs[4].workload_history.push_back(2.0);
        }
        hs
    }

    #[test]
    fn batch_matches_scalar_per_host_without_measurements() {
        let db = TaskPerfDb::standard();
        let p = Predictor::default();
        let hosts = mixed_hosts();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        let mut out = Vec::new();
        p.predict_batch(&db, "LU_Decomposition", 1024, &refs, &mut out);
        assert_eq!(out.len(), refs.len());
        for (h, got) in refs.iter().zip(&out) {
            let want = p.predict(&db, "LU_Decomposition", 1024, h);
            match (&want, got) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "host {}", h.host_name),
                _ => assert_eq!(&want, got, "host {}", h.host_name),
            }
        }
    }

    #[test]
    fn batch_matches_scalar_with_measured_rates() {
        let mut db = TaskPerfDb::standard();
        let hosts = mixed_hosts();
        // Measure only some hosts so the blended and analytic lanes mix.
        db.record_execution("Sort", "h0", 10_000, 3.0);
        db.record_execution("Sort", "h5", 10_000, 0.5);
        db.record_execution("Sort", "h5", 10_000, 0.7);
        let p = Predictor::default();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        let mut out = Vec::new();
        p.predict_batch(&db, "Sort", 10_000, &refs, &mut out);
        for (h, got) in refs.iter().zip(&out) {
            let want = p.predict(&db, "Sort", 10_000, h);
            match (&want, got) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "host {}", h.host_name),
                _ => assert_eq!(&want, got, "host {}", h.host_name),
            }
        }
    }

    /// `predict` is `eval` over `host_term` by construction; this pins
    /// that the split is usable from outside — one term per host, reused
    /// across sizes — on every lane, with and without measured rates.
    #[test]
    fn host_term_and_eval_match_predict_bit_for_bit() {
        let mut measured = TaskPerfDb::standard();
        measured.record_execution("Sort", "h0", 10_000, 3.0);
        measured.record_execution("Sort", "h5", 10_000, 0.5);
        measured.record_execution("Sort", "h5", 10_000, 0.7);
        let p = Predictor::default();
        for db in [TaskPerfDb::standard(), measured] {
            for task in ["Sort", "LU_Decomposition"] {
                let entry = db.entry(task).unwrap();
                for h in &mixed_hosts() {
                    let term = p.host_term(&db, task, h);
                    for size in [64u64, 1024, 10_000] {
                        let want = p.predict(&db, task, size, h);
                        let got = p.eval(
                            entry.computation_size(size),
                            entry.required_memory(size),
                            term,
                            h,
                        );
                        assert_eq!(
                            want.clone().map(f64::to_bits),
                            got.map(f64::to_bits),
                            "{task} n={size} on {}: {want:?}",
                            h.host_name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_unknown_task_errors_every_slot() {
        let db = TaskPerfDb::standard();
        let hosts = mixed_hosts();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        let mut out = Vec::new();
        Predictor::default().predict_batch(&db, "Nope", 1, &refs, &mut out);
        assert_eq!(out.len(), refs.len());
        assert!(out.iter().all(|r| matches!(r, Err(PredictError::UnknownTask(_)))));
    }
}
