//! The task-performance database (§3).
//!
//! > "A task performance database provides performance characteristics for
//! > each task in the system and is used to predict the performance of a
//! > task on a given resource. Each task implementation is specified by
//! > several parameters such as computation size, communication size,
//! > required memory size, etc."
//!
//! Two kinds of state live here:
//!
//! 1. **Implementation parameters** — the cost polynomials of each library
//!    task (shared with [`vdce_afg::library`]).
//! 2. **Measured execution times** — the paper's Site Manager "updates the
//!    task-performance database with the execution time after an
//!    application execution is completed". We store, per `(task, host)`,
//!    an exponentially-decayed average of *seconds per unit of computation
//!    size*, so one record predicts any problem size; the *base-processor
//!    time* used by the level computation is the rate on the reference
//!    base processor.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vdce_afg::{LibraryEntry, TaskLibrary};

/// Seconds one abstract flop takes on the *base processor* before any
/// measurement has calibrated it. The base processor is the mid-90s
/// reference machine all relative speeds are expressed against.
pub(crate) const DEFAULT_BASE_RATE: f64 = 1.0e-7;

/// Decay factor of the exponential moving average of measured rates
/// (weight of the *new* sample).
pub(crate) const MEASUREMENT_ALPHA: f64 = 0.25;

/// An exponentially-decayed average with a sample counter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct DecayAvg {
    /// Current average value.
    pub value: f64,
    /// Number of samples folded in.
    pub samples: u64,
}

impl DecayAvg {
    fn update(&mut self, sample: f64) {
        if self.samples == 0 {
            self.value = sample;
        } else {
            self.value = MEASUREMENT_ALPHA * sample + (1.0 - MEASUREMENT_ALPHA) * self.value;
        }
        self.samples += 1;
    }
}

/// The task-performance database. The default knows no library task.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskPerfDb {
    /// Implementation parameters, by library task name.
    library: TaskLibrary,
    /// Measured seconds-per-flop by `(task name, host name)`.
    measured: BTreeMap<String, BTreeMap<String, DecayAvg>>,
    /// Measured seconds-per-flop on the base processor, by task name
    /// (seeded with [`DEFAULT_BASE_RATE`] semantics when absent).
    base_rate: BTreeMap<String, DecayAvg>,
}

impl TaskPerfDb {
    /// Database over the given task library.
    pub(crate) fn new(library: TaskLibrary) -> Self {
        TaskPerfDb { library, measured: BTreeMap::new(), base_rate: BTreeMap::new() }
    }

    /// Database over the standard VDCE library.
    pub fn standard() -> Self {
        Self::new(TaskLibrary::standard())
    }

    /// Implementation parameters of a task.
    pub fn entry(&self, task: &str) -> Option<&LibraryEntry> {
        self.library.get(task)
    }

    /// Computation size (abstract flops) of `task` at `problem_size`, if
    /// the task is known.
    pub fn computation_size(&self, task: &str, problem_size: u64) -> Option<f64> {
        self.entry(task).map(|e| e.computation_size(problem_size))
    }

    /// Record a measured execution: `task` at `problem_size` took
    /// `seconds` on `host`. Ignored (returns `false`) for unknown tasks or
    /// non-positive durations/sizes.
    pub fn record_execution(
        &mut self,
        task: &str,
        host: &str,
        problem_size: u64,
        seconds: f64,
    ) -> bool {
        let Some(flops) = self.computation_size(task, problem_size) else { return false };
        if seconds.is_nan() || seconds <= 0.0 || flops <= 0.0 {
            return false;
        }
        let rate = seconds / flops;
        self.measured
            .entry(task.to_string())
            .or_default()
            .entry(host.to_string())
            .or_insert(DecayAvg { value: 0.0, samples: 0 })
            .update(rate);
        true
    }

    /// Record a measured execution on the base processor (used by library
    /// calibration runs).
    pub fn record_base_execution(&mut self, task: &str, problem_size: u64, seconds: f64) -> bool {
        let Some(flops) = self.computation_size(task, problem_size) else { return false };
        if seconds.is_nan() || seconds <= 0.0 || flops <= 0.0 {
            return false;
        }
        self.base_rate
            .entry(task.to_string())
            .or_insert(DecayAvg { value: 0.0, samples: 0 })
            .update(seconds / flops);
        true
    }

    /// Seconds-per-flop measured for `(task, host)`, if any.
    pub fn measured_rate(&self, task: &str, host: &str) -> Option<f64> {
        self.measured.get(task).and_then(|m| m.get(host)).map(|d| d.value)
    }

    /// Number of samples folded into the `(task, host)` record.
    pub fn sample_count(&self, task: &str, host: &str) -> u64 {
        self.measured.get(task).and_then(|m| m.get(host)).map(|d| d.samples).unwrap_or(0)
    }

    /// Seconds-per-flop of `task` on the base processor: calibrated value
    /// if present, `DEFAULT_BASE_RATE` otherwise.
    pub fn base_rate(&self, task: &str) -> f64 {
        self.base_rate.get(task).map(|d| d.value).unwrap_or(DEFAULT_BASE_RATE)
    }

    /// The *base-processor execution time* of `task` at `problem_size` —
    /// exactly the computation cost the level computation of §3 uses.
    /// `None` for unknown tasks.
    pub fn base_time(&self, task: &str, problem_size: u64) -> Option<f64> {
        self.computation_size(task, problem_size).map(|f| f * self.base_rate(task))
    }

    /// Hosts with measurements for `task`, in name order.
    pub fn measured_hosts(&self, task: &str) -> Vec<&str> {
        self.measured.get(task).map(|m| m.keys().map(String::as_str).collect()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_time_uses_default_rate_until_calibrated() {
        let db = TaskPerfDb::standard();
        let flops = db.computation_size("Matrix_Multiplication", 100).unwrap();
        let t = db.base_time("Matrix_Multiplication", 100).unwrap();
        assert!((t - flops * DEFAULT_BASE_RATE).abs() < 1e-12);
        assert!(db.base_time("Nope", 100).is_none());
    }

    #[test]
    fn record_execution_stores_normalised_rate() {
        let mut db = TaskPerfDb::standard();
        // 2*n^3 flops at n=100 → 2e6 flops; 2 seconds → 1e-6 s/flop.
        assert!(db.record_execution("Matrix_Multiplication", "hostA", 100, 2.0));
        let rate = db.measured_rate("Matrix_Multiplication", "hostA").unwrap();
        assert!((rate - 1.0e-6).abs() < 1e-15);
        assert_eq!(db.sample_count("Matrix_Multiplication", "hostA"), 1);
    }

    #[test]
    fn rate_generalises_across_problem_sizes() {
        let mut db = TaskPerfDb::standard();
        db.record_execution("Matrix_Multiplication", "hostA", 100, 2.0);
        let rate = db.measured_rate("Matrix_Multiplication", "hostA").unwrap();
        // Predicting n=200 from the n=100 measurement: 8× the flops.
        let predicted = rate * db.computation_size("Matrix_Multiplication", 200).unwrap();
        assert!((predicted - 16.0).abs() < 1e-9);
    }

    #[test]
    fn ema_moves_towards_new_samples() {
        let mut db = TaskPerfDb::standard();
        db.record_execution("Map", "h", 1000, 1.0);
        let first = db.measured_rate("Map", "h").unwrap();
        db.record_execution("Map", "h", 1000, 3.0);
        let second = db.measured_rate("Map", "h").unwrap();
        assert!(second > first, "average must move toward the slower sample");
        let target = 3.0 / db.computation_size("Map", 1000).unwrap();
        assert!(second < target, "but not jump all the way");
        assert_eq!(db.sample_count("Map", "h"), 2);
    }

    #[test]
    fn invalid_measurements_are_rejected() {
        let mut db = TaskPerfDb::standard();
        assert!(!db.record_execution("Unknown_Task", "h", 10, 1.0));
        assert!(!db.record_execution("Map", "h", 10, 0.0));
        assert!(!db.record_execution("Map", "h", 10, -1.0));
        assert!(!db.record_execution("Map", "h", 10, f64::NAN));
        assert_eq!(db.sample_count("Map", "h"), 0);
    }

    #[test]
    fn base_calibration_overrides_default() {
        let mut db = TaskPerfDb::standard();
        let before = db.base_time("Map", 1000).unwrap();
        db.record_base_execution("Map", 1000, before * 10.0);
        let after = db.base_time("Map", 1000).unwrap();
        assert!((after - before * 10.0).abs() / after < 1e-9);
    }

    #[test]
    fn measured_hosts_lists_in_order() {
        let mut db = TaskPerfDb::standard();
        db.record_execution("Map", "zebra", 10, 1.0);
        db.record_execution("Map", "aardvark", 10, 1.0);
        assert_eq!(db.measured_hosts("Map"), vec!["aardvark", "zebra"]);
        assert!(db.measured_hosts("Sort").is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let mut db = TaskPerfDb::standard();
        db.record_execution("Map", "h", 10, 1.0);
        db.record_base_execution("Sort", 10, 0.5);
        let json = serde_json::to_string(&db).unwrap();
        let back: TaskPerfDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back, db);
    }
}
