//! Run reports: everything a submission returns.

use std::fmt::Write as _;
use vdce_runtime::ExecutionOutcome;
use vdce_sched::{AllocationTable, Schedule};

/// The result of one application submission.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The resource allocation table the scheduler produced.
    pub allocation: AllocationTable,
    /// The simulated (predicted) schedule, if evaluable.
    pub predicted: Option<Schedule>,
    /// What actually happened at execution time.
    pub outcome: ExecutionOutcome,
    /// Text Gantt chart of the execution (visualization service).
    pub gantt: String,
    /// CSV timeline of runtime events (visualization service).
    pub timeline_csv: String,
}

impl RunReport {
    /// Measured wall-clock seconds of the whole run.
    pub fn measured_seconds(&self) -> f64 {
        self.outcome.wall_seconds
    }

    /// Predicted makespan, if a prediction was possible.
    pub fn predicted_seconds(&self) -> Option<f64> {
        self.predicted.as_ref().map(|s| s.makespan)
    }

    /// Operator-facing summary: per-task placement and timing plus the
    /// headline predicted-vs-measured numbers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "RUN <{}>  success={}  measured={:.4}s  predicted={}",
            self.allocation.application,
            self.outcome.success,
            self.measured_seconds(),
            self.predicted_seconds().map(|p| format!("{p:.4}s")).unwrap_or_else(|| "n/a".into()),
        );
        for p in self.allocation.iter() {
            let rec = self.outcome.records.get(p.task.index());
            let status = rec
                .map(|r| {
                    if r.ok {
                        format!("ok in {:.4}s", r.finish - r.start)
                    } else {
                        format!("FAILED: {}", r.error.as_deref().unwrap_or("?"))
                    }
                })
                .unwrap_or_else(|| "not run".into());
            let _ = writeln!(
                out,
                "  [{}] {:<24} {} @ {:<18} pred {:.4}s  {}",
                p.task,
                p.task_name,
                p.site,
                p.hosts.join("+"),
                p.predicted_seconds,
                status
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::TaskId;
    use vdce_net::topology::SiteId;
    use vdce_runtime::TaskRunRecord;
    use vdce_sched::TaskPlacement;

    fn sample() -> RunReport {
        let mut allocation = AllocationTable::new("demo");
        allocation.insert(TaskPlacement {
            task: TaskId(0),
            task_name: "src".into(),
            site: SiteId(0),
            hosts: vec!["h0".into()].into(),
            predicted_seconds: 0.5,
            data_sources: vec![],
        });
        RunReport {
            allocation,
            predicted: None,
            outcome: ExecutionOutcome {
                records: vec![TaskRunRecord {
                    task: TaskId(0),
                    hosts: vec!["h0".into()],
                    start: 1.0,
                    finish: 1.5,
                    ok: true,
                    error: None,
                }],
                success: true,
                wall_seconds: 0.5,
            },
            gantt: String::new(),
            timeline_csv: String::new(),
        }
    }

    #[test]
    fn render_contains_placements_and_headline() {
        let r = sample();
        let text = r.render();
        assert!(text.contains("RUN <demo>"));
        assert!(text.contains("success=true"));
        assert!(text.contains("predicted=n/a"));
        assert!(text.contains("src"));
        assert!(text.contains("ok in 0.5000s"));
        assert_eq!(r.measured_seconds(), 0.5);
        assert!(r.predicted_seconds().is_none());
    }

    #[test]
    fn render_marks_failures() {
        let mut r = sample();
        r.outcome.records[0].ok = false;
        r.outcome.records[0].error = Some("boom".into());
        r.outcome.success = false;
        let text = r.render();
        assert!(text.contains("FAILED: boom"));
    }
}
