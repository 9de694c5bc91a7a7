//! The runtime event log.
//!
//! Every Control-Manager component appends timestamped events here; the
//! visualization service (§4.2) renders them, tests assert on them, and
//! the Figure-4 experiments count them.
//!
//! Since the observability redesign the log is also a trace source: an
//! [`EventLog`] built with [`EventLog::traced`] mirrors every
//! [`EventLog::emit`] into a `vdce_obs` [`TraceSink`] as a logical-time
//! trace event, and consumers query it through the typed
//! [`EventQuery`] API ([`EventLog::query`]).
//!
//! Since the durability redesign (DESIGN.md §16) the log sits on the
//! `vdce_store` append-only substrate and [`EventLog::emit`] is the
//! *only* write path: a log built with [`EventLog::with_journal`]
//! write-ahead-journals every entry (tag `log`) before buffering it, so
//! a restarted Site Manager replays the exact same event history. The
//! JSON written for the journal is also kept, comma-joined, as the body
//! of a snapshot's `log` array: each record is serialised once.

use serde::{Deserialize, JsonWriter, Serialize};
use std::sync::{Arc, Mutex};
use vdce_afg::TaskId;
use vdce_obs::{FieldValue, TraceSink};
use vdce_store::{AppendLog, Journal};

/// Something that happened at runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RuntimeEvent {
    /// A monitor sample was taken on a host.
    MonitorSample {
        /// Host name.
        host: String,
        /// Measured workload.
        workload: f64,
    },
    /// A Group Manager forwarded a significant workload change.
    WorkloadForwarded {
        /// Host name.
        host: String,
        /// Forwarded workload value.
        workload: f64,
    },
    /// Echo probing declared a host dead.
    HostFailed {
        /// Host name.
        host: String,
    },
    /// A previously dead host answered echoes again.
    HostRecovered {
        /// Host name.
        host: String,
    },
    /// A Data-Manager channel finished its acknowledged setup.
    ChannelReady {
        /// Channel identifier (edge index within the application).
        channel: usize,
    },
    /// The Application Controller broadcast the execution start-up signal.
    StartupSignal,
    /// A task began executing.
    TaskStarted {
        /// The task.
        task: TaskId,
        /// Host(s) it runs on.
        host: String,
    },
    /// A task finished.
    TaskFinished {
        /// The task.
        task: TaskId,
        /// Wall seconds it took.
        seconds: f64,
    },
    /// A task failed.
    TaskFailed {
        /// The task.
        task: TaskId,
        /// Why.
        reason: String,
    },
    /// The Application Controller requested a reschedule of a task because
    /// its host exceeded the load threshold (§4.1).
    RescheduleRequested {
        /// The task.
        task: TaskId,
        /// The overloaded (or failed) host.
        host: String,
    },
    /// The console service suspended the application.
    Suspended,
    /// The console service resumed the application.
    Resumed,
    /// A task was terminated on one host and re-placed on another as part
    /// of mid-execution recovery.
    TaskMigrated {
        /// The task.
        task: TaskId,
        /// Host it was evicted from.
        from_host: String,
        /// Host it restarted on.
        to_host: String,
    },
    /// A task was retried after a transient failure.
    TaskRetried {
        /// The task.
        task: TaskId,
        /// Retry attempt number (0-based).
        attempt: u32,
    },
    /// A checkpoint of a task's progress was persisted.
    CheckpointTaken {
        /// The task.
        task: TaskId,
        /// Checkpoint sequence number (0-based per task).
        seq: u64,
        /// Completed fraction of the task's work in [0, 1].
        progress: f64,
        /// Host the checkpoint was written on.
        host: String,
    },
    /// A task resumed from a checkpoint instead of restarting from zero.
    TaskResumed {
        /// The task.
        task: TaskId,
        /// Completed fraction restored from the checkpoint.
        progress: f64,
        /// Host it resumed on.
        host: String,
    },
    /// A host entered the dead-host quarantine.
    HostQuarantined {
        /// Host name.
        host: String,
    },
    /// A quarantined host recovered and was re-admitted.
    HostReadmitted {
        /// Host name.
        host: String,
    },
    /// The acting Site Manager of a site died and a deputy host took
    /// over the role (DESIGN.md §12).
    SiteManagerFailedOver {
        /// The site.
        site: u16,
        /// Host that held the role.
        from: String,
        /// Host now holding it.
        to: String,
    },
    /// Every host of a site is down: the site was quarantined at
    /// federation level.
    SiteQuarantined {
        /// The site.
        site: u16,
    },
    /// A quarantined site has a live host again and rejoined the
    /// federation.
    SiteRejoined {
        /// The site.
        site: u16,
    },
    /// A checkpoint's cross-site replication transfer completed; the
    /// checkpoint now survives the loss of its home site.
    CheckpointReplicated {
        /// The task.
        task: TaskId,
        /// Checkpoint sequence number.
        seq: u64,
        /// Remote host now holding a copy.
        host: String,
    },
}

/// Discriminant-only mirror of [`RuntimeEvent`], the key of the typed
/// [`EventQuery`] API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`RuntimeEvent::MonitorSample`].
    MonitorSample,
    /// [`RuntimeEvent::WorkloadForwarded`].
    WorkloadForwarded,
    /// [`RuntimeEvent::HostFailed`].
    HostFailed,
    /// [`RuntimeEvent::HostRecovered`].
    HostRecovered,
    /// [`RuntimeEvent::ChannelReady`].
    ChannelReady,
    /// [`RuntimeEvent::StartupSignal`].
    StartupSignal,
    /// [`RuntimeEvent::TaskStarted`].
    TaskStarted,
    /// [`RuntimeEvent::TaskFinished`].
    TaskFinished,
    /// [`RuntimeEvent::TaskFailed`].
    TaskFailed,
    /// [`RuntimeEvent::RescheduleRequested`].
    RescheduleRequested,
    /// [`RuntimeEvent::Suspended`].
    Suspended,
    /// [`RuntimeEvent::Resumed`].
    Resumed,
    /// [`RuntimeEvent::TaskMigrated`].
    TaskMigrated,
    /// [`RuntimeEvent::TaskRetried`].
    TaskRetried,
    /// [`RuntimeEvent::CheckpointTaken`].
    CheckpointTaken,
    /// [`RuntimeEvent::TaskResumed`].
    TaskResumed,
    /// [`RuntimeEvent::HostQuarantined`].
    HostQuarantined,
    /// [`RuntimeEvent::HostReadmitted`].
    HostReadmitted,
    /// [`RuntimeEvent::SiteManagerFailedOver`].
    SiteManagerFailedOver,
    /// [`RuntimeEvent::SiteQuarantined`].
    SiteQuarantined,
    /// [`RuntimeEvent::SiteRejoined`].
    SiteRejoined,
    /// [`RuntimeEvent::CheckpointReplicated`].
    CheckpointReplicated,
}

impl EventKind {
    /// snake_case name, used as the trace-record name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EventKind::MonitorSample => "monitor_sample",
            EventKind::WorkloadForwarded => "workload_forwarded",
            EventKind::HostFailed => "host_failed",
            EventKind::HostRecovered => "host_recovered",
            EventKind::ChannelReady => "channel_ready",
            EventKind::StartupSignal => "startup_signal",
            EventKind::TaskStarted => "task_started",
            EventKind::TaskFinished => "task_finished",
            EventKind::TaskFailed => "task_failed",
            EventKind::RescheduleRequested => "reschedule_requested",
            EventKind::Suspended => "suspended",
            EventKind::Resumed => "resumed",
            EventKind::TaskMigrated => "task_migrated",
            EventKind::TaskRetried => "task_retried",
            EventKind::CheckpointTaken => "checkpoint_taken",
            EventKind::TaskResumed => "task_resumed",
            EventKind::HostQuarantined => "host_quarantined",
            EventKind::HostReadmitted => "host_readmitted",
            EventKind::SiteManagerFailedOver => "site_manager_failed_over",
            EventKind::SiteQuarantined => "site_quarantined",
            EventKind::SiteRejoined => "site_rejoined",
            EventKind::CheckpointReplicated => "checkpoint_replicated",
        }
    }
}

impl RuntimeEvent {
    /// The event's kind (discriminant).
    pub(crate) fn kind(&self) -> EventKind {
        match self {
            RuntimeEvent::MonitorSample { .. } => EventKind::MonitorSample,
            RuntimeEvent::WorkloadForwarded { .. } => EventKind::WorkloadForwarded,
            RuntimeEvent::HostFailed { .. } => EventKind::HostFailed,
            RuntimeEvent::HostRecovered { .. } => EventKind::HostRecovered,
            RuntimeEvent::ChannelReady { .. } => EventKind::ChannelReady,
            RuntimeEvent::StartupSignal => EventKind::StartupSignal,
            RuntimeEvent::TaskStarted { .. } => EventKind::TaskStarted,
            RuntimeEvent::TaskFinished { .. } => EventKind::TaskFinished,
            RuntimeEvent::TaskFailed { .. } => EventKind::TaskFailed,
            RuntimeEvent::RescheduleRequested { .. } => EventKind::RescheduleRequested,
            RuntimeEvent::Suspended => EventKind::Suspended,
            RuntimeEvent::Resumed => EventKind::Resumed,
            RuntimeEvent::TaskMigrated { .. } => EventKind::TaskMigrated,
            RuntimeEvent::TaskRetried { .. } => EventKind::TaskRetried,
            RuntimeEvent::CheckpointTaken { .. } => EventKind::CheckpointTaken,
            RuntimeEvent::TaskResumed { .. } => EventKind::TaskResumed,
            RuntimeEvent::HostQuarantined { .. } => EventKind::HostQuarantined,
            RuntimeEvent::HostReadmitted { .. } => EventKind::HostReadmitted,
            RuntimeEvent::SiteManagerFailedOver { .. } => EventKind::SiteManagerFailedOver,
            RuntimeEvent::SiteQuarantined { .. } => EventKind::SiteQuarantined,
            RuntimeEvent::SiteRejoined { .. } => EventKind::SiteRejoined,
            RuntimeEvent::CheckpointReplicated { .. } => EventKind::CheckpointReplicated,
        }
    }

    /// Trace-record payload: every variant field as a scalar, in
    /// declaration order (deterministic serialisation relies on this).
    pub(crate) fn trace_fields(&self) -> Vec<(String, FieldValue)> {
        fn f(k: &str, v: impl Into<FieldValue>) -> (String, FieldValue) {
            (k.to_string(), v.into())
        }
        match self {
            RuntimeEvent::MonitorSample { host, workload }
            | RuntimeEvent::WorkloadForwarded { host, workload } => {
                vec![f("host", host.as_str()), f("workload", *workload)]
            }
            RuntimeEvent::HostFailed { host }
            | RuntimeEvent::HostRecovered { host }
            | RuntimeEvent::HostQuarantined { host }
            | RuntimeEvent::HostReadmitted { host } => vec![f("host", host.as_str())],
            RuntimeEvent::ChannelReady { channel } => vec![f("channel", *channel)],
            RuntimeEvent::StartupSignal | RuntimeEvent::Suspended | RuntimeEvent::Resumed => {
                Vec::new()
            }
            RuntimeEvent::TaskStarted { task, host } => {
                vec![f("task", task.0 as u64), f("host", host.as_str())]
            }
            RuntimeEvent::TaskFinished { task, seconds } => {
                vec![f("task", task.0 as u64), f("seconds", *seconds)]
            }
            RuntimeEvent::TaskFailed { task, reason } => {
                vec![f("task", task.0 as u64), f("reason", reason.as_str())]
            }
            RuntimeEvent::RescheduleRequested { task, host } => {
                vec![f("task", task.0 as u64), f("host", host.as_str())]
            }
            RuntimeEvent::TaskMigrated { task, from_host, to_host } => vec![
                f("task", task.0 as u64),
                f("from_host", from_host.as_str()),
                f("to_host", to_host.as_str()),
            ],
            RuntimeEvent::TaskRetried { task, attempt } => {
                vec![f("task", task.0 as u64), f("attempt", *attempt)]
            }
            RuntimeEvent::CheckpointTaken { task, seq, progress, host } => vec![
                f("task", task.0 as u64),
                f("seq", *seq),
                f("progress", *progress),
                f("host", host.as_str()),
            ],
            RuntimeEvent::TaskResumed { task, progress, host } => {
                vec![f("task", task.0 as u64), f("progress", *progress), f("host", host.as_str())]
            }
            RuntimeEvent::SiteManagerFailedOver { site, from, to } => {
                vec![f("site", *site), f("from", from.as_str()), f("to", to.as_str())]
            }
            RuntimeEvent::SiteQuarantined { site } | RuntimeEvent::SiteRejoined { site } => {
                vec![f("site", *site)]
            }
            RuntimeEvent::CheckpointReplicated { task, seq, host } => {
                vec![f("task", task.0 as u64), f("seq", *seq), f("host", host.as_str())]
            }
        }
    }
}

/// The `log`-tagged journal payload: one timestamped event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Logical time (seconds).
    pub t: f64,
    /// The event.
    pub event: RuntimeEvent,
}

/// Append the JSON of `LogRecord { t, event }` to `out` without building
/// the record: the derive has no borrowed-field form.
fn write_log_record(out: &mut Vec<u8>, t: f64, event: &RuntimeEvent) {
    let mut w = JsonWriter::new(out, None);
    let mut obj = w.begin_object();
    w.field(&mut obj, "t");
    w.f64(t);
    w.field(&mut obj, "event");
    event.write_json(&mut w);
    w.end_object(obj);
}

/// Shared, timestamped, append-only event log on the `vdce_store`
/// substrate.
///
/// Cloning shares the entry buffer, the journaled text, the attached
/// trace sink and the attached journal. [`EventLog::emit`] is the single
/// write path: it write-ahead-journals (when a journal is attached),
/// mirrors into the trace sink (when tracing), then buffers the entry.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    entries: AppendLog<(f64, RuntimeEvent)>,
    trace: TraceSink,
    journal: Journal,
    /// The `log` payload of every journaled entry, comma-joined: what a
    /// snapshot splices between `[` and `]`. Empty without a journal.
    journaled: Arc<Mutex<Vec<u8>>>,
}

impl EventLog {
    /// Empty log with no trace attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty log that mirrors every [`EventLog::emit`] into `trace` as
    /// a logical-time trace event.
    pub fn traced(trace: TraceSink) -> Self {
        EventLog { trace, ..Self::default() }
    }

    /// This log with a write-ahead journal attached: every subsequent
    /// [`EventLog::emit`] appends a [`LogRecord`] under the `log` tag
    /// before buffering. Entries the log already holds are not journaled
    /// after the fact, but a snapshot's `log` is still the whole log.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        let mut text = Vec::new();
        if journal.is_enabled() {
            self.entries.with(|entries| {
                for (i, (t, event)) in entries.iter().enumerate() {
                    if i > 0 {
                        text.push(b',');
                    }
                    write_log_record(&mut text, *t, event);
                }
            });
        }
        self.journaled = Arc::new(Mutex::new(text));
        self.journal = journal;
        self
    }

    /// Append an event at logical time `t` (seconds): journal first
    /// (write-ahead), mirror into the attached trace sink, then buffer.
    pub fn emit(&self, t: f64, event: RuntimeEvent) {
        if self.journal.is_enabled() {
            // Serialised once, in place: the journal frames the new tail
            // of the text a snapshot will splice. Holding the lock across
            // the append keeps the text in journal order.
            let mut text = self.journaled.lock().unwrap();
            if !text.is_empty() {
                text.push(b',');
            }
            let start = text.len();
            write_log_record(&mut text, t, &event);
            let payload = std::str::from_utf8(&text[start..]).expect("the writer emits UTF-8");
            self.journal.append("log", payload);
        }
        if self.trace.is_enabled() {
            // Monitor ticks are the one cadence-driven firehose; route
            // them through the sampled path so a `TraceSink::sampled(n)`
            // sink can thin them. Everything else (and
            // the journal above) is always kept.
            if matches!(event.kind(), EventKind::MonitorSample) {
                self.trace.hf_event(t, event.kind().name(), event.trace_fields());
            } else {
                self.trace.event(t, event.kind().name(), event.trace_fields());
            }
        }
        self.entries.push((t, event));
    }

    /// Run `f` over the comma-joined JSON of every [`LogRecord`] this log
    /// holds for its journal (empty when none is attached): the body of a
    /// control-plane snapshot's `log` array. Emits block while `f` runs.
    pub fn with_journaled_json<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.journaled.lock().unwrap())
    }

    /// Snapshot of all entries in append order.
    pub(crate) fn snapshot(&self) -> Vec<(f64, RuntimeEvent)> {
        self.entries.snapshot()
    }

    /// Typed query over events of one [`EventKind`].
    pub fn query(&self, kind: EventKind) -> EventQuery<'_> {
        EventQuery { log: self, kind }
    }
}

/// The events of one [`EventKind`] in an [`EventLog`].
///
/// ```
/// # use vdce_runtime::{EventKind, EventLog, RuntimeEvent};
/// let log = EventLog::new();
/// log.emit(1.5, RuntimeEvent::HostFailed { host: "s0h1".into() });
/// assert_eq!(log.query(EventKind::HostFailed).count(), 1);
/// assert_eq!(log.query(EventKind::HostRecovered).count(), 0);
/// ```
#[derive(Clone)]
pub struct EventQuery<'a> {
    log: &'a EventLog,
    kind: EventKind,
}

impl EventQuery<'_> {
    /// Number of matching events.
    pub fn count(&self) -> usize {
        self.log.entries.with(|v| v.iter().filter(|(_, e)| e.kind() == self.kind).count())
    }
}

/// Independent lost-work accounting derived from the task-lifecycle
/// events, not from the replay engine's own counters.
///
/// The fuzzer's no-lost-tasks invariant cross-checks a replay
/// recovery report's `tasks_completed`/`tasks_failed` tallies
/// against this ledger: every task that ever emitted `TaskStarted`
/// must eventually emit `TaskFinished`, whatever storm of failures,
/// migrations and retries happened in between. A non-zero
/// [`WorkLedger::lost`] means the control plane dropped admitted work
/// on the floor without even recording a terminal failure.
///
/// Built from the trace-record stream an `Observer` captured during the
/// run ([`WorkLedger::from_trace_names`]), so out-of-process consumers
/// can audit a run from its JSONL trace alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkLedger {
    /// Distinct tasks that ever started.
    pub started: usize,
    /// Distinct tasks that finished.
    pub finished: usize,
    /// Distinct tasks that started but never finished.
    pub lost: usize,
    /// Transient failure events observed (each should be followed by a
    /// retry or migration, not a loss).
    pub(crate) failure_events: usize,
    /// Migration events observed.
    pub migrations: usize,
    /// Retry events observed.
    pub retries: usize,
}

impl WorkLedger {
    /// Build the ledger from a trace-record stream: `(name, task-id)`
    /// pairs where `name` is the `EventKind::name` snake_case label
    /// and the id is the record's `task` field (ignored for names that
    /// carry none). This is the out-of-process path — a consumer
    /// holding only the Observer's captured records can audit the run.
    pub fn from_trace_names<'a>(records: impl Iterator<Item = (&'a str, Option<u64>)>) -> Self {
        let mut started = std::collections::BTreeSet::new();
        let mut finished = std::collections::BTreeSet::new();
        let mut ledger = WorkLedger::default();
        for (name, task) in records {
            match (name, task) {
                ("task_started", Some(id)) => {
                    started.insert(id);
                }
                ("task_finished", Some(id)) => {
                    finished.insert(id);
                }
                ("task_failed", _) => ledger.failure_events += 1,
                ("task_migrated", _) => ledger.migrations += 1,
                ("task_retried", _) => ledger.retries += 1,
                _ => {}
            }
        }
        ledger.started = started.len();
        ledger.finished = finished.len();
        ledger.lost = started.difference(&finished).count();
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_snapshot_preserve_order() {
        let log = EventLog::new();
        log.emit(1.0, RuntimeEvent::StartupSignal);
        log.emit(2.0, RuntimeEvent::Suspended);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], (1.0, RuntimeEvent::StartupSignal));
        assert_eq!(snap[1].0, 2.0);
    }

    #[test]
    fn ledger_counts_lost_tasks_from_trace_names() {
        let names: Vec<(&str, Option<u64>)> = vec![
            ("task_started", Some(1)),
            ("task_failed", Some(1)),
            ("task_retried", Some(1)),
            ("task_migrated", Some(1)),
            ("task_finished", Some(1)),
            ("task_started", Some(2)),
            ("monitor_sample", None),
        ];
        let ledger = WorkLedger::from_trace_names(names.into_iter());
        assert_eq!(ledger.started, 2);
        assert_eq!(ledger.finished, 1);
        assert_eq!(ledger.lost, 1, "task 2 started but never finished");
        assert_eq!(ledger.failure_events, 1);
        assert_eq!(ledger.migrations, 1);
        assert_eq!(ledger.retries, 1);
    }

    #[test]
    fn clones_share_the_log() {
        let log = EventLog::new();
        let log2 = log.clone();
        log2.emit(0.5, RuntimeEvent::Resumed);
        assert_eq!(log.snapshot().len(), 1);
    }

    #[test]
    fn typed_queries_filter_by_kind() {
        let log = EventLog::new();
        log.emit(1.0, RuntimeEvent::HostFailed { host: "a".into() });
        log.emit(2.0, RuntimeEvent::HostFailed { host: "b".into() });
        log.emit(3.0, RuntimeEvent::HostRecovered { host: "a".into() });
        log.emit(4.0, RuntimeEvent::TaskStarted { task: TaskId(7), host: "b".into() });
        assert_eq!(log.query(EventKind::HostFailed).count(), 2);
        assert_eq!(log.query(EventKind::StartupSignal).count(), 0);
        assert_eq!(log.query(EventKind::TaskStarted).count(), 1);
    }

    /// A journaled log write-ahead-journals every emit under the `log`
    /// tag, and the journaled record replays to the same entry.
    #[test]
    fn journaled_log_writes_ahead() {
        let journal = Journal::enabled(vdce_store::SnapshotPolicy::manual());
        let log = EventLog::new().with_journal(journal.clone());
        log.emit(1.5, RuntimeEvent::HostFailed { host: "a".into() });
        assert_eq!(journal.len(), 1);
        let (tag, payload) = journal.history().pop().unwrap();
        assert_eq!(tag, "log");
        let rec: LogRecord = serde_json::from_str(&payload).unwrap();
        assert_eq!(rec.t, 1.5);
        assert_eq!(rec.event, RuntimeEvent::HostFailed { host: "a".into() });
        // The un-journaled default appends nothing anywhere but the buffer.
        let plain = EventLog::new();
        plain.emit(0.0, RuntimeEvent::Resumed);
        assert_eq!(plain.snapshot().len(), 1);
    }

    #[test]
    fn traced_log_mirrors_events_into_the_sink() {
        let sink = TraceSink::new();
        let log = EventLog::traced(sink.clone());
        log.emit(1.5, RuntimeEvent::TaskStarted { task: TaskId(3), host: "s0h1".into() });
        log.emit(2.0, RuntimeEvent::StartupSignal);
        assert_eq!(sink.len(), 2);
        let jsonl = sink.to_jsonl();
        assert!(jsonl.starts_with(
            "{\"t\":1.5,\"kind\":\"event\",\"name\":\"task_started\",\
             \"fields\":{\"task\":3,\"host\":\"s0h1\"}}\n"
        ));
        vdce_obs::validate_jsonl(&jsonl).expect("mirrored events validate against the schema");
        // The untraced default drops nothing into a sink but keeps entries.
        let plain = EventLog::new();
        plain.emit(0.0, RuntimeEvent::Resumed);
        assert!(!plain.trace.is_enabled());
        assert_eq!(plain.snapshot().len(), 1);
    }

    #[test]
    fn sampled_sink_thins_monitor_ticks_but_keeps_the_event_buffer_whole() {
        let sink = TraceSink::sampled(4);
        let log = EventLog::traced(sink.clone());
        let ticks = 200;
        for i in 0..ticks {
            let t = i as f64 * 0.5;
            log.emit(t, RuntimeEvent::MonitorSample { host: "s0h0".into(), workload: 1.0 });
            log.emit(t, RuntimeEvent::StartupSignal);
        }
        // The in-process buffer (and any journal) is complete; only the
        // trace mirror of the monitor firehose is thinned.
        assert_eq!(log.snapshot().len(), 2 * ticks);
        let records = sink.records();
        let monitor = records.iter().filter(|r| r.name == "monitor_sample").count();
        assert!(monitor > 0 && monitor < ticks / 2, "kept {monitor} of {ticks}");
        assert_eq!(records.iter().filter(|r| r.name == "startup_signal").count(), ticks);
        vdce_obs::validate_jsonl(&sink.to_jsonl()).expect("sampled trace validates");
    }

    #[test]
    fn every_kind_has_a_distinct_trace_name() {
        let kinds = [
            EventKind::MonitorSample,
            EventKind::WorkloadForwarded,
            EventKind::HostFailed,
            EventKind::HostRecovered,
            EventKind::ChannelReady,
            EventKind::StartupSignal,
            EventKind::TaskStarted,
            EventKind::TaskFinished,
            EventKind::TaskFailed,
            EventKind::RescheduleRequested,
            EventKind::Suspended,
            EventKind::Resumed,
            EventKind::TaskMigrated,
            EventKind::TaskRetried,
            EventKind::CheckpointTaken,
            EventKind::TaskResumed,
            EventKind::HostQuarantined,
            EventKind::HostReadmitted,
            EventKind::SiteManagerFailedOver,
            EventKind::SiteQuarantined,
            EventKind::SiteRejoined,
            EventKind::CheckpointReplicated,
        ];
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn concurrent_appends_are_all_kept() {
        let log = EventLog::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let l = log.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        l.emit(0.0, RuntimeEvent::StartupSignal);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.snapshot().len(), 800);
    }
}
