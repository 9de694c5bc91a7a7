//! User-requested runtime services (§4.2).
//!
//! > "The VDCE Runtime System provides several user-requested services
//! > such as I/O service, console service, and visualization service."
//!
//! - [`IoService`] — "provides either file I/O or URL I/O for the inputs
//!   of the application tasks". Backed by an in-memory object store with
//!   deterministic synthesis of named-but-absent inputs (the reproduction
//!   has no campus filesystem; see DESIGN.md §3).
//! - [`ConsoleService`] — "the user can suspend and restart the
//!   application execution".
//! - [`VisualizationService`] — "application performance and workload
//!   visualizations": renders the event log into a text Gantt chart and a
//!   CSV timeline.

use crate::events::{EventLog, RuntimeEvent};
use crate::kernels::{encode_f64s, synth_matrix, synth_values};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex};
use vdce_afg::{IoSpec, KernelKind};

// ---------------------------------------------------------------------
// I/O service
// ---------------------------------------------------------------------

/// In-memory file/URL store with deterministic input synthesis.
#[derive(Debug, Clone, Default)]
pub struct IoService {
    store: Arc<Mutex<BTreeMap<String, Arc<[u8]>>>>,
}

fn path_seed(path: &str) -> u64 {
    // FNV-1a over the path: stable synthetic content per name.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl IoService {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-load an object (e.g. the user's actual input file).
    pub fn put(&self, path: impl Into<String>, data: Arc<[u8]>) {
        self.store.lock().unwrap().insert(path.into(), data);
    }

    /// Fetch an object if present.
    pub fn get(&self, path: &str) -> Option<Arc<[u8]>> {
        self.store.lock().unwrap().get(path).cloned()
    }

    /// Resolve a task input: dataflow inputs return `None` (they arrive
    /// over Data-Manager channels); file/URL inputs return the stored
    /// object, or — if the name was never uploaded — a deterministic
    /// synthetic payload shaped for `kernel`'s input `port` at
    /// `problem_size` (matrix ports get an n×n diagonally-dominant
    /// matrix, everything else an n-vector).
    pub(crate) fn resolve_input(
        &self,
        spec: &IoSpec,
        kernel: KernelKind,
        port: usize,
        problem_size: u64,
    ) -> Option<Arc<[u8]>> {
        let path = match spec {
            IoSpec::Dataflow => return None,
            IoSpec::File { path, .. } => path.clone(),
            IoSpec::Url { url, .. } => url.clone(),
            // Catalog datasets are staged by name; unseen ids fall
            // through to the synthetic-payload path like files do.
            IoSpec::Dataset { id } => format!("/datasets/{id}"),
            _ => return None,
        };
        if let Some(data) = self.get(&path) {
            return Some(data);
        }
        let n = problem_size as usize;
        let seed = path_seed(&path);
        let matrix_port = matches!(
            (kernel, port),
            (KernelKind::LuDecomposition, 0)
                | (KernelKind::Cholesky, 0)
                | (KernelKind::MatrixTranspose, 0)
                | (KernelKind::MatrixMultiply, 0 | 1)
                | (KernelKind::MatrixAdd, 0 | 1)
                | (KernelKind::ForwardSubstitution, 0)
                | (KernelKind::BackSubstitution, 0)
        );
        let data = if matrix_port {
            encode_f64s(&synth_matrix(seed, n))
        } else {
            encode_f64s(&synth_values(seed, n))
        };
        // Cache so every reader of the same path sees identical bytes.
        self.store.lock().unwrap().insert(path, data.clone());
        Some(data)
    }

    /// Store a task output declared as file/URL. Returns `true` if the
    /// spec named a destination.
    pub(crate) fn store_output(&self, spec: &IoSpec, data: &Arc<[u8]>) -> bool {
        match spec {
            IoSpec::Dataflow => false,
            IoSpec::File { path, .. } => {
                self.put(path.clone(), data.clone());
                true
            }
            IoSpec::Url { url, .. } => {
                self.put(url.clone(), data.clone());
                true
            }
            IoSpec::Dataset { id } => {
                self.put(format!("/datasets/{id}"), data.clone());
                true
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------
// Console service
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConsoleState {
    Running,
    Suspended,
}

struct ConsoleInner {
    state: Mutex<ConsoleState>,
    cond: Condvar,
}

/// Suspend/restart control over a running application.
#[derive(Clone)]
pub struct ConsoleService {
    inner: Arc<ConsoleInner>,
    log: EventLog,
}

impl ConsoleService {
    /// A console in the running state.
    pub fn new(log: EventLog) -> Self {
        ConsoleService {
            inner: Arc::new(ConsoleInner {
                state: Mutex::new(ConsoleState::Running),
                cond: Condvar::new(),
            }),
            log,
        }
    }

    /// Suspend the application: tasks block at their next checkpoint.
    pub fn suspend(&self) {
        let mut s = self.inner.state.lock().unwrap();
        if *s == ConsoleState::Running {
            *s = ConsoleState::Suspended;
            self.log.emit(0.0, RuntimeEvent::Suspended);
        }
    }

    /// Resume a suspended application.
    pub fn resume(&self) {
        let mut s = self.inner.state.lock().unwrap();
        if *s == ConsoleState::Suspended {
            *s = ConsoleState::Running;
            self.log.emit(0.0, RuntimeEvent::Resumed);
            self.inner.cond.notify_all();
        }
    }

    /// Task-side checkpoint: blocks while suspended.
    pub(crate) fn checkpoint(&self) {
        let s = self.inner.state.lock().unwrap();
        let _running = self.inner.cond.wait_while(s, |s| *s == ConsoleState::Suspended).unwrap();
    }
}

// ---------------------------------------------------------------------
// Visualization service
// ---------------------------------------------------------------------

/// Renders the event log into operator-facing artefacts.
#[derive(Clone)]
pub struct VisualizationService {
    log: EventLog,
}

impl VisualizationService {
    /// Visualise `log`.
    pub fn new(log: EventLog) -> Self {
        VisualizationService { log }
    }

    /// CSV timeline: `time,event,detail` rows in event order.
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from("time_s,event,detail\n");
        for (t, e) in self.log.snapshot() {
            let (name, detail) = match &e {
                RuntimeEvent::MonitorSample { host, workload } => {
                    ("monitor_sample", format!("{host}:{workload:.2}"))
                }
                RuntimeEvent::WorkloadForwarded { host, workload } => {
                    ("workload_forwarded", format!("{host}:{workload:.2}"))
                }
                RuntimeEvent::HostFailed { host } => ("host_failed", host.clone()),
                RuntimeEvent::HostRecovered { host } => ("host_recovered", host.clone()),
                RuntimeEvent::ChannelReady { channel } => ("channel_ready", channel.to_string()),
                RuntimeEvent::StartupSignal => ("startup_signal", String::new()),
                RuntimeEvent::TaskStarted { task, host } => {
                    ("task_started", format!("{task}@{host}"))
                }
                RuntimeEvent::TaskFinished { task, seconds } => {
                    ("task_finished", format!("{task}:{seconds:.4}"))
                }
                RuntimeEvent::TaskFailed { task, reason } => {
                    ("task_failed", format!("{task}:{reason}"))
                }
                RuntimeEvent::RescheduleRequested { task, host } => {
                    ("reschedule_requested", format!("{task}@{host}"))
                }
                RuntimeEvent::Suspended => ("suspended", String::new()),
                RuntimeEvent::Resumed => ("resumed", String::new()),
                RuntimeEvent::TaskMigrated { task, from_host, to_host } => {
                    ("task_migrated", format!("{task}:{from_host}->{to_host}"))
                }
                RuntimeEvent::TaskRetried { task, attempt } => {
                    ("task_retried", format!("{task}:attempt{attempt}"))
                }
                RuntimeEvent::HostQuarantined { host } => ("host_quarantined", host.clone()),
                RuntimeEvent::HostReadmitted { host } => ("host_readmitted", host.clone()),
                RuntimeEvent::CheckpointTaken { task, seq, progress, host } => {
                    ("checkpoint_taken", format!("{task}#{seq}@{host}:{progress:.2}"))
                }
                RuntimeEvent::TaskResumed { task, progress, host } => {
                    ("task_resumed", format!("{task}@{host}:{progress:.2}"))
                }
                RuntimeEvent::SiteManagerFailedOver { site, from, to } => {
                    ("site_manager_failed_over", format!("S{site}:{from}->{to}"))
                }
                RuntimeEvent::SiteQuarantined { site } => ("site_quarantined", format!("S{site}")),
                RuntimeEvent::SiteRejoined { site } => ("site_rejoined", format!("S{site}")),
                RuntimeEvent::CheckpointReplicated { task, seq, host } => {
                    ("checkpoint_replicated", format!("{task}#{seq}->{host}"))
                }
            };
            let _ = writeln!(out, "{t:.6},{name},{detail}");
        }
        out
    }

    /// Text Gantt chart of task executions (one row per task, `#` marks
    /// the running interval), scaled to `width` columns.
    pub fn gantt(&self, width: usize) -> String {
        let snap = self.log.snapshot();
        // Pair starts and finishes.
        let mut spans: BTreeMap<u32, (f64, Option<f64>, String)> = BTreeMap::new();
        for (t, e) in &snap {
            match e {
                RuntimeEvent::TaskStarted { task, host } => {
                    spans.entry(task.0).or_insert((*t, None, host.clone()));
                }
                RuntimeEvent::TaskFinished { task, .. } => {
                    if let Some(s) = spans.get_mut(&task.0) {
                        s.1 = Some(*t);
                    }
                }
                _ => {}
            }
        }
        let end = spans.values().filter_map(|(_, f, _)| *f).fold(0.0f64, f64::max).max(1e-9);
        let mut out = String::new();
        let _ = writeln!(out, "GANTT (0 .. {end:.3}s)");
        for (task, (start, finish, host)) in &spans {
            let finish = finish.unwrap_or(end);
            let a = ((start / end) * width as f64) as usize;
            let b = (((finish / end) * width as f64) as usize).max(a + 1).min(width);
            let mut row = vec![b'.'; width];
            for c in row.iter_mut().take(b).skip(a) {
                *c = b'#';
            }
            let _ = writeln!(out, "t{task:<3} |{}| {host}", String::from_utf8(row).expect("ascii"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use vdce_afg::TaskId;

    #[test]
    fn io_put_get_round_trip() {
        let io = IoService::new();
        assert!(io.get("/x").is_none());
        io.put("/x", Arc::from(&b"abc"[..]));
        assert_eq!(io.get("/x").unwrap(), Arc::from(&b"abc"[..]));
        assert_eq!(io.store.lock().unwrap().len(), 1);
    }

    #[test]
    fn dataflow_inputs_resolve_to_none() {
        let io = IoService::new();
        assert!(io.resolve_input(&IoSpec::Dataflow, KernelKind::Map, 0, 10).is_none());
    }

    #[test]
    fn absent_file_is_synthesised_deterministically() {
        let io = IoService::new();
        let spec = IoSpec::inline_file("/users/VDCE/u/matrix_A.dat", 0);
        let a = io.resolve_input(&spec, KernelKind::LuDecomposition, 0, 8).unwrap();
        let b = io.resolve_input(&spec, KernelKind::LuDecomposition, 0, 8).unwrap();
        assert_eq!(a, b, "same path → same bytes");
        assert_eq!(a.len(), 8 * 8 * 8, "matrix-shaped for LU");
        // Different path → different content.
        let c = io
            .resolve_input(&IoSpec::inline_file("/other.dat", 0), KernelKind::LuDecomposition, 0, 8)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn uploaded_file_wins_over_synthesis() {
        let io = IoService::new();
        io.put("/in.dat", Arc::from(&b"real"[..]));
        let got =
            io.resolve_input(&IoSpec::inline_file("/in.dat", 4), KernelKind::Map, 0, 10).unwrap();
        assert_eq!(got, Arc::from(&b"real"[..]));
    }

    #[test]
    fn url_inputs_work_like_files() {
        let io = IoService::new();
        let spec = IoSpec::url("http://x/input", 0);
        let a = io.resolve_input(&spec, KernelKind::Sort, 0, 16).unwrap();
        assert_eq!(a.len(), 16 * 8);
    }

    #[test]
    fn store_output_only_for_io_specs() {
        let io = IoService::new();
        let data = Arc::from(&b"out"[..]);
        assert!(!io.store_output(&IoSpec::Dataflow, &data));
        assert!(io.store_output(&IoSpec::inline_file("/o.dat", 0), &data));
        assert_eq!(io.get("/o.dat").unwrap(), data);
    }

    #[test]
    fn console_suspend_resume_cycle() {
        let log = EventLog::new();
        let console = ConsoleService::new(log.clone());
        console.suspend();
        // A blocked checkpoint unblocks on resume.
        let c2 = console.clone();
        let h = std::thread::spawn(move || c2.checkpoint());
        std::thread::sleep(std::time::Duration::from_millis(30));
        console.resume();
        h.join().unwrap();
        assert_eq!(log.query(EventKind::Suspended).count(), 1);
        assert_eq!(log.query(EventKind::Resumed).count(), 1);
    }

    #[test]
    fn suspend_is_idempotent() {
        let log = EventLog::new();
        let console = ConsoleService::new(log.clone());
        console.suspend();
        console.suspend();
        assert_eq!(log.query(EventKind::Suspended).count(), 1);
        console.resume();
        console.resume();
        assert_eq!(log.query(EventKind::Resumed).count(), 1);
    }

    #[test]
    fn timeline_csv_contains_rows() {
        let log = EventLog::new();
        log.emit(0.5, RuntimeEvent::TaskStarted { task: TaskId(0), host: "h0".into() });
        log.emit(1.5, RuntimeEvent::TaskFinished { task: TaskId(0), seconds: 1.0 });
        let viz = VisualizationService::new(log);
        let csv = viz.timeline_csv();
        assert!(csv.starts_with("time_s,event,detail\n"));
        assert!(csv.contains("task_started,t0@h0"));
        assert!(csv.contains("task_finished,t0:1.0000"));
    }

    #[test]
    fn gantt_draws_bars() {
        let log = EventLog::new();
        log.emit(0.0, RuntimeEvent::TaskStarted { task: TaskId(0), host: "a".into() });
        log.emit(1.0, RuntimeEvent::TaskFinished { task: TaskId(0), seconds: 1.0 });
        log.emit(1.0, RuntimeEvent::TaskStarted { task: TaskId(1), host: "b".into() });
        log.emit(2.0, RuntimeEvent::TaskFinished { task: TaskId(1), seconds: 1.0 });
        let viz = VisualizationService::new(log);
        let g = viz.gantt(20);
        assert!(g.contains("t0"));
        assert!(g.contains('#'));
        assert!(g.contains("| a"));
        // Task 0 occupies the first half, task 1 the second.
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[1].find('#').unwrap() < lines[2].find('#').unwrap());
    }
}
