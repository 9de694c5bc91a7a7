//! The task execution engine.
//!
//! "The Data Managers on the assigned machines set up the application
//! execution environment by starting the task executions and creating
//! point-to-point communication channels for inter-task data transfer"
//! (§4.1). This module is that environment: one worker thread per task
//! (standing in for the task executable on its assigned host), wired
//! together by Data-Manager channels.
//!
//! Host semantics: a host executes one task at a time. Each host name has
//! a lock; a task acquires the locks of **all** its assigned hosts (in
//! sorted order, so multi-host tasks cannot deadlock) for the duration of
//! its kernel. Parallel tasks split their kernel across one worker thread
//! per assigned host. Measured wall-clock execution times are reported as
//! [`ControlMessage::ExecutionCompleted`] so the Site Manager can write
//! them back into the task-performance database.
//!
//! The [`StartGate`] hook is the Application Controller's interposition
//! point: it is consulted immediately before a task launches and may
//! relocate the task to different hosts (threshold rescheduling, §4.1) or
//! abort it. Each task launches once: a gate abort or a kernel error
//! fails it and, through its closed channels, its dependents. Recovery
//! from host faults (retry backoff, checkpoint-restart, replicas) is the
//! fault replay's, in `vdce_sim`.

use crate::data_manager::{DataManager, DataReceiver, DataSender};
use crate::events::{EventLog, RuntimeEvent};
use crate::kernels::run_kernel_parallel;
use crate::services::{ConsoleService, IoService};
use crate::site_manager::ControlMessage;
use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vdce_afg::{Afg, TaskId};
use vdce_net::Clock;
use vdce_sched::AllocationTable;

/// Decision of the start gate for one task about to launch.
#[derive(Debug, Clone, PartialEq)]
pub enum GateDecision {
    /// Launch on the scheduled hosts.
    Proceed,
    /// Launch on these hosts instead (threshold rescheduling).
    Relocate(Vec<String>),
    /// Do not launch; fail the task.
    Abort(String),
}

/// Application-Controller interposition point, consulted before each task
/// starts.
pub trait StartGate: Send + Sync {
    /// Decide for `task` scheduled on `hosts`.
    fn check(&self, task: TaskId, hosts: &[String]) -> GateDecision;
}

/// Federation-wide host lock registry: one lock per host name, shared
/// across *all* application executions so concurrent runs contend for
/// hosts exactly like concurrent users of the real VDCE would. Clone
/// freely; clones share the registry.
#[derive(Clone, Default)]
pub struct HostLockRegistry {
    locks: Arc<Mutex<HashMap<String, Arc<Mutex<()>>>>>,
}

impl HostLockRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lock for `host`, created on first use.
    pub(crate) fn lock_for(&self, host: &str) -> Arc<Mutex<()>> {
        let mut map = self.locks.lock().unwrap();
        Arc::clone(map.entry(host.to_string()).or_insert_with(|| Arc::new(Mutex::new(()))))
    }
}

/// A gate that always proceeds.
pub struct AlwaysProceed;

impl StartGate for AlwaysProceed {
    fn check(&self, _task: TaskId, _hosts: &[String]) -> GateDecision {
        GateDecision::Proceed
    }
}

/// Outcome of one task's execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRunRecord {
    /// The task.
    pub task: TaskId,
    /// Hosts it actually ran on (after any relocation).
    pub hosts: Vec<String>,
    /// Start time (clock seconds).
    pub start: f64,
    /// Finish time (clock seconds).
    pub finish: f64,
    /// Did it succeed?
    pub ok: bool,
    /// Failure reason if not.
    pub error: Option<String>,
}

/// Outcome of a whole application run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// Per-task records, indexed by [`TaskId`].
    pub records: Vec<TaskRunRecord>,
    /// All tasks succeeded.
    pub success: bool,
    /// Wall-clock span from first start to last finish.
    pub wall_seconds: f64,
}

/// Everything one application execution runs against.
pub struct Execution<'a> {
    /// The application.
    pub afg: &'a Afg,
    /// Where the scheduler placed each task.
    pub table: &'a AllocationTable,
    /// Opens the per-edge channels.
    pub dm: &'a DataManager,
    /// File/URL inputs and outputs.
    pub io: &'a IoService,
    /// Suspend/resume control.
    pub console: &'a ConsoleService,
    /// Consulted before each task launches.
    pub gate: &'a dyn StartGate,
    /// Receives every runtime event.
    pub log: &'a EventLog,
    /// Timestamps records and events.
    pub clock: &'a dyn Clock,
    /// Receives one [`ControlMessage::ExecutionCompleted`] per host of
    /// each successful task.
    pub completions: Option<Sender<ControlMessage>>,
    /// How long a task waits for each dataflow input before failing.
    pub input_timeout: Duration,
    /// Host locks. Share one registry federation-wide so concurrent
    /// application executions serialise on shared hosts.
    pub registry: &'a HostLockRegistry,
}

/// Execute a scheduled application. See the module docs for semantics.
pub fn execute(exec: Execution<'_>) -> ExecutionOutcome {
    let exec = &exec;
    let afg = exec.afg;
    let n = afg.task_count();
    let app_id = exec.table as *const _ as u64;
    // Data-Manager channels, one per edge.
    let (senders, receivers) = exec
        .dm
        .open_all(app_id, afg.edge_count())
        .expect("channel setup (in-proc/loopback) cannot fail here");

    // Route channel halves to their tasks.
    let mut task_in: Vec<Vec<(usize, DataReceiver)>> = (0..n).map(|_| Vec::new()).collect();
    let mut task_out: Vec<Vec<(usize, DataSender)>> = (0..n).map(|_| Vec::new()).collect();
    for (idx, (e, (s, r))) in afg.edges.iter().zip(senders.into_iter().zip(receivers)).enumerate() {
        task_out[e.from.index()].push((idx, s));
        task_in[e.to.index()].push((idx, r));
    }

    let records: Vec<Mutex<Option<TaskRunRecord>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        // Move each task's channel halves into its worker.
        for task in afg.task_ids() {
            let my_in = std::mem::take(&mut task_in[task.index()]);
            let my_out = std::mem::take(&mut task_out[task.index()]);
            let records = &records;
            scope.spawn(move || {
                let record = run_task(exec, task, my_in, my_out);
                *records[task.index()].lock().unwrap() = Some(record);
            });
        }
    });

    let records: Vec<TaskRunRecord> = records
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every task records an outcome"))
        .collect();
    let success = records.iter().all(|r| r.ok);
    let start = records.iter().map(|r| r.start).fold(f64::INFINITY, f64::min);
    let finish = records.iter().map(|r| r.finish).fold(0.0f64, f64::max);
    ExecutionOutcome {
        records,
        success,
        wall_seconds: if finish > start { finish - start } else { 0.0 },
    }
}

fn run_task(
    exec: &Execution<'_>,
    task: TaskId,
    inputs: Vec<(usize, DataReceiver)>,
    outputs: Vec<(usize, DataSender)>,
) -> TaskRunRecord {
    let Execution { afg, io, console, gate, log, clock, input_timeout, .. } = *exec;
    let placement = exec.table.placement(task).expect("complete table");
    let node = afg.task(task);
    let fail = |start: f64, finish: f64, hosts: Vec<String>, why: String| {
        log.emit(finish, RuntimeEvent::TaskFailed { task, reason: why.clone() });
        TaskRunRecord { task, hosts, start, finish, ok: false, error: Some(why) }
    };

    // 1. Gather inputs: dataflow frames from channels, file/URL payloads
    //    from the I/O service.
    let t_wait = clock.now();
    let mut port_payloads: Vec<Option<Arc<[u8]>>> = vec![None; node.in_ports()];
    for (i, spec) in node.props.inputs.iter().enumerate() {
        if let Some(data) = io.resolve_input(spec, node.kernel, i, node.problem_size) {
            port_payloads[i] = Some(data);
        }
    }
    for (edge_idx, rx) in &inputs {
        let edge = &afg.edges[*edge_idx];
        match rx.recv_timeout(input_timeout) {
            Ok(data) => port_payloads[edge.to_port.index()] = Some(data),
            Err(e) => {
                return fail(
                    t_wait,
                    clock.now(),
                    placement.hosts.to_vec(),
                    format!("input on port {} unavailable: {e}", edge.to_port),
                );
            }
        }
    }
    let payloads: Vec<Arc<[u8]>> =
        port_payloads.into_iter().map(|p| p.unwrap_or_default()).collect();

    // 2. Wait out a console suspension before launching.
    console.wait_until_running();

    // 3. Application-Controller start gate (threshold rescheduling).
    let hosts = match gate.check(task, &placement.hosts) {
        GateDecision::Proceed => placement.hosts.to_vec(),
        GateDecision::Relocate(new_hosts) => {
            log.emit(
                clock.now(),
                RuntimeEvent::RescheduleRequested {
                    task,
                    host: placement.hosts.first().cloned().unwrap_or_default(),
                },
            );
            new_hosts
        }
        GateDecision::Abort(reason) => {
            return fail(t_wait, clock.now(), placement.hosts.to_vec(), reason);
        }
    };

    // 4. Acquire host locks in sorted order (deadlock freedom).
    let mut sorted = hosts.clone();
    sorted.sort();
    sorted.dedup();
    let locks: Vec<Arc<Mutex<()>>> = sorted.iter().map(|h| exec.registry.lock_for(h)).collect();
    let guards: Vec<_> = locks.iter().map(|l| l.lock().unwrap()).collect();

    // 5. Run the kernel.
    let start = clock.now();
    log.emit(start, RuntimeEvent::TaskStarted { task, host: hosts.join("+") });
    let result =
        run_kernel_parallel(node.kernel, node.problem_size, &payloads, hosts.len().max(1) as u32);
    let finish = clock.now();
    drop(guards);
    let out_payloads = match result {
        Ok(p) => p,
        Err(e) => return fail(start, finish, hosts, e.to_string()),
    };

    // 6. Deliver outputs: dataflow frames per out-edge, file/URL stores.
    for (edge_idx, tx) in &outputs {
        let port = afg.edges[*edge_idx].from_port.index();
        if tx.send(out_payloads.get(port).cloned().unwrap_or_default()).is_err() {
            // Consumer died; its own record will say why.
        }
    }
    for (spec, data) in node.props.outputs.iter().zip(&out_payloads) {
        io.store_output(spec, data);
    }

    // 7. Report the measured execution time for task-perf write-back.
    let seconds = (finish - start).max(0.0);
    log.emit(finish, RuntimeEvent::TaskFinished { task, seconds });
    if let Some(tx) = &exec.completions {
        for host in &hosts {
            let _ = tx.send(ControlMessage::ExecutionCompleted {
                library_task: node.library_task.clone(),
                host: host.clone(),
                problem_size: node.problem_size,
                seconds,
            });
        }
    }
    TaskRunRecord { task, hosts, start, finish, ok: true, error: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_manager::Transport;
    use crate::kernels::decode_f64s;
    use vdce_afg::{AfgBuilder, IoSpec, TaskLibrary};
    use vdce_net::topology::SiteId;
    use vdce_net::RealClock;
    use vdce_sched::TaskPlacement;

    fn single_host_table(afg: &Afg, host: &str) -> AllocationTable {
        let mut t = AllocationTable::new(&afg.name);
        for id in afg.task_ids() {
            t.insert(TaskPlacement {
                task: id,
                task_name: afg.task(id).name.clone(),
                site: SiteId(0),
                hosts: vec![host.to_string()].into(),
                predicted_seconds: 0.001,
                data_sources: vec![],
            });
        }
        t
    }

    /// The services one test execution runs against.
    struct Rig {
        log: EventLog,
        dm: DataManager,
        io: IoService,
        console: ConsoleService,
        clock: RealClock,
        registry: HostLockRegistry,
    }

    impl Rig {
        fn new(transport: Transport) -> Rig {
            let log = EventLog::new();
            let clock = RealClock::new();
            Rig {
                dm: DataManager::new(transport, log.clone()),
                io: IoService::new(),
                console: ConsoleService::new(log.clone(), clock.clone()),
                clock,
                registry: HostLockRegistry::new(),
                log,
            }
        }

        /// An ungated execution of `afg` on this rig with a 5 s input
        /// timeout; tests override fields with struct-update syntax.
        fn execution<'a>(&'a self, afg: &'a Afg, table: &'a AllocationTable) -> Execution<'a> {
            Execution {
                afg,
                table,
                dm: &self.dm,
                io: &self.io,
                console: &self.console,
                gate: &AlwaysProceed,
                log: &self.log,
                clock: &self.clock,
                completions: None,
                input_timeout: Duration::from_secs(5),
                registry: &self.registry,
            }
        }
    }

    fn run(
        afg: &Afg,
        table: &AllocationTable,
        transport: Transport,
        gate: &dyn StartGate,
    ) -> (ExecutionOutcome, EventLog, IoService) {
        let rig = Rig::new(transport);
        let outcome = execute(Execution { gate, ..rig.execution(afg, table) });
        (outcome, rig.log, rig.io)
    }

    fn chain() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "s", 500).unwrap();
        let m = b.add_task("Sort", "m", 500).unwrap();
        let k = b.add_task("Sink", "k", 500).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chain_executes_end_to_end_inproc() {
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let (out, log, _) = run(&afg, &table, Transport::InProc, &AlwaysProceed);
        assert!(out.success, "records: {:?}", out.records);
        assert_eq!(out.records.len(), 3);
        assert_eq!(log.count(|e| matches!(e, RuntimeEvent::TaskFinished { .. })), 3);
        assert!(out.wall_seconds >= 0.0);
    }

    #[test]
    fn chain_executes_end_to_end_tcp() {
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let (out, ..) = run(&afg, &table, Transport::Tcp, &AlwaysProceed);
        assert!(out.success);
    }

    #[test]
    fn file_output_lands_in_io_service() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("io", &lib);
        let s = b.add_task("Source", "s", 100).unwrap();
        b.set_output(s, 0, IoSpec::inline_file("/users/VDCE/u/out.dat", 0)).unwrap();
        let k = b.add_task("Sink", "k", 100).unwrap();
        b.connect(s, 0, k, 0).unwrap();
        let afg = b.build().unwrap();
        let table = single_host_table(&afg, "h0");
        let (out, _, io) = run(&afg, &table, Transport::InProc, &AlwaysProceed);
        assert!(out.success);
        let data = io.get("/users/VDCE/u/out.dat").expect("output stored");
        assert_eq!(decode_f64s(&data).len(), 100);
    }

    #[test]
    fn file_input_feeds_entry_task() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("io", &lib);
        let lu = b.add_task("LU_Decomposition", "lu", 8).unwrap();
        b.set_input(lu, 0, IoSpec::inline_file("/users/VDCE/u/matrix_A.dat", 0)).unwrap();
        let k = b.add_task("Sink", "k", 8).unwrap();
        b.connect(lu, 0, k, 0).unwrap();
        let afg = b.build().unwrap();
        let table = single_host_table(&afg, "h0");
        let (out, ..) = run(&afg, &table, Transport::InProc, &AlwaysProceed);
        assert!(out.success, "{:?}", out.records);
    }

    #[test]
    fn failing_task_cascades_to_dependents() {
        // LU on a singular matrix (uploaded) fails; the sink then fails
        // with a closed-channel error.
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("fail", &lib);
        let lu = b.add_task("LU_Decomposition", "lu", 2).unwrap();
        b.set_input(lu, 0, IoSpec::inline_file("/singular.dat", 0)).unwrap();
        let k = b.add_task("Sink", "k", 2).unwrap();
        b.connect(lu, 0, k, 0).unwrap();
        let afg = b.build().unwrap();
        let table = single_host_table(&afg, "h0");

        let rig = Rig::new(Transport::InProc);
        rig.io.put("/singular.dat", crate::kernels::encode_f64s(&[0.0, 1.0, 1.0, 0.0]));
        let input_timeout = Duration::from_millis(300);
        let out = execute(Execution { input_timeout, ..rig.execution(&afg, &table) });
        assert!(!out.success);
        assert!(!out.records[0].ok);
        assert!(out.records[0].error.as_deref().unwrap().contains("pivot"));
        assert!(!out.records[1].ok, "sink must fail once its producer died");
        assert_eq!(rig.log.count(|e| matches!(e, RuntimeEvent::TaskFailed { .. })), 2);
    }

    #[test]
    fn gate_relocation_moves_the_task() {
        struct MoveOff;
        impl StartGate for MoveOff {
            fn check(&self, _t: TaskId, hosts: &[String]) -> GateDecision {
                if hosts == ["h0"] {
                    GateDecision::Relocate(vec!["h1".into()])
                } else {
                    GateDecision::Proceed
                }
            }
        }
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let (out, log, _) = run(&afg, &table, Transport::InProc, &MoveOff);
        assert!(out.success);
        for r in &out.records {
            assert_eq!(r.hosts, vec!["h1".to_string()]);
        }
        assert_eq!(log.count(|e| matches!(e, RuntimeEvent::RescheduleRequested { .. })), 3);
    }

    #[test]
    fn gate_abort_fails_the_task() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct AbortAll(AtomicU32);
        impl StartGate for AbortAll {
            fn check(&self, _t: TaskId, _h: &[String]) -> GateDecision {
                self.0.fetch_add(1, Ordering::SeqCst);
                GateDecision::Abort("load shed".into())
            }
        }
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let gate = AbortAll(AtomicU32::new(0));
        let (out, log, _) = run(&afg, &table, Transport::InProc, &gate);
        assert!(!out.success);
        assert_eq!(out.records[0].error.as_deref(), Some("load shed"));
        // The source fails on its one launch; its consumers fail on the
        // closed channel without reaching the gate.
        assert_eq!(gate.0.load(Ordering::SeqCst), 1);
        assert_eq!(log.count(|e| matches!(e, RuntimeEvent::TaskStarted { .. })), 0);
    }

    #[test]
    fn completions_are_reported_per_host() {
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let rig = Rig::new(Transport::InProc);
        let (tx, rx) = std::sync::mpsc::channel();
        let out = execute(Execution { completions: Some(tx), ..rig.execution(&afg, &table) });
        assert!(out.success);
        let msgs: Vec<ControlMessage> = rx.try_iter().collect();
        assert_eq!(msgs.len(), 3);
        assert!(msgs.iter().all(|m| matches!(
            m,
            ControlMessage::ExecutionCompleted { host, .. } if host == "h0"
        )));
    }

    #[test]
    fn suspended_application_waits_for_resume() {
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let rig = Rig::new(Transport::InProc);
        rig.console.suspend();
        let console2 = rig.console.clone();
        let resumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            console2.resume();
        });
        let out = execute(rig.execution(&afg, &table));
        resumer.join().unwrap();
        assert!(out.success);
        assert!(out.wall_seconds >= 0.0);
        assert_eq!(rig.log.count(|e| matches!(e, RuntimeEvent::Resumed)), 1);
    }

    #[test]
    fn fan_out_duplicates_producer_payload() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("fan", &lib);
        let s = b.add_task("Source", "s", 64).unwrap();
        let k1 = b.add_task("Sink", "k1", 64).unwrap();
        let k2 = b.add_task("Sink", "k2", 64).unwrap();
        b.connect(s, 0, k1, 0).unwrap();
        b.connect(s, 0, k2, 0).unwrap();
        let afg = b.build().unwrap();
        let table = single_host_table(&afg, "h0");
        let (out, ..) = run(&afg, &table, Transport::InProc, &AlwaysProceed);
        assert!(out.success, "{:?}", out.records);
    }
}
