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
//! abort it.

use crate::checkpoint::{CheckpointPolicy, CheckpointStore};
use crate::data_manager::{DataManager, DataReceiver, DataSender};
use crate::events::{EventLog, RuntimeEvent};
use crate::kernels::run_kernel_parallel;
use crate::recovery::BackoffPolicy;
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

/// Executor tunables.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// How long a task waits for each dataflow input before failing.
    pub input_timeout: Duration,
    /// Retry schedule for transient failures (gate aborts and kernel
    /// errors). The default never retries, preserving fail-fast
    /// semantics; recovery-aware callers opt in.
    pub retry: BackoffPolicy,
    /// Checkpoint cadence. Disabled by default; has effect only when an
    /// execution also supplies a `CheckpointContext`.
    pub checkpoint: CheckpointPolicy,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            input_timeout: Duration::from_secs(30),
            retry: BackoffPolicy::none(),
            checkpoint: CheckpointPolicy::disabled(),
        }
    }
}

/// Checkpoint wiring for one execution: the store checkpoints are
/// written to and resumed from, plus the reachability predicate used to
/// validate stored replicas (a checkpoint whose every copy sits on an
/// unreachable — crashed or quarantined — host is unusable).
pub struct CheckpointContext<'a> {
    /// The durable checkpoint store. [`execute`] puts it behind a lock
    /// for as long as its worker threads run.
    pub store: &'a mut CheckpointStore,
    /// Is a replica host currently reachable?
    pub reachable: &'a (dyn Fn(&str) -> bool + Sync),
    /// Optional cross-site replica target (DESIGN.md §12): every
    /// checkpoint this execution records is also stored on this host, so
    /// the checkpoint survives the loss of the entire site that ran the
    /// task. `None` keeps checkpoints site-local.
    pub(crate) replicate_to: Option<String>,
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
    /// Timeouts, retry and checkpoint cadence.
    pub config: &'a ExecutorConfig,
    /// Host locks. Share one registry federation-wide so concurrent
    /// application executions serialise on shared hosts.
    pub registry: &'a HostLockRegistry,
    /// Checkpoint-restart wiring: with a context, each task first consults
    /// the store for its newest valid checkpoint (a fully checkpointed task
    /// re-delivers its recorded outputs instead of re-executing), and
    /// successful kernel runs are checkpointed when `config.checkpoint` is
    /// enabled.
    pub checkpoint: Option<CheckpointContext<'a>>,
}

/// Execute a scheduled application. See the module docs for semantics.
pub fn execute(mut exec: Execution<'_>) -> ExecutionOutcome {
    // The worker threads are the one place the checkpoint wiring is
    // shared.
    let checkpoint = exec.checkpoint.take().map(Mutex::new);
    let (exec, checkpoint) = (&exec, checkpoint.as_ref());
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
                let record = run_task(exec, checkpoint, task, my_in, my_out);
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
    checkpoint: Option<&Mutex<CheckpointContext<'_>>>,
    task: TaskId,
    inputs: Vec<(usize, DataReceiver)>,
    outputs: Vec<(usize, DataSender)>,
) -> TaskRunRecord {
    let Execution { afg, io, console, gate, log, clock, config, .. } = *exec;
    let placement = exec.table.placement(task).expect("complete table");
    let node = afg.task(task);
    let fail = |start: f64, finish: f64, hosts: Vec<String>, why: String| {
        log.emit(finish, RuntimeEvent::TaskFailed { task, reason: why.clone() });
        TaskRunRecord { task, hosts, start, finish, ok: false, error: Some(why) }
    };
    // Deliver the task's outputs, `port` giving each port's payload:
    // dataflow frames per out-edge, file/URL stores.
    let deliver = |port: &dyn Fn(usize) -> Option<Arc<[u8]>>| {
        for (edge_idx, tx) in &outputs {
            let payload = port(afg.edges[*edge_idx].from_port.index()).unwrap_or_default();
            if tx.send(payload).is_err() {
                // Consumer died; its own record will say why.
            }
        }
        for (i, spec) in node.props.outputs.iter().enumerate() {
            if let Some(data) = port(i) {
                io.store_output(spec, &data);
            }
        }
    };

    // 0. Checkpoint-restart: a fully checkpointed task never re-executes.
    //    Its recorded outputs are re-delivered (downstream tasks cannot
    //    tell the difference) and the run is reported as resumed. A
    //    checkpoint whose replicas are all unreachable is skipped by
    //    `latest_valid` and the task runs normally.
    let resumed = checkpoint.and_then(|ctx| {
        let ctx = ctx.lock().unwrap();
        let (cp, outputs) = ctx.store.latest_valid(task, ctx.reachable)?;
        (cp.progress >= 1.0 - 1e-9).then(|| (cp.progress, cp.stored_on.clone(), outputs.clone()))
    });
    if let Some((progress, hosts, outputs)) = resumed {
        let start = clock.now();
        let host = hosts.first().cloned().unwrap_or_default();
        log.emit(start, RuntimeEvent::TaskResumed { task, progress, host });
        deliver(&|i| outputs.get(&i).cloned());
        let finish = clock.now();
        log.emit(finish, RuntimeEvent::TaskFinished { task, seconds: 0.0 });
        return TaskRunRecord { task, hosts, start, finish, ok: true, error: None };
    }

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
        match rx.recv_timeout(config.input_timeout) {
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

    // Steps 2–5 run under a bounded-retry loop (`config.retry`): a gate
    // abort or kernel error with retries remaining backs off and goes
    // around again. The gate is re-consulted on every attempt, so a retry
    // can come back with `Relocate` — that is the mid-execution
    // terminate-and-migrate path (§4.1 rescheduling), recorded as
    // `TaskMigrated` when the host set actually changes between attempts.
    let mut attempt: u32 = 0;
    let mut prev_hosts: Option<Vec<String>> = None;
    loop {
        // 2. Console checkpoint (suspend) before launching.
        console.checkpoint();

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
                if attempt < config.retry.max_retries {
                    log.emit(clock.now(), RuntimeEvent::TaskRetried { task, attempt });
                    std::thread::sleep(config.retry.delay_duration(attempt));
                    attempt += 1;
                    continue;
                }
                return fail(t_wait, clock.now(), placement.hosts.to_vec(), reason);
            }
        };
        if let Some(prev) = &prev_hosts {
            if *prev != hosts {
                log.emit(
                    clock.now(),
                    RuntimeEvent::TaskMigrated {
                        task,
                        from_host: prev.join("+"),
                        to_host: hosts.join("+"),
                    },
                );
            }
        }
        prev_hosts = Some(hosts.clone());

        // 4. Acquire host locks in sorted order (deadlock freedom).
        let mut sorted = hosts.clone();
        sorted.sort();
        sorted.dedup();
        let locks: Vec<Arc<Mutex<()>>> = sorted.iter().map(|h| exec.registry.lock_for(h)).collect();
        let guards: Vec<_> = locks.iter().map(|l| l.lock().unwrap()).collect();

        // 5. Run the kernel.
        let start = clock.now();
        log.emit(start, RuntimeEvent::TaskStarted { task, host: hosts.join("+") });
        let result = run_kernel_parallel(
            node.kernel,
            node.problem_size,
            &payloads,
            hosts.len().max(1) as u32,
        );
        let finish = clock.now();
        drop(guards);

        let out_payloads = match result {
            Ok(p) => p,
            Err(e) => {
                if attempt < config.retry.max_retries {
                    log.emit(finish, RuntimeEvent::TaskRetried { task, attempt });
                    std::thread::sleep(config.retry.delay_duration(attempt));
                    attempt += 1;
                    continue;
                }
                return fail(start, finish, hosts, e.to_string());
            }
        };

        // 6. Deliver outputs.
        deliver(&|i| out_payloads.get(i).cloned());

        // 6b. Checkpoint the completed run: progress 1.0 plus the
        //     produced outputs, stored on the hosts that ran the task, so
        //     a re-execution (crash recovery, app restart) resumes here
        //     instead of re-running the kernel.
        if let (Some(ctx), true) = (checkpoint, config.checkpoint.is_enabled()) {
            let outputs = out_payloads.iter().cloned().enumerate().collect();
            let mut ctx = ctx.lock().unwrap();
            let CheckpointContext { store, replicate_to, .. } = &mut *ctx;
            let seq = store.record(task, 1.0, finish, hosts.clone(), outputs);
            let host = hosts.first().cloned().unwrap_or_default();
            log.emit(finish, RuntimeEvent::CheckpointTaken { task, seq, progress: 1.0, host });
            if let Some(remote) = replicate_to {
                if !hosts.contains(remote) && store.add_replica(task, seq, remote) {
                    let host = remote.clone();
                    log.emit(finish, RuntimeEvent::CheckpointReplicated { task, seq, host });
                }
            }
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
        return TaskRunRecord { task, hosts, start, finish, ok: true, error: None };
    }
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
        config: ExecutorConfig,
    }

    impl Rig {
        fn new(transport: Transport, config: ExecutorConfig) -> Rig {
            let log = EventLog::new();
            Rig {
                dm: DataManager::new(transport, log.clone()),
                io: IoService::new(),
                console: ConsoleService::new(log.clone()),
                clock: RealClock::new(),
                registry: HostLockRegistry::new(),
                config,
                log,
            }
        }

        /// An ungated, un-checkpointed execution of `afg` on this rig;
        /// tests override fields with struct-update syntax.
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
                config: &self.config,
                registry: &self.registry,
                checkpoint: None,
            }
        }
    }

    fn timeout(input_timeout: Duration) -> ExecutorConfig {
        ExecutorConfig { input_timeout, ..ExecutorConfig::default() }
    }

    fn run(
        afg: &Afg,
        table: &AllocationTable,
        transport: Transport,
        gate: &dyn StartGate,
    ) -> (ExecutionOutcome, EventLog, IoService) {
        let rig = Rig::new(transport, timeout(Duration::from_secs(5)));
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

        let rig = Rig::new(Transport::InProc, timeout(Duration::from_millis(300)));
        rig.io.put("/singular.dat", crate::kernels::encode_f64s(&[0.0, 1.0, 1.0, 0.0]));
        let out = execute(rig.execution(&afg, &table));
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
        struct AbortAll;
        impl StartGate for AbortAll {
            fn check(&self, _t: TaskId, _h: &[String]) -> GateDecision {
                GateDecision::Abort("load shed".into())
            }
        }
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let (out, ..) = run(&afg, &table, Transport::InProc, &AbortAll);
        assert!(!out.success);
        assert!(out.records.iter().any(|r| r.error.as_deref() == Some("load shed")));
    }

    #[test]
    fn transient_gate_abort_is_retried_until_it_clears() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct AbortTwice(AtomicU32);
        impl StartGate for AbortTwice {
            fn check(&self, _t: TaskId, _h: &[String]) -> GateDecision {
                if self.0.fetch_add(1, Ordering::SeqCst) < 2 {
                    GateDecision::Abort("host down".into())
                } else {
                    GateDecision::Proceed
                }
            }
        }
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("retry", &lib);
        let s = b.add_task("Source", "s", 50).unwrap();
        let k = b.add_task("Sink", "k", 50).unwrap();
        b.connect(s, 0, k, 0).unwrap();
        let afg = b.build().unwrap();
        let table = single_host_table(&afg, "h0");

        let rig = Rig::new(
            Transport::InProc,
            ExecutorConfig {
                retry: BackoffPolicy { base_s: 0.001, factor: 1.0, max_s: 0.001, max_retries: 4 },
                ..timeout(Duration::from_secs(5))
            },
        );
        let gate = AbortTwice(AtomicU32::new(0));
        let out = execute(Execution { gate: &gate, ..rig.execution(&afg, &table) });
        assert!(out.success, "{:?}", out.records);
        // Only the first task hits the aborting window (the gate counter
        // is global), but at least its retries must be in the log.
        assert!(rig.log.count(|e| matches!(e, RuntimeEvent::TaskRetried { .. })) >= 2);
    }

    #[test]
    fn exhausted_retries_fail_with_the_last_reason() {
        struct AbortAll;
        impl StartGate for AbortAll {
            fn check(&self, _t: TaskId, _h: &[String]) -> GateDecision {
                GateDecision::Abort("still down".into())
            }
        }
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let rig = Rig::new(
            Transport::InProc,
            ExecutorConfig {
                retry: BackoffPolicy { base_s: 0.001, factor: 1.0, max_s: 0.001, max_retries: 2 },
                ..timeout(Duration::from_millis(200))
            },
        );
        let out = execute(Execution { gate: &AbortAll, ..rig.execution(&afg, &table) });
        assert!(!out.success);
        assert!(out.records.iter().any(|r| r.error.as_deref() == Some("still down")));
        // Each task burned its full retry budget before failing.
        assert!(rig.log.count(|e| matches!(e, RuntimeEvent::TaskRetried { .. })) >= 2);
    }

    #[test]
    fn retry_relocation_is_logged_as_migration() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // The LU task fails deterministically (singular input) on any
        // host; the gate moves it to a different host per attempt, so the
        // second attempt is a migration.
        struct Hop(AtomicU32);
        impl StartGate for Hop {
            fn check(&self, _t: TaskId, _h: &[String]) -> GateDecision {
                let n = self.0.fetch_add(1, Ordering::SeqCst);
                GateDecision::Relocate(vec![format!("h{n}")])
            }
        }
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("hop", &lib);
        let lu = b.add_task("LU_Decomposition", "lu", 2).unwrap();
        b.set_input(lu, 0, IoSpec::inline_file("/singular.dat", 0)).unwrap();
        let afg = b.build().unwrap();
        let table = single_host_table(&afg, "h0");
        let rig = Rig::new(
            Transport::InProc,
            ExecutorConfig {
                retry: BackoffPolicy { base_s: 0.001, factor: 1.0, max_s: 0.001, max_retries: 1 },
                ..timeout(Duration::from_millis(200))
            },
        );
        rig.io.put("/singular.dat", crate::kernels::encode_f64s(&[0.0, 1.0, 1.0, 0.0]));
        let gate = Hop(AtomicU32::new(0));
        let out = execute(Execution { gate: &gate, ..rig.execution(&afg, &table) });
        assert!(!out.success, "singular LU fails on every host");
        assert_eq!(
            rig.log.count(|e| matches!(e, RuntimeEvent::TaskMigrated { .. })),
            1,
            "one retry on a different host → one migration event"
        );
    }

    #[test]
    fn completions_are_reported_per_host() {
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let rig = Rig::new(Transport::InProc, ExecutorConfig::default());
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
        let rig = Rig::new(Transport::InProc, ExecutorConfig::default());
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

    fn checkpointing() -> ExecutorConfig {
        ExecutorConfig {
            checkpoint: CheckpointPolicy::every(0.5, 0.0),
            ..ExecutorConfig::default()
        }
    }

    #[test]
    fn checkpointed_rerun_skips_completed_tasks() {
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let mut store = CheckpointStore::new();
        let reachable = |_: &str| true;
        let ctx =
            CheckpointContext { store: &mut store, reachable: &reachable, replicate_to: None };

        let rig = Rig::new(Transport::InProc, checkpointing());
        let out = execute(Execution { checkpoint: Some(ctx), ..rig.execution(&afg, &table) });
        assert!(out.success, "{:?}", out.records);
        assert_eq!(store.state().taken, 3, "every completed task checkpointed");
        assert_eq!(rig.log.count(|e| matches!(e, RuntimeEvent::CheckpointTaken { .. })), 3);

        // Second execution with the same store: no completed work is
        // re-executed — every task resumes from its full checkpoint.
        let rig2 = Rig::new(Transport::InProc, checkpointing());
        let ctx =
            CheckpointContext { store: &mut store, reachable: &reachable, replicate_to: None };
        let out2 = execute(Execution { checkpoint: Some(ctx), ..rig2.execution(&afg, &table) });
        assert!(out2.success, "{:?}", out2.records);
        assert_eq!(
            rig2.log.count(|e| matches!(e, RuntimeEvent::TaskStarted { .. })),
            0,
            "no kernel re-executed past its checkpoint"
        );
        assert_eq!(rig2.log.count(|e| matches!(e, RuntimeEvent::TaskResumed { .. })), 3);
    }

    #[test]
    fn replicated_checkpoints_survive_home_host_loss() {
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let mut store = CheckpointStore::new();

        // First run replicates every checkpoint to the off-site host r1.
        let rig = Rig::new(Transport::InProc, checkpointing());
        let reachable = |_: &str| true;
        let ctx = CheckpointContext {
            store: &mut store,
            reachable: &reachable,
            replicate_to: Some("r1".into()),
        };
        let out = execute(Execution { checkpoint: Some(ctx), ..rig.execution(&afg, &table) });
        assert!(out.success);
        assert_eq!(rig.log.count(|e| matches!(e, RuntimeEvent::CheckpointReplicated { .. })), 3);

        // h0 crashed, but the replicas on r1 keep every checkpoint valid:
        // the rerun resumes everything instead of re-executing.
        let rig2 = Rig::new(Transport::InProc, checkpointing());
        let h0_down = |h: &str| h != "h0";
        let ctx2 = CheckpointContext { store: &mut store, reachable: &h0_down, replicate_to: None };
        let out2 = execute(Execution { checkpoint: Some(ctx2), ..rig2.execution(&afg, &table) });
        assert!(out2.success, "{:?}", out2.records);
        assert_eq!(rig2.log.count(|e| matches!(e, RuntimeEvent::TaskStarted { .. })), 0);
        assert_eq!(rig2.log.count(|e| matches!(e, RuntimeEvent::TaskResumed { .. })), 3);
    }

    #[test]
    fn unreachable_checkpoint_replicas_force_reexecution() {
        let afg = chain();
        let table = single_host_table(&afg, "h0");
        let mut store = CheckpointStore::new();

        // First run checkpoints everything on h0.
        let rig = Rig::new(Transport::InProc, checkpointing());
        let reachable = |_: &str| true;
        let ctx =
            CheckpointContext { store: &mut store, reachable: &reachable, replicate_to: None };
        let out = execute(Execution { checkpoint: Some(ctx), ..rig.execution(&afg, &table) });
        assert!(out.success);

        // h0 "crashed": its checkpoints are unusable, so the rerun
        // executes every task from scratch.
        let rig2 = Rig::new(Transport::InProc, checkpointing());
        let h0_down = |h: &str| h != "h0";
        let ctx2 = CheckpointContext { store: &mut store, reachable: &h0_down, replicate_to: None };
        let out2 = execute(Execution { checkpoint: Some(ctx2), ..rig2.execution(&afg, &table) });
        assert!(out2.success, "{:?}", out2.records);
        assert_eq!(rig2.log.count(|e| matches!(e, RuntimeEvent::TaskResumed { .. })), 0);
        assert_eq!(rig2.log.count(|e| matches!(e, RuntimeEvent::TaskStarted { .. })), 3);
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
