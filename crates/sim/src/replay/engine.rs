//! The replay state machine: DESIGN.md §10's tick loop, one method per
//! step. [`Replay::run`] is the loop; the fields say what each step may
//! touch — the fault plan's *ground truth* ([`GroundTruth`]) against what
//! the control plane has *detected* ([`Detected`]) is the distinction
//! every recovery decision turns on.

use super::plane::ControlPlane;
use super::{ReplayConfig, ReplayOutcome};
use crate::faults::{Fault, FaultEvent, FaultPlan, TimedFaultEvent};
use crate::pool_gen::Federation;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use vdce_afg::level::priority_list;
use vdce_afg::{Afg, EdgeIndex, TaskId};
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_net::PartitionState;
use vdce_obs::Observer;
use vdce_runtime::{
    ControlMessage, DurableOptions, FailoverEvent, MtbfEstimator, Quarantine, RuntimeEvent,
    SiteFailover, SiteQuarantine, SiteTableEvent, TaskCheckpoint,
};
use vdce_sched::{
    reselect_task, site_schedule_observed, AllocationTable, SiteView, TaskHostChoice,
};

/// Slack for comparing virtual times.
const EPS: f64 = 1e-9;

/// What a replay is given, plus what is derived from it once and never
/// changes. Shared by reference, so a step reads it freely while it
/// mutates the rest of the [`Replay`].
pub(super) struct Inputs<'a> {
    pub(super) federation: &'a Federation,
    pub(super) afg: &'a Afg,
    pub(super) plan: &'a FaultPlan,
    pub(super) cfg: &'a ReplayConfig,
    pub(super) obs: &'a Observer,
    pub(super) sites: usize,
    /// Host name → owning site.
    host_site: BTreeMap<String, SiteId>,
    /// Lexicographically-ordered hosts per site, for replica selection.
    site_hosts_sorted: Vec<Vec<String>>,
    /// The initial allocation (site 0 is the home site).
    table: AllocationTable,
    /// Task order for the start step: level desc, id asc — the same
    /// contention tie-break `makespan::evaluate` applies.
    by_priority: Vec<TaskId>,
    edge_idx: EdgeIndex,
    timeline: Vec<TimedFaultEvent>,
    /// Virtual time after which no plan fault can still be unfolding.
    quiesce_t: f64,
}

impl<'a> Inputs<'a> {
    pub(super) fn new(
        federation: &'a Federation,
        afg: &'a Afg,
        plan: &'a FaultPlan,
        cfg: &'a ReplayConfig,
        obs: &'a Observer,
    ) -> Self {
        let sites = federation.topology.site_count();
        let mut host_site: BTreeMap<String, SiteId> = BTreeMap::new();
        let mut site_hosts_sorted: Vec<Vec<String>> = Vec::with_capacity(sites);
        for site in federation.topology.sites() {
            host_site.extend(site.hosts.iter().map(|h| (h.clone(), site.id)));
            let mut hosts = site.hosts.clone();
            hosts.sort();
            site_hosts_sorted.push(hosts);
        }

        let views = federation.views();
        let table = site_schedule_observed(
            afg,
            &views[0],
            &views[1..],
            &federation.net,
            &cfg.scheduler,
            &obs.metrics,
        )
        .expect("replay requires a schedulable AFG");
        let levels = views[0].levels(afg).expect("AFG is a DAG");
        let by_priority = priority_list(&levels);

        let timeline = plan.timeline(cfg.tick);
        let last_event = timeline.iter().map(|e| e.t).fold(0.0f64, f64::max);
        let last_spike = plan
            .faults
            .iter()
            .map(|f| match f {
                Fault::LoadSpike { at, duration, .. } => at + duration,
                _ => 0.0,
            })
            .fold(0.0f64, f64::max);
        Inputs {
            federation,
            afg,
            plan,
            cfg,
            obs,
            sites,
            host_site,
            site_hosts_sorted,
            table,
            by_priority,
            edge_idx: afg.edge_index(),
            timeline,
            quiesce_t: last_event + last_spike + 2.0 * cfg.echo_period,
        }
    }
}

/// Execution state of one task during a replay.
#[derive(Debug, Clone, PartialEq)]
enum TaskState {
    /// Placed, waiting for inputs / host availability.
    Pending,
    /// Backing off until `resume_at`, then re-selecting.
    Waiting { resume_at: f64 },
    /// Executing on the placement's hosts from `start` until `end`.
    Running { start: f64, end: f64 },
    /// Finished at `end`.
    Completed { end: f64 },
    /// Exhausted its retries or lost an ancestor.
    Failed,
}

impl TaskState {
    fn is_terminal(&self) -> bool {
        matches!(self, TaskState::Completed { .. } | TaskState::Failed)
    }
}

/// One task's placement and run state.
struct TaskRun {
    state: TaskState,
    /// Current placement: site, hosts, predicted seconds.
    site: SiteId,
    hosts: Vec<String>,
    predicted: f64,
    /// Backoff attempts used so far.
    attempts: u32,
    /// No start is backdated before this (the last recovery time).
    floor: f64,
    finish: f64,
    /// Hosts the task last ran on (empty when it never ran).
    last_hosts: Vec<String>,
    /// For the current run: planned checkpoints still to flush as
    /// (absolute completion time, progress, cost), the resume fraction
    /// the run started from, its full work, and checkpoint cost already
    /// paid (needed to convert elapsed time back into progress on a kill).
    pending_ckpts: Vec<(f64, f64, f64)>,
    resume_from: f64,
    run_w: f64,
    done_ckpt_cost: f64,
}

impl TaskRun {
    /// Move the task to a re-selected placement; it may not start before
    /// `t`.
    fn place(&mut self, site: SiteId, choice: &TaskHostChoice, t: f64) {
        self.site = site;
        self.hosts = choice.hosts.to_vec();
        self.predicted = choice.predicted_seconds;
        self.floor = t;
        self.state = TaskState::Pending;
    }

    /// Terminate the run that began at `start`: its hosts are free from
    /// `t`, its unwritten checkpoints are void. Returns the progress
    /// fraction the run had actually reached — the resume floor plus
    /// useful elapsed seconds (checkpoint writes paid so far are not
    /// useful work) over full work.
    fn kill(&mut self, start: f64, t: f64, host_free: &mut BTreeMap<String, f64>) -> f64 {
        for h in &self.hosts {
            host_free.insert(h.clone(), t);
        }
        self.pending_ckpts.clear();
        if self.run_w <= 1e-12 {
            return self.resume_from;
        }
        (self.resume_from + ((t - start) - self.done_ckpt_cost) / self.run_w)
            .clamp(self.resume_from, 1.0)
    }
}

/// What the fault plan has actually done, whether or not anyone has
/// noticed yet: a checkpoint written while its host is down is lost,
/// transfers and replica landings obey the real cuts.
#[derive(Default)]
struct GroundTruth {
    down: BTreeSet<String>,
    severed: PartitionState,
}

/// What the control plane has *detected* — echo probes, monitor reports
/// and timed-out link probes lag the ground truth. Re-selection filters
/// on this view.
struct Detected {
    dead: BTreeSet<String>,
    partition: PartitionState,
    quarantine: Quarantine,
    site_quarantine: SiteQuarantine,
    /// Per-site Site-Manager role tracker.
    failover: Vec<SiteFailover>,
    /// Behind adaptive checkpoint intervals.
    mtbf: MtbfEstimator,
}

/// Checkpoint and cross-site replica bookkeeping (DESIGN.md §11, §12)
/// beyond the counts the outcome carries.
#[derive(Default)]
struct CheckpointBook {
    /// Σ progress in flight at each kill.
    lost_progress_sum: f64,
    /// In-flight cross-site checkpoint replications, in initiation order:
    /// (ready_at, task, seq, src site, dst site, target host).
    pending_replicas: Vec<(f64, TaskId, u64, SiteId, SiteId, String)>,
}

/// Which plan fault each observation is charged to; the latencies
/// themselves go straight into the outcome's `detections`.
#[derive(Default)]
struct Attribution {
    /// Next unapplied entry of the timeline.
    next_event: usize,
    /// First time a degrade of fault i actually hit the link probe.
    degrade_applied: BTreeMap<usize, f64>,
    /// First time a partition of fault i actually severed links.
    partition_applied: BTreeMap<usize, f64>,
}

/// Charge `fault` as detected at `t` — unless it already was, which
/// returns `false`.
fn stamp(detection: &mut Option<f64>, fault: &Fault, t: f64) -> bool {
    let first = detection.is_none();
    if first {
        *detection = Some((t - fault.at()).max(0.0));
    }
    first
}

/// One tick's re-selection inputs: the hosts nothing may move onto
/// (quarantined or detected dead) and the site views, captured on first
/// use — most ticks move nothing.
struct Reselection {
    banned: BTreeSet<String>,
    views: OnceCell<Vec<SiteView>>,
}

/// One replay in flight.
pub(super) struct Replay<'a> {
    inp: &'a Inputs<'a>,
    plane: ControlPlane,
    truth: GroundTruth,
    seen: Detected,
    tasks: Vec<TaskRun>,
    /// When each host is next free.
    host_free: BTreeMap<String, f64>,
    ckpt: CheckpointBook,
    attr: Attribution,
    /// The outcome under construction: steps bump its counters and push
    /// onto its lists as things happen, `finish` fills in what only the
    /// final state can tell.
    out: ReplayOutcome,
    /// Virtual now.
    t: f64,
    next_echo: f64,
}

impl<'a> Replay<'a> {
    pub(super) fn new(inp: &'a Inputs<'a>, durable: Option<&DurableOptions>) -> Self {
        let plane = ControlPlane::new(inp, durable);
        let tasks = inp
            .afg
            .task_ids()
            .map(|t| {
                let p = inp.table.placement(t).expect("complete table");
                TaskRun {
                    state: TaskState::Pending,
                    site: p.site,
                    hosts: p.hosts.to_vec(),
                    predicted: p.predicted_seconds,
                    attempts: 0,
                    floor: 0.0,
                    finish: 0.0,
                    last_hosts: Vec::new(),
                    pending_ckpts: Vec::new(),
                    resume_from: 0.0,
                    run_w: 0.0,
                    done_ckpt_cost: 0.0,
                }
            })
            .collect();
        let failover: Vec<SiteFailover> = inp
            .federation
            .topology
            .sites()
            .iter()
            .map(|s| SiteFailover::new(s.id, s.server_host.clone(), &s.hosts))
            .collect();
        // Durable runs start from a seq-0 snapshot of the fully set-up
        // control plane, so recovery is pure `snapshot + replay` — it never
        // re-runs setup (administrative repository writes happen before the
        // journal attaches and are only restored through this snapshot).
        if plane.journal.is_enabled() {
            let (bytes, hash) = plane.capture_state(&failover);
            plane.journal.install_snapshot(bytes, hash);
        }
        Replay {
            inp,
            plane,
            truth: GroundTruth::default(),
            seen: Detected {
                dead: BTreeSet::new(),
                partition: PartitionState::new(),
                quarantine: Quarantine::new(),
                site_quarantine: SiteQuarantine::new(),
                failover,
                mtbf: MtbfEstimator::new(0.5),
            },
            tasks,
            host_free: BTreeMap::new(),
            ckpt: CheckpointBook::default(),
            attr: Attribution::default(),
            out: ReplayOutcome {
                detections: vec![None; inp.plan.faults.len()],
                ..ReplayOutcome::default()
            },
            t: 0.0,
            next_echo: 0.0,
        }
    }

    /// The tick loop (DESIGN.md §10). The order is load-bearing: it fixes
    /// the order of every journaled control-plane mutation.
    pub(super) fn run(mut self) -> ReplayOutcome {
        while !self.done() {
            self.complete_due();
            self.inject_faults();
            self.flush_running(self.t, |_| true);
            self.land_replicas();
            self.monitor_round();
            let (newly_dead, newly_alive) = self.drain_control();
            self.quarantine_and_failover(&newly_dead, &newly_alive);
            let moves = self.reselection();
            self.evict_overloaded(&moves);
            self.retry_waiting(&moves);
            self.start_ready();
            self.cascade_failures();
            self.snapshot_if_due();
            self.t += self.inp.cfg.tick;
        }
        self.finish()
    }

    /// Every task terminal and every plan fault played out — or the hard
    /// stop passed.
    fn done(&self) -> bool {
        let all_terminal = self.tasks.iter().all(|r| r.state.is_terminal());
        (all_terminal && self.t > self.inp.quiesce_t + EPS) || self.t > self.inp.cfg.max_time
    }

    /// Step 1. Runs whose end is due complete: close the trace span, flush
    /// the run's last checkpoints, free the hosts, and write the execution
    /// time back through the site's manager (§4.1 function 2).
    fn complete_due(&mut self) {
        let inp = self.inp;
        for task in inp.afg.task_ids() {
            let run = &mut self.tasks[task.index()];
            let TaskState::Running { start, end } = run.state else { continue };
            if end > self.t + EPS {
                continue;
            }
            run.state = TaskState::Completed { end };
            run.finish = end;
            let node = inp.afg.task(task);
            // The one place both endpoints of the task's final
            // run are known: close its logical-time span.
            inp.obs.trace.span(
                start,
                end,
                "task_run",
                vec![
                    ("task".to_string(), (&*node.name).into()),
                    ("site".to_string(), run.site.0.into()),
                    ("hosts".to_string(), run.hosts.join("+").into()),
                ],
            );
            // Every planned checkpoint of this run lands before
            // its completion — flush any not yet processed.
            self.flush_checkpoints(task, end);
            let run = &self.tasks[task.index()];
            for h in &run.hosts {
                self.host_free.insert(h.clone(), end);
            }
            self.plane.stacks[run.site.index()].manager.process(
                &ControlMessage::ExecutionCompleted {
                    library_task: node.library_task.clone(),
                    host: run.hosts[0].clone(),
                    problem_size: node.problem_size,
                    seconds: run.predicted,
                },
            );
        }
    }

    /// Step 2. Apply the fault-plan events due by now to the ground truth
    /// and to the probes the control plane watches, then mirror the cuts
    /// into the link probe.
    fn inject_faults(&mut self) {
        let inp = self.inp;
        let Inputs { federation, sites, .. } = *inp;
        while let Some(ev) =
            inp.timeline.get(self.attr.next_event).filter(|ev| ev.t <= self.t + EPS)
        {
            match &ev.event {
                FaultEvent::HostDown { host } => {
                    // Checkpoints that came due before the crash instant
                    // physically completed — flush them for the victim's
                    // running tasks before marking it down, so the tick
                    // granularity of the per-tick flush does not
                    // retroactively lose them.
                    self.flush_running(ev.t, |run| run.hosts.contains(host));
                    self.truth.down.insert(host.clone());
                    self.plane.echo.kill(host.clone());
                }
                FaultEvent::HostUp { host } => {
                    self.truth.down.remove(host);
                    self.plane.echo.revive(host);
                }
                FaultEvent::LinkDegrade { a, b, latency_factor, bandwidth_factor } => {
                    let l = federation.net.link(SiteId(*a), SiteId(*b));
                    self.plane.link_probe.set(
                        SiteId(*a),
                        SiteId(*b),
                        l.latency_s * latency_factor,
                        l.bandwidth_bps * bandwidth_factor,
                    );
                    self.attr.degrade_applied.entry(ev.fault).or_insert(ev.t);
                }
                FaultEvent::LinkRestore { a, b } => {
                    let l = federation.net.link(SiteId(*a), SiteId(*b));
                    self.plane.link_probe.set(SiteId(*a), SiteId(*b), l.latency_s, l.bandwidth_bps);
                }
                FaultEvent::SiteDown { site } => {
                    let s = SiteId(*site);
                    // Same reasoning as HostDown: writes completed before
                    // the outage instant survive (on-site copies die with
                    // the site, but an already-initiated cross-site
                    // replica can still land).
                    self.flush_running(ev.t, |run| {
                        run.hosts.iter().any(|h| inp.host_site.get(h) == Some(&s))
                    });
                    for h in &inp.site_hosts_sorted[s.index()] {
                        self.truth.down.insert(h.clone());
                        self.plane.echo.kill(h.clone());
                    }
                    self.truth.severed.isolate(s, sites);
                }
                FaultEvent::SiteUp { site } => {
                    let s = SiteId(*site);
                    for h in &inp.site_hosts_sorted[s.index()] {
                        self.truth.down.remove(h);
                        self.plane.echo.revive(h);
                    }
                    self.truth.severed.rejoin(s);
                }
                FaultEvent::PartitionStart { a, b } => {
                    self.truth.severed.sever_groups(&site_ids(a), &site_ids(b));
                    self.attr.partition_applied.entry(ev.fault).or_insert(ev.t);
                }
                FaultEvent::PartitionHeal { a, b } => {
                    self.truth.severed.heal_groups(&site_ids(a), &site_ids(b));
                }
            }
            self.attr.next_event += 1;
        }

        // Mirror ground-truth connectivity into the link probe so the
        // network monitor can *observe* cuts: probes on severed links
        // time out instead of reporting a measurement.
        for a in 0..sites as u16 {
            for b in (a + 1)..sites as u16 {
                if self.truth.severed.is_severed(SiteId(a), SiteId(b)) {
                    self.plane.link_probe.sever(SiteId(a), SiteId(b));
                } else {
                    self.plane.link_probe.heal(SiteId(a), SiteId(b));
                }
            }
        }
    }

    /// Flush the checkpoints due by `t` on every running task `hit`
    /// selects. Step 2.5 runs it over all of them each tick, gated on the
    /// *ground-truth* liveness step 2 just updated: the flush happens at
    /// tick granularity but `taken_at` keeps the planned (backdated) write
    /// time, so the store is tick-size independent.
    fn flush_running(&mut self, t: f64, hit: impl Fn(&TaskRun) -> bool) {
        if !self.inp.cfg.checkpoint.is_enabled() {
            return;
        }
        for task in self.inp.afg.task_ids() {
            let run = &self.tasks[task.index()];
            if matches!(run.state, TaskState::Running { .. }) && hit(run) {
                self.flush_checkpoints(task, t);
            }
        }
    }

    /// Flush every planned checkpoint of `task`'s current run due by `t`:
    /// the write's cost is always paid (it is part of the run duration),
    /// but the checkpoint is only *recorded* when every executing host is
    /// actually up — a host dying under the write loses it. Surviving
    /// checkpoints get a same-site replica (the lexicographically smallest
    /// other up host) so a later crash of the executing host does not
    /// strand them, and, under `replicate_cross_site`, one cross-site
    /// replication each to [`replica_target`](Self::replica_target). That
    /// transfer is charged through the network model — the copy only
    /// becomes usable at `write time + transfer time`, and it still has to
    /// *land* (step 2.6).
    fn flush_checkpoints(&mut self, task: TaskId, t: f64) {
        let inp = self.inp;
        let run = &mut self.tasks[task.index()];
        let site_hosts = &inp.site_hosts_sorted[run.site.index()];
        // `(seq, write time)` of each checkpoint recorded.
        let mut recorded: Vec<(u64, f64)> = Vec::new();
        while let Some(&(at, progress, cost)) = run.pending_ckpts.first() {
            if at > t + EPS {
                break;
            }
            run.pending_ckpts.remove(0);
            self.out.checkpoint_overhead += cost;
            run.done_ckpt_cost += cost;
            if run.hosts.iter().any(|h| self.truth.down.contains(h)) {
                continue; // host died under the write: checkpoint lost
            }
            let mut stored_on: Vec<String> = run.hosts.to_vec();
            if let Some(replica) =
                site_hosts.iter().find(|h| !self.truth.down.contains(*h) && !run.hosts.contains(*h))
            {
                stored_on.push(replica.clone());
            }
            let seq = self.plane.store.record(TaskCheckpoint::new(task, progress, at, stored_on));
            self.out.checkpoints_taken += 1;
            recorded.push((seq, at));
        }
        if recorded.is_empty() || !inp.cfg.checkpoint.replicate_cross_site {
            return;
        }
        let src = run.site;
        let Some((cost, dst, host)) = self.replica_target(src) else { return };
        for (seq, write_t) in recorded {
            self.ckpt.pending_replicas.push((write_t + cost, task, seq, src, dst, host.clone()));
            self.out.replica_bytes += inp.cfg.checkpoint.state_bytes;
        }
    }

    /// Where `src` replicates checkpoints to: the nearest other site (by
    /// modelled transfer time of the state payload, ties to the smaller
    /// id) that is not quarantined, is detected-reachable from `src`, and
    /// still has a live host (its lexicographically smallest non-dead
    /// one). Returns `(transfer time, site, host)`.
    fn replica_target(&self, src: SiteId) -> Option<(f64, SiteId, &'a String)> {
        let inp = self.inp;
        let net: &NetworkModel = &inp.federation.net;
        let mut best: Option<(f64, SiteId, &String)> = None;
        for (i, hosts) in inp.site_hosts_sorted.iter().enumerate() {
            let dst = SiteId(i as u16);
            if dst == src
                || self.seen.site_quarantine.contains(dst)
                || !self.seen.partition.reachable(src, dst, inp.sites)
            {
                continue;
            }
            let Some(host) = hosts.iter().find(|h| !self.seen.dead.contains(*h)) else {
                continue;
            };
            let cost = net.transfer_time(src, dst, inp.cfg.checkpoint.state_bytes);
            if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best = Some((cost, dst, host));
            }
        }
        best
    }

    /// Step 2.6. Cross-site replica transfers that matured: the copy lands
    /// on the target host if, right now, the target is up and the
    /// source site can still reach it — a transfer overtaken by the
    /// very fault it was guarding against is lost with the link.
    fn land_replicas(&mut self) {
        if self.ckpt.pending_replicas.is_empty() {
            return;
        }
        let mut still = Vec::with_capacity(self.ckpt.pending_replicas.len());
        for (ready_at, task, seq, src, dst, host) in std::mem::take(&mut self.ckpt.pending_replicas)
        {
            if ready_at > self.t + EPS {
                still.push((ready_at, task, seq, src, dst, host));
                continue;
            }
            if !self.truth.down.contains(&host)
                && self.truth.severed.reachable(src, dst, self.inp.sites)
                && self.plane.store.add_replica(task, seq, &host)
            {
                self.out.replica_transfers += 1;
                self.plane.log.emit(self.t, RuntimeEvent::CheckpointReplicated { task, seq, host });
            }
        }
        self.ckpt.pending_replicas = still;
    }

    /// Step 3. Monitoring round: load samples every tick, echo probing on
    /// its own (coarser) period, link probing every tick. Refreshes the
    /// detected partition and charges link faults the monitor now sees.
    fn monitor_round(&mut self) {
        let Inputs { plan, cfg, .. } = *self.inp;
        let t = self.t;
        self.plane.probe.set_time(t);
        let echo_round = t + EPS >= self.next_echo;
        if echo_round {
            self.next_echo += cfg.echo_period;
        }
        // Every daemon of a site samples before its Group Manager handles
        // any report: the event log (and so the journal) holds a site's
        // samples ahead of its forwards.
        let mut reports = Vec::new();
        for stack in &mut self.plane.stacks {
            reports.extend(stack.daemons.iter().map(|d| d.tick(t)));
            for report in reports.drain(..) {
                stack.outbox.extend(stack.group.handle_report(t, &report));
            }
            if echo_round {
                stack.outbox.extend(stack.group.probe_hosts(t));
            }
        }
        self.plane.net_mon.tick();
        self.seen.partition = self.plane.net_mon.reachability();

        let detections = &mut self.out.detections;
        for (&i, &applied_at) in &self.attr.degrade_applied {
            if t + EPS >= applied_at {
                stamp(&mut detections[i], &plan.faults[i], t);
            }
        }
        for (&i, &applied_at) in &self.attr.partition_applied {
            let Fault::SitePartition { a, b, .. } = &plan.faults[i] else { continue };
            let due = detections[i].is_none() && t + EPS >= applied_at;
            let cut = |x: &u16, y: &u16| self.seen.partition.is_severed(SiteId(*x), SiteId(*y));
            if due && a.iter().any(|x| b.iter().any(|y| cut(x, y))) {
                stamp(&mut detections[i], &plan.faults[i], t);
            }
        }
    }

    /// Step 4. Drain each site's outbox into its repository, attributing
    /// observations to plan faults. Returns the hosts whose detected
    /// liveness changed: `(newly dead, newly alive)`.
    fn drain_control(&mut self) -> (Vec<String>, Vec<String>) {
        let Inputs { plan, cfg, host_site, .. } = self.inp;
        let t = self.t;
        let mut newly_dead: Vec<String> = Vec::new();
        let mut newly_alive: Vec<String> = Vec::new();
        let (dead, detections) = (&mut self.seen.dead, &mut self.out.detections);
        for stack in &mut self.plane.stacks {
            for msg in stack.outbox.drain(..) {
                if !stack.manager.process(&msg) {
                    continue;
                }
                match &msg {
                    ControlMessage::HostFailure { host } => {
                        if dead.insert(host.clone()) {
                            newly_dead.push(host.clone());
                        }
                        for (i, f) in plan.faults.iter().enumerate() {
                            let matches = match f {
                                Fault::HostCrash { host: h, at }
                                | Fault::TransientOutage { host: h, at, .. } => {
                                    h == host && *at <= t + EPS
                                }
                                Fault::SiteOutage { site, at, .. } => {
                                    host_site.get(host) == Some(&SiteId(*site)) && *at <= t + EPS
                                }
                                _ => false,
                            };
                            if matches && stamp(&mut detections[i], f, t) {
                                break;
                            }
                        }
                    }
                    ControlMessage::HostRecovered { host } => {
                        if dead.remove(host) {
                            newly_alive.push(host.clone());
                        }
                    }
                    ControlMessage::WorkloadUpdate { host, workload, .. } => {
                        for (i, f) in plan.faults.iter().enumerate() {
                            if let Fault::LoadSpike { host: h, at, height, duration } = f {
                                let in_window =
                                    *at <= t + EPS && t <= at + duration + 2.0 * cfg.tick;
                                if h == host && in_window && *workload >= 0.5 * height {
                                    stamp(&mut detections[i], f, t);
                                }
                            }
                        }
                    }
                    ControlMessage::ExecutionCompleted { .. } => {}
                }
            }
        }
        (newly_dead, newly_alive)
    }

    /// Step 5. Quarantine newly-dead hosts and re-admit recovered ones;
    /// terminate tasks running on a dead host. Detected deaths also drive
    /// the per-site failover trackers (a deputy takes the Site Manager
    /// role, or the whole site is quarantined) and the MTBF estimator
    /// behind adaptive checkpoint intervals.
    fn quarantine_and_failover(&mut self, newly_dead: &[String], newly_alive: &[String]) {
        let t = self.t;
        let log = &self.plane.log;
        let mut promoted: Vec<(SiteId, String, String)> = Vec::new();
        for h in newly_dead {
            if self.seen.quarantine.quarantine(h) {
                log.emit(t, RuntimeEvent::HostQuarantined { host: h.clone() });
            }
            let s = self.inp.host_site[h];
            self.plane.journal_site(s, SiteTableEvent::HostDown { host: h.clone() });
            if let Some(ev) = self.seen.failover[s.index()].on_host_down(h) {
                match ev {
                    FailoverEvent::DeputyPromoted { from, to } => promoted.push((s, from, to)),
                    FailoverEvent::SiteQuarantined => {
                        if self.seen.site_quarantine.quarantine(s) {
                            log.emit(t, RuntimeEvent::SiteQuarantined { site: s.0 });
                        }
                    }
                    FailoverEvent::ManagerRestored { .. } | FailoverEvent::SiteRejoined { .. } => {}
                }
            }
            self.seen.mtbf.record_failure(t);
        }
        // A site that lost every host in one detection round did not
        // meaningfully fail over — suppress the intermediate promotions
        // and keep only the quarantine verdict.
        for (s, from, to) in promoted {
            if !self.seen.failover[s.index()].is_quarantined() {
                self.out.site_failovers += 1;
                log.emit(t, RuntimeEvent::SiteManagerFailedOver { site: s.0, from, to });
            }
        }
        for h in newly_alive {
            if self.seen.quarantine.readmit(h) {
                log.emit(t, RuntimeEvent::HostReadmitted { host: h.clone() });
            }
            let s = self.inp.host_site[h];
            self.plane.journal_site(s, SiteTableEvent::HostUp { host: h.clone() });
            if let Some(ev) = self.seen.failover[s.index()].on_host_up(h) {
                match ev {
                    FailoverEvent::SiteRejoined { .. } => {
                        if self.seen.site_quarantine.readmit(s) {
                            log.emit(t, RuntimeEvent::SiteRejoined { site: s.0 });
                        }
                    }
                    FailoverEvent::DeputyPromoted { from, to } => {
                        // A returning host outranks the acting deputy
                        // while the primary is still down.
                        self.out.site_failovers += 1;
                        log.emit(t, RuntimeEvent::SiteManagerFailedOver { site: s.0, from, to });
                    }
                    FailoverEvent::ManagerRestored { .. } | FailoverEvent::SiteQuarantined => {}
                }
            }
        }
        if newly_dead.is_empty() {
            return;
        }
        for run in &mut self.tasks {
            let TaskState::Running { start, .. } = run.state else { continue };
            if run.hosts.iter().any(|h| self.seen.dead.contains(h)) {
                // Terminate: the in-flight work is lost (modulo
                // checkpoints), re-selection follows.
                self.ckpt.lost_progress_sum += run.kill(start, t, &mut self.host_free);
                run.state = TaskState::Waiting { resume_at: t };
            }
        }
    }

    /// This tick's [`Reselection`], its views not yet captured.
    fn reselection(&self) -> Reselection {
        Reselection {
            banned: self.seen.quarantine.snapshot().union(&self.seen.dead).cloned().collect(),
            views: OnceCell::new(),
        }
    }

    /// Re-place `task`, avoiding `banned` hosts, against the views usable
    /// from its site's vantage point: that site first, the rest in site
    /// order — the tie-break `reselect_task` expects — minus quarantined
    /// sites and sites the detected partition says are unreachable. A
    /// task anchored on a quarantined site re-anchors on the smallest
    /// live site (its work has to move to the surviving side anyway).
    fn reselect(
        &self,
        moves: &Reselection,
        task: TaskId,
        banned: &BTreeSet<String>,
    ) -> Option<(SiteId, TaskHostChoice)> {
        let Inputs { afg, cfg, sites, .. } = *self.inp;
        let site_q = &self.seen.site_quarantine;
        let views = moves
            .views
            .get_or_init(|| self.plane.stacks.iter().map(|s| s.manager.view()).collect());
        let local = self.tasks[task.index()].site;
        let anchor = if site_q.contains(local) {
            views.iter().map(|v| v.site).find(|s| !site_q.contains(*s)).unwrap_or(local)
        } else {
            local
        };
        let mut ordered: Vec<SiteView> = Vec::with_capacity(views.len());
        for v in views {
            if site_q.contains(v.site) || !self.seen.partition.reachable(anchor, v.site, sites) {
                continue;
            }
            if v.site == local {
                ordered.insert(0, v.clone());
            } else {
                ordered.push(v.clone());
            }
        }
        reselect_task(
            &ordered,
            afg,
            task,
            banned,
            &cfg.scheduler.predictor,
            &cfg.scheduler.parallel,
            &self.plane.cache,
        )
    }

    /// Step 6. Load evictions, with an anti-churn guard: only terminate
    /// when re-selection away from the overloaded hosts succeeds.
    fn evict_overloaded(&mut self, moves: &Reselection) {
        let inp = self.inp;
        for &task in &inp.by_priority {
            let run = &self.tasks[task.index()];
            let TaskState::Running { start, .. } = run.state else { continue };
            let overloaded: Vec<String> = run
                .hosts
                .iter()
                .filter(|h| {
                    self.plane.stacks[inp.host_site[*h].index()]
                        .manager
                        .repository()
                        .resources(|db| db.get(h).map(|r| r.workload).unwrap_or(0.0))
                        > inp.cfg.load_threshold
                })
                .cloned()
                .collect();
            if overloaded.is_empty() {
                continue;
            }
            let mut banned = moves.banned.clone();
            banned.extend(overloaded);
            if let Some((site, choice)) = self.reselect(moves, task, &banned) {
                let run = &mut self.tasks[task.index()];
                self.ckpt.lost_progress_sum += run.kill(start, self.t, &mut self.host_free);
                run.place(site, &choice, self.t);
            }
        }
    }

    /// Step 7. Waiting tasks whose backoff matured: re-select, or back off
    /// again — and fail once the retries are exhausted.
    fn retry_waiting(&mut self, moves: &Reselection) {
        let Inputs { cfg, by_priority, .. } = self.inp;
        let t = self.t;
        for &task in by_priority {
            let TaskState::Waiting { resume_at } = self.tasks[task.index()].state else { continue };
            if resume_at > t + EPS {
                continue;
            }
            let placed = self.reselect(moves, task, &moves.banned);
            let run = &mut self.tasks[task.index()];
            match placed {
                Some((site, choice)) => run.place(site, &choice, t),
                None => {
                    run.attempts += 1;
                    let attempt = run.attempts;
                    if attempt > cfg.backoff.max_retries {
                        run.state = TaskState::Failed;
                    } else {
                        self.out.retries += 1;
                        self.plane.log.emit(t, RuntimeEvent::TaskRetried { task, attempt });
                        run.state =
                            TaskState::Waiting { resume_at: t + cfg.backoff.delay(attempt - 1) };
                    }
                }
            }
        }
    }

    /// Step 8. Start ready pending tasks (priority order). Starts are
    /// backdated to the exact data-ready / host-free instant (as in
    /// `makespan::evaluate`) so tick quantisation does not inflate the
    /// fault-free makespan; recovered tasks are floored at their
    /// recovery time.
    fn start_ready(&mut self) {
        let inp = self.inp;
        let net_now = self.plane.shared_net.snapshot();
        for &task in &inp.by_priority {
            if self.tasks[task.index()].state != TaskState::Pending {
                continue;
            }
            let parents =
                || inp.edge_idx.in_edges(inp.afg, task).map(|e| &self.tasks[e.from.index()].state);
            if parents().any(|s| *s == TaskState::Failed) {
                self.tasks[task.index()].state = TaskState::Failed;
            } else if parents().all(|s| matches!(s, TaskState::Completed { .. })) {
                if let Some(start) = self.start_time(task, &net_now) {
                    self.start_run(task, start);
                }
            }
        }
    }

    /// When `task`, whose parents are all done, can start — or `None`
    /// when its placement went stale (it goes back to waiting) or an
    /// input sits across a live cut (its floor rises).
    fn start_time(&mut self, task: TaskId, net_now: &NetworkModel) -> Option<f64> {
        let inp = self.inp;
        let (t, sites) = (self.t, inp.sites);
        let run = &self.tasks[task.index()];
        if run.hosts.iter().any(|h| self.seen.dead.contains(h) || self.seen.quarantine.contains(h))
        {
            // Placement went stale before the task ever started.
            self.tasks[task.index()].state = TaskState::Waiting { resume_at: t };
            return None;
        }
        // During a partition each side only starts tasks whose inputs
        // are locally reachable: an in-edge crossing a severed cut
        // blocks the start, and the floor keeps rising so the
        // eventual start is not backdated across the heal.
        // A quarantined source site does not block: quarantine is
        // the federation's verdict that the site is gone for
        // good, so its outputs are treated as staged (recovered
        // from checkpoints/replicas or re-derived) rather than
        // awaited across a cut that will never heal.
        let cut = !self.truth.severed.is_whole();
        let mut blocked = false;
        let mut data_ready = 0.0f64;
        for e in inp.edge_idx.in_edges(inp.afg, task) {
            let parent = &self.tasks[e.from.index()];
            let same_host = parent.hosts.iter().any(|h| run.hosts.contains(h));
            blocked |= cut
                && !same_host
                && !self.seen.site_quarantine.contains(parent.site)
                && !self.truth.severed.reachable(parent.site, run.site, sites);
            let xfer = if same_host {
                0.0
            } else {
                net_now.transfer_time(parent.site, run.site, e.data_size)
            };
            data_ready = data_ready.max(parent.finish + xfer);
        }
        if blocked {
            let run = &mut self.tasks[task.index()];
            run.floor = run.floor.max(t + inp.cfg.tick);
            return None;
        }
        let hosts_ready = run
            .hosts
            .iter()
            .map(|h| self.host_free.get(h).copied().unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        Some(data_ready.max(hosts_ready).max(run.floor))
    }

    /// Start `task`'s next run at `start`, resuming from the newest
    /// checkpoint with a reachable replica (ground-truth up, not
    /// detected-dead, not quarantined) — restart-from-zero when none
    /// survives. The run plan prices in both the skipped work and the
    /// upcoming writes.
    fn start_run(&mut self, task: TaskId, start: f64) {
        let cfg = self.inp.cfg;
        let (down, store) = (&self.truth.down, &self.plane.store);
        let run = &mut self.tasks[task.index()];
        let newest = |usable: &dyn Fn(&str) -> bool| {
            store.latest_valid(task, usable).map(|cp| cp.progress).unwrap_or(0.0)
        };
        let resume = if cfg.checkpoint.is_enabled() {
            newest(&|h| {
                !down.contains(h)
                    && !self.seen.dead.contains(h)
                    && !self.seen.quarantine.contains(h)
            })
        } else {
            0.0
        };
        let w = run.predicted.max(0.0);
        let rplan = cfg.checkpoint.run_plan_adaptive(w, resume, self.seen.mtbf.mtbf());
        let end = start + rplan.duration;
        for h in &run.hosts {
            self.host_free.insert(h.clone(), end);
        }
        if !run.last_hosts.is_empty() {
            self.out.resumed_progress.push(resume);
            self.out.resumes.push((resume, newest(&|h| !down.contains(h))));
            if run.last_hosts != run.hosts {
                self.out.migrations += 1;
                self.plane.log.emit(
                    self.t,
                    RuntimeEvent::TaskMigrated {
                        task,
                        from_host: run.last_hosts[0].clone(),
                        to_host: run.hosts[0].clone(),
                    },
                );
            }
        }
        run.last_hosts.clone_from(&run.hosts);
        run.resume_from = resume;
        run.run_w = w;
        run.done_ckpt_cost = 0.0;
        run.pending_ckpts =
            rplan.checkpoints.iter().map(|c| (start + c.offset, c.progress, c.cost)).collect();
        run.state = TaskState::Running { start, end };
    }

    /// Step 9. Failure cascade: descendants of failed tasks can never run.
    fn cascade_failures(&mut self) {
        let inp = self.inp;
        loop {
            let mut changed = false;
            for task in inp.afg.task_ids() {
                let waiting = matches!(
                    self.tasks[task.index()].state,
                    TaskState::Pending | TaskState::Waiting { .. }
                );
                if waiting
                    && inp
                        .edge_idx
                        .in_edges(inp.afg, task)
                        .any(|e| self.tasks[e.from.index()].state == TaskState::Failed)
                {
                    self.tasks[task.index()].state = TaskState::Failed;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Snapshot + compact when the journal's cadence comes due, so
    /// recovery replays a bounded suffix instead of the whole run.
    fn snapshot_if_due(&self) {
        if self.plane.journal.snapshot_due() {
            let (bytes, hash) = self.plane.capture_state(&self.seen.failover);
            self.plane.journal.install_snapshot(bytes, hash);
        }
    }

    /// Fill in what only the final state can tell; a durable run also
    /// closes its deputy links and seals the journal.
    fn finish(mut self) -> ReplayOutcome {
        let Inputs { afg, plan, obs, .. } = *self.inp;
        // Anything still in flight past max_time counts as failed.
        for run in &mut self.tasks {
            if !run.state.is_terminal() {
                run.state = TaskState::Failed;
            }
        }
        let ends = || {
            self.tasks.iter().filter_map(|r| match r.state {
                TaskState::Completed { end } => Some(end),
                _ => None,
            })
        };
        self.out.tasks_completed = ends().count() as u64;
        self.out.tasks_failed = afg.task_count() as u64 - self.out.tasks_completed;
        self.out.makespan = ends().fold(0.0f64, f64::max);
        self.out.recovered = (0..plan.faults.len()).map(|i| self.recovered(i)).collect();
        self.out.recovered_work_fraction = if self.ckpt.lost_progress_sum > EPS {
            self.out.resumed_progress.iter().sum::<f64>() / self.ckpt.lost_progress_sum
        } else {
            1.0
        };
        let Detected { quarantine, site_quarantine, .. } = &self.seen;
        self.out.quarantined_total = quarantine.quarantined_total();
        self.out.readmitted_total = quarantine.readmitted_total();
        self.out.quarantined_at_end = quarantine.len() as u64;
        self.out.sites_quarantined = site_quarantine.quarantined_total();
        self.out.sites_quarantined_at_end = site_quarantine.len() as u64;

        if self.plane.journal.is_enabled() {
            // A forced hash check on every deputy link closes the run: any
            // divergence the per-frame cadence missed latches here, and the
            // channel counters surface as metrics.
            for (stack, repo) in self.plane.stacks.iter().zip(&self.plane.repos) {
                if let Some(link) = stack.manager.deputy() {
                    let mut link = link.lock().unwrap();
                    let _ = link.check(repo.state_hash());
                    let st = link.stats();
                    obs.metrics.counter_add("store.replication.frames", st.frames);
                    obs.metrics.counter_add("store.replication.hash_checks", st.hash_checks);
                    obs.metrics.counter_add("store.replication.divergences", st.divergences);
                }
            }
            // Seal the final control-plane state: the recovery harness
            // asserts kill-and-restart reaches these exact bytes.
            let (bytes, hash) = self.plane.capture_state(&self.seen.failover);
            self.plane.journal.seal(bytes, hash);
            let js = self.plane.journal.stats();
            obs.metrics.counter_add("store.journal.records", js.records);
            obs.metrics.counter_add("store.journal.snapshots", js.snapshots);
            obs.metrics.counter_add("store.journal.wal_bytes_total", js.wal_bytes_total);
        }
        self.out.final_hosts = self.tasks.into_iter().map(|r| r.last_hosts).collect();
        self.out.export_metrics(&obs.metrics);
        self.out
    }

    /// Was plan fault `i` absorbed, given the final state?
    fn recovered(&self, i: usize) -> bool {
        let (t, tasks_failed) = (self.t, self.out.tasks_failed);
        let detection = self.out.detections[i];
        match &self.inp.plan.faults[i] {
            Fault::HostCrash { host, at } => {
                let Some(lat) = detection else { return false };
                let detect_abs = at + lat;
                tasks_failed == 0
                    && self.tasks.iter().all(|run| match run.state {
                        TaskState::Completed { end } => {
                            !run.last_hosts.contains(host) || end <= detect_abs + EPS
                        }
                        _ => true,
                    })
            }
            Fault::TransientOutage { host, .. } => !self.seen.quarantine.contains(host),
            Fault::LoadSpike { at, duration, .. } | Fault::DegradedLink { at, duration, .. } => {
                t > at + duration && detection.is_some()
            }
            Fault::FlakyLink { at, duration, .. } => {
                t > at + duration
                    && (!self.attr.degrade_applied.contains_key(&i) || detection.is_some())
            }
            Fault::SiteOutage { site, down_for, .. } => {
                let quarantined = self.seen.site_quarantine.contains(SiteId(*site));
                match down_for {
                    // A permanent site crash is absorbed when it was
                    // detected, the site ended quarantined, and no task
                    // was lost with it.
                    None => tasks_failed == 0 && detection.is_some() && quarantined,
                    // A transient outage is absorbed when the site was
                    // re-admitted to the federation.
                    Some(_) => !quarantined,
                }
            }
            Fault::SitePartition { at, duration, .. } => {
                t > at + duration && detection.is_some() && tasks_failed == 0
            }
        }
    }
}

fn site_ids(group: &[u16]) -> Vec<SiteId> {
    group.iter().map(|s| SiteId(*s)).collect()
}
