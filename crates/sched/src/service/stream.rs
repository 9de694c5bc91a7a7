//! The streaming admission + scheduling service.
//!
//! Batch VDCE is one AFG in, one placement table out. [`StreamService`]
//! is the long-running broker in front of that scheduler: it absorbs a
//! continuous stream of AFG submissions from many tenants and turns
//! every arrival and completion into an *incremental* scheduling event.
//!
//! ## Event loop
//!
//! The service is a deterministic discrete-event machine over logical
//! time. Events — submission arrivals, run completions, host state
//! changes — are totally ordered by `(time, sequence)`; processing one
//! event may mutate per-host load or status, and every mutation is
//! funnelled through the same path:
//!
//! 1. the affected site's [`SiteView`] takes the change in place and
//!    its host-selection output is recomputed (only for submissions
//!    whose domain includes that site);
//! 2. each pending submission absorbs the new outputs through
//!    [`IncrementalSchedule::apply`] — re-placing only its affected
//!    ready set, exactly the `O(changed)` path the monitor events use (a
//!    failed `apply` drops the schedule until a refresh places it again);
//! 3. the dispatcher starts, in one weighted-fair pass, as many pending
//!    submissions as capacity allows.
//!
//! An admitted submission is one record (`Admitted`) for the rest of its
//! life: it waits in the pending queue beside its placement (whose
//! schedule keeps the outputs it was placed from), moves whole into a run
//! when dispatched, and moves back into the queue if a host failure
//! restarts that run. A tenant's in-flight count is its admitted minus
//! its completed submissions.
//!
//! ## Admission
//!
//! An arrival is authenticated against the tenant registry (the
//! paper's 5-tuple), quota-checked (over-quota arrivals are deferred a
//! bounded number of times, then rejected), trial-placed with the real
//! scheduler, and judged by the Nimrod/G-style deadline-and-budget
//! broker (`service::broker`). Admitted submissions are never dropped:
//! a host failure mid-run restarts the run (counted, never lost), and
//! an infeasible pending submission waits for capacity to return.
//!
//! ## Fairness
//!
//! The pending queue orders on *effective* priority — the account's
//! base priority plus the aging boost (`service::aging`). A fully aged
//! submission is **urgent**: the dispatcher will not backfill younger
//! work past it, so its wait is bounded by the aging ramp plus the
//! drain of running work (which the broker's makespan cap bounds).
//!
//! State: [`StreamService::new`] reads each site's repository once, into
//! a view the service owns and alone writes; a caller's clone of a
//! repository handle does not see the service's samples or host states.
//!
//! Load feedback: a dispatched run bumps its hosts' workload samples in
//! its site's view, and prediction inflates linearly with smoothed
//! workload — so the next arrival's host selection steers around busy
//! hosts. Completion decays the same samples. Pricing is scoped to a
//! site's loads: beside each site's view the service keeps its host-side
//! terms, filled by the first admission that needs them and dropped at
//! the site's next load sample, so an arrival prices only the sites
//! whose loads changed since the last one. A submission already in the
//! queue keeps the prices of its admission: it holds the pricing of every
//! view it was admitted under and is re-selected through it, so while it
//! waits only host up/down edges move it. A host that was down at its
//! admission is priced at the first re-selection that finds it up, into
//! the submission's own copy of that table, by the fill-on-miss an
//! admission uses (see `PendingSub::memo`).
//! Execution itself is simulated (predicted makespan under the network
//! model): the service models scheduling and queueing dynamics, not
//! kernel execution.

use crate::allocation::TaskPlacement;
use crate::classes::TaskClasses;
use crate::host_selection::{select_priced, HostSelectionOutput, HostSide, SelectScratch};
use crate::incremental::IncrementalSchedule;
use crate::makespan::evaluate;
use crate::service::aging::AgingPolicy;
use crate::service::broker::{estimate_cost, BrokerDecision, BrokerPolicy, RejectReason};
use crate::service::tenant::{Quota, TenantRegistry};
use crate::site_scheduler::SchedError;
use crate::view::SiteView;
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::Arc;
use vdce_afg::Afg;
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_net::TransferCache;
use vdce_obs::MetricsRegistry;
use vdce_predict::cache::{FxMap, TermTable};
use vdce_predict::model::{HostTerm, Predictor};
use vdce_predict::parallel::ParallelModel;
use vdce_repository::accounts::{AccessDomain, AuthError, UserId};
use vdce_repository::resources::{HostStatus, ResourceRecord};
use vdce_repository::{SiteRepository, TaskPerfDb};
use vdce_store::Fnv1a;

/// Identifier of one submission, assigned by the service in arrival
/// order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct SubmissionId(pub u64);

impl fmt::Display for SubmissionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// One submission as it enters the service.
#[derive(Debug, Clone)]
pub struct SubmissionRequest {
    /// The authenticated tenant (the 5-tuple's user id).
    pub tenant: UserId,
    /// The application flow graph to place and run.
    pub afg: Arc<Afg>,
    /// Absolute logical-time deadline.
    pub deadline_s: f64,
    /// Budget in broker cost units (CPU-seconds × cost rate).
    pub budget: f64,
}

/// Concurrent runs a site sustains per host: its slot capacity is
/// `hosts × SLOTS_PER_HOST`.
const SLOTS_PER_HOST: u32 = 1;
/// Delay before an over-quota arrival is retried.
const DEFER_DELAY_S: f64 = 2.0;
/// Retries an over-quota arrival gets before it is rejected.
const MAX_DEFERS: u32 = 3;

/// Service knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Neighbour-site count for `AccessDomain::Neighbours` tenants.
    pub k_neighbours: usize,
    /// Anti-starvation aging policy.
    pub aging: AgingPolicy,
    /// Deadline-and-budget admission policy.
    pub broker: BrokerPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            k_neighbours: 3,
            aging: AgingPolicy::default(),
            broker: BrokerPolicy::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// What happens at an event's instant. An arrival carries its request
/// and how many times it has been deferred so far.
#[derive(Debug, Clone)]
enum EventKind {
    Arrival { id: SubmissionId, req: SubmissionRequest, defers: u32 },
    Completion { run: SubmissionId, generation: u32 },
    Host { site: SiteId, host: String, status: HostStatus },
}

/// Heap entry: total order on (logical time, sequence).
#[derive(Debug, Clone)]
struct QueuedEvent {
    t: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.t.total_cmp(&other.t).then(self.seq.cmp(&other.seq))
    }
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

/// An admitted submission: the record that moves whole from the pending
/// queue into a run and, on a fault restart, back.
struct Admitted {
    req: SubmissionRequest,
    arrival_s: f64,
    base_priority: u8,
    /// Sites this tenant's domain may use (local first, then by
    /// distance) — the fixed site order of its outputs.
    sites: Arc<[SiteId]>,
    /// Level of every task on the front-end site's base-processor
    /// costs, computed once at admission: they read only the
    /// task-performance database, which the service never writes.
    levels: Vec<f64>,
    /// Dispatch generation the next start will run as: 0 on first
    /// admission, incremented by every fault restart so the victim's
    /// stale in-flight completion event cannot complete the re-run.
    generation: u32,
}

/// An admitted submission waiting for capacity.
struct PendingSub {
    sub: Admitted,
    /// Its AFG's task classes, indexed once when it entered the queue:
    /// every re-selection of this submission runs over them.
    classes: TaskClasses,
    /// The prices of its admission: the pricing of each view it was
    /// admitted under, shared with that view's other admissions until a
    /// re-selection prices what none of them did and copies it. Every
    /// re-selection of this submission goes through it, so while it waits
    /// it stays priced at the host loads it was admitted under; it is
    /// dropped with the submission's place in the queue (dispatch, or a
    /// fault restart, which is a fresh admission).
    memo: AdmissionPrices,
    /// Current incremental placement, which also holds the per-site
    /// outputs it was placed from (parallel to `sub.sites`); `None` while
    /// infeasible (every candidate host of some task down).
    inc: Option<IncrementalSchedule>,
}

/// The prices a queued submission was admitted at.
struct AdmissionPrices {
    /// Per eligibility group of its AFG, its library task's row in every
    /// term table (`StreamService::task_rows`).
    rows: Box<[u32]>,
    /// Per site of its domain, in `Admitted::sites` order, the pricing of
    /// the view its admission selected under. A shared table is never
    /// written through: a later admission under the same view that adds a
    /// term copies it, and so does this submission's first refresh that
    /// prices a host down at admission, which keeps that price for it
    /// alone.
    shared: Vec<Arc<TermTable>>,
}

/// One site as the service holds it: its view, written by the service
/// alone, the view's pricing, its hosts' one-host lists, and its load. The
/// service never adds or removes a host, so the view lists the same hosts
/// in the same order for the service's life and a term table of one load
/// state indexes the hosts of the next.
struct Site {
    view: SiteView,
    /// The host-side terms of `view` at its current loads, filled by the
    /// admissions that select under it: a site's prices stay fixed until
    /// its next load sample, so every admission in between shares them.
    prices: Arc<TermTable>,
    /// `[host]` for each host of `view`, in view order: every singleton
    /// choice of a host at this site shares its list.
    lists: Box<[Arc<[String]>]>,
    /// Concurrent runs the site sustains: `hosts × SLOTS_PER_HOST`.
    capacity: u32,
    /// Runs charged a slot here.
    inflight: u32,
    /// Running tasks per host.
    host_inflight: BTreeMap<String, u32>,
}

impl Site {
    fn new(view: SiteView) -> Self {
        let hosts = view.resources.len();
        let prices = Arc::new(TermTable::new(hosts));
        let lists = view.resources.iter().map(|h| Arc::from([h.host_name.clone()])).collect();
        let capacity = hosts as u32 * SLOTS_PER_HOST;
        Site { view, prices, lists, capacity, inflight: 0, host_inflight: BTreeMap::new() }
    }

    /// Add `delta` running tasks to `host`'s load, record the new level as
    /// its workload sample, and drop the prices of the old one.
    fn bump(&mut self, host: &str, delta: i64) {
        let bumped = |n: u32| (i64::from(n) + delta).max(0) as u32;
        let n = match self.host_inflight.get_mut(host) {
            Some(n) => {
                *n = bumped(*n);
                *n
            }
            // A host's first bump is the only one that copies its name.
            None => {
                self.host_inflight.insert(host.to_string(), bumped(0));
                bumped(0)
            }
        };
        let db = &mut self.view.resources;
        let mem = db.get(host).map(|r| r.available_memory).unwrap_or(0);
        db.record_sample(host, f64::from(n), mem);
        self.prices = Arc::new(TermTable::new(db.len()));
    }
}

/// A selection's host side at one site: its terms, filled on a miss, from
/// the current view's pricing for an admission and from a queued
/// submission's admission pricing for its re-selection (a table shared
/// with another holder is copied on its first miss), and the site's
/// one-host lists.
struct AdmitTerms<'a> {
    prices: &'a mut Arc<TermTable>,
    rows: &'a [u32],
    lists: &'a [Arc<[String]>],
    predictor: &'a Predictor,
    tasks: &'a TaskPerfDb,
}

impl<'t> HostSide<'t> for AdmitTerms<'_> {
    type Row = (usize, &'t str);
    fn row(&mut self, group: usize, task: &'t str) -> Self::Row {
        (self.rows[group] as usize, task)
    }
    fn term(&mut self, row: Self::Row, pos: usize, host: &ResourceRecord) -> HostTerm {
        match self.prices.get(row.0, pos) {
            Some(term) => term,
            None => Arc::make_mut(self.prices).term(self.predictor, self.tasks, row, pos, host),
        }
    }
    fn host_list(&mut self, pos: usize) -> Arc<[String]> {
        self.lists[pos].clone()
    }
}

/// A dispatched run occupying capacity until its completion event.
struct ActiveRun {
    sub: Admitted,
    /// Every site the placement touches — each one was charged a slot
    /// at dispatch and is released on completion or restart.
    charged: Vec<SiteId>,
    hosts: Vec<(SiteId, String)>,
    finish_s: f64,
}

#[derive(Default)]
struct TenantCounters {
    priority: u8,
    submitted: u64,
    admitted: u64,
    completed: u64,
    restarts: u64,
    deadline_met: u64,
    max_wait_s: f64,
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// Per-tenant outcome row of a [`StreamReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantRow {
    /// Tenant id (the 5-tuple's numeric user id).
    pub tenant: u32,
    /// Base priority from the account record.
    pub priority: u8,
    /// Arrivals submitted on this account.
    pub submitted: u64,
    /// Arrivals the broker admitted.
    pub admitted: u64,
    /// Runs completed.
    pub completed: u64,
    /// Mid-run restarts caused by host failures.
    pub restarts: u64,
    /// Completions that met their deadline.
    pub deadline_met: u64,
    /// Longest observed wait from arrival to dispatch, seconds.
    pub max_wait_s: f64,
    /// The aging starvation bound for this tenant's priority.
    pub wait_bound_s: f64,
    /// Did any wait exceed the bound? (A CI-gate failure.)
    pub starved: bool,
}

/// Deterministic outcome of draining a [`StreamService`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Logical time of the last processed event.
    pub horizon_s: f64,
    /// Events processed.
    pub events: u64,
    /// Arrivals submitted.
    pub submitted: u64,
    /// Arrivals admitted by the broker.
    pub admitted: u64,
    /// Defer round-trips taken by over-quota arrivals.
    pub deferred: u64,
    /// Runs completed.
    pub completed: u64,
    /// Mid-run restarts caused by host failures (work preserved).
    pub restarts: u64,
    /// Completions that met their deadline.
    pub deadline_met: u64,
    /// Admitted submissions still pending at drain (feasible only when
    /// their resources never returned).
    pub unplaced: u64,
    /// Rejections by broker reason label, name-sorted.
    pub rejected: Vec<(String, u64)>,
    /// Median time-to-placement (arrival → dispatch), seconds.
    pub ttp_p50_s: f64,
    /// 99th-percentile time-to-placement, seconds.
    pub ttp_p99_s: f64,
    /// Worst time-to-placement, seconds.
    pub ttp_max_s: f64,
    /// FNV-1a digest over every dispatch and completion (submission,
    /// placements, times) — the bit-identity fingerprint two replays of
    /// the same trace must agree on.
    pub placements_digest: u64,
    /// Tenants whose max wait exceeded their aging bound.
    pub starved_tenants: u64,
    /// Per-tenant rows, tenant-id order.
    pub tenants: Vec<TenantRow>,
}

impl StreamReport {
    /// Broker conservation invariant: every admitted submission is
    /// either completed or accounted as unplaced at drain. A `false`
    /// here means the service lost an admitted task outright.
    pub fn conservation_ok(&self) -> bool {
        self.admitted == self.completed + self.unplaced
    }

    /// Admitted submissions the drain cannot account for (zero when
    /// [`conservation_ok`](Self::conservation_ok) holds).
    pub fn lost_admitted(&self) -> u64 {
        self.admitted.saturating_sub(self.completed + self.unplaced)
    }

    /// The starved tenant furthest past its aging bound, as
    /// `(tenant, excess seconds)` — the starvation-invariant probe the
    /// fuzzer reports when `starved_tenants > 0`.
    pub fn worst_wait_excess(&self) -> Option<(u32, f64)> {
        self.tenants
            .iter()
            .filter(|t| t.starved)
            .map(|t| (t.tenant, t.max_wait_s - t.wait_bound_s))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// The streaming multi-tenant scheduler service. See the module docs.
pub struct StreamService {
    cfg: ServiceConfig,
    /// Index = site id; site 0 is the front end.
    sites: Vec<Site>,
    net: NetworkModel,
    /// The link table of `net`, built once and shared by every placement:
    /// the model is fixed for the service's life.
    links: Arc<TransferCache>,
    /// The sites of each access domain, local first, then by distance:
    /// `LocalSite`, `Neighbours`, `Global`. The network model is fixed for
    /// the service's life, so they are ranked once.
    domains: [Arc<[SiteId]>; 3],
    tenants: TenantRegistry,
    predictor: Predictor,
    parallel: ParallelModel,
    /// The scratch of every host selection the service runs.
    scratch: SelectScratch,

    clock: f64,
    next_seq: u64,
    next_submission: u64,
    events: BinaryHeap<Reverse<QueuedEvent>>,
    pending: BTreeMap<SubmissionId, PendingSub>,
    active: BTreeMap<SubmissionId, ActiveRun>,

    /// The term-table row of each library task an admission has met: one
    /// numbering for every table.
    task_rows: FxMap<String, u32>,

    events_processed: u64,
    deferred: u64,
    restarts: u64,
    rejected: BTreeMap<&'static str, u64>,
    ttp: Vec<f64>,
    digest: Fnv1a,
    counters: BTreeMap<UserId, TenantCounters>,
}

impl StreamService {
    /// Service over `repos` (index = site id; site 0 is the front end)
    /// connected by `net`. Each repository is read once, into the view
    /// the service owns from then on (see the module docs).
    pub fn new(repos: Vec<SiteRepository>, net: NetworkModel, cfg: ServiceConfig) -> Self {
        assert!(!repos.is_empty(), "a federation needs at least the local site");
        let sites: Vec<Site> = repos
            .iter()
            .enumerate()
            .map(|(i, repo)| Site::new(SiteView::capture(SiteId(i as u16), repo)))
            .collect();
        let n = sites.len();
        let local = SiteId(0);
        let domain = |k: usize| -> Arc<[SiteId]> {
            std::iter::once(local).chain(net.nearest_neighbours(local, k)).collect()
        };
        let domains = [domain(0), domain(cfg.k_neighbours), domain(n - 1)];
        let links = Arc::new(TransferCache::new(&net));
        StreamService {
            cfg,
            sites,
            net,
            links,
            domains,
            tenants: TenantRegistry::new(),
            predictor: Predictor::default(),
            parallel: ParallelModel::default(),
            scratch: SelectScratch::default(),
            clock: 0.0,
            next_seq: 0,
            next_submission: 0,
            events: BinaryHeap::new(),
            pending: BTreeMap::new(),
            active: BTreeMap::new(),
            task_rows: FxMap::default(),
            events_processed: 0,
            deferred: 0,
            restarts: 0,
            rejected: BTreeMap::new(),
            ttp: Vec::new(),
            digest: Fnv1a::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Register a tenant account (5-tuple + quota). See
    /// `TenantRegistry::register`.
    pub fn register_tenant(
        &mut self,
        user_name: &str,
        password: &str,
        priority: u8,
        domain: AccessDomain,
        quota: Quota,
    ) -> Result<UserId, AuthError> {
        self.tenants.register(user_name, password, priority, domain, quota)
    }

    /// The tenant registry (authentication happens against this).
    pub fn tenants(&self) -> &TenantRegistry {
        &self.tenants
    }

    /// Admitted-but-unstarted submissions.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Currently running submissions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    fn push_event(&mut self, t: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(QueuedEvent { t: t.max(self.clock), seq, kind }));
    }

    /// Enqueue a submission arriving at logical time `t`.
    pub fn submit_at(&mut self, t: f64, req: SubmissionRequest) -> SubmissionId {
        let id = SubmissionId(self.next_submission);
        self.next_submission += 1;
        self.push_event(t, EventKind::Arrival { id, req, defers: 0 });
        id
    }

    /// Inject a host failure at logical time `t` (a monitor down event;
    /// the host stays down until [`StreamService::inject_host_up_at`]).
    pub fn inject_host_down_at(&mut self, t: f64, site: SiteId, host: &str) {
        let host = host.to_string();
        self.push_event(t, EventKind::Host { site, host, status: HostStatus::Down });
    }

    /// Inject a host recovery at logical time `t`.
    pub fn inject_host_up_at(&mut self, t: f64, site: SiteId, host: &str) {
        let host = host.to_string();
        self.push_event(t, EventKind::Host { site, host, status: HostStatus::Up });
    }

    // -- views and outputs --------------------------------------------

    fn domain_sites(&self, domain: AccessDomain) -> Arc<[SiteId]> {
        let i = match domain {
            AccessDomain::LocalSite => 0,
            AccessDomain::Neighbours => 1,
            AccessDomain::Global => 2,
        };
        self.domains[i].clone()
    }

    /// The term-table row of library task `task`.
    fn task_row(&mut self, task: &str) -> u32 {
        if let Some(&row) = self.task_rows.get(task) {
            return row;
        }
        let row = self.task_rows.len() as u32;
        self.task_rows.insert(task.to_string(), row);
        row
    }

    /// Host selection for queued `p` at `p.sub.sites[at]`, a changed site,
    /// in `scratch`: the current view, priced as `p` was admitted.
    fn reselect(
        &self,
        p: &mut PendingSub,
        at: usize,
        scratch: &mut SelectScratch,
    ) -> HostSelectionOutput {
        let Site { view, lists, .. } = &self.sites[p.sub.sites[at].index()];
        let AdmissionPrices { rows, shared } = &mut p.memo;
        let (prices, predictor) = (&mut shared[at], &self.predictor);
        let terms = AdmitTerms { prices, rows, lists, predictor, tasks: &view.tasks };
        let (afg, classes, parallel) = (&p.sub.req.afg, &mut p.classes, &self.parallel);
        select_priced(view, afg, classes, predictor, parallel, terms, scratch)
    }

    /// The incremental placement of `afg` over per-site `outputs`.
    fn schedule(
        &self,
        afg: &Afg,
        outputs: Vec<HostSelectionOutput>,
    ) -> Result<IncrementalSchedule, SchedError> {
        IncrementalSchedule::with_links(afg, SiteId(0), outputs, self.links.clone(), false)
    }

    /// What a submission enters the queue with, on admission and on a
    /// fault restart, besides `classes` (the index of `afg`, which keeps
    /// the task-side costs this pass computes): host selection at each of
    /// `sites` through the current view's pricing, the placement over those
    /// outputs, and the prices it used.
    fn place(
        &mut self,
        afg: &Afg,
        classes: &mut TaskClasses,
        sites: &[SiteId],
    ) -> (AdmissionPrices, Result<IncrementalSchedule, SchedError>) {
        let rows: Box<[u32]> = (classes.groups.iter())
            .map(|g| self.task_row(&afg.task(g.member).library_task))
            .collect();
        let mut shared = Vec::with_capacity(sites.len());
        let mut outputs = Vec::with_capacity(sites.len());
        let (predictor, parallel) = (&self.predictor, &self.parallel);
        for &site in sites {
            let Site { view, prices, lists, .. } = &mut self.sites[site.index()];
            let terms = AdmitTerms { prices, rows: &rows, lists, predictor, tasks: &view.tasks };
            let scratch = &mut self.scratch;
            outputs.push(select_priced(view, afg, classes, predictor, parallel, terms, scratch));
            shared.push(prices.clone());
        }
        (AdmissionPrices { rows, shared }, self.schedule(afg, outputs))
    }

    // -- admission ----------------------------------------------------

    /// The broker rejection label for a typed placement failure. The
    /// service holds no dataset catalog, so an AFG reading a dataset is
    /// `unknown_dataset`; anything else is the generic
    /// no-feasible-placement.
    fn reject_reason_for(err: &SchedError) -> RejectReason {
        match err {
            SchedError::UnknownDataset { .. } => RejectReason::UnknownDataset,
            _ => RejectReason::NoFeasiblePlacement,
        }
    }

    fn reject(&mut self, reason: RejectReason) {
        *self.rejected.entry(reason.label()).or_insert(0) += 1;
    }

    fn handle_arrival(&mut self, id: SubmissionId, req: SubmissionRequest, defers: u32) {
        let now = self.clock;
        let tenant = req.tenant;
        if defers == 0 {
            let acct_priority = self.tenants.account(tenant).map(|a| a.priority).unwrap_or(0);
            let c = self.counters.entry(tenant).or_default();
            c.submitted += 1;
            c.priority = acct_priority;
        }

        let Some(acct) = self.tenants.account(tenant) else {
            self.reject(RejectReason::UnknownTenant);
            return;
        };
        let (base_priority, domain) = (acct.priority, acct.domain);

        // Quota: defer a bounded number of times, then reject. Every
        // admitted submission is pending, running or completed, so the
        // counters give the tenant's in-flight count.
        let c = &self.counters[&tenant];
        if c.admitted - c.completed >= u64::from(self.tenants.quota(tenant).max_inflight) {
            if defers < MAX_DEFERS {
                self.deferred += 1;
                let retry = EventKind::Arrival { id, req, defers: defers + 1 };
                self.push_event(now + DEFER_DELAY_S, retry);
            } else {
                self.reject(RejectReason::QuotaExhausted);
            }
            return;
        }

        // Trial placement with the real scheduler.
        let sites = self.domain_sites(domain);
        let mut classes = TaskClasses::new(&req.afg);
        let (memo, inc) = self.place(&req.afg, &mut classes, &sites);
        let inc = match inc {
            Ok(inc) => inc,
            Err(e) => {
                self.reject(Self::reject_reason_for(&e));
                return;
            }
        };

        // Broker verdict on the trial placement.
        let levels = classes
            .levels(&self.sites[0].view, &req.afg, &req.afg.edge_index())
            .expect("submissions are validated acyclic AFGs");
        let Ok(sched) = evaluate(&req.afg, inc.table(), &self.net, &levels, None) else {
            self.reject(RejectReason::NoFeasiblePlacement);
            return;
        };
        let est_cost = estimate_cost(inc.table(), SiteId(0), &self.cfg.broker);
        let decision =
            self.cfg.broker.decide(now, req.deadline_s, req.budget, sched.makespan, est_cost);
        if let BrokerDecision::Reject(reason) = decision {
            self.reject(reason);
            return;
        }

        self.counters.entry(tenant).or_default().admitted += 1;
        let sub = Admitted { req, arrival_s: now, base_priority, sites, levels, generation: 0 };
        self.pending.insert(id, PendingSub { sub, classes, memo, inc: Some(inc) });
        self.settle(BTreeSet::new());
    }

    // -- dispatch -----------------------------------------------------

    /// Start every dispatchable pending submission, weighted-fair order.
    /// Returns the sites whose load changed.
    fn dispatch(&mut self) -> BTreeSet<SiteId> {
        let mut changed = BTreeSet::new();
        let now = self.clock;
        // Order: effective priority desc, then earliest deadline,
        // then submission id — all exact integers or fixed floats,
        // so the sort is replay-stable. One pass: pending placements
        // don't change between starts (refresh_pending runs after
        // dispatch returns), and a start only takes slots, so a candidate
        // that does not fit now does not fit later in this call.
        struct Cand {
            eff: u32,
            deadline_bits: u64,
            id: SubmissionId,
            urgent: bool,
        }
        let mut cands: Vec<Cand> = self
            .pending
            .iter()
            .filter(|(_, p)| p.inc.is_some())
            .map(|(&id, p)| {
                let (prio, waited) = (p.sub.base_priority, now - p.sub.arrival_s);
                Cand {
                    eff: self.cfg.aging.effective_priority(prio, waited),
                    deadline_bits: p.sub.req.deadline_s.to_bits(),
                    id,
                    urgent: self.cfg.aging.is_urgent(prio, waited),
                }
            })
            .collect();
        cands.sort_by(|a, b| {
            b.eff.cmp(&a.eff).then(a.deadline_bits.cmp(&b.deadline_bits)).then(a.id.cmp(&b.id))
        });
        let mut urgent_left = cands.iter().filter(|c| c.urgent).count();
        for c in cands {
            if urgent_left > 0 && !c.urgent {
                // No backfill past fully aged work: younger submissions
                // wait until every urgent one has started. This is what
                // makes the starvation bound hold.
                break;
            }
            // A placement consumes one slot on *every* site it touches,
            // so the site of every row must have room.
            let inc = self.pending[&c.id].inc.as_ref().expect("candidates are placed");
            let site = |p: &TaskPlacement| &self.sites[p.site.index()];
            if inc.table().iter().map(site).all(|s| s.inflight < s.capacity) {
                urgent_left -= usize::from(c.urgent);
                self.start_run(c.id, &mut changed);
            }
        }
        changed
    }

    /// Start pending `id`, charging a slot at each distinct site its
    /// placement touches.
    fn start_run(&mut self, id: SubmissionId, changed: &mut BTreeSet<SiteId>) {
        let p = self.pending.remove(&id).expect("dispatch picked a pending id");
        let (sub, inc) = (p.sub, p.inc.expect("dispatch only picks feasible submissions"));
        let charged = inc.table().sites_used();
        let now = self.clock;

        // Timing: simulate the table as-is (before this run's own load
        // feedback — its predictions already include everyone else's).
        let sched = evaluate(&sub.req.afg, inc.table(), &self.net, &sub.levels, None)
            .expect("placed submissions evaluate");
        let finish = now + sched.makespan;

        let wait = now - sub.arrival_s;
        self.ttp.push(wait);
        let c = self.counters.entry(sub.req.tenant).or_default();
        c.max_wait_s = c.max_wait_s.max(wait);

        // Digest: dispatch decision, placement by placement.
        self.digest.update(b"dispatch");
        self.digest.update(&id.0.to_le_bytes());
        self.digest.update(&now.to_bits().to_le_bytes());
        self.digest.update(&finish.to_bits().to_le_bytes());
        let mut hosts: BTreeSet<(SiteId, String)> = BTreeSet::new();
        for pl in inc.table().iter() {
            self.digest.update(&pl.task.0.to_le_bytes());
            self.digest.update(&pl.site.0.to_le_bytes());
            self.digest.update(&pl.predicted_seconds.to_bits().to_le_bytes());
            for h in pl.hosts.iter() {
                self.digest.update(h.as_bytes());
                hosts.insert((pl.site, h.clone()));
            }
        }

        for site in &charged {
            self.sites[site.index()].inflight += 1;
        }
        let hosts: Vec<(SiteId, String)> = hosts.into_iter().collect();
        for (site, host) in &hosts {
            self.sites[site.index()].bump(host, 1);
            changed.insert(*site);
        }

        // The run's generation tags its completion event, so a restarted
        // run's stale completion can never complete the re-run early.
        let generation = sub.generation;
        self.push_event(finish, EventKind::Completion { run: id, generation });
        self.active.insert(id, ActiveRun { sub, charged, hosts, finish_s: finish });
    }

    /// Give back a finished or restarted run's slot on every site it was
    /// charged and its load on every host it held; those hosts' sites
    /// join `changed`.
    fn release(&mut self, run: &ActiveRun, changed: &mut BTreeSet<SiteId>) {
        for site in &run.charged {
            self.sites[site.index()].inflight -= 1;
        }
        for (site, host) in &run.hosts {
            self.sites[site.index()].bump(host, -1);
            changed.insert(*site);
        }
    }

    // -- incremental refresh ------------------------------------------

    /// Recompute host selection for `changed` sites and let every
    /// affected pending submission absorb the delta in O(changed) via
    /// [`IncrementalSchedule::apply`].
    fn refresh_pending(&mut self, changed: &BTreeSet<SiteId>) {
        if changed.is_empty() {
            return;
        }
        // Out of `self` while it is walked, so each entry can be
        // re-selected through `&self`.
        let (mut pending, mut scratch) =
            (std::mem::take(&mut self.pending), std::mem::take(&mut self.scratch));
        for p in pending.values_mut() {
            if !p.sub.sites.iter().any(|s| changed.contains(s)) {
                continue;
            }
            // An infeasible submission keeps no outputs: it is re-selected
            // at every site, and an unchanged site answers as before.
            let outputs: Vec<HostSelectionOutput> = (0..p.sub.sites.len())
                .map(|at| match p.inc.as_ref().filter(|_| !changed.contains(&p.sub.sites[at])) {
                    // Unchanged site: the same table again (a pointer
                    // bump), which the apply diff skips.
                    Some(inc) => inc.outputs()[at].clone(),
                    None => self.reselect(p, at, &mut scratch),
                })
                .collect();
            let afg = &p.sub.req.afg;
            // A failed `apply` leaves a task with no choice at any site, so
            // a rebuild from the same outputs would fail too: the poisoned
            // schedule is dropped and the submission waits as infeasible.
            p.inc = match p.inc.take() {
                Some(mut inc) => inc.apply(afg, outputs).ok().map(|_| inc),
                None => self.schedule(afg, outputs).ok(),
            };
        }
        (self.pending, self.scratch) = (pending, scratch);
    }

    /// The tail of every event that admits, frees or moves capacity: the
    /// queue absorbs the changes at `changed`, the dispatcher starts what
    /// now fits, and the queue absorbs the loads those starts added.
    fn settle(&mut self, changed: BTreeSet<SiteId>) {
        self.refresh_pending(&changed);
        let started = self.dispatch();
        self.refresh_pending(&started);
    }

    // -- completions and faults ---------------------------------------

    fn handle_completion(&mut self, run: SubmissionId, generation: u32) {
        // A generation this run has moved past: the completion of a run
        // a fault restarted.
        if self.active.get(&run).is_none_or(|a| a.sub.generation != generation) {
            return;
        }
        let a = self.active.remove(&run).expect("checked above");
        let mut changed = BTreeSet::new();
        self.release(&a, &mut changed);
        self.digest.update(b"complete");
        self.digest.update(&run.0.to_le_bytes());
        self.digest.update(&a.finish_s.to_bits().to_le_bytes());
        {
            let c = self.counters.entry(a.sub.req.tenant).or_default();
            c.completed += 1;
            if a.finish_s <= a.sub.req.deadline_s {
                c.deadline_met += 1;
            }
        }
        self.settle(changed);
    }

    fn handle_host_status(&mut self, site: SiteId, host: &str, status: HostStatus) {
        // The site's prices stay: a host term reads the host's speed,
        // measured rates and smoothed workload, never its status.
        self.sites[site.index()].view.resources.set_status(host, status);
        let mut changed = BTreeSet::from([site]);

        // A host going down restarts every run that used it: free its
        // capacity and re-enter the pending queue with the *original*
        // arrival time, so the aging credit (and thus the starvation
        // bound) survives the fault. Admitted work is never lost.
        let victims: Vec<SubmissionId> = match status {
            HostStatus::Up => Vec::new(),
            HostStatus::Down => self
                .active
                .iter()
                .filter(|(_, a)| a.hosts.iter().any(|(s, h)| *s == site && h == host))
                .map(|(&id, _)| id)
                .collect(),
        };
        for id in victims {
            let run = self.active.remove(&id).expect("listed above");
            self.release(&run, &mut changed);
            self.restarts += 1;
            self.counters.entry(run.sub.req.tenant).or_default().restarts += 1;
            self.digest.update(b"restart");
            self.digest.update(&id.0.to_le_bytes());
            let mut sub = run.sub;
            // Bumped past the victim's dispatch generation so the old
            // run's in-flight completion event goes stale the moment
            // this re-dispatches.
            sub.generation += 1;
            let mut classes = TaskClasses::new(&sub.req.afg);
            let (memo, inc) = self.place(&sub.req.afg, &mut classes, &sub.sites);
            self.pending.insert(id, PendingSub { sub, classes, memo, inc: inc.ok() });
        }
        self.settle(changed);
    }

    // -- the loop -----------------------------------------------------

    fn process(&mut self, ev: QueuedEvent) {
        debug_assert!(ev.t >= self.clock, "logical time must be monotonic");
        self.clock = ev.t.max(self.clock);
        self.events_processed += 1;
        match ev.kind {
            EventKind::Arrival { id, req, defers } => self.handle_arrival(id, req, defers),
            EventKind::Completion { run, generation } => self.handle_completion(run, generation),
            EventKind::Host { site, host, status } => self.handle_host_status(site, &host, status),
        }
    }

    /// Process every queued event in logical-time order. Returns the
    /// deterministic outcome report.
    pub fn drain(&mut self) -> StreamReport {
        while let Some(Reverse(ev)) = self.events.pop() {
            self.process(ev);
        }
        self.report()
    }

    /// Process queued events up to and including logical time `t`,
    /// leaving later events queued — for harnesses and tests that need
    /// to observe mid-trace state; [`StreamService::drain`] finishes
    /// the rest.
    pub fn run_until(&mut self, t: f64) {
        while self.events.peek().is_some_and(|Reverse(ev)| ev.t <= t) {
            let Reverse(ev) = self.events.pop().expect("peeked above");
            self.process(ev);
        }
    }

    /// The outcome report for the events processed so far.
    fn report(&self) -> StreamReport {
        let mut ttp = self.ttp.clone();
        ttp.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            if ttp.is_empty() {
                return 0.0;
            }
            // Nearest-rank on the (len-1)-scaled index: round, don't
            // ceil — ceil makes p50 of two samples the maximum.
            let idx = ((ttp.len() - 1) as f64 * q).round() as usize;
            ttp[idx.min(ttp.len() - 1)]
        };
        let mut tenants: Vec<TenantRow> = Vec::with_capacity(self.counters.len());
        let mut starved_tenants = 0u64;
        for (&id, c) in &self.counters {
            // A submission still waiting at drain has an open wait;
            // fold it into the tenant's maximum so starvation cannot
            // hide behind "never dispatched".
            let mut max_wait = c.max_wait_s;
            for p in self.pending.values().filter(|p| p.sub.req.tenant == id) {
                max_wait = max_wait.max(self.clock - p.sub.arrival_s);
            }
            let bound =
                self.cfg.aging.starvation_bound_s(c.priority, self.cfg.broker.max_makespan_s);
            let starved = max_wait > bound;
            if starved {
                starved_tenants += 1;
            }
            tenants.push(TenantRow {
                tenant: id.0,
                priority: c.priority,
                submitted: c.submitted,
                admitted: c.admitted,
                completed: c.completed,
                restarts: c.restarts,
                deadline_met: c.deadline_met,
                max_wait_s: max_wait,
                wait_bound_s: bound,
                starved,
            });
        }
        StreamReport {
            horizon_s: self.clock,
            events: self.events_processed,
            submitted: self.counters.values().map(|c| c.submitted).sum(),
            admitted: self.counters.values().map(|c| c.admitted).sum(),
            deferred: self.deferred,
            completed: self.counters.values().map(|c| c.completed).sum(),
            restarts: self.restarts,
            deadline_met: self.counters.values().map(|c| c.deadline_met).sum(),
            unplaced: self.pending.len() as u64,
            rejected: self.rejected.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            ttp_p50_s: pct(0.50),
            ttp_p99_s: pct(0.99),
            ttp_max_s: ttp.last().copied().unwrap_or(0.0),
            placements_digest: self.digest.finish(),
            starved_tenants,
            tenants,
        }
    }

    /// Export service counters into an observability registry:
    /// service-wide totals plus per-priority-class aggregates (bounded
    /// cardinality however many tenants there are).
    pub fn export_metrics(&self, reg: &MetricsRegistry) {
        let report = self.report();
        reg.counter_add("stream.submitted", report.submitted);
        reg.counter_add("stream.admitted", report.admitted);
        reg.counter_add("stream.deferred", report.deferred);
        reg.counter_add("stream.completed", report.completed);
        reg.counter_add("stream.restarts", report.restarts);
        reg.counter_add("stream.deadline_met", report.deadline_met);
        reg.counter_add("stream.starved_tenants", report.starved_tenants);
        reg.gauge_set("stream.queue_depth", self.pending.len() as f64);
        reg.gauge_set("stream.ttp_p99_s", report.ttp_p99_s);
        for (reason, n) in &report.rejected {
            reg.counter_add(&format!("stream.rejected.{reason}"), *n);
        }
        const TTP_BOUNDS: [f64; 8] = [0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0];
        for w in &self.ttp {
            reg.observe("stream.time_to_placement_s", &TTP_BOUNDS, *w);
        }
        let mut by_class: BTreeMap<u8, (u64, u64, f64)> = BTreeMap::new();
        for row in &report.tenants {
            let e = by_class.entry(row.priority).or_insert((0, 0, 0.0));
            e.0 += row.submitted;
            e.1 += row.completed;
            e.2 = e.2.max(row.max_wait_s);
        }
        for (prio, (submitted, completed, max_wait)) in by_class {
            reg.counter_add(&format!("stream.class.p{prio}.submitted"), submitted);
            reg.counter_add(&format!("stream.class.p{prio}.completed"), completed);
            reg.gauge_set(&format!("stream.class.p{prio}.max_wait_s"), max_wait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_net::topology::SiteId;
    use vdce_repository::resources::ResourceRecord;

    fn repo(hosts: &[(&str, f64)]) -> SiteRepository {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for (name, speed) in hosts {
                db.upsert(ResourceRecord::new(
                    *name,
                    "10.0.0.1",
                    MachineType::LinuxPc,
                    *speed,
                    1,
                    1 << 30,
                    "g0",
                ));
            }
        });
        repo
    }

    fn chain_afg(n: u64) -> Arc<Afg> {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "src", n).unwrap();
        let m = b.add_task("Sort", "sort", n).unwrap();
        let k = b.add_task("Sink", "snk", n).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        Arc::new(b.build().unwrap())
    }

    fn service() -> StreamService {
        let repos = vec![repo(&[("l0", 1.0), ("l1", 2.0)]), repo(&[("r0", 3.0), ("r1", 0.5)])];
        let net = NetworkModel::with_defaults(2);
        StreamService::new(repos, net, ServiceConfig::default())
    }

    fn req(svc: &StreamService, tenant: UserId) -> SubmissionRequest {
        let _ = svc;
        SubmissionRequest { tenant, afg: chain_afg(10_000), deadline_s: 1e9, budget: f64::INFINITY }
    }

    #[test]
    fn dataset_failures_reject_with_typed_labels() {
        use vdce_afg::{DatasetId, IoSpec};
        // One Map task reading a dataset: the service holds no catalog,
        // so the read is unknown.
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("data", &lib);
        let m = b.add_task("Map", "m", 10_000).unwrap();
        b.set_input(m, 0, IoSpec::dataset(DatasetId(1))).unwrap();
        let afg = Arc::new(b.build().unwrap());
        let mut svc = service();
        let t =
            svc.register_tenant("eve", "pw", 5, AccessDomain::Global, Quota::default()).unwrap();
        svc.submit_at(
            0.0,
            SubmissionRequest { tenant: t, afg, deadline_s: 1e9, budget: f64::INFINITY },
        );
        let report = svc.drain();
        assert_eq!(report.rejected, vec![("unknown_dataset".to_string(), 1)]);
    }

    #[test]
    fn submit_place_complete_round_trip() {
        let mut svc = service();
        let t =
            svc.register_tenant("alice", "pw", 5, AccessDomain::Global, Quota::default()).unwrap();
        svc.submit_at(0.0, req(&svc, t));
        svc.submit_at(1.0, req(&svc, t));
        let report = svc.drain();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.admitted, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(report.unplaced, 0);
        assert_eq!(report.starved_tenants, 0);
        assert!(report.deadline_met == 2);
        assert_eq!(svc.active_count(), 0);
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let mut svc = service();
        svc.submit_at(0.0, req(&svc, UserId(42)));
        let report = svc.drain();
        assert_eq!(report.admitted, 0);
        assert_eq!(report.rejected, vec![("unknown_tenant".to_string(), 1)]);
    }

    #[test]
    fn budget_and_deadline_reject() {
        let mut svc = service();
        let t =
            svc.register_tenant("bob", "pw", 5, AccessDomain::Global, Quota::default()).unwrap();
        let mut tight_budget = req(&svc, t);
        tight_budget.budget = 1e-12;
        let mut tight_deadline = req(&svc, t);
        tight_deadline.deadline_s = 1e-12;
        svc.submit_at(0.0, tight_budget);
        svc.submit_at(0.0, tight_deadline);
        let report = svc.drain();
        assert_eq!(report.admitted, 0);
        let reasons: Vec<&str> = report.rejected.iter().map(|(r, _)| r.as_str()).collect();
        assert!(reasons.contains(&"over_budget"));
        assert!(reasons.contains(&"deadline_infeasible"));
    }

    #[test]
    fn quota_defers_then_rejects() {
        let mut svc = service();
        let t = svc
            .register_tenant("carol", "pw", 5, AccessDomain::Global, Quota { max_inflight: 1 })
            .unwrap();
        // Flood with simultaneous arrivals; quota 1 admits one at a
        // time, defers the rest, and rejects whoever runs out of
        // defers while the first still runs. Here every deferred
        // arrival gets in before its defers run out: six defers, no
        // rejection. An in-flight count that ignored completions would
        // admit one and reject three.
        for _ in 0..4 {
            svc.submit_at(0.0, req(&svc, t));
        }
        let report = svc.drain();
        assert_eq!(report.submitted, 4);
        assert_eq!((report.admitted, report.deferred, report.completed), (4, 6, 4));
        assert_eq!(report.rejected, vec![]);

        // The same flood behind a first submission that runs longer than
        // MAX_DEFERS retries DEFER_DELAY_S apart: each later arrival
        // uses up its defers while the first still runs, and is rejected.
        let mut svc = service();
        let t = svc
            .register_tenant("carol", "pw", 5, AccessDomain::Global, Quota { max_inflight: 1 })
            .unwrap();
        let long = SubmissionRequest { afg: chain_afg(10_000_000), ..req(&svc, t) };
        svc.submit_at(0.0, long);
        for _ in 0..3 {
            svc.submit_at(0.0, req(&svc, t));
        }
        let report = svc.drain();
        assert_eq!(report.submitted, 4);
        assert_eq!((report.admitted, report.deferred, report.completed), (1, 9, 1));
        assert_eq!(report.rejected, vec![("quota_exhausted".to_string(), 3)]);
        assert_eq!(report.unplaced, 0);
    }

    #[test]
    fn local_domain_places_only_locally() {
        let mut svc = service();
        let t =
            svc.register_tenant("dan", "pw", 5, AccessDomain::LocalSite, Quota::default()).unwrap();
        svc.submit_at(0.0, req(&svc, t));
        let report = svc.drain();
        assert_eq!(report.completed, 1);
        // The digest covers placements; a local-only domain must never
        // name a remote host. Cheaper check: rerun with remote site
        // removed entirely and the digest must match.
        let repos = vec![repo(&[("l0", 1.0), ("l1", 2.0)])];
        let net = NetworkModel::with_defaults(1);
        let mut solo = StreamService::new(repos, net, ServiceConfig::default());
        let t2 = solo
            .register_tenant("dan", "pw", 5, AccessDomain::LocalSite, Quota::default())
            .unwrap();
        assert_eq!(t2, t);
        solo.submit_at(0.0, req(&solo, t2));
        let solo_report = solo.drain();
        assert_eq!(solo_report.placements_digest, report.placements_digest);
    }

    #[test]
    fn host_failure_restarts_without_losing_work() {
        // One host total, so the run *must* be on it when it dies.
        let repos = vec![repo(&[("only", 1.0)])];
        let net = NetworkModel::with_defaults(1);
        let mut svc = StreamService::new(repos, net, ServiceConfig::default());
        let t =
            svc.register_tenant("eve", "pw", 5, AccessDomain::Global, Quota::default()).unwrap();
        svc.submit_at(0.0, req(&svc, t));
        // Same logical instant, later sequence: the arrival dispatches
        // first, then the host dies under the freshly started run.
        svc.inject_host_down_at(0.0, SiteId(0), "only");
        svc.inject_host_up_at(100.0, SiteId(0), "only");
        let report = svc.drain();
        assert_eq!(report.completed, 1, "admitted work survives the failure");
        assert_eq!(report.unplaced, 0);
        assert!(report.restarts >= 1, "the run on the dead host must restart");
    }

    #[test]
    fn restarted_run_ignores_stale_completion_event() {
        // Measure the no-fault makespan M of one submission on the
        // single host, so the fault run can place its outage inside
        // (0, M) and its recovery before M.
        let control_m = {
            let mut svc = StreamService::new(
                vec![repo(&[("only", 1.0)])],
                NetworkModel::with_defaults(1),
                ServiceConfig::default(),
            );
            let t = svc
                .register_tenant("fay", "pw", 5, AccessDomain::Global, Quota::default())
                .unwrap();
            svc.submit_at(0.0, req(&svc, t));
            svc.drain().horizon_s
        };
        assert!(control_m > 0.0);

        // Fault run: the host dies mid-run and recovers before the old
        // completion event (gen 0, still queued at time M) fires. The
        // restart re-dispatches at recovery with generation 1, so the
        // stale event must NOT complete it — the restart costs logical
        // time: the run finishes at dispatch_time + new makespan.
        let down = 0.25 * control_m;
        let up = 0.5 * control_m;
        let mut svc = StreamService::new(
            vec![repo(&[("only", 1.0)])],
            NetworkModel::with_defaults(1),
            ServiceConfig::default(),
        );
        let t =
            svc.register_tenant("fay", "pw", 5, AccessDomain::Global, Quota::default()).unwrap();
        svc.submit_at(0.0, req(&svc, t));
        svc.inject_host_down_at(down, SiteId(0), "only");
        svc.inject_host_up_at(up, SiteId(0), "only");

        svc.run_until(up);
        assert_eq!(svc.active_count(), 1, "restart re-dispatches at recovery");
        // Step past the old finish time: the gen-0 completion event has
        // fired and must have been discarded as stale.
        svc.run_until(control_m * 1.001);
        assert_eq!(
            svc.active_count(),
            1,
            "the pre-fault completion event must not complete the restarted run"
        );
        let report = svc.drain();
        assert_eq!(report.completed, 1);
        assert_eq!(report.restarts, 1);
        assert!(
            report.horizon_s >= up + 0.9 * control_m,
            "the real completion lands at re-dispatch + new makespan \
             (horizon {} vs old finish {control_m})",
            report.horizon_s
        );
    }

    /// The prediction memo is scoped to the pending submission: a queued
    /// submission stays priced at its admission-time loads across
    /// `refresh_pending`, a later arrival of the very same AFG is priced
    /// at the loads of its own admission, and nothing outlives the queue.
    #[test]
    fn queued_submission_keeps_admission_prices_and_later_arrival_sees_new_load() {
        let solo = || {
            let mut svc = StreamService::new(
                vec![repo(&[("only", 1.0)])],
                NetworkModel::with_defaults(1),
                ServiceConfig::default(),
            );
            let t = svc
                .register_tenant("gil", "pw", 5, AccessDomain::Global, Quota::default())
                .unwrap();
            (svc, t)
        };
        let sub = |tenant, n| SubmissionRequest {
            tenant,
            afg: chain_afg(n),
            deadline_s: 1e9,
            budget: f64::INFINITY,
        };
        // Makespan of the first run alone, to aim events around its end.
        let first_m = {
            let (mut svc, t) = solo();
            svc.submit_at(0.0, sub(t, 10_000));
            svc.drain().horizon_s
        };
        let priced = |svc: &StreamService, id: SubmissionId| -> Vec<u64> {
            let inc = svc.pending[&id].inc.as_ref().expect("feasible");
            inc.table().iter().map(|p| p.predicted_seconds.to_bits()).collect()
        };
        let memo_entries = |svc: &StreamService| {
            let held = |m: &AdmissionPrices| m.shared.iter().map(|t| t.len()).sum::<usize>();
            svc.pending.values().map(|p| held(&p.memo)).sum::<usize>()
        };

        // One host, one slot: `a` runs, `b` and `c` queue behind it, both
        // priced with `a`'s load on the host (history [1]).
        let (mut svc, t) = solo();
        svc.submit_at(0.0, sub(t, 10_000));
        let b = svc.submit_at(0.1 * first_m, sub(t, 11_000));
        let c = svc.submit_at(0.2 * first_m, sub(t, 12_000));
        svc.run_until(0.2 * first_m);
        assert_eq!((svc.active_count(), svc.pending_count()), (1, 2));
        let c_at_admission = priced(&svc, c);
        assert!(memo_entries(&svc) > 0);

        // `a` completes (load sample 0), `b` starts (load sample 1): two
        // load changes, each followed by a `refresh_pending` of `c`. Then
        // `d`, the same AFG as `c`, arrives under history [1, 0, 1].
        let d = svc.submit_at(1.01 * first_m, sub(t, 12_000));
        svc.run_until(1.01 * first_m);
        assert_eq!(svc.active_count(), 1);
        assert!(!svc.pending.contains_key(&b), "b was dispatched when a completed");
        assert_eq!(priced(&svc, c), c_at_admission, "c keeps its admission-time prices");
        let (c_secs, d_secs) = (priced(&svc, c), priced(&svc, d));
        for (c_bits, d_bits) in c_secs.iter().zip(&d_secs) {
            let (c_s, d_s) = (f64::from_bits(*c_bits), f64::from_bits(*d_bits));
            // Load multipliers: c 1 + 1, d 1 + 2/3.
            assert!((c_s / d_s - 1.2).abs() < 1e-9, "d is priced at the new load: {c_s} vs {d_s}");
        }

        let report = svc.drain();
        assert_eq!(report.completed, 4);
        assert_eq!((svc.pending_count(), memo_entries(&svc)), (0, 0));
    }

    /// Admission prices a site once per load state: a second Global
    /// admission under unchanged loads shares every table and prices
    /// nothing, one after a load sample at a site re-prices that site
    /// alone, and a library task new to a site's prices extends its table
    /// by a copy, leaving the table earlier admissions hold as it was.
    #[test]
    fn an_admission_prices_only_the_sites_whose_view_changed() {
        let mut svc = service();
        let sites = svc.domain_sites(AccessDomain::Global);
        let admit = |svc: &mut StreamService, afg: &Afg| {
            svc.place(afg, &mut TaskClasses::new(afg), &sites).0
        };
        let terms = |svc: &StreamService| -> Vec<usize> {
            svc.sites.iter().map(|s| s.prices.len()).collect()
        };
        let same = |a: &AdmissionPrices, b: &AdmissionPrices| -> Vec<bool> {
            a.shared.iter().zip(&b.shared).map(|(a, b)| Arc::ptr_eq(a, b)).collect()
        };

        // Source, Sort and Sink on two hosts at each of the two sites.
        let first = admit(&mut svc, &chain_afg(10_000));
        assert_eq!(terms(&svc), [6, 6]);
        let second = admit(&mut svc, &chain_afg(12_000));
        assert_eq!(terms(&svc), [6, 6], "unchanged loads: no new term");
        assert_eq!(same(&first, &second), [true, true]);

        svc.sites[1].bump("r0", 1);
        assert_eq!(terms(&svc), [6, 0]);
        let third = admit(&mut svc, &chain_afg(14_000));
        assert_eq!(same(&first, &third), [true, false], "only the loaded site is re-priced");
        assert_eq!(terms(&svc), [6, 6]);

        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("map", &lib);
        let (src, map) = (b.add_task("Source", "s", 10_000), b.add_task("Map", "m", 10_000));
        b.connect(src.unwrap(), 0, map.unwrap(), 0).unwrap();
        let fourth = admit(&mut svc, &b.build().unwrap());
        assert_eq!(terms(&svc), [8, 8]);
        assert_eq!(same(&third, &fourth), [false, false], "a held table is copied, not written");
        assert_eq!((third.shared[0].len(), third.shared[1].len()), (6, 6));
    }

    /// Two submissions admitted under one view while a host is down each
    /// price that host at their own first refresh that finds it up: one
    /// refresh must not pin the price for the other.
    #[test]
    fn a_host_down_at_admission_is_priced_at_each_submissions_own_refresh() {
        let start = || {
            let repo = repo(&[("a", 1.0), ("h", 4.0)]);
            repo.resources_mut(|db| db.set_status("h", HostStatus::Down));
            let net = NetworkModel::with_defaults(1);
            let mut svc = StreamService::new(vec![repo], net, ServiceConfig::default());
            let t = svc
                .register_tenant("hal", "pw", 5, AccessDomain::Global, Quota::default())
                .unwrap();
            svc.submit_at(0.0, req(&svc, t));
            (svc, t)
        };
        // Makespan of one run alone on `a`, to aim events inside it.
        let m = start().0.drain().horizon_s;

        // Two runs fill both slots of the site, on `a`; `x` and `y` queue
        // behind them under one view, with `h` down.
        let (mut svc, t) = start();
        svc.submit_at(0.0, req(&svc, t));
        let x = svc.submit_at(0.1 * m, req(&svc, t));
        let y = svc.submit_at(0.2 * m, req(&svc, t));
        svc.inject_host_up_at(0.3 * m, SiteId(0), "h");
        svc.run_until(0.2 * m);
        assert_eq!((svc.active_count(), svc.pending_count()), (2, 2));

        // `x` is refreshed when `h` comes up, at load 0; `y`, held out of
        // the queue, at its first refresh after, at load 1.
        let held = svc.pending.remove(&y).expect("y queued");
        svc.run_until(0.3 * m);
        assert_eq!(svc.active_count(), 2);
        svc.sites[0].bump("h", 1);
        svc.pending.insert(y, held);
        svc.refresh_pending(&BTreeSet::from([SiteId(0)]));

        let on_h = |id: SubmissionId| -> Vec<f64> {
            let inc = svc.pending[&id].inc.as_ref().expect("feasible");
            assert!(inc.table().iter().all(|p| p.hosts[..] == ["h".to_string()]));
            inc.table().iter().map(|p| p.predicted_seconds).collect()
        };
        let (x_s, y_s) = (on_h(x), on_h(y));
        assert_eq!(x_s.len(), 3);
        for (x_s, y_s) in x_s.iter().zip(&y_s) {
            // Load multipliers: x 1 + 0, y 1 + 1.
            assert!((y_s / x_s - 2.0).abs() < 1e-9, "y priced at its own refresh: {x_s} vs {y_s}");
        }
    }

    /// The service owns the state it is given: its load samples land in
    /// its own view of a site, never in a repository handle a caller kept.
    #[test]
    fn a_kept_repository_handle_does_not_see_the_services_load() {
        let kept = repo(&[("only", 1.0)]);
        let before = kept.snapshot().resources;
        let net = NetworkModel::with_defaults(1);
        let mut svc = StreamService::new(vec![kept.clone()], net, ServiceConfig::default());
        let t =
            svc.register_tenant("ida", "pw", 5, AccessDomain::Global, Quota::default()).unwrap();
        svc.submit_at(0.0, req(&svc, t));
        assert_eq!(svc.drain().completed, 1);
        assert_ne!(svc.sites[0].view.resources, before, "the run's load samples are recorded");
        assert_eq!(kept.snapshot().resources, before, "the kept handle is as it was");
    }

    #[test]
    fn wait_bound_is_the_aging_ramp_plus_the_broker_cap() {
        let repos = vec![repo(&[("l0", 1.0), ("l1", 2.0)]), repo(&[("r0", 3.0), ("r1", 0.5)])];
        let aging = AgingPolicy { step_s: 2.0, boost: 1, ceiling: 10 };
        let broker = BrokerPolicy { max_makespan_s: 450.0, ..BrokerPolicy::default() };
        let cfg = ServiceConfig { aging, broker, ..ServiceConfig::default() };
        let mut svc = StreamService::new(repos, NetworkModel::with_defaults(2), cfg);
        let t =
            svc.register_tenant("bob", "pw", 4, AccessDomain::Global, Quota::default()).unwrap();
        svc.submit_at(0.0, req(&svc, t));
        let report = svc.drain();
        // Six one-priority steps of 2 s from base 4 to the ceiling, then
        // one capped run.
        assert_eq!(report.tenants[0].wait_bound_s, 6.0 * 2.0 + 450.0);
        assert!(!report.tenants[0].starved);
    }

    /// No backfill past urgent work: an urgent submission that does not
    /// fit blocks a younger one that would, which starts with it.
    #[test]
    fn an_urgent_submission_that_does_not_fit_blocks_younger_work() {
        let start = |aging| {
            let repos = vec![repo(&[("l0", 1.0)]), repo(&[("r0", 4.0)])];
            let cfg = ServiceConfig { aging, ..ServiceConfig::default() };
            let mut svc = StreamService::new(repos, NetworkModel::with_defaults(2), cfg);
            let (local, global) = (AccessDomain::LocalSite, AccessDomain::Global);
            let [b, u, y] =
                [("b", 5, local), ("u", 9, local), ("y", 0, global)].map(|(name, prio, dom)| {
                    svc.register_tenant(name, "pw", prio, dom, Quota::default())
                });
            let blocker = svc.submit_at(0.0, req(&svc, b.unwrap()));
            (svc, blocker, u.unwrap(), y.unwrap())
        };
        let m = start(AgingPolicy::default()).0.drain().horizon_s;

        // `b` holds the local site's one slot until `m`. `u`, local only,
        // queues behind it and turns urgent one aging step later; `y`
        // stays far below the ceiling until long after `m`.
        let (mut svc, blocker, u, y) =
            start(AgingPolicy { step_s: 0.1 * m, boost: 1, ceiling: 10 });
        let urgent = svc.submit_at(0.1 * m, req(&svc, u));
        let younger = svc.submit_at(0.5 * m, req(&svc, y));
        svc.run_until(0.5 * m);
        // `younger` would fit: it is placed on the remote site alone, whose
        // one slot is free.
        let placed = svc.pending[&younger].inc.as_ref().expect("feasible").table().sites_used();
        assert_eq!((placed, svc.sites[1].inflight), (vec![SiteId(1)], 0));
        assert_eq!(svc.active.keys().collect::<Vec<_>>(), [&blocker]);
        assert_eq!(svc.pending.keys().collect::<Vec<_>>(), [&urgent, &younger], "no backfill");

        svc.run_until(m);
        assert_eq!(svc.active.keys().collect::<Vec<_>>(), [&urgent, &younger]);
        assert_eq!(svc.drain().completed, 3);
    }

    /// A queued submission whose only candidate host goes down fails its
    /// `apply`: it waits with no schedule, is placed again when the host
    /// comes back, and completes once, never having been restarted.
    #[test]
    fn a_queued_submission_whose_only_host_goes_down_waits_for_it() {
        let start = || {
            let (repos, net) = (vec![repo(&[("only", 1.0)])], NetworkModel::with_defaults(1));
            let mut svc = StreamService::new(repos, net, ServiceConfig::default());
            let [b, q] = ["b", "q"].map(|name| {
                svc.register_tenant(name, "pw", 5, AccessDomain::Global, Quota::default()).unwrap()
            });
            svc.submit_at(0.0, req(&svc, b));
            (svc, q)
        };
        let m = start().0.drain().horizon_s;

        let (mut svc, q) = start();
        let queued = svc.submit_at(0.1 * m, req(&svc, q));
        svc.inject_host_down_at(0.2 * m, SiteId(0), "only");
        svc.inject_host_up_at(0.3 * m, SiteId(0), "only");
        svc.run_until(0.1 * m);
        assert!(svc.pending[&queued].inc.is_some(), "queued behind the running one");
        svc.run_until(0.2 * m);
        assert!(svc.active.is_empty() && svc.pending[&queued].inc.is_none(), "it waits");
        svc.run_until(0.3 * m);
        assert_eq!(svc.active_count(), 1);

        let report = svc.drain();
        assert_eq!((report.completed, report.unplaced, report.restarts), (2, 0, 1));
        let row = &report.tenants[1];
        assert_eq!((row.tenant, row.admitted, row.completed, row.restarts), (q.0, 1, 1, 0));
    }

    #[test]
    fn drain_is_replay_deterministic() {
        let run = || {
            let mut svc = service();
            let t = svc
                .register_tenant("zed", "pw", 3, AccessDomain::Global, Quota::default())
                .unwrap();
            for i in 0..6 {
                svc.submit_at(i as f64 * 0.3, req(&svc, t));
            }
            svc.inject_host_down_at(1.0, SiteId(1), "r0");
            svc.inject_host_up_at(5.0, SiteId(1), "r0");
            svc.drain()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same trace, same report, bit for bit");
        assert_eq!(a.placements_digest, b.placements_digest);
    }
}
