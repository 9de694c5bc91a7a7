//! Every call the benchmark makes into the library crates goes through
//! this file, one thin function per public entry point it needs.
//!
//! The coupling is deliberate: ROADMAP's entry-point collapse will rename
//! most of what is called here (`site_schedule*`, `host_selection*`,
//! `schedule_with_outputs*`, `evaluate*`, `replay*`), and the paired
//! benchmark change should touch this file and nothing else. Workloads
//! and the driver know layer *names*, never library signatures.

use std::sync::Arc;
use vdce_afg::level::level_map;
use vdce_afg::{Afg, AfgDocument, ComputationMode};
use vdce_data::{DataView, DatasetCatalog};
use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;
use vdce_obs::{MetricsRegistry, Observer};
use vdce_predict::cache::PredictCache;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::ParallelModel;
use vdce_repository::accounts::AccessDomain;
use vdce_repository::resources::HostStatus;
use vdce_repository::SiteRepository;
use vdce_runtime::submission::SubmissionGateway;
use vdce_runtime::{ControlEvent, ControlState, DurableOptions};
use vdce_sched::service::stream::{ServiceConfig, StreamReport, StreamService};
use vdce_sched::service::tenant::Quota;
use vdce_sched::site_scheduler::schedule_with_outputs_data;
use vdce_sched::view::SiteView;
use vdce_sched::{
    evaluate_with_data, host_selection_classed, site_schedule_observed, site_schedule_with_data,
    validate_dataset_outputs, AllocationTable, HostSelectionOutput, IncrementalSchedule,
    ReschedulingDelta, SchedulerConfig,
};
use vdce_sim::arrivals::{poisson_trace, Arrival, TraceSpec};
use vdce_sim::dag_gen::{layered_random, DagSpec};
use vdce_sim::data::{pipeline_workload, DataScenario};
use vdce_sim::pool_gen::{build_federation, Federation, FederationSpec, WanShape};
use vdce_sim::recovery::{verify_kill, KillReport};
use vdce_sim::replay::{replay, replay_durable, replay_observed, ReplayOutcome};
use vdce_sim::scenario::{all_fault_scenarios, FaultScenario};
use vdce_sim::stream::{
    nominal_seconds, tenant_name, tenant_password, DOMAIN_PALETTE, PRIORITY_PALETTE,
};
use vdce_store::{
    encode_record, fnv1a, read_wal, recover, FileWal, Journal, JournalStats, SnapshotPolicy,
    WalWriter,
};

// ---------------------------------------------------------------------
// sim: input generation
// ---------------------------------------------------------------------

/// Library-kernel granularities of the palette workload (the shape
/// `exp_scale` and `exp_sched_speedup` benchmark).
const GRANULARITIES: [u64; 4] = [64_000, 128_000, 256_000, 512_000];

/// `sim.dag_gen`: a `layered_random` AFG of `tasks` tasks, `tasks/8` wide,
/// problem sizes quantised to the granularity palette and every third task
/// an 8-node parallel one.
pub fn palette_dag(tasks: usize, seed: u64) -> Afg {
    let spec = DagSpec { tasks, width: (tasks / 8).max(2), ..DagSpec::default() };
    let mut afg = layered_random(&spec, seed);
    for (i, t) in afg.tasks.iter_mut().enumerate() {
        t.problem_size = GRANULARITIES[t.problem_size as usize % GRANULARITIES.len()];
        if i % 3 == 0 {
            t.props.mode = ComputationMode::Parallel;
            t.props.num_nodes = 8;
        }
    }
    afg
}

/// `sim.dag_gen`: one streaming submission's AFG (10 tasks).
pub fn submission_dag(min_size: u64, max_size: u64, seed: u64) -> Afg {
    layered_random(&DagSpec { tasks: 10, min_size, max_size, ..DagSpec::default() }, seed)
}

/// `sim.pool_gen`: `sites × hosts` federation, 4× speed heterogeneity,
/// random WAN.
pub fn federation(sites: usize, hosts: usize, seed: u64) -> Federation {
    build_federation(&FederationSpec {
        sites,
        hosts_per_site: hosts,
        heterogeneity: 4.0,
        shape: WanShape::Random,
        seed,
        ..FederationSpec::default()
    })
}

/// `sim.dag_gen` + `sim.pool_gen` of the data workload: `chains` reader →
/// transform chains over two-replica datasets on four sites.
pub fn pipeline(chains: usize, dataset_bytes: u64, seed: u64) -> DataScenario {
    pipeline_workload(chains, dataset_bytes, seed)
}

/// `sim.arrivals`: a Poisson submission trace.
pub fn arrivals(tenants: usize, rate_per_s: f64, horizon_s: f64, seed: u64) -> Vec<Arrival> {
    poisson_trace(&TraceSpec { tenants, rate_per_s, horizon_s, seed, ..TraceSpec::default() })
}

/// The 17 named fault scenarios.
pub fn fault_scenarios() -> Vec<FaultScenario> {
    all_fault_scenarios()
}

// ---------------------------------------------------------------------
// afg
// ---------------------------------------------------------------------

/// `afg.level`: level priorities on the local site's base-processor times.
pub fn levels(afg: &Afg, local: &SiteView) -> Vec<f64> {
    level_map(afg, |t| local.tasks.base_time(&t.library_task, t.problem_size).unwrap_or(0.0))
        .expect("generated AFGs are acyclic")
}

/// The JSON document a client would submit for `afg`.
pub fn document_json(afg: &Afg) -> String {
    AfgDocument::new("vdce_perf", afg.clone()).expect("generated AFGs validate").to_json()
}

/// `afg.document.parse`: the JSON admission boundary (parse + validate).
pub fn parse_document(json: &str) -> Afg {
    AfgDocument::from_json(json).expect("round-tripped document parses").afg
}

/// `afg.validate`: structural validation alone.
pub fn validate(afg: &Afg) {
    vdce_afg::validate(afg).expect("generated AFGs validate");
}

// ---------------------------------------------------------------------
// sched: the batch path
// ---------------------------------------------------------------------

/// The scheduler settings every workload runs: the paper's algorithm on
/// the optimised path, `k` nearest neighbours.
pub fn sched_config(k: usize, sequential: bool) -> SchedulerConfig {
    SchedulerConfig { k_neighbours: k, sequential, ..SchedulerConfig::default() }
}

/// Every site's view, index = site id.
pub fn views(fed: &Federation) -> Vec<SiteView> {
    fed.views()
}

/// `sched.view_capture`: snapshot one site's databases.
pub fn capture(site: SiteId, repo: &SiteRepository) -> SiteView {
    SiteView::capture(site, repo)
}

/// Monitor event: mark `host` up or down in `repo`.
pub fn set_host_up(repo: &SiteRepository, host: &str, up: bool) {
    let status = if up { HostStatus::Up } else { HostStatus::Down };
    repo.resources_mut(|db| db.set_status(host, status));
}

/// `net.nearest_neighbours`: the sites a schedule involves, local first.
pub fn involved_sites(net: &NetworkModel, local: SiteId, k: usize) -> Vec<SiteId> {
    let mut sites = vec![local];
    sites.extend(net.nearest_neighbours(local, k));
    sites
}

/// A fresh shared prediction memo.
pub fn predict_cache() -> PredictCache {
    PredictCache::new()
}

/// `predict.cache.*`: `(lookups, hits, evictions)` of `cache`.
pub fn predict_cache_stats(cache: &PredictCache) -> (u64, u64, u64) {
    (cache.hits() + cache.misses(), cache.hits(), cache.evictions())
}

/// `sched.host_selection`: Figure 3 for every task of `afg` at one site,
/// one argmin per task class.
pub fn host_selection(view: &SiteView, afg: &Afg, cache: &PredictCache) -> HostSelectionOutput {
    host_selection_classed(view, afg, &Predictor::default(), &ParallelModel::default(), cache)
}

/// `sched.walk`: steps 6–7 of Figure 2 over collected host selections.
pub fn walk(
    afg: &Afg,
    levels: &[f64],
    local: SiteId,
    outputs: &[HostSelectionOutput],
    net: &NetworkModel,
    data: Option<&DataView>,
) -> AllocationTable {
    schedule_with_outputs_data(afg, levels, local, outputs, net, false, false, None, data)
        .expect("benchmark inputs are schedulable")
}

/// The one-call scheduler: levels, host selection at the involved sites and
/// the walk. `views[0]` is the local site.
pub fn site_schedule(
    afg: &Afg,
    views: &[SiteView],
    net: &NetworkModel,
    cfg: &SchedulerConfig,
    data: Option<&DataView>,
) -> AllocationTable {
    site_schedule_with_data(afg, &views[0], &views[1..], net, cfg, data)
        .expect("benchmark inputs are schedulable")
}

/// `net.transfer_cache.lookups` of one schedule, from the library's own
/// counter (an observed run beside the op).
pub fn transfer_cache_lookups(
    afg: &Afg,
    views: &[SiteView],
    net: &NetworkModel,
    cfg: &SchedulerConfig,
) -> u64 {
    let reg = MetricsRegistry::new();
    site_schedule_observed(afg, &views[0], &views[1..], net, cfg, &reg)
        .expect("benchmark inputs are schedulable");
    reg.counter("sched.transfer_cache.lookups")
}

/// `sched.makespan`: simulate `table`; returns the predicted makespan.
pub fn evaluate(
    afg: &Afg,
    table: &AllocationTable,
    net: &NetworkModel,
    levels: &[f64],
    data: Option<&DataView>,
) -> f64 {
    evaluate_with_data(afg, table, net, levels, data).expect("complete tables evaluate").makespan
}

/// `sched.validate_outputs`: admission-time storage check of dataset outputs.
pub fn validate_outputs(afg: &Afg, table: &AllocationTable, view: &DataView) -> bool {
    validate_dataset_outputs(afg, table, view).is_ok()
}

/// Are two tables equal down to the bits of every prediction?
pub fn tables_bit_identical(a: &AllocationTable, b: &AllocationTable) -> bool {
    a == b
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.predicted_seconds.to_bits() == y.predicted_seconds.to_bits())
}

/// FNV-1a digest of a table's JSON form (placements, hosts, replica sources).
pub fn table_digest(table: &AllocationTable) -> u64 {
    fnv1a(table.to_json().as_bytes())
}

/// FNV-1a digest of an AFG's tasks and edges (the input fingerprint).
pub fn afg_digest(afg: &Afg) -> u64 {
    let mut h = vdce_store::Fnv1a::new();
    for t in &afg.tasks {
        h.update(&t.problem_size.to_le_bytes());
        h.update(&[t.props.num_nodes as u8, t.props.inputs.len() as u8]);
    }
    for e in &afg.edges {
        h.update(&e.from.0.to_le_bytes());
        h.update(&e.to.0.to_le_bytes());
        h.update(&e.data_size.to_le_bytes());
    }
    h.finish()
}

// ---------------------------------------------------------------------
// sched: the incremental path
// ---------------------------------------------------------------------

/// `sched.incremental.new`: place every task from `outputs`.
pub fn incremental_new(
    afg: &Afg,
    local: SiteId,
    outputs: Vec<HostSelectionOutput>,
    net: &NetworkModel,
) -> IncrementalSchedule {
    IncrementalSchedule::new(afg, local, outputs, net, false)
        .expect("benchmark inputs are schedulable")
}

/// `sched.incremental.apply`: absorb updated host selections.
pub fn incremental_apply(
    inc: &mut IncrementalSchedule,
    afg: &Afg,
    outputs: Vec<HostSelectionOutput>,
) -> ReschedulingDelta {
    inc.apply(afg, outputs).expect("two hosts down leave every task a feasible site")
}

// ---------------------------------------------------------------------
// data
// ---------------------------------------------------------------------

/// `data.catalog.view`: the scheduler-facing catalog snapshot.
pub fn catalog_view(catalog: &DatasetCatalog) -> DataView {
    catalog.view()
}

/// `data.catalog.state_hash`.
pub fn catalog_state_hash(catalog: &DatasetCatalog) -> u64 {
    catalog.state_hash()
}

/// `data.catalog.replay`: rebuild a catalog from its journal history.
pub fn catalog_replay(history: &[(String, String)]) -> DatasetCatalog {
    DatasetCatalog::replay(history.iter().map(|(t, p)| (t.as_str(), p.as_str())))
}

/// `data.catalog.register`: journal and apply `n` two-replica datasets into
/// a fresh catalog.
pub fn catalog_register(n: u64, dataset_bytes: u64) -> DatasetCatalog {
    let mut catalog = DatasetCatalog::new();
    catalog.attach_journal(Journal::enabled(SnapshotPolicy::manual()));
    for id in 1..=n {
        vdce_data::catalog::seed_dataset(
            &mut catalog,
            vdce_afg::DatasetId(id),
            dataset_bytes,
            &[SiteId(3), SiteId((id % 3) as u16)],
        )
        .expect("uncapped catalog accepts every replica");
    }
    catalog
}

/// Storage-capacity rejections the catalog has counted.
pub fn catalog_violations(catalog: &DatasetCatalog) -> u64 {
    catalog.violations()
}

/// A copy of `afg` whose tasks read no catalog datasets.
pub fn dataset_free_twin(afg: &Afg) -> Afg {
    let mut twin = afg.clone();
    for t in &mut twin.tasks {
        t.props.inputs.retain(|spec| spec.dataset_id().is_none());
    }
    twin
}

// ---------------------------------------------------------------------
// runtime.submission + sched.service
// ---------------------------------------------------------------------

/// One prepared streaming submission.
pub struct Submission {
    /// Logical arrival time.
    pub at_s: f64,
    /// Tenant index.
    pub tenant: usize,
    /// The AFG, shared with the service.
    pub afg: Arc<Afg>,
    /// Absolute deadline.
    pub deadline_s: f64,
    /// Budget.
    pub budget: f64,
}

/// Turn an arrival and its AFG into a submission: slacks scale the AFG's
/// nominal compute time at the front-end site, as `sim::stream` does.
pub fn submission(a: &Arrival, afg: Afg, front: &SiteView) -> Submission {
    let nominal = nominal_seconds(front, &afg).max(1e-6);
    Submission {
        at_s: a.at_s,
        tenant: a.tenant,
        afg: Arc::new(afg),
        deadline_s: a.at_s + a.deadline_slack * nominal,
        budget: a.budget_slack * nominal * ServiceConfig::default().broker.cost_per_cpu_s,
    }
}

/// The access domain `sim::stream`'s palette gives tenant `i`.
pub fn tenant_domain(i: usize) -> AccessDomain {
    DOMAIN_PALETTE[i % DOMAIN_PALETTE.len()]
}

/// The sites a tenant of `domain` may use, front end first (the service's
/// own rule, with its default `k = 3`).
pub fn domain_sites(net: &NetworkModel, domain: AccessDomain) -> Vec<SiteId> {
    let k = match domain {
        AccessDomain::LocalSite => 0,
        AccessDomain::Neighbours => ServiceConfig::default().k_neighbours,
        AccessDomain::Global => net.site_count() - 1,
    };
    involved_sites(net, SiteId(0), k)
}

/// A fresh service behind its gateway with `tenants` registered accounts
/// (priority and domain palettes of `sim::stream`).
pub fn gateway(fed: Federation, tenants: usize, max_inflight: u32) -> SubmissionGateway {
    let service = StreamService::new(fed.repos, fed.net, ServiceConfig::default());
    let mut gw = SubmissionGateway::new(service);
    for i in 0..tenants {
        gw.register_tenant(
            &tenant_name(i),
            &tenant_password(i),
            PRIORITY_PALETTE[i % PRIORITY_PALETTE.len()],
            tenant_domain(i),
            Quota { max_inflight },
        )
        .expect("tenant names are unique");
    }
    gw
}

/// Tenant credentials, prepared once so the timed `submit` formats nothing.
pub fn credentials(tenants: usize) -> Vec<(String, String)> {
    (0..tenants).map(|i| (tenant_name(i), tenant_password(i))).collect()
}

/// `runtime.submission.submit`: authenticate and enqueue.
pub fn submit(gw: &mut SubmissionGateway, s: &Submission, cred: &(String, String)) {
    gw.submit(s.at_s, &cred.0, &cred.1, s.afg.clone(), s.deadline_s, s.budget)
        .expect("registered tenants authenticate");
}

/// `sched.service.step`: process every event up to logical time `t`.
pub fn run_until(gw: &mut SubmissionGateway, t: f64) {
    gw.service_mut().run_until(t);
}

/// `sched.service.drain`: process everything left.
pub fn drain(gw: &mut SubmissionGateway) -> StreamReport {
    gw.drain()
}

/// `(pending, active)` submissions right now.
pub fn queue_depths(gw: &SubmissionGateway) -> (usize, usize) {
    (gw.service().pending_count(), gw.service().active_count())
}

// ---------------------------------------------------------------------
// sim.replay + sim.recovery + store + runtime.durable
// ---------------------------------------------------------------------

/// `sim.replay.plain`: replay a fault scenario without the journal.
pub fn replay_plain(fs: &FaultScenario) -> ReplayOutcome {
    replay(&fs.scenario.federation, &fs.scenario.afg, &fs.plan, &fs.config)
}

/// A durable control plane as `exp_recovery` configures it: snapshot every
/// 256 records, deputy hash check every 8 frames.
pub fn durable_options() -> DurableOptions {
    DurableOptions::new(SnapshotPolicy::every(256), 8)
}

/// `sim.replay.durable`: the same replay with write-ahead journaling,
/// snapshots and deputy replication on. `obs.metrics` receives the
/// `store.replication.*` counters.
pub fn replay_journaled(
    fs: &FaultScenario,
    obs: &Observer,
    opts: &DurableOptions,
) -> ReplayOutcome {
    replay_durable(&fs.scenario.federation, &fs.scenario.afg, &fs.plan, &fs.config, obs, opts)
}

/// `obs.trace`: the plain replay with an observer attached.
pub fn replay_traced(fs: &FaultScenario, obs: &Observer) -> ReplayOutcome {
    replay_observed(&fs.scenario.federation, &fs.scenario.afg, &fs.plan, &fs.config, obs)
}

/// An observer that traces nothing (its metrics registry still counts).
pub fn observer_disabled() -> Observer {
    Observer::disabled()
}

/// An observer with the trace sink on.
pub fn observer_enabled() -> Observer {
    Observer::enabled()
}

/// `store.replication.*` counters a durable replay left in `obs`:
/// `(frames, hash_checks, divergences)`.
pub fn replication_counters(obs: &Observer) -> (u64, u64, u64) {
    (
        obs.metrics.counter("store.replication.frames"),
        obs.metrics.counter("store.replication.hash_checks"),
        obs.metrics.counter("store.replication.divergences"),
    )
}

/// `sim.recovery.verify_kill`: kill after `cut` records (torn tail when
/// `torn_seed != 0`), recover, replay, resume, compare with the sealed state.
pub fn kill_and_recover(journal: &Journal, cut: u64, torn_seed: u64) -> Result<KillReport, String> {
    verify_kill(journal, cut, torn_seed)
}

/// Every record ever appended to `journal`, in order.
pub fn journal_history(journal: &Journal) -> Vec<(String, String)> {
    journal.history()
}

/// `store.replication.hash`: the state fingerprint a deputy check computes
/// on each side (serialises the repository, then FNV-1a).
pub fn repo_state_hash(repo: &SiteRepository) -> u64 {
    repo.state_hash()
}

/// `store.journal.*` lifetime counters.
pub fn journal_stats(journal: &Journal) -> JournalStats {
    journal.stats()
}

/// Bytes of every snapshot `journal` installed.
pub fn snapshot_bytes(journal: &Journal) -> u64 {
    journal.snapshots().iter().map(|s| s.state.len() as u64).sum()
}

/// `store.journal.append`: append `history` to a fresh journal.
pub fn journal_append_all(history: &[(String, String)]) -> Journal {
    let journal = Journal::enabled(SnapshotPolicy::manual());
    for (tag, payload) in history {
        journal.append(tag, payload);
    }
    journal
}

/// `store.journal.recover`: recover the journal's current durable image;
/// returns the records recovered.
pub fn journal_recover(journal: &Journal) -> usize {
    recover(&journal.image()).expect("an intact image recovers").events.len()
}

/// Journal frames of `history`, as the journal encodes them for its WAL.
pub fn journal_frames(history: &[(String, String)]) -> Vec<Vec<u8>> {
    history.iter().map(|(t, p)| encode_record(t, p)).collect()
}

/// `store.wal.append`: frame `records` into an in-memory WAL image.
pub fn wal_append_all(records: &[Vec<u8>]) -> Vec<u8> {
    let mut w = WalWriter::new();
    for r in records {
        w.append(r);
    }
    w.into_bytes()
}

/// `store.wal.read`: recover every record of `image`; returns the count.
pub fn wal_read(image: &[u8]) -> usize {
    read_wal(image).expect("an intact image reads").records.len()
}

/// `store.file_wal.append_sync`: append each record to an on-disk WAL at
/// `path` with an fsync after every one, then remove the file.
pub fn file_wal_append_sync(path: &std::path::Path, records: &[Vec<u8>]) -> std::io::Result<()> {
    let io = |e: vdce_store::FileWalError| std::io::Error::other(e.to_string());
    let mut wal = FileWal::create(path).map_err(io)?;
    for r in records {
        wal.append(r).map_err(io)?;
        wal.sync().map_err(io)?;
    }
    drop(wal);
    std::fs::remove_file(path)
}

/// `runtime.durable.decode`: decode every record of `history`.
pub fn control_decode_all(history: &[(String, String)]) -> Vec<ControlEvent> {
    history
        .iter()
        .map(|(t, p)| ControlEvent::decode(t, p).expect("journaled control events decode"))
        .collect()
}

/// `runtime.durable.encode`: serialise every event's payload; returns the
/// bytes produced.
pub fn control_encode_all(events: &[ControlEvent]) -> usize {
    events.iter().map(|e| e.payload().len()).sum()
}

/// The control state of the journal's initial (seq-0) snapshot.
pub fn control_initial_state(journal: &Journal) -> ControlState {
    let first = journal.snapshots().into_iter().next().expect("durable replays snapshot at seq 0");
    ControlState::from_bytes(&first.state).expect("installed snapshots parse")
}

/// `runtime.durable.apply`: the pure transition over `events`.
pub fn control_apply_all(state: &mut ControlState, events: &[ControlEvent]) {
    for e in events {
        state.apply(e);
    }
}

/// `runtime.durable.to_bytes`: canonical serialised state.
pub fn control_to_bytes(state: &ControlState) -> Vec<u8> {
    state.to_bytes()
}

/// `runtime.durable.hash`: state fingerprint (serialises, then FNV-1a).
pub fn control_hash(state: &ControlState) -> u64 {
    state.hash()
}
