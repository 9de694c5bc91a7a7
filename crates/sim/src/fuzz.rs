//! Seeded scenario fuzzing: adversarial fault-plan generation, an
//! end-to-end invariant engine, and a delta-debugging shrinker
//! (DESIGN.md §17).
//!
//! The 14 hand-written fault scenarios only prove the control plane
//! against faults someone already imagined. This module is the
//! automated adversary: [`FuzzCase::generate`] expands a single `u64`
//! seed into a composition of fault *motifs* over one of the named base
//! scenarios — Weibull host churn, correlated multi-site outages,
//! partition-then-heal storms, diurnal load waves, link noise,
//! flash-crowd arrival bursts against the streaming service, and
//! mid-run process kills against the durable store — then
//! [`check_case`] property-checks the run end-to-end against the
//! invariant catalogue ([`Invariant`]).
//!
//! Everything is a pure function of the seed: the same seed produces
//! the same case, the same replays, the same verdict, on every machine.
//! When a case violates an invariant, [`shrink`] minimises it with a
//! ddmin-style pass pipeline (drop fault events, halve fault windows,
//! shed partition sites, shrink the stream leg, reduce kill count,
//! drop checkpointing) while re-checking that each candidate still
//! violates the *same* invariant, and the result serialises to a
//! self-contained JSON reproducer ([`FuzzCase::to_json`]) fit for
//! promotion to a named regression scenario in [`crate::scenario`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use vdce_obs::{FieldValue, Observer};
use vdce_runtime::{CheckpointPolicy, DurableOptions, WorkLedger};
use vdce_sched::service::stream::StreamReport;
use vdce_store::SnapshotPolicy;

use crate::arrivals::TraceSpec;
use crate::dag_gen::DagSpec;
use crate::faults::{Fault, FaultPlan, WeibullArrivalSpec};
use crate::metrics::RecoveryReport;
use crate::pool_gen::{FederationSpec, WanShape};
use crate::recovery::verify_recovery;
use crate::replay::{run_fault_scenario, ReplayConfig, ReplayRequest};
use crate::scenario::{self, schedule_estimate, FaultScenario, Scenario};
use crate::stream::{run_stream, StreamScenario};

/// Reproducer schema version stamped into every [`FuzzCase`].
pub(crate) const FUZZ_CASE_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Case shape
// ---------------------------------------------------------------------

/// Base scenario palette the generator draws from (the cheap named
/// scenarios; `wide_area` is excluded to keep a sweep affordable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BaseScenario {
    /// [`scenario::campus_smoke`]: 1 site × 4 hosts.
    CampusSmoke,
    /// [`scenario::two_campus`]: 2 sites × 4 hosts.
    TwoCampus,
    /// [`scenario::metro_trio`]: 3 sites × 4 hosts.
    MetroTrio,
    /// [`scenario::c3i_surveillance`]: 3 sites × 3 hosts, fork-join.
    C3iSurveillance,
    /// [`scenario::gauss_benchmark`]: 4 sites × 4 hosts, Gauss DAG.
    GaussBenchmark,
}

impl BaseScenario {
    /// Every base the generator can pick.
    pub(crate) const PALETTE: [BaseScenario; 5] = [
        BaseScenario::CampusSmoke,
        BaseScenario::TwoCampus,
        BaseScenario::MetroTrio,
        BaseScenario::C3iSurveillance,
        BaseScenario::GaussBenchmark,
    ];

    /// Build the underlying named scenario.
    pub(crate) fn build(self) -> Scenario {
        match self {
            BaseScenario::CampusSmoke => scenario::campus_smoke(),
            BaseScenario::TwoCampus => scenario::two_campus(),
            BaseScenario::MetroTrio => scenario::metro_trio(),
            BaseScenario::C3iSurveillance => scenario::c3i_surveillance(),
            BaseScenario::GaussBenchmark => scenario::gauss_benchmark(),
        }
    }

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BaseScenario::CampusSmoke => "campus-smoke",
            BaseScenario::TwoCampus => "two-campus",
            BaseScenario::MetroTrio => "metro-trio",
            BaseScenario::C3iSurveillance => "c3i-surveillance",
            BaseScenario::GaussBenchmark => "gauss-benchmark",
        }
    }
}

/// Fault motifs the generator composes. Each class expands to a batch
/// of [`Fault`]s (or a stream/kill leg) with class-specific timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// Weibull-inter-arrival transient host outages.
    Churn,
    /// Near-simultaneous transient outages of several sites.
    CorrelatedOutage,
    /// Partition-then-heal waves cutting the WAN into two cells.
    PartitionStorm,
    /// Diurnal phase-staggered load spikes across hosts.
    LoadWave,
    /// Flaky / degraded inter-site links.
    LinkNoise,
    /// Flash-crowd Poisson burst against the streaming service.
    FlashCrowd,
    /// Extra mid-run process kills against the durable journal.
    ProcessKill,
}

impl FaultClass {
    /// Every class, in report order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::Churn,
        FaultClass::CorrelatedOutage,
        FaultClass::PartitionStorm,
        FaultClass::LoadWave,
        FaultClass::LinkNoise,
        FaultClass::FlashCrowd,
        FaultClass::ProcessKill,
    ];

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Churn => "churn",
            FaultClass::CorrelatedOutage => "correlated-outage",
            FaultClass::PartitionStorm => "partition-storm",
            FaultClass::LoadWave => "load-wave",
            FaultClass::LinkNoise => "link-noise",
            FaultClass::FlashCrowd => "flash-crowd",
            FaultClass::ProcessKill => "process-kill",
        }
    }

    /// Classes that only make sense with ≥ 2 sites.
    fn needs_multi_site(self) -> bool {
        matches!(
            self,
            FaultClass::CorrelatedOutage | FaultClass::PartitionStorm | FaultClass::LinkNoise
        )
    }
}

/// The streaming-service leg of a fuzz case: a flash-crowd arrival
/// burst against a small dedicated federation. Service knobs and
/// quotas stay at their defaults so the leg is fully described by
/// these four serialisable specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamLeg {
    /// Federation the service schedules over.
    pub fed: FederationSpec,
    /// The Poisson burst.
    pub trace: TraceSpec,
    /// Shape of each submission's DAG.
    pub dag: DagSpec,
    /// Host faults replayed mid-stream.
    pub faults: FaultPlan,
}

impl StreamLeg {
    /// Materialise the full scenario (default service config / quota).
    pub(crate) fn to_scenario(&self) -> StreamScenario {
        StreamScenario {
            fed: self.fed,
            trace: self.trace,
            dag: self.dag,
            cfg: Default::default(),
            quota: Default::default(),
            faults: self.faults.clone(),
        }
    }
}

/// A self-contained, serialisable fuzz case: everything needed to
/// replay one adversarial composition bit-identically, anywhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzCase {
    /// Reproducer schema version (`FUZZ_CASE_VERSION`).
    pub version: u32,
    /// The generator seed this case came from.
    pub seed: u64,
    /// Base scenario under attack.
    pub base: BaseScenario,
    /// Motifs composed into the plan (fixed at generation; the
    /// inflation ceiling is keyed on them, so shrinking never edits
    /// this list).
    pub classes: Vec<FaultClass>,
    /// The composed fault plan replayed against the base scenario.
    pub plan: FaultPlan,
    /// Run the replay under the standard checkpoint policy?
    pub checkpoint: bool,
    /// Process-kill points driven through the kill-and-restart harness
    /// by the durable-recovery invariant.
    pub kills: u32,
    /// Optional streaming-service leg (present iff
    /// [`FaultClass::FlashCrowd`] was drawn).
    pub stream: Option<StreamLeg>,
}

impl FuzzCase {
    /// Replay config for this case: clock-scaled to the base scenario's
    /// estimated makespan, checkpointing per the case flag.
    pub(crate) fn replay_config(&self, est: f64) -> ReplayConfig {
        let mut cfg = ReplayConfig::scaled_to(est);
        if self.checkpoint {
            cfg.checkpoint = CheckpointPolicy::every(0.1, 0.002);
        }
        cfg
    }

    /// Package the replay leg as a named [`FaultScenario`] — the
    /// promotion path for shrunk reproducers.
    pub fn to_fault_scenario(&self, name: &'static str) -> FaultScenario {
        let scenario = self.base.build();
        let (est, _) = schedule_estimate(&scenario);
        let config = self.replay_config(est);
        FaultScenario { name, scenario, plan: self.plan.clone(), config }
    }

    /// Serialise to a self-contained JSON reproducer.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fuzz cases always serialise")
    }

    /// Parse a reproducer produced by [`FuzzCase::to_json`].
    pub fn from_json(s: &str) -> Result<FuzzCase, String> {
        let case: FuzzCase = serde_json::from_str(s).map_err(|e| format!("{e:?}"))?;
        if case.version != FUZZ_CASE_VERSION {
            return Err(format!(
                "reproducer version {} unsupported (expected {FUZZ_CASE_VERSION})",
                case.version
            ));
        }
        Ok(case)
    }

    /// Generate the case for `seed` — a pure function of the seed.
    pub fn generate(seed: u64) -> FuzzCase {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA57_F001_CA5E_5EED);
        let base = BaseScenario::PALETTE[rng.gen_range(0..BaseScenario::PALETTE.len())];
        let s = base.build();
        let (est, busiest) = schedule_estimate(&s);
        let tick = (est / 64.0).max(1e-3);
        let sites = s.federation.topology.site_count();
        let hosts: Vec<String> = s
            .federation
            .topology
            .sites()
            .iter()
            .flat_map(|site| site.hosts.iter().cloned())
            .collect();

        // Draw 1..=3 distinct motifs eligible for this base.
        let mut eligible: Vec<FaultClass> = FaultClass::ALL
            .iter()
            .copied()
            .filter(|c| sites >= 2 || !c.needs_multi_site())
            .collect();
        let n = rng.gen_range(1..=3usize.min(eligible.len()));
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            classes.push(eligible.remove(rng.gen_range(0..eligible.len())));
        }
        classes.sort();

        let mut faults = Vec::new();
        let mut kills = 2u32;
        let mut stream = None;
        for class in &classes {
            match class {
                FaultClass::Churn => {
                    let spec = WeibullArrivalSpec {
                        shape: rng.gen_range(0.55..1.5),
                        scale: rng.gen_range(0.2..0.55) * est,
                        horizon: 1.5 * est,
                        down_for: rng.gen_range(4.0..10.0) * tick,
                        max_faults: 8,
                    };
                    let churn_seed: u64 = rng.gen::<u64>();
                    faults.extend(FaultPlan::weibull_arrivals(churn_seed, &hosts, &spec).faults);
                }
                FaultClass::CorrelatedOutage => {
                    // Near-simultaneous transient site outages; always
                    // leave at least one site standing.
                    let m = rng.gen_range(2..=3usize).min(sites - 1).max(1);
                    let mut pool: Vec<u16> = (0..sites as u16).collect();
                    let t0 = rng.gen_range(0.15..0.4) * est;
                    for _ in 0..m {
                        let site = pool.remove(rng.gen_range(0..pool.len()));
                        faults.push(Fault::SiteOutage {
                            site,
                            at: t0 + rng.gen_range(0.0..2.0) * tick,
                            down_for: Some(rng.gen_range(0.08..0.2) * est),
                        });
                    }
                }
                FaultClass::PartitionStorm => {
                    let waves = rng.gen_range(1..=2usize);
                    for w in 0..waves {
                        let mut a = Vec::new();
                        let mut b = Vec::new();
                        for site in 0..sites as u16 {
                            if rng.gen_bool(0.5) {
                                a.push(site);
                            } else {
                                b.push(site);
                            }
                        }
                        // Both cells must be populated for a cut to exist.
                        if a.is_empty() {
                            a.push(b.pop().expect("sites >= 2"));
                        }
                        if b.is_empty() {
                            b.push(a.pop().expect("sites >= 2"));
                        }
                        faults.push(Fault::SitePartition {
                            a,
                            b,
                            at: rng.gen_range(0.1..0.35) * est + w as f64 * 0.3 * est,
                            duration: rng.gen_range(0.08..0.2) * est,
                        });
                    }
                }
                FaultClass::LoadWave => {
                    // Diurnal wave: two phase-staggered spike rounds.
                    let period = rng.gen_range(0.35..0.7) * est;
                    let victims = hosts.len().min(6);
                    let height = rng.gen_range(3.0..7.0);
                    for wave in 0..2usize {
                        for (i, host) in hosts.iter().take(victims).enumerate() {
                            faults.push(Fault::LoadSpike {
                                host: host.clone(),
                                at: wave as f64 * period
                                    + (i as f64 / victims as f64) * 0.5 * period,
                                height,
                                duration: 0.4 * period,
                            });
                        }
                    }
                }
                FaultClass::LinkNoise => {
                    for _ in 0..rng.gen_range(1..=2usize) {
                        let a = rng.gen_range(0..sites as u16);
                        let mut b = rng.gen_range(0..sites as u16);
                        if b == a {
                            b = (b + 1) % sites as u16;
                        }
                        let at = rng.gen_range(0.0..0.3) * est;
                        let duration = rng.gen_range(0.25..0.5) * est;
                        if rng.gen_bool(0.5) {
                            faults.push(Fault::FlakyLink {
                                a,
                                b,
                                at,
                                duration,
                                drop_probability: rng.gen_range(0.2..0.45),
                            });
                        } else {
                            faults.push(Fault::DegradedLink {
                                a,
                                b,
                                at,
                                duration,
                                latency_factor: rng.gen_range(5.0..25.0),
                                bandwidth_factor: rng.gen_range(0.05..0.15),
                            });
                        }
                    }
                }
                FaultClass::FlashCrowd => {
                    let fed = FederationSpec {
                        sites: 2,
                        hosts_per_site: 3,
                        heterogeneity: 2.0,
                        shape: WanShape::Star,
                        seed: 100 + (seed % 101),
                        ..FederationSpec::default()
                    };
                    let horizon_s = rng.gen_range(24.0..45.0);
                    let trace = TraceSpec {
                        tenants: rng.gen_range(4..=8usize),
                        rate_per_s: rng.gen_range(0.8..2.0),
                        horizon_s,
                        seed: rng.gen::<u64>(),
                        ..TraceSpec::default()
                    };
                    let dag = DagSpec { tasks: 6, width: 3, ..DagSpec::default() };
                    let mut leg_faults = Vec::new();
                    if rng.gen_bool(0.6) {
                        let fed_built = crate::pool_gen::build_federation(&fed);
                        let leg_hosts: Vec<String> = fed_built
                            .topology
                            .sites()
                            .iter()
                            .flat_map(|site| site.hosts.iter().cloned())
                            .collect();
                        for _ in 0..rng.gen_range(1..=2usize) {
                            leg_faults.push(Fault::TransientOutage {
                                host: leg_hosts[rng.gen_range(0..leg_hosts.len())].clone(),
                                at: rng.gen_range(0.2..0.6) * horizon_s,
                                down_for: rng.gen_range(3.0..8.0),
                            });
                        }
                    }
                    stream = Some(StreamLeg {
                        fed,
                        trace,
                        dag,
                        faults: FaultPlan { seed: seed ^ 0x51DE_CA57, faults: leg_faults },
                    });
                }
                FaultClass::ProcessKill => {
                    kills = rng.gen_range(4..=6u32);
                }
            }
        }

        // A case whose only motifs are kill/stream legs still perturbs
        // the replay leg: give the busiest host one transient outage so
        // every plan exercises recovery.
        if faults.is_empty() {
            faults.push(Fault::TransientOutage {
                host: busiest,
                at: 0.25 * est,
                down_for: 6.0 * tick,
            });
        }
        faults.sort_by(|x, y| x.at().total_cmp(&y.at()));

        FuzzCase {
            version: FUZZ_CASE_VERSION,
            seed,
            base,
            classes,
            plan: FaultPlan { seed: seed ^ 0x5EED_F457, faults },
            checkpoint: rng.gen_bool(0.5),
            kills,
            stream,
        }
    }
}

// ---------------------------------------------------------------------
// Invariant engine
// ---------------------------------------------------------------------

/// The invariant catalogue every fuzz case is property-checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Invariant {
    /// Zero lost admitted tasks: no replay task fails terminally, the
    /// runtime work ledger accounts every started task, all-transient
    /// plans recover every fault, and the streaming broker conserves
    /// admitted submissions.
    NoLostTasks,
    /// Makespan inflation stays under the per-fault-class ceiling.
    InflationCeiling,
    /// No tenant waits past its aging starvation bound.
    StarvationBound,
    /// Two replays of the same case produce byte-identical reports.
    ReplayDeterminism,
    /// The durable (journaled) replay equals the plain one bit for bit,
    /// and kill-and-restart recovery reaches the sealed WAL state.
    DurableRecovery,
}

impl Invariant {
    /// Every invariant, in check order.
    pub const ALL: [Invariant; 5] = [
        Invariant::NoLostTasks,
        Invariant::InflationCeiling,
        Invariant::StarvationBound,
        Invariant::ReplayDeterminism,
        Invariant::DurableRecovery,
    ];

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Invariant::NoLostTasks => "no-lost-tasks",
            Invariant::InflationCeiling => "inflation-ceiling",
            Invariant::StarvationBound => "starvation-bound",
            Invariant::ReplayDeterminism => "replay-determinism",
            Invariant::DurableRecovery => "durable-recovery",
        }
    }
}

/// One invariant violation with a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// What exactly was observed.
    pub detail: String,
}

/// Tunables of the invariant engine.
///
/// The [`InvariantProfile::standard`] profile is the CI gate: ceilings
/// calibrated so a correct control plane passes every seed. The
/// [`InvariantProfile::adversarial`] profile collapses every inflation
/// ceiling to 1.0× — any real perturbation violates it — which is how
/// the shrinker self-tests manufacture reproducible violations without
/// planting a bug.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantProfile {
    /// Scale on the headroom above 1.0× of every per-class inflation
    /// ceiling (1.0 = calibrated ceilings, 0.0 = no headroom at all).
    pub(crate) inflation_scale: f64,
}

impl InvariantProfile {
    /// Calibrated CI-gate ceilings.
    pub fn standard() -> Self {
        InvariantProfile { inflation_scale: 1.0 }
    }

    /// Zero-headroom ceilings (every perturbed run violates
    /// [`Invariant::InflationCeiling`]) — for shrinker self-tests.
    pub fn adversarial() -> Self {
        InvariantProfile { inflation_scale: 0.0 }
    }
}

/// Calibrated inflation ceiling of a single fault class, as a
/// multiplier on the fault-free makespan. Calibrated against a 64-seed
/// sweep with ~30% headroom over the worst observed inflation per
/// class: load waves evict aggressively on single-site bases (observed
/// up to 3.9× alone, 5.7× composed), a lone busiest-host outage under
/// the scaled backoff already costs up to 3.9× (the FlashCrowd /
/// ProcessKill fallback perturbation), link noise stays cheap.
pub(crate) fn class_ceiling(class: FaultClass) -> f64 {
    match class {
        FaultClass::Churn => 4.5,
        FaultClass::CorrelatedOutage => 4.5,
        FaultClass::PartitionStorm => 4.5,
        FaultClass::LoadWave => 6.0,
        FaultClass::LinkNoise => 3.0,
        FaultClass::FlashCrowd => 4.2,
        FaultClass::ProcessKill => 4.2,
    }
}

/// Inflation ceiling of a composition: the worst single-class ceiling
/// plus 0.75× headroom per extra composed class, scaled by the profile.
/// The fold starts at 1.0× (no inflation), below every class ceiling.
pub(crate) fn inflation_ceiling(classes: &[FaultClass], profile: &InvariantProfile) -> f64 {
    let worst = classes.iter().map(|c| class_ceiling(*c)).fold(1.0, f64::max);
    let compose = 0.75 * classes.len().saturating_sub(1) as f64;
    1.0 + (worst + compose - 1.0) * profile.inflation_scale
}

/// Verdict of checking one case against the whole catalogue.
#[derive(Debug, Clone, Serialize)]
pub struct CaseOutcome {
    /// Generator seed.
    pub seed: u64,
    /// Base scenario label.
    pub base: String,
    /// Composed class labels.
    pub classes: Vec<String>,
    /// Faults in the replay-leg plan.
    pub faults: usize,
    /// Observed makespan inflation of the replay leg.
    pub inflation: f64,
    /// The ceiling it was checked against.
    pub ceiling: f64,
    /// Did the case carry a streaming leg?
    pub has_stream: bool,
    /// Violations found (empty = clean run).
    pub violations: Vec<Violation>,
}

impl CaseOutcome {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One case's runs, each made at most once, when a check first reads it:
/// the first replay with the work ledger of its trace, a repeat replay,
/// the durable replay with its kill sweep, and the stream leg's two runs.
struct Runs<'c> {
    case: &'c FuzzCase,
    scenario: Scenario,
    cfg: ReplayConfig,
    /// Trace the first replay? Only [`Invariant::NoLostTasks`] reads the
    /// ledger, and tracing slows the shrinker's every oracle call.
    traced: bool,
    first: OnceCell<(RecoveryReport, Option<WorkLedger>)>,
    repeat: OnceCell<RecoveryReport>,
    /// What the durable replay or its kill sweep got wrong, if anything.
    durable: OnceCell<Option<String>>,
    streams: [OnceCell<Option<StreamReport>>; 2],
}

impl<'c> Runs<'c> {
    /// The runs of `case` that checking `invariants` reads.
    fn new(case: &'c FuzzCase, invariants: &[Invariant]) -> Self {
        let scenario = case.base.build();
        let (est, _) = schedule_estimate(&scenario);
        let cfg = case.replay_config(est);
        let traced = invariants.contains(&Invariant::NoLostTasks);
        let (first, repeat, durable) = (OnceCell::new(), OnceCell::new(), OnceCell::new());
        Runs { case, scenario, cfg, traced, first, repeat, durable, streams: Default::default() }
    }

    /// The case's replay as a request with neither option set.
    fn request(&self) -> ReplayRequest<'_> {
        let Scenario { federation, afg, .. } = &self.scenario;
        let (plan, config) = (&self.case.plan, &self.cfg);
        ReplayRequest { federation, afg, plan, config, obs: None, durable: None }
    }

    /// The first replay and, if traced, the work ledger rebuilt from its
    /// trace.
    fn first(&self) -> &(RecoveryReport, Option<WorkLedger>) {
        self.first.get_or_init(|| {
            let obs = self.traced.then(Observer::enabled);
            let report =
                run_fault_scenario("fuzz", &ReplayRequest { obs: obs.as_ref(), ..self.request() });
            (report, obs.as_ref().map(ledger_from_observer))
        })
    }

    fn repeat(&self) -> &RecoveryReport {
        self.repeat.get_or_init(|| run_fault_scenario("fuzz", &self.request()))
    }

    fn durable(&self) -> Option<&str> {
        let run = || {
            let opts = DurableOptions::new(SnapshotPolicy::every(256), 8);
            let req = ReplayRequest { durable: Some(&opts), ..self.request() };
            let durable = run_fault_scenario("fuzz", &req);
            if report_json(&durable) != report_json(&self.first().0) {
                return Some("durable replay diverged from the plain replay".to_string());
            }
            let (kills, seed) = (self.case.kills as usize, self.case.seed);
            let err = verify_recovery(&opts.journal, kills, seed).err();
            err.map(|e| format!("kill-and-restart recovery failed: {e}"))
        };
        self.durable.get_or_init(run).as_deref()
    }

    /// Run `i` (0 or 1) of the stream leg, if the case has one.
    fn stream(&self, i: usize) -> Option<&StreamReport> {
        let run = || self.case.stream.as_ref().map(|leg| run_stream(&leg.to_scenario(), None));
        self.streams[i].get_or_init(run).as_ref()
    }
}

fn report_json(r: &RecoveryReport) -> String {
    serde_json::to_string(r).expect("recovery reports always serialise")
}

/// Rebuild the runtime work ledger from an Observer's captured trace —
/// the out-of-process lost-work audit.
pub(crate) fn ledger_from_observer(obs: &Observer) -> WorkLedger {
    let records = obs.trace.records();
    WorkLedger::from_trace_names(records.iter().map(|r| {
        let task = r.fields.iter().find(|(k, _)| k == "task").and_then(|(_, v)| match v {
            FieldValue::U64(u) => Some(*u),
            FieldValue::I64(i) => u64::try_from(*i).ok(),
            _ => None,
        });
        (r.name.as_str(), task)
    }))
}

/// The one check of `invariant`: its violations in `runs`, in the order
/// found. The sweep ([`check_case`]) reports them all, the shrinker's
/// oracle ([`check_invariant`]) the first.
fn violations(runs: &Runs<'_>, invariant: Invariant, profile: &InvariantProfile) -> Vec<Violation> {
    let case = runs.case;
    let mut out = Vec::new();
    let mut fail = |detail: String| out.push(Violation { invariant, detail });
    match invariant {
        Invariant::NoLostTasks => {
            let (report, ledger) = runs.first();
            let ledger = ledger.as_ref().expect("checking NoLostTasks traces the first replay");
            if report.tasks_failed > 0 {
                fail(format!("{} replay tasks failed terminally", report.tasks_failed));
            }
            if ledger.lost > 0 {
                fail(format!(
                    "work ledger lost {} started tasks (started {}, finished {})",
                    ledger.lost, ledger.started, ledger.finished
                ));
            }
            if case.plan.is_all_transient() && !report.recovered_all() {
                fail("all-transient plan left unrecovered faults".to_string());
            }
            let (Some(sr), Some(leg)) = (runs.stream(0), &case.stream) else { return out };
            if !sr.conservation_ok() {
                fail(format!(
                    "stream broker lost {} admitted submissions (admitted {}, completed {}, unplaced {})",
                    sr.lost_admitted(),
                    sr.admitted,
                    sr.completed,
                    sr.unplaced
                ));
            }
            if leg.faults.is_all_transient() && sr.unplaced > 0 {
                fail(format!(
                    "{} admitted submissions unplaced although every stream fault healed",
                    sr.unplaced
                ));
            }
        }
        Invariant::InflationCeiling => {
            let (inflation, ceiling) =
                (runs.first().0.inflation, inflation_ceiling(&case.classes, profile));
            if inflation > ceiling {
                fail(format!("inflation {inflation:.3}x exceeds ceiling {ceiling:.3}x"));
            }
        }
        Invariant::StarvationBound => {
            if let Some(sr) = runs.stream(0).filter(|sr| sr.starved_tenants > 0) {
                fail(sr.worst_wait_excess().map_or_else(
                    || "starved tenant without a row".to_string(),
                    |(t, ex)| format!("tenant {t} overshot its aging bound by {ex:.1}s"),
                ));
            }
        }
        Invariant::ReplayDeterminism => {
            if report_json(runs.repeat()) != report_json(&runs.first().0) {
                fail("second replay produced a different recovery report".to_string());
            }
            if let (Some(x), Some(y)) = (runs.stream(0), runs.stream(1)) {
                if x != y {
                    fail(format!(
                        "stream replays diverged (digests {:016x} vs {:016x})",
                        x.placements_digest, y.placements_digest
                    ));
                }
            }
        }
        Invariant::DurableRecovery => {
            if let Some(detail) = runs.durable() {
                fail(detail.to_string());
            }
        }
    }
    out
}

/// Check every invariant against one case, each run shared by every
/// check that reads it: the replay leg runs three times (traced, repeat,
/// durable) and the stream leg twice.
pub fn check_case(case: &FuzzCase, profile: &InvariantProfile) -> CaseOutcome {
    let runs = Runs::new(case, &Invariant::ALL);
    let violations =
        Invariant::ALL.iter().flat_map(|&inv| violations(&runs, inv, profile)).collect();
    CaseOutcome {
        seed: case.seed,
        base: case.base.label().to_string(),
        classes: case.classes.iter().map(|c| c.label().to_string()).collect(),
        faults: case.plan.faults.len(),
        inflation: runs.first().0.inflation,
        ceiling: inflation_ceiling(&case.classes, profile),
        has_stream: case.stream.is_some(),
        violations,
    }
}

/// Check a single invariant, making only the runs it reads — the
/// shrinker's evaluation oracle. Returns the first violation, if any.
pub fn check_invariant(
    case: &FuzzCase,
    invariant: Invariant,
    profile: &InvariantProfile,
) -> Option<Violation> {
    violations(&Runs::new(case, &[invariant]), invariant, profile).into_iter().next()
}

// ---------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------

/// Result of shrinking one violating case.
#[derive(Debug, Clone, Serialize)]
pub struct ShrinkOutcome {
    /// The minimised case (still violates `invariant`).
    pub shrunk: FuzzCase,
    /// The invariant preserved throughout.
    pub invariant: Invariant,
    /// Oracle evaluations spent.
    pub evals: u32,
    /// Full pass-pipeline iterations until fixpoint.
    pub passes: u32,
    /// Faults in the original plan.
    pub original_faults: usize,
    /// Faults left after shrinking.
    pub shrunk_faults: usize,
}

/// Shed one site from the larger cell of a partition; `None` once only
/// one site remains per side.
fn shed_partition_site(f: &mut Fault) -> Option<()> {
    let Fault::SitePartition { a, b, .. } = f else { return None };
    let larger = if a.len() >= b.len() { a } else { b };
    (larger.len() > 1).then(|| {
        larger.pop();
    })
}

/// The case shrunk so far and the oracle calls spent on it.
struct Shrinker<'p> {
    cur: FuzzCase,
    invariant: Invariant,
    profile: &'p InvariantProfile,
    max_evals: u32,
    evals: u32,
    /// Did this pass keep an edit?
    changed: bool,
}

impl Shrinker<'_> {
    /// Apply `edit` to a copy of the current case and keep the copy if it
    /// still violates the invariant. An edit that does not apply returns
    /// `None`; it costs no oracle call, and nothing is tried once the
    /// budget is spent.
    fn keep(&mut self, edit: impl FnOnce(&mut FuzzCase) -> Option<()>) -> bool {
        let mut cand = self.cur.clone();
        if edit(&mut cand).is_none() || self.evals >= self.max_evals {
            return false;
        }
        self.evals += 1;
        let kept = check_invariant(&cand, self.invariant, self.profile).is_some();
        if kept {
            self.cur = cand;
            self.changed = true;
        }
        kept
    }
}

/// Delta-debug `case` down to a (1-)minimal reproducer that still
/// violates `invariant` under `profile`.
///
/// Deterministic: no randomness anywhere in the pass pipeline, so the
/// same (case, invariant, profile) triple always shrinks to the same
/// reproducer. The pipeline iterates to a fixpoint: ddmin-style chunked
/// fault drops, per-fault window halving, partition-cell shedding,
/// stream-leg reduction, kill-count and checkpoint simplification. Each
/// is one kind of edit, kept while the edited case still violates.
/// When it exits below `max_evals`, the result is 1-minimal — dropping
/// any single remaining fault loses the violation.
pub fn shrink(
    case: &FuzzCase,
    invariant: Invariant,
    profile: &InvariantProfile,
    max_evals: u32,
) -> ShrinkOutcome {
    let floor = {
        let (est, _) = schedule_estimate(&case.base.build());
        (est / 64.0).max(1e-3)
    };
    let cur = case.clone();
    let mut s = Shrinker { cur, invariant, profile, max_evals, evals: 0, changed: false };
    let mut passes = 0u32;

    loop {
        passes += 1;
        s.changed = false;

        // 1. ddmin-style chunked fault drops, coarse to fine.
        let mut chunk = (s.cur.plan.faults.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i < s.cur.plan.faults.len() {
                let hi = (i + chunk).min(s.cur.plan.faults.len());
                if !s.keep(|c| {
                    c.plan.faults.drain(i..hi);
                    Some(())
                }) {
                    i = hi;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // 2. Halve fault windows down to one replay tick.
        for i in 0..s.cur.plan.faults.len() {
            while s.keep(|c| {
                let d = c.plan.faults[i].window_mut()?;
                (*d > 2.0 * floor).then(|| *d /= 2.0)
            }) {}
        }

        // 3. Shed partition sites.
        for i in 0..s.cur.plan.faults.len() {
            while s.keep(|c| shed_partition_site(&mut c.plan.faults[i])) {}
        }

        // 4. Stream leg: drop it whole, else shed its faults and
        //    shrink the burst.
        s.keep(|c| c.stream.take().map(drop));
        let mut i = 0;
        while i < s.cur.stream.as_ref().map_or(0, |l| l.faults.faults.len()) {
            if !s.keep(|c| {
                c.stream.as_mut()?.faults.faults.remove(i);
                Some(())
            }) {
                i += 1;
            }
        }
        while s.keep(|c| {
            let horizon = &mut c.stream.as_mut()?.trace.horizon_s;
            (*horizon > 16.0).then(|| *horizon /= 2.0)
        }) {}
        while s.keep(|c| {
            let tenants = &mut c.stream.as_mut()?.trace.tenants;
            (*tenants > 1).then(|| *tenants /= 2)
        }) {}

        // 5. Kill count to the harness minimum.
        s.keep(|c| (c.kills > 2).then(|| c.kills = 2));

        // 6. Checkpointing off.
        s.keep(|c| c.checkpoint.then(|| c.checkpoint = false));

        if !s.changed || s.evals >= max_evals {
            break;
        }
    }

    let (original_faults, shrunk_faults) = (case.plan.faults.len(), s.cur.plan.faults.len());
    let Shrinker { cur: shrunk, evals, .. } = s;
    ShrinkOutcome { shrunk, invariant, evals, passes, original_faults, shrunk_faults }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_versioned() {
        let a = FuzzCase::generate(42);
        let b = FuzzCase::generate(42);
        assert_eq!(a, b);
        assert_eq!(a.version, FUZZ_CASE_VERSION);
        assert!(!a.plan.faults.is_empty(), "every case perturbs the replay leg");
        let c = FuzzCase::generate(43);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn seeds_cover_every_fault_class() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            for c in FuzzCase::generate(seed).classes {
                seen.insert(c);
            }
        }
        assert_eq!(seen.len(), FaultClass::ALL.len(), "64 seeds should draw every motif: {seen:?}");
    }

    #[test]
    fn cases_round_trip_through_json() {
        for seed in [1u64, 7, 19, 40] {
            let case = FuzzCase::generate(seed);
            let json = case.to_json();
            let back = FuzzCase::from_json(&json).expect("round trip");
            assert_eq!(case, back);
        }
        assert!(FuzzCase::from_json("{").is_err());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut case = FuzzCase::generate(1);
        case.version = FUZZ_CASE_VERSION + 1;
        let err = FuzzCase::from_json(&case.to_json()).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn adversarial_profile_collapses_ceilings() {
        let classes = [FaultClass::Churn, FaultClass::PartitionStorm];
        let standard = inflation_ceiling(&classes, &InvariantProfile::standard());
        let adversarial = inflation_ceiling(&classes, &InvariantProfile::adversarial());
        assert!(standard > 2.0);
        assert!((adversarial - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_composition_is_held_to_its_own_classes_ceilings() {
        let standard = InvariantProfile::standard();
        assert_eq!(inflation_ceiling(&[FaultClass::LinkNoise], &standard), 3.0);
        let composed = [FaultClass::LoadWave, FaultClass::LinkNoise];
        assert_eq!(inflation_ceiling(&composed, &standard), 6.75);
    }

    #[test]
    fn clean_seed_passes_every_invariant() {
        let case = FuzzCase::generate(3);
        let outcome = check_case(&case, &InvariantProfile::standard());
        assert!(outcome.ok(), "seed 3 should run clean: {:?}", outcome.violations);
    }

    #[test]
    fn shrinking_preserves_the_violated_invariant() {
        // Zero-headroom ceilings make any perturbed run a violation,
        // so the shrinker has something real to minimise.
        let profile = InvariantProfile::adversarial();
        let case = FuzzCase::generate(5);
        let violation = check_invariant(&case, Invariant::InflationCeiling, &profile)
            .expect("adversarial profile must flag inflation");
        assert_eq!(violation.invariant, Invariant::InflationCeiling);
        let out = shrink(&case, Invariant::InflationCeiling, &profile, 200);
        assert!(out.shrunk_faults <= out.original_faults);
        assert!(
            check_invariant(&out.shrunk, Invariant::InflationCeiling, &profile).is_some(),
            "shrunk case must still violate the same invariant"
        );
    }
}
