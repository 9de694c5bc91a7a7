//! `incr_churn`: the scheduler used as an *update* rather than a
//! from-scratch read. A standing 10k-task schedule absorbs a seeded sequence
//! of monitor events — a loaded host at an involved site goes Down, later Up
//! again; each op re-captures the event site's view, re-runs its host
//! selection and lets `IncrementalSchedule::apply` re-place what changed.
//! Precomputation that helps `batch_wide` can cost `apply`; this is where
//! that shows.

use super::{timed, LayerValues, OpRecorder, PassOutcome, Scale, SetupTimes, SplitMix, Workload};
use crate::layers;
use crate::trace::Tracer;
use std::collections::{BTreeSet, VecDeque};
use vdce_afg::Afg;
use vdce_net::topology::SiteId;
use vdce_predict::cache::PredictCache;
use vdce_sched::{HostSelectionOutput, IncrementalSchedule, ReschedulingDelta};
use vdce_sim::pool_gen::Federation;

const TASKS: usize = 10_000;
const SITES: usize = 8;
const HOSTS: usize = 8;
const K: usize = 3;
/// The federation is the deployment, not the workload: it keeps one seed.
const FEDERATION_SEED: u64 = 1234;
/// Monitor events per pass. Every Down is followed by its Up inside the
/// pass, so a pass ends in the state it began in and passes repeat exactly.
const EVENTS: usize = 512;
/// Hosts down at once, at most. With `K + 1 = 4` involved sites of 8 hosts,
/// two down hosts always leave two sites able to run the 8-node tasks.
const MAX_DOWN: usize = 2;
/// The full re-walk comparison runs on every this-many-th event of `check`.
const REWALK_EVERY: usize = 64;

/// One monitor event: host `host` of involved site number `slot` changes state.
struct Event {
    slot: usize,
    host: String,
    up: bool,
}

/// See the module docs.
pub struct IncrChurn {
    afg: Afg,
    fed: Federation,
    /// Involved sites, local first; `outputs` and `Event::slot` index this.
    sites: Vec<SiteId>,
    levels: Vec<f64>,
    cache: PredictCache,
    outputs: Vec<HostSelectionOutput>,
    inc: IncrementalSchedule,
    events: Vec<Event>,
    times: SetupTimes,
}

/// Add one event's delta to a pass's running total.
fn accumulate(total: &mut ReschedulingDelta, d: ReschedulingDelta) {
    total.dirty += d.dirty;
    total.replaced += d.replaced;
    total.moved += d.moved;
}

impl IncrChurn {
    /// Generate the inputs from `seed`.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let (afg, dag_gen_s) = timed(|| layers::palette_dag(scale.of(TASKS), seed));
        let (fed, pool_gen_s) = timed(|| layers::federation(SITES, HOSTS, FEDERATION_SEED));
        let sites = layers::involved_sites(&fed.net, SiteId(0), K);
        let cache = layers::predict_cache();
        let outputs: Vec<HostSelectionOutput> = sites
            .iter()
            .map(|&s| {
                layers::host_selection(&layers::capture(s, &fed.repos[s.index()]), &afg, &cache)
            })
            .collect();
        let levels = layers::levels(&afg, &layers::capture(SiteId(0), &fed.repos[0]));
        let inc = layers::incremental_new(&afg, SiteId(0), outputs.clone(), &fed.net);
        let events = Self::events(&inc, &sites, scale.of(EVENTS), seed);
        IncrChurn {
            afg,
            fed,
            sites,
            levels,
            cache,
            outputs,
            inc,
            events,
            times: SetupTimes { dag_gen_s, pool_gen_s, arrivals_s: 0.0 },
        }
    }

    /// The seeded Down/Up sequence over hosts that carry placements.
    fn events(inc: &IncrementalSchedule, sites: &[SiteId], n: usize, seed: u64) -> Vec<Event> {
        let loaded: BTreeSet<(usize, String)> = inc
            .table()
            .iter()
            .filter_map(|p| sites.iter().position(|&s| s == p.site).map(|slot| (slot, p)))
            .flat_map(|(slot, p)| p.hosts.iter().map(move |h| (slot, h.clone())))
            .collect();
        let loaded: Vec<(usize, String)> = loaded.into_iter().collect();
        assert!(loaded.len() > MAX_DOWN, "the schedule must load more hosts than go down");
        let mut rng = SplitMix(seed ^ 0xc4u64);
        let mut down: VecDeque<(usize, String)> = VecDeque::new();
        let mut events = Vec::with_capacity(n);
        for i in 0..n {
            let must_heal = down.len() >= n - i;
            let may_fail = down.len() < MAX_DOWN && !must_heal && n - i > down.len() + 1;
            if may_fail && (down.is_empty() || rng.below(2) == 0) {
                let victim = loop {
                    let v = &loaded[rng.below(loaded.len() as u64) as usize];
                    if !down.contains(v) {
                        break v.clone();
                    }
                };
                events.push(Event { slot: victim.0, host: victim.1.clone(), up: false });
                down.push_back(victim);
            } else {
                let (slot, host) = down.pop_front().expect("a host is down whenever none may fail");
                events.push(Event { slot, host, up: true });
            }
        }
        assert!(down.is_empty(), "every Down heals inside the pass");
        events
    }

    /// The monitor's half of event `i`: flip the host's status in its site
    /// repository. Not part of the measured op.
    fn inject(&self, i: usize) {
        let e = &self.events[i];
        let repo = &self.fed.repos[self.sites[e.slot].index()];
        layers::set_host_up(repo, &e.host, e.up);
    }

    /// The scheduler's half of event `i`, undecomposed.
    fn absorb(&mut self, i: usize) -> ReschedulingDelta {
        let slot = self.events[i].slot;
        let site = self.sites[slot];
        let view = layers::capture(site, &self.fed.repos[site.index()]);
        self.outputs[slot] = layers::host_selection(&view, &self.afg, &self.cache);
        layers::incremental_apply(&mut self.inc, &self.afg, self.outputs.clone())
    }

    fn outcome(&self, totals: &ReschedulingDelta, failed: u64) -> PassOutcome {
        let n = self.events.len() as u64;
        PassOutcome {
            digest: layers::table_digest(self.inc.table())
                ^ (totals.dirty as u64).rotate_left(40)
                ^ (totals.replaced as u64).rotate_left(20)
                ^ totals.moved as u64,
            offered: n,
            served: n - failed,
            failed,
        }
    }

    fn rewalk_matches(&self) -> bool {
        let full =
            layers::walk(&self.afg, &self.levels, SiteId(0), &self.outputs, &self.fed.net, None);
        layers::tables_bit_identical(self.inc.table(), &full)
    }
}

impl Workload for IncrChurn {
    fn input_digest(&self) -> u64 {
        let mut h = layers::afg_digest(&self.afg);
        for e in &self.events {
            h = h.rotate_left(5) ^ vdce_store::fnv1a(e.host.as_bytes()) ^ u64::from(e.up);
        }
        h
    }

    fn setup_times(&self) -> SetupTimes {
        self.times
    }

    fn pass(&mut self, rec: &mut OpRecorder) -> PassOutcome {
        let mut totals = ReschedulingDelta::default();
        for i in 0..self.events.len() {
            self.inject(i);
            let delta = rec.op(|| self.absorb(i));
            accumulate(&mut totals, delta);
        }
        self.outcome(&totals, 0)
    }

    fn traced_pass(&mut self, tr: &mut Tracer, values: &mut LayerValues) -> PassOutcome {
        let mut totals = ReschedulingDelta::default();
        let tasks = self.afg.task_count() as f64;
        // The memo lives as long as the workload: count this pass's share.
        let cache_before = layers::predict_cache_stats(&self.cache);
        for i in 0..self.events.len() {
            self.inject(i);
            let slot = self.events[i].slot;
            let site = self.sites[slot];
            let op = tr.enter("driver.op");
            let view = tr.span("sched.view_capture", || {
                layers::capture(site, &self.fed.repos[site.index()])
            });
            self.outputs[slot] = tr.span("sched.host_selection", || {
                layers::host_selection(&view, &self.afg, &self.cache)
            });
            let next = tr.span("driver.outputs_clone", || self.outputs.clone());
            let delta = tr.span("sched.incremental.apply", || {
                layers::incremental_apply(&mut self.inc, &self.afg, next)
            });
            tr.count("tasks", tasks);
            tr.count("dirty", delta.dirty as f64);
            tr.count("replaced", delta.replaced as f64);
            tr.count("moved", delta.moved as f64);
            tr.exit(op);
            accumulate(&mut totals, delta);
            if i + 1 == self.events.len() / 2 {
                // The schedule's quality where it is most disturbed: mid-pass.
                let makespan = layers::evaluate(
                    &self.afg,
                    self.inc.table(),
                    &self.fed.net,
                    &self.levels,
                    None,
                );
                values.insert("sched.makespan.predicted_s", makespan);
            }
        }
        let n = self.events.len() as f64;
        values.insert("sched.incremental.dirty", totals.dirty as f64 / n);
        values.insert("sched.incremental.replaced", totals.replaced as f64 / n);
        values.insert("sched.incremental.moved", totals.moved as f64 / n);
        values.insert(
            "sched.incremental.useful_ratio",
            totals.moved as f64 / totals.replaced.max(1) as f64,
        );
        super::record_predict_cache(&self.cache, cache_before, self.events.len(), values);
        self.outcome(&totals, 0)
    }

    fn side_measurements(&mut self, values: &mut LayerValues) {
        let new_s = super::best_of(3, || {
            layers::incremental_new(&self.afg, SiteId(0), self.outputs.clone(), &self.fed.net)
        });
        values.insert("sched.incremental.new_ms", new_s * 1e3);
        super::measure_document_boundary(std::slice::from_ref(&self.afg), values);
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let before = layers::table_digest(self.inc.table());
        for i in 0..self.events.len() {
            self.inject(i);
            self.absorb(i);
            if (i + 1) % REWALK_EVERY == 0 && !self.rewalk_matches() {
                failures.push(format!(
                    "incr_churn: incremental table differs from the full re-walk after event {i}"
                ));
            }
        }
        if layers::table_digest(self.inc.table()) != before {
            failures.push("incr_churn: healing every host did not restore the schedule".into());
        }
        failures
    }
}
