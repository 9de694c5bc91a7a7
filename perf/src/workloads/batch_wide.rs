//! `batch_wide`: the paper's core path at scale — one wide layered AFG
//! scheduled (`site_schedule`) and simulated (`evaluate`) over a 64-site
//! federation. `afg.level`, `sched.host_selection` and `sched.walk` do all
//! the work; service and journal code do none.

use super::{timed, LayerValues, OpRecorder, PassOutcome, Scale, SetupTimes, Workload};
use crate::layers;
use crate::trace::Tracer;
use vdce_afg::Afg;
use vdce_net::topology::SiteId;
use vdce_sched::view::SiteView;
use vdce_sched::{AllocationTable, SchedulerConfig};
use vdce_sim::pool_gen::Federation;

/// Tasks of the AFG. `layered_random` joins leaves in quadratic time, so
/// 40k tasks already cost ~0.5 s to generate — and set-up runs three times
/// per run.
const TASKS: usize = 40_000;
/// Tasks of the down-scaled AFG the sequential reference is compared on.
const REFERENCE_TASKS: usize = 2_000;
const SITES: usize = 64;
const HOSTS: usize = 8;
const K: usize = 3;
/// The federation is the deployment, not the workload: it keeps one seed.
const FEDERATION_SEED: u64 = 1234;
const OPS_PER_PASS: usize = 8;

/// See the module docs.
pub struct BatchWide {
    seed: u64,
    afg: Afg,
    fed: Federation,
    views: Vec<SiteView>,
    cfg: SchedulerConfig,
    levels: Vec<f64>,
    /// The one-call result every op must reproduce.
    expected: AllocationTable,
    expected_makespan: f64,
    times: SetupTimes,
}

impl BatchWide {
    /// Generate the inputs from `seed`.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let tasks = scale.of(TASKS);
        let (afg, dag_gen_s) = timed(|| layers::palette_dag(tasks, seed));
        let (fed, pool_gen_s) = timed(|| layers::federation(SITES, HOSTS, FEDERATION_SEED));
        let views = layers::views(&fed);
        let cfg = layers::sched_config(K, false);
        let levels = layers::levels(&afg, &views[0]);
        let expected = layers::site_schedule(&afg, &views, &fed.net, &cfg, None);
        let expected_makespan = layers::evaluate(&afg, &expected, &fed.net, &levels, None);
        BatchWide {
            seed,
            afg,
            fed,
            views,
            cfg,
            levels,
            expected,
            expected_makespan,
            times: SetupTimes { dag_gen_s, pool_gen_s, arrivals_s: 0.0 },
        }
    }

    fn outcome(&self, failed: u64) -> PassOutcome {
        PassOutcome {
            digest: layers::table_digest(&self.expected) ^ self.expected_makespan.to_bits(),
            offered: OPS_PER_PASS as u64,
            served: OPS_PER_PASS as u64 - failed,
            failed,
        }
    }

    fn op_is_wrong(&self, table: &AllocationTable, makespan: f64) -> bool {
        *table != self.expected || makespan.to_bits() != self.expected_makespan.to_bits()
    }
}

impl Workload for BatchWide {
    fn input_digest(&self) -> u64 {
        layers::afg_digest(&self.afg) ^ self.views.len() as u64
    }

    fn setup_times(&self) -> SetupTimes {
        self.times
    }

    fn pass(&mut self, rec: &mut OpRecorder) -> PassOutcome {
        let mut failed = 0;
        for _ in 0..OPS_PER_PASS {
            let (table, makespan) = rec.op(|| {
                let table =
                    layers::site_schedule(&self.afg, &self.views, &self.fed.net, &self.cfg, None);
                let makespan =
                    layers::evaluate(&self.afg, &table, &self.fed.net, &self.levels, None);
                (table, makespan)
            });
            failed += u64::from(self.op_is_wrong(&table, makespan));
        }
        self.outcome(failed)
    }

    fn traced_pass(&mut self, tr: &mut Tracer, values: &mut LayerValues) -> PassOutcome {
        let (afg, net) = (&self.afg, &self.fed.net);
        let tasks = afg.task_count() as f64;
        let mut failed = 0;
        for _ in 0..OPS_PER_PASS {
            let op = tr.enter("driver.op");
            let levels = tr.span("afg.level", || layers::levels(afg, &self.views[0]));
            tr.count("tasks", tasks);
            let sites =
                tr.span("net.nearest_neighbours", || layers::involved_sites(net, SiteId(0), K));
            let cache = layers::predict_cache();
            let outputs: Vec<_> = sites
                .iter()
                .map(|s| {
                    tr.span("sched.host_selection", || {
                        layers::host_selection(&self.views[s.index()], afg, &cache)
                    })
                })
                .collect();
            let table = tr
                .span("sched.walk", || layers::walk(afg, &levels, SiteId(0), &outputs, net, None));
            tr.count("tasks", tasks);
            let makespan =
                tr.span("sched.makespan", || layers::evaluate(afg, &table, net, &levels, None));
            tr.exit(op);
            failed += u64::from(self.op_is_wrong(&table, makespan));
            super::record_predict_cache(&cache, (0, 0, 0), 1, values);
        }
        values.insert("sched.makespan.predicted_s", self.expected_makespan);
        self.outcome(failed)
    }

    fn side_measurements(&mut self, values: &mut LayerValues) {
        let lookups =
            layers::transfer_cache_lookups(&self.afg, &self.views, &self.fed.net, &self.cfg);
        values.insert("net.transfer_cache.lookups", lookups as f64);
        super::measure_document_boundary(std::slice::from_ref(&self.afg), values);
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        // The optimised path must equal the sequential reference; the
        // reference's linear ready-list scan is quadratic, hence the down-scale.
        let small = layers::palette_dag(REFERENCE_TASKS.min(self.afg.task_count()), self.seed);
        let fast = layers::site_schedule(&small, &self.views, &self.fed.net, &self.cfg, None);
        let reference = layers::site_schedule(
            &small,
            &self.views,
            &self.fed.net,
            &layers::sched_config(K, true),
            None,
        );
        if !layers::tables_bit_identical(&fast, &reference) {
            failures.push(format!(
                "batch_wide: optimised table differs from the sequential reference on the \
                 {}-task down-scale",
                small.task_count()
            ));
        }
        if self.expected.len() != self.afg.task_count() {
            failures.push("batch_wide: not every task was placed".into());
        }
        failures
    }
}
