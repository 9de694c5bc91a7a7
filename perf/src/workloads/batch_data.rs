//! `batch_data`: the same walk as `batch_wide`, used differently — ~4k
//! reader → transform chains over two-replica datasets on four sites, so
//! every reader's placement goes through the replica argmin and
//! `DatasetInputs::resolve`. A walk speed-up that taxes the data path shows
//! here and nowhere else.

use super::{best_of, timed, LayerValues, OpRecorder, PassOutcome, Scale, SetupTimes, Workload};
use crate::layers;
use crate::trace::Tracer;
use vdce_net::topology::SiteId;
use vdce_sched::{AllocationTable, SchedulerConfig};
use vdce_sim::data::DataScenario;

const CHAINS: usize = 4_000;
/// Chains of the down-scale the sequential reference is compared on (~2k tasks).
const REFERENCE_CHAINS: usize = 1_000;
const DATASET_BYTES: u64 = 32 << 20;
const OPS_PER_PASS: usize = 8;

/// See the module docs.
pub struct BatchData {
    seed: u64,
    sc: DataScenario,
    cfg: SchedulerConfig,
    levels: Vec<f64>,
    expected: AllocationTable,
    expected_makespan: f64,
    times: SetupTimes,
}

impl BatchData {
    /// Generate the inputs from `seed`.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        // The generator builds AFG, federation and catalog in one call.
        let (sc, gen_s) = timed(|| layers::pipeline(scale.of(CHAINS), DATASET_BYTES, seed));
        let cfg = layers::sched_config(3, false);
        let levels = layers::levels(&sc.afg, &sc.views[0]);
        let view = layers::catalog_view(&sc.catalog);
        let expected = layers::site_schedule(&sc.afg, &sc.views, &sc.net, &cfg, Some(&view));
        let expected_makespan = layers::evaluate(&sc.afg, &expected, &sc.net, &levels, Some(&view));
        BatchData {
            seed,
            sc,
            cfg,
            levels,
            expected,
            expected_makespan,
            times: SetupTimes { dag_gen_s: gen_s, pool_gen_s: 0.0, arrivals_s: 0.0 },
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

    fn op_is_wrong(&self, table: &AllocationTable, fits: bool, makespan: f64) -> bool {
        !fits || *table != self.expected || makespan.to_bits() != self.expected_makespan.to_bits()
    }
}

impl Workload for BatchData {
    fn input_digest(&self) -> u64 {
        layers::afg_digest(&self.sc.afg) ^ layers::catalog_state_hash(&self.sc.catalog)
    }

    fn setup_times(&self) -> SetupTimes {
        self.times
    }

    fn pass(&mut self, rec: &mut OpRecorder) -> PassOutcome {
        let sc = &self.sc;
        let mut failed = 0;
        for _ in 0..OPS_PER_PASS {
            let (table, fits, makespan) = rec.op(|| {
                let view = layers::catalog_view(&sc.catalog);
                let table =
                    layers::site_schedule(&sc.afg, &sc.views, &sc.net, &self.cfg, Some(&view));
                let fits = layers::validate_outputs(&sc.afg, &table, &view);
                let makespan =
                    layers::evaluate(&sc.afg, &table, &sc.net, &self.levels, Some(&view));
                (table, fits, makespan)
            });
            failed += u64::from(self.op_is_wrong(&table, fits, makespan));
        }
        self.outcome(failed)
    }

    fn traced_pass(&mut self, tr: &mut Tracer, values: &mut LayerValues) -> PassOutcome {
        let sc = &self.sc;
        let tasks = sc.afg.task_count() as f64;
        let mut failed = 0;
        for _ in 0..OPS_PER_PASS {
            let op = tr.enter("driver.op");
            let view = tr.span("data.catalog.view", || layers::catalog_view(&sc.catalog));
            let levels = tr.span("afg.level", || layers::levels(&sc.afg, &sc.views[0]));
            tr.count("tasks", tasks);
            let sites = tr.span("net.nearest_neighbours", || {
                layers::involved_sites(&sc.net, SiteId(0), self.cfg.k_neighbours)
            });
            let cache = layers::predict_cache();
            let outputs: Vec<_> = sites
                .iter()
                .map(|s| {
                    tr.span("sched.host_selection", || {
                        layers::host_selection(&sc.views[s.index()], &sc.afg, &cache)
                    })
                })
                .collect();
            let table = tr.span("sched.walk", || {
                layers::walk(&sc.afg, &levels, SiteId(0), &outputs, &sc.net, Some(&view))
            });
            tr.count("tasks", tasks);
            let fits = tr.span("sched.validate_outputs", || {
                layers::validate_outputs(&sc.afg, &table, &view)
            });
            let makespan = tr.span("sched.makespan", || {
                layers::evaluate(&sc.afg, &table, &sc.net, &levels, Some(&view))
            });
            tr.exit(op);
            failed += u64::from(self.op_is_wrong(&table, fits, makespan));
            super::record_predict_cache(&cache, (0, 0, 0), 1, values);
        }
        values.insert("sched.makespan.predicted_s", self.expected_makespan);
        self.outcome(failed)
    }

    fn side_measurements(&mut self, values: &mut LayerValues) {
        let sc = &self.sc;
        // `data.resolve`: the walk with datasets minus the same AFG's
        // dataset-free twin over the same host selections.
        let view = layers::catalog_view(&sc.catalog);
        let twin = layers::dataset_free_twin(&sc.afg);
        let cache = layers::predict_cache();
        let sites = layers::involved_sites(&sc.net, SiteId(0), self.cfg.k_neighbours);
        let outputs: Vec<_> = sites
            .iter()
            .map(|s| layers::host_selection(&sc.views[s.index()], &sc.afg, &cache))
            .collect();
        let with_data = best_of(5, || {
            layers::walk(&sc.afg, &self.levels, SiteId(0), &outputs, &sc.net, Some(&view))
        });
        let without =
            best_of(5, || layers::walk(&twin, &self.levels, SiteId(0), &outputs, &sc.net, None));
        values.insert("data.resolve_ms", (with_data - without) * 1e3);

        let history = layers::journal_history(&sc.journal);
        values.insert(
            "data.catalog.state_hash_us",
            best_of(5, || layers::catalog_state_hash(&sc.catalog)) * 1e6,
        );
        values.insert(
            "data.catalog.replay_ms",
            best_of(3, || layers::catalog_replay(&history)) * 1e3,
        );
        let n = 256;
        values.insert(
            "data.catalog.register_us",
            best_of(5, || layers::catalog_register(n, DATASET_BYTES)) * 1e6 / n as f64,
        );
        super::measure_document_boundary(std::slice::from_ref(&sc.afg), values);
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let chains = REFERENCE_CHAINS.min(self.sc.catalog.len());
        let small = layers::pipeline(chains, DATASET_BYTES, self.seed);
        let view = layers::catalog_view(&small.catalog);
        let fast =
            layers::site_schedule(&small.afg, &small.views, &small.net, &self.cfg, Some(&view));
        let reference = layers::site_schedule(
            &small.afg,
            &small.views,
            &small.net,
            &layers::sched_config(self.cfg.k_neighbours, true),
            Some(&view),
        );
        if !layers::tables_bit_identical(&fast, &reference) {
            failures.push(format!(
                "batch_data: optimised table differs from the sequential reference on the \
                 {chains}-chain down-scale"
            ));
        }
        let replayed = layers::catalog_replay(&layers::journal_history(&self.sc.journal));
        if layers::catalog_state_hash(&replayed) != layers::catalog_state_hash(&self.sc.catalog) {
            failures.push("batch_data: journal replay does not reproduce the catalog".into());
        }
        let violations = layers::catalog_violations(&self.sc.catalog);
        if violations != 0 {
            failures.push(format!("batch_data: {violations} storage violation(s)"));
        }
        failures
    }
}
