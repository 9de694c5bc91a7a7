//! Reference ≡ classed ≡ observed on the *palette* workload: problem
//! sizes quantised to four library-kernel granularities (so
//! `(library task, size, host)` triples repeat — the structure the
//! predict memo exploits) and every third task an 8-node parallel task
//! (so multi-node selection, where the reference re-predicts every
//! ranking prefix, is exercised). `prop_sched` asserts the same contract
//! on ~20-task random graphs; this pins it at 50 / 200 / 1 000 tasks
//! over 2 and 8 sites.

use vdce_bench::{bench_dag, bench_federation, shape_palette_workload, split_views};
use vdce_obs::MetricsRegistry;
use vdce_sched::site_scheduler::{site_schedule, site_schedule_observed, SchedulerConfig};

#[test]
fn reference_classed_and_observed_agree_on_the_palette_workload() {
    let reference =
        SchedulerConfig { k_neighbours: 3, sequential: true, ..SchedulerConfig::default() };
    let classed = SchedulerConfig { sequential: false, ..reference };
    for tasks in [50usize, 200, 1000] {
        for sites in [2usize, 8] {
            let fed = bench_federation(sites, 8);
            let views = fed.views();
            let (local, remotes) = split_views(&views);
            let mut afg = bench_dag(tasks, 42);
            shape_palette_workload(&mut afg);

            let r = site_schedule(&afg, local, remotes, &fed.net, &reference).unwrap();
            let c = site_schedule(&afg, local, remotes, &fed.net, &classed).unwrap();
            let metrics = MetricsRegistry::new();
            let o =
                site_schedule_observed(&afg, local, remotes, &fed.net, &classed, &metrics).unwrap();

            assert!(r.is_complete_for(&afg), "{tasks} tasks / {sites} sites");
            for other in [&c, &o] {
                assert_eq!(&r, other, "{tasks} tasks / {sites} sites");
                assert_eq!(r.to_json(), other.to_json(), "{tasks} tasks / {sites} sites");
                for (a, b) in r.iter().zip(other.iter()) {
                    assert_eq!(a.predicted_seconds.to_bits(), b.predicted_seconds.to_bits());
                }
            }
            assert_eq!(metrics.counter("sched.tasks_placed"), tasks as u64);
        }
    }
}
