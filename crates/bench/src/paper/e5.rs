//! E5 — list-scheduling ablation: the level priority (§3) vs FIFO,
//! random and inverse-level dispatch orders, plus the full algorithm
//! comparison.
//!
//! Claim under test: "the node (task) with a higher level value will
//! have a higher priority for scheduling" minimises schedule length.

use super::{geomean_makespans, Claims};
use crate::{bench_dag, bench_federation, split_views};
use vdce_obs::Report;
use vdce_sched::baselines::{priorities, PriorityOrder};
use vdce_sched::evaluate;
use vdce_sched::view::SiteView;
use vdce_sim::{compare_schedulers, comparison_table, geomean, SchedulerKind, Table};

pub(super) fn run(_: &mut Claims) -> String {
    let fed = bench_federation(3, 4);
    let views = fed.views();
    let (local, remotes) = split_views(&views);
    let all: Vec<&SiteView> = views.iter().collect();
    let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];

    let orders = [
        ("level (paper)", PriorityOrder::Level),
        ("fifo", PriorityOrder::Fifo),
        ("random", PriorityOrder::Random(99)),
        ("reverse-level", PriorityOrder::ReverseLevel),
    ];
    // The dispatch-priority ablation needs a placement with host
    // contention (the paper's greedy placement concentrates on one host,
    // where dispatch order cannot matter), so it is run on a spread
    // round-robin placement: same placement, four dispatch orders.
    let mut t = Table::new(&["dispatch_priority", "geomean_makespan_s", "vs_level"]);
    let mut level_base = None;
    let predictor = vdce_predict::model::Predictor::default();
    let cache = vdce_predict::cache::PredictCache::new();
    for (name, order) in orders {
        let mut spans = Vec::new();
        for &seed in &seeds {
            let afg = bench_dag(60, seed);
            let table = vdce_sched::baselines::round_robin_schedule(&afg, &all, &predictor, &cache)
                .unwrap();
            let prios = priorities(&afg, order, &all);
            let sched = evaluate(&afg, &table, &fed.net, &prios, None).unwrap();
            spans.push(sched.makespan);
        }
        let g = geomean(&spans).unwrap();
        let base = *level_base.get_or_insert(g);
        t.row(&[name.to_string(), format!("{g:.4}"), format!("{:.3}x", g / base)]);
    }
    let ablation = Report::new("E5: priority-order ablation")
        .table(t)
        .note(
            "same spread placement, different ready-task dispatch orders; \
             vs_level > 1 ⇒ that dispatch order lengthens the schedule",
        )
        .render();

    // Aggregate the per-seed comparisons.
    let kinds = [
        SchedulerKind::Vdce { k: 2 },
        SchedulerKind::LocalOnly,
        SchedulerKind::Random(1),
        SchedulerKind::RoundRobin,
        SchedulerKind::MinMin,
        SchedulerKind::MaxMin,
        SchedulerKind::Heft,
    ];
    let dags = seeds.iter().map(|&seed| bench_dag(60, seed));
    let mut agg = Table::new(&["algorithm", "geomean_makespan_s"]);
    for (kind, g) in kinds.iter().zip(geomean_makespans(dags, (local, remotes), &fed.net, &kinds)) {
        agg.row(&[kind.name(), format!("{g:.4}")]);
    }

    // One representative single-seed table with sites/hosts columns.
    let afg = bench_dag(60, 1);
    let rows = compare_schedulers(&afg, local, remotes, &fed.net, &kinds);
    let comparison =
        Report::new(&format!("E5b: full algorithm comparison (geomean over {} DAGs)", seeds.len()))
            .table(agg)
            .text("single seed detail:")
            .table(comparison_table(&rows))
            .render();
    ablation + &comparison
}
