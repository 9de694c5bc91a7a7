//! E2 / Figure 2 — the Site Scheduler Algorithm: schedule length vs the
//! neighbour count k, the federation size, and the
//! communication-to-computation ratio (CCR).
//!
//! Reconstructed claim under test (§3): involving the k nearest
//! neighbour sites shortens the schedule, and transfer-aware placement
//! keeps children near parents when communication dominates.

use vdce_bench::{bench_dag_ccr, bench_federation, split_views};
use vdce_obs::Report;
use vdce_sim::{compare_schedulers, geomean, SchedulerKind, Table};

fn main() {
    let seeds = [1u64, 2, 3, 4, 5];

    // --- Sweep k for several federation sizes -------------------------
    let mut t1 = Table::new(&["sites", "k", "geomean_makespan_s", "vs_k0"]);
    for &sites in &[2usize, 4, 8] {
        let fed = bench_federation(sites, 6);
        let views = fed.views();
        let (local, remotes) = split_views(&views);
        let mut base = None;
        for k in 0..sites {
            let mut spans = Vec::new();
            for &seed in &seeds {
                let afg = bench_dag_ccr(60, 1.0, seed);
                let rows = compare_schedulers(
                    &afg,
                    local,
                    remotes,
                    &fed.net,
                    &[SchedulerKind::Vdce { k }],
                );
                spans.push(rows[0].makespan);
            }
            let g = geomean(&spans).unwrap();
            let base_v = *base.get_or_insert(g);
            t1.row(&[
                sites.to_string(),
                k.to_string(),
                format!("{g:.4}"),
                format!("{:.3}x", base_v / g),
            ]);
        }
    }
    // --- Sweep CCR ------------------------------------------------------
    // Reproduction finding: the paper's greedy site scheduler (Figure 2)
    // assigns every task to the per-site prediction argmin, which on a
    // static pool concentrates the whole application on the single
    // fastest host — so it pays no transfers at all and is CCR-flat. A
    // contention-aware mapper (min-min) spreads tasks and therefore feels
    // CCR. Both shapes are printed for EXPERIMENTS.md.
    let mut t2 =
        Table::new(&["ccr_scale", "vdce_k3_s", "min_min_s", "local_only_s", "federation_gain"]);
    let fed = bench_federation(4, 6);
    let views = fed.views();
    let (local, remotes) = split_views(&views);
    for &ccr in &[0.1f64, 1.0, 10.0, 100.0] {
        let (mut v, mut m, mut l) = (Vec::new(), Vec::new(), Vec::new());
        for &seed in &seeds {
            let afg = bench_dag_ccr(60, ccr, seed);
            let rows = compare_schedulers(
                &afg,
                local,
                remotes,
                &fed.net,
                &[SchedulerKind::Vdce { k: 3 }, SchedulerKind::MinMin, SchedulerKind::LocalOnly],
            );
            v.push(rows[0].makespan);
            m.push(rows[1].makespan);
            l.push(rows[2].makespan);
        }
        let (gv, gm, gl) = (geomean(&v).unwrap(), geomean(&m).unwrap(), geomean(&l).unwrap());
        t2.row(&[
            format!("{ccr}"),
            format!("{gv:.4}"),
            format!("{gm:.4}"),
            format!("{gl:.4}"),
            format!("{:.3}x", gl / gv),
        ]);
    }
    Report::new("E2 / Figure 2: site-scheduler federation sweep")
        .table(t1)
        .text("CCR sweep (communication-to-computation ratio):")
        .table(t2)
        .note(
            "federation_gain > 1 ⇒ using k=3 neighbour sites beats local-only; \
             vdce is CCR-flat because greedy argmin placement concentrates on one \
             host — min-min spreads work and rises with CCR",
        )
        .print();
}
