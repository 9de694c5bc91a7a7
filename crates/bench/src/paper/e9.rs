//! E9 — extension/ablation: HEFT (the first author's later work,
//! TPDS 2002) vs the paper's greedy level-priority site scheduler, over
//! a DAG suite.
//!
//! Expected shape: HEFT's earliest-finish-time placement with b-level
//! ranks beats the VDCE greedy scheduler (which ignores host contention
//! at placement time), increasingly so on wider graphs — this is exactly
//! the gap the authors' own future work closed.

use super::{geomean_makespans, Claims};
use crate::{bench_federation, split_views};
use vdce_obs::Report;
use vdce_sim::dag_gen::{fft_butterfly, fork_join, gauss_elim, layered_random, DagSpec};
use vdce_sim::{SchedulerKind, Table};

pub(super) fn run(_: &mut Claims) -> String {
    let fed = bench_federation(3, 6);
    let views = fed.views();
    let spec = DagSpec::default();

    let suites: Vec<(&str, Vec<vdce_afg::Afg>)> = vec![
        ("layered", (0..4).map(|s| layered_random(&DagSpec { tasks: 60, ..spec }, s)).collect()),
        ("fork-join", (0..4).map(|s| fork_join(8, 4, &spec, s)).collect()),
        ("gauss-elim", (0..4).map(|s| gauss_elim(8, &spec, s)).collect()),
        ("fft-butterfly", (0..4).map(|s| fft_butterfly(8, &spec, s)).collect()),
    ];

    let kinds = [
        SchedulerKind::Vdce { k: 2 },
        SchedulerKind::Heft,
        SchedulerKind::HeftInsertion,
        SchedulerKind::MinMin,
    ];
    let mut t =
        Table::new(&["dag_family", "vdce_s", "heft_s", "heft_ins_s", "min_min_s", "heft_speedup"]);
    for (name, dags) in suites {
        let g = geomean_makespans(dags, split_views(&views), &fed.net, &kinds);
        t.row(&[
            name.to_string(),
            format!("{:.4}", g[0]),
            format!("{:.4}", g[1]),
            format!("{:.4}", g[2]),
            format!("{:.4}", g[3]),
            format!("{:.2}x", g[0] / g[1]),
        ]);
    }
    Report::new("E9: HEFT vs VDCE greedy level scheduler")
        .table(t)
        .note("heft_speedup > 1 ⇒ HEFT shortens the schedule vs the paper's greedy algorithm")
        .render()
}
