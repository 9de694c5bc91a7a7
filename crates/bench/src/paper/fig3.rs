//! E3 / Figure 3 — the Host Selection Algorithm: quality of the
//! predicted-time argmin vs pool size and heterogeneity.
//!
//! Reconstructed claim under test (§3): choosing the resource minimising
//! `Predict(task, R)` beats naive choices, and the advantage grows with
//! pool heterogeneity.

use super::Claims;
use crate::bench_dag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use vdce_obs::Report;
use vdce_predict::model::Predictor;
use vdce_predict::parallel::ParallelModel;
use vdce_sched::host_selection;
use vdce_sim::pool_gen::{build_federation, FederationSpec};
use vdce_sim::Table;

pub(super) fn run(claims: &mut Claims) -> String {
    let afg = bench_dag(60, 9);
    let mut table = Table::new(&[
        "hosts",
        "heterogeneity",
        "predicted_sum_s",
        "random_choice_s",
        "advantage",
        "select_time_ms",
    ]);
    for &hosts in &[4usize, 16, 64, 256] {
        for &het in &[1.0f64, 4.0, 16.0] {
            let fed = build_federation(&FederationSpec {
                sites: 1,
                hosts_per_site: hosts,
                heterogeneity: het,
                seed: 77,
                ..FederationSpec::default()
            });
            let view = fed.views().remove(0);
            let t0 = Instant::now();
            let out = host_selection(&view, &afg, &Predictor::default(), &ParallelModel::default());
            let select_ms = t0.elapsed().as_secs_f64() * 1e3;
            let chosen_sum: f64 = out.choices.values().map(|c| c.predicted_seconds).sum();

            // Naive comparator: a uniformly random eligible host per task.
            let p = Predictor::default();
            let mut rng = StdRng::seed_from_u64(5);
            let host_list: Vec<_> = view.resources.iter().collect();
            let mut random_sum = 0.0;
            for task in afg.task_ids() {
                let node = afg.task(task);
                let h = host_list[rng.gen_range(0..host_list.len())];
                if let Ok(t) = p.predict(&view.tasks, &node.library_task, node.problem_size, h) {
                    random_sum += t;
                }
            }
            claims.check(random_sum >= chosen_sum, || {
                format!(
                    "fig3: the argmin's advantage over a random host is >= 1 \
                     ({hosts} hosts, heterogeneity {het}: {:.4}x)",
                    random_sum / chosen_sum
                )
            });
            table.row(&[
                hosts.to_string(),
                format!("{het}"),
                format!("{chosen_sum:.4}"),
                format!("{random_sum:.4}"),
                format!("{:.2}x", random_sum / chosen_sum),
                format!("{select_ms:.2}"),
            ]);
        }
    }
    Report::new("E3 / Figure 3: host-selection sweep")
        .table(table)
        .note("advantage = Σ predicted time of random choice / Σ predicted time of Figure-3 argmin")
        .render()
}
