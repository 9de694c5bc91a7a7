//! Wide-area scheduling: how the k-nearest-neighbour federation size
//! (step 2 of the Site Scheduler Algorithm, Figure 2) affects schedule
//! length — the headline claim of §3, swept live.
//!
//! ```sh
//! cargo run --release --example multi_site
//! ```

use vdce_sim::dag_gen::{layered_random, DagSpec};
use vdce_sim::pool_gen::{build_federation, FederationSpec, WanShape};
use vdce_sim::{compare_schedulers, comparison_table, SchedulerKind};

fn main() {
    let spec = FederationSpec {
        sites: 6,
        hosts_per_site: 6,
        heterogeneity: 6.0,
        shape: WanShape::Metro(3),
        seed: 11,
        ..FederationSpec::default()
    };
    let fed = build_federation(&spec);
    let views = fed.views();
    let afg = layered_random(&DagSpec { tasks: 80, width: 8, ..DagSpec::default() }, 21);
    println!(
        "workload: {} tasks, {} edges, {} B total dataflow\n",
        afg.task_count(),
        afg.edge_count(),
        afg.total_traffic()
    );

    // Sweep k = 0 (local only) up to the whole federation.
    let kinds: Vec<SchedulerKind> = (0..spec.sites)
        .map(|k| SchedulerKind::Vdce { k })
        .chain([
            SchedulerKind::Random(1),
            SchedulerKind::RoundRobin,
            SchedulerKind::MinMin,
            SchedulerKind::Heft,
        ])
        .collect();
    let rows = compare_schedulers(&afg, &views[0], &views[1..], &fed.net, &kinds);
    println!("{}", comparison_table(&rows).render());

    // Shape check: involving neighbours must never hurt, and usually
    // helps on a heterogeneous federation.
    let k0 = rows.iter().find(|r| r.algorithm == "vdce(k=0)").unwrap();
    let kmax = rows.iter().find(|r| r.algorithm == format!("vdce(k={})", spec.sites - 1)).unwrap();
    println!(
        "k=0 → {:.3}s   k={} → {:.3}s   ({:.1}% improvement)",
        k0.makespan,
        spec.sites - 1,
        kmax.makespan,
        100.0 * (1.0 - kmax.makespan / k0.makespan)
    );
    assert!(kmax.makespan <= k0.makespan * 1.001);
}
