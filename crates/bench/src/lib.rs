//! The VDCE experiments and their shared fixtures: one registry
//! ([`exp`]) of the ten paper experiments ([`paper`]) and the ones behind
//! the committed `BENCH_*.json` files, run by the `exp` binary.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod exp;
mod gates;
pub mod paper;

use vdce_sched::view::SiteView;
use vdce_sim::dag_gen::{layered_random, DagSpec};
use vdce_sim::pool_gen::{build_federation, Federation, FederationSpec, WanShape};

/// Standard benchmark federation: `sites` × `hosts` hosts, 4× speed
/// heterogeneity, random WAN, fixed seed.
pub(crate) fn bench_federation(sites: usize, hosts: usize) -> Federation {
    build_federation(&FederationSpec {
        sites,
        hosts_per_site: hosts,
        heterogeneity: 4.0,
        shape: WanShape::Random,
        seed: 1234,
        ..FederationSpec::default()
    })
}

/// Standard benchmark workload: a layered random DAG with `tasks` tasks.
pub(crate) fn bench_dag(tasks: usize, seed: u64) -> vdce_afg::Afg {
    layered_random(&DagSpec { tasks, width: (tasks / 8).max(2), ..DagSpec::default() }, seed)
}

/// A DAG whose communication scale is multiplied by `ccr_scale` (the CCR
/// knob of experiment E2/Fig 2).
pub(crate) fn bench_dag_ccr(tasks: usize, ccr_scale: f64, seed: u64) -> vdce_afg::Afg {
    let base = DagSpec { tasks, width: (tasks / 8).max(2), ..DagSpec::default() };
    let spec = DagSpec {
        min_bytes: (base.min_bytes as f64 * ccr_scale).max(1.0) as u64,
        max_bytes: (base.max_bytes as f64 * ccr_scale).max(2.0) as u64,
        ..base
    };
    layered_random(&spec, seed)
}

/// Split a federation's views into (local, remotes).
pub(crate) fn split_views(views: &[SiteView]) -> (&SiteView, &[SiteView]) {
    (&views[0], &views[1..])
}

/// The library-kernel granularities benchmark tasks run at: the paper's
/// applications call library solvers at a handful of standard matrix
/// sizes (Figure 1), so `(library task, problem size, host)` triples
/// repeat across tasks — the structure the predict memo exploits.
const GRANULARITIES: [u64; 4] = [64_000, 128_000, 256_000, 512_000];

/// Quantise problem sizes to the granularity palette and flip every
/// third task to an 8-node parallel implementation. Shared by the
/// `faults` and `scale` experiments so they run the same workload shape.
pub(crate) fn shape_palette_workload(afg: &mut vdce_afg::Afg) {
    for (i, t) in afg.tasks.iter_mut().enumerate() {
        t.problem_size = GRANULARITIES[t.problem_size as usize % GRANULARITIES.len()];
        if i % 3 == 0 {
            t.props.mode = vdce_afg::ComputationMode::Parallel;
            t.props.num_nodes = 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_valid() {
        let fed = bench_federation(3, 4);
        assert_eq!(fed.views().len(), 3);
        let dag = bench_dag(40, 1);
        assert!(vdce_afg::validate(&dag).is_ok());
        let hi = bench_dag_ccr(40, 10.0, 1);
        let lo = bench_dag_ccr(40, 0.1, 1);
        assert!(hi.total_traffic() > lo.total_traffic() * 10);
    }
}
