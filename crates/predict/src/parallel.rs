//! Multi-node execution-time prediction and node-count selection.
//!
//! "For parallel tasks, the host selection algorithm is updated to select
//! the number of machines required within the site" (§3). The model here
//! is Amdahl's law with a per-node coordination overhead:
//!
//! ```text
//! T(p) = T_comp · ((1 − f) + f / p_eff) + σ · (p − 1)
//! ```
//!
//! where `f` is the kernel's parallel fraction, `σ` the per-extra-node
//! synchronisation cost, and `p_eff` accounts for heterogeneous node
//! speeds: work is distributed proportionally to speed, so with nodes of
//! relative per-node times `t_i` the parallel part finishes in
//! `f · T_comp / Σ (T_ref / t_i)` — i.e. nodes add *harmonic* capacity.

use crate::cache::PredictCache;
use crate::model::{PredictError, Predictor};
use serde::{Deserialize, Serialize};
use vdce_repository::resources::ResourceRecord;
use vdce_repository::TaskPerfDb;

/// Parameters of the parallel-execution model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelModel {
    /// Parallel fraction `f` of the computation (Amdahl).
    pub(crate) parallel_fraction: f64,
    /// Per-extra-node synchronisation cost σ, in seconds.
    pub sync_cost_s: f64,
}

impl Default for ParallelModel {
    fn default() -> Self {
        ParallelModel { parallel_fraction: 0.95, sync_cost_s: 0.010 }
    }
}

/// Predicted completion time of `task` run in parallel across `nodes`
/// (all within one site). The slowest-node effect and heterogeneity are
/// captured by summing the nodes' speed capacities harmonically.
///
/// `nodes` must be non-empty; the single-node case degenerates to
/// [`Predictor::predict`] exactly.
pub fn parallel_seconds(
    predictor: &Predictor,
    model: &ParallelModel,
    tasks: &TaskPerfDb,
    task: &str,
    problem_size: u64,
    nodes: &[&ResourceRecord],
) -> Result<f64, PredictError> {
    assert!(!nodes.is_empty(), "parallel_seconds needs at least one node");
    // Per-node whole-task times through the flat batched kernel (one
    // task-side gather for the whole node set); the first error in node
    // order (down/infeasible node) fails the whole placement.
    let mut per_node = Vec::with_capacity(nodes.len());
    predictor.predict_batch(tasks, task, problem_size, nodes, &mut per_node);
    let mut times = Vec::with_capacity(nodes.len());
    for t in per_node {
        times.push(t?);
    }
    Ok(combine_node_times(model, &times))
}

/// Combine already-predicted per-node times into the model's multi-node
/// time. Separated from the prediction so node-count selection can reuse
/// the per-node times it ranked on instead of re-predicting every prefix.
fn combine_node_times(model: &ParallelModel, times: &[f64]) -> f64 {
    if times.len() == 1 {
        return times[0];
    }
    let f = model.parallel_fraction.clamp(0.0, 1.0);
    // Reference: the fastest node runs the serial fraction.
    let t_ref = times.iter().cloned().fold(f64::INFINITY, f64::min);
    // Harmonic capacity: node i contributes t_ref / t_i of a "reference
    // node" worth of throughput.
    let capacity: f64 = times.iter().map(|t| t_ref / t).sum();
    let serial = (1.0 - f) * t_ref;
    let parallel = f * t_ref / capacity;
    serial + parallel + model.sync_cost_s * (times.len() as f64 - 1.0)
}

/// Choose how many (and which) of `candidates` to use for a parallel task
/// requesting `requested` nodes: try `p = 1 ..= min(requested, |C|)`
/// fastest-first and keep the `p` minimising the predicted time.
///
/// Returns `(chosen nodes (fastest first), predicted seconds)`.
/// `Err` only if *no* candidate can run the task at all.
pub fn best_node_count<'a>(
    predictor: &Predictor,
    model: &ParallelModel,
    tasks: &TaskPerfDb,
    task: &str,
    problem_size: u64,
    requested: u32,
    candidates: &[&'a ResourceRecord],
) -> Result<(Vec<&'a ResourceRecord>, f64), PredictError> {
    // Reference path: evaluate the model directly, re-predicting every
    // prefix the way the algorithm is written in the module docs. Kept
    // as-is so the memoised variant below has a bit-exact oracle.
    let mut ranked: Vec<(&ResourceRecord, f64)> = Vec::new();
    let mut first_err = None;
    for &c in candidates {
        match predictor.predict(tasks, task, problem_size, c) {
            Ok(t) => ranked.push((c, t)),
            Err(e) => first_err = Some(first_err.unwrap_or(e)),
        }
    }
    if ranked.is_empty() {
        return Err(first_err.unwrap_or_else(|| PredictError::UnknownTask(task.to_string())));
    }
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

    let max_p = (requested.max(1) as usize).min(ranked.len());
    let mut best: Option<(usize, f64)> = None;
    for p in 1..=max_p {
        let nodes: Vec<&ResourceRecord> = ranked[..p].iter().map(|(r, _)| *r).collect();
        let t = parallel_seconds(predictor, model, tasks, task, problem_size, &nodes)?;
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((p, t));
        }
    }
    let (p, t) = best.expect("at least p=1 evaluated");
    Ok((ranked[..p].iter().map(|(r, _)| *r).collect(), t))
}

/// The node-count search of [`best_node_count`] over already-predicted
/// times. `feasible` holds `(candidate index, seconds)` of every candidate
/// that can run the task, in candidate order; on `Some((p, seconds))` its
/// first `p` entries are the chosen nodes, fastest first. `None` iff it is
/// empty. Bit-identical to the reference because prediction is
/// deterministic: re-predicting a ranked node (which the reference does
/// per prefix, `O(p²)`) returns exactly the ranked time.
pub fn rank_nodes(
    model: &ParallelModel,
    requested: u32,
    feasible: &mut [(u32, f64)],
) -> Option<(usize, f64)> {
    if feasible.is_empty() {
        return None;
    }
    if requested <= 1 {
        // `p` is forced to 1, so the ranking collapses to an argmin. The
        // reference's stable sort keeps the *first-seen* host among equal
        // times, which a strict `<` scan reproduces, and
        // `combine_node_times` of a singleton is the time itself.
        let mut best = 0;
        for (i, c) in feasible.iter().enumerate().skip(1) {
            if c.1 < feasible[best].1 {
                best = i;
            }
        }
        feasible.swap(0, best);
        return Some((1, feasible[0].1));
    }
    feasible.sort_by(|a, b| a.1.total_cmp(&b.1));
    let times: Vec<f64> = feasible.iter().map(|c| c.1).collect();
    let mut best: Option<(usize, f64)> = None;
    for p in 1..=(requested as usize).min(times.len()) {
        let t = combine_node_times(model, &times[..p]);
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((p, t));
        }
    }
    best
}

/// [`best_node_count`] with per-node predictions going through `cache`
/// (repeated evaluations of the same `(task, size, host)` triple are
/// free) and the prefix search through [`rank_nodes`]; the result is
/// bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn best_node_count_cached<'a>(
    predictor: &Predictor,
    model: &ParallelModel,
    cache: &PredictCache,
    tasks: &TaskPerfDb,
    task: &str,
    problem_size: u64,
    requested: u32,
    candidates: &[&'a ResourceRecord],
) -> Result<(Vec<&'a ResourceRecord>, f64), PredictError> {
    let mut feasible: Vec<(u32, f64)> = Vec::new();
    let mut first_err = None;
    for (i, r) in
        cache.predict_many(predictor, tasks, task, problem_size, candidates).into_iter().enumerate()
    {
        match r {
            Ok(t) => feasible.push((i as u32, t)),
            Err(e) => first_err = Some(first_err.unwrap_or(e)),
        }
    }
    match rank_nodes(model, requested, &mut feasible) {
        Some((p, t)) => Ok((feasible[..p].iter().map(|c| candidates[c.0 as usize]).collect(), t)),
        None => Err(first_err.unwrap_or_else(|| PredictError::UnknownTask(task.to_string()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::MachineType;
    use vdce_repository::resources::HostStatus;

    fn host(name: &str, speed: f64) -> ResourceRecord {
        ResourceRecord::new(name, "10.0.0.1", MachineType::LinuxPc, speed, 1, 1 << 30, "g0")
    }

    fn setup() -> (Predictor, ParallelModel, TaskPerfDb) {
        (Predictor::default(), ParallelModel::default(), TaskPerfDb::standard())
    }

    #[test]
    fn single_node_matches_sequential_prediction() {
        let (p, m, db) = setup();
        let h = host("h", 1.0);
        let seq = p.predict(&db, "LU_Decomposition", 256, &h).unwrap();
        let par = parallel_seconds(&p, &m, &db, "LU_Decomposition", 256, &[&h]).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn two_equal_nodes_speed_up_but_less_than_2x() {
        let (p, m, db) = setup();
        let (h1, h2) = (host("a", 1.0), host("b", 1.0));
        let t1 = parallel_seconds(&p, &m, &db, "LU_Decomposition", 512, &[&h1]).unwrap();
        let t2 = parallel_seconds(&p, &m, &db, "LU_Decomposition", 512, &[&h1, &h2]).unwrap();
        assert!(t2 < t1, "2 nodes must beat 1 on a big LU");
        assert!(t2 > t1 / 2.0, "Amdahl + sync forbid perfect speedup");
    }

    #[test]
    fn slow_extra_node_still_adds_harmonic_capacity() {
        let (p, m, db) = setup();
        let fast = host("fast", 4.0);
        let slow = host("slow", 0.5);
        let alone = parallel_seconds(&p, &m, &db, "Cholesky", 512, &[&fast]).unwrap();
        let both = parallel_seconds(&p, &m, &db, "Cholesky", 512, &[&fast, &slow]).unwrap();
        // The slow node contributes 1/8 of the fast node's throughput;
        // the pair must not be slower than the fast node alone by more
        // than the sync cost.
        assert!(both < alone + m.sync_cost_s + 1e-9);
    }

    #[test]
    fn down_node_fails_the_placement() {
        let (p, m, db) = setup();
        let ok = host("ok", 1.0);
        let mut dead = host("dead", 1.0);
        dead.status = HostStatus::Down;
        assert!(parallel_seconds(&p, &m, &db, "Cholesky", 128, &[&ok, &dead]).is_err());
    }

    #[test]
    fn best_node_count_prefers_more_nodes_for_big_problems() {
        let (p, m, db) = setup();
        let hosts: Vec<ResourceRecord> = (0..8).map(|i| host(&format!("h{i}"), 1.0)).collect();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        let (nodes, t) = best_node_count(&p, &m, &db, "LU_Decomposition", 1024, 8, &refs).unwrap();
        assert!(nodes.len() >= 4, "big LU should use several nodes, used {}", nodes.len());
        let (one, t1) = best_node_count(&p, &m, &db, "LU_Decomposition", 1024, 1, &refs).unwrap();
        assert_eq!(one.len(), 1);
        assert!(t < t1);
    }

    #[test]
    fn best_node_count_uses_one_node_for_tiny_problems() {
        let (p, m, db) = setup();
        let hosts: Vec<ResourceRecord> = (0..8).map(|i| host(&format!("h{i}"), 1.0)).collect();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        // Tiny vector norm: sync cost dwarfs the compute.
        let (nodes, _) = best_node_count(&p, &m, &db, "Vector_Norm", 100, 8, &refs).unwrap();
        assert_eq!(nodes.len(), 1);
    }

    #[test]
    fn best_node_count_respects_requested_cap() {
        let (p, m, db) = setup();
        let hosts: Vec<ResourceRecord> = (0..8).map(|i| host(&format!("h{i}"), 1.0)).collect();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        let (nodes, _) = best_node_count(&p, &m, &db, "LU_Decomposition", 2048, 2, &refs).unwrap();
        assert!(nodes.len() <= 2);
    }

    #[test]
    fn best_node_count_skips_down_hosts() {
        let (p, m, db) = setup();
        let mut h0 = host("h0", 8.0); // fastest, but down
        h0.status = HostStatus::Down;
        let h1 = host("h1", 1.0);
        let refs = [&h0, &h1];
        let (nodes, _) = best_node_count(&p, &m, &db, "Sort", 1000, 2, &refs).unwrap();
        assert!(nodes.iter().all(|n| n.host_name != "h0"));
    }

    #[test]
    fn all_down_is_an_error() {
        let (p, m, db) = setup();
        let mut h = host("h", 1.0);
        h.status = HostStatus::Down;
        assert!(best_node_count(&p, &m, &db, "Sort", 1000, 2, &[&h]).is_err());
    }

    #[test]
    fn cached_selection_is_bit_identical_to_reference() {
        let (p, m, db) = setup();
        let hosts: Vec<ResourceRecord> =
            (0..8).map(|i| host(&format!("h{i}"), 1.0 + 0.5 * i as f64)).collect();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        let cache = PredictCache::new();
        for (task, size, req) in [
            ("LU_Decomposition", 1024u64, 8u32),
            ("LU_Decomposition", 1024, 3),
            ("Vector_Norm", 100, 8),
            ("Sort", 50_000, 2),
        ] {
            let (a_nodes, a_t) = best_node_count(&p, &m, &db, task, size, req, &refs).unwrap();
            let (b_nodes, b_t) =
                best_node_count_cached(&p, &m, &cache, &db, task, size, req, &refs).unwrap();
            let a_names: Vec<&str> = a_nodes.iter().map(|n| n.host_name.as_str()).collect();
            let b_names: Vec<&str> = b_nodes.iter().map(|n| n.host_name.as_str()).collect();
            assert_eq!(a_names, b_names, "{task}");
            assert_eq!(a_t.to_bits(), b_t.to_bits(), "{task}: times must be bit-identical");
        }
        // Second pass is served from the memo table and still identical.
        let (_, before) =
            best_node_count_cached(&p, &m, &cache, &db, "Sort", 50_000, 2, &refs).unwrap();
        assert!(cache.hits() > 0, "repeat run must hit the cache");
        let (_, again) = best_node_count(&p, &m, &db, "Sort", 50_000, 2, &refs).unwrap();
        assert_eq!(before.to_bits(), again.to_bits());
    }

    #[test]
    fn cached_error_cases_match_reference() {
        let (p, m, db) = setup();
        let cache = PredictCache::new();
        let mut h = host("h", 1.0);
        h.status = HostStatus::Down;
        let a = best_node_count(&p, &m, &db, "Sort", 1000, 2, &[&h]);
        let b = best_node_count_cached(&p, &m, &cache, &db, "Sort", 1000, 2, &[&h]);
        assert_eq!(a, b);
    }

    #[test]
    fn chosen_nodes_are_fastest_first() {
        let (p, m, db) = setup();
        let a = host("a", 1.0);
        let b = host("b", 3.0);
        let c = host("c", 2.0);
        let refs = [&a, &b, &c];
        let (nodes, _) = best_node_count(&p, &m, &db, "LU_Decomposition", 2048, 3, &refs).unwrap();
        let names: Vec<&str> = nodes.iter().map(|n| n.host_name.as_str()).collect();
        assert_eq!(&names[..2.min(names.len())], &["b", "c"][..2.min(names.len())]);
    }
}
