//! Synthetic load traces for the Monitor daemons.
//!
//! A trace is a list of `(from_time, workload)` steps consumed by
//! [`vdce_runtime::SyntheticProbe`]. The random walk drives the Figure-4
//! monitoring experiment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bounded random walk sampled every `period` seconds for `steps` steps:
/// load moves by ±`step` and is clamped to `[0, max]`.
pub(crate) fn random_walk(
    seed: u64,
    period: f64,
    steps: usize,
    step: f64,
    max: f64,
) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut load = rng.gen_range(0.0..max / 2.0);
    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        out.push((i as f64 * period, load));
        let delta = if rng.gen_bool(0.5) { step } else { -step };
        load = (load + delta).clamp(0.0, max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_walk_is_bounded_and_deterministic() {
        let a = random_walk(1, 1.0, 100, 0.5, 4.0);
        let b = random_walk(1, 1.0, 100, 0.5, 4.0);
        assert_eq!(a, b);
        assert!(a.iter().all(|(_, l)| (0.0..=4.0).contains(l)));
        // Timestamps strictly increase.
        for w in a.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }
}
