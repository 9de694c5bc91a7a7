//! Property tests for the scenario fuzzer (DESIGN.md §17).
//!
//! The contract the shrinker makes with a promoted reproducer: the
//! minimised plan still violates the **same** invariant the parent
//! seed did, it is never larger than the parent, and re-shrinking the
//! same seed reproduces byte-for-byte the same case — so a reproducer
//! committed to `scenario.rs` can be regenerated from its seed alone.
//! The sweep and the shrinker's oracle give one verdict per invariant.

use proptest::prelude::*;
use vdce_sim::{check_case, check_invariant, shrink, FuzzCase, Invariant, InvariantProfile};

/// Shrink oracle budget per property case; generated plans are ≤ ~20
/// faults so the pass pipeline converges well inside this.
const BUDGET: u32 = 160;

/// Every shrunk plan still violates the invariant its parent seed
/// violated, never grows, and shrinks deterministically. Uses the
/// adversarial profile (ceilings collapsed to 1.0) so most seeds
/// violate `InflationCeiling`; seeds whose faults never move the
/// makespan violate nothing and pass vacuously.
fn assert_shrink_contract(seed: u64) {
    let case = FuzzCase::generate(seed);
    let profile = InvariantProfile::adversarial();
    let outcome = check_case(&case, &profile);
    let Some(v) = outcome.violations.first() else { return };
    let inv = v.invariant;
    let s1 = shrink(&case, inv, &profile, BUDGET);
    // Same-invariant preservation: the minimised case trips the exact
    // invariant the parent did.
    assert!(
        check_invariant(&s1.shrunk, inv, &profile).is_some(),
        "seed {seed} shrunk away its {inv:?} violation"
    );
    // Monotone: shrinking never grows the plan.
    assert!(s1.shrunk_faults <= s1.original_faults, "seed {seed} grew while shrinking");
    assert_eq!(s1.original_faults, case.plan.faults.len());
    // Deterministic per seed: a second shrink is byte-identical.
    let s2 = shrink(&case, inv, &profile, BUDGET);
    assert_eq!(s1.shrunk.to_json(), s2.shrunk.to_json(), "seed {seed} shrank differently twice");
    assert_eq!(s1.evals, s2.evals, "seed {seed} spent a different eval budget twice");
}

/// The sweep and the oracle agree: for every invariant, `check_invariant`
/// flags the case exactly when `check_case` lists a violation of it, and
/// with its first detail. Under the adversarial profile most seeds
/// violate `InflationCeiling`, so a verdict or a detail that differs
/// between the two shows.
fn assert_sweep_and_oracle_agree(seed: u64) {
    let case = FuzzCase::generate(seed);
    let profile = InvariantProfile::adversarial();
    let swept = check_case(&case, &profile).violations;
    for inv in Invariant::ALL {
        let first = swept.iter().find(|v| v.invariant == inv);
        let oracle = check_invariant(&case, inv, &profile);
        assert_eq!(oracle.as_ref(), first, "seed {seed}: sweep and oracle disagree on {inv:?}");
    }
}

// NOTE: the vendored proptest shim's `proptest!` macro matches `#[test]`
// literally, so doc comments must live outside the macro blocks.

// Generation is a pure function of the seed: two independent
// generations serialise identically.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generation_is_pure_in_the_seed(seed in 0u64..4096) {
        prop_assert_eq!(FuzzCase::generate(seed).to_json(), FuzzCase::generate(seed).to_json());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn shrinking_preserves_the_parent_violation(seed in 0u64..256) {
        assert_shrink_contract(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn the_sweep_and_the_oracle_agree(seed in 0u64..256) {
        assert_sweep_and_oracle_agree(seed);
    }
}
