//! Property tests for data-aware scheduling (DESIGN.md §18): the joint
//! compute+transfer objective must *degrade* to the paper's
//! parent-site-only model when replica choice is trivial, and every
//! schedule must replay bit-identically from the same inputs. Cases come
//! from the scheduler oracle's generator (`common::Case::random`).

mod common;

use common::{check_primary_only, same_tables, schedule, Case};
use proptest::prelude::*;
use vdce_afg::{DatasetId, IoSpec};

/// The case `seed` draws, with a read of dataset 1 added to its first
/// task when it reads none.
fn reading_case(seed: u64) -> Case {
    let mut case = Case::random(seed);
    if !case.reads_datasets() {
        case.afg.tasks[0].props.inputs.push(IoSpec::dataset(DatasetId(1)));
    }
    case
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // When every dataset has exactly one replica, co-located with the
    // parent (local) site, replica choice is trivial: the data-aware
    // schedule must be bit-identical to the parent-site-only ablation,
    // recorded replica sources included.
    #[test]
    fn single_colocated_replica_degrades_bit_identically(seed in any::<u64>()) {
        check_primary_only(&reading_case(seed));
    }

    // Same AFG, federation and catalog view in — byte-identical
    // allocation table out, however the replicas are spread.
    #[test]
    fn double_replay_is_bit_identical(seed in any::<u64>()) {
        let case = reading_case(seed);
        same_tables(&schedule(&case), &schedule(&case), &case.name, "replay");
    }
}
