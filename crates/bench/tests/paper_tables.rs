//! The deterministic paper tables are golden text: each one must equal
//! its generated block in EXPERIMENTS.md byte for byte. A change that
//! moves one of their numbers on purpose re-records the block with
//! `exp --write <name>` in the same commit.

use vdce_bench::paper::{block, first_difference, EXPERIMENTS};

fn experiments_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn every_experiment_has_a_generated_block() {
    let doc = experiments_md();
    for e in &EXPERIMENTS {
        assert!(block(&doc, e.name).is_some(), "EXPERIMENTS.md has no `{}` block", e.name);
    }
}

#[test]
fn deterministic_tables_equal_their_experiments_md_blocks() {
    let doc = experiments_md();
    for e in EXPERIMENTS.iter().filter(|e| e.deterministic) {
        let out = e.run();
        if let Some(d) = first_difference(block(&doc, e.name).unwrap(), &out.text) {
            panic!("{} differs from its EXPERIMENTS.md block at {d}", e.name);
        }
        assert!(out.broken_claims.is_empty(), "{}: {:?}", e.name, out.broken_claims);
    }
}
