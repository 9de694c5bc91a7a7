//! Seeded scenario-fuzzer gate (DESIGN.md §17): generate adversarial
//! fault compositions from fixed seeds, property-check each run against
//! the full invariant catalogue, and prove the delta-debugging shrinker
//! turns violations into minimal, committable reproducers.
//!
//! Gated properties (`--quick`, the CI stage):
//!
//! 1. **Fixed seed block runs clean** — every quick seed passes all
//!    five invariants under the calibrated
//!    [`InvariantProfile::standard`] ceilings;
//! 2. **Injected violations shrink** — under the zero-headroom
//!    [`InvariantProfile::adversarial`] profile every self-test seed
//!    violates the inflation ceiling, the shrinker minimises it to a
//!    1-minimal plan *preserving that same invariant*, shrinking is
//!    deterministic, and the reproducer round-trips through JSON
//!    (written to `target/fuzz_repro/` for CI upload);
//! 3. **Promoted scenarios stay frozen** — the fuzzer-promoted
//!    regression scenarios replay bit-identically twice and still meet
//!    the recovery gates.
//!
//! The full run sweeps a larger seed range and writes
//! `BENCH_fuzz.json`: per-seed outcomes, per-fault-class invariant
//! coverage, shrink sizes, and the self-test table. `--hunt` is the
//! promotion workflow: it ranks shrunk adversarial seeds by observed
//! inflation and prints promotable reproducers for `scenario.rs`.

use serde::Serialize;
use std::collections::BTreeMap;
use vdce_obs::{Observer, Report, RunArtifact, Table};
use vdce_sim::scenario::fuzz_regression_scenarios;
use vdce_sim::{
    check_case, check_invariant, shrink, CaseOutcome, FaultClass, FuzzCase, Invariant,
    InvariantProfile,
};

/// The fixed CI seed block: must run clean under the standard profile.
const QUICK_SEEDS: [u64; 6] = [0, 3, 7, 11, 19, 29];

/// Full-sweep seed range.
const FULL_SEEDS: u64 = 48;

/// Seeds of the injected-violation shrinker self-tests (chosen so the
/// generated plan measurably perturbs the makespan — the adversarial
/// profile needs inflation > 1.0 to bite).
const SELF_TEST_SEEDS: [u64; 2] = [5, 21];

/// Shrinker oracle-evaluation budget.
const SHRINK_BUDGET: u32 = 200;

/// One row of the self-test table in `BENCH_fuzz.json`.
#[derive(Debug, Clone, Serialize)]
struct SelfTestRow {
    seed: u64,
    invariant: String,
    original_faults: usize,
    shrunk_faults: usize,
    evals: u32,
    passes: u32,
    one_minimal: bool,
}

/// Per-fault-class invariant coverage in `BENCH_fuzz.json`.
#[derive(Debug, Clone, Serialize)]
struct CoverageRow {
    class: String,
    /// Seeds whose composition included this class.
    seeds: u64,
    /// Of those, seeds that also carried a streaming leg (so the
    /// starvation invariant had something to bite on).
    with_stream: u64,
    /// Violations attributed to seeds containing this class.
    violations: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let hunt = std::env::args().any(|a| a == "--hunt");
    if hunt {
        hunt_mode();
        return;
    }

    let profile = InvariantProfile::standard();
    let seeds: Vec<u64> = if quick { QUICK_SEEDS.to_vec() } else { (0..FULL_SEEDS).collect() };
    let mut failures: Vec<String> = Vec::new();
    let mut outcomes: Vec<CaseOutcome> = Vec::new();
    let mut shrink_sizes: Vec<(u64, usize, usize)> = Vec::new();

    std::fs::create_dir_all("target/fuzz_repro").expect("create target/fuzz_repro");

    // Gate 1: the seed sweep runs clean.
    for &seed in &seeds {
        let case = FuzzCase::generate(seed);
        let outcome = check_case(&case, &profile);
        if !outcome.ok() {
            // A real find: shrink it, emit the reproducer, and fail the
            // gate with the minimal case attached.
            let inv = outcome.violations[0].invariant;
            let shrunk = shrink(&case, inv, &profile, SHRINK_BUDGET);
            let path = format!("target/fuzz_repro/seed_{seed}.json");
            std::fs::write(&path, shrunk.shrunk.to_json()).expect("write reproducer");
            shrink_sizes.push((seed, shrunk.original_faults, shrunk.shrunk_faults));
            failures.push(format!(
                "seed {seed}: {} — {} (reproducer: {path}, {} → {} faults)",
                outcome.violations[0].invariant.label(),
                outcome.violations[0].detail,
                shrunk.original_faults,
                shrunk.shrunk_faults,
            ));
        }
        outcomes.push(outcome);
    }

    // Gate 2: injected violations shrink to minimal reproducers.
    let self_tests = run_self_tests(&mut failures);

    // Gate 3: promoted scenarios replay bit-identically and still pass
    // the recovery gates.
    let promoted = fuzz_regression_scenarios();
    for fs in &promoted {
        let a = fs.run(&Observer::disabled(), None);
        let b = fs.run(&Observer::disabled(), None);
        let ja = serde_json::to_string(&a).expect("serialise report");
        let jb = serde_json::to_string(&b).expect("serialise report");
        if ja != jb {
            failures.push(format!("{}: two replays differ", fs.name));
        }
        if a.tasks_failed > 0 {
            failures.push(format!("{}: {} task(s) failed", fs.name, a.tasks_failed));
        }
        if !a.recovered_all() {
            failures.push(format!("{}: not all faults recovered", fs.name));
        }
    }

    let mut table =
        Table::new(&["seed", "base", "classes", "faults", "inflation", "ceiling", "ok"]);
    for o in &outcomes {
        table.row(&[
            o.seed.to_string(),
            o.base.clone(),
            o.classes.join("+"),
            o.faults.to_string(),
            format!("{:.2}x", o.inflation),
            format!("{:.2}x", o.ceiling),
            if o.ok() { "yes".into() } else { "NO".into() },
        ]);
    }
    let report = Report::new(&format!(
        "scenario fuzzer: seed sweep + shrinker self-test{}",
        if quick { " [quick]" } else { "" }
    ))
    .table(table)
    .note(format!(
        "{} seed(s), {} violation(s); {} self-test(s) shrunk; {} promoted scenario(s) gated",
        outcomes.len(),
        outcomes.iter().filter(|o| !o.ok()).count(),
        self_tests.len(),
        promoted.len(),
    ));

    if !quick && failures.is_empty() {
        let coverage = coverage_rows(&outcomes);
        RunArtifact::new("exp_fuzz")
            .meta("seeds_run", outcomes.len())
            .meta("quick_seed_block", QUICK_SEEDS.as_slice())
            .meta("violations", outcomes.iter().filter(|o| !o.ok()).count())
            .meta("self_test_seeds", SELF_TEST_SEEDS.as_slice())
            .meta("shrink_budget_evals", SHRINK_BUDGET)
            .meta("promoted_scenarios", promoted.len())
            .section("outcomes", &outcomes)
            .section("coverage", &coverage)
            .section("self_tests", &self_tests)
            .section("shrink_sizes", &shrink_sizes)
            .write("BENCH_fuzz.json")
            .expect("write BENCH_fuzz.json");
        println!("wrote BENCH_fuzz.json");
    }
    report.print();

    if failures.is_empty() {
        println!("\nfuzz gate OK");
    } else {
        for f in &failures {
            eprintln!("GATE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}

/// The injected-violation self-test: under zero-headroom ceilings every
/// perturbed run violates [`Invariant::InflationCeiling`], so the
/// shrinker always has a real violation to minimise — without planting
/// a bug in the control plane.
fn run_self_tests(failures: &mut Vec<String>) -> Vec<SelfTestRow> {
    let profile = InvariantProfile::adversarial();
    let mut rows = Vec::new();
    for &seed in &SELF_TEST_SEEDS {
        let case = FuzzCase::generate(seed);
        let Some(violation) = check_invariant(&case, Invariant::InflationCeiling, &profile) else {
            failures.push(format!(
                "self-test seed {seed}: adversarial profile failed to inject a violation"
            ));
            continue;
        };
        let out = shrink(&case, violation.invariant, &profile, SHRINK_BUDGET);

        // The shrunk case must still violate the same invariant...
        let preserved = check_invariant(&out.shrunk, violation.invariant, &profile);
        if preserved.is_none() {
            failures.push(format!(
                "self-test seed {seed}: shrinking lost the {} violation",
                violation.invariant.label()
            ));
        }
        // ...be no larger than the original...
        if out.shrunk_faults > out.original_faults {
            failures.push(format!("self-test seed {seed}: shrinking grew the plan"));
        }
        // ...be 1-minimal (dropping any single fault loses the
        // violation)...
        let mut one_minimal = true;
        for i in 0..out.shrunk.plan.faults.len() {
            let mut cand = out.shrunk.clone();
            cand.plan.faults.remove(i);
            if check_invariant(&cand, violation.invariant, &profile).is_some() {
                one_minimal = false;
                failures.push(format!(
                    "self-test seed {seed}: dropping fault {i} still violates — not minimal"
                ));
            }
        }
        // ...shrink deterministically...
        let again = shrink(&case, violation.invariant, &profile, SHRINK_BUDGET);
        if again.shrunk != out.shrunk {
            failures.push(format!("self-test seed {seed}: shrinking is not deterministic"));
        }
        // ...and round-trip through the JSON reproducer.
        let path = format!("target/fuzz_repro/selftest_seed_{seed}.json");
        std::fs::write(&path, out.shrunk.to_json()).expect("write reproducer");
        let json = std::fs::read_to_string(&path).expect("read reproducer back");
        match FuzzCase::from_json(&json) {
            Ok(back) if back == out.shrunk => {}
            Ok(_) => failures
                .push(format!("self-test seed {seed}: reproducer round-trip changed the case")),
            Err(e) => failures.push(format!("self-test seed {seed}: reproducer unparseable: {e}")),
        }

        rows.push(SelfTestRow {
            seed,
            invariant: violation.invariant.label().to_string(),
            original_faults: out.original_faults,
            shrunk_faults: out.shrunk_faults,
            evals: out.evals,
            passes: out.passes,
            one_minimal,
        });
    }
    rows
}

fn coverage_rows(outcomes: &[CaseOutcome]) -> Vec<CoverageRow> {
    let mut per_class: BTreeMap<&'static str, CoverageRow> = BTreeMap::new();
    for class in FaultClass::ALL {
        per_class.insert(
            class.label(),
            CoverageRow {
                class: class.label().to_string(),
                seeds: 0,
                with_stream: 0,
                violations: 0,
            },
        );
    }
    for o in outcomes {
        for label in &o.classes {
            let row = per_class.get_mut(label.as_str()).expect("known class label");
            row.seeds += 1;
            if o.has_stream {
                row.with_stream += 1;
            }
            row.violations += o.violations.len() as u64;
        }
    }
    per_class.into_values().collect()
}

/// The promotion workflow: shrink every violating adversarial seed,
/// replay the shrunk case, and rank promotable reproducers (those that
/// would pass the `exp_faults` recovery gates) by observed inflation.
fn hunt_mode() {
    let profile = InvariantProfile::adversarial();
    let mut candidates = Vec::new();
    for seed in 0..64u64 {
        let case = FuzzCase::generate(seed);
        if check_invariant(&case, Invariant::InflationCeiling, &profile).is_none() {
            continue;
        }
        let out = shrink(&case, Invariant::InflationCeiling, &profile, SHRINK_BUDGET);
        let fs = out.shrunk.to_fault_scenario("hunt");
        let report = fs.run(&Observer::disabled(), None);
        // Promotion gates: lossless, fully recovered, and inside the
        // 4.5x regression bound fuzz-promoted scenarios are pinned to
        // (the hand-written 2.0x crash bound only covers crash faults).
        let promotable =
            report.tasks_failed == 0 && report.recovered_all() && report.inflation < 4.5;
        candidates.push((report.inflation, promotable, out));
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!("hunt: {} violating seed(s) shrunk", candidates.len());
    for (inflation, promotable, out) in candidates.iter().take(8) {
        let c = &out.shrunk;
        println!(
            "\nseed {} base {} classes {:?} checkpoint {} kills {} stream {} \
             faults {}→{} inflation {:.3}x promotable {}",
            c.seed,
            c.base.label(),
            c.classes.iter().map(|x| x.label()).collect::<Vec<_>>(),
            c.checkpoint,
            c.kills,
            c.stream.is_some(),
            out.original_faults,
            out.shrunk_faults,
            inflation,
            promotable,
        );
        println!("{}", c.to_json());
    }
}
