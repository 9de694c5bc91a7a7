//! The `vdce` CLI's error contract: success exits 0; every bad
//! invocation exits non-zero with one line on stderr and no panic.

use std::process::{Command, Output};

fn vdce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vdce")).args(args).output().expect("spawn vdce")
}

/// Non-zero exit, exactly one line on stderr, no panic text.
fn assert_clean_failure(args: &[&str]) {
    let out = vdce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`vdce {}` must fail", args.join(" "));
    assert_eq!(stderr.lines().count(), 1, "`vdce {}` stderr: {stderr:?}", args.join(" "));
    assert!(!stderr.contains("panicked"), "`vdce {}` stderr: {stderr:?}", args.join(" "));
}

#[test]
fn solve_with_a_size_succeeds() {
    let out = vdce(&["solve", "8"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("solved: x has 8 components"));
}

#[test]
fn solve_rejects_a_size_that_is_not_a_positive_integer() {
    for bad in ["abc", "0", "-3"] {
        assert_clean_failure(&["solve", bad]);
    }
}

#[test]
fn submit_reports_a_missing_or_malformed_document() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let missing = dir.join("cli-missing.json");
    assert_clean_failure(&["submit", missing.to_str().unwrap()]);

    let malformed = dir.join("cli-malformed.json");
    std::fs::write(&malformed, "{ not json").unwrap();
    assert_clean_failure(&["submit", malformed.to_str().unwrap()]);
    std::fs::remove_file(&malformed).unwrap();
}

#[test]
fn unknown_subcommand_is_an_error() {
    assert_clean_failure(&["frobnicate"]);
}
