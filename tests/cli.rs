//! The `vdce` CLI's error contract: success exits 0; every bad
//! invocation exits non-zero with one line on stderr and no panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

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

/// A reader that takes one line and closes the pipe (`vdce demo | head -1`)
/// stops the demo quietly: no panic text, not the panic exit code 101.
#[test]
fn demo_stops_quietly_when_its_reader_closes_the_pipe() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vdce"))
        .arg("demo")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vdce");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "the demo prints before it runs");
    // The reader is dropped here: the pipe is closed while the demo runs.
    let out = child.wait_with_output().expect("wait for vdce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr:?}");
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr:?}");
}
