//! Every experiment in one binary: the ten paper experiments (E1–E10),
//! the ones behind the committed `BENCH_*.json` files, the trace gate,
//! the fuzz hunt and DESIGN.md's `surface` block (`vdce_bench::exp`).
//!
//! ```text
//! exp <name>...            print the reports of the named experiments
//! exp --all                print every report
//! exp --check [<name>...]  fail if a golden EXPERIMENTS.md or DESIGN.md
//!                          block, or a BENCH_*.json outside its
//!                          `wall_clock` section, differs from this run, or
//!                          a BENCH file is missing or stray
//! exp --write [<name>...]  record those experiments' Markdown blocks and
//!                          BENCH_*.json files from this run
//! ```
//!
//! The flag modes take every experiment when none is named. EXPERIMENTS.md,
//! DESIGN.md and the `BENCH_*.json` files are read from and written to the
//! working directory, so run it from the repo root; `surface` scans the
//! `crates/*/src` of the workspace the binary was built from. Every mode
//! also checks each experiment's claims and exits 1 when one does not
//! hold; `--write` records nothing for such an experiment.

use std::process::exit;
use vdce_bench::exp::{drive, experiments, find, Experiment, Mode};

fn usage() -> ! {
    let names: Vec<&str> = experiments().map(|e| e.name).collect();
    eprintln!("usage: exp <name>... | --all | --check [<name>...] | --write [<name>...]");
    eprintln!("names: {}", names.join(" "));
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, names) = match args.first().map(String::as_str) {
        Some("--all") if args.len() == 1 => (Mode::Print, &args[1..]),
        Some("--check") => (Mode::Check, &args[1..]),
        Some("--write") => (Mode::Write, &args[1..]),
        Some(flag) if flag.starts_with('-') => usage(),
        Some(_) => (Mode::Print, &args[..]),
        None => usage(),
    };
    let chosen: Vec<&Experiment> = if names.is_empty() {
        experiments().collect()
    } else {
        names.iter().map(|n| find(n).unwrap_or_else(|| usage())).collect()
    };
    let failures = drive(mode, &chosen, ".".as_ref(), &mut std::io::stdout().lock());
    for f in &failures {
        eprintln!("FAILURE: {f}");
    }
    if !failures.is_empty() {
        exit(1);
    }
}
