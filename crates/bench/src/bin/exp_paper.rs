//! The ten paper experiments (E1–E10, `vdce_bench::paper`) in one binary.
//!
//! ```text
//! exp_paper <name>...               print the tables of the named experiments
//! exp_paper --all                   print all ten
//! exp_paper --check [<name>...]     fail if a deterministic table differs from
//!                                   its EXPERIMENTS.md block
//! exp_paper --markdown [<name>...]  rewrite those experiments' EXPERIMENTS.md
//!                                   blocks with this run's tables
//! ```
//!
//! Names are `fig1`…`fig4` and `e5`…`e10`; the flag modes take all ten when
//! none is named. EXPERIMENTS.md is read from and written to the working
//! directory. Every mode also checks the shape claims EXPERIMENTS.md makes
//! about each experiment it runs, and exits non-zero when one does not
//! hold.

use std::process::exit;
use vdce_bench::paper::{block, find, first_difference, splice, Experiment, EXPERIMENTS};

const DOC: &str = "EXPERIMENTS.md";

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("usage: exp_paper <name>... | --all | --check [<name>...] | --markdown [<name>...]");
    eprintln!("names: {}", names.join(" "));
    exit(2);
}

fn read_doc() -> String {
    std::fs::read_to_string(DOC).unwrap_or_else(|e| {
        eprintln!("exp_paper: read {DOC}: {e}");
        exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, names) = match args.first().map(String::as_str) {
        Some(m @ ("--all" | "--check" | "--markdown")) => (m, &args[1..]),
        Some(_) => ("", &args[..]),
        None => usage(),
    };
    if mode == "--all" && !names.is_empty() {
        usage();
    }
    let chosen: Vec<&Experiment> = if names.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        names.iter().map(|n| find(n).unwrap_or_else(|| usage())).collect()
    };

    let mut doc = if matches!(mode, "--check" | "--markdown") { read_doc() } else { String::new() };
    let mut failures = Vec::new();
    for e in chosen {
        let out = e.run();
        match mode {
            "--check" if e.deterministic => match block(&doc, e.name) {
                None => failures.push(format!("{}: no generated block in {DOC}", e.name)),
                Some(want) => match first_difference(want, &out.text) {
                    None => println!("{}: table equals its {DOC} block", e.name),
                    Some(d) => failures.push(format!("{}: differs from {DOC}, {d}", e.name)),
                },
            },
            "--check" => {
                let held = if out.broken_claims.is_empty() { "hold" } else { "do not hold" };
                println!("{}: its shape claims {held}", e.name);
            }
            "--markdown" => match splice(&doc, e.name, &out.text) {
                Ok(new) => doc = new,
                Err(err) => failures.push(format!("{}: {DOC}: {err}", e.name)),
            },
            _ => print!("{}", out.text),
        }
        failures.extend(out.broken_claims);
    }
    if mode == "--markdown" {
        if let Err(e) = std::fs::write(DOC, &doc) {
            failures.push(format!("write {DOC}: {e}"));
        }
    }
    for f in &failures {
        eprintln!("FAILURE: {f}");
    }
    if !failures.is_empty() {
        exit(1);
    }
}
