//! The experiment registry and the driver the `exp` binary runs.
//!
//! [`experiments`] lists every experiment once, as one function that
//! checks its claims while it runs and records where its output lives:
//! a block in a Markdown file (EXPERIMENTS.md for the paper's ten,
//! DESIGN.md for `surface`), `BENCH_<name>.json`, or nowhere. In every
//! [`Mode`], [`drive`] fails on a broken claim. [`Mode::Check`] also
//! compares each output with the committed one (a golden block byte for
//! byte, a `BENCH_*.json` outside its `wall_clock` section) and writes
//! nothing it compares against.

use crate::paper::{self, block, first_difference, splice};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use vdce_obs::RunArtifact;

/// One experiment.
pub struct Experiment {
    /// Its command-line name.
    pub name: &'static str,
    /// Reads no clock and starts no thread: renders the same bytes on
    /// every run.
    pub deterministic: bool,
    pub(crate) output: Output,
}

/// Where an experiment's output lives, with the function that makes it.
pub(crate) enum Output {
    /// Its block in the named Markdown file: golden text when the
    /// experiment is [deterministic](Experiment::deterministic), measured
    /// otherwise.
    Block(&'static str, fn(&mut Claims) -> String),
    /// `BENCH_<name>.json`, beside the printed report.
    Bench(fn(&mut Claims) -> (String, RunArtifact)),
    /// Nowhere: the report is printed only.
    Nowhere(fn(&mut Claims) -> String),
}

/// What one run of an experiment produced and which of its claims failed.
pub struct Outcome {
    /// The rendered report.
    pub text: String,
    /// One line per claim that did not hold on this run.
    pub broken_claims: Vec<String>,
    /// The `BENCH_<name>.json` artifact, for an experiment that records one.
    pub(crate) artifact: Option<RunArtifact>,
}

impl Experiment {
    /// Run the experiment.
    pub fn run(&self) -> Outcome {
        let mut claims = Claims::default();
        let (text, artifact) = match self.output {
            Output::Block(_, run) | Output::Nowhere(run) => (run(&mut claims), None),
            Output::Bench(run) => {
                let (text, artifact) = run(&mut claims);
                (text, Some(artifact))
            }
        };
        Outcome { text, broken_claims: claims.broken, artifact }
    }

    /// The `BENCH_*.json` file it records, if it records one.
    pub(crate) fn bench_file(&self) -> Option<String> {
        matches!(self.output, Output::Bench(_)).then(|| format!("BENCH_{}.json", self.name))
    }

    /// The Markdown file that holds its block, if it has one.
    fn doc(&self) -> Option<&'static str> {
        match self.output {
            Output::Block(doc, _) => Some(doc),
            Output::Bench(_) | Output::Nowhere(_) => None,
        }
    }
}

/// Every experiment, in the order `exp --all` runs them.
pub fn experiments() -> impl Iterator<Item = &'static Experiment> {
    paper::EXPERIMENTS.iter().chain(&crate::gates::EXPERIMENTS)
}

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    experiments().find(|e| e.name == name)
}

/// The claims an experiment checks while it runs.
#[derive(Default)]
pub(crate) struct Claims {
    broken: Vec<String>,
}

impl Claims {
    /// Record `claim` as broken unless it `holds`.
    pub(crate) fn check(&mut self, holds: bool, claim: impl FnOnce() -> String) {
        if !holds {
            self.broken.push(claim());
        }
    }

    /// Record a claim that did not hold.
    pub(crate) fn fail(&mut self, claim: String) {
        self.broken.push(claim);
    }
}

/// Write `bytes` to `path`, creating its parent directories first. The
/// scratch outputs under `target/` (the recovery fixture, the fuzz
/// reproducers, the trace JSONL) all go through here.
pub(crate) fn write_file(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    let path = path.as_ref();
    let written = match path.parent() {
        Some(dir) => std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, bytes)),
        None => std::fs::write(path, bytes),
    };
    written.map_err(|e| format!("write {}: {e}", path.display()))
}

/// What [`drive`] does with each experiment it runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Print each report.
    Print,
    /// Compare each output with the committed one.
    Check,
    /// Record each output whose claims hold.
    Write,
}

/// The Markdown files the chosen experiments' blocks live in, by name.
type Docs = BTreeMap<&'static str, String>;

/// Run `chosen` in `mode` against the Markdown and `BENCH_*.json` files
/// in `root`, writing progress to `out`. Returns one line per failure: a
/// broken claim, a difference, a missing or stray file.
pub fn drive(mode: Mode, chosen: &[&Experiment], root: &Path, out: &mut impl Write) -> Vec<String> {
    let mut docs = Docs::new();
    if mode != Mode::Print {
        for doc in chosen.iter().filter_map(|e| e.doc()) {
            if !docs.contains_key(doc) {
                match std::fs::read_to_string(root.join(doc)) {
                    Ok(text) => docs.insert(doc, text),
                    Err(e) => return vec![format!("read {doc}: {e}")],
                };
            }
        }
    }
    let mut failures = if mode == Mode::Check { stray_bench_files(root) } else { Vec::new() };
    for e in chosen {
        let outcome = e.run();
        let said = match mode {
            Mode::Print => Ok(outcome.text.clone()),
            Mode::Check => check(e, &outcome, &docs, root),
            Mode::Write if outcome.broken_claims.is_empty() => record(e, &outcome, &mut docs, root),
            Mode::Write => Ok(format!(
                "{}: not written, {} claim(s) broken\n",
                e.name,
                outcome.broken_claims.len()
            )),
        };
        match said {
            // A closed stdout (`exp --all | head`) is not a failure.
            Ok(text) => drop(out.write_all(text.as_bytes())),
            Err(failure) => failures.push(failure),
        }
        failures.extend(outcome.broken_claims.into_iter().map(|c| format!("{}: {c}", e.name)));
    }
    if mode == Mode::Write {
        for (doc, text) in &docs {
            if let Err(e) = std::fs::write(root.join(doc), text) {
                failures.push(format!("write {doc}: {e}"));
            }
        }
    }
    failures
}

/// `--check` for one experiment: its golden block or its `BENCH_*.json`
/// against this run.
fn check(e: &Experiment, out: &Outcome, docs: &Docs, root: &Path) -> Result<String, String> {
    let name = e.name;
    if let (Some(artifact), Some(file)) = (&out.artifact, e.bench_file()) {
        let committed = std::fs::read_to_string(root.join(&file))
            .map_err(|err| format!("{name}: read {file}: {err}"))?;
        let committed = outside_wall_clock(&committed)
            .map_err(|problems| format!("{name}: {file}: {}", problems.join("; ")))?;
        let fresh = outside_wall_clock(&artifact.to_json_pretty())
            .map_err(|problems| format!("{name}: this run's artifact: {}", problems.join("; ")))?;
        return match first_difference(&committed, &fresh) {
            None => Ok(format!("{name}: {file} equals this run outside `wall_clock`\n")),
            Some(d) => Err(format!("{name}: {file} differs from this run at {d}")),
        };
    }
    let Some(doc) = e.doc().filter(|_| e.deterministic) else {
        return Ok(format!("{name}: claims checked\n"));
    };
    let want = block(&docs[doc], name).ok_or(format!("{name}: no generated block in {doc}"))?;
    match first_difference(want, &out.text) {
        None => Ok(format!("{name}: table equals its {doc} block\n")),
        Some(d) => Err(format!("{name}: differs from {doc}, {d}")),
    }
}

/// A `BENCH_*.json` text, validated against the artifact schema, pretty
/// printed without its top-level `wall_clock` section.
fn outside_wall_clock(text: &str) -> Result<String, Vec<String>> {
    let mut v: Value =
        serde_json::from_str(text).map_err(|e| vec![format!("unparsable: {e:?}")])?;
    let problems = vdce_obs::validate_artifact(&v);
    if !problems.is_empty() {
        return Err(problems);
    }
    if let Value::Object(sections) = &mut v {
        sections.retain(|(key, _)| key != "wall_clock");
    }
    Ok(serde_json::to_string_pretty(&v).expect("a parsed value serialises") + "\n")
}

/// Every `BENCH_*.json` in `root` that no experiment records, and every
/// one an experiment records that is missing.
fn stray_bench_files(root: &Path) -> Vec<String> {
    let expected: Vec<String> = experiments().filter_map(Experiment::bench_file).collect();
    let present: Vec<String> = std::fs::read_dir(root)
        .map(|dir| dir.filter_map(|f| f.ok()?.file_name().into_string().ok()).collect())
        .unwrap_or_default();
    let stray = present
        .iter()
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json") && !expected.contains(f))
        .map(|f| format!("{f}: no experiment records it (stray)"));
    let missing = expected
        .iter()
        .filter(|f| !present.contains(f))
        .map(|f| format!("{f}: missing (record it with `exp --write`)"));
    stray.chain(missing).collect()
}

/// `--write` for one experiment whose claims hold: splice its block into
/// its Markdown file or write its `BENCH_*.json`.
fn record(e: &Experiment, out: &Outcome, docs: &mut Docs, root: &Path) -> Result<String, String> {
    let name = e.name;
    if let (Some(artifact), Some(file)) = (&out.artifact, e.bench_file()) {
        write_file(root.join(&file), artifact.to_json_pretty() + "\n")?;
        return Ok(format!("{name}: wrote {file}\n"));
    }
    let Some(doc) = e.doc() else {
        return Ok(format!("{name}: records nothing\n"));
    };
    let text = docs.get_mut(doc).expect("drive reads every chosen block's file");
    *text = splice(text, name, &out.text).map_err(|err| format!("{name}: {doc}: {err}"))?;
    Ok(format!("{name}: wrote its {doc} block\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    static OK: Experiment = Experiment {
        name: "ok",
        deterministic: true,
        output: Output::Bench(|_| (String::new(), RunArtifact::new("exp_ok"))),
    };
    static BROKEN: Experiment = Experiment {
        name: "broken",
        deterministic: true,
        output: Output::Bench(|claims| {
            claims.fail("rows are wrong".into());
            (String::new(), RunArtifact::new("exp_broken"))
        }),
    };

    /// A fresh, empty directory under the system temp dir.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vdce-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_file_creates_the_parent_directories() {
        let dir = scratch("write-file");
        let path = dir.join("target/fuzz_repro/seed_1.json");
        write_file(&path, "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_records_what_holds_and_skips_a_broken_claim() {
        let dir = scratch("drive-write");
        let mut out = Vec::new();
        let failures = drive(Mode::Write, &[&OK, &BROKEN], &dir, &mut out);
        assert_eq!(failures, ["broken: rows are wrong"]);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "ok: wrote BENCH_ok.json\nbroken: not written, 1 claim(s) broken\n"
        );
        assert!(dir.join("BENCH_ok.json").exists());
        assert!(!dir.join("BENCH_broken.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_ignores_wall_clock_and_names_the_first_other_difference() {
        let artifact = |rows: u32, ms: f64| {
            RunArtifact::new("exp_ok")
                .section("rows", &vec![rows])
                .section("wall_clock", &vec![ms])
                .to_json_pretty()
        };
        let fresh = outside_wall_clock(&artifact(1, 2.5)).unwrap();
        assert_eq!(outside_wall_clock(&artifact(1, 9.0)).unwrap(), fresh);
        let d = first_difference(&outside_wall_clock(&artifact(7, 2.5)).unwrap(), &fresh).unwrap();
        assert!(d.starts_with("line 6:") && d.ends_with("-     7\n+     1"), "{d}");
        assert!(!outside_wall_clock("{\"bench\": 1}").unwrap_err().is_empty());
    }
}
