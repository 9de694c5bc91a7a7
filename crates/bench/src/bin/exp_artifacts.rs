//! Validate every checked-in `BENCH_*.json` against the `vdce-obs`
//! RunArtifact schema (see `vdce_obs::validate`), and require
//! the full published set to be present.
//!
//! The recorded artifacts are the repo's published numbers (README,
//! DESIGN.md and external diff tooling read them), and no gate parses
//! them any more, so nothing else would notice a hand-edited, truncated
//! or stale-schema file. Any schema violation in any artifact fails CI
//! here. Likewise a *missing* artifact — a bench that stopped
//! publishing — fails here instead of quietly shrinking the set.
//!
//! Scans the working directory (the repo root in CI) for files named
//! `BENCH_*.json`. Exits 1 if any file fails validation or any
//! required artifact is absent, listing every problem. `--quick` is
//! accepted for ci.sh uniformity and changes nothing — validation is
//! already instantaneous.

use vdce_obs::{Report, Table};

/// Every artifact a full bench pass publishes to the repo root. A new
/// `exp_*` binary that writes a `BENCH_*.json` must be added here (and
/// its file checked in) or this gate fails.
const REQUIRED: &[&str] = &[
    "BENCH_data.json",
    "BENCH_faults.json",
    "BENCH_fuzz.json",
    "BENCH_recovery.json",
    "BENCH_scale.json",
    "BENCH_stream.json",
];

fn main() {
    let dir = std::env::current_dir().expect("readable working directory");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("listable working directory")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();

    let missing: Vec<&str> =
        REQUIRED.iter().filter(|r| !names.iter().any(|n| n == **r)).copied().collect();
    for m in &missing {
        eprintln!("{m}: required artifact missing from {}", dir.display());
    }

    let mut table = Table::new(&["artifact", "bench", "schema", "status"]);
    let mut corrupt = 0usize;
    for name in &names {
        let (bench, schema, status, problems) = match std::fs::read_to_string(name) {
            Err(e) => ("-".into(), "-".into(), format!("unreadable: {e}"), vec![]),
            Ok(text) => match serde_json::from_str::<serde_json::Value>(&text) {
                Err(e) => ("-".into(), "-".into(), format!("unparsable: {e:?}"), vec![]),
                Ok(v) => {
                    let bench = match &v["bench"] {
                        serde_json::Value::String(s) => s.clone(),
                        _ => "-".into(),
                    };
                    let schema = match &v["schema_version"] {
                        serde_json::Value::Number(serde_json::Number::U(n)) => n.to_string(),
                        serde_json::Value::Number(_) => "?".into(),
                        _ => "-".into(),
                    };
                    let problems = vdce_obs::validate_artifact(&v);
                    let status = if problems.is_empty() {
                        "ok".into()
                    } else {
                        format!("{} problem(s)", problems.len())
                    };
                    (bench, schema, status, problems)
                }
            },
        };
        let ok = status == "ok";
        if !ok {
            corrupt += 1;
        }
        table.row(&[name.clone(), bench, schema, status]);
        for p in problems {
            eprintln!("{name}: {p}");
        }
    }

    let mut report = Report::new("BENCH_*.json schema validation").table(table);
    if corrupt == 0 && missing.is_empty() {
        report = report.note(format!(
            "{} artifact(s) valid, all {} required present",
            names.len(),
            REQUIRED.len()
        ));
        report.print();
    } else {
        report = report.note(format!(
            "{corrupt} of {} artifact(s) INVALID, {} required missing",
            names.len(),
            missing.len()
        ));
        report.print();
        std::process::exit(1);
    }
}
