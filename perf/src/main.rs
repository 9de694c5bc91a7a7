//! `vdce_perf`: the repository's one benchmark.
//!
//! ```text
//! vdce_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! vdce_perf --describe        # the contents of BENCHMARK.json
//! ```
//!
//! One process runs one workload, single-threaded and closed-loop (one
//! caller; the services under test run in logical time, so there is no
//! wall-clock arrival schedule to keep). It generates the inputs from the
//! seed, fills the measuring window with whole passes of identical work,
//! checks the outputs, prints every metric by name and unit, and ends with
//! one JSON line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! repeats the workload with each operation decomposed into calls to the
//! layers' public functions, records a span per call, writes them to
//! `perf/out/<workload>.trace.jsonl` and reports the per-layer metrics.
//! See `perf/README.md`.

mod alloc;
mod layers;
mod metrics;
mod reference;
mod report;
mod stats;
mod trace;
mod workloads;

use reference::Reference;
use report::{Metric, RunResult};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{OpRecorder, PassOutcome, Scale, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where the traced run writes, relative to the checkout root.
pub const OUT_DIR: &str = "perf/out";

/// Set-ups per run: at least this many, more while they stay cheap.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;
/// A set-up is bracketed by reference slices as if it took at least this
/// long, so that even a millisecond set-up gets a few.
const SETUP_REFERENCE_FLOOR_NS: u64 = 20_000_000;
/// Share of the traced run's window spent on untraced passes, which give
/// the reference for `driver.trace_overhead_x` and the op tail.
const UNTRACED_SHARE: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, scale: Scale::Full };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            // Smoke runs only: a twentieth of the inputs, none of the sizing checks.
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    other => return Err(format!("--scale takes full or small, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workloads::names().any(|n| n == args.workload) {
        return Err(format!(
            "--workload must be one of {}; got `{}`",
            workloads::names().collect::<Vec<_>>().join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--describe") {
        println!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vdce_perf: {e}");
            eprintln!(
                "usage: vdce_perf --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--scale full|small] | --describe"
            );
            return ExitCode::from(2);
        }
    };
    // One thread, recorded: the rayon shim spawns scoped threads per parallel
    // stage, which on two shared cores costs more than it saves and makes
    // timings depend on the neighbours. Set before anything can read it.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    println!(
        "vdce_perf: workload {} seed {} window {} s trace {} (RAYON_NUM_THREADS=1, {} core(s) visible)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let result = if args.trace { run_traced(&args) } else { run_untraced(&args) };
    result.print();
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn build(args: &Args) -> Box<dyn Workload> {
    workloads::build(&args.workload, args.seed, args.scale).expect("name validated by parse_args")
}

/// One measured pass.
struct Pass {
    rec: OpRecorder,
    outcome: PassOutcome,
}

/// Run untraced passes until `seconds` have gone by (at least one).
fn run_passes(w: &mut dyn Workload, seconds: f64) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut rec = OpRecorder::new();
        let outcome = w.pass(&mut rec);
        passes.push(Pass { rec, outcome });
    }
    passes
}

/// Every pass of a run does the same work: same allocations, same outputs.
fn determinism_failures(passes: &[Pass]) -> Vec<String> {
    let first = &passes[0];
    let mut failures = Vec::new();
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.rec.allocs != first.rec.allocs {
            failures.push(format!(
                "pass {i} allocated {:?}, pass 0 {:?}: allocation counts must repeat",
                p.rec.allocs, first.rec.allocs
            ));
        }
        if p.outcome != first.outcome {
            failures.push(format!("pass {i} produced {:?}, pass 0 {:?}", p.outcome, first.outcome));
        }
    }
    failures
}

fn op_ms(passes: &[Pass]) -> Vec<f64> {
    passes.iter().flat_map(|p| p.rec.op_ns.iter().map(|&ns| ns as f64 / 1e6)).collect()
}

/// Median over passes of each pass's median op time, ms.
fn p50_ms(passes: &[Pass]) -> f64 {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|p| stats::median(&p.rec.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>()))
        .collect();
    stats::median(&per_pass)
}

fn run_untraced(args: &Args) -> RunResult {
    // Set-up, several times over: its median is a metric, and equal seeds
    // must give equal inputs.
    let mut setup_s = Vec::new();
    let mut setup_raw_s = Vec::new();
    let mut digests = Vec::new();
    let mut w = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(w.take());
        let mut reference = Reference::default();
        reference.keep_pace(SETUP_REFERENCE_FLOOR_NS / 2);
        let (built, s) = workloads::timed(|| build(args));
        reference.keep_pace(SETUP_REFERENCE_FLOOR_NS.max((s * 1e9) as u64));
        digests.push(built.input_digest());
        setup_s.push(s / reference.slowdown());
        setup_raw_s.push(s);
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up ran");
    let mut failures = Vec::new();
    if digests.iter().any(|d| *d != digests[0]) {
        failures.push("the same seed generated different inputs".to_string());
    }

    // Warm-up pass (memo caches fill, lazy set-up finishes), then the window.
    w.pass(&mut OpRecorder::new());
    let passes = run_passes(w.as_mut(), args.seconds);
    failures.extend(determinism_failures(&passes));
    failures.extend(w.check());

    let first = &passes[0];
    let ops_per_pass = first.rec.op_ns.len() as f64;
    let throughput: Vec<f64> =
        passes.iter().map(|p| ops_per_pass / p.rec.busy_nominal_s()).collect();
    let attempted: u64 = passes.iter().map(|p| p.rec.op_ns.len() as u64).sum();
    let failed: u64 = passes.iter().map(|p| p.outcome.failed).sum();
    let all_ms = op_ms(&passes);

    let mut r = RunResult::new(attempted, failed, failures);
    r.push(Metric::samples("setup_s", &setup_s));
    r.push(Metric::samples("throughput_ops_s", &throughput));
    r.push(Metric::value("allocs_per_op", first.rec.allocs.calls as f64 / ops_per_pass));
    r.push(Metric::value("alloc_bytes_per_op", first.rec.allocs.bytes as f64 / ops_per_pass));
    r.push(Metric::value("peak_rss_mb", report::peak_rss_mb()));
    r.push(Metric::value(
        "served_share",
        first.outcome.served as f64 / first.outcome.offered.max(1) as f64,
    ));
    let slowdown: Vec<f64> = passes.iter().map(|p| p.rec.reference.slowdown()).collect();
    let raw: Vec<f64> =
        passes.iter().map(|p| ops_per_pass / (p.rec.busy_ns as f64 / 1e9)).collect();
    r.note(format!(
        "timings above are at nominal machine speed; by the wall clock: set-up {:.6} s, \
         {:.6} ops/s, machine slowdown per pass median {:.3}, range {:.3}-{:.3}",
        stats::median(&setup_raw_s),
        stats::median(&raw),
        stats::median(&slowdown),
        slowdown.iter().copied().fold(f64::INFINITY, f64::min),
        slowdown.iter().copied().fold(0.0, f64::max),
    ));
    r.note(format!("op p50: {:.4} ms over {} ops", p50_ms(&passes), all_ms.len()));
    r.note(report::tail_note(&all_ms));
    r.note(format!(
        "{} passes of {} ops; input digest {:#018x}; output digest {:#018x}",
        passes.len(),
        ops_per_pass,
        digests[0],
        first.outcome.digest
    ));
    r
}

fn run_traced(args: &Args) -> RunResult {
    let mut w = build(args);
    let times = w.setup_times();
    w.pass(&mut OpRecorder::new());

    // Untraced reference passes, then the traced ones.
    let untraced = run_passes(w.as_mut(), args.seconds * UNTRACED_SHARE);
    let mut tr = trace::Tracer::new();
    let mut values = workloads::LayerValues::new();
    let mut outcomes = Vec::new();
    let start = Instant::now();
    while outcomes.is_empty()
        || start.elapsed().as_secs_f64() < args.seconds * (1.0 - UNTRACED_SHARE)
    {
        outcomes.push(w.traced_pass(&mut tr, &mut values));
    }
    let mut failures = Vec::new();
    if outcomes.iter().any(|o| *o != untraced[0].outcome) {
        failures.push(format!(
            "the decomposed pass produced {:?}, the one-call pass {:?}",
            outcomes[0], untraced[0].outcome
        ));
    }
    failures.extend(w.check());
    if std::fs::create_dir_all(OUT_DIR).is_err() {
        failures.push(format!("cannot create {OUT_DIR}"));
    }
    w.side_measurements(&mut values);

    let path = format!("{OUT_DIR}/{}.trace.jsonl", args.workload);
    if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
        failures.push(format!("cannot write {path}: {e}"));
    }

    values.insert("sim.dag_gen.ms", times.dag_gen_s * 1e3);
    values.insert("sim.pool_gen.ms", times.pool_gen_s * 1e3);
    values.insert("sim.arrivals.ms", times.arrivals_s * 1e3);
    let untraced_ms = op_ms(&untraced);
    let untraced_p50_ms = p50_ms(&untraced);
    values.insert("driver.op_p50_ms", untraced_p50_ms);
    if let Some((pct, ms)) = stats::tail(&untraced_ms) {
        values.insert("driver.op_tail_pct", pct);
        values.insert("driver.op_tail_ms", ms);
    }
    report::derive_layer_values(tr.spans(), untraced_p50_ms, &mut values);

    let attempted = outcomes.iter().map(|o| o.offered).sum::<u64>().max(1);
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let mut r = RunResult::new(attempted, failed, failures);
    for d in metrics::PER_LAYER {
        r.push(Metric::value(d.name, values.get(d.name).copied().unwrap_or(0.0)));
    }
    r.note(report::share_table(tr.spans()));
    r.note(format!(
        "{} traced pass(es), {} span(s) in {path}; {} untraced reference pass(es)",
        outcomes.len(),
        tr.spans().len(),
        untraced.len()
    ));
    r
}
