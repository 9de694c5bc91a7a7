//! E8 / §3 — prediction accuracy: how close `Predict(task, R)` gets to
//! measured kernel runtimes, before and after the Site Manager's
//! post-run write-back calibrates the task-performance database; and the
//! *placement regret* of choosing hosts by prediction instead of by
//! (unknowable) measured times.
//!
//! Claim under test: performance prediction "provided by separate
//! function evaluations of each task on each resource" is good enough to
//! drive placement.

use super::Claims;
use std::time::Instant;
use vdce_afg::{KernelKind, MachineType};
use vdce_obs::Report;
use vdce_predict::mean_prediction_error;
use vdce_predict::model::Predictor;
use vdce_repository::resources::ResourceRecord;
use vdce_repository::TaskPerfDb;
use vdce_runtime::{encode_f64s, run_kernel, synth_matrix, synth_values};
use vdce_sim::Table;

fn measure(kernel: KernelKind, n: u64) -> f64 {
    let inputs = match kernel {
        KernelKind::MatrixMultiply => vec![
            encode_f64s(&synth_matrix(1, n as usize)),
            encode_f64s(&synth_matrix(2, n as usize)),
        ],
        KernelKind::LuDecomposition => vec![encode_f64s(&synth_matrix(3, n as usize))],
        KernelKind::Sort | KernelKind::Fft | KernelKind::Map => {
            vec![encode_f64s(&synth_values(4, n as usize))]
        }
        _ => vec![],
    };
    let t0 = Instant::now();
    run_kernel(kernel, n, &inputs).unwrap();
    t0.elapsed().as_secs_f64()
}

pub(super) fn run(claims: &mut Claims) -> String {
    // This machine *is* the base processor: relative speed 1, idle.
    let host = ResourceRecord::new(
        "this-machine",
        "127.0.0.1",
        MachineType::LinuxPc,
        1.0,
        1,
        1 << 34,
        "g0",
    );
    let predictor = Predictor::default();
    let cases: &[(&str, KernelKind, &[u64])] = &[
        ("Matrix_Multiplication", KernelKind::MatrixMultiply, &[64, 128, 256]),
        ("LU_Decomposition", KernelKind::LuDecomposition, &[64, 128, 256]),
        ("Sort", KernelKind::Sort, &[50_000, 200_000]),
        ("FFT", KernelKind::Fft, &[65_536, 262_144]),
        ("Map", KernelKind::Map, &[100_000, 400_000]),
    ];

    let mut db = TaskPerfDb::standard();
    let mut t = Table::new(&["round", "mean_rel_error", "pairs"]);
    let mut uncalibrated = None;
    for round in 0..4 {
        let mut pairs = Vec::new();
        for (task, kernel, sizes) in cases {
            for &n in *sizes {
                let predicted = predictor.predict(&db, task, n, &host).unwrap();
                let actual = measure(*kernel, n);
                pairs.push((predicted, actual));
                // Site-Manager write-back (§4.1) plus base-processor
                // calibration (this machine IS the base processor).
                db.record_execution(task, &host.host_name, n, actual);
                db.record_base_execution(task, n, actual);
            }
        }
        let err = mean_prediction_error(&pairs).unwrap();
        let before = *uncalibrated.get_or_insert(err);
        claims.check(round == 0 || err < before, || {
            format!("e8: round {round}'s error {err:.3} is below the uncalibrated {before:.3}")
        });
        t.row(&[round.to_string(), format!("{:.1}%", err * 100.0), pairs.len().to_string()]);
    }
    // Placement regret: rank two synthetic hosts by prediction vs by a
    // ground-truth 2× speed difference.
    let mut t2 = Table::new(&["task", "n", "predicted_pick", "oracle_pick", "agree"]);
    let slow = host.clone();
    let mut fast = host.clone();
    fast.host_name = "fast".into();
    fast.relative_speed = 2.0;
    for (task, _, sizes) in cases {
        let n = sizes[0];
        let ps = predictor.predict(&db, task, n, &slow).unwrap();
        let pf = predictor.predict(&db, task, n, &fast).unwrap();
        let predicted_pick = if pf < ps { "fast" } else { "slow" };
        claims.check(pf < ps, || format!("e8: prediction picks the 2x-speed host for {task}"));
        // Oracle: the 2×-speed host is always genuinely faster.
        t2.row(&[
            task.to_string(),
            n.to_string(),
            predicted_pick.to_string(),
            "fast".to_string(),
            (predicted_pick == "fast").to_string(),
        ]);
    }
    Report::new("E8: prediction accuracy with task-performance feedback")
        .table(t)
        .note("round 0 = uncalibrated analytic model; later rounds use measured rates")
        .text("placement regret (predicted pick vs 2x-speed oracle):")
        .table(t2)
        .render()
}
