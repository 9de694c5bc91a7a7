//! Property tests for the prediction model: the monotonicity and
//! scaling laws the scheduling algorithms rely on.

use proptest::prelude::*;
use vdce_afg::MachineType;
use vdce_predict::model::{predict_seconds, Predictor};
use vdce_predict::parallel::{best_node_count, parallel_seconds, ParallelModel};
use vdce_predict::{fit_base_rate, fit_relative_speed};
use vdce_repository::resources::ResourceRecord;
use vdce_repository::TaskPerfDb;

fn host(name: &str, speed: f64, workload: f64, mem: u64) -> ResourceRecord {
    let mut r = ResourceRecord::new(name, "10.0.0.1", MachineType::LinuxPc, speed, 1, mem, "g");
    if workload > 0.0 {
        r.workload = workload;
        r.workload_history.push_back(workload);
    }
    r
}

const TASKS: [&str; 5] = ["Map", "Sort", "Matrix_Multiplication", "LU_Decomposition", "FFT"];

proptest! {
    #[test]
    fn prediction_is_monotone_in_problem_size(
        task_idx in 0usize..TASKS.len(),
        a in 2u64..5000,
        b in 2u64..5000,
        speed in 0.1f64..16.0,
    ) {
        let db = TaskPerfDb::standard();
        let h = host("h", speed, 0.0, 1 << 40);
        let (small, big) = (a.min(b), a.max(b));
        let ts = predict_seconds(&db, TASKS[task_idx], small, &h).unwrap();
        let tb = predict_seconds(&db, TASKS[task_idx], big, &h).unwrap();
        prop_assert!(tb >= ts);
        prop_assert!(ts > 0.0 && ts.is_finite());
    }

    #[test]
    fn prediction_is_inverse_in_speed(
        task_idx in 0usize..TASKS.len(),
        n in 8u64..2000,
        s1 in 0.1f64..8.0,
        s2 in 0.1f64..8.0,
    ) {
        let db = TaskPerfDb::standard();
        let t1 = predict_seconds(&db, TASKS[task_idx], n, &host("a", s1, 0.0, 1 << 40)).unwrap();
        let t2 = predict_seconds(&db, TASKS[task_idx], n, &host("b", s2, 0.0, 1 << 40)).unwrap();
        // t ∝ 1/speed exactly for idle hosts with ample memory.
        prop_assert!((t1 * s1 - t2 * s2).abs() <= 1e-9 * (t1 * s1).abs().max(1.0));
    }

    #[test]
    fn prediction_is_monotone_in_workload(
        n in 8u64..2000,
        w1 in 0.0f64..16.0,
        w2 in 0.0f64..16.0,
    ) {
        let db = TaskPerfDb::standard();
        let (lo, hi) = (w1.min(w2), w1.max(w2));
        let tl = predict_seconds(&db, "Sort", n, &host("a", 1.0, lo, 1 << 40)).unwrap();
        let th = predict_seconds(&db, "Sort", n, &host("b", 1.0, hi, 1 << 40)).unwrap();
        prop_assert!(th >= tl - 1e-12);
    }

    #[test]
    fn memory_pressure_never_speeds_things_up(
        n in 64u64..512,
        avail_frac in 0.01f64..1.0,
    ) {
        let db = TaskPerfDb::standard();
        let roomy = host("roomy", 1.0, 0.0, 1 << 40);
        let mut tight = host("tight", 1.0, 0.0, 1 << 40);
        // Enough total memory, scarce available memory.
        tight.available_memory = ((1u64 << 40) as f64 * avail_frac) as u64;
        let tr = predict_seconds(&db, "LU_Decomposition", n, &roomy).unwrap();
        let tt = predict_seconds(&db, "LU_Decomposition", n, &tight).unwrap();
        prop_assert!(tt >= tr - 1e-12);
    }

    #[test]
    fn parallel_time_never_exceeds_slowest_single_node_plus_sync(
        n in 64u64..1024,
        speeds in proptest::collection::vec(0.2f64..8.0, 1..6),
    ) {
        let db = TaskPerfDb::standard();
        let predictor = Predictor::default();
        let model = ParallelModel::default();
        let hosts: Vec<ResourceRecord> = speeds
            .iter()
            .enumerate()
            .map(|(i, s)| host(&format!("h{i}"), *s, 0.0, 1 << 40))
            .collect();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        let par =
            parallel_seconds(&predictor, &model, &db, "LU_Decomposition", n, &refs).unwrap();
        let fastest_alone = refs
            .iter()
            .map(|h| predictor.predict(&db, "LU_Decomposition", n, h).unwrap())
            .fold(f64::INFINITY, f64::min);
        // Adding nodes costs at most the sync term relative to the
        // fastest node running alone.
        prop_assert!(
            par <= fastest_alone + model.sync_cost_s * (refs.len() as f64 - 1.0) + 1e-9
        );
        prop_assert!(par > 0.0);
    }

    #[test]
    fn best_node_count_never_worse_than_single_best(
        n in 64u64..2048,
        speeds in proptest::collection::vec(0.2f64..8.0, 1..6),
        requested in 1u32..8,
    ) {
        let db = TaskPerfDb::standard();
        let predictor = Predictor::default();
        let model = ParallelModel::default();
        let hosts: Vec<ResourceRecord> = speeds
            .iter()
            .enumerate()
            .map(|(i, s)| host(&format!("h{i}"), *s, 0.0, 1 << 40))
            .collect();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        let (chosen, t) = best_node_count(
            &predictor, &model, &db, "LU_Decomposition", n, requested, &refs,
        )
        .unwrap();
        prop_assert!(!chosen.is_empty() && chosen.len() <= requested as usize);
        let single_best = refs
            .iter()
            .map(|h| predictor.predict(&db, "LU_Decomposition", n, h).unwrap())
            .fold(f64::INFINITY, f64::min);
        prop_assert!(t <= single_best + 1e-9, "p=1 is always a candidate");
    }

    #[test]
    fn fit_base_rate_recovers_planted_rate(
        rate_exp in -9.0f64..-5.0,
        sizes in proptest::collection::vec(16u64..4096, 1..8),
    ) {
        let db = TaskPerfDb::standard();
        let rate = 10f64.powf(rate_exp);
        let samples: Vec<(u64, f64)> = sizes
            .iter()
            .map(|&n| (n, db.computation_size("Sort", n).unwrap() * rate))
            .collect();
        let fit = fit_base_rate(&db, "Sort", &samples).unwrap();
        prop_assert!((fit - rate).abs() / rate < 1e-9);
    }

    #[test]
    fn fit_relative_speed_recovers_planted_ratio(
        ratio in 0.1f64..10.0,
        base_times in proptest::collection::vec(0.01f64..100.0, 1..10),
    ) {
        let pairs: Vec<(f64, f64)> =
            base_times.iter().map(|&b| (b, b / ratio)).collect();
        let fit = fit_relative_speed(&pairs).unwrap();
        prop_assert!((fit - ratio).abs() / ratio < 1e-9);
    }
}
