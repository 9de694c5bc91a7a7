//! Property tests for the site repository databases.

use proptest::prelude::*;
use vdce_afg::MachineType;
use vdce_repository::accounts::{AccessDomain, UserAccountsDb};
use vdce_repository::resources::{ResourcePerfDb, ResourceRecord, WORKLOAD_HISTORY};
use vdce_repository::{TaskConstraintsDb, TaskPerfDb};

proptest! {
    #[test]
    fn auth_accepts_only_the_registered_password(
        user in "[a-z]{1,12}",
        pass in "[ -~]{1,24}",
        wrong in "[ -~]{1,24}",
    ) {
        let mut db = UserAccountsDb::new();
        db.add_user(&user, &pass, 1, AccessDomain::Global).unwrap();
        prop_assert!(db.authenticate(&user, &pass).is_ok());
        if wrong != pass {
            prop_assert!(db.authenticate(&user, &wrong).is_err());
        }
    }

    #[test]
    fn workload_history_is_bounded_and_smoothed_within_range(
        samples in proptest::collection::vec(0.0f64..64.0, 1..100),
    ) {
        let mut db = ResourcePerfDb::new();
        db.upsert(ResourceRecord::new("h", "10.0.0.1", MachineType::LinuxPc, 1.0, 1, 1, "g"));
        for &s in &samples {
            db.record_sample("h", s, 1);
        }
        let r = db.get("h").unwrap();
        prop_assert!(r.workload_history.len() <= WORKLOAD_HISTORY);
        let tail: Vec<f64> =
            samples.iter().rev().take(WORKLOAD_HISTORY).copied().collect();
        let (lo, hi) = (
            tail.iter().cloned().fold(f64::INFINITY, f64::min),
            tail.iter().cloned().fold(0.0f64, f64::max),
        );
        let sm = r.smoothed_workload();
        prop_assert!(sm >= lo - 1e-12 && sm <= hi + 1e-12,
            "smoothed {sm} outside window [{lo}, {hi}]");
        prop_assert_eq!(r.workload, *samples.last().unwrap());
    }

    #[test]
    fn measured_rate_stays_within_sample_envelope(
        durations in proptest::collection::vec(0.001f64..100.0, 1..50),
    ) {
        let mut db = TaskPerfDb::standard();
        let flops = db.computation_size("Map", 1000).unwrap();
        for &d in &durations {
            db.record_execution("Map", "h", 1000, d);
        }
        let rate = db.measured_rate("Map", "h").unwrap();
        let rates: Vec<f64> = durations.iter().map(|d| d / flops).collect();
        let (lo, hi) = (
            rates.iter().cloned().fold(f64::INFINITY, f64::min),
            rates.iter().cloned().fold(0.0f64, f64::max),
        );
        prop_assert!(rate >= lo - 1e-15 && rate <= hi + 1e-15,
            "EMA must stay inside the sample envelope");
        prop_assert_eq!(db.sample_count("Map", "h"), durations.len() as u64);
    }

    #[test]
    fn base_time_is_monotone_in_problem_size(
        a in 1u64..100_000,
        b in 1u64..100_000,
    ) {
        let db = TaskPerfDb::standard();
        let (small, big) = (a.min(b), a.max(b));
        for task in ["Map", "Sort", "Matrix_Multiplication", "FFT", "LU_Decomposition"] {
            let ts = db.base_time(task, small).unwrap();
            let tb = db.base_time(task, big).unwrap();
            prop_assert!(tb >= ts, "{task}: base_time({big}) < base_time({small})");
        }
    }

    #[test]
    fn constraints_register_unregister_is_consistent(
        ops in proptest::collection::vec(
            (0u8..2, 0u8..4, 0u8..4), 0..60
        ),
    ) {
        let tasks = ["A", "B", "C", "D"];
        let hosts = ["h0", "h1", "h2", "h3"];
        let mut db = TaskConstraintsDb::new();
        let mut model = std::collections::HashSet::new();
        for (op, t, h) in ops {
            let (task, host) = (tasks[t as usize], hosts[h as usize]);
            if op == 0 {
                db.register(task, host, "/p");
                model.insert((task, host));
            } else {
                let removed = db.unregister(task, host);
                prop_assert_eq!(removed, model.remove(&(task, host)));
            }
        }
        prop_assert_eq!(db.len(), model.len());
        for (task, host) in &model {
            prop_assert!(db.is_installed(task, host));
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_all_databases(
        users in proptest::collection::vec(("[a-z]{1,8}", 0u8..10), 0..5),
        loads in proptest::collection::vec(0.0f64..10.0, 0..10),
    ) {
        use vdce_repository::SiteRepository;
        let repo = SiteRepository::new();
        repo.accounts_mut(|db| {
            for (name, prio) in &users {
                let _ = db.add_user(name, "pw", *prio, AccessDomain::Neighbours);
            }
        });
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new("h", "10.0.0.1", MachineType::SgiIrix, 2.0, 1, 99, "g"));
            for &l in &loads {
                db.record_sample("h", l, 42);
            }
        });
        let back = SiteRepository::from_json(&repo.to_json()).unwrap();
        prop_assert_eq!(back.snapshot(), repo.snapshot());
    }
}
