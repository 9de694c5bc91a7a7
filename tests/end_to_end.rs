//! Cross-crate integration tests: the full VDCE pipeline
//! (design → schedule → execute → write-back) on multi-site federations.

use vdce_afg::{AfgBuilder, AfgDocument, ComputationMode, IoSpec, MachineType, TaskLibrary};
use vdce_core::{Vdce, VdceConfig};
use vdce_net::topology::SiteId;
use vdce_repository::AccessDomain;
use vdce_runtime::{decode_f64s, encode_f64s, synth_matrix, synth_values, Transport};

fn federation(transport: Transport) -> Vdce {
    let mut b = Vdce::builder();
    let s0 = b.add_site("alpha");
    let s1 = b.add_site("beta");
    let s2 = b.add_site("gamma");
    for i in 0..4 {
        b.add_host(s0, format!("a{i}"), MachineType::LinuxPc, 1.0 + 0.25 * i as f64, 1 << 30);
        b.add_host(s1, format!("b{i}"), MachineType::SunSolaris, 1.5 + 0.25 * i as f64, 1 << 30);
        b.add_host(s2, format!("c{i}"), MachineType::SgiIrix, 2.0 + 0.25 * i as f64, 1 << 30);
    }
    b.add_user("user_k", "pw", 5, AccessDomain::Global);
    b.add_user("local_only", "pw", 1, AccessDomain::LocalSite);
    b.config(VdceConfig { transport, ..VdceConfig::default() });
    b.build()
}

fn solver_doc(author: &str, n: u64) -> AfgDocument {
    let lib = TaskLibrary::standard();
    let mut b = AfgBuilder::new("solver", &lib);
    let lu = b.add_task("LU_Decomposition", "lu", n).unwrap();
    b.set_input(lu, 0, IoSpec::inline_file("/A.dat", 8 * n * n)).unwrap();
    let fwd = b.add_task("Forward_Substitution", "fwd", n).unwrap();
    b.set_input(fwd, 1, IoSpec::inline_file("/b.dat", 8 * n)).unwrap();
    let back = b.add_task("Back_Substitution", "back", n).unwrap();
    b.set_output(back, 0, IoSpec::inline_file("/x.dat", 0)).unwrap();
    b.connect(lu, 0, fwd, 0).unwrap();
    b.connect(lu, 1, back, 0).unwrap();
    b.connect(fwd, 0, back, 1).unwrap();
    AfgDocument::new(author, b.build().unwrap()).unwrap()
}

/// The complete numerical pipeline is correct end-to-end, over both
/// transports.
#[test]
fn linear_solver_is_numerically_correct_on_both_transports() {
    for transport in [Transport::InProc, Transport::Tcp] {
        let v = federation(transport);
        let session = v.login(SiteId(0), "user_k", "pw").unwrap();
        let n = 32usize;
        let a = synth_matrix(7, n);
        let x_true = synth_values(8, n);
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                rhs[i] += a[i * n + j] * x_true[j];
            }
        }
        session.io().put("/A.dat", encode_f64s(&a));
        session.io().put("/b.dat", encode_f64s(&rhs));
        let report = session.submit(&solver_doc("user_k", n as u64)).unwrap();
        assert!(report.outcome.success, "{transport:?}: {:?}", report.outcome.records);
        let x = decode_f64s(&session.io().get("/x.dat").unwrap());
        for (got, want) in x.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-7, "{transport:?}: x mismatch");
        }
    }
}

/// Access domains constrain federation reach.
#[test]
fn access_domain_limits_scheduling_reach() {
    let v = federation(Transport::InProc);
    // Global user: remote (faster) sites allowed.
    let g = v.login(SiteId(0), "user_k", "pw").unwrap();
    assert_eq!(g.effective_k(), 2);
    // Local-only user: placements stay at the home site even though
    // remote hosts are faster.
    let l = v.login(SiteId(0), "local_only", "pw").unwrap();
    let report = l.submit(&solver_doc("local_only", 16)).unwrap();
    assert_eq!(report.allocation.sites_used(), vec![SiteId(0)]);
    assert!(report.outcome.success);
}

/// Repeated submissions refine the task-performance database, and the
/// refined predictions stay within an order of magnitude of measurement.
#[test]
fn measured_rates_feed_back_into_predictions() {
    let v = federation(Transport::InProc);
    let session = v.login(SiteId(0), "user_k", "pw").unwrap();
    let mut last_ratio = f64::INFINITY;
    for round in 0..3 {
        let report = session.submit(&solver_doc("user_k", 48)).unwrap();
        assert!(report.outcome.success);
        let predicted = report.predicted_seconds().unwrap();
        let measured = report.measured_seconds().max(1e-6);
        let ratio = (predicted / measured).max(measured / predicted);
        if round == 2 {
            assert!(
                ratio < last_ratio * 10.0,
                "prediction should not diverge after feedback: {ratio} vs {last_ratio}"
            );
        }
        last_ratio = ratio;
    }
    // Some host now has measured samples for the LU task.
    let any_samples = (0..3u16).any(|s| {
        v.repository(SiteId(s)).tasks(|db| !db.measured_hosts("LU_Decomposition").is_empty())
    });
    assert!(any_samples);
}

/// Suspend stalls execution; resume completes it.
#[test]
fn console_suspend_resume_round_trip() {
    let v = federation(Transport::InProc);
    let session = v.login(SiteId(0), "user_k", "pw").unwrap();
    session.console().suspend();
    let console = session.console().clone();
    let resumer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(100));
        console.resume();
    });
    let t0 = std::time::Instant::now();
    let report = session.submit(&solver_doc("user_k", 16)).unwrap();
    resumer.join().unwrap();
    assert!(report.outcome.success);
    assert!(t0.elapsed() >= std::time::Duration::from_millis(90));
}

/// A dead host recorded in the resource-performance DB is never chosen.
#[test]
fn scheduling_avoids_down_hosts() {
    let v = federation(Transport::InProc);
    // Kill the fastest site's hosts.
    v.repository(SiteId(2)).resources_mut(|db| {
        for i in 0..4 {
            db.set_status(&format!("c{i}"), vdce_repository::HostStatus::Down);
        }
    });
    let session = v.login(SiteId(0), "user_k", "pw").unwrap();
    let report = session.submit(&solver_doc("user_k", 16)).unwrap();
    assert!(report.outcome.success);
    assert!(!report.allocation.sites_used().contains(&SiteId(2)));
}

/// Parallel tasks get a multi-host node set and still compute correctly.
#[test]
fn parallel_lu_spans_hosts_and_reconstructs() {
    let v = federation(Transport::InProc);
    let session = v.login(SiteId(0), "user_k", "pw").unwrap();
    let n = 96u64;
    let lib = TaskLibrary::standard();
    let mut b = AfgBuilder::new("par-lu", &lib);
    let lu = b.add_task("LU_Decomposition", "lu", n).unwrap();
    b.set_mode(lu, ComputationMode::Parallel).unwrap();
    b.set_num_nodes(lu, 3).unwrap();
    b.set_input(lu, 0, IoSpec::inline_file("/A.dat", 8 * n * n)).unwrap();
    let mm = b.add_task("Matrix_Multiplication", "recombine", n).unwrap();
    b.set_output(mm, 0, IoSpec::inline_file("/LU.dat", 0)).unwrap();
    b.connect(lu, 0, mm, 0).unwrap();
    b.connect(lu, 1, mm, 1).unwrap();
    let doc = AfgDocument::new("user_k", b.build().unwrap()).unwrap();

    let a = synth_matrix(5, n as usize);
    session.io().put("/A.dat", encode_f64s(&a));
    let report = session.submit(&doc).unwrap();
    assert!(report.outcome.success);
    // L·U must reconstruct A.
    let rec = decode_f64s(&session.io().get("/LU.dat").unwrap());
    for (got, want) in rec.iter().zip(a.iter()) {
        assert!((got - want).abs() < 1e-7);
    }
}

/// Memory constraints steer placement: a big LU cannot fit the
/// small-memory hosts and must land on the one big-memory host, even
/// though the small hosts are faster.
#[test]
fn memory_constraints_force_placement() {
    let mut b = Vdce::builder();
    let s = b.add_site("solo");
    // Fast but tiny (1 MiB): LU at n=512 needs 16·n² = 4 MiB.
    b.add_host(s, "fast_tiny0", MachineType::LinuxPc, 8.0, 1 << 20);
    b.add_host(s, "fast_tiny1", MachineType::LinuxPc, 8.0, 1 << 20);
    // Slow but roomy.
    b.add_host(s, "slow_roomy", MachineType::LinuxPc, 1.0, 1 << 30);
    b.add_user("u", "pw", 1, AccessDomain::LocalSite);
    let v = b.build();
    let session = v.login(SiteId(0), "u", "pw").unwrap();

    let lib = TaskLibrary::standard();
    let mut bb = AfgBuilder::new("mem", &lib);
    let lu = bb.add_task("LU_Decomposition", "lu", 512).unwrap();
    bb.set_input(lu, 0, IoSpec::inline_file("/big_A.dat", 8 * 512 * 512)).unwrap();
    let snk = bb.add_task("Sink", "snk", 512).unwrap();
    bb.connect(lu, 0, snk, 0).unwrap();
    let doc = AfgDocument::new("u", bb.build().unwrap()).unwrap();
    let report = session.submit(&doc).unwrap();
    assert!(report.outcome.success);
    let lu_hosts = &report.allocation.placement(lu).unwrap().hosts;
    assert_eq!(
        lu_hosts.to_vec(),
        vec!["slow_roomy".to_string()],
        "LU must avoid hosts whose total memory cannot hold it"
    );
    // The small sink is free to use the fast hosts.
    let snk_hosts = &report.allocation.placement(snk).unwrap().hosts;
    assert!(snk_hosts[0].starts_with("fast_tiny"));
}

/// The run report's artefacts are all populated.
#[test]
fn run_report_artifacts_are_complete() {
    let v = federation(Transport::InProc);
    let session = v.login(SiteId(0), "user_k", "pw").unwrap();
    let report = session.submit(&solver_doc("user_k", 16)).unwrap();
    assert!(report.allocation.is_complete_for(&solver_doc("user_k", 16).afg));
    assert!(report.predicted.is_some());
    assert!(report.gantt.contains('#'));
    assert!(report.timeline_csv.lines().count() > 3);
    let rendered = report.render();
    assert!(rendered.contains("lu") && rendered.contains("back"));
}
