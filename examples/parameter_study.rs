//! A user-level parameter study through the public API: sweep the
//! problem size of a matrix pipeline, submit each size, and watch the
//! task-performance feedback (§4.1's post-run write-back) pull the
//! predictions toward the measurements.
//!
//! ```sh
//! cargo run --release --example parameter_study
//! ```

use vdce_afg::{AfgBuilder, AfgDocument, IoSpec, MachineType, TaskLibrary};
use vdce_core::Vdce;
use vdce_net::topology::SiteId;
use vdce_repository::AccessDomain;
use vdce_sim::Table;

fn solver_doc(n: u64) -> AfgDocument {
    let lib = TaskLibrary::standard();
    let mut b = AfgBuilder::new(format!("study-{n}"), &lib);
    let lu = b.add_task("LU_Decomposition", "lu", n).unwrap();
    b.set_input(lu, 0, IoSpec::inline_file(format!("/study/A_{n}.dat"), 8 * n * n)).unwrap();
    let mm = b.add_task("Matrix_Multiplication", "mm", n).unwrap();
    b.connect(lu, 0, mm, 0).unwrap();
    b.connect(lu, 1, mm, 1).unwrap();
    let snk = b.add_task("Sink", "snk", n).unwrap();
    // Matrix_Multiplication's single output port fans into the sink.
    b.connect(mm, 0, snk, 0).unwrap();
    AfgDocument::new("analyst", b.build().unwrap()).unwrap()
}

fn main() {
    let mut b = Vdce::builder();
    let site = b.add_site("lab");
    for i in 0..4 {
        b.add_host(site, format!("node{i}"), MachineType::LinuxPc, 1.0 + 0.5 * i as f64, 1 << 31);
    }
    b.add_user("analyst", "pw", 5, AccessDomain::LocalSite);
    let vdce = b.build();
    let session = vdce.login(SiteId(0), "analyst", "pw").unwrap();

    let mut table = Table::new(&["round", "n", "predicted_s", "measured_s", "ratio"]);
    // Two passes over the size sweep: the second pass predicts from the
    // rates measured during the first.
    for round in 0..2 {
        for &n in &[48u64, 96, 144] {
            let report = session.submit(&solver_doc(n)).expect("study run");
            assert!(report.outcome.success);
            let p = report.predicted_seconds().unwrap_or(0.0);
            let m = report.measured_seconds().max(1e-9);
            table.row(&[
                round.to_string(),
                n.to_string(),
                format!("{p:.5}"),
                format!("{m:.5}"),
                format!("{:.1}x", p / m),
            ]);
        }
    }
    println!("{}", table.render());
    println!("(round 0 predicts from 1997-era base rates; round 1 from measured rates —");
    println!(" the ratio collapses toward 1 as the task-performance DB calibrates)");
}
