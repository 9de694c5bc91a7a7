//! E1 / Figure 1 — the Linear Equation Solver application, end to end.
//!
//! Regenerates the content of the paper's Figure 1 (application flow
//! graph + task-properties windows) and then actually schedules and runs
//! the application, printing predicted vs measured execution times per
//! task — the quantitative companion the paper omits.

use vdce_afg::{
    render_all_properties, render_flow_graph, AfgBuilder, AfgDocument, ComputationMode, IoSpec,
    MachineType, TaskLibrary,
};
use vdce_core::Vdce;
use vdce_obs::Report;
use vdce_repository::AccessDomain;
use vdce_sim::Table;

fn main() {
    let mut b = Vdce::builder();
    let cat = b.add_site("cat.syr.edu");
    let top = b.add_site("top.cis.syr.edu");
    b.add_host(cat, "serval.cat.syr.edu", MachineType::SunSolaris, 1.0, 1 << 30);
    b.add_host(cat, "bobcat.cat.syr.edu", MachineType::SunSolaris, 1.2, 1 << 30);
    b.add_host(top, "hunding.top.cis.syr.edu", MachineType::SunSolaris, 2.0, 1 << 30);
    b.add_host(top, "fafner.top.cis.syr.edu", MachineType::SunSolaris, 2.0, 1 << 30);
    b.add_user("user_k", "pw", 5, AccessDomain::Global);
    let vdce = b.build();
    let session = vdce.login(cat, "user_k", "pw").unwrap();

    let mut figures = String::new();
    let mut table = Table::new(&["n", "task", "mode", "host(s)", "pred_s", "meas_s"]);
    for n in [64u64, 128, 256] {
        let lib = TaskLibrary::standard();
        let mut afg = AfgBuilder::new("Linear Equation Solver", &lib);
        let lu = afg.add_task("LU_Decomposition", "LU_Decomposition", n).unwrap();
        afg.set_mode(lu, ComputationMode::Parallel).unwrap();
        afg.set_num_nodes(lu, 2).unwrap();
        afg.set_input(
            lu,
            0,
            IoSpec::inline_file(format!("/users/VDCE/user_k/matrix_A_{n}.dat"), 8 * n * n),
        )
        .unwrap();
        let fwd = afg.add_task("Forward_Substitution", "Forward_Substitution", n).unwrap();
        afg.set_input(
            fwd,
            1,
            IoSpec::inline_file(format!("/users/VDCE/user_k/vector_B_{n}.dat"), 8 * n),
        )
        .unwrap();
        let back = afg.add_task("Back_Substitution", "Back_Substitution", n).unwrap();
        afg.set_preferred_host(back, "hunding.top.cis.syr.edu").unwrap();
        afg.set_output(
            back,
            0,
            IoSpec::inline_file(format!("/users/VDCE/user_k/vector_X_{n}.dat"), 0),
        )
        .unwrap();
        afg.connect(lu, 0, fwd, 0).unwrap();
        afg.connect(lu, 1, back, 0).unwrap();
        afg.connect(fwd, 0, back, 1).unwrap();
        let graph = afg.build().unwrap();

        if n == 128 {
            figures = format!("{}\n{}", render_flow_graph(&graph), render_all_properties(&graph));
        }

        let doc = AfgDocument::new("user_k", graph).unwrap();
        let report = session.submit(&doc).expect("solver runs");
        assert!(report.outcome.success, "{:?}", report.outcome.records);
        for p in report.allocation.iter() {
            let rec = &report.outcome.records[p.task.index()];
            table.row(&[
                n.to_string(),
                p.task_name.to_string(),
                if p.hosts.len() > 1 { "parallel".into() } else { "sequential".into() },
                p.hosts.join("+"),
                format!("{:.5}", p.predicted_seconds),
                format!("{:.5}", rec.finish - rec.start),
            ]);
        }
    }
    Report::new("E1 / Figure 1: Linear Equation Solver").text(figures).table(table).print();
}
