//! E1 / Figure 1 — the Linear Equation Solver application, end to end.
//!
//! Regenerates the content of the paper's Figure 1 (application flow
//! graph + task-properties windows) and then actually schedules and runs
//! the application on uploaded data, checking that it solves `A·x = b`
//! and printing predicted vs measured execution times per task — the
//! quantitative companion the paper omits.

use super::Claims;
use vdce_afg::{
    render_all_properties, render_flow_graph, AfgBuilder, AfgDocument, ComputationMode, IoSpec,
    MachineType, TaskLibrary,
};
use vdce_core::Vdce;
use vdce_obs::Report;
use vdce_repository::AccessDomain;
use vdce_runtime::{decode_f64s, encode_f64s, synth_matrix, synth_values};
use vdce_sim::Table;

pub(super) fn run(claims: &mut Claims) -> String {
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
        // Upload A and b = A·x_true; back substitution stores x.
        let (a, x_true) = (synth_matrix(42, n as usize), synth_values(43, n as usize));
        let b: Vec<f64> = a
            .chunks(n as usize)
            .map(|row| row.iter().zip(&x_true).map(|(a, x)| a * x).sum())
            .collect();
        let [a_path, b_path, x_path] =
            ["matrix_A", "vector_B", "vector_X"].map(|f| format!("/users/VDCE/user_k/{f}_{n}.dat"));
        session.io().put(a_path.clone(), encode_f64s(&a));
        session.io().put(b_path.clone(), encode_f64s(&b));

        let lib = TaskLibrary::standard();
        let mut afg = AfgBuilder::new("Linear Equation Solver", &lib);
        let lu = afg.add_task("LU_Decomposition", "LU_Decomposition", n).unwrap();
        afg.set_mode(lu, ComputationMode::Parallel).unwrap();
        afg.set_num_nodes(lu, 2).unwrap();
        afg.set_input(lu, 0, IoSpec::inline_file(a_path, 8 * n * n)).unwrap();
        let fwd = afg.add_task("Forward_Substitution", "Forward_Substitution", n).unwrap();
        afg.set_input(fwd, 1, IoSpec::inline_file(b_path, 8 * n)).unwrap();
        let back = afg.add_task("Back_Substitution", "Back_Substitution", n).unwrap();
        afg.set_preferred_host(back, "hunding.top.cis.syr.edu").unwrap();
        afg.set_output(back, 0, IoSpec::inline_file(x_path.clone(), 0)).unwrap();
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
        let x = decode_f64s(&session.io().get(&x_path).expect("back substitution stores x"));
        let err = x.iter().zip(&x_true).map(|(x, want)| (x - want).abs()).fold(0.0, f64::max);
        claims.check(x.len() == x_true.len() && err < 1e-6, || {
            format!("fig1: x solves A·x = b (n = {n}: max |x − x_true| = {err:e})")
        });
        for p in report.allocation.iter() {
            let rec = &report.outcome.records[p.task.index()];
            let (parallel, hosts) = (p.hosts.len() > 1, p.hosts.join("+"));
            let holds = match &*p.task_name {
                "LU_Decomposition" => parallel == (n >= 128),
                "Back_Substitution" => hosts == "hunding.top.cis.syr.edu",
                _ => true,
            };
            claims.check(holds, || {
                format!(
                    "fig1: LU goes parallel from n = 128, and back substitution runs on its \
                     preferred host ({} at n = {n} on {hosts})",
                    p.task_name
                )
            });
            table.row(&[
                n.to_string(),
                p.task_name.to_string(),
                if parallel { "parallel".into() } else { "sequential".into() },
                hosts,
                format!("{:.5}", p.predicted_seconds),
                format!("{:.5}", rec.finish - rec.start),
            ]);
        }
    }
    Report::new("E1 / Figure 1: Linear Equation Solver").text(figures).table(table).render()
}
