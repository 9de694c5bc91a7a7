//! Figure 1 of the paper: the **Linear Equation Solver** application.
//!
//! Builds the AFG of Figure 1 — an LU-Decomposition task (parallel, 2
//! nodes, matrix read from `/users/VDCE/user_k/matrix_A.dat`) feeding a
//! second stage pinned to a preferred SUN Solaris machine — extended into
//! a full solver (forward + back substitution) so the run actually
//! produces `x` with `A·x = b`. Renders the editor's task-properties
//! windows exactly as the figure shows them, submits the application,
//! and checks the numerical result.
//!
//! ```sh
//! cargo run --example linear_solver
//! ```

use vdce_afg::{
    render_all_properties, render_flow_graph, AfgBuilder, AfgDocument, ComputationMode, IoSpec,
    MachineType, TaskLibrary,
};
use vdce_core::Vdce;
use vdce_repository::AccessDomain;
use vdce_runtime::{decode_f64s, encode_f64s, synth_matrix, synth_values};

const N: u64 = 64; // matrix dimension

fn main() {
    // --- Federation reminiscent of the paper's Syracuse testbed ------
    let mut b = Vdce::builder();
    let cat = b.add_site("cat.syr.edu");
    let top = b.add_site("top.cis.syr.edu");
    b.add_host(cat, "serval.cat.syr.edu", MachineType::SunSolaris, 1.0, 1 << 30);
    b.add_host(cat, "bobcat.cat.syr.edu", MachineType::SunSolaris, 1.2, 1 << 30);
    b.add_host(top, "hunding.top.cis.syr.edu", MachineType::SunSolaris, 2.0, 1 << 30);
    b.add_host(top, "fafner.top.cis.syr.edu", MachineType::LinuxPc, 1.8, 1 << 30);
    b.add_user("user_k", "pw", 5, AccessDomain::Global);
    let vdce = b.build();
    let session = vdce.login(cat, "user_k", "pw").unwrap();

    // --- Upload the input data ---------------------------------------
    let a = synth_matrix(42, N as usize);
    let x_true = synth_values(43, N as usize);
    let mut rhs = vec![0.0; N as usize];
    for i in 0..N as usize {
        for j in 0..N as usize {
            rhs[i] += a[i * N as usize + j] * x_true[j];
        }
    }
    session.io().put("/users/VDCE/user_k/matrix_A.dat", encode_f64s(&a));
    session.io().put("/users/VDCE/user_k/vector_B.dat", encode_f64s(&rhs));

    // --- The Figure-1 application ------------------------------------
    let lib = TaskLibrary::standard();
    let mut afg = AfgBuilder::new("Linear Equation Solver", &lib);

    let lu = afg.add_task("LU_Decomposition", "LU_Decomposition", N).unwrap();
    afg.set_mode(lu, ComputationMode::Parallel).unwrap();
    afg.set_num_nodes(lu, 2).unwrap();
    afg.set_input(lu, 0, IoSpec::inline_file("/users/VDCE/user_k/matrix_A.dat", 8 * N * N))
        .unwrap();

    let fwd = afg.add_task("Forward_Substitution", "Forward_Substitution", N).unwrap();
    afg.set_input(fwd, 1, IoSpec::inline_file("/users/VDCE/user_k/vector_B.dat", 8 * N)).unwrap();

    // The paper's second stage prefers a concrete SUN Solaris machine.
    let back = afg.add_task("Back_Substitution", "Back_Substitution", N).unwrap();
    afg.set_machine_type(back, MachineType::SunSolaris).unwrap();
    afg.set_preferred_host(back, "hunding.top.cis.syr.edu").unwrap();
    afg.set_output(back, 0, IoSpec::inline_file("/users/VDCE/user_k/vector_X.dat", 0)).unwrap();

    afg.connect(lu, 0, fwd, 0).unwrap(); // L
    afg.connect(lu, 1, back, 0).unwrap(); // U
    afg.connect(fwd, 0, back, 1).unwrap(); // y
    let graph = afg.build().expect("Figure 1 application validates");

    // --- Figure 1, rendered ------------------------------------------
    println!("{}", render_flow_graph(&graph));
    println!("{}", render_all_properties(&graph));

    // --- Submit --------------------------------------------------------
    let doc = AfgDocument::new("user_k", graph).unwrap();
    let report = session.submit(&doc).expect("solver schedules and runs");
    println!("{}", report.render());

    // --- Verify: the stored vector_X solves the system ----------------
    let x = session
        .io()
        .get("/users/VDCE/user_k/vector_X.dat")
        .expect("back substitution stored its output");
    let x = decode_f64s(&x);
    let max_err = x.iter().zip(x_true.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("max |x - x_true| = {max_err:.3e}");
    assert!(max_err < 1e-6, "the solver must recover x");
    assert!(report.outcome.success);

    // The Back_Substitution task honoured the preferred machine.
    let back_placement =
        report.allocation.iter().find(|p| &*p.task_name == "Back_Substitution").unwrap();
    assert_eq!(back_placement.hosts.to_vec(), vec!["hunding.top.cis.syr.edu".to_string()]);
    println!("\npreferred-machine pin honoured: Back_Substitution @ {}", back_placement.hosts[0]);
}
