//! Quickstart: stand up a two-site VDCE federation, design a small
//! application in the (programmatic) Application Editor, submit it, and
//! read the run report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use vdce_afg::{AfgBuilder, AfgDocument, MachineType, TaskLibrary};
use vdce_core::Vdce;
use vdce_repository::AccessDomain;

fn main() {
    // --- 1. The federation: two campus sites -------------------------
    let mut b = Vdce::builder();
    let alpha = b.add_site("campus-alpha");
    let beta = b.add_site("campus-beta");
    b.add_host(alpha, "serval.alpha.edu", MachineType::SunSolaris, 1.0, 1 << 30);
    b.add_host(alpha, "bobcat.alpha.edu", MachineType::LinuxPc, 1.5, 1 << 30);
    b.add_host(beta, "hunding.beta.edu", MachineType::SunSolaris, 3.0, 1 << 30);
    b.add_host(beta, "fafner.beta.edu", MachineType::IbmRs6000, 2.0, 1 << 30);
    b.add_user("user_k", "hunter2", 5, AccessDomain::Global);
    let vdce = b.build();

    // --- 2. Authenticate (the editor's login step) -------------------
    let session = vdce.login(alpha, "user_k", "hunter2").expect("credentials registered above");
    println!(
        "logged in as {} (priority {}, domain {:?}) at site {}",
        session.account().user_name,
        session.account().priority,
        session.account().domain,
        session.home_site(),
    );

    // --- 3. Design a diamond application -----------------------------
    let lib = TaskLibrary::standard();
    let mut afg = AfgBuilder::new("quickstart-diamond", &lib);
    let src = afg.add_task("Source", "generate", 50_000).unwrap();
    let left = afg.add_task("Sort", "sort", 50_000).unwrap();
    let right = afg.add_task("FFT", "spectrum", 50_000).unwrap();
    let join = afg.add_task("Data_Fusion", "fuse", 50_000).unwrap();
    afg.connect(src, 0, left, 0).unwrap();
    afg.connect(src, 0, right, 0).unwrap();
    afg.connect(left, 0, join, 0).unwrap();
    afg.connect(right, 0, join, 1).unwrap();
    let graph = afg.build().expect("valid application flow graph");

    println!("\n{}", vdce_afg::render_flow_graph(&graph));

    // --- 4. Submit: schedule + execute --------------------------------
    let doc = AfgDocument::new("user_k", graph).unwrap();
    let report = session.submit(&doc).expect("submission succeeds");

    println!("{}", report.render());
    println!("{}", report.gantt);
    assert!(report.outcome.success);
}
