//! The Application Editor's document lifecycle (§2): build an
//! application, save it as the versioned JSON document the web editor
//! would upload to the VDCE server, reload it, and render the editor
//! views.
//!
//! ```sh
//! cargo run --example editor_roundtrip
//! ```

use vdce_afg::{
    render_all_properties, render_flow_graph, AfgBuilder, AfgDocument, ComputationMode, IoSpec,
    MachineType, ServiceRequest, TaskLibrary,
};

fn main() {
    let lib = TaskLibrary::standard();

    // Browse the editor's menus.
    println!("TASK LIBRARY MENUS");
    for group in [
        vdce_afg::LibraryGroup::MatrixAlgebra,
        vdce_afg::LibraryGroup::C3i,
        vdce_afg::LibraryGroup::SignalProcessing,
        vdce_afg::LibraryGroup::Generic,
    ] {
        println!("  {group}:");
        for entry in lib.group(group) {
            println!(
                "    {:<24} {} in / {} out — {}",
                entry.name, entry.in_ports, entry.out_ports, entry.description
            );
        }
    }

    // Drag icons, wire ports, fill in property sheets.
    let mut b = AfgBuilder::new("spectral-pipeline", &lib);
    let src = b.add_task("Source", "samples", 4096).unwrap();
    let fir = b.add_task("FIR_Filter", "lowpass", 4096).unwrap();
    let fft = b.add_task("FFT", "spectrum", 4096).unwrap();
    let snk = b.add_task("Sink", "archive", 4096).unwrap();
    b.set_mode(fft, ComputationMode::Parallel).unwrap();
    b.set_num_nodes(fft, 4).unwrap();
    b.set_machine_type(fft, MachineType::SgiIrix).unwrap();
    b.set_output(fft, 0, IoSpec::inline_file("/users/VDCE/dsp/spectrum.dat", 0)).unwrap();
    b.connect(src, 0, fir, 0).unwrap();
    b.connect(fir, 0, fft, 0).unwrap();
    b.connect(fft, 0, snk, 0).unwrap();
    let graph = b.build().unwrap();

    println!("\n{}", render_flow_graph(&graph));
    println!("{}", render_all_properties(&graph));

    // Save: the wire document (with requested runtime services).
    let doc = AfgDocument::new("dsp_user", graph)
        .unwrap()
        .with_service(ServiceRequest::Io)
        .with_service(ServiceRequest::Visualization);
    let json = doc.to_json();
    println!("document is {} bytes of JSON; excerpt:", json.len());
    for line in json.lines().take(12) {
        println!("  {line}");
    }
    println!("  ...");

    // Load: tamper-checked, version-checked, re-validated.
    let loaded = AfgDocument::from_json(&json).expect("round trip");
    assert_eq!(loaded, doc);
    println!(
        "\nround trip OK: {} tasks, author `{}`, services {:?}",
        loaded.afg.task_count(),
        loaded.author,
        loaded.services
    );
}
