//! A C3I (command-and-control) surveillance pipeline across three sites —
//! the application family the paper's Rome Laboratory funding context
//! motivates (§2's "C3I (command and control applications) library").
//!
//! Two sensor chains are ingested and correlated at their own sites, the
//! fused picture is scored for threats, and engagement orders are
//! dispatched.
//!
//! ```sh
//! cargo run --example c3i_pipeline
//! ```

use vdce_afg::{AfgBuilder, AfgDocument, MachineType, TaskLibrary};
use vdce_core::Vdce;
use vdce_net::model::LinkParams;
use vdce_repository::AccessDomain;

fn main() {
    // --- Three sites: two sensor sites and one command centre ---------
    let mut b = Vdce::builder();
    let sensor_a = b.add_site("radar-north");
    let sensor_b = b.add_site("radar-south");
    let command = b.add_site("command-centre");
    for i in 0..3 {
        b.add_host(
            sensor_a,
            format!("north{i}"),
            MachineType::SunSolaris,
            1.0 + 0.2 * i as f64,
            1 << 30,
        );
        b.add_host(
            sensor_b,
            format!("south{i}"),
            MachineType::IbmRs6000,
            1.0 + 0.3 * i as f64,
            1 << 30,
        );
        b.add_host(command, format!("hq{i}"), MachineType::SgiIrix, 2.5 + 0.5 * i as f64, 1 << 30);
    }
    // The command centre has fat pipes to both sensor sites; the sensor
    // sites see each other only over a slow backbone.
    b.set_link(sensor_a, command, LinkParams::new(0.005, 10_000_000.0));
    b.set_link(sensor_b, command, LinkParams::new(0.005, 10_000_000.0));
    b.set_link(sensor_a, sensor_b, LinkParams::new(0.080, 500_000.0));
    b.add_user("watch_officer", "pw", 9, AccessDomain::Global);
    let vdce = b.build();

    let session = vdce.login(command, "watch_officer", "pw").unwrap();

    // --- The pipeline --------------------------------------------------
    const REPORTS: u64 = 6_000;
    let lib = TaskLibrary::standard();
    let mut afg = AfgBuilder::new("C3I surveillance pipeline", &lib);

    let ingest_n = afg.add_task("Sensor_Ingest", "ingest_north", REPORTS).unwrap();
    let ingest_s = afg.add_task("Sensor_Ingest", "ingest_south", REPORTS).unwrap();
    let corr_n = afg.add_task("Track_Correlation", "correlate_north", REPORTS).unwrap();
    let corr_s = afg.add_task("Track_Correlation", "correlate_south", REPORTS).unwrap();
    let fusion = afg.add_task("Data_Fusion", "fuse", REPORTS).unwrap();
    let threat = afg.add_task("Threat_Assessment", "assess", REPORTS).unwrap();
    let dispatch = afg.add_task("Command_Dispatch", "dispatch", REPORTS).unwrap();

    afg.connect(ingest_n, 0, corr_n, 0).unwrap();
    afg.connect(ingest_s, 0, corr_s, 0).unwrap();
    afg.connect(corr_n, 0, fusion, 0).unwrap();
    afg.connect(corr_s, 0, fusion, 1).unwrap();
    afg.connect(fusion, 0, threat, 0).unwrap();
    afg.connect(threat, 0, dispatch, 0).unwrap();
    let graph = afg.build().unwrap();

    println!("{}", vdce_afg::render_flow_graph(&graph));

    // --- Submit ---------------------------------------------------------
    let doc = AfgDocument::new("watch_officer", graph).unwrap();
    let report = session.submit(&doc).expect("pipeline runs");
    println!("{}", report.render());
    println!("{}", report.gantt);
    assert!(report.outcome.success);

    // The scheduler spread the pipeline across the federation.
    let sites = report.allocation.sites_used();
    println!("sites used: {sites:?}");
    assert!(!sites.is_empty());
}
