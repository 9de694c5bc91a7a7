//! `vdce` — operator CLI for the VDCE reproduction.
//!
//! ```text
//! vdce libraries                 list the Application Editor task menus
//! vdce render <afg.json>        render a saved AFG document (Figure-1 style)
//! vdce submit <afg.json> [user] run a saved document on a demo federation
//! vdce solve [n]                run the Figure-1 Linear Equation Solver
//! vdce demo                     run the quickstart scenario
//! ```

use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;
use vdce_afg::{
    render_all_properties, render_flow_graph, AfgBuilder, AfgDocument, IoSpec, LibraryGroup,
    MachineType, TaskLibrary,
};
use vdce_core::Vdce;
use vdce_net::topology::SiteId;
use vdce_repository::AccessDomain;

/// `println!` that stops the program quietly when the reader has closed
/// standard output (`vdce demo | head -1`), as a filter does, where
/// `println!` would panic.
macro_rules! say {
    ($($arg:tt)*) => {
        say(format_args!($($arg)*))
    };
}

fn say(line: fmt::Arguments<'_>) {
    match writeln!(io::stdout(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: writing to standard output: {e}");
            std::process::exit(1);
        }
    }
}

fn demo_federation(user: &str) -> Vdce {
    let mut b = Vdce::builder();
    let s0 = b.add_site("campus-a");
    let s1 = b.add_site("campus-b");
    for i in 0..4 {
        b.add_host(
            s0,
            format!("a{i}.campus-a.edu"),
            MachineType::LinuxPc,
            1.0 + 0.5 * i as f64,
            1 << 30,
        );
        b.add_host(
            s1,
            format!("b{i}.campus-b.edu"),
            MachineType::SunSolaris,
            1.5 + 0.5 * i as f64,
            1 << 30,
        );
    }
    b.add_user(user, "demo", 5, AccessDomain::Global);
    b.build()
}

fn cmd_libraries() -> ExitCode {
    let lib = TaskLibrary::standard();
    for group in [
        LibraryGroup::MatrixAlgebra,
        LibraryGroup::C3i,
        LibraryGroup::SignalProcessing,
        LibraryGroup::Generic,
    ] {
        say!("{group}:");
        for e in lib.group(group) {
            say!("  {:<24} {} in / {} out  {}", e.name, e.in_ports, e.out_ports, e.description);
        }
    }
    ExitCode::SUCCESS
}

fn load_doc(path: &str) -> Result<AfgDocument, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    AfgDocument::from_json(&json).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_render(path: &str) -> ExitCode {
    match load_doc(path) {
        Ok(doc) => {
            say!("{}", render_flow_graph(&doc.afg));
            say!("{}", render_all_properties(&doc.afg));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_submit(path: &str, user: Option<&str>) -> ExitCode {
    let doc = match load_doc(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let user = user.unwrap_or(doc.author.as_str()).to_string();
    let vdce = demo_federation(&user);
    let session = match vdce.login(SiteId(0), &user, "demo") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("login failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match session.submit(&doc) {
        Ok(report) => {
            say!("{}", report.render());
            say!("{}", report.gantt);
            if report.outcome.success {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_solve(n: u64) -> ExitCode {
    let vdce = demo_federation("operator");
    let session = vdce.login(SiteId(0), "operator", "demo").expect("demo user");
    let lib = TaskLibrary::standard();
    let mut b = AfgBuilder::new("Linear Equation Solver", &lib);
    let lu = b.add_task("LU_Decomposition", "lu", n).unwrap();
    b.set_input(lu, 0, IoSpec::inline_file("/cli/A.dat", 8 * n * n)).unwrap();
    let fwd = b.add_task("Forward_Substitution", "fwd", n).unwrap();
    b.set_input(fwd, 1, IoSpec::inline_file("/cli/b.dat", 8 * n)).unwrap();
    let back = b.add_task("Back_Substitution", "back", n).unwrap();
    b.set_output(back, 0, IoSpec::inline_file("/cli/x.dat", 0)).unwrap();
    b.connect(lu, 0, fwd, 0).unwrap();
    b.connect(lu, 1, back, 0).unwrap();
    b.connect(fwd, 0, back, 1).unwrap();
    let doc = AfgDocument::new("operator", b.build().unwrap()).unwrap();
    match session.submit(&doc) {
        Ok(report) => {
            say!("{}", report.render());
            let x = session.io().get("/cli/x.dat").expect("solution stored");
            say!("solved: x has {} components", x.len() / 8);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("solve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_demo() -> ExitCode {
    let vdce = demo_federation("operator");
    let session = vdce.login(SiteId(0), "operator", "demo").expect("demo user");
    let lib = TaskLibrary::standard();
    let mut b = AfgBuilder::new("cli-demo", &lib);
    let src = b.add_task("Source", "src", 50_000).unwrap();
    let srt = b.add_task("Sort", "sort", 50_000).unwrap();
    let fft = b.add_task("FFT", "fft", 50_000).unwrap();
    let fuse = b.add_task("Data_Fusion", "fuse", 50_000).unwrap();
    b.connect(src, 0, srt, 0).unwrap();
    b.connect(src, 0, fft, 0).unwrap();
    b.connect(srt, 0, fuse, 0).unwrap();
    b.connect(fft, 0, fuse, 1).unwrap();
    let doc = AfgDocument::new("operator", b.build().unwrap()).unwrap();
    say!("{}", render_flow_graph(&doc.afg));
    match session.submit(&doc) {
        Ok(report) => {
            say!("{}", report.render());
            say!("{}", report.gantt);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("demo failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vdce <command>\n\
         \n\
         commands:\n\
         \x20 libraries                 list the Application Editor task menus\n\
         \x20 render <afg.json>         render a saved AFG document\n\
         \x20 submit <afg.json> [user]  run a saved document on a demo federation\n\
         \x20 solve [n]                 run the Linear Equation Solver (default n=64)\n\
         \x20 demo                      run the quickstart scenario"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("libraries") => cmd_libraries(),
        Some("render") => match args.get(1) {
            Some(p) => cmd_render(p),
            None => usage(),
        },
        Some("submit") => match args.get(1) {
            Some(p) => cmd_submit(p, args.get(2).map(String::as_str)),
            None => usage(),
        },
        Some("solve") => match args.get(1).map(|s| s.parse::<u64>()) {
            None => cmd_solve(64),
            Some(Ok(n)) if n > 0 => cmd_solve(n),
            Some(_) => {
                eprintln!("error: solve: `{}` is not a positive integer", args[1]);
                ExitCode::FAILURE
            }
        },
        Some("demo") => cmd_demo(),
        Some(other) => {
            eprintln!("error: unknown command `{other}` (run `vdce` with no arguments for usage)");
            ExitCode::FAILURE
        }
        None => usage(),
    }
}
