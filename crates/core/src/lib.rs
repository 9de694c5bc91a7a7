//! # vdce-core — the Virtual Distributed Computing Environment
//!
//! The high-level API tying the VDCE pipeline of the paper together:
//! *application design* (`vdce-afg`), *scheduling* (`vdce-sched`) and
//! *execution/runtime* (`vdce-runtime`) over a federation of sites
//! (`vdce-net`, `vdce-repository`).
//!
//! ```
//! use vdce_core::Vdce;
//! use vdce_afg::{AfgBuilder, AfgDocument, MachineType, TaskLibrary};
//!
//! // 1. Stand up a two-site federation.
//! let mut b = Vdce::builder();
//! let s0 = b.add_site("campus-a");
//! let s1 = b.add_site("campus-b");
//! b.add_host(s0, "serval", MachineType::SunSolaris, 1.0, 1 << 30);
//! b.add_host(s1, "bobcat", MachineType::LinuxPc, 2.0, 1 << 30);
//! b.add_user("user_k", "secret", 5, vdce_repository::AccessDomain::Global);
//! let vdce = b.build();
//!
//! // 2. Authenticate (the Application Editor's login step).
//! let session = vdce.login(s0, "user_k", "secret").unwrap();
//!
//! // 3. Design an application.
//! let lib = TaskLibrary::standard();
//! let mut afg = AfgBuilder::new("demo", &lib);
//! let src = afg.add_task("Source", "src", 1000).unwrap();
//! let snk = afg.add_task("Sink", "snk", 1000).unwrap();
//! afg.connect(src, 0, snk, 0).unwrap();
//! let doc = AfgDocument::new("user_k", afg.build().unwrap()).unwrap();
//!
//! // 4. Schedule + execute.
//! let report = session.submit(&doc).unwrap();
//! assert!(report.outcome.success);
//! ```

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod env;
mod report;
mod session;

pub use env::{Vdce, VdceBuilder, VdceConfig};
pub use report::RunReport;
pub use session::{Session, SubmitError};
