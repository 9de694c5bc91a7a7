//! # vdce-afg — Application Flow Graphs for VDCE
//!
//! This crate is the programmatic backend of the VDCE *Application Editor*
//! (Topcuoglu & Hariri, ICPP 1997, §2). In the paper, a user drags task
//! icons from menu-driven task libraries into a web editor, wires their
//! logical ports together, and fills in per-task property sheets. The
//! editor's output — the only thing the Application Scheduler and Runtime
//! System ever see — is an **Application Flow Graph (AFG)**: a DAG of task
//! nodes with typed dataflow edges plus per-task properties (computation
//! mode, preferred machine, input/output specifications, node counts).
//!
//! This crate models that output faithfully:
//!
//! - [`Afg`] — the application flow graph itself;
//! - [`TaskNode`] / [`TaskProperties`] — the property sheet of
//!   Figure 1 (computation mode, number of nodes, preferred machine type,
//!   preferred machine, inputs, outputs);
//! - [`AfgBuilder`] — the editor-equivalent construction DSL;
//! - [`TaskLibrary`] — menu-driven task libraries (matrix algebra, C3I, signal
//!   processing, generic), each entry carrying the task-performance
//!   parameters (computation size, communication size, required memory) the
//!   paper stores in the site repository;
//! - [`level`] — the *level* priority function of §3 (largest sum of
//!   computation costs along any path from a node to an exit node);
//! - [`validate()`] — structural validation (acyclicity, port wiring,
//!   dataflow consistency);
//! - [`AfgDocument`] — a versioned, serialisable AFG document format (what the
//!   web editor would upload to the VDCE server);
//! - [`render_all_properties`] / [`render_flow_graph`] — text rendering of
//!   the editor's task-properties window and of the flow graph (reproduces
//!   Figure 1 as text).

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod builder;
mod document;
mod graph;
mod ids;
pub mod level;
mod library;
mod render;
mod stats;
mod task;
mod validate;

pub use builder::AfgBuilder;
pub use document::{AfgDocument, ServiceRequest};
pub use graph::{Afg, Edge, EdgeIndex, ReadySet, TopoMarks};
pub use ids::{DatasetId, PortIndex, TaskId};
pub use level::{blevel_map, level_map, LevelError};
pub use library::{KernelKind, LibraryEntry, LibraryGroup, TaskCosts, TaskLibrary};
pub use render::{render_all_properties, render_flow_graph};
pub use stats::{shape, GraphShape};
pub use task::{ComputationMode, IoSpec, MachineType, TaskNode, TaskProperties};
pub use validate::{validate, ValidationError};
