//! # vdce-predict — performance prediction for VDCE scheduling
//!
//! "The core of the given built-in scheduling algorithms is the
//! performance prediction phase, which is provided by separate function
//! evaluations of each task on each resource" (§3). The paper bases its
//! model on Yan & Zhang's prediction work for non-dedicated heterogeneous
//! NOWs \[6\]: a task's execution time on a host follows from
//!
//! 1. the task's *computation size* (task-performance database),
//! 2. the host's relative speed w.r.t. the base processor
//!    (resource-performance database),
//! 3. the host's *recent workload* — on a time-shared host with `w`
//!    runnable processes the task receives `1/(1+w)` of the CPU,
//! 4. a memory penalty when the task's required memory exceeds the host's
//!    available memory (paging),
//! 5. and, when available, *measured* `(task, host)` rates fed back by the
//!    Site Manager after previous runs, which dominate the analytic model.
//!
//! Modules: [`model`] (the `Predict(task, R)` function), [`parallel`]
//! (multi-node execution times and node-count selection), and [`cache`]
//! (owner-scoped memoisation of `Predict` and of its host-side terms);
//! [`cheapest_source_seconds`] predicts transfer times and
//! [`fit_base_rate`] / [`fit_relative_speed`] fit rates from
//! measurements.

#![deny(clippy::print_stdout)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod cache;
mod calibrate;
mod comm;
pub mod model;
pub mod parallel;

pub use cache::PredictCache;
pub use calibrate::{fit_base_rate, fit_relative_speed, mean_prediction_error};
pub use comm::cheapest_source_seconds;
pub use model::{predict_seconds, PredictError, Predictor};
pub use parallel::{best_node_count, best_node_count_cached, parallel_seconds, ParallelModel};
