//! Experiment harness regenerating every table and figure of the VITAL
//! paper's evaluation (§VI).
//!
//! Each figure/table has a dedicated binary under `src/bin/` (see
//! "Running experiments" in the README); this library holds the shared
//! plumbing: experiment scaling, dataset collection, framework construction,
//! evaluation loops and plain-text/CSV result emission.
//!
//! # Scale
//!
//! Every binary honours the `VITAL_SCALE` environment variable:
//!
//! * `quick` (default) — reduced epochs / sweep grids so the full suite runs
//!   in minutes on a laptop CPU,
//! * `full` — larger training budgets for tighter numbers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod runner;
pub mod scale;

pub use report::{print_table, write_csv, TableRow};
pub use runner::{
    build_framework, checkpoint_key, evaluate_on_devices, run_building_experiment_checkpointed,
    train_and_evaluate_checkpointed, CheckpointStore, Framework, FrameworkResult,
};
pub use scale::Scale;
