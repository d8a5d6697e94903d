//! Experiment harness regenerating every table and figure of the VITAL
//! paper's evaluation (§VI), and judging the paper's claims against them.
//!
//! One binary, `experiments` (see "Running experiments" in the README),
//! runs the table of [`experiments::EXPERIMENTS`]; this library holds that
//! table, the [`claims`] the paper makes about each result, the [`ledger`]
//! that records which of them hold (`REPRODUCTION.md`), and the shared
//! plumbing: scaling (`VITAL_SCALE`: `quick`, the default, runs everything
//! in minutes; `full` spends larger training budgets), dataset collection,
//! framework construction, evaluation and table emission.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod claims;
pub mod experiments;
pub mod ledger;
pub mod report;
pub mod runner;
pub mod scale;

pub use scale::Scale;
