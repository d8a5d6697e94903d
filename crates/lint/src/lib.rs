//! `vital-lint` — workspace static analysis for the invariants no
//! compiler check or runtime pin can state.
//!
//! The shared-registry refactor made the whole model stack `Send + Sync`
//! and put N dispatch workers on one set of weights. What keeps that safe
//! and that neither rustc nor a test measuring the running code can say —
//! no panics on the request path, no lock held while another is taken, no
//! unbounded queues, `unsafe` only where it is audited — is enforced here,
//! in the same hand-rolled, dependency-free style as the workspace's HTTP
//! parser: a real Rust [`lexer`] (raw strings, nested block comments,
//! char-literal vs lifetime disambiguation), a [`scope`] pass that exempts
//! `#[cfg(test)]` / `mod tests` code, and three rules ([`rules`]) driven by
//! one [`RulesConfig`] value:
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `panic-freedom` | no `unwrap`/`expect`/panic macros/literal indexing in the serve request-path crates and the decoders |
//! | `lock-order` | no lock is held while another is taken: one pass over each file, any acquisition while a guard is live |
//! | `hygiene` | no unbounded `mpsc::channel`, called or imported; every non-test crate root outside the `unsafe_allowed` paths carries the `forbid(unsafe_code)` attribute, so rustc confines `unsafe`; each `unsafe` site inside them has a SAFETY comment; the `deny(clippy::disallowed_types)` and Send+Sync guard rails stay present |
//!
//! Allocation-free hot paths are not a lint: counting-allocator tests
//! measure them (`core/tests/warm_allocs.rs`, `serve/tests/warm_allocs.rs`).
//!
//! There are no exceptions. Configured targets that match nothing (a
//! panic-freedom prefix or an `unsafe_allowed` path with no scanned file)
//! are reported beside the findings. `tests/static_analysis.rs` at the
//! workspace root builds the rules as a struct literal, runs the analysis
//! inside `cargo test` and fails on a finding or a stale target, which
//! makes a clean tree a tier-1 invariant.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyze;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

pub use analyze::{analyze, discover_files, SourceFile};
pub use config::{RequiredPattern, RulesConfig};
pub use report::{Finding, Report};
