//! `vital-lint` — workspace static analysis for the invariants that keep
//! multi-worker serving safe.
//!
//! The shared-registry refactor made the whole model stack `Send + Sync`
//! and put N dispatch workers on one set of weights. The invariants that
//! keep that safe — no panics on the request path, no locks taken in
//! inconsistent order, no allocator traffic in the GEMM microkernel, no
//! unbounded queues — were previously enforced by convention and review.
//! This crate enforces them mechanically, in the same hand-rolled,
//! dependency-free style as the workspace's proc-macro and HTTP parser: a
//! real Rust [`lexer`] (raw strings, nested block comments, char-literal
//! vs lifetime disambiguation), a [`scope`] pass that exempts
//! `#[cfg(test)]` / `mod tests` code, and four [`rules`] driven by the
//! committed `ci/lint-rules.toml`:
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `panic-freedom` | no `unwrap`/`expect`/panic macros/literal indexing in the serve request-path crates |
//! | `lock-order` | no `Mutex`/`RwLock` is held while another is taken: the may-hold-while-acquiring graph over every lock site has no edges |
//! | `hot-path-alloc` | no `Vec::new`/`to_vec`/`clone`/`String`/`format!` in the GEMM microkernel or the batcher dispatch loop |
//! | `hygiene` | no unbounded `mpsc::channel`; the `#![forbid(unsafe_code)]`, `#![deny(clippy::disallowed_types)]` and Send+Sync guard rails stay present |
//!
//! Per-rule allowlists (each entry with a mandatory reason) live in the
//! same file; allowlisted findings, stale allowlist entries and configured
//! targets that match nothing (a renamed hot-path function, a lock site
//! never acquired) are reported beside the findings.
//! `tests/static_analysis.rs` at the workspace root runs the analysis
//! inside `cargo test` and fails on a finding or a stale entry of either
//! kind, which makes a clean tree a tier-1 invariant.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyze;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

pub use analyze::{analyze, discover_files, SourceFile};
pub use config::RulesConfig;
pub use report::{Finding, Report};

use std::path::Path;

/// Loads the rules file and analyzes the workspace rooted at `root`.
///
/// # Errors
/// Unreadable or malformed rules file, or I/O failure walking the tree.
pub fn run_workspace(root: &Path, rules_path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(rules_path)
        .map_err(|e| format!("cannot read {}: {e}", rules_path.display()))?;
    let config = RulesConfig::from_toml(&text)?;
    let files = discover_files(root, &config)
        .map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    Ok(analyze(&files, &config))
}
