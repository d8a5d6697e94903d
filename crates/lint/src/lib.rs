//! `vital-lint` — workspace static analysis for the invariants no
//! compiler check or runtime pin can state.
//!
//! The shared-registry refactor made the whole model stack `Send + Sync`
//! and put N dispatch workers on one set of weights. What keeps that safe
//! and that neither rustc nor a test measuring the running code can say —
//! no panics on the request path, no lock held while another is taken, no
//! unbounded queues, `unsafe` only in the audited SIMD backend — is
//! enforced here, in the same hand-rolled, dependency-free style as the
//! workspace's HTTP parser: a real Rust [`lexer`] (raw strings, nested
//! block comments, char-literal vs lifetime disambiguation), a [`scope`]
//! pass that exempts `#[cfg(test)]` / `mod tests` code, and three rules
//! ([`rules`]) driven by the committed `ci/lint-rules.toml`:
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `panic-freedom` | no `unwrap`/`expect`/panic macros/literal indexing in the serve request-path crates and the decoders |
//! | `lock-order` | no lock is held while another is taken: one pass over each file, any acquisition while a guard is live |
//! | `hygiene` | no unbounded `mpsc::channel`, called or imported; `unsafe` only under `unsafe_allowed_dirs`, each site with a SAFETY comment, and `#![forbid(unsafe_code)]` on every other crate root; the `deny(clippy::disallowed_types)` and Send+Sync guard rails stay present |
//!
//! Allocation-free hot paths are not a lint: counting-allocator tests
//! measure them (`core/tests/warm_allocs.rs`, `serve/tests/warm_allocs.rs`).
//!
//! Allowlist entries (each naming its rule, with a mandatory reason) live
//! in the same file; allowlisted findings, stale allowlist entries and
//! configured targets that match nothing (a panic-freedom prefix or an
//! `unsafe` directory with no scanned file) are reported beside the
//! findings. `tests/static_analysis.rs` at the workspace root runs the
//! analysis inside `cargo test` and fails on a finding or a stale entry of
//! either kind, which makes a clean tree a tier-1 invariant.

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
    let files = discover_files(root).map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    Ok(analyze(&files, &config))
}
