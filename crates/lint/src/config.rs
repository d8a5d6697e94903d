//! The typed [`RulesConfig`] the analyzer consumes.
//!
//! The rules are one Rust value, built as a struct literal by the code
//! that runs them (`tests/static_analysis.rs`): a misspelt field or a value
//! of the wrong type is a compile error, so there is no rules file to read
//! and no reader to get wrong.

/// A guard-rail pattern that must stay present in a file.
#[derive(Debug, Clone)]
pub struct RequiredPattern {
    /// Workspace-relative file path.
    pub file: &'static str,
    /// Exact substring that must occur on a code line of the file.
    pub contains: &'static str,
    /// What the pattern protects.
    pub why: &'static str,
}

/// The full rule set driving one lint run: what differs between
/// workspaces. What does not — the banned methods and macros, the channel
/// ban, which files must forbid `unsafe` — is fixed in the rules.
#[derive(Debug, Clone, Default)]
pub struct RulesConfig {
    /// Path prefixes (a directory or one exact file) the panic-freedom
    /// rule covers.
    pub panic_crates: &'static [&'static str],
    /// Path prefixes (a directory or one exact file) where `unsafe` is
    /// permitted. Every crate root outside them must carry
    /// `#![forbid(unsafe_code)]`, so rustc refuses `unsafe` there; inside
    /// them each `unsafe` site needs a SAFETY comment.
    pub unsafe_allowed: &'static [&'static str],
    /// Guard-rail patterns that must stay present.
    pub required: &'static [RequiredPattern],
}

/// Whether `path` is `prefix` itself or a file under it.
pub(crate) fn covers(prefix: &str, path: &str) -> bool {
    path.strip_prefix(prefix)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}
