//! Workspace walking and rule orchestration.

use std::fs;
use std::io;
use std::path::Path;

use crate::config::RulesConfig;
use crate::lexer::{lex, Token};
use crate::report::{Finding, Report, Rule};
use crate::rules::{hygiene, panic_freedom};
use crate::scope::{scope, ScopedTokens};

/// The workspace-relative directories walked for `.rs` files.
pub const INCLUDE: [&str; 5] = ["crates", "examples", "src", "tests", "vendor"];

/// One source file to analyze, with its workspace-relative path
/// (forward-slash separated).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/serve/src/batcher.rs`.
    pub path: String,
    /// The file's text.
    pub content: String,
}

/// Per-file context handed to the rules.
pub struct FileContext<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Source lines (for snippets).
    pub lines: &'a [&'a str],
    /// Scoped token stream.
    pub scoped: &'a ScopedTokens,
}

impl FileContext<'_> {
    /// Builds a finding anchored at `tok`, attaching the source line.
    pub fn finding(&self, rule: Rule, tok: &Token, message: String) -> Finding {
        Finding {
            rule,
            file: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self
                .lines
                .get(tok.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        }
    }
}

/// Recursively collects the workspace's `.rs` files under [`INCLUDE`],
/// sorted by path for deterministic reports.
///
/// # Errors
/// I/O failures reading the tree (beyond include roots that simply don't
/// exist, which are skipped).
pub fn discover_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for include in INCLUDE {
        let dir = root.join(include);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(root, &path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile {
                content: fs::read_to_string(&path)?,
                path: rel,
            });
        }
    }
    Ok(())
}

/// Runs every rule over `files` and assembles the report.
pub fn analyze(files: &[SourceFile], config: &RulesConfig) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for file in files {
        // Files under a `tests/` directory are integration tests end to
        // end; in-file `#[cfg(test)]` scoping is handled by the scoper.
        let scoped = scope(lex(&file.content), is_test_file(&file.path));
        let lines: Vec<&str> = file.content.lines().collect();
        let ctx = FileContext {
            path: &file.path,
            lines: &lines,
            scoped: &scoped,
        };
        report.findings.extend(panic_freedom::check(&ctx, config));
        report.findings.extend(hygiene::check(&ctx));
        let file_findings = hygiene::file_checks(&file.path, &file.content, config);
        report.findings.extend(file_findings);
    }
    let scanned: Vec<String> = files.iter().map(|f| f.path.clone()).collect();
    report
        .findings
        .extend(hygiene::missing_files(&scanned, config));
    let stale = &mut report.stale_targets;
    stale.extend(panic_freedom::unmatched_prefixes(&scanned, config));
    stale.extend(hygiene::empty_unsafe_paths(&scanned, config));
    report.sort();
    report
}

/// Whether `path` lies under a `tests/` directory.
pub(crate) fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discover_walks_the_include_roots() {
        // Exercise against this crate's own tree: of the include roots only
        // `src` exists, and every file found is a `.rs` file under it.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = discover_files(root).expect("walk");
        assert!(files.iter().any(|f| f.path == "src/lexer.rs"));
        assert!(files.iter().any(|f| f.path == "src/rules/hygiene.rs"));
        assert!(files
            .iter()
            .all(|f| f.path.starts_with("src/") && f.path.ends_with(".rs")));
    }
}
