//! Workspace walking and rule orchestration.

use std::fs;
use std::io;
use std::path::Path;

use crate::config::RulesConfig;
use crate::lexer::{lex, Token};
use crate::report::{Allowed, Finding, Report, Rule};
use crate::rules::{hygiene, panic_freedom};
use crate::scope::{scope, ScopedTokens};

/// The workspace-relative directories walked for `.rs` files.
pub const INCLUDE: [&str; 3] = ["crates", "src", "tests"];

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

/// Runs every rule over `files` and assembles the report, applying the
/// config's allowlists.
pub fn analyze(files: &[SourceFile], config: &RulesConfig) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut raw_findings: Vec<Finding> = Vec::new();
    for file in files {
        // Files under a `tests/` directory are integration tests end to
        // end; in-file `#[cfg(test)]` scoping is handled by the scoper.
        let whole_file_is_test = file.path.starts_with("tests/") || file.path.contains("/tests/");
        let scoped = scope(lex(&file.content), whole_file_is_test);
        let lines: Vec<&str> = file.content.lines().collect();
        let ctx = FileContext {
            path: &file.path,
            lines: &lines,
            scoped: &scoped,
        };
        raw_findings.extend(panic_freedom::check(&ctx, config));
        raw_findings.extend(hygiene::check(&ctx, config));
        raw_findings.extend(hygiene::file_checks(&file.path, &file.content, config));
    }
    let scanned: Vec<String> = files.iter().map(|f| f.path.clone()).collect();
    raw_findings.extend(hygiene::missing_files(&scanned, config));
    let stale = &mut report.stale_targets;
    stale.extend(panic_freedom::unmatched_prefixes(&scanned, config));
    stale.extend(hygiene::empty_unsafe_dirs(&scanned, config));

    // Allowlists: a finding whose source line (or message, for a finding
    // about a file as a whole) contains an entry's `contains` is recorded
    // but not fatal. Entries that match nothing are reported as stale.
    let mut used = vec![false; config.allow.len()];
    for finding in raw_findings {
        let matched = config.allow.iter().enumerate().find(|(_, entry)| {
            entry.rule == finding.rule
                && entry.file == finding.file
                && (finding.snippet.contains(&entry.contains)
                    || finding.message.contains(&entry.contains))
        });
        match matched {
            Some((index, entry)) => {
                used[index] = true;
                report.allowed.push(Allowed {
                    finding,
                    reason: entry.reason.clone(),
                });
            }
            None => report.findings.push(finding),
        }
    }
    for (entry, used) in config.allow.iter().zip(used) {
        if !used {
            report
                .stale_allows
                .push(format!("{}: {}", entry.file, entry.contains));
        }
    }
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panic_config(allow: &str) -> RulesConfig {
        RulesConfig::from_toml(&format!(
            "[panic_freedom]\ncrates = [\"crates/x\"]\n\n[[allow]]\nrule = \"panic-freedom\"\n\
             file = \"crates/x/src/a.rs\"\ncontains = \"{allow}\"\nreason = \"startup-only\"\n"
        ))
        .expect("config parses")
    }

    #[test]
    fn allowlisted_findings_are_recorded_not_fatal() {
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/a.rs".into(),
                content: "fn main() { let c = startup_config.unwrap(); serve(c.unwrap()); }".into(),
            }],
            &panic_config("startup_config.unwrap()"),
        );
        // The first unwrap is allowlisted (line text contains the entry),
        // but the entry excuses the *line*, so the second unwrap on the
        // same line is also allowed — both are recorded.
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.allowed.len(), 2);
        assert!(report.stale_allows.is_empty());
    }

    #[test]
    fn an_allow_entry_excuses_only_its_own_rule() {
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/a.rs".into(),
                content: "fn f() { let (a, b) = mpsc::channel(); a.unwrap(); }".into(),
            }],
            &panic_config("mpsc::channel()"),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, Rule::Hygiene);
        assert_eq!(report.allowed.len(), 1);
    }

    #[test]
    fn stale_allowlist_entries_are_surfaced() {
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/a.rs".into(),
                content: "fn clean() {}".into(),
            }],
            &panic_config("no longer here"),
        );
        assert!(report.findings.is_empty());
        assert_eq!(report.stale_allows.len(), 1);
    }

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
