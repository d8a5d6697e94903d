//! Workspace walking and rule orchestration.

use std::fs;
use std::io;
use std::path::Path;

use crate::config::{AllowEntry, RulesConfig};
use crate::lexer::{lex, Token};
use crate::report::{Allowed, Finding, Report, Rule};
use crate::rules::{hot_path, hygiene, lock_order, panic_freedom};
use crate::scope::{scope, ScopedTokens};

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

/// Recursively collects the workspace's `.rs` files per the config's
/// include/exclude lists, sorted by path for deterministic reports.
///
/// # Errors
/// I/O failures reading the tree (beyond include roots that simply don't
/// exist, which are skipped).
pub fn discover_files(root: &Path, config: &RulesConfig) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for include in &config.include {
        let dir = root.join(include);
        if dir.is_dir() {
            walk(root, &dir, config, &mut files)?;
        } else if dir.is_file() {
            push_file(root, &dir, config, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(
    root: &Path,
    dir: &Path,
    config: &RulesConfig,
    files: &mut Vec<SourceFile>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(root, &path, config, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            push_file(root, &path, config, files)?;
        }
    }
    Ok(())
}

fn push_file(
    root: &Path,
    path: &Path,
    config: &RulesConfig,
    files: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    if config
        .exclude
        .iter()
        .any(|e| rel == *e || rel.starts_with(&format!("{e}/")))
    {
        return Ok(());
    }
    files.push(SourceFile {
        path: rel,
        content: fs::read_to_string(path)?,
    });
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
        raw_findings.extend(lock_order::check(&ctx, config, &mut report.lock_graph));
        raw_findings.extend(hot_path::check(&ctx, config));
        report
            .stale_targets
            .extend(hot_path::unmatched_functions(&ctx, config));
        raw_findings.extend(hygiene::check(&ctx, config));
        raw_findings.extend(hygiene::file_checks(&file.path, &file.content, config));
    }
    let scanned: Vec<String> = files.iter().map(|f| f.path.clone()).collect();
    raw_findings.extend(hygiene::missing_files(&scanned, config));
    let stale = &mut report.stale_targets;
    stale.extend(hot_path::unscanned_spans(&scanned, config));
    stale.extend(lock_order::unobserved_sites(&report.lock_graph, config));
    stale.extend(hygiene::empty_unsafe_dirs(&scanned, config));

    // Allowlists: a finding whose source line (or message, for a finding
    // about a file as a whole) contains an entry's `contains` is recorded
    // but not fatal. Entries that match nothing are reported as stale.
    let mut used = vec![false; total_allows(config)];
    for finding in raw_findings {
        let allows = allows_for(config, finding.rule);
        let matched = allows.iter().find(|(_, entry)| {
            entry.file == finding.file
                && (finding.snippet.contains(&entry.contains)
                    || finding.message.contains(&entry.contains))
        });
        match matched {
            Some((index, entry)) => {
                used[*index] = true;
                report.allowed.push(Allowed {
                    finding,
                    reason: entry.reason.clone(),
                });
            }
            None => report.findings.push(finding),
        }
    }
    for (index, entry) in all_allows(config).into_iter().enumerate() {
        if !used[index] {
            report
                .stale_allows
                .push(format!("{}: {}", entry.file, entry.contains));
        }
    }
    report.sort();
    report
}

fn all_allows(config: &RulesConfig) -> Vec<&AllowEntry> {
    config
        .panic_allow
        .iter()
        .chain(&config.lock_allow)
        .chain(&config.hot_allow)
        .chain(&config.hygiene_allow)
        .collect()
}

fn total_allows(config: &RulesConfig) -> usize {
    all_allows(config).len()
}

/// The allowlist slice for `rule`, as (global index, entry) pairs so
/// stale-entry tracking can span all four lists.
fn allows_for(config: &RulesConfig, rule: Rule) -> Vec<(usize, &AllowEntry)> {
    let all = all_allows(config);
    let (start, len) = match rule {
        Rule::PanicFreedom => (0, config.panic_allow.len()),
        Rule::LockOrder => (config.panic_allow.len(), config.lock_allow.len()),
        Rule::HotPathAlloc => (
            config.panic_allow.len() + config.lock_allow.len(),
            config.hot_allow.len(),
        ),
        Rule::Hygiene => (
            config.panic_allow.len() + config.lock_allow.len() + config.hot_allow.len(),
            config.hygiene_allow.len(),
        ),
    };
    (start..start + len).map(|i| (i, all[i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlisted_findings_are_recorded_not_fatal() {
        let config = RulesConfig::from_toml(
            r#"
[panic_freedom]
crates = ["crates/x"]
banned_methods = ["unwrap"]

[[panic_freedom.allow]]
file = "crates/x/src/a.rs"
contains = "startup_config.unwrap()"
reason = "startup-only; a bad config should abort the process"
"#,
        )
        .expect("config parses");
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/a.rs".into(),
                content: "fn main() { let c = startup_config.unwrap(); serve(c.unwrap()); }".into(),
            }],
            &config,
        );
        // The first unwrap is allowlisted (line text contains the entry),
        // but the entry excuses the *line*, so the second unwrap on the
        // same line is also allowed — both are recorded.
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.allowed.len(), 2);
        assert!(report.stale_allows.is_empty());
    }

    #[test]
    fn stale_allowlist_entries_are_surfaced() {
        let config = RulesConfig::from_toml(
            r#"
[panic_freedom]
crates = ["crates/x"]
banned_methods = ["unwrap"]

[[panic_freedom.allow]]
file = "crates/x/src/a.rs"
contains = "no longer here"
reason = "obsolete"
"#,
        )
        .expect("config parses");
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/a.rs".into(),
                content: "fn clean() {}".into(),
            }],
            &config,
        );
        assert!(report.findings.is_empty());
        assert_eq!(report.stale_allows.len(), 1);
    }

    #[test]
    fn discover_respects_excludes() {
        // Exercise against this crate's own tree: `src` exists, and
        // excluding it empties the walk.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut config = RulesConfig::from_toml("").expect("empty config");
        config.include = vec!["src".into()];
        config.exclude = vec![];
        let all = discover_files(root, &config).expect("walk");
        assert!(all.iter().any(|f| f.path == "src/lexer.rs"));
        config.exclude = vec!["src".into()];
        let none = discover_files(root, &config).expect("walk");
        assert!(none.is_empty());
    }
}
