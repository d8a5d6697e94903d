//! Findings and report rendering: human diagnostics
//! (`file:line:col: rule: message`, one per line, stable order), which the
//! tier-1 gate prints when it fails.

use std::fmt::Write as _;

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Panic-freedom on the serve request path.
    PanicFreedom,
    /// No lock is held while another is taken.
    LockOrder,
    /// Concurrency hygiene (channel ban, `#![forbid(unsafe_code)]` on
    /// crate roots, SAFETY comments, guard-rail presence).
    Hygiene,
}

impl Rule {
    /// Stable rule identifier used in diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::PanicFreedom => "panic-freedom",
            Rule::LockOrder => "lock-order",
            Rule::Hygiene => "hygiene",
        }
    }
}

/// One rule violation at one source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The source line, trimmed, for the report reader.
    pub snippet: String,
}

/// The result of one lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Fatal findings (non-empty ⇒ exit non-zero).
    pub findings: Vec<Finding>,
    /// Configured targets that matched nothing this run: a panic-freedom
    /// prefix or an `unsafe`-allowed path holding no scanned file. A rule
    /// aimed at a renamed target passes vacuously, so the tier-1 gate
    /// requires this empty.
    pub stale_targets: Vec<String>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings for stable output (file, then line, then column).
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    }

    /// Human diagnostics, one finding per line.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: {}: {}\n    {}",
                f.file,
                f.line,
                f.col,
                f.rule.id(),
                f.message,
                f.snippet
            );
        }
        let _ = writeln!(
            out,
            "vital-lint: {} file(s) scanned, {} finding(s)",
            self.files_scanned,
            self.findings.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: Rule::PanicFreedom,
            file: "crates/serve/src/x.rs".into(),
            line: 3,
            col: 7,
            message: "`.unwrap()` in request path".into(),
            snippet: "x.unwrap()".into(),
        }
    }

    #[test]
    fn human_output_has_file_line_col() {
        let report = Report {
            findings: vec![finding()],
            files_scanned: 1,
            ..Report::default()
        };
        let text = report.human();
        assert!(text.contains("crates/serve/src/x.rs:3:7: panic-freedom"));
        assert!(text.contains("1 finding(s)"));
    }

    #[test]
    fn sort_orders_by_position() {
        let mut a = finding();
        a.line = 9;
        let mut b = finding();
        b.line = 2;
        let mut report = Report {
            findings: vec![a, b],
            ..Report::default()
        };
        report.sort();
        assert_eq!(report.findings[0].line, 2);
    }
}
