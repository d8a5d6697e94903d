//! Findings, the lock-order graph, and report rendering.
//!
//! The tool emits two views of one run: human diagnostics
//! (`file:line:col: rule: message`, one per line, stable order) and a
//! machine-readable JSON document for CI artifacts. The JSON writer is
//! local and minimal — the lint crate is dependency-free by design, so it
//! can never be taken down by a bug in a crate it is itself auditing.

use std::fmt::Write as _;

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Panic-freedom on the serve request path.
    PanicFreedom,
    /// Lock-order / deadlock detection.
    LockOrder,
    /// Hot-path allocation bans.
    HotPathAlloc,
    /// Concurrency hygiene (channel bans, guard-rail presence).
    Hygiene,
}

impl Rule {
    /// Stable rule identifier used in diagnostics and JSON.
    pub fn id(self) -> &'static str {
        match self {
            Rule::PanicFreedom => "panic-freedom",
            Rule::LockOrder => "lock-order",
            Rule::HotPathAlloc => "hot-path-alloc",
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

/// An allowlisted finding: recorded, never fatal.
#[derive(Debug, Clone)]
pub struct Allowed {
    /// The underlying finding.
    pub finding: Finding,
    /// The allowlist entry's justification.
    pub reason: String,
}

/// One observed lock acquisition, a node-site in the graph.
#[derive(Debug, Clone)]
pub struct LockAcquisition {
    /// Lock class (node name), e.g. `serve::JobQueue::state`.
    pub class: String,
    /// `lock`, `read` or `write`.
    pub method: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function name.
    pub function: String,
}

/// A may-hold-while-acquiring edge: a guard of `from` was live when `to`
/// was acquired.
#[derive(Debug, Clone, PartialEq)]
pub struct LockEdge {
    /// Held lock class.
    pub from: String,
    /// Acquired lock class.
    pub to: String,
    /// Where the acquisition happened.
    pub file: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Enclosing function name.
    pub function: String,
}

/// The workspace-wide lock-order graph.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Every acquisition site observed (the graph's nodes, with spans).
    pub acquisitions: Vec<LockAcquisition>,
    /// Every hold-while-acquiring edge observed.
    pub edges: Vec<LockEdge>,
}

/// The result of one lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Fatal findings (non-empty ⇒ exit non-zero).
    pub findings: Vec<Finding>,
    /// Allowlisted findings, kept visible in the report.
    pub allowed: Vec<Allowed>,
    /// Allowlist entries that matched nothing this run (candidates for
    /// removal — surfaced, but not fatal, so deleting dead exceptions
    /// never blocks an unrelated change).
    pub stale_allows: Vec<String>,
    /// The lock-order graph.
    pub lock_graph: LockGraph,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings for stable output (file, then line, then column).
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
        self.allowed.sort_by(|a, b| {
            (&a.finding.file, a.finding.line).cmp(&(&b.finding.file, b.finding.line))
        });
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
            "vital-lint: {} file(s) scanned, {} finding(s), {} allowlisted, {} lock edge(s)",
            self.files_scanned,
            self.findings.len(),
            self.allowed.len(),
            self.lock_graph.edges.len()
        );
        out
    }

    /// The machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": 1,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"snippet\": {}}}{comma}",
                json_str(f.rule.id()),
                json_str(&f.file),
                f.line,
                f.col,
                json_str(&f.message),
                json_str(&f.snippet)
            );
        }
        out.push_str("  ],\n  \"allowlisted\": [\n");
        for (i, a) in self.allowed.iter().enumerate() {
            let comma = if i + 1 < self.allowed.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}, \"snippet\": {}}}{comma}",
                json_str(a.finding.rule.id()),
                json_str(&a.finding.file),
                a.finding.line,
                json_str(&a.reason),
                json_str(&a.finding.snippet)
            );
        }
        out.push_str("  ],\n  \"stale_allowlist_entries\": [\n");
        for (i, s) in self.stale_allows.iter().enumerate() {
            let comma = if i + 1 < self.stale_allows.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    {}{comma}", json_str(s));
        }
        out.push_str("  ],\n  \"lock_graph\": {\n    \"acquisitions\": [\n");
        for (i, a) in self.lock_graph.acquisitions.iter().enumerate() {
            let comma = if i + 1 < self.lock_graph.acquisitions.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "      {{\"class\": {}, \"method\": {}, \"file\": {}, \"line\": {}, \"function\": {}}}{comma}",
                json_str(&a.class),
                json_str(&a.method),
                json_str(&a.file),
                a.line,
                json_str(&a.function)
            );
        }
        out.push_str("    ],\n    \"edges\": [\n");
        for (i, e) in self.lock_graph.edges.iter().enumerate() {
            let comma = if i + 1 < self.lock_graph.edges.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "      {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}, \"function\": {}}}{comma}",
                json_str(&e.from),
                json_str(&e.to),
                json_str(&e.file),
                e.line,
                json_str(&e.function)
            );
        }
        out.push_str("    ]\n  }\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn json_is_escaped_and_structured() {
        let mut report = Report {
            findings: vec![finding()],
            ..Report::default()
        };
        report.findings[0].message = "quote \" and\nnewline".into();
        let json = report.to_json();
        assert!(json.contains("\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"lock_graph\""));
        // The emitted report must itself be valid JSON for the CI
        // artifact consumers; `jsonio` (dev-dependency) is the workspace's
        // reference parser.
        jsonio::parse(&json).expect("report must be valid JSON");
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
