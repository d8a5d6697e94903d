//! Hot-path allocation bans.
//!
//! The GEMM microkernel runs millions of times per second and the batcher
//! dispatch loop sits on every request; an accidental `clone()` or
//! `format!` there is a silent throughput regression long before a
//! benchmark notices. `ci/lint-rules.toml` names the (file, function)
//! spans and the banned constructors; everything else in those files is
//! unaffected.

use crate::analyze::FileContext;
use crate::config::RulesConfig;
use crate::lexer::TokenKind;
use crate::report::{Finding, Rule};

/// Runs the rule over one file's configured spans.
pub fn check(ctx: &FileContext<'_>, config: &RulesConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let spans: Vec<_> = config
        .hot_spans
        .iter()
        .filter(|s| s.file == ctx.path)
        .collect();
    if spans.is_empty() {
        return findings;
    }
    for function in &ctx.scoped.functions {
        if function.in_test || !spans.iter().any(|s| s.functions.contains(&function.name)) {
            continue;
        }
        let tokens = &ctx.scoped.tokens;
        for i in function.body.clone() {
            let tok = &tokens[i];
            let TokenKind::Ident(name) = &tok.kind else {
                continue;
            };
            let fun = &function.name;
            // `.clone(` / `.to_vec(` … method calls.
            if config.hot_methods.iter().any(|m| m == name)
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                findings.push(ctx.finding(
                    Rule::HotPathAlloc,
                    tok,
                    format!("`.{name}()` allocates inside hot-path function `{fun}`"),
                ));
                continue;
            }
            // `Vec::new` / `String::from` … constructor paths.
            if let (Some(c1), Some(c2), Some(TokenKind::Ident(next))) = (
                tokens.get(i + 1),
                tokens.get(i + 2),
                tokens.get(i + 3).map(|t| &t.kind),
            ) {
                if c1.is_punct(':') && c2.is_punct(':') {
                    let path = format!("{name}::{next}");
                    if config.hot_paths.contains(&path) {
                        findings.push(ctx.finding(
                            Rule::HotPathAlloc,
                            tok,
                            format!("`{path}` allocates inside hot-path function `{fun}`"),
                        ));
                        continue;
                    }
                }
            }
            // `format!` / `vec!` macros.
            if config.hot_macros.iter().any(|m| m == name)
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                findings.push(ctx.finding(
                    Rule::HotPathAlloc,
                    tok,
                    format!("`{name}!` allocates inside hot-path function `{fun}`"),
                ));
            }
        }
    }
    findings
}

/// Span functions of `ctx`'s file that name no non-test function in it:
/// after a rename the ban would cover nothing and still pass.
pub fn unmatched_functions(ctx: &FileContext<'_>, config: &RulesConfig) -> Vec<String> {
    let functions = &ctx.scoped.functions;
    config
        .hot_spans
        .iter()
        .filter(|span| span.file == ctx.path)
        .flat_map(|span| &span.functions)
        .filter(|&name| !functions.iter().any(|f| !f.in_test && f.name == *name))
        .map(|name| format!("hot_path span {}: no function `{name}`", ctx.path))
        .collect()
}

/// Spans whose file was not scanned at all (moved, deleted or excluded).
pub fn unscanned_spans(scanned: &[String], config: &RulesConfig) -> Vec<String> {
    config
        .hot_spans
        .iter()
        .filter(|span| !scanned.contains(&span.file))
        .map(|span| format!("hot_path span {}: file not scanned", span.file))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::analyze::{analyze, SourceFile};
    use crate::config::RulesConfig;

    fn config() -> RulesConfig {
        RulesConfig::from_toml(
            r#"
[hot_path]
banned_methods = ["clone", "to_vec", "to_string", "to_owned"]
banned_paths = ["Vec::new", "String::new", "String::from", "Box::new"]
banned_macros = ["format", "vec"]

[[hot_path.span]]
file = "crates/x/src/kernel.rs"
functions = ["microkernel", "dispatch_loop"]
"#,
        )
        .expect("test config parses")
    }

    fn run(content: &str) -> Vec<String> {
        analyze(
            &[SourceFile {
                path: "crates/x/src/kernel.rs".into(),
                content: content.into(),
            }],
            &config(),
        )
        .findings
        .into_iter()
        .map(|f| f.message)
        .collect()
    }

    #[test]
    fn allocations_in_span_functions_are_flagged() {
        let messages = run(
            "fn microkernel(x: &[f32]) -> Vec<f32> { let v = Vec::new(); let c = x.to_vec(); c }",
        );
        assert_eq!(messages.len(), 2, "{messages:?}");
    }

    #[test]
    fn macros_and_clones_are_flagged() {
        let messages =
            run("fn dispatch_loop(s: &str) { let m = format!(\"{s}\"); let c = s.to_string(); }");
        assert_eq!(messages.len(), 2, "{messages:?}");
    }

    #[test]
    fn functions_outside_the_span_are_free() {
        let messages = run("fn setup() -> Vec<f32> { let mut v = Vec::new(); v.push(1.0); v }");
        assert!(messages.is_empty(), "{messages:?}");
    }

    #[test]
    fn with_capacity_is_not_banned() {
        let messages =
            run("fn dispatch_loop(n: usize) { let v: Vec<u32> = Vec::with_capacity(n); }");
        assert!(messages.is_empty(), "{messages:?}");
    }

    #[test]
    fn spans_that_match_nothing_are_stale_targets() {
        let report = |path: &str, content: &str| {
            analyze(
                &[SourceFile {
                    path: path.into(),
                    content: content.into(),
                }],
                &config(),
            )
        };
        let both = "fn microkernel() {}\nfn dispatch_loop() {}";
        assert!(report("crates/x/src/kernel.rs", both)
            .stale_targets
            .is_empty());
        // A rename, or the name surviving only in test code, empties the span.
        let renamed = "fn microkernel() {}\n#[cfg(test)]\nmod tests { fn dispatch_loop() {} }";
        assert_eq!(
            report("crates/x/src/kernel.rs", renamed).stale_targets,
            ["hot_path span crates/x/src/kernel.rs: no function `dispatch_loop`"]
        );
        assert_eq!(
            report("crates/x/src/moved.rs", both).stale_targets,
            ["hot_path span crates/x/src/kernel.rs: file not scanned"]
        );
    }

    #[test]
    fn other_files_are_free() {
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/other.rs".into(),
                content: "fn microkernel() { let v: Vec<u32> = Vec::new(); }".into(),
            }],
            &config(),
        );
        assert!(report.findings.is_empty());
    }
}
