//! Panic-freedom on the serve request path.
//!
//! A panic in a dispatch worker kills the worker; a panic in a handler
//! thread kills the connection. The crates on the request path
//! (`serve`, `jsonio`, `binio`, the checkpoint reader — configured, not
//! hard-coded) must therefore surface failures as typed errors, never as
//! `unwrap()` / `expect()` / panic macros / literal slice indexing. Test
//! code is exempt (the scoper strips it); justified production exceptions —
//! poisoned-lock aborts, startup-only code — go on the allowlist in
//! `ci/lint-rules.toml` with a reason each.

use crate::analyze::FileContext;
use crate::config::RulesConfig;
use crate::lexer::TokenKind;
use crate::report::{Finding, Rule};

/// Runs the rule over one file. Returns nothing for files outside the
/// configured crates.
pub fn check(ctx: &FileContext<'_>, config: &RulesConfig) -> Vec<Finding> {
    if !config
        .panic_crates
        .iter()
        .any(|c| ctx.path == *c || ctx.path.starts_with(&format!("{c}/")))
    {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let tokens = &ctx.scoped.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if ctx.scoped.test_mask[i] {
            continue;
        }
        match &tok.kind {
            // `.unwrap(` / `.expect(` — a method call on a receiver.
            TokenKind::Ident(name)
                if config.panic_methods.iter().any(|m| m == name)
                    && i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                findings.push(ctx.finding(
                    Rule::PanicFreedom,
                    tok,
                    format!(
                        "`.{name}()` can panic the request path; propagate a typed error \
                         (or allowlist with a reason in ci/lint-rules.toml)"
                    ),
                ));
            }
            // `panic!` / `todo!` / `unimplemented!`.
            TokenKind::Ident(name)
                if config.panic_macros.iter().any(|m| m == name)
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                findings.push(ctx.finding(
                    Rule::PanicFreedom,
                    tok,
                    format!("`{name}!` is banned on the request path; return an error instead"),
                ));
            }
            // `expr[<int>]` — literal indexing panics on short slices.
            TokenKind::Punct('[')
                if config.panic_literal_index
                    && matches!(
                        tokens.get(i + 1).map(|t| &t.kind),
                        Some(TokenKind::IntLit(_))
                    )
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(']'))
                    && i > 0
                    && matches!(
                        &tokens[i - 1].kind,
                        TokenKind::Ident(_) | TokenKind::Punct(')' | ']' | '?')
                    ) =>
            {
                findings.push(
                    ctx.finding(
                        Rule::PanicFreedom,
                        tok,
                        "indexing by integer literal can panic on short input; use \
                     `.first()`/`.get()` or destructure"
                            .to_string(),
                    ),
                );
            }
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use crate::analyze::{analyze, SourceFile};
    use crate::config::RulesConfig;

    fn config() -> RulesConfig {
        RulesConfig::from_toml(
            r#"
[panic_freedom]
crates = ["crates/serve"]
banned_methods = ["unwrap", "expect"]
banned_macros = ["panic", "todo", "unimplemented"]
ban_literal_index = true
"#,
        )
        .expect("test config parses")
    }

    fn run(content: &str) -> Vec<String> {
        let files = vec![SourceFile {
            path: "crates/serve/src/probe.rs".into(),
            content: content.into(),
        }];
        analyze(&files, &config())
            .findings
            .into_iter()
            .map(|f| f.message)
            .collect()
    }

    #[test]
    fn unwrap_in_production_code_is_flagged() {
        let messages = run("fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert_eq!(messages.len(), 1, "{messages:?}");
        assert!(messages[0].contains("unwrap"));
    }

    #[test]
    fn expect_and_macros_are_flagged() {
        let messages = run(
            "fn f(x: Option<u32>) -> u32 { let _ = x.expect(\"boom\"); todo!() }\nfn g() { panic!(\"no\") }",
        );
        assert_eq!(messages.len(), 3, "{messages:?}");
    }

    #[test]
    fn literal_index_is_flagged_but_named_constant_is_not() {
        let messages = run("fn f(xs: &[u32], i: usize) -> u32 { xs[0] + xs[i] }");
        assert_eq!(messages.len(), 1, "{messages:?}");
        assert!(messages[0].contains("literal"));
    }

    #[test]
    fn array_literals_and_types_are_not_index_expressions() {
        let messages = run("fn f() -> [u32; 2] { let a = [0, 1]; a }");
        assert!(messages.is_empty(), "{messages:?}");
    }

    #[test]
    fn test_code_and_strings_and_comments_are_exempt() {
        let src = r###"
fn prod() -> &'static str { "call .unwrap() and panic!" }
/// Docs may say .unwrap() freely.
fn doc_holder() {}
// comment: x.expect("fine")
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); panic!("test code may"); }
}
"###;
        assert!(run(src).is_empty());
    }

    #[test]
    fn raw_string_unwrap_is_exempt() {
        let src = r####"fn f() -> &'static str { r#"x.unwrap() inside raw"# }"####;
        assert!(run(src).is_empty());
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let files = vec![SourceFile {
            path: "crates/nn/src/param.rs".into(),
            content: "fn f(x: Option<u32>) -> u32 { x.unwrap() }".into(),
        }];
        assert!(analyze(&files, &config()).findings.is_empty());
    }

    #[test]
    fn integration_test_files_are_exempt() {
        let files = vec![SourceFile {
            path: "crates/serve/tests/integration.rs".into(),
            content: "fn f(x: Option<u32>) -> u32 { x.unwrap() }".into(),
        }];
        assert!(analyze(&files, &config()).findings.is_empty());
    }
}
