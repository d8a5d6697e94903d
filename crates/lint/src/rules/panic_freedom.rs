//! Panic-freedom on the serve request path.
//!
//! A panic in a dispatch worker kills the worker; a panic in a handler
//! thread kills the connection. The crates on the request path
//! (`serve`, `jsonio`, `binio`, the checkpoint reader — configured, not
//! hard-coded) must therefore surface failures as typed errors, never as
//! `unwrap()` / `expect()` / panic macros / literal slice indexing. Test
//! code is exempt (the scoper strips it); there are no exceptions.

use crate::analyze::FileContext;
use crate::config::{covers, RulesConfig};
use crate::lexer::TokenKind;
use crate::report::{Finding, Rule};

/// Methods that panic on the value they unwrap.
const BANNED_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Macros that panic, outright or on a failed check.
const BANNED_MACROS: [&str; 7] = [
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Runs the rule over one file. Returns nothing for files outside the
/// configured crates.
pub fn check(ctx: &FileContext<'_>, config: &RulesConfig) -> Vec<Finding> {
    if !config.panic_crates.iter().any(|c| covers(c, ctx.path)) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let tokens = &ctx.scoped.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if ctx.scoped.test_mask[i] {
            continue;
        }
        let message = match &tok.kind {
            // `.unwrap(` / `.expect(` — a method call on a receiver.
            TokenKind::Ident(name)
                if BANNED_METHODS.contains(&name.as_str())
                    && i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                format!("`.{name}()` can panic the request path; propagate a typed error")
            }
            // `panic!` / `todo!` / `unimplemented!`.
            TokenKind::Ident(name)
                if BANNED_MACROS.contains(&name.as_str())
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                format!("`{name}!` is banned on the request path; return an error instead")
            }
            // `expr[<int>]` — literal indexing panics on short slices.
            TokenKind::Punct('[')
                if matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::IntLit))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(']'))
                    && i > 0
                    && matches!(
                        &tokens[i - 1].kind,
                        TokenKind::Ident(_) | TokenKind::Punct(')' | ']' | '?')
                    ) =>
            {
                "indexing by integer literal can panic on short input; use `.first()`/`.get()` \
                 or destructure"
                    .to_string()
            }
            _ => continue,
        };
        findings.push(ctx.finding(Rule::PanicFreedom, tok, message));
    }
    findings
}

/// Configured prefixes under which no file was scanned: the crate or file
/// moved, and the rule now covers nothing there.
pub fn unmatched_prefixes(scanned: &[String], config: &RulesConfig) -> Vec<String> {
    config
        .panic_crates
        .iter()
        .filter(|prefix| !scanned.iter().any(|path| covers(prefix, path)))
        .map(|prefix| format!("panic_freedom crate `{prefix}`: no scanned file"))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::analyze::{analyze, SourceFile};
    use crate::config::RulesConfig;
    use crate::report::Report;

    fn config() -> RulesConfig {
        RulesConfig {
            panic_crates: &["crates/serve"],
            ..RulesConfig::default()
        }
    }

    fn report(path: &str, content: &str) -> Report {
        let file = SourceFile {
            path: path.into(),
            content: content.into(),
        };
        analyze(&[file], &config())
    }

    fn run(content: &str) -> Vec<String> {
        report("crates/serve/src/probe.rs", content)
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
        let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(report("crates/nn/src/param.rs", unwrap).findings.is_empty());
    }

    #[test]
    fn a_prefix_that_covers_no_scanned_file_is_a_stale_target() {
        let stale = |path: &str| report(path, "").stale_targets;
        assert!(stale("crates/serve/src/server.rs").is_empty());
        // `crates/server/…` shares the characters, not the directory.
        assert_eq!(
            stale("crates/server/src/lib.rs"),
            ["panic_freedom crate `crates/serve`: no scanned file"]
        );
    }

    #[test]
    fn integration_test_files_are_exempt() {
        let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(report("crates/serve/tests/integration.rs", unwrap)
            .findings
            .is_empty());
    }
}
