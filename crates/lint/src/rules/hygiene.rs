//! Concurrency hygiene: lock order, the unbounded-channel ban, `unsafe`
//! confinement, and guard-rail presence.
//!
//! * **No lock is held while another is taken** (rule `lock-order`). One
//!   pass over a file's production tokens tracks brace depth and every
//!   live guard — the value of a no-argument `.lock()`, `.read()` or
//!   `.write()` call — and any acquisition while a guard is live is a
//!   finding, whatever the two locks are. A guard lives until its block
//!   closes or it is `drop`ped if `let`-bound (`let … else` included), to
//!   the end of its statement if it is a temporary, and to the end of the
//!   attached block if it is the scrutinee of `if let`, `while let` or
//!   `match`, or the iterator of a `for`. Two locks that are never held
//!   together cannot be taken in opposite orders, and no lock can be
//!   re-taken under itself, so this needs no lock names and no graph.
//! * **No unbounded `mpsc::channel`** in production code, workspace-wide,
//!   whether called by its path or imported (`use std::sync::mpsc::channel`
//!   or a `{…}` group naming it). Every queue in the serve path is bounded
//!   by design (backpressure is what keeps overload a `503` instead of an
//!   OOM); an unbounded channel anywhere is a buffer that grows until the
//!   process dies. Use `mpsc::sync_channel` (or the serve `JobQueue`).
//! * **`unsafe` is confined** to the paths named in `unsafe_allowed` (the
//!   audited SIMD backend and the `signal(2)` FFI block): every non-test
//!   crate root elsewhere (`lib.rs`, `main.rs`, `src/bin/*.rs`,
//!   `examples/*.rs`) must carry `#![forbid(unsafe_code)]` on a code line,
//!   so rustc refuses `unsafe` there, and inside the allowed paths every
//!   `unsafe fn` / `unsafe {` must sit within a few lines of a
//!   `SAFETY`/`# Safety` comment explaining its contract.
//! * **Guard rails stay present** — the `#![deny(clippy::disallowed_types)]`
//!   attributes and the compile-time `Send + Sync` assertions from the
//!   shared-registry refactor are load-bearing: each is verified as a
//!   raw-text pattern on a code line so deleting one fails this lint even
//!   though the build would still pass.

use crate::analyze::{is_test_file, FileContext};
use crate::config::{covers, RulesConfig};
use crate::lexer::{Token, TokenKind};
use crate::report::{Finding, Rule};

const UNBOUNDED_CHANNEL: &str = "unbounded `mpsc::channel` is banned (no backpressure), called \
    or imported; use `mpsc::sync_channel` with an explicit capacity";
const NO_FORBID: &str = "crate root must carry `#![forbid(unsafe_code)]` on a code line \
    (`unsafe` lives only under the `unsafe_allowed` paths; use the safe `simd` API)";
const NO_SAFETY: &str = "`unsafe` without a nearby SAFETY comment: state the contract that \
    makes this sound (within 12 lines above the site)";
const MISSING_FILE: &str =
    "guard-rail file is named in the lint rules but was not found in the workspace";

/// A hygiene finding about line `line` of `file` (`0` for a missing file).
fn file_finding(file: &str, line: usize, message: String, snippet: &str) -> Finding {
    Finding {
        rule: Rule::Hygiene,
        file: file.to_string(),
        line: line as u32,
        col: line.min(1) as u32,
        message,
        snippet: snippet.to_string(),
    }
}

/// Token-level checks (lock order and the channel ban) for one file.
pub fn check(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut findings = lock_order(ctx);
    let tokens = &ctx.scoped.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if ctx.scoped.test_mask[i] {
            continue;
        }
        // `mpsc :: channel` — the unbounded constructor, called (a
        // turbofish after it changes nothing) or imported. `sync_channel`
        // is a different identifier, so bounded channels never match.
        if tok.ident() == Some("mpsc")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && names_channel(&tokens[i + 3..])
        {
            findings.push(ctx.finding(Rule::Hygiene, tok, UNBOUNDED_CHANNEL.to_string()));
        }
    }
    findings
}

/// Whether the path segment `tokens` starts with is `channel`, or a `{…}`
/// import group that names it (`mpsc` has no submodules, so a group has no
/// nested braces).
fn names_channel(tokens: &[Token]) -> bool {
    match tokens.first() {
        Some(open) if open.is_punct('{') => tokens
            .iter()
            .take_while(|t| !t.is_punct('}'))
            .any(|t| t.ident() == Some("channel")),
        first => first.and_then(Token::ident) == Some("channel"),
    }
}

/// How long a live guard lives, by the brace depth of the statement that
/// took it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Until {
    /// `let`-bound: until the block at this depth closes (or a `drop`).
    Block(usize),
    /// A temporary: until its statement at this depth ends.
    Statement(usize),
    /// A scrutinee or `for` iterator: until the block its statement at
    /// this depth opens closes.
    Scrutinee(usize),
}

impl Until {
    fn depth(self) -> usize {
        match self {
            Until::Block(depth) | Until::Statement(depth) | Until::Scrutinee(depth) => depth,
        }
    }
}

struct Guard {
    /// Where the guard was taken.
    line: u32,
    /// The names a `let` bound it to (empty for the other kinds).
    names: Vec<String>,
    until: Until,
}

/// What the statement being read at one brace depth began with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Head {
    #[default]
    Plain,
    /// A `let`, at this token index.
    Let(usize),
    /// `if let`, `while let`, `match` or `for`.
    Scrutinee,
}

/// The statement being read at one brace depth.
#[derive(Debug, Clone, Copy, Default)]
struct Statement {
    head: Head,
    /// Open `(` and `[` in it: a `{`, `;` or `,` inside them belongs to
    /// an argument, not to the statement.
    parens: usize,
}

/// The lock-order pass: one finding per acquisition taken while another
/// guard is live.
fn lock_order(ctx: &FileContext<'_>) -> Vec<Finding> {
    let tokens = &ctx.scoped.tokens;
    let mut findings = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    // The statement being read at each open brace depth, outermost first.
    let mut statements = vec![Statement::default()];
    for (i, tok) in tokens.iter().enumerate() {
        if ctx.scoped.test_mask[i] {
            continue;
        }
        let depth = statements.len() - 1;
        let Some(statement) = statements.last_mut() else {
            break;
        };
        let outside_parens = statement.parens == 0;
        match &tok.kind {
            TokenKind::Punct('(' | '[') => statement.parens += 1,
            TokenKind::Punct(')' | ']') => statement.parens = statement.parens.saturating_sub(1),
            // A match arm's `,` ends the arm's temporaries; a `;` ends the
            // statement.
            TokenKind::Punct(c @ (';' | ',')) if outside_parens => {
                guards.retain(|g| g.until != Until::Statement(depth));
                if *c == ';' {
                    guards.retain(|g| g.until != Until::Scrutinee(depth));
                    *statement = Statement::default();
                }
            }
            TokenKind::Punct('{') => {
                if outside_parens {
                    match statement.head {
                        Head::Scrutinee => {
                            for guard in &mut guards {
                                if guard.until == Until::Scrutinee(depth) {
                                    guard.until = Until::Block(depth + 1);
                                }
                            }
                            *statement = Statement::default();
                        }
                        // The block of an `if` or `while`: its condition's
                        // temporaries are already gone.
                        Head::Plain => guards.retain(|g| g.until != Until::Statement(depth)),
                        // `let … else {`, or a block in the initialiser:
                        // the binding outlives it.
                        Head::Let(_) => {}
                    }
                }
                statements.push(Statement::default());
            }
            TokenKind::Punct('}') => {
                guards.retain(|g| g.until.depth() < depth);
                if depth > 0 {
                    statements.pop();
                }
            }
            TokenKind::Ident(id) if id == "let" && statement.head == Head::Plain => {
                let prev = i.checked_sub(1).and_then(|p| tokens[p].ident());
                statement.head = if matches!(prev, Some("if" | "while")) {
                    Head::Scrutinee
                } else {
                    Head::Let(i)
                };
            }
            TokenKind::Ident(id)
                if (id == "match" || id == "for") && statement.head == Head::Plain =>
            {
                statement.head = Head::Scrutinee;
            }
            // `drop(name)` (or `mem::drop(name)`) releases a guard early.
            TokenKind::Ident(id) if id == "drop" => {
                if let [open, name, close, ..] = &tokens[i + 1..] {
                    if open.is_punct('(') && close.is_punct(')') {
                        if let Some(name) = name.ident() {
                            guards.retain(|g| !g.names.iter().any(|n| n == name));
                        }
                    }
                }
            }
            TokenKind::Ident(method)
                if matches!(method.as_str(), "lock" | "read" | "write")
                    && i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(')')) =>
            {
                if let Some(held) = guards.last() {
                    findings.push(ctx.finding(
                        Rule::LockOrder,
                        tok,
                        format!(
                            "`.{method}()` while the guard taken on line {} is live: no lock \
                             is held while another is taken; narrow the guard's scope or \
                             drop it first",
                            held.line
                        ),
                    ));
                }
                let (names, until) = match statement.head {
                    Head::Let(at) => (binding_names(&tokens[at + 1..i]), Until::Block(depth)),
                    Head::Scrutinee => (Vec::new(), Until::Scrutinee(depth)),
                    Head::Plain => (Vec::new(), Until::Statement(depth)),
                };
                guards.push(Guard {
                    line: tok.line,
                    names,
                    until,
                });
            }
            _ => {}
        }
    }
    findings
}

/// The binding names of `let <pattern> = …`: every lowercase-start
/// identifier before the `=` (skipping `mut`/`ref` and enum constructors
/// such as `Ok`).
fn binding_names(tokens: &[Token]) -> Vec<String> {
    tokens
        .iter()
        .take_while(|t| !t.is_punct('='))
        .filter_map(Token::ident)
        .filter(|id| {
            !matches!(*id, "mut" | "ref") && id.starts_with(|c: char| c.is_lowercase() || c == '_')
        })
        .map(str::to_string)
        .collect()
}

fn unsafe_allowed(path: &str, config: &RulesConfig) -> bool {
    config
        .unsafe_allowed
        .iter()
        .any(|allowed| covers(allowed, path))
}

/// Whether `path` is the root of a non-test crate: a `lib.rs` or
/// `main.rs`, a binary in `src/bin/`, or an example.
fn is_crate_root(path: &str) -> bool {
    let (dir, name) = path.rsplit_once('/').unwrap_or(("", path));
    let in_dir = |d: &str| {
        dir.strip_suffix(d)
            .is_some_and(|rest| rest.is_empty() || rest.ends_with('/'))
    };
    !is_test_file(path)
        && (name == "lib.rs" || name == "main.rs" || in_dir("src/bin") || in_dir("examples"))
}

/// Whether a line of `content` that is not a line comment (`//`, `///`,
/// `//!`) contains `pattern`: prose naming an attribute is not the
/// attribute.
fn on_a_code_line(content: &str, pattern: &str) -> bool {
    content.lines().any(|line| {
        let line = line.trim_start();
        !line.starts_with("//") && line.contains(pattern)
    })
}

/// Raw-text checks for one file: `#![forbid(unsafe_code)]` on a crate
/// root, SAFETY comments where `unsafe` is allowed, and the configured
/// required patterns.
pub fn file_checks(path: &str, content: &str, config: &RulesConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    if is_crate_root(path)
        && !unsafe_allowed(path, config)
        && !on_a_code_line(content, "#![forbid(unsafe_code)]")
    {
        findings.push(file_finding(path, 1, NO_FORBID.to_string(), ""));
    }
    // Inside the allowed `unsafe` paths, every `unsafe fn` /
    // `unsafe {` must carry a nearby SAFETY comment. The token stream
    // drops comments, so this is a raw-line scan: the justification may
    // sit on the same line or up to a comment block above the unsafe
    // site.
    if unsafe_allowed(path, config) {
        let lines: Vec<&str> = content.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("//") {
                continue;
            }
            // Strip a trailing line comment so prose mentioning `unsafe fn`
            // next to code does not register as an unsafe site.
            let code = trimmed.split("//").next().unwrap_or(trimmed);
            if !(code.contains("unsafe fn") || code.contains("unsafe {")) {
                continue;
            }
            let documented = line.contains("SAFETY")
                || lines[i.saturating_sub(12)..i].iter().rev().any(|prev| {
                    let p = prev.trim_start();
                    p.contains("SAFETY") || p.contains("# Safety")
                });
            if !documented {
                findings.push(file_finding(path, i + 1, NO_SAFETY.to_string(), line));
            }
        }
    }
    for required in config.required.iter().filter(|r| r.file == path) {
        if !on_a_code_line(content, required.contains) {
            let message = format!(
                "guard rail missing: {path} must contain `{}` ({})",
                required.contains, required.why
            );
            findings.push(file_finding(path, 1, message, ""));
        }
    }
    findings
}

/// Findings for guard-rail files that were not scanned at all (deleted or
/// moved — silently losing the file must not silently lose the check).
pub fn missing_files(scanned: &[String], config: &RulesConfig) -> Vec<Finding> {
    let mut expected: Vec<&str> = config.required.iter().map(|r| r.file).collect();
    expected.sort_unstable();
    expected.dedup();
    expected
        .into_iter()
        .filter(|file| !scanned.iter().any(|s| s == file))
        .map(|file| file_finding(file, 0, MISSING_FILE.to_string(), ""))
        .collect()
}

/// `unsafe_allowed` prefixes under which no file was scanned: the audited
/// code moved, and the SAFETY check now points at nothing.
pub fn empty_unsafe_paths(scanned: &[String], config: &RulesConfig) -> Vec<String> {
    config
        .unsafe_allowed
        .iter()
        .filter(|allowed| !scanned.iter().any(|s| covers(allowed, s)))
        .map(|allowed| format!("hygiene unsafe_allowed `{allowed}`: no scanned file"))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::analyze::{analyze, SourceFile};
    use crate::config::{RequiredPattern, RulesConfig};
    use crate::report::Report;

    fn run(path: &str, content: &str, config: &RulesConfig) -> Report {
        let file = SourceFile {
            path: path.into(),
            content: content.into(),
        };
        analyze(&[file], config)
    }

    fn config() -> RulesConfig {
        RulesConfig {
            required: &[RequiredPattern {
                file: "crates/x/src/lib.rs",
                contains: "#![deny(clippy::disallowed_types)]",
                why: "Rc ban",
            }],
            ..RulesConfig::default()
        }
    }

    /// `(rule id, line)` of every finding in `content` under an empty
    /// config.
    fn findings(content: &str) -> Vec<(&'static str, u32)> {
        run("crates/x/src/a.rs", content, &RulesConfig::default())
            .findings
            .iter()
            .map(|f| (f.rule.id(), f.line))
            .collect()
    }

    #[test]
    fn unbounded_channel_is_flagged_and_sync_channel_is_not() {
        let found = findings(
            "fn f() { let (a, b) = mpsc::channel(); let (c, d) = mpsc::sync_channel(1); }",
        );
        assert_eq!(found, [("hygiene", 1)]);
    }

    #[test]
    fn turbofish_does_not_dodge_the_channel_ban() {
        let found = findings("fn f() { let pair = mpsc::channel::<Vec<u8>>(); }");
        assert_eq!(found, [("hygiene", 1)]);
    }

    #[test]
    fn importing_the_channel_does_not_dodge_the_ban() {
        let found = findings("use std::sync::mpsc::channel;\nfn f() { let (a, b) = channel(); }");
        assert_eq!(found, [("hygiene", 1)]);
    }

    #[test]
    fn importing_the_channel_in_a_group_does_not_dodge_the_ban() {
        let found = findings(
            "use std::sync::mpsc::{sync_channel, channel, Receiver};\n\
             fn f() { let (a, b) = channel(); }",
        );
        assert_eq!(found, [("hygiene", 1)]);
        let bounded = findings("use std::sync::mpsc::{self, sync_channel, SyncSender};");
        assert!(bounded.is_empty(), "{bounded:?}");
    }

    #[test]
    fn channel_in_test_code_is_exempt() {
        let found =
            findings("#[cfg(test)]\nmod tests { fn f() { let (a, b) = mpsc::channel(); } }");
        assert!(found.is_empty(), "{found:?}");
    }

    /// The lines of the lock-order findings in `content`.
    fn nested_locks(content: &str) -> Vec<u32> {
        findings(content)
            .into_iter()
            .map(|(rule, line)| {
                assert_eq!(rule, "lock-order");
                line
            })
            .collect()
    }

    #[test]
    fn hold_while_acquiring_is_flagged() {
        let found = nested_locks(
            "fn f(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    \
             let b = s.beta.lock().unwrap();\n}",
        );
        assert_eq!(found, [3]);
    }

    #[test]
    fn inverted_orders_in_two_functions_are_each_flagged() {
        let found = nested_locks(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }\n\
             fn g(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }",
        );
        assert_eq!(found, [1, 2]);
    }

    #[test]
    fn same_lock_reacquired_while_held_is_flagged() {
        let found = nested_locks(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.alpha.lock().unwrap(); }",
        );
        assert_eq!(found, [1]);
    }

    #[test]
    fn write_while_holding_is_flagged() {
        let found = nested_locks(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); let w = s.beta.write().unwrap(); }",
        );
        assert_eq!(found, [1]);
    }

    #[test]
    fn dropping_the_guard_ends_it() {
        let found = nested_locks(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); drop(a); let b = s.beta.lock().unwrap(); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn statement_temporaries_do_not_outlive_their_statement() {
        let found = nested_locks(
            "fn f(s: &S) { *s.alpha.lock().unwrap() = 1; let b = s.beta.write().unwrap(); }",
        );
        assert!(found.is_empty(), "{found:?}");
        let found = nested_locks(
            "fn f(s: &S) { if s.alpha.lock().unwrap().is_empty() { s.beta.write().unwrap().clear(); } }",
        );
        assert!(
            found.is_empty(),
            "an `if` condition's temporaries die before its block: {found:?}"
        );
    }

    #[test]
    fn block_scope_ends_a_guard() {
        let found = nested_locks(
            "fn f(s: &S) { { let a = s.alpha.lock().unwrap(); } let b = s.beta.write().unwrap(); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn if_let_guard_dies_with_its_block() {
        let found = nested_locks(
            "fn f(s: &S) { if let Ok(a) = s.alpha.lock() { use_it(&a); } let b = s.beta.write().unwrap(); }",
        );
        assert!(found.is_empty(), "{found:?}");
        let found = nested_locks(
            "fn f(s: &S) { if let Ok(a) = s.alpha.lock() { let b = s.beta.lock().unwrap(); } }",
        );
        assert_eq!(found, [1]);
    }

    #[test]
    fn while_let_scrutinee_lives_through_the_body() {
        let found = nested_locks(
            "fn f(s: &S) {\n    while let Some(j) = s.alpha.lock().unwrap().pop_front() {\n        \
             s.beta.lock().unwrap().push(j);\n    }\n    s.beta.lock().unwrap().clear();\n}",
        );
        assert_eq!(found, [3]);
    }

    #[test]
    fn let_else_guard_survives_the_else_block() {
        let found = nested_locks(
            "fn f(s: &S) { let Ok(a) = s.alpha.lock() else { return; }; let b = s.beta.lock().unwrap(); }",
        );
        assert_eq!(found, [1]);
    }

    #[test]
    fn a_match_scrutinee_guard_lives_through_the_arms() {
        let found = nested_locks(
            "fn f(s: &S, k: u32) {\n    match s.alpha.lock().unwrap().get(k) {\n        \
             Some(e) => {\n            let b = s.beta.lock().unwrap();\n        }\n        \
             None => {}\n    }\n    let b = s.beta.lock().unwrap();\n}",
        );
        assert_eq!(found, [4]);
    }

    #[test]
    fn a_for_iterator_guard_lives_through_the_body() {
        let found = nested_locks(
            "fn f(s: &S) {\n    for j in s.alpha.lock().unwrap().iter() {\n        \
             s.beta.lock().unwrap().push(*j);\n    }\n    s.beta.lock().unwrap().clear();\n}",
        );
        assert_eq!(found, [3]);
    }

    #[test]
    fn match_arm_temporaries_end_with_their_arm() {
        let found = nested_locks(
            "fn f(s: &S, k: u32) { match k { 0 => s.alpha.lock().unwrap().clear(), \
             _ => s.beta.lock().unwrap().clear(), } }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn a_temporary_lives_through_a_closure_in_its_statement() {
        let found = nested_locks(
            "fn f(s: &S) { s.alpha.lock().unwrap().retain(|k| { s.beta.lock().unwrap().contains(k) }); }",
        );
        assert_eq!(found, [1]);
    }

    #[test]
    fn io_read_write_with_arguments_is_not_an_acquisition() {
        let found = nested_locks(
            "fn f(s: &mut TcpStream, buf: &mut [u8]) { let n = s.read(buf).unwrap(); s.write(buf).unwrap(); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn test_functions_are_exempt() {
        let found = nested_locks(
            "#[cfg(test)]\nmod tests { fn f(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); } }\n\
             fn g(s: &S) { let a = s.alpha.lock().unwrap(); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    fn unsafe_config() -> RulesConfig {
        RulesConfig {
            unsafe_allowed: &["crates/simd/src"],
            ..RulesConfig::default()
        }
    }

    #[test]
    fn unsafe_in_allowed_dir_requires_safety_comment() {
        let undocumented = run(
            "crates/simd/src/x86.rs",
            "fn f(p: *const f32) -> f32 { unsafe { *p } }",
            &unsafe_config(),
        );
        assert_eq!(
            undocumented.findings.len(),
            1,
            "{:?}",
            undocumented.findings
        );
        assert!(undocumented.findings[0].message.contains("SAFETY"));

        let documented = run(
            "crates/simd/src/x86.rs",
            "fn f(p: *const f32) -> f32 {\n    // SAFETY: caller guarantees p is \
                          valid.\n    unsafe { *p }\n}",
            &unsafe_config(),
        );
        assert!(documented.findings.is_empty(), "{:?}", documented.findings);
    }

    #[test]
    fn an_allowed_unsafe_dir_without_files_is_a_stale_target() {
        let report = |path: &str| run(path, "", &unsafe_config());
        assert!(report("crates/simd/src/x86.rs").stale_targets.is_empty());
        assert_eq!(
            report("crates/vector/src/x86.rs").stale_targets,
            ["hygiene unsafe_allowed `crates/simd/src`: no scanned file"]
        );
    }

    #[test]
    fn a_crate_root_outside_the_unsafe_dirs_must_forbid_unsafe() {
        let report = |path: &str| run(path, "pub fn f() {}", &unsafe_config()).findings.len();
        assert_eq!(report("crates/new/src/lib.rs"), 1);
        assert_eq!(report("crates/new/src/main.rs"), 1);
        assert_eq!(report("crates/new/src/bin/tool.rs"), 1);
        assert_eq!(report("examples/demo.rs"), 1);
        assert_eq!(report("crates/new/examples/demo.rs"), 1);
        assert_eq!(report("crates/simd/src/lib.rs"), 0);
        assert_eq!(report("crates/new/src/other.rs"), 0);
        assert_eq!(report("crates/new/src/bin/tool/args.rs"), 0);
        assert_eq!(report("crates/new/tests/main.rs"), 0);
    }

    #[test]
    fn missing_forbid_and_guard_rail_are_flagged() {
        let report = run("crates/x/src/lib.rs", "// no attributes", &config());
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        // Prose naming the attributes is not the attributes.
        let report = run(
            "crates/x/src/lib.rs",
            "//! Carries `#![forbid(unsafe_code)]` and `#![deny(clippy::disallowed_types)]`.\n",
            &config(),
        );
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    }

    #[test]
    fn present_guard_rails_pass() {
        let report = run(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![deny(clippy::disallowed_types)]\n",
            &config(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn deleted_guard_rail_file_is_flagged() {
        let report = analyze(&[], &config());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("not found")),
            "{:?}",
            report.findings
        );
    }
}
