//! Lock-order / deadlock detection.
//!
//! For every function the rule extracts each `Mutex`/`RwLock` acquisition
//! — a no-argument `.lock()`, `.read()` or `.write()` call — and tracks
//! which guards are still live when the next acquisition happens. Guard
//! liveness follows the shapes the workspace actually uses:
//!
//! * `let g = x.lock()…;` — live until the end of the enclosing block,
//!   an explicit `drop(g)`, or (for `if let`/`while let`) the end of the
//!   attached block;
//! * a lock taken inside a larger expression statement
//!   (`*x.lock()… = v;`) — a temporary, live to the end of the statement.
//!
//! The policy is one sentence: **no lock is held while another is taken.**
//! Every "guard of class A live while class B is acquired" observation
//! becomes an A→B edge in one workspace-wide graph whose nodes are the
//! *lock classes* named in `ci/lint-rules.toml` (`nn::Param::value`,
//! `serve::JobQueue::state`, …; unnamed receivers get a per-file class),
//! and every edge is a finding. Two locks that are never held together
//! cannot be taken in opposite orders, a lock cannot be re-acquired under
//! itself, and no writer queues behind a held guard, so deadlock freedom
//! needs no search of the graph: the graph has no edges. A nesting that
//! has to exist is excused by name in `[[lock_order.allow]]`.

use crate::analyze::FileContext;
use crate::config::RulesConfig;
use crate::lexer::{Token, TokenKind};
use crate::report::{Finding, LockAcquisition, LockEdge, LockGraph, Rule};

/// A live guard inside one function walk.
struct Guard {
    /// Binding names (empty for statement temporaries).
    names: Vec<String>,
    /// Lock class of the acquisition that produced it.
    class: String,
    /// Brace depth the guard dies below.
    depth: i32,
    /// Statement temporaries die at the next statement boundary.
    temporary: bool,
}

/// Scans one file's functions, appending acquisitions/edges to `graph`
/// and returning one finding per hold-while-acquiring observation.
pub fn check(ctx: &FileContext<'_>, config: &RulesConfig, graph: &mut LockGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for function in &ctx.scoped.functions {
        if function.in_test {
            continue;
        }
        walk_function(ctx, config, function, graph, &mut findings);
    }
    findings
}

fn walk_function(
    ctx: &FileContext<'_>,
    config: &RulesConfig,
    function: &crate::scope::FunctionSpan,
    graph: &mut LockGraph,
    findings: &mut Vec<Finding>,
) {
    let tokens = &ctx.scoped.tokens;
    let body = function.body.clone();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;
    // Index of the `let` keyword in the current statement, if any.
    let mut stmt_let: Option<usize> = None;
    // Guards bound in the current statement (for if-let depth attachment).
    let mut stmt_new_guards: Vec<usize> = Vec::new();

    let mut i = body.start;
    while i < body.end {
        let tok = &tokens[i];
        match &tok.kind {
            TokenKind::Punct('{') => {
                // An `if let Ok(g) = x.lock() {` binding lives only inside
                // the attached block — re-home its guards to the block's
                // depth. A `let … else {` binding survives the else block,
                // so it keeps the outer depth.
                let if_let_block = stmt_let.is_some()
                    && tokens.get(i.wrapping_sub(1)).and_then(|t| t.ident()) != Some("else");
                depth += 1;
                if if_let_block {
                    for &g in &stmt_new_guards {
                        if let Some(guard) = guards.get_mut(g) {
                            guard.depth = depth;
                        }
                    }
                }
                end_statement(&mut guards, &mut stmt_let, &mut stmt_new_guards);
            }
            TokenKind::Punct('}') => {
                end_statement(&mut guards, &mut stmt_let, &mut stmt_new_guards);
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            TokenKind::Punct(';') => {
                end_statement(&mut guards, &mut stmt_let, &mut stmt_new_guards);
            }
            TokenKind::Ident(id) if id == "let" => {
                stmt_let = Some(i);
            }
            // `drop(name)` (or `mem::drop(name)`) releases a guard early.
            TokenKind::Ident(id) if id == "drop" => {
                if let (Some(open), Some(TokenKind::Ident(name)), Some(close)) = (
                    tokens.get(i + 1),
                    tokens.get(i + 2).map(|t| &t.kind),
                    tokens.get(i + 3),
                ) {
                    if open.is_punct('(') && close.is_punct(')') {
                        let name = name.clone();
                        guards.retain(|g| !g.names.contains(&name));
                    }
                }
            }
            TokenKind::Ident(method)
                if matches!(method.as_str(), "lock" | "read" | "write")
                    && i > body.start
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(')')) =>
            {
                let class = classify(ctx, config, tokens, i - 1);
                graph.acquisitions.push(LockAcquisition {
                    class: class.clone(),
                    method: method.clone(),
                    file: ctx.path.to_string(),
                    line: tok.line,
                    function: function.name.clone(),
                });
                for guard in &guards {
                    let edge = LockEdge {
                        from: guard.class.clone(),
                        to: class.clone(),
                        file: ctx.path.to_string(),
                        line: tok.line,
                        function: function.name.clone(),
                    };
                    if graph.edges.contains(&edge) {
                        continue;
                    }
                    findings.push(ctx.finding(
                        Rule::LockOrder,
                        tok,
                        format!(
                            "`.{method}()` on {class} while a {} guard is live in `{}` — \
                             no lock is held while another is taken; narrow the guard \
                             scope or drop it first",
                            guard.class, function.name
                        ),
                    ));
                    graph.edges.push(edge);
                }
                let names = stmt_let
                    .map(|l| binding_names(tokens, l, i))
                    .unwrap_or_default();
                guards.push(Guard {
                    temporary: names.is_empty(),
                    names,
                    class,
                    depth,
                });
                stmt_new_guards.push(guards.len() - 1);
            }
            _ => {}
        }
        i += 1;
    }
}

/// Ends the current statement: temporaries die, `let` state resets.
fn end_statement(
    guards: &mut Vec<Guard>,
    stmt_let: &mut Option<usize>,
    new_guards: &mut Vec<usize>,
) {
    guards.retain(|g| !g.temporary);
    *stmt_let = None;
    new_guards.clear();
}

/// Collects the binding names of `let <pattern> = …`: every
/// lowercase-start identifier between the `let` and its `=` (skipping
/// `mut`/`ref` and enum constructors such as `Ok`).
fn binding_names(tokens: &[Token], let_idx: usize, acq_idx: usize) -> Vec<String> {
    let mut names = Vec::new();
    for tok in &tokens[let_idx + 1..acq_idx] {
        match &tok.kind {
            TokenKind::Punct('=') => break,
            TokenKind::Ident(id)
                if id != "mut"
                    && id != "ref"
                    && id
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_') =>
            {
                names.push(id.clone());
            }
            _ => {}
        }
    }
    names
}

/// Resolves the receiver path ending at the `.` before the method name
/// (`self . 0 . value` → last segment `value`) to a lock class.
fn classify(
    ctx: &FileContext<'_>,
    config: &RulesConfig,
    tokens: &[Token],
    dot_idx: usize,
) -> String {
    // Walk back over `ident`/`.`/`<int>` to find the receiver's segments.
    let mut last_segment = None;
    let mut j = dot_idx;
    while j > 0 {
        j -= 1;
        match &tokens[j].kind {
            TokenKind::Ident(id) => {
                if last_segment.is_none() && id != "self" {
                    last_segment = Some(id.clone());
                }
            }
            TokenKind::IntLit(_) | TokenKind::Punct('.') => {}
            _ => break,
        }
        if last_segment.is_some() {
            break;
        }
    }
    let segment = last_segment.unwrap_or_else(|| "<expr>".to_string());
    for site in &config.lock_sites {
        if site.suffix == segment {
            return site.class.clone();
        }
    }
    // Unnamed lock: derive a stable per-file class so new lock sites show
    // up in the graph without config changes.
    let stem = ctx
        .path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(ctx.path);
    format!("{stem}::{segment}")
}

/// Configured sites whose class was never acquired: the field was renamed
/// or the lock removed, and the topology the config describes is not the
/// one the graph holds.
pub fn unobserved_sites(graph: &LockGraph, config: &RulesConfig) -> Vec<String> {
    config
        .lock_sites
        .iter()
        .filter(|site| !graph.acquisitions.iter().any(|a| a.class == site.class))
        .map(|site| {
            format!(
                "lock_order site `{}` ({}): no acquisition observed",
                site.suffix, site.class
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::analyze::{analyze, SourceFile};
    use crate::config::RulesConfig;

    fn config() -> RulesConfig {
        RulesConfig::from_toml(
            r#"
[[lock_order.site]]
suffix = "alpha"
class = "test::Alpha"
kind = "Mutex"

[[lock_order.site]]
suffix = "beta"
class = "test::Beta"
kind = "RwLock"
"#,
        )
        .expect("test config parses")
    }

    fn run(content: &str) -> crate::report::Report {
        analyze(
            &[SourceFile {
                path: "crates/x/src/demo.rs".into(),
                content: content.into(),
            }],
            &config(),
        )
    }

    /// The `(from, to)` of every edge, after checking that each edge is
    /// reported as exactly one finding that names both classes.
    fn edges_as_findings(content: &str) -> Vec<(String, String)> {
        let report = run(content);
        let edges = &report.lock_graph.edges;
        assert_eq!(report.findings.len(), edges.len(), "{:?}", report.findings);
        for (edge, finding) in edges.iter().zip(&report.findings) {
            let expected = format!("on {} while a {} guard is live", edge.to, edge.from);
            assert!(finding.message.contains(&expected), "{finding:?}");
        }
        edges
            .iter()
            .map(|e| (e.from.clone(), e.to.clone()))
            .collect()
    }

    fn pair(from: &str, to: &str) -> (String, String) {
        (from.to_string(), to.to_string())
    }

    #[test]
    fn hold_while_acquiring_builds_an_edge() {
        let edges = edges_as_findings(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }",
        );
        assert_eq!(edges, [pair("test::Alpha", "test::Beta")]);
    }

    #[test]
    fn inverted_orders_in_two_functions_are_a_cycle() {
        let edges = edges_as_findings(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }\n\
             fn g(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }",
        );
        let (alpha, beta) = ("test::Alpha", "test::Beta");
        assert_eq!(edges, [pair(alpha, beta), pair(beta, alpha)]);
    }

    #[test]
    fn dropping_the_guard_breaks_the_edge() {
        let report = run(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); drop(a); let b = s.beta.lock().unwrap(); }\n\
             fn g(s: &S) { let b = s.beta.lock().unwrap(); }",
        );
        assert!(
            report.lock_graph.edges.is_empty(),
            "{:?}",
            report.lock_graph.edges
        );
    }

    #[test]
    fn same_lock_reacquired_while_held_is_a_self_cycle() {
        let edges = edges_as_findings(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.alpha.lock().unwrap(); }",
        );
        assert_eq!(edges, [pair("test::Alpha", "test::Alpha")]);
    }

    #[test]
    fn write_while_holding_is_flagged_without_a_cycle() {
        let edges = edges_as_findings(
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); let w = s.beta.write().unwrap(); }",
        );
        assert_eq!(edges, [pair("test::Alpha", "test::Beta")]);
    }

    #[test]
    fn statement_temporaries_do_not_outlive_their_statement() {
        let report =
            run("fn f(s: &S) { *s.alpha.lock().unwrap() = 1; let b = s.beta.write().unwrap(); }");
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.lock_graph.edges.is_empty());
    }

    #[test]
    fn block_scope_ends_a_guard() {
        let report = run(
            "fn f(s: &S) { { let a = s.alpha.lock().unwrap(); } let b = s.beta.write().unwrap(); }",
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn if_let_guard_dies_with_its_block() {
        let report = run(
            "fn f(s: &S) { if let Ok(a) = s.alpha.lock() { use_it(&a); } let b = s.beta.write().unwrap(); }",
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn let_else_guard_survives_the_else_block() {
        let report = run(
            "fn f(s: &S) { let Ok(a) = s.alpha.lock() else { return; }; let b = s.beta.lock().unwrap(); }",
        );
        assert_eq!(
            report.lock_graph.edges.len(),
            1,
            "{:?}",
            report.lock_graph.edges
        );
    }

    #[test]
    fn io_read_write_with_arguments_is_not_an_acquisition() {
        let report = run("fn f(s: &mut TcpStream, buf: &mut [u8]) { s.read(buf).unwrap(); s.write(buf).unwrap(); }");
        assert!(report.lock_graph.acquisitions.is_empty());
    }

    #[test]
    fn unnamed_receivers_get_a_per_file_class() {
        let report = run("fn f(s: &S) { let g = s.mystery.lock().unwrap(); }");
        assert_eq!(report.lock_graph.acquisitions.len(), 1);
        assert_eq!(report.lock_graph.acquisitions[0].class, "demo::mystery");
    }

    #[test]
    fn a_site_that_is_never_acquired_is_a_stale_target() {
        let report = run("fn f(s: &S) { let a = s.alpha.lock().unwrap(); }");
        assert_eq!(
            report.stale_targets,
            ["lock_order site `beta` (test::Beta): no acquisition observed"]
        );
        let report = run("fn f(s: &S) { *s.alpha.lock().unwrap() = 1; s.beta.read().unwrap(); }");
        assert!(
            report.stale_targets.is_empty(),
            "{:?}",
            report.stale_targets
        );
    }

    #[test]
    fn test_functions_are_exempt() {
        let report = run(
            "#[cfg(test)]\nmod tests { fn f(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); } }\n\
             fn g(s: &S) { let a = s.alpha.lock().unwrap(); }",
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.lock_graph.edges.is_empty());
    }
}
