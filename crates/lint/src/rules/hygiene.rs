//! Concurrency hygiene: unbounded-channel ban, `unsafe` confinement, and
//! guard-rail presence.
//!
//! Three checks:
//!
//! * **No unbounded `mpsc::channel`** in production code, workspace-wide.
//!   Every queue in the serve path is bounded by design (backpressure is
//!   what keeps overload a `503` instead of an OOM); an unbounded channel
//!   anywhere is a buffer that grows until the process dies. Use
//!   `mpsc::sync_channel` (or the serve `JobQueue`) instead.
//! * **`unsafe` is confined** to the directories named in
//!   `unsafe_allowed_dirs` (the audited SIMD backend): any `unsafe` token
//!   in a production file elsewhere is a finding, and inside the allowed
//!   directories every `unsafe fn` / `unsafe {` must sit within a few
//!   lines of a `SAFETY`/`# Safety` comment explaining its contract.
//! * **Guard rails stay present** — the `#![deny(clippy::disallowed_types)]`
//!   attributes, the compile-time `Send + Sync` assertions from the
//!   shared-registry refactor, and the `#![forbid(unsafe_code)]` attributes
//!   are load-bearing: each is verified as a raw-text pattern so deleting
//!   one fails this lint even though the build would still pass.

use crate::analyze::FileContext;
use crate::config::RulesConfig;
use crate::report::{Finding, Rule};

/// Token-level checks (the channel ban and `unsafe` confinement) for one
/// file.
pub fn check(ctx: &FileContext<'_>, config: &RulesConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    // `unsafe` may only appear under the allowed directory prefixes (the
    // audited SIMD backend). The lexer resolves keywords to idents and
    // `unsafe_code` / `unsafe_op_in_unsafe_fn` are single distinct
    // identifiers, so matching the bare `unsafe` token is exact.
    let unsafe_confined = !config.unsafe_allowed_dirs.is_empty()
        && !config
            .unsafe_allowed_dirs
            .iter()
            .any(|dir| ctx.path.starts_with(dir.as_str()));
    let tokens = &ctx.scoped.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if ctx.scoped.test_mask[i] {
            continue;
        }
        if unsafe_confined && tok.ident() == Some("unsafe") {
            findings.push(
                ctx.finding(
                    Rule::Hygiene,
                    tok,
                    "`unsafe` is confined to the audited SIMD backend (see \
                 `unsafe_allowed_dirs` in ci/lint-rules.toml); route vector \
                 work through the safe `simd` crate API instead"
                        .to_string(),
                ),
            );
        }
        if !config.ban_unbounded_channel {
            continue;
        }
        // `mpsc :: channel` — the unbounded constructor. `sync_channel`
        // is a different identifier, so bounded channels never match. An
        // optional turbofish (`mpsc::channel::<T>()`) is skipped so it
        // cannot be used to dodge the ban.
        if tok.ident() == Some("mpsc")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).and_then(|t| t.ident()) == Some("channel")
            && tokens
                .get(skip_turbofish(tokens, i + 4))
                .is_some_and(|t| t.is_punct('('))
        {
            findings.push(
                ctx.finding(
                    Rule::Hygiene,
                    tok,
                    "unbounded `mpsc::channel` is banned (no backpressure); use \
                 `mpsc::sync_channel` with an explicit capacity"
                        .to_string(),
                ),
            );
        }
    }
    findings
}

/// Returns the index past an optional `::<...>` turbofish starting at
/// `start`, tracking angle-bracket depth; `start` itself when absent.
fn skip_turbofish(tokens: &[crate::lexer::Token], start: usize) -> usize {
    if !(tokens.get(start).is_some_and(|t| t.is_punct(':'))
        && tokens.get(start + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(start + 2).is_some_and(|t| t.is_punct('<')))
    {
        return start;
    }
    let mut depth = 0usize;
    for (offset, tok) in tokens.iter().enumerate().skip(start + 2) {
        if tok.is_punct('<') {
            depth += 1;
        } else if tok.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return offset + 1;
            }
        }
    }
    tokens.len()
}

/// Raw-text checks for one file: `#![forbid(unsafe_code)]` and the
/// configured required patterns.
pub fn file_checks(path: &str, content: &str, config: &RulesConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    if config.forbid_unsafe_files.iter().any(|f| f == path)
        && !content.contains("#![forbid(unsafe_code)]")
    {
        findings.push(Finding {
            rule: Rule::Hygiene,
            file: path.to_string(),
            line: 1,
            col: 1,
            message: "crate root must carry `#![forbid(unsafe_code)]` (future `unsafe` needs \
                      an explicit, reviewed opt-out here and in ci/lint-rules.toml)"
                .to_string(),
            snippet: String::new(),
        });
    }
    // Inside the allowed `unsafe` directories, every `unsafe fn` /
    // `unsafe {` must carry a nearby SAFETY comment. The token stream
    // drops comments, so this is a raw-line scan: the justification may
    // sit on the same line or up to a comment block above the unsafe
    // site.
    if config
        .unsafe_allowed_dirs
        .iter()
        .any(|dir| path.starts_with(dir.as_str()))
    {
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
                findings.push(Finding {
                    rule: Rule::Hygiene,
                    file: path.to_string(),
                    line: i as u32 + 1,
                    col: 1,
                    message: "`unsafe` without a nearby SAFETY comment: state the contract \
                              that makes this sound (within 12 lines above the site)"
                        .to_string(),
                    snippet: (*line).to_string(),
                });
            }
        }
    }
    for required in config.required.iter().filter(|r| r.file == path) {
        if !content.contains(&required.contains) {
            findings.push(Finding {
                rule: Rule::Hygiene,
                file: path.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "guard rail missing: {} must contain `{}` ({})",
                    path, required.contains, required.why
                ),
                snippet: String::new(),
            });
        }
    }
    findings
}

/// Findings for guard-rail files that were not scanned at all (deleted or
/// moved — silently losing the file must not silently lose the check).
pub fn missing_files(scanned: &[String], config: &RulesConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut expected: Vec<&str> = config
        .forbid_unsafe_files
        .iter()
        .map(String::as_str)
        .collect();
    expected.extend(config.required.iter().map(|r| r.file.as_str()));
    expected.sort_unstable();
    expected.dedup();
    for file in expected {
        if !scanned.iter().any(|s| s == file) {
            findings.push(Finding {
                rule: Rule::Hygiene,
                file: file.to_string(),
                line: 0,
                col: 0,
                message: "guard-rail file is named in ci/lint-rules.toml but was not found in \
                          the workspace"
                    .to_string(),
                snippet: String::new(),
            });
        }
    }
    findings
}

/// `unsafe_allowed_dirs` prefixes under which no file was scanned: the
/// audited directory moved, and confinement now points at nothing.
pub fn empty_unsafe_dirs(scanned: &[String], config: &RulesConfig) -> Vec<String> {
    config
        .unsafe_allowed_dirs
        .iter()
        .filter(|dir| !scanned.iter().any(|s| s.starts_with(dir.as_str())))
        .map(|dir| format!("hygiene unsafe_allowed_dirs `{dir}`: no scanned file"))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::analyze::{analyze, SourceFile};
    use crate::config::RulesConfig;

    fn config() -> RulesConfig {
        RulesConfig::from_toml(
            r##"
[hygiene]
ban_unbounded_channel = true
forbid_unsafe_files = ["crates/x/src/lib.rs"]

[[hygiene.required]]
file = "crates/x/src/lib.rs"
contains = "#![deny(clippy::disallowed_types)]"
why = "Rc ban"
"##,
        )
        .expect("test config parses")
    }

    fn channel_only_config() -> RulesConfig {
        RulesConfig::from_toml("[hygiene]\nban_unbounded_channel = true\n")
            .expect("test config parses")
    }

    #[test]
    fn unbounded_channel_is_flagged_and_sync_channel_is_not() {
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/a.rs".into(),
                content:
                    "fn f() { let (a, b) = mpsc::channel(); let (c, d) = mpsc::sync_channel(1); }"
                        .into(),
            }],
            &channel_only_config(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].message.contains("unbounded"));
    }

    #[test]
    fn turbofish_does_not_dodge_the_channel_ban() {
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/a.rs".into(),
                content: "fn f() { let pair = mpsc::channel::<Vec<u8>>(); }".into(),
            }],
            &channel_only_config(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    }

    #[test]
    fn channel_in_test_code_is_exempt() {
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/a.rs".into(),
                content: "#[cfg(test)]\nmod tests { fn f() { let (a, b) = mpsc::channel(); } }"
                    .into(),
            }],
            &channel_only_config(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    fn unsafe_config() -> RulesConfig {
        RulesConfig::from_toml(
            r#"
[hygiene]
unsafe_allowed_dirs = ["crates/simd/src"]
"#,
        )
        .expect("test config parses")
    }

    #[test]
    fn unsafe_outside_allowed_dirs_is_flagged() {
        let report = analyze(
            &[SourceFile {
                path: "crates/tensor/src/fast.rs".into(),
                content: "fn f(p: *const f32) -> f32 { unsafe { *p } }".into(),
            }],
            &unsafe_config(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].message.contains("confined"));
    }

    #[test]
    fn unsafe_attribute_idents_do_not_trip_confinement() {
        // `unsafe_code` / `unsafe_op_in_unsafe_fn` are distinct identifiers,
        // not the `unsafe` keyword.
        let report = analyze(
            &[SourceFile {
                path: "crates/tensor/src/lib.rs".into(),
                content: "#![forbid(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n".into(),
            }],
            &unsafe_config(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn unsafe_in_test_code_is_exempt_from_confinement() {
        let report = analyze(
            &[SourceFile {
                path: "crates/tensor/src/fast.rs".into(),
                content: "#[cfg(test)]\nmod tests { fn f(p: *const f32) -> f32 { unsafe { *p } } }"
                    .into(),
            }],
            &unsafe_config(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn unsafe_in_allowed_dir_requires_safety_comment() {
        let undocumented = analyze(
            &[SourceFile {
                path: "crates/simd/src/x86.rs".into(),
                content: "fn f(p: *const f32) -> f32 { unsafe { *p } }".into(),
            }],
            &unsafe_config(),
        );
        assert_eq!(
            undocumented.findings.len(),
            1,
            "{:?}",
            undocumented.findings
        );
        assert!(undocumented.findings[0].message.contains("SAFETY"));

        let documented = analyze(
            &[SourceFile {
                path: "crates/simd/src/x86.rs".into(),
                content: "fn f(p: *const f32) -> f32 {\n    // SAFETY: caller guarantees p is \
                          valid.\n    unsafe { *p }\n}"
                    .into(),
            }],
            &unsafe_config(),
        );
        assert!(documented.findings.is_empty(), "{:?}", documented.findings);
    }

    #[test]
    fn an_allowed_unsafe_dir_without_files_is_a_stale_target() {
        let report = |path: &str| {
            analyze(
                &[SourceFile {
                    path: path.into(),
                    content: String::new(),
                }],
                &unsafe_config(),
            )
        };
        assert!(report("crates/simd/src/x86.rs").stale_targets.is_empty());
        assert_eq!(
            report("crates/vector/src/x86.rs").stale_targets,
            ["hygiene unsafe_allowed_dirs `crates/simd/src`: no scanned file"]
        );
    }

    #[test]
    fn missing_forbid_and_guard_rail_are_flagged() {
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/lib.rs".into(),
                content: "// no attributes".into(),
            }],
            &config(),
        );
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    }

    #[test]
    fn present_guard_rails_pass() {
        let report = analyze(
            &[SourceFile {
                path: "crates/x/src/lib.rs".into(),
                content: "#![forbid(unsafe_code)]\n#![deny(clippy::disallowed_types)]\n".into(),
            }],
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
