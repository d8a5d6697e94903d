//! Test-scope resolution over a token stream.
//!
//! The rules only police *production* code: anything inside a
//! `#[cfg(test)]` item, a `#[test]` function, or a `mod tests { … }` block
//! is exempt (tests unwrap and sleep on purpose), as is any file under a
//! crate's `tests/` directory. This module computes, per token, whether it
//! is test-scoped. A test region is always a whole brace-delimited body,
//! so skipping its tokens leaves the braces of the rest balanced.

use crate::lexer::{Token, TokenKind};

/// Token stream plus the scoping facts the rules need.
pub struct ScopedTokens {
    /// The lexed tokens.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` is `true` when token `i` is inside test scope.
    pub test_mask: Vec<bool>,
}

/// Scopes `tokens`. When `whole_file_is_test` is set (integration-test
/// files under `tests/`), every token is test-scoped.
pub fn scope(tokens: Vec<Token>, whole_file_is_test: bool) -> ScopedTokens {
    let mut test_mask = vec![whole_file_is_test; tokens.len()];
    if !whole_file_is_test {
        mark_test_regions(&tokens, &mut test_mask);
    }
    ScopedTokens { tokens, test_mask }
}

/// Marks the token regions covered by `#[cfg(test)]` / `#[test]`
/// attributes and `mod tests { … }` blocks.
///
/// An attribute containing the bare identifier `test` marks the *next*
/// item; the marked region is that item's brace-delimited body (a
/// brace-less item such as an annotated `use` consumes the attribute
/// without opening a region). Regions nest by brace depth.
fn mark_test_regions(tokens: &[Token], mask: &mut [bool]) {
    let mut depth: i32 = 0;
    // Depths at which an active test region closes; non-empty == in test.
    let mut regions: Vec<i32> = Vec::new();
    // A test attribute (or `mod tests`) is waiting for its item's `{`.
    let mut pending = false;
    let mut i = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        match &tok.kind {
            TokenKind::Punct('#') => {
                // Attribute: `#[…]` or `#![…]`. Scan to the matching `]`,
                // looking for the bare ident `test` (covers `#[test]`,
                // `#[cfg(test)]`, `#[cfg(all(test, …))]`).
                let mut j = i + 1;
                if matches!(tokens.get(j).map(|t| &t.kind), Some(TokenKind::Punct('!'))) {
                    j += 1;
                }
                if matches!(tokens.get(j).map(|t| &t.kind), Some(TokenKind::Punct('['))) {
                    let mut brackets = 0i32;
                    let mut has_test = false;
                    let mut end = j;
                    for (k, t) in tokens.iter().enumerate().skip(j) {
                        match &t.kind {
                            TokenKind::Punct('[') => brackets += 1,
                            TokenKind::Punct(']') => {
                                brackets -= 1;
                                if brackets == 0 {
                                    end = k;
                                    break;
                                }
                            }
                            TokenKind::Ident(id) if id == "test" => has_test = true,
                            _ => {}
                        }
                    }
                    if has_test {
                        pending = true;
                    }
                    // Mark the attribute's own tokens if already in a
                    // region, then skip past it.
                    for m in mask.iter_mut().take(end + 1).skip(i) {
                        *m = *m || !regions.is_empty();
                    }
                    i = end + 1;
                    continue;
                }
            }
            TokenKind::Ident(id) if id == "mod" => {
                // `mod tests { … }` (any attribute stack handled above).
                if let Some(TokenKind::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) {
                    if name == "tests" {
                        pending = true;
                    }
                }
            }
            TokenKind::Punct('{') => {
                depth += 1;
                if pending {
                    regions.push(depth);
                    pending = false;
                }
            }
            TokenKind::Punct('}') => {
                // The closing brace still belongs to the region.
                mask[i] = mask[i] || !regions.is_empty();
                if regions.last() == Some(&depth) {
                    regions.pop();
                }
                depth -= 1;
                i += 1;
                continue;
            }
            TokenKind::Punct(';')
                // A brace-less item (e.g. `#[cfg(test)] use …;`) consumes
                // the pending attribute without opening a region.
                if pending && regions.is_empty() => {
                    pending = false;
                }
            _ => {}
        }
        mask[i] = mask[i] || !regions.is_empty();
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scoped(src: &str) -> ScopedTokens {
        scope(lex(src), false)
    }

    fn ident_in_test(s: &ScopedTokens, name: &str) -> bool {
        s.tokens
            .iter()
            .zip(&s.test_mask)
            .any(|(t, &m)| t.ident() == Some(name) && m)
    }

    #[test]
    fn cfg_test_module_is_test_scoped() {
        let s = scoped("fn prod() { a(); }\n#[cfg(test)]\nmod t { fn check() { b(); } }");
        assert!(!ident_in_test(&s, "a"));
        assert!(ident_in_test(&s, "b"));
    }

    #[test]
    fn mod_tests_is_test_scoped_without_attribute() {
        let s = scoped("mod tests { fn check() { b(); } }\nfn prod() { a(); }");
        assert!(ident_in_test(&s, "b"));
        assert!(!ident_in_test(&s, "a"));
    }

    #[test]
    fn test_attribute_on_fn() {
        let s = scoped("#[test]\nfn check() { b(); }\nfn prod() { a(); }");
        assert!(ident_in_test(&s, "b"));
        assert!(!ident_in_test(&s, "a"));
    }

    #[test]
    fn cfg_test_use_does_not_open_a_region() {
        let s = scoped("#[cfg(test)]\nuse std::sync::mpsc;\nfn prod() { a(); }");
        assert!(!ident_in_test(&s, "a"));
    }

    #[test]
    fn stacked_attributes_keep_the_pending_mark() {
        let s =
            scoped("#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn f() { b(); } }\nfn p() { a(); }");
        assert!(ident_in_test(&s, "b"));
        assert!(!ident_in_test(&s, "a"));
    }

    #[test]
    fn code_after_tests_module_is_production() {
        let s = scoped("#[cfg(test)]\nmod tests { fn f() { b(); } }\nfn late() { c(); }");
        assert!(ident_in_test(&s, "b"));
        assert!(!ident_in_test(&s, "c"));
    }

    #[test]
    fn test_functions_are_flagged() {
        let s = scoped("#[cfg(test)]\nmod tests { fn helper() { b(); } }\nfn prod() { a(); }");
        assert!(ident_in_test(&s, "helper"));
        assert!(!ident_in_test(&s, "prod"));
    }

    #[test]
    fn whole_file_test_masks_everything() {
        let s = scope(lex("fn any() { a(); }"), true);
        assert!(ident_in_test(&s, "a"));
    }

    #[test]
    fn braces_in_char_literals_do_not_unbalance_regions() {
        let s =
            scoped("#[cfg(test)]\nmod t { fn f() { m.insert('{', 1); b(); } }\nfn p() { a(); }");
        assert!(ident_in_test(&s, "b"));
        assert!(!ident_in_test(&s, "a"));
    }
}
