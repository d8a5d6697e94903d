//! Rule configuration: a hand-rolled TOML-subset parser plus the typed
//! [`RulesConfig`] the analyzer consumes.
//!
//! The workspace vendors its third-party crates, so — like `jsonio` and
//! the serve HTTP parser — the TOML reader here is dependency-free and
//! deliberately small. It supports exactly what `ci/lint-rules.toml`
//! needs: `[table]` headers, `[[array-of-tables]]` headers, and
//! `key = value` pairs where a value is a basic string or an array of
//! basic strings (arrays may span lines). Anything else — another value
//! type, an unknown table, an unknown key in a known table, a value of the
//! wrong type — is a hard error: a rules file that cannot be read must fail
//! the lint run loudly, never silently relax it.

use crate::report::Rule;

/// A parsed TOML value (subset).
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic (double-quoted) string.
    Str(String),
    /// An array of basic strings.
    StrArray(Vec<String>),
}

/// One `[section]` or one element of a `[[section]]` array, with its
/// key/value pairs in file order.
#[derive(Debug, Clone, Default)]
pub struct TomlTable {
    /// Dotted header path, e.g. `hygiene.required`.
    pub path: String,
    /// Key → value pairs, in order.
    pub entries: Vec<(String, TomlValue)>,
}

impl TomlTable {
    fn value(&self, key: &str) -> Option<&TomlValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string at `key`, which must be present.
    fn string(&self, key: &str) -> Result<&str, String> {
        match self.value(key) {
            Some(TomlValue::Str(s)) => Ok(s),
            Some(_) => Err(format!("[{}] `{key}` must be a string", self.path)),
            None => Err(format!("[[{}]] needs `{key}`", self.path)),
        }
    }

    /// The string array at `key`; empty when absent.
    fn strings(&self, key: &str) -> Result<Vec<String>, String> {
        match self.value(key) {
            Some(TomlValue::StrArray(a)) => Ok(a.clone()),
            Some(_) => Err(format!(
                "[{}] `{key}` must be an array of strings",
                self.path
            )),
            None => Ok(Vec::new()),
        }
    }
}

/// Parses the TOML subset into a flat list of tables. Keys that appear
/// before any header land in a table with an empty path. Arrays may span
/// multiple lines; continuation lines are joined until the bracket closes.
pub fn parse_toml(text: &str) -> Result<Vec<TomlTable>, String> {
    let mut tables: Vec<TomlTable> = vec![TomlTable::default()];
    let mut lines = text.lines().enumerate();
    while let Some((lineno, raw)) = lines.next() {
        let (code, mut depth) = scan(raw);
        let mut line = code.trim().to_string();
        if line.is_empty() {
            continue;
        }
        while depth > 0 {
            match lines.next() {
                Some((_, next)) => {
                    let (code, more) = scan(next);
                    line.push(' ');
                    line.push_str(code.trim());
                    depth += more;
                }
                None => {
                    return Err(format!(
                        "lint-rules.toml:{}: unterminated array: {raw}",
                        lineno + 1
                    ))
                }
            }
        }
        let line = line.as_str();
        let err = |msg: &str| format!("lint-rules.toml:{}: {msg}: {raw}", lineno + 1);
        let header = line
            .strip_prefix("[[")
            .and_then(|l| l.strip_suffix("]]"))
            .or_else(|| line.strip_prefix('[').and_then(|l| l.strip_suffix(']')));
        if let Some(header) = header {
            tables.push(TomlTable {
                path: header.trim().to_string(),
                entries: Vec::new(),
            });
        } else if let Some((key, value)) = line.split_once('=') {
            let value = parse_value(value.trim()).map_err(|m| err(&m))?;
            let table = tables.last_mut().ok_or_else(|| err("no open table"))?;
            table.entries.push((key.trim().to_string(), value));
        } else {
            return Err(err("expected `[table]`, `[[table]]` or `key = value`"));
        }
    }
    Ok(tables)
}

/// Splits a line at a `#` comment outside a string, returning the code
/// before it and the code's `[` count minus its `]` count (outside
/// strings): a positive count means an array continues on the next line.
fn scan(line: &str) -> (&str, i32) {
    let (mut in_str, mut escaped, mut depth) = (false, false, 0);
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return (&line[..i], depth),
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    (line, depth)
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    if text.starts_with('"') {
        return Ok(TomlValue::Str(parse_string(text)?.0));
    }
    let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) else {
        return Err(format!(
            "unsupported value {text:?} (a string or an array of strings)"
        ));
    };
    let mut items = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let (item, remainder) = parse_string(rest)?;
        items.push(item);
        rest = remainder.trim();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim();
    }
    Ok(TomlValue::StrArray(items))
}

/// Parses one leading basic string, returning it and the remaining text.
fn parse_string(text: &str) -> Result<(String, &str), String> {
    let rest = text
        .strip_prefix('"')
        .ok_or_else(|| format!("expected a string, found {text:?}"))?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                other => return Err(format!("unsupported escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

// ---------------------------------------------------------------------------
// Typed configuration
// ---------------------------------------------------------------------------

/// One allowlist entry: a finding of `rule` in `file` whose source line
/// contains `contains` is downgraded from failure to a recorded exception.
/// The `reason` is mandatory — an allowlist without a justification is how
/// invariants rot.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The rule whose finding is excused.
    pub rule: Rule,
    /// Workspace-relative path the entry applies to.
    pub file: String,
    /// Substring of the source line being excused.
    pub contains: String,
    /// Why this occurrence is acceptable.
    pub reason: String,
}

/// A guard-rail pattern that must stay present in a file.
#[derive(Debug, Clone)]
pub struct RequiredPattern {
    /// Workspace-relative file path.
    pub file: String,
    /// Exact substring that must occur in the file.
    pub contains: String,
    /// What the pattern protects.
    pub why: String,
}

/// The full rule set driving one lint run: what differs between
/// workspaces. What does not — the banned methods and macros, the channel
/// ban, which files must forbid `unsafe` — is fixed in the rules.
#[derive(Debug, Clone, Default)]
pub struct RulesConfig {
    /// Path prefixes (a directory or one exact file) the panic-freedom
    /// rule covers.
    pub panic_crates: Vec<String>,
    /// Directory prefixes (workspace-relative) where `unsafe` is permitted.
    /// When non-empty, any `unsafe` token in a production file *outside*
    /// these prefixes is a finding — the whole workspace confines its
    /// `unsafe` to the audited SIMD backend.
    pub unsafe_allowed_dirs: Vec<String>,
    /// Guard-rail patterns that must stay present.
    pub required: Vec<RequiredPattern>,
    /// Allowlist entries, each naming its rule.
    pub allow: Vec<AllowEntry>,
}

impl RulesConfig {
    /// Builds the typed config from TOML text.
    ///
    /// # Errors
    /// Malformed TOML, unknown sections or keys, values of the wrong type,
    /// or entries missing mandatory keys (most importantly: allowlist
    /// entries without a `reason`).
    pub fn from_toml(text: &str) -> Result<RulesConfig, String> {
        let mut config = RulesConfig::default();
        for table in &parse_toml(text)? {
            let keys: &[&str] = match table.path.as_str() {
                "" => &[],
                "panic_freedom" => &["crates"],
                "hygiene" => &["unsafe_allowed_dirs"],
                "hygiene.required" => &["file", "contains", "why"],
                "allow" => &["rule", "file", "contains", "reason"],
                other => return Err(format!("unknown lint-rules.toml section [{other}]")),
            };
            if let Some((key, _)) = table.entries.iter().find(|(k, _)| !keys.contains(&&**k)) {
                return Err(format!(
                    "unknown key `{key}` in lint-rules.toml section [{}] (known: {keys:?})",
                    table.path
                ));
            }
            match table.path.as_str() {
                "panic_freedom" => config.panic_crates = table.strings("crates")?,
                "hygiene" => config.unsafe_allowed_dirs = table.strings("unsafe_allowed_dirs")?,
                "hygiene.required" => config.required.push(RequiredPattern {
                    file: table.string("file")?.to_string(),
                    contains: table.string("contains")?.to_string(),
                    why: table.string("why")?.to_string(),
                }),
                "allow" => {
                    let rule = table.string("rule")?;
                    config.allow.push(AllowEntry {
                        rule: Rule::from_id(rule)
                            .ok_or_else(|| format!("[[allow]] names no rule `{rule}`"))?,
                        file: table.string("file")?.to_string(),
                        contains: table.string("contains")?.to_string(),
                        reason: Some(table.string("reason")?)
                            .filter(|r| !r.trim().is_empty())
                            .ok_or("[[allow]] needs a non-empty `reason`")?
                            .to_string(),
                    });
                }
                _ => {}
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_scalars() {
        let text = r#"
# comment
[panic_freedom]
crates = ["crates/serve"] # trailing comment

[[allow]]
rule = "panic-freedom"
file = "crates/serve/src/metrics.rs"
contains = "expect(\"poisoned\")"
reason = "abort on poison"
"#;
        let config = RulesConfig::from_toml(text).expect("parses");
        assert_eq!(config.panic_crates, vec!["crates/serve"]);
        assert_eq!(config.allow.len(), 1);
        assert_eq!(config.allow[0].rule, Rule::PanicFreedom);
        assert_eq!(config.allow[0].contains, "expect(\"poisoned\")");
    }

    #[test]
    fn multi_line_arrays_parse() {
        let text = "[panic_freedom]\ncrates = [\n    \"crates\", # comment\n    \"src\",\n]";
        let config = RulesConfig::from_toml(text).expect("parses");
        assert_eq!(config.panic_crates, vec!["crates", "src"]);
    }

    #[test]
    fn unterminated_multi_line_array_is_rejected() {
        assert!(RulesConfig::from_toml("[panic_freedom]\ncrates = [\n\"crates\",").is_err());
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let text =
            "[[allow]]\nrule = \"hygiene\"\nfile = \"a.rs\"\ncontains = \"x\"\nreason = \"\"";
        assert!(RulesConfig::from_toml(text).is_err());
    }

    #[test]
    fn unknown_section_is_rejected() {
        assert!(RulesConfig::from_toml("[surprise]\nx = \"y\"").is_err());
    }

    #[test]
    fn unknown_key_in_a_known_section_is_rejected() {
        // A misspelt `crates` would otherwise leave the rule covering
        // nothing, and a clean run would prove nothing.
        let error = RulesConfig::from_toml("[panic_freedom]\ncrate = [\"crates/serve/src\"]")
            .expect_err("a misspelt key must not parse");
        assert!(error.contains("`crate`"), "{error}");
    }

    #[test]
    fn a_value_of_the_wrong_type_is_rejected() {
        assert!(RulesConfig::from_toml("[panic_freedom]\ncrates = \"crates/serve\"").is_err());
        assert!(RulesConfig::from_toml("[hygiene]\nunsafe_allowed_dirs = true").is_err());
    }

    #[test]
    fn an_allow_entry_names_a_known_rule() {
        let text = "[[allow]]\nrule = \"hot-path-alloc\"\nfile = \"a.rs\"\ncontains = \"x\"\n\
                    reason = \"gone\"";
        assert!(RulesConfig::from_toml(text).is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let text = "[panic_freedom]\ncrates = [\"a#b\"]";
        let config = RulesConfig::from_toml(text).expect("parses");
        assert_eq!(config.panic_crates, vec!["a#b"]);
    }
}
