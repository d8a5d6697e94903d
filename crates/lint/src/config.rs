//! Rule configuration: a hand-rolled TOML-subset parser plus the typed
//! [`RulesConfig`] the analyzer consumes.
//!
//! The workspace vendors its third-party crates, so — like `jsonio` and
//! the serve HTTP parser — the TOML reader here is dependency-free and
//! deliberately small. It supports exactly what `ci/lint-rules.toml`
//! needs: `[table]` headers, `[[array-of-tables]]` headers, and
//! `key = value` pairs where a value is a basic string, an integer, a
//! boolean, or an array of basic strings. Anything else is a hard error —
//! a rules file that cannot be read must fail the lint run loudly, never
//! silently relax it.

/// A parsed TOML value (subset).
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic (double-quoted) string.
    Str(String),
    /// An integer.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// An array of basic strings.
    StrArray(Vec<String>),
}

/// One `[section]` or one element of a `[[section]]` array, with its
/// key/value pairs in file order.
#[derive(Debug, Clone, Default)]
pub struct TomlTable {
    /// Dotted header path, e.g. `hot_path.span`.
    pub path: String,
    /// Key → value pairs, in order.
    pub entries: Vec<(String, TomlValue)>,
}

impl TomlTable {
    /// Looks up a string key.
    pub fn str_key(&self, key: &str) -> Option<&str> {
        self.entries.iter().find_map(|(k, v)| match v {
            TomlValue::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }

    /// Looks up a string-array key.
    pub fn array_key(&self, key: &str) -> Option<&[String]> {
        self.entries.iter().find_map(|(k, v)| match v {
            TomlValue::StrArray(a) if k == key => Some(a.as_slice()),
            _ => None,
        })
    }

    /// Looks up a boolean key.
    pub fn bool_key(&self, key: &str) -> Option<bool> {
        self.entries.iter().find_map(|(k, v)| match v {
            TomlValue::Bool(b) if k == key => Some(*b),
            _ => None,
        })
    }
}

/// Parses the TOML subset into a flat list of tables. Keys that appear
/// before any header land in a table with an empty path. Arrays may span
/// multiple lines; continuation lines are joined until the bracket closes.
pub fn parse_toml(text: &str) -> Result<Vec<TomlTable>, String> {
    let mut tables: Vec<TomlTable> = vec![TomlTable::default()];
    let mut lines = text.lines().enumerate();
    while let Some((lineno, raw)) = lines.next() {
        let mut line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        while !array_closed(&line) {
            match lines.next() {
                Some((_, next)) => {
                    line.push(' ');
                    line.push_str(strip_comment(next).trim());
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
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            tables.push(TomlTable {
                path: header.trim().to_string(),
                entries: Vec::new(),
            });
        } else if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
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

/// True when every `[` opened outside a string on this (logical) line has
/// been closed — i.e. the line does not continue a multi-line array.
fn array_closed(line: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    depth <= 0
}

/// Strips a `#` comment that is not inside a string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    if text == "true" {
        return Ok(TomlValue::Bool(true));
    }
    if text == "false" {
        return Ok(TomlValue::Bool(false));
    }
    if text.starts_with('"') {
        return Ok(TomlValue::Str(parse_string(text)?.0));
    }
    if text.starts_with('[') {
        let inner = text
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .ok_or("unterminated array (arrays must be single-line)")?;
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let (item, remainder) = parse_string(rest)?;
            items.push(item);
            rest = remainder.trim();
            rest = rest.strip_prefix(',').unwrap_or(rest).trim();
        }
        return Ok(TomlValue::StrArray(items));
    }
    text.parse::<i64>()
        .map(TomlValue::Int)
        .map_err(|_| format!("unsupported value {text:?}"))
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

/// One allowlist entry: a finding in `file` whose source line contains
/// `contains` is downgraded from failure to a recorded exception. The
/// `reason` is mandatory — an allowlist without a justification is how
/// invariants rot.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative path the entry applies to.
    pub file: String,
    /// Substring of the source line being excused.
    pub contains: String,
    /// Why this occurrence is acceptable.
    pub reason: String,
}

/// A named lock site: maps the final segment of an acquisition's receiver
/// path (`self.0.value.read()` → `value`) to a stable class name used as a
/// node in the lock-order graph.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Final receiver segment to match.
    pub suffix: String,
    /// Graph node name, e.g. `nn::Param::value`.
    pub class: String,
    /// Human description of the primitive (`RwLock`, `Mutex`,
    /// `Mutex+Condvar`).
    pub kind: String,
}

/// A hot-path span: the named functions of one file in which allocator
/// traffic is banned.
#[derive(Debug, Clone)]
pub struct HotSpan {
    /// Workspace-relative file path.
    pub file: String,
    /// Function names covered by the ban.
    pub functions: Vec<String>,
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

/// The full rule set driving one lint run.
#[derive(Debug, Clone)]
pub struct RulesConfig {
    /// Directories (workspace-relative) to walk for `.rs` files.
    pub include: Vec<String>,
    /// Path prefixes to skip.
    pub exclude: Vec<String>,

    /// Crate roots (path prefixes) the panic-freedom rule covers.
    pub panic_crates: Vec<String>,
    /// Methods banned by panic-freedom (`unwrap`, `expect`).
    pub panic_methods: Vec<String>,
    /// Macros banned by panic-freedom (`panic`, `todo`, `unimplemented`).
    pub panic_macros: Vec<String>,
    /// Whether `expr[<int literal>]` indexing is banned in covered crates.
    pub panic_literal_index: bool,
    /// Panic-freedom allowlist.
    pub panic_allow: Vec<AllowEntry>,

    /// Named lock sites for the lock-order graph.
    pub lock_sites: Vec<LockSite>,
    /// Lock-order allowlist.
    pub lock_allow: Vec<AllowEntry>,

    /// Methods banned inside hot-path spans (`clone`, `to_vec`, …).
    pub hot_methods: Vec<String>,
    /// `Type::constructor` paths banned inside hot-path spans.
    pub hot_paths: Vec<String>,
    /// Macros banned inside hot-path spans (`format`, `vec`).
    pub hot_macros: Vec<String>,
    /// The hot-path spans.
    pub hot_spans: Vec<HotSpan>,
    /// Hot-path allowlist.
    pub hot_allow: Vec<AllowEntry>,

    /// Whether unbounded `mpsc::channel` is banned workspace-wide.
    pub ban_unbounded_channel: bool,
    /// Files that must carry `#![forbid(unsafe_code)]`.
    pub forbid_unsafe_files: Vec<String>,
    /// Directory prefixes (workspace-relative) where `unsafe` is permitted.
    /// When non-empty, any `unsafe` token in a production file *outside*
    /// these prefixes is a finding — the whole workspace confines its
    /// `unsafe` to the audited SIMD backend.
    pub unsafe_allowed_dirs: Vec<String>,
    /// Guard-rail patterns that must stay present.
    pub required: Vec<RequiredPattern>,
    /// Hygiene allowlist.
    pub hygiene_allow: Vec<AllowEntry>,
}

impl RulesConfig {
    /// Builds the typed config from TOML text.
    ///
    /// # Errors
    /// Malformed TOML, unknown sections, or entries missing mandatory keys
    /// (most importantly: allowlist entries without a `reason`).
    pub fn from_toml(text: &str) -> Result<RulesConfig, String> {
        let tables = parse_toml(text)?;
        let mut config = RulesConfig {
            include: vec!["crates".into(), "src".into()],
            exclude: Vec::new(),
            panic_crates: Vec::new(),
            panic_methods: Vec::new(),
            panic_macros: Vec::new(),
            panic_literal_index: false,
            panic_allow: Vec::new(),
            lock_sites: Vec::new(),
            lock_allow: Vec::new(),
            hot_methods: Vec::new(),
            hot_paths: Vec::new(),
            hot_macros: Vec::new(),
            hot_spans: Vec::new(),
            hot_allow: Vec::new(),
            ban_unbounded_channel: false,
            forbid_unsafe_files: Vec::new(),
            unsafe_allowed_dirs: Vec::new(),
            required: Vec::new(),
            hygiene_allow: Vec::new(),
        };
        let allow_entry = |t: &TomlTable| -> Result<AllowEntry, String> {
            Ok(AllowEntry {
                file: t
                    .str_key("file")
                    .ok_or_else(|| format!("[[{}]] needs `file`", t.path))?
                    .to_string(),
                contains: t
                    .str_key("contains")
                    .ok_or_else(|| format!("[[{}]] needs `contains`", t.path))?
                    .to_string(),
                reason: t
                    .str_key("reason")
                    .filter(|r| !r.trim().is_empty())
                    .ok_or_else(|| format!("[[{}]] needs a non-empty `reason`", t.path))?
                    .to_string(),
            })
        };
        for table in &tables {
            match table.path.as_str() {
                "" => {}
                "workspace" => {
                    if let Some(include) = table.array_key("include") {
                        config.include = include.to_vec();
                    }
                    if let Some(exclude) = table.array_key("exclude") {
                        config.exclude = exclude.to_vec();
                    }
                }
                "panic_freedom" => {
                    config.panic_crates = table.array_key("crates").unwrap_or(&[]).to_vec();
                    config.panic_methods =
                        table.array_key("banned_methods").unwrap_or(&[]).to_vec();
                    config.panic_macros = table.array_key("banned_macros").unwrap_or(&[]).to_vec();
                    config.panic_literal_index =
                        table.bool_key("ban_literal_index").unwrap_or(false);
                }
                "panic_freedom.allow" => config.panic_allow.push(allow_entry(table)?),
                "lock_order" => {}
                "lock_order.site" => config.lock_sites.push(LockSite {
                    suffix: table
                        .str_key("suffix")
                        .ok_or("[[lock_order.site]] needs `suffix`")?
                        .to_string(),
                    class: table
                        .str_key("class")
                        .ok_or("[[lock_order.site]] needs `class`")?
                        .to_string(),
                    kind: table.str_key("kind").unwrap_or("Mutex").to_string(),
                }),
                "lock_order.allow" => config.lock_allow.push(allow_entry(table)?),
                "hot_path" => {
                    config.hot_methods = table.array_key("banned_methods").unwrap_or(&[]).to_vec();
                    config.hot_paths = table.array_key("banned_paths").unwrap_or(&[]).to_vec();
                    config.hot_macros = table.array_key("banned_macros").unwrap_or(&[]).to_vec();
                }
                "hot_path.span" => config.hot_spans.push(HotSpan {
                    file: table
                        .str_key("file")
                        .ok_or("[[hot_path.span]] needs `file`")?
                        .to_string(),
                    functions: table.array_key("functions").unwrap_or(&[]).to_vec(),
                }),
                "hot_path.allow" => config.hot_allow.push(allow_entry(table)?),
                "hygiene" => {
                    config.ban_unbounded_channel =
                        table.bool_key("ban_unbounded_channel").unwrap_or(false);
                    config.forbid_unsafe_files = table
                        .array_key("forbid_unsafe_files")
                        .unwrap_or(&[])
                        .to_vec();
                    config.unsafe_allowed_dirs = table
                        .array_key("unsafe_allowed_dirs")
                        .unwrap_or(&[])
                        .to_vec();
                }
                "hygiene.required" => config.required.push(RequiredPattern {
                    file: table
                        .str_key("file")
                        .ok_or("[[hygiene.required]] needs `file`")?
                        .to_string(),
                    contains: table
                        .str_key("contains")
                        .ok_or("[[hygiene.required]] needs `contains`")?
                        .to_string(),
                    why: table.str_key("why").unwrap_or("").to_string(),
                }),
                "hygiene.allow" => config.hygiene_allow.push(allow_entry(table)?),
                other => return Err(format!("unknown lint-rules.toml section [{other}]")),
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
[workspace]
include = ["crates", "src"] # trailing comment
exclude = ["vendor"]

[panic_freedom]
crates = ["crates/serve"]
banned_methods = ["unwrap", "expect"]
ban_literal_index = true

[[panic_freedom.allow]]
file = "crates/serve/src/metrics.rs"
contains = "expect(\"poisoned\")"
reason = "abort on poison"
"#;
        let config = RulesConfig::from_toml(text).expect("parses");
        assert_eq!(config.include, vec!["crates", "src"]);
        assert_eq!(config.panic_crates, vec!["crates/serve"]);
        assert!(config.panic_literal_index);
        assert_eq!(config.panic_allow.len(), 1);
        assert_eq!(config.panic_allow[0].contains, "expect(\"poisoned\")");
    }

    #[test]
    fn multi_line_arrays_parse() {
        let text = "[workspace]\ninclude = [\n    \"crates\", # comment\n    \"src\",\n]";
        let config = RulesConfig::from_toml(text).expect("parses");
        assert_eq!(config.include, vec!["crates", "src"]);
    }

    #[test]
    fn unterminated_multi_line_array_is_rejected() {
        assert!(RulesConfig::from_toml("[workspace]\ninclude = [\n\"crates\",").is_err());
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let text = "[[panic_freedom.allow]]\nfile = \"a.rs\"\ncontains = \"x\"\nreason = \"\"";
        assert!(RulesConfig::from_toml(text).is_err());
    }

    #[test]
    fn unknown_section_is_rejected() {
        assert!(RulesConfig::from_toml("[surprise]\nx = true").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let text = "[workspace]\ninclude = [\"a#b\"]";
        let config = RulesConfig::from_toml(text).expect("parses");
        assert_eq!(config.include, vec!["a#b"]);
    }

    #[test]
    fn lock_sites_parse() {
        let text = "[[lock_order.site]]\nsuffix = \"value\"\nclass = \"nn::Param::value\"\nkind = \"RwLock\"";
        let config = RulesConfig::from_toml(text).expect("parses");
        assert_eq!(config.lock_sites.len(), 1);
        assert_eq!(config.lock_sites[0].class, "nn::Param::value");
    }
}
