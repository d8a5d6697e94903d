//! Tier-1 static-analysis gate. The workspace's safety rules are carried by
//! rustc and clippy; `cargo test` runs clippy here, so a violation fails
//! tier-1 like any other test:
//!
//! * **Panic-freedom** of the serve request path and the decoders of what
//!   reaches it from outside: the crate roots of `serve`, `jsonio`, `binio`
//!   and the top of `core/src/checkpoint.rs` deny clippy's
//!   panicking-construct lints ([`PANIC_FREE`]); `clippy.toml` adds the
//!   `assert!` family.
//! * **No unbounded channel, no `Rc`/`RefCell`, no bare lock**: the
//!   `clippy.toml` bans, denied workspace-wide on the clippy command line.
//!   Every lock is a `graph::sync::Leaf`, which cannot be taken while the
//!   thread holds another (a `debug_assert` on every path the tests run).
//! * **`unsafe` is confined** to the SIMD backend and `vital-serve`'s
//!   `signal(2)` block: every other crate root forbids `unsafe_code`, and
//!   the two homes deny undocumented `unsafe` blocks and `unsafe fn`s.
//!
//! An attribute that would compile fine if deleted is pinned as text here:
//! the [`REQUIRED`] lines, and `#![forbid(unsafe_code)]` on every crate
//! root but the [`UNSAFE_HOMES`].

use std::fs;
use std::path::Path;
use std::process::Command;

/// Panic-freedom, denied in production code only: the `assert!` family is
/// the point of a test.
const PANIC_FREE: &[&str] = &[
    "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]",
    "#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]",
    "#![cfg_attr(not(test), deny(clippy::unreachable, clippy::indexing_slicing))]",
    "#![cfg_attr(not(test), deny(clippy::disallowed_macros))]",
];

/// Every `unsafe` block states why it is sound, every `unsafe fn` its
/// contract.
const SAFETY_DOCS: &str =
    "#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]";

/// The two crate roots that may hold `unsafe`: the raw AVX2/AVX-512
/// intrinsics behind the SIMD dispatch, and the graceful drain's
/// `signal(2)` FFI block (the workspace has no dependency to wrap it).
const UNSAFE_HOMES: [&str; 2] = [
    "crates/simd/src/lib.rs",
    "crates/serve/src/bin/vital_serve.rs",
];

/// Attribute lines each file must carry.
const REQUIRED: [(&str, &[&str]); 7] = [
    ("crates/serve/src/lib.rs", PANIC_FREE),
    ("crates/serve/src/bin/vital_serve.rs", PANIC_FREE),
    ("crates/jsonio/src/lib.rs", PANIC_FREE),
    ("crates/binio/src/lib.rs", PANIC_FREE),
    ("crates/core/src/checkpoint.rs", PANIC_FREE),
    ("crates/serve/src/bin/vital_serve.rs", &[SAFETY_DOCS]),
    // Each unsafe operation inside the backend's `unsafe fn`s needs its own
    // documented `unsafe` block, and the one library allowed `unsafe`
    // documents every public item, including the dispatch contract.
    (
        "crates/simd/src/lib.rs",
        &[
            SAFETY_DOCS,
            "#![deny(unsafe_op_in_unsafe_fn)]",
            "#![deny(missing_docs)]",
        ],
    ),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Whether `path` has `line` as one of its lines (indentation aside): prose
/// naming an attribute is not the attribute.
fn carries(path: &str, line: &str) -> bool {
    let content = fs::read_to_string(root().join(path))
        .unwrap_or_else(|e| panic!("{path}: {e}; move its entry with the file"));
    content.lines().any(|l| l.trim() == line)
}

/// Clippy over every target of every crate, with its own target directory.
/// The lints are listed here rather than taken from `-D warnings`, so a
/// toolchain that adds a warning cannot fail tier-1; the per-crate ones are
/// the attributes of [`REQUIRED`].
#[test]
fn clippy_finds_no_violation() {
    let output = Command::new(env!("CARGO"))
        .current_dir(root())
        .args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--offline",
            "--quiet",
        ])
        .arg("--target-dir")
        .arg(root().join("target/static-analysis"))
        .args(["--", "-D", "clippy::disallowed_types"])
        .args(["-D", "clippy::disallowed_methods"])
        .output()
        .unwrap_or_else(|e| panic!("`cargo clippy` did not start: {e}"));
    assert!(
        output.status.success(),
        "`cargo clippy` failed ({}); it must be installed, and the tree clean:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn the_guard_rail_attributes_are_in_place() {
    let missing: Vec<String> = REQUIRED
        .iter()
        .flat_map(|(path, lines)| lines.iter().map(move |line| (*path, *line)))
        .filter(|(path, line)| !carries(path, line))
        .map(|(path, line)| format!("{path}: {line}"))
        .collect();
    assert!(
        missing.is_empty(),
        "attributes missing:\n{}",
        missing.join("\n")
    );
}

/// The roots of the non-test crates under `dir`: `lib.rs` and `main.rs`,
/// binaries in `src/bin/` and examples.
fn crate_roots(dir: &Path, roots: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("the tree is walkable") {
        let path = entry.expect("the tree is walkable").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "tests" | "target") {
                crate_roots(&path, roots);
            }
            continue;
        }
        let parent = path.parent().and_then(Path::file_name);
        let in_bin = parent.is_some_and(|p| p == "bin")
            && path.ancestors().nth(2).and_then(Path::file_name) == Some("src".as_ref());
        let is_root = matches!(name, "lib.rs" | "main.rs")
            || (name.ends_with(".rs") && (in_bin || parent.is_some_and(|p| p == "examples")));
        if is_root {
            let relative = path.strip_prefix(root()).expect("under the root");
            roots.push(relative.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// rustc refuses `unsafe` in any crate whose root forbids it, so this one
/// attribute per root confines `unsafe` to [`UNSAFE_HOMES`].
#[test]
fn every_other_crate_root_forbids_unsafe_code() {
    let mut roots = Vec::new();
    for dir in ["crates", "examples", "src", "vendor"] {
        crate_roots(&root().join(dir), &mut roots);
    }
    // A broken walk must not pass vacuously, and a moved home must be
    // followed in `UNSAFE_HOMES`.
    assert!(
        roots.len() > 20,
        "only {} crate roots found: {roots:?}",
        roots.len()
    );
    for home in UNSAFE_HOMES {
        assert!(
            roots.iter().any(|r| r == home),
            "{home} is not a crate root"
        );
    }
    let unforbidden: Vec<&String> = roots
        .iter()
        .filter(|r| !UNSAFE_HOMES.contains(&r.as_str()))
        .filter(|r| !carries(r, "#![forbid(unsafe_code)]"))
        .collect();
    assert!(
        unforbidden.is_empty(),
        "crate roots without `#![forbid(unsafe_code)]` on a code line: {unforbidden:?}"
    );
}

/// N dispatch workers serve from one set of weights, so every layer, every
/// localizer and the registry holding them must stay `Send + Sync`: a
/// regression (an `Rc`, a `RefCell`) fails to compile here, naming the type.
#[test]
fn the_model_stack_is_send_and_sync() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<nn::Param>();
    send_sync::<nn::Dense>();
    send_sync::<nn::Conv1d>();
    send_sync::<nn::LayerNorm>();
    send_sync::<nn::Mlp>();
    send_sync::<nn::MultiHeadSelfAttention>();
    send_sync::<nn::StackedAutoencoder>();
    send_sync::<vital::VitalModel>();
    send_sync::<baselines::AnvilLocalizer>();
    send_sync::<baselines::SherpaLocalizer>();
    send_sync::<baselines::CnnLocLocalizer>();
    send_sync::<baselines::WiDeepLocalizer>();
    send_sync::<baselines::KnnLocalizer>();
    send_sync::<Box<dyn vital::Localizer>>();
    send_sync::<serve::Registry>();
}
