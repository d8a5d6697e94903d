//! Tier-1 static-analysis gate: `cargo test` runs the full vital-lint
//! analysis over the workspace and fails on any finding, which makes a
//! clean tree a tested invariant rather than a separate CI step someone
//! has to remember to run. That each rule fires on its own is shown by the
//! rule's unit tests in `crates/lint`; that it is still aimed at real code
//! is shown here, by the stale-target check and by seeding violations of
//! each rule into real production files.

use std::path::Path;

use lint::{RequiredPattern, RulesConfig};

/// The workspace's rules. The analysis walks every `.rs` file under
/// `crates/`, `examples/`, `src/`, `tests/` and `vendor/`; this value holds
/// only what differs per workspace. A target that matches nothing (a
/// panic-freedom prefix or an `unsafe`-allowed path with no scanned file)
/// fails `workspace_has_zero_findings`, so a move has to be followed here.
const RULES: RulesConfig = RulesConfig {
    // The serve request path and the decoders of what reaches it from
    // outside (JSON, and `VITALCKP` checkpoints through `binio` and the
    // checkpoint reader) must never panic: a panic in a dispatch worker
    // fails its whole batch. An entry is a directory or one exact file.
    panic_crates: &[
        "crates/serve/src",
        "crates/jsonio/src",
        "crates/binio/src",
        "crates/core/src/checkpoint.rs",
    ],
    // The audited homes of `unsafe`: the raw AVX2/AVX-512 intrinsics
    // behind the SIMD dispatch layer, and the `signal(2)` FFI block of the
    // graceful-drain handler (the workspace is dependency-free, so there is
    // no safe wrapper crate). Every other crate root forbids `unsafe_code`;
    // inside these each `unsafe fn` / `unsafe {` needs a SAFETY comment.
    unsafe_allowed: &["crates/simd/src", "crates/serve/src/bin/vital_serve.rs"],
    // Guard rails that would compile fine if deleted and silently drop
    // their protection, so the lint pins them as raw-text patterns.
    required: &[
        RequiredPattern {
            file: "crates/nn/src/lib.rs",
            contains: "#![deny(clippy::disallowed_types)]",
            why: "keeps non-Send shared-ownership types (Rc, RefCell) out of the layer stack",
        },
        RequiredPattern {
            file: "crates/nn/src/lib.rs",
            contains: "_assert_layers_are_send_sync",
            why: "compile-time proof that every layer stays Send + Sync for the shared registry",
        },
        RequiredPattern {
            file: "crates/baselines/src/lib.rs",
            contains: "#![deny(clippy::disallowed_types)]",
            why: "keeps non-Send shared-ownership types out of the localizer stack",
        },
        RequiredPattern {
            file: "crates/baselines/src/lib.rs",
            contains: "_assert_localizers_are_send_sync",
            why: "compile-time proof that every localizer stays Send + Sync",
        },
        RequiredPattern {
            file: "crates/serve/src/lib.rs",
            contains: "#![deny(clippy::disallowed_types)]",
            why: "keeps non-Send types out of the serving path",
        },
        RequiredPattern {
            file: "crates/serve/src/registry.rs",
            contains: "_assert_registry_is_send_sync",
            why: "compile-time proof that the shared registry can be handed to N workers",
        },
        RequiredPattern {
            file: "crates/simd/src/lib.rs",
            contains: "#![deny(unsafe_op_in_unsafe_fn)]",
            why: "every unsafe operation inside the SIMD backend's unsafe fns needs its own \
                  explicit unsafe block + SAFETY comment",
        },
        RequiredPattern {
            file: "crates/simd/src/lib.rs",
            contains: "#![deny(missing_docs)]",
            why: "the one crate allowed to hold unsafe documents every public item, including \
                  the dispatch contract",
        },
    ],
};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_files() -> Vec<lint::SourceFile> {
    lint::discover_files(root()).expect("the tree is walkable")
}

#[test]
fn workspace_has_zero_findings() {
    let report = lint::analyze(&workspace_files(), &RULES);
    assert!(
        report.findings.is_empty(),
        "vital-lint found violations:\n{}",
        report.human()
    );
    // A panic-freedom prefix or unsafe-allowed path that matches nothing
    // guards nothing: moving `crates/serve/src` has to be followed in
    // `RULES`.
    assert!(
        report.stale_targets.is_empty(),
        "targets in RULES that match nothing: {:#?}",
        report.stale_targets
    );
    // The walk actually covered the workspace — a broken include list
    // passing vacuously would defeat every rule at once.
    assert!(
        report.files_scanned > 100,
        "only {} files scanned; include list is broken",
        report.files_scanned
    );
}

/// One seeded violation: in `file`, `anchor` (which must occur exactly
/// once) becomes `replacement`, and exactly one finding of `rule` must
/// follow.
struct Seed {
    rule: &'static str,
    file: &'static str,
    anchor: &'static str,
    replacement: &'static str,
}

const SEEDS: [Seed; 6] = [
    Seed {
        rule: "panic-freedom",
        file: "crates/serve/src/server.rs",
        anchor: "pub fn addr(&self) -> SocketAddr {",
        replacement: "pub fn addr(&self) -> SocketAddr {\n        None::<u8>.unwrap();",
    },
    Seed {
        rule: "lock-order",
        file: "crates/graph/src/cache.rs",
        anchor: "            stats::record_plan_hit();\n",
        replacement: "            stats::record_plan_hit();\n            let _again = self.plans.lock();\n",
    },
    // rustc refuses `unsafe` under the `forbid`, so the seed deletes it.
    Seed {
        rule: "hygiene",
        file: "crates/core/src/lib.rs",
        anchor: "#![forbid(unsafe_code)]\n",
        replacement: "",
    },
    // The file's one `unsafe` site, so no neighbouring SAFETY comment can
    // mask the missing one; this also shows the exact-file entry is live.
    Seed {
        rule: "hygiene",
        file: "crates/serve/src/bin/vital_serve.rs",
        anchor: "// SAFETY:",
        replacement: "// Note:",
    },
    Seed {
        rule: "hygiene",
        file: "crates/serve/src/batcher.rs",
        anchor: "    let queue = Arc::new(JobQueue::new(config.queue_cap, workers));\n",
        replacement: "    let queue = Arc::new(JobQueue::new(config.queue_cap, workers));\n    let _pair = mpsc::channel::<u8>();\n",
    },
    Seed {
        rule: "hygiene",
        file: "crates/serve/src/registry.rs",
        anchor: "_assert_registry_is_send_sync",
        replacement: "_registry_assertion_renamed",
    },
];

#[test]
fn each_rule_fires_on_a_violation_seeded_into_the_real_tree() {
    let files = workspace_files();
    assert!(lint::analyze(&files, &RULES).findings.is_empty());
    for seed in &SEEDS {
        let mut seeded = files.clone();
        let file = seeded
            .iter_mut()
            .find(|f| f.path == seed.file)
            .unwrap_or_else(|| panic!("{} is not scanned", seed.file));
        assert_eq!(
            file.content.matches(seed.anchor).count(),
            1,
            "{}: the seed's anchor {:?} must occur exactly once; move the seed with the code",
            seed.file,
            seed.anchor
        );
        file.content = file.content.replacen(seed.anchor, seed.replacement, 1);
        let report = lint::analyze(&seeded, &RULES);
        let found: Vec<(&str, &str)> = report
            .findings
            .iter()
            .map(|f| (f.rule.id(), f.file.as_str()))
            .collect();
        assert_eq!(
            found,
            [(seed.rule, seed.file)],
            "seeding {:?} into {}:\n{}",
            seed.replacement,
            seed.file,
            report.human()
        );
    }
}
