//! Tier-1 static-analysis gate: `cargo test` runs the full vital-lint
//! analysis over the workspace and fails on any finding, which makes a
//! clean tree a tested invariant rather than a separate CI step someone
//! has to remember to run. That each rule fires on its own is shown by the
//! rule's unit tests in `crates/lint`; that it is still aimed at real code
//! is shown here, by the stale-target check and by seeding one violation
//! per rule into a real production file.

use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn config() -> lint::RulesConfig {
    let text = std::fs::read_to_string(root().join("ci/lint-rules.toml"))
        .expect("ci/lint-rules.toml is readable");
    lint::RulesConfig::from_toml(&text).expect("ci/lint-rules.toml must parse")
}

fn workspace_report() -> lint::Report {
    lint::run_workspace(root(), &root().join("ci/lint-rules.toml"))
        .expect("ci/lint-rules.toml must parse and the tree must be walkable")
}

#[test]
fn workspace_has_zero_findings() {
    let report = workspace_report();
    assert!(
        report.findings.is_empty(),
        "vital-lint found violations:\n{}",
        report.human()
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale allowlist entries in ci/lint-rules.toml: {:?}",
        report.stale_allows
    );
    // A panic-freedom prefix or unsafe directory that matches nothing
    // guards nothing: moving `crates/serve/src` has to be followed in the
    // rules file.
    assert!(
        report.stale_targets.is_empty(),
        "targets in ci/lint-rules.toml that match nothing: {:#?}",
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

#[test]
fn allowlisted_exceptions_all_carry_reasons() {
    let report = workspace_report();
    for allowed in &report.allowed {
        assert!(
            !allowed.reason.trim().is_empty(),
            "allowlisted finding without a reason: {:?}",
            allowed.finding
        );
    }
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

const SEEDS: [Seed; 5] = [
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
        replacement: "            stats::record_plan_hit();\n            let _arenas = self.plans.lock();\n",
    },
    Seed {
        rule: "hygiene",
        file: "crates/core/src/lib.rs",
        anchor: "pub use checkpoint::{",
        replacement: "fn seeded() { unsafe {} }\npub use checkpoint::{",
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
    let config = config();
    let files = lint::discover_files(root()).expect("the tree is walkable");
    assert!(lint::analyze(&files, &config).findings.is_empty());
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
        let report = lint::analyze(&seeded, &config);
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
