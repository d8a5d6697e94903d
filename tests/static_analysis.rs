//! Tier-1 static-analysis gate: `cargo test` runs the full vital-lint
//! analysis over the workspace and fails on any finding, which makes a
//! clean tree a tested invariant rather than a separate CI step someone
//! has to remember to run. That each rule can fail is shown by the rule's
//! unit tests in `crates/lint`; that it is still aimed at real code is
//! shown here, by the stale-target check and the lock-graph assertions.

use std::path::Path;

fn workspace_report() -> lint::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    lint::run_workspace(root, &root.join("ci/lint-rules.toml"))
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
    // A span, lock site or unsafe directory that matches nothing guards
    // nothing: renaming `gemm_band` or `dispatch_loop` has to be followed
    // in the rules file.
    assert!(
        report.stale_targets.is_empty(),
        "targets in ci/lint-rules.toml that match nothing: {:#?}",
        report.stale_targets
    );
    // The walk actually covered the workspace — a misconfigured include
    // list passing vacuously would defeat every rule at once.
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

#[test]
fn lock_graph_models_the_real_lock_topology() {
    let report = workspace_report();
    let graph = &report.lock_graph;

    // Every lock site of the shared-weights design is observed: the Param
    // RwLock, the batcher's condvar-guarded queue mutex, its batch-size
    // histogram, the drain latch added with the fault-tolerance work, and
    // the compiled plan runtime's cache and arena pool.
    for class in [
        "nn::Param::value",
        "serve::JobQueue::state",
        "serve::Metrics::batch_sizes",
        "serve::Latch::flag",
        "graph::PlanCache::plans",
        "graph::ArenaPool::arenas",
    ] {
        assert!(
            graph.acquisitions.iter().any(|a| a.class == class),
            "lock site {class} not observed; acquisitions: {:#?}",
            graph.acquisitions
        );
    }

    // No lock is held while another is taken, anywhere: with no edge there
    // is no order between two locks to invert, so no deadlock to search
    // for. `workspace_has_zero_findings` fails on a new edge too; this
    // says that none is excused by an allow entry either.
    assert!(
        graph.edges.is_empty(),
        "a lock is held while another is taken; edges: {:#?}",
        graph.edges
    );
}
