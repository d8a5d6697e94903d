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
    // RwLock/Mutex pair, the batcher's condvar-guarded queue mutex, the
    // drain latch added with the fault-tolerance work, and the compiled
    // plan runtime's cache and arena pool.
    for class in [
        "nn::Param::value",
        "nn::Param::grad",
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

    // `Param::fmt` holds the value read guard while taking the grad lock —
    // the one legitimate hold-while-acquiring edge in the workspace. Its
    // inverse (grad held while taking value) must NOT exist: together they
    // would deadlock two debug-printing threads, and the cycle detector
    // fails the build on exactly that.
    assert!(
        graph
            .edges
            .iter()
            .any(|e| e.from == "nn::Param::value" && e.to == "nn::Param::grad"),
        "expected the Param::fmt value->grad edge; edges: {:#?}",
        graph.edges
    );
    assert!(
        !graph
            .edges
            .iter()
            .any(|e| e.from == "nn::Param::grad" && e.to == "nn::Param::value"),
        "inverted grad->value acquisition would close a deadlock cycle; edges: {:#?}",
        graph.edges
    );

    // The queue lock is never held while acquiring anything else —
    // collect/push/close all stay single-lock.
    assert!(
        !graph
            .edges
            .iter()
            .any(|e| e.from == "serve::JobQueue::state"),
        "JobQueue::state must not hold while acquiring; edges: {:#?}",
        graph.edges
    );

    // Likewise the drain latch: set/wait never nest inside another lock,
    // so the drain path cannot deadlock against the queue or metrics.
    assert!(
        !graph
            .edges
            .iter()
            .any(|e| e.from == "serve::Latch::flag" || e.to == "serve::Latch::flag"),
        "Latch::flag must stay isolated in the lock graph; edges: {:#?}",
        graph.edges
    );

    // Plans are built outside the cache lock and arenas are taken after it
    // is released: no edge between the two graph-crate classes, in either
    // direction, so no order between them can ever invert.
    let (plans, arenas) = ("graph::PlanCache::plans", "graph::ArenaPool::arenas");
    assert!(
        !graph
            .edges
            .iter()
            .any(|e| (e.from == plans && e.to == arenas) || (e.from == arenas && e.to == plans)),
        "PlanCache::plans and ArenaPool::arenas must never nest; edges: {:#?}",
        graph.edges
    );
}
