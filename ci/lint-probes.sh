#!/usr/bin/env bash
# Negative probes for vital-lint: seed one violation per rule class into
# the working tree, assert the tool fails with the right rule, and restore
# the tree. A lint pass that cannot fail is worthless — CI runs this after
# the clean-tree run so a silently-vacuous rule breaks the build.
#
# Run from the workspace root on a clean tree. Every mutation is restored
# via `git checkout --` / `rm` (also on early exit, via the trap).

set -u

fail() {
    echo "PROBE FAILED: $1" >&2
    exit 1
}

restore() {
    git checkout -- crates/nn/src/param.rs crates/nn/src/lib.rs \
        crates/tensor/src/matmul.rs crates/simd/src/gemm.rs \
        crates/graph/src/exec.rs 2>/dev/null || true
    rm -f crates/serve/src/__lint_probe.rs crates/parallel/src/__lint_probe.rs \
        crates/graph/src/__lint_probe.rs crates/tensor/src/__lint_probe.rs \
        crates/simd/src/__lint_probe.rs
}

[ -f ci/lint-rules.toml ] || fail "run from the workspace root"
# The clean-tree check MUST precede installing the restore trap: restore()
# reverts the probed files via `git checkout --`, which on a dirty tree
# would silently destroy unrelated uncommitted work instead of probe
# residue.
git diff --quiet -- crates/nn crates/tensor crates/graph \
    crates/simd || fail "tree is dirty; probes need a clean tree to restore"
trap restore EXIT

cargo build -q -p lint || fail "cannot build vital-lint"
LINT=target/debug/vital-lint

# Asserts the current tree produces exit 1 and a finding of the given rule.
expect_rule() {
    local label="$1" rule="$2" out status
    out=$("$LINT" --workspace 2>&1)
    status=$?
    [ "$status" -eq 1 ] || fail "$label: expected exit 1 (findings), got $status"
    echo "$out" | grep -q "$rule" || fail "$label: expected a $rule finding, got: $out"
    echo "probe ok: $label"
}

# 0. The clean tree passes — otherwise every probe below is meaningless.
"$LINT" --workspace --quiet || fail "clean tree must have zero findings"
echo "probe ok: clean tree passes"

# 1. panic-freedom: an unwrap on the serve request path. The scratch file
#    is never part of the module tree (nothing `mod`s it), so it is lexed
#    by vital-lint but not compiled by cargo.
cat > crates/serve/src/__lint_probe.rs <<'EOF'
fn probe(values: &[u8]) -> u8 {
    *values.first().unwrap()
}
EOF
expect_rule "panic-freedom catches a seeded unwrap" "panic-freedom"
rm crates/serve/src/__lint_probe.rs

# 2. lock-order: acquire grad before value — the inverse of the edge
#    Param::fmt holds (value while taking grad), closing a deadlock cycle.
cat >> crates/nn/src/param.rs <<'EOF'
fn __probe_inverted_lock_order(p: &Param) {
    let grad_guard = p.0.grad.lock().expect("probe");
    let value_guard = p.0.value.read().expect("probe");
    drop(value_guard);
    drop(grad_guard);
}
EOF
expect_rule "lock-order catches the inverted grad->value acquisition" "lock-order"
git checkout -- crates/nn/src/param.rs

# 3. hot-path-alloc: an allocation inside a function named like the GEMM
#    register tile in the simd dispatch translation unit falls inside the
#    configured span. (The probe shadows the real kernel's name; the tree
#    is restored before anything compiles, so only the linter sees it.)
cat >> crates/simd/src/gemm.rs <<'EOF'
fn tile(n: usize) -> Vec<f32> {
    let scratch: Vec<f32> = Vec::new();
    scratch
}
EOF
expect_rule "hot-path-alloc catches Vec::new in the band-kernel span" "hot-path-alloc"
git checkout -- crates/simd/src/gemm.rs

#    The same rule holds the tensor crate's per-band driver: a pack
#    buffer allocated per MR-row band (what reading A in place removed)
#    must fail by lint, not by review.
cat >> crates/tensor/src/matmul.rs <<'EOF'
fn gemm_band(k: usize) -> Vec<f32> {
    vec![0.0f32; k * 6]
}
EOF
expect_rule "hot-path-alloc catches a per-band vec! in the GEMM band driver" \
    "vec!. allocates inside hot-path function .gemm_band."
git checkout -- crates/tensor/src/matmul.rs

#    And the compiled-plan executor: a scratch buffer allocated per step
#    (what the arena exists to avoid) in the function every step runs.
cat >> crates/graph/src/exec.rs <<'EOF'
fn run_kernel(len: usize) -> Vec<f32> {
    vec![0.0f32; len]
}
EOF
expect_rule "hot-path-alloc catches a per-step vec! in the plan executor" \
    "vec!. allocates inside hot-path function .run_kernel."
git checkout -- crates/graph/src/exec.rs

# 4. lock-order, drain latch: holding the batcher's queue mutex while
#    taking the Latch flag and vice versa closes a cycle between the two
#    serve-crate lock classes added/used by the drain path.
cat > crates/serve/src/__lint_probe.rs <<'EOF'
struct ProbeQueue {
    state: std::sync::Mutex<u8>,
}
struct ProbeLatch {
    flag: std::sync::Mutex<bool>,
}
fn probe_queue_then_latch(q: &ProbeQueue, l: &ProbeLatch) {
    let state_guard = q.state.lock().unwrap_or_else(|p| p.into_inner());
    let flag_guard = l.flag.lock().unwrap_or_else(|p| p.into_inner());
    drop(flag_guard);
    drop(state_guard);
}
fn probe_latch_then_queue(q: &ProbeQueue, l: &ProbeLatch) {
    let flag_guard = l.flag.lock().unwrap_or_else(|p| p.into_inner());
    let state_guard = q.state.lock().unwrap_or_else(|p| p.into_inner());
    drop(state_guard);
    drop(flag_guard);
}
EOF
expect_rule "lock-order catches a queue<->latch cycle on the drain path" "lock-order"
rm crates/serve/src/__lint_probe.rs

# 5. hygiene: an unbounded channel anywhere in production code.
cat > crates/parallel/src/__lint_probe.rs <<'EOF'
fn probe() {
    let (_tx, _rx) = std::sync::mpsc::channel::<u8>();
}
EOF
expect_rule "hygiene catches an unbounded mpsc::channel" "hygiene"
rm crates/parallel/src/__lint_probe.rs

# 6. hygiene guard rails: deleting a pinned attribute (here the nn crate's
#    disallowed-types deny) must fail even though the build would pass.
sed -i '/#!\[deny(clippy::disallowed_types)\]/d' crates/nn/src/lib.rs
expect_rule "hygiene catches a deleted guard-rail attribute" "hygiene"
git checkout -- crates/nn/src/lib.rs

# 7. lock-order, graph crate: holding the plan cache's `plans` mutex while
#    taking the arena pool's `arenas` mutex and vice versa closes a cycle
#    between the two graph-crate lock classes registered for the compiled
#    plan runtime (the real code builds plans outside the lock).
cat > crates/graph/src/__lint_probe.rs <<'EOF'
struct ProbeCache {
    plans: std::sync::Mutex<u8>,
}
struct ProbePool {
    arenas: std::sync::Mutex<u8>,
}
fn probe_plans_then_arenas(c: &ProbeCache, p: &ProbePool) {
    let plans_guard = c.plans.lock().unwrap_or_else(|e| e.into_inner());
    let arenas_guard = p.arenas.lock().unwrap_or_else(|e| e.into_inner());
    drop(arenas_guard);
    drop(plans_guard);
}
fn probe_arenas_then_plans(c: &ProbeCache, p: &ProbePool) {
    let arenas_guard = p.arenas.lock().unwrap_or_else(|e| e.into_inner());
    let plans_guard = c.plans.lock().unwrap_or_else(|e| e.into_inner());
    drop(plans_guard);
    drop(arenas_guard);
}
EOF
expect_rule "lock-order catches a plans<->arenas cycle in the graph crate" "lock-order"
rm crates/graph/src/__lint_probe.rs

# 8. hygiene, unsafe confinement: an `unsafe` block in production code
#    outside crates/simd/src must fail — raw intrinsics have one audited
#    home and everything else goes through the safe `simd` crate API.
#    Seeded into matmul.rs itself: the GEMM driver is the most tempting
#    place to hand-roll intrinsics, and this proves the tensor crate
#    cannot quietly stop being unsafe-free.
cat >> crates/tensor/src/matmul.rs <<'EOF'
fn __probe_unsafe(values: &mut [f32]) {
    // SAFETY: a comment alone must not excuse unsafe outside the simd crate.
    unsafe {
        *values.get_unchecked_mut(0) = 0.0;
    }
}
EOF
expect_rule "hygiene catches unsafe seeded into the tensor GEMM driver" "hygiene"
git checkout -- crates/tensor/src/matmul.rs

# 9. hygiene, SAFETY proximity: even inside crates/simd/src, an unsafe
#    block with no SAFETY / `# Safety` comment within 12 lines must fail.
cat > crates/simd/src/__lint_probe.rs <<'EOF'
fn probe(values: &mut [f32]) {
    unsafe {
        *values.get_unchecked_mut(0) = 0.0;
    }
}
EOF
expect_rule "hygiene catches undocumented unsafe inside the simd crate" "hygiene"
rm crates/simd/src/__lint_probe.rs

# 10. After all restores the tree is clean again.
"$LINT" --workspace --quiet || fail "tree must be clean again after probes"
echo "probe ok: restored tree passes"

echo "all lint probes passed"
