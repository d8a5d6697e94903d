//! Process-wide graph/arena statistics.
//!
//! # Lock-freedom
//!
//! Deliberately **lock-free**: every counter is a monotonic
//! `AtomicU64` updated with `Relaxed` ordering from the serve hot path, so
//! reading `/metrics` can never contend with — let alone deadlock against —
//! an in-flight compiled-plan execution. There is no `Mutex`/`RwLock` in
//! this module by design; the only graph-subsystem locks are the plan
//! cache's `plans` map and the arena pool's `arenas` free list, and
//! vital-lint's `lock-order` rule fails any acquisition made while either
//! is held (`tests/static_analysis.rs` seeds one under `plans` to show it).

use std::sync::atomic::{AtomicU64, Ordering};

static PLANS_BUILT: AtomicU64 = AtomicU64::new(0);
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static ARENA_SLOT_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARENA_REUSES: AtomicU64 = AtomicU64::new(0);

/// Plans compiled since process start (cache misses).
pub fn plans_built() -> u64 {
    PLANS_BUILT.load(Ordering::Relaxed)
}

/// Plan-cache hits since process start.
pub fn plan_hits() -> u64 {
    PLAN_HITS.load(Ordering::Relaxed)
}

/// Arena buffers allocated since process start (one per arena per plan
/// shape).
///
/// Steady-state serving should hold this flat while [`arena_reuses`]
/// climbs — that is the "near-zero allocations per request" property the
/// perf gate checks.
pub fn arena_slot_allocs() -> u64 {
    ARENA_SLOT_ALLOCS.load(Ordering::Relaxed)
}

/// Arena acquisitions served by reusing a pooled arena.
pub fn arena_reuses() -> u64 {
    ARENA_REUSES.load(Ordering::Relaxed)
}

pub(crate) fn record_plan_built() {
    PLANS_BUILT.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_plan_hit() {
    PLAN_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_slot_allocs(n: u64) {
    ARENA_SLOT_ALLOCS.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn record_arena_reuse() {
    ARENA_REUSES.fetch_add(1, Ordering::Relaxed);
}
