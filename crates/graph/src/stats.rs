//! Process-wide graph/arena statistics.
//!
//! # Lock-freedom
//!
//! Deliberately **lock-free**: every counter is a monotonic
//! `AtomicU64` updated with `Relaxed` ordering from the serve hot path, so
//! reading `/metrics` can never contend with — let alone deadlock against —
//! an in-flight compiled-plan execution. There is no `Mutex`/`RwLock` in
//! this module by design; the graph subsystem's one lock is the plan
//! cache's `plans` map, a [`crate::sync::Leaf`]: any lock taken while it is
//! held fails a debug assertion.

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

/// Times since process start that a thread's arena grew: a plan ran on a
/// thread whose arena was shorter than the plan's (or that had none).
///
/// Steady-state serving holds this flat while [`arena_reuses`] climbs:
/// each thread grows its arena at most once per larger plan it meets.
pub fn arena_slot_allocs() -> u64 {
    ARENA_SLOT_ALLOCS.load(Ordering::Relaxed)
}

/// Plan runs since process start that fit in their thread's arena
/// without growing it.
pub fn arena_reuses() -> u64 {
    ARENA_REUSES.load(Ordering::Relaxed)
}

pub(crate) fn record_plan_built() {
    PLANS_BUILT.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_plan_hit() {
    PLAN_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_arena_grew() {
    ARENA_SLOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_arena_reuse() {
    ARENA_REUSES.fetch_add(1, Ordering::Relaxed);
}
