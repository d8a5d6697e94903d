//! Build-once / execute-many plan caching.
//!
//! Models compile their inference graph per *batch shape* and stash the
//! result in a [`PlanCache`] keyed by `(batch, weight stamp)`. The stamp is
//! a caller-supplied fingerprint of the weights the plan's constants were
//! snapshotted from; inserting a plan with a new stamp evicts every entry
//! compiled against older weights, so a model that trains and then serves
//! never answers from a stale snapshot.
//!
//! # Locking
//!
//! Two locks live in this module, and neither is ever held while the other
//! is taken — there is deliberately no lock edge between them:
//!
//! - [`PlanCache`]'s `plans` map, held only to look up/insert an entry.
//!   Compilation happens **outside** the lock (double-checked), so a slow
//!   build never blocks concurrent lookups.
//! - [`ArenaPool`]'s `arenas` free list, held only to pop/push an arena.
//!   Execution happens with no lock held at all.
//!
//! vital-lint's `lock-order` rule fails any acquisition made while a guard
//! of either is live (`tests/static_analysis.rs` seeds one under `plans`
//! to show it); the counters in [`crate::stats`] are lock-free.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tensor::Tensor;

use crate::compile::{CompiledPlan, Compiler};
use crate::error::GraphError;
use crate::exec::Arena;
use crate::ir::{ExprId, Graph};
use crate::stats;

/// Arenas kept per pooled plan; beyond this, returned arenas are dropped.
const MAX_POOLED_ARENAS: usize = 16;

/// A small free list of [`Arena`]s for one compiled plan.
///
/// Each concurrent execution needs a private arena; the pool lets a plan
/// serve many threads while keeping steady-state allocations at zero.
#[derive(Debug, Default)]
pub struct ArenaPool {
    arenas: Mutex<Vec<Arena>>,
}

impl ArenaPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ArenaPool::default()
    }

    /// Pops a pooled arena, or has the plan allocate a fresh one.
    fn acquire(&self, plan: &CompiledPlan) -> Arena {
        let pooled = self.arenas.lock().expect("arena pool poisoned").pop();
        match pooled {
            Some(arena) => {
                stats::record_arena_reuse();
                arena
            }
            None => plan.new_arena(),
        }
    }

    /// Returns an arena to the pool (dropped if the pool is full).
    fn release(&self, arena: Arena) {
        let mut arenas = self.arenas.lock().expect("arena pool poisoned");
        if arenas.len() < MAX_POOLED_ARENAS {
            arenas.push(arena);
        }
    }
}

/// A compiled plan bundled with its arena pool — what the cache hands out.
#[derive(Debug)]
pub struct PlanEntry {
    plan: CompiledPlan,
    pool: ArenaPool,
}

impl PlanEntry {
    /// Wraps a freshly compiled plan with an empty arena pool.
    pub fn new(plan: CompiledPlan) -> Self {
        PlanEntry {
            plan,
            pool: ArenaPool::new(),
        }
    }

    /// The compiled plan itself.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Runs `f` with a pooled arena, returning the arena to the pool
    /// whatever `f` returns.
    fn with_arena<R>(&self, f: impl FnOnce(&CompiledPlan, &mut Arena) -> R) -> R {
        let mut arena = self.pool.acquire(&self.plan);
        let out = f(&self.plan, &mut arena);
        self.pool.release(arena);
        out
    }

    /// Executes the plan with a pooled arena, returning the output tensor.
    ///
    /// # Errors
    /// Propagates input-arity/shape mismatches from
    /// [`CompiledPlan::execute`].
    pub fn execute(&self, inputs: &[&Tensor]) -> Result<Tensor, GraphError> {
        self.with_arena(|plan, arena| plan.execute(arena, inputs))
    }

    /// Executes the plan with a pooled arena whose input region `fill`
    /// writes in place (see [`CompiledPlan::execute_with`]); `read` turns
    /// the output's rows into the answer before the arena goes back to the
    /// pool. Nothing is allocated on a warm pool but what `read` builds.
    ///
    /// # Errors
    /// Returns whatever `fill` returns; the arena still goes back to the
    /// pool.
    pub fn execute_with<R, E>(
        &self,
        fill: impl FnOnce(&mut [f32]) -> Result<(), E>,
        read: impl FnOnce(&[f32]) -> R,
    ) -> Result<R, E> {
        self.with_arena(|plan, arena| plan.execute_with(arena, fill).map(read))
    }
}

/// Cache storage: `(batch, weight stamp)` → shared plan entry.
type PlanMap = HashMap<(usize, u64), Arc<PlanEntry>>;

/// A concurrent build-once / execute-many cache of compiled plans.
///
/// Keys are `(batch, stamp)`: the batch size the graph was built for plus
/// the weight stamp the constants were snapshotted at. Cloning the cache
/// is cheap and shares the underlying map, so a model struct can derive
/// its plans-per-shape behaviour simply by holding one of these.
#[derive(Clone, Default)]
pub struct PlanCache {
    plans: Arc<Mutex<PlanMap>>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.plans.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("PlanCache").field("plans", &len).finish()
    }
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Number of cached plans (all stamps).
    pub fn len(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }

    /// True if no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the plan for `(batch, stamp)`, building it with `build` on
    /// a miss.
    ///
    /// The build runs **outside** the cache lock (double-checked insert:
    /// if another thread finished the same build first, its entry wins and
    /// this build is discarded). Inserting with a fresh stamp evicts every
    /// entry carrying a different stamp — they were compiled against
    /// weights that have since changed.
    ///
    /// # Errors
    /// Propagates whatever `build` returns on failure.
    pub fn get_or_build<F>(
        &self,
        batch: usize,
        stamp: u64,
        build: F,
    ) -> Result<Arc<PlanEntry>, GraphError>
    where
        F: FnOnce() -> Result<(Graph, ExprId), GraphError>,
    {
        let key = (batch, stamp);
        if let Some(entry) = self.plans.lock().expect("plan cache poisoned").get(&key) {
            stats::record_plan_hit();
            return Ok(Arc::clone(entry));
        }
        // Miss: compile outside the lock.
        let (graph, output) = build()?;
        let plan = Compiler::new().compile(&graph, output)?;
        stats::record_plan_built();
        let entry = Arc::new(PlanEntry::new(plan));
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        if let Some(existing) = plans.get(&key) {
            // Another thread built the same plan concurrently; adopt it.
            return Ok(Arc::clone(existing));
        }
        plans.retain(|(_, s), _| *s == stamp);
        plans.insert(key, Arc::clone(&entry));
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph(batch: usize) -> Result<(Graph, ExprId), GraphError> {
        let mut g = Graph::new();
        let x = g.input(batch, 3);
        let w = g.constant(Tensor::from_vec(vec![1.0; 9], &[3, 3]).unwrap())?;
        let y = g.matmul(x, w, tensor::MatmulSpec::NN)?;
        let z = g.unary(y, tensor::UnaryOp::Relu)?;
        Ok((g, z))
    }

    #[test]
    fn cache_hits_after_first_build() {
        let cache = PlanCache::new();
        let a = cache.get_or_build(2, 7, || toy_graph(2)).unwrap();
        let b = cache
            .get_or_build(2, 7, || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn new_stamp_evicts_old_plans() {
        let cache = PlanCache::new();
        cache.get_or_build(1, 7, || toy_graph(1)).unwrap();
        cache.get_or_build(2, 7, || toy_graph(2)).unwrap();
        assert_eq!(cache.len(), 2);
        cache.get_or_build(2, 8, || toy_graph(2)).unwrap();
        assert_eq!(cache.len(), 1, "stale-stamp plans must be evicted");
    }

    #[test]
    fn entry_executes_with_pooled_arena() {
        let cache = PlanCache::new();
        let entry = cache.get_or_build(2, 1, || toy_graph(2)).unwrap();
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0], &[2, 3]).unwrap();
        let out = entry.execute(&[&x]).unwrap();
        assert_eq!(out.shape().dims(), &[2, 3]);
        // row sums: 1-2+3=2 (relu->2 each col), -4+5-6=-5 (relu->0)
        assert_eq!(out.as_slice(), &[2.0, 2.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn a_failing_fill_still_returns_the_arena_to_the_pool() {
        let cache = PlanCache::new();
        let entry = cache.get_or_build(2, 1, || toy_graph(2)).unwrap();
        let pooled = || entry.pool.arenas.lock().unwrap().len();
        assert_eq!(pooled(), 0);
        let refused: Result<Vec<f32>, &str> =
            entry.execute_with(|_| Err("no input"), <[f32]>::to_vec);
        assert_eq!(refused, Err("no input"));
        assert_eq!(pooled(), 1, "the arena of a refused execution is pooled");
        // ...and is the one the next execution runs in, filled in place.
        let reuses = stats::arena_reuses();
        let fill = |input: &mut [f32]| -> Result<(), &str> {
            input.copy_from_slice(&[1.0, -2.0, 3.0, -4.0, 5.0, -6.0]);
            Ok(())
        };
        let out = entry.execute_with(fill, <[f32]>::to_vec);
        assert_eq!(out, Ok(vec![2.0, 2.0, 2.0, 0.0, 0.0, 0.0]));
        assert!(stats::arena_reuses() > reuses);
        assert_eq!(pooled(), 1);
    }

    #[test]
    fn concurrent_get_or_build_returns_one_entry() {
        let cache = PlanCache::new();
        let entries: Vec<_> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let cache = cache.clone();
                    s.spawn(move || cache.get_or_build(2, 3, || toy_graph(2)).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(cache.len(), 1);
        for e in &entries[1..] {
            assert!(Arc::ptr_eq(&entries[0], e));
        }
    }
}
