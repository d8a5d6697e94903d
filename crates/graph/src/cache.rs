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
//! One lock lives in this module: [`PlanCache`]'s `plans` map, held only to
//! look up/insert an entry. Compilation happens **outside** the lock
//! (double-checked), so a slow build never blocks concurrent lookups, and
//! a plan executes with no lock held at all, in its thread's arena
//! ([`CompiledPlan::execute_with`]).
//!
//! The map is a [`Leaf`]: in a debug build, taking any lock inside its
//! access fails an assertion. The counters in [`crate::stats`] are
//! lock-free.

use std::collections::HashMap;
use std::sync::Arc;

use crate::compile::{CompiledPlan, Compiler};
use crate::error::GraphError;
use crate::exec;
use crate::ir::{ExprId, Graph};
use crate::stats;
use crate::sync::Leaf;

/// Cache storage: `(batch, weight stamp)` → shared plan.
type PlanMap = HashMap<(usize, u64), Arc<CompiledPlan>>;

/// A concurrent build-once / execute-many cache of compiled plans.
///
/// Keys are `(batch, stamp)`: the batch size the graph was built for plus
/// the weight stamp the constants were snapshotted at. Cloning the cache
/// is cheap and shares the underlying map, so a model struct can derive
/// its plans-per-shape behaviour simply by holding one of these.
#[derive(Clone, Default)]
pub struct PlanCache {
    plans: Arc<Leaf<PlanMap>>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.plans.with(|m| m.len()).unwrap_or(0);
        f.debug_struct("PlanCache").field("plans", &len).finish()
    }
}

impl Drop for PlanCache {
    /// Dropping the last handle to a cache also frees the dropping thread's
    /// arena: a thread that lets a model's plans go would otherwise hold
    /// those bytes through whatever it does next, such as training the
    /// next model. Its next run, if any, allocates a fresh arena.
    fn drop(&mut self) {
        if Arc::strong_count(&self.plans) == 1 {
            exec::free_thread_arena();
        }
    }
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Number of cached plans (all stamps).
    pub fn len(&self) -> usize {
        self.plans.with(|m| m.len()).expect("plan cache poisoned")
    }

    /// True if no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the plan for `(batch, stamp)`, building it with `build` on
    /// a miss.
    ///
    /// The build runs **outside** the cache lock (double-checked insert:
    /// if another thread finished the same build first, its plan wins and
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
    ) -> Result<Arc<CompiledPlan>, GraphError>
    where
        F: FnOnce() -> Result<(Graph, ExprId), GraphError>,
    {
        let key = (batch, stamp);
        let hit = self
            .plans
            .with(|plans| plans.get(&key).cloned())
            .expect("plan cache poisoned");
        if let Some(plan) = hit {
            stats::record_plan_hit();
            return Ok(plan);
        }
        // Miss: compile outside the lock.
        let (graph, output) = build()?;
        let plan = Arc::new(Compiler::new().compile(&graph, output)?);
        stats::record_plan_built();
        let plan = self
            .plans
            .with(|plans| {
                if let Some(existing) = plans.get(&key) {
                    // Another thread built the same plan concurrently; adopt it.
                    return Arc::clone(existing);
                }
                plans.retain(|(_, s), _| *s == stamp);
                plans.insert(key, Arc::clone(&plan));
                plan
            })
            .expect("plan cache poisoned");
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Tensor;

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
    fn a_cached_plan_executes() {
        let cache = PlanCache::new();
        let plan = cache.get_or_build(2, 1, || toy_graph(2)).unwrap();
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0], &[2, 3]).unwrap();
        let out = plan.execute(&[&x]).unwrap();
        assert_eq!(out.shape().dims(), &[2, 3]);
        // row sums: 1-2+3=2 (relu->2 each col), -4+5-6=-5 (relu->0)
        assert_eq!(out.as_slice(), &[2.0, 2.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn concurrent_get_or_build_returns_one_entry() {
        let cache = PlanCache::new();
        let plans: Vec<_> = std::thread::scope(|s| {
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
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p));
        }
    }
}
