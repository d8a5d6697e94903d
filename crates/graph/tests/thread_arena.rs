//! The calling thread's one arena, counted. `graph::stats` counters are
//! process-wide, so these tests live in their own binary and take turns
//! (`SERIAL`); each runs its plans on a fresh thread, whose arena starts
//! empty, and runs no plan outside `counted`.

// `SERIAL` is a test-harness turnstile, not product state: a guard held
// across a whole test body, which a failed test's poison must not stop.
#![allow(clippy::disallowed_types)]

use std::sync::{Mutex, PoisonError};

use graph::{stats, CompiledPlan, Compiler, ExprId, Graph, GraphError, PlanCache};
use tensor::{MatmulSpec, Tensor, UnaryOp};

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` on a fresh thread while no other test of this binary runs:
/// what it returns, then how often an arena grew and how many runs fit
/// in theirs.
fn counted<T: Send>(f: impl FnOnce() -> T + Send) -> (T, u64, u64) {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (grew, reused) = (stats::arena_slot_allocs(), stats::arena_reuses());
    let out = std::thread::scope(|s| s.spawn(f).join().unwrap());
    let grew = stats::arena_slot_allocs() - grew;
    (out, grew, stats::arena_reuses() - reused)
}

/// `relu(x · ones(3×3))` over a `batch × 3` input: its arena grows with
/// the batch.
fn toy_graph(batch: usize) -> Result<(Graph, ExprId), GraphError> {
    let mut g = Graph::new();
    let x = g.input(batch, 3);
    let w = g.constant(Tensor::full(&[3, 3], 1.0))?;
    let y = g.matmul(x, w, MatmulSpec::NN)?;
    let z = g.unary(y, UnaryOp::Relu)?;
    Ok((g, z))
}

fn compile(batch: usize) -> CompiledPlan {
    let (g, out) = toy_graph(batch).unwrap();
    Compiler::new().compile(&g, out).unwrap()
}

fn ramp(batch: usize) -> Tensor {
    let data = (0..batch * 3).map(|v| v as f32 * 0.25 - 1.0).collect();
    Tensor::from_vec(data, &[batch, 3]).unwrap()
}

#[test]
fn the_largest_plans_arena_serves_every_smaller_batch() {
    let cache = PlanCache::new();
    let plans: Vec<_> = (1..=32)
        .map(|batch| cache.get_or_build(batch, 1, || toy_graph(batch)).unwrap())
        .collect();
    assert!(plans
        .windows(2)
        .all(|w| w[0].arena_bytes() < w[1].arena_bytes()));
    let ((), grew, reused) = counted(|| {
        plans[31].execute(&[&ramp(32)]).unwrap();
        for (i, plan) in plans.iter().enumerate() {
            plan.execute(&[&ramp(i + 1)]).unwrap();
        }
    });
    assert_eq!(
        grew, 1,
        "one arena, sized by the largest plan, serves all 32"
    );
    assert_eq!(reused, 32);
}

#[test]
fn a_refused_fill_keeps_the_threads_arena() {
    let plan = compile(2);
    let ((refused, served), grew, reused) = counted(|| {
        let refused: Result<Vec<f32>, &str> =
            plan.execute_with(|_| Err("no input"), <[f32]>::to_vec);
        // The next run fills the refused run's arena in place.
        let fill = |input: &mut [f32]| -> Result<(), &str> {
            input.copy_from_slice(&[1.0, -2.0, 3.0, -4.0, 5.0, -6.0]);
            Ok(())
        };
        (refused, plan.execute_with(fill, <[f32]>::to_vec))
    });
    assert_eq!(refused, Err("no input"));
    // row sums: 1-2+3=2 (relu->2 each col), -4+5-6=-5 (relu->0)
    assert_eq!(served, Ok(vec![2.0, 2.0, 2.0, 0.0, 0.0, 0.0]));
    assert_eq!(
        (grew, reused),
        (1, 1),
        "the arena of a refused run goes back to the thread"
    );
}

#[test]
fn warm_runs_do_not_grow_the_arena() {
    let plan = compile(8);
    let x = ramp(8);
    let ((), grew, reused) = counted(|| {
        for _ in 0..6 {
            plan.execute(&[&x]).unwrap();
        }
    });
    assert_eq!(grew, 1, "only a fresh thread's first run grows its arena");
    assert_eq!(reused, 5, "warm runs must not allocate an arena");
}

#[test]
fn dropping_the_last_cache_handle_frees_the_threads_arena() {
    let ((), grew, reused) = counted(|| {
        let cache = PlanCache::new();
        let plan = cache.get_or_build(4, 1, || toy_graph(4)).unwrap();
        plan.execute(&[&ramp(4)]).unwrap();
        drop(cache.clone());
        plan.execute(&[&ramp(4)]).unwrap();
        drop(cache);
        plan.execute(&[&ramp(4)]).unwrap();
    });
    assert_eq!(
        (grew, reused),
        (2, 1),
        "a clone keeps the arena, the last handle frees it"
    );
}

#[test]
fn a_run_nested_in_a_fill_runs_in_an_arena_of_its_own() {
    let (inner, outer) = (compile(2), compile(2));
    let (got, grew, reused) = counted(|| {
        // The inner run's output is the outer run's input: the two arenas
        // are live at once, so sharing one would have the outer plan
        // overwrite its own input with the inner one's bytes.
        let fill = |input: &mut [f32]| -> Result<(), GraphError> {
            let rows = inner.execute(&[&ramp(2)])?;
            input.copy_from_slice(rows.as_slice());
            Ok(())
        };
        outer.execute_with(fill, <[f32]>::to_vec).unwrap()
    });
    // The eager reference runs no plan, so it cannot touch the counters.
    let ones = Tensor::full(&[3, 3], 1.0);
    let once = ramp(2).matmul(&ones).unwrap().apply(UnaryOp::Relu);
    let twice = once.matmul(&ones).unwrap().apply(UnaryOp::Relu);
    assert_eq!(got, twice.as_slice());
    assert_eq!((grew, reused), (2, 0), "the nested run allocates its own");
}
