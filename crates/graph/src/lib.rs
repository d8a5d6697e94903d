//! Compute-graph compiler for VITAL's inference hot paths.
//!
//! This crate turns eager per-op tensor code into **build-once /
//! execute-many** compiled plans:
//!
//! 1. Describe the computation as an expression [`Graph`] of named ops
//!    ([`Op`]) — matmuls with transpose specs, named unary/binary
//!    elementwise ops, reductions, broadcasts, and structural ops. Shapes
//!    are inferred and checked *at node-insertion time* with typed
//!    [`GraphError`]s.
//! 2. [`Compiler::compile`] lowers the graph to a [`CompiledPlan`]: it
//!    fuses adjacent elementwise chains into the producing step's output
//!    pass (`matmul → +bias → GELU` becomes one GEMM step), turns slices
//!    and reshapes into operand *views* that cost no step (a GEMM reads
//!    them in place through its row stride), runs row-wise kernels in
//!    place where their source dies, and packs every intermediate — the
//!    runtime inputs included — into one arena buffer by liveness, so
//!    steady-state execution performs **zero** buffer allocations.
//! 3. Execute in the calling thread's one arena — writing the inputs
//!    straight into it and reading the output out of it
//!    ([`CompiledPlan::execute_with`]) or handing over tensors to be
//!    copied in and out ([`CompiledPlan::execute`]) — and let a
//!    [`PlanCache`] key plans by `(batch, weight stamp)`. A thread keeps
//!    one arena for every plan it runs, as long as the largest of them.
//!
//! Fused execution is **bit-identical** to the eager tensor path: every
//! step calls the slice-level kernel ([`tensor::kernels`], `simd`, the
//! GEMM) the eager `Tensor` op itself calls, so what the property tests
//! in this crate, `core` and `baselines` check across all localizers and
//! batch sizes is the planner. Like the GEMM it calls, a plan executes on
//! the calling thread.
//!
//! Process-wide counters (plans built, cache hits, arena growth and
//! reuse) live in [`stats`] and are exported by the serve layer's
//! `/metrics`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod compile;
mod error;
mod exec;
mod ir;
#[cfg(test)]
mod plan_tests;
pub mod stats;
pub mod sync;

pub use cache::PlanCache;
pub use compile::{CompiledPlan, Compiler, StepInfo};
pub use error::GraphError;
pub use exec::StepTime;
pub use ir::{ExprId, Graph, Op, ReduceOp};

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::{BinaryOp, MatmulSpec, Tensor, UnaryOp};

    fn t(data: Vec<f32>, dims: &[usize]) -> Tensor {
        Tensor::from_vec(data, dims).unwrap()
    }

    #[test]
    fn dense_bias_gelu_fuses_into_one_step() {
        // x(2×3) · w(3×4) + b, then GELU: one GEMM step, two post ops.
        let mut g = Graph::new();
        let x = g.input(2, 3);
        let w = t((0..12).map(|v| v as f32 * 0.1 - 0.5).collect(), &[3, 4]);
        let b = t(vec![0.1, -0.2, 0.3, -0.4], &[1, 4]);
        let wc = g.constant(w.clone()).unwrap();
        let bc = g.constant(b.clone()).unwrap();
        let mm = g.matmul(x, wc, MatmulSpec::NN).unwrap();
        let biased = g.add_row_broadcast(mm, bc).unwrap();
        let act = g.unary(biased, UnaryOp::Gelu).unwrap();
        let plan = Compiler::new().compile(&g, act).unwrap();
        assert_eq!(plan.step_count(), 1, "bias+GELU must fuse into the GEMM");
        assert_eq!(plan.fused_op_count(), 2);

        let xt = t(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]);
        let got = plan.execute(&[&xt]).unwrap();
        let eager = xt
            .matmul(&w)
            .unwrap()
            .add_row_broadcast(&b)
            .unwrap()
            .apply(UnaryOp::Gelu);
        assert_eq!(
            got.as_slice(),
            eager.as_slice(),
            "fused must be bit-identical"
        );
    }

    #[test]
    fn timed_execution_runs_the_same_steps_to_the_same_bits() {
        // x(3×4) · w(4×5) + b, GELU, then a row softmax: two steps, the
        // first a GEMM with a two-op post chain.
        let mut g = Graph::new();
        let x = g.input(3, 4);
        let wc = g.constant(t((0..20).map(|v| v as f32 * 0.07 - 0.6).collect(), &[4, 5]));
        let bc = g.constant(t(vec![0.1, -0.2, 0.3, -0.4, 0.5], &[1, 5]));
        let mm = g.matmul(x, wc.unwrap(), MatmulSpec::NN).unwrap();
        let biased = g.add_row_broadcast(mm, bc.unwrap()).unwrap();
        let act = g.unary(biased, UnaryOp::Gelu).unwrap();
        let out = g.softmax_rows(act).unwrap();
        let plan = Compiler::new().compile(&g, out).unwrap();
        let steps: Vec<StepInfo> = plan.steps().collect();
        assert_eq!(steps.len(), plan.step_count());
        assert_eq!(
            steps[0],
            StepInfo {
                kernel: "gemm",
                rows: 3,
                cols: 5,
                gemm: Some((3, 4, 5)),
                post: vec!["add_row".into(), "gelu".into()],
            }
        );
        assert_eq!((steps[1].kernel, steps[1].gemm), ("softmax_rows", None));

        let xt = t((0..12).map(|v| v as f32 * 0.3 - 1.7).collect(), &[3, 4]);
        let fill = |region: &mut [f32]| -> Result<(), GraphError> {
            region.copy_from_slice(xt.as_slice());
            Ok(())
        };
        let plain = plan.execute_with(fill, <[f32]>::to_vec).unwrap();
        let mut times = vec![StepTime::default(); steps.len()];
        let timed = plan
            .execute_timed(fill, <[f32]>::to_vec, &mut times)
            .unwrap();
        assert_eq!(timed, plain, "timing must not change a bit");
        assert!(times.iter().all(|t| t.kernel > std::time::Duration::ZERO));
        assert!(
            times[0].post > std::time::Duration::ZERO,
            "the GEMM's post chain"
        );
    }

    #[test]
    fn multi_consumer_values_do_not_fuse() {
        // y = relu(x); out = y + y. relu's result has two consumers, so it
        // must NOT be overwritten by a fused post chain.
        let mut g = Graph::new();
        let x = g.input(2, 2);
        let y = g.unary(x, UnaryOp::Relu).unwrap();
        let out = g.binary(y, y, BinaryOp::Add).unwrap();
        let plan = Compiler::new().compile(&g, out).unwrap();
        let xt = t(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]);
        let got = plan.execute(&[&xt]).unwrap();
        assert_eq!(got.as_slice(), &[2.0, 0.0, 6.0, 0.0]);
    }

    #[test]
    fn residual_add_reads_pre_chain_value() {
        // out = x + gelu(x·w): the binary's non-chain operand is the raw
        // input, read while the chain value is mid-rewrite.
        let mut g = Graph::new();
        let x = g.input(2, 2);
        let w = t(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let wc = g.constant(w.clone()).unwrap();
        let mm = g.matmul(x, wc, MatmulSpec::NN).unwrap();
        let act = g.unary(mm, UnaryOp::Gelu).unwrap();
        let out = g.binary(x, act, BinaryOp::Add).unwrap();
        let plan = Compiler::new().compile(&g, out).unwrap();
        assert_eq!(plan.step_count(), 1, "gelu and residual add both fuse");

        let xt = t(vec![0.5, -1.0, 2.0, -0.25], &[2, 2]);
        let got = plan.execute(&[&xt]).unwrap();
        let eager_act = xt.matmul(&w).unwrap().apply(UnaryOp::Gelu);
        let eager = xt.add(&eager_act).unwrap();
        assert_eq!(got.as_slice(), eager.as_slice());
    }

    #[test]
    fn softmax_matches_eager_bitwise() {
        let mut g = Graph::new();
        let x = g.input(3, 5);
        let s = g.softmax_rows(x).unwrap();
        let plan = Compiler::new().compile(&g, s).unwrap();
        let xt = t(
            (0..15).map(|v| (v as f32 * 0.37).sin() * 3.0).collect(),
            &[3, 5],
        );
        let got = plan.execute(&[&xt]).unwrap();
        assert_eq!(got.as_slice(), xt.softmax_rows().unwrap().as_slice());
    }

    #[test]
    fn layer_norm_matches_eager_bitwise() {
        let mut g = Graph::new();
        let x = g.input(4, 6);
        let gamma = t((0..6).map(|v| 1.0 + v as f32 * 0.1).collect(), &[1, 6]);
        let beta = t((0..6).map(|v| v as f32 * -0.05).collect(), &[1, 6]);
        let gc = g.constant(gamma.clone()).unwrap();
        let bc = g.constant(beta.clone()).unwrap();
        let ln = g.layer_norm(x, gc, bc, 1e-5).unwrap();
        let plan = Compiler::new().compile(&g, ln).unwrap();
        let xt = t(
            (0..24).map(|v| (v as f32 * 0.61).cos() * 2.0).collect(),
            &[4, 6],
        );
        let got = plan.execute(&[&xt]).unwrap();
        // Reference: the eager kernel — both paths dispatch to the same
        // simd layer-norm, so equality is bitwise.
        let eager = xt.layer_norm_rows(&gamma, &beta, 1e-5).unwrap();
        assert_eq!(got.as_slice(), eager.as_slice());
        // And the result actually normalizes: identity affine gives
        // zero-mean rows.
        let plain = xt
            .layer_norm_rows(&Tensor::ones(&[6]), &Tensor::zeros(&[6]), 1e-5)
            .unwrap();
        for i in 0..4 {
            assert!(plain.row(i).unwrap().mean().abs() < 1e-5);
        }
    }

    #[test]
    fn transposed_matmul_matches_eager() {
        let mut g = Graph::new();
        let q = g.input(3, 4);
        let k = g.input(5, 4);
        let s = g.matmul(q, k, MatmulSpec::NT).unwrap();
        let plan = Compiler::new().compile(&g, s).unwrap();
        let qt = t((0..12).map(|v| v as f32 * 0.3 - 1.0).collect(), &[3, 4]);
        let kt = t((0..20).map(|v| v as f32 * -0.2 + 1.5).collect(), &[5, 4]);
        let got = plan.execute(&[&qt, &kt]).unwrap();
        let eager = qt.matmul(&kt.transpose().unwrap()).unwrap();
        assert_eq!(got.as_slice(), eager.as_slice());
        assert_eq!(got.shape().dims(), &[3, 5]);
    }

    #[test]
    fn structural_ops_round_trip() {
        // concat_rows → slice_cols → mean_row_blocks → add_tile_rows chain.
        let mut g = Graph::new();
        let a = g.input(2, 4);
        let b = g.input(2, 4);
        let cat = g.concat_rows(&[a, b]).unwrap(); // 4×4
        let cols = g.slice_cols(cat, 1, 3).unwrap(); // 4×2
        let mean = g.mean_row_blocks(cols, 2).unwrap(); // 2×2
        let tile = t(vec![1.0, -1.0], &[1, 2]);
        let tc = g.constant(tile.clone()).unwrap();
        let out = g.add_tile_rows(mean, tc, 2).unwrap();
        let plan = Compiler::new().compile(&g, out).unwrap();
        let at = t((0..8).map(|v| v as f32).collect(), &[2, 4]);
        let bt = t((8..16).map(|v| v as f32).collect(), &[2, 4]);
        let got = plan.execute(&[&at, &bt]).unwrap();
        let eager = Tensor::concat_rows(&[&at, &bt])
            .unwrap()
            .slice_cols(1, 3)
            .unwrap()
            .mean_row_blocks(2)
            .unwrap()
            .add_row_broadcast(&tile)
            .unwrap();
        assert_eq!(got.as_slice(), eager.as_slice());
    }

    #[test]
    fn slot_planner_reuses_buffers_down_a_chain() {
        // A deep same-shape chain should cycle between two buffers' worth
        // of arena, not claim one per step.
        let mut g = Graph::new();
        let mut x = g.input(4, 4);
        let w = t(vec![0.5; 16], &[4, 4]);
        let wc = g.constant(w).unwrap();
        for _ in 0..6 {
            x = g.matmul(x, wc, MatmulSpec::NN).unwrap();
        }
        let plan = Compiler::new().compile(&g, x).unwrap();
        assert_eq!(plan.step_count(), 6);
        assert!(
            plan.slot_count() <= 2,
            "6-step chain must run in ≤ 2 slots, got {}",
            plan.slot_count()
        );
        assert_eq!(plan.arena_bytes(), 2 * 16 * 4);
    }

    #[test]
    fn execute_argmax_matches_eager_argmax() {
        let mut g = Graph::new();
        let x = g.input(4, 7);
        let s = g.softmax_rows(x).unwrap();
        let plan = Compiler::new().compile(&g, s).unwrap();
        let xt = t(
            (0..28).map(|v| ((v * 13 % 7) as f32) * 0.5).collect(),
            &[4, 7],
        );
        let fill = |input: &mut [f32]| -> Result<(), GraphError> {
            input.copy_from_slice(xt.as_slice());
            Ok(())
        };
        let mut got = [usize::MAX; 4];
        let argmax = |rows: &[f32]| tensor::kernels::argmax_rows(rows, 7, &mut got);
        plan.execute_with(fill, argmax).unwrap().unwrap();
        assert_eq!(
            got.to_vec(),
            xt.softmax_rows().unwrap().argmax_rows().unwrap()
        );
    }

    #[test]
    fn input_validation_is_typed() {
        let mut g = Graph::new();
        let x = g.input(2, 3);
        let y = g.unary(x, UnaryOp::Relu).unwrap();
        let plan = Compiler::new().compile(&g, y).unwrap();
        assert!(matches!(
            plan.execute(&[]),
            Err(GraphError::InputArity {
                expected: 1,
                provided: 0
            })
        ));
        let wrong = t(vec![0.0; 4], &[2, 2]);
        assert!(matches!(
            plan.execute(&[&wrong]),
            Err(GraphError::InputShape { index: 0, .. })
        ));
    }

    #[test]
    fn degenerate_output_compiles_to_copy() {
        let mut g = Graph::new();
        let x = g.input(2, 2);
        let plan = Compiler::new().compile(&g, x).unwrap();
        let xt = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let got = plan.execute(&[&xt]).unwrap();
        assert_eq!(got.as_slice(), xt.as_slice());
    }
}
