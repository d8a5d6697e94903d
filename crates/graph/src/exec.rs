//! Plan execution inside the calling thread's one arena.
//!
//! A plan runs in **one** `f32` buffer sized to its peak live footprint:
//! the compiler gave every register (runtime input or step output) a
//! range of it, the inputs at the front, ranges of dead registers reused
//! by later ones. An operand view is literally `(offset, row_stride)` into
//! that buffer.
//!
//! * **One arena per thread.** Every thread keeps one buffer, `ARENA`,
//!   for every plan it runs. A run takes it out of its cell, grows it only
//!   if this plan needs more than it holds, and puts it back afterwards
//!   (as `tensor::matmul`'s packed-B scratch does). A run sees exactly
//!   `arena_len` elements of it, so an operand view past the plan is an
//!   out-of-range panic, never a read of another plan's bytes. A nested
//!   run (a `fill` or `read` that runs a plan) or one after a panic finds
//!   the cell empty and allocates its own, so two runs never share a
//!   buffer. Arena bytes are thus at most one largest-plan buffer per
//!   thread that runs plans. A thread that drops the last handle to a
//!   [`crate::PlanCache`] frees its arena.
//! * **Two ways to run a plan.** [`CompiledPlan::execute_with`] is the
//!   entry: its `fill` closure receives the input region (all inputs back
//!   to back, in declaration order) and must overwrite all of it — it
//!   still holds whatever the thread's previous run left there — and
//!   `read` receives the output's rows before the arena goes back.
//!   [`CompiledPlan::execute`] is that same path with tensors copied in
//!   and the output copied out.
//! * **Steps.** For each step the buffer is split around the step's
//!   output range with two safe `split_at_mut`s; operand views resolve
//!   into the halves on either side, so an operand overlapping the output
//!   — an arena-planner bug — is an out-of-range panic, never a silent
//!   alias. A kernel's scratch (the attention step's) is a third split,
//!   the range right after the output. Slices and reshapes are views,
//!   not steps: a GEMM reads a strided view in place through its row
//!   stride, and a row-wise kernel the planner placed in place
//!   (`src: None`) skips the copy into its output because the output
//!   slot already holds its source.
//! * **No arithmetic lives here.** A step resolves its views and calls one
//!   function — of [`tensor::kernels`], `simd::*`,
//!   [`tensor::UnaryOp::apply_slice_at`] or [`gemm_strided_into_at`] — at
//!   the dispatch level the plan latched when it was built
//!   ([`CompiledPlan::level`]); a fused post chain is one such call per
//!   op over the freshly written output. The `Tensor` methods the autograd
//!   tape runs call the very same functions, so compiled and eager
//!   outputs are bit-identical at every dispatch level, and a difference
//!   between them can only come from the planner (views, liveness, fusion
//!   order). The attention step runs `simd::attention`, as the tape's
//!   attention node does; `simd/tests/attention_parity.rs` holds it to
//!   the per-block products and softmaxes it replaced, bit for bit.
//!
//! * **Per-step timing.** [`CompiledPlan::execute_timed`] is
//!   `execute_with` with a clock read around each step's kernel and its
//!   fused post chain — the same run loop, not a second executor — for a
//!   per-step profile (`examples/plan_profile.rs`).
//!
//! Steady state — a thread that has already run a plan at least this
//! large — [`CompiledPlan::execute_with`] performs **zero** allocations
//! but what `read` builds. The per-step functions (`run`, `run_kernel`,
//! `run_post`, `resolve`, `load`) and the kernels they call are held to
//! that by `core/tests/warm_allocs.rs`: once a warm `predict_folded` has
//! filled its input, the only block it allocates is the returned answer.

use std::cell::Cell;
use std::time::{Duration, Instant};

use tensor::{gemm_strided_into_at, kernels, Tensor};

use crate::compile::{CompiledPlan, Kernel, PostOp, Ref, Step, View};
use crate::error::GraphError;
use crate::stats;

thread_local! {
    /// The calling thread's arena, taken for the duration of a run and put
    /// back afterwards. It is as long as the largest plan the thread has
    /// run.
    static ARENA: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Frees the calling thread's arena; its next run allocates a fresh one.
pub(crate) fn free_thread_arena() {
    // During the thread's own teardown there is nothing left to free.
    let _ = ARENA.try_with(Cell::take);
}

/// Where one step's time went ([`CompiledPlan::execute_timed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTime {
    /// The step's kernel (a GEMM, a softmax, a copy, …).
    pub kernel: Duration,
    /// Its fused post-op chain over the output, all ops together.
    pub post: Duration,
}

/// One step's readable operands: the plan's constants plus the arena on
/// either side of the step's output range.
struct Operands<'a> {
    plan: &'a CompiledPlan,
    below: &'a [f32],
    above: &'a [f32],
    /// Arena offset of `above[0]`.
    above_start: usize,
}

impl<'a> Operands<'a> {
    /// The view's `len` elements. Panics if an arena view overlaps the
    /// step's output range.
    fn resolve(&self, view: View) -> &'a [f32] {
        if view.len == 0 {
            return &[];
        }
        match view.base {
            Ref::Const(i) => &self.plan.consts[i].as_slice()[view.offset..][..view.len],
            Ref::Reg(reg) => {
                let start = self.plan.reg_offsets[reg] + view.offset;
                match start.checked_sub(self.above_start) {
                    Some(rel) => &self.above[rel..][..view.len],
                    None => &self.below[start..][..view.len],
                }
            }
        }
    }

    /// Brings a row-wise kernel's source into `out` — row by row through a
    /// strided view — unless the step was planned in place (`None`).
    fn load(&self, src: &Option<View>, cols: usize, out: &mut [f32]) {
        if let Some(view) = src {
            kernels::copy_rows(self.resolve(*view), view.row_stride, out, cols, cols);
        }
    }
}

impl CompiledPlan {
    /// Has `fill` write the inputs straight into the thread's arena, runs
    /// the plan and hands the output's rows, row-major, to `read` — the
    /// serve hot path's shape, with **zero** allocations but what `read`
    /// builds on a warm thread.
    ///
    /// `fill` receives the plan's input region: every runtime input back
    /// to back in declaration order, row-major. It must write every
    /// element (the region holds the thread's previous run's bytes).
    ///
    /// # Errors
    /// Returns whatever `fill` returns; the plan then does not run, and
    /// the arena still goes back to the thread.
    pub fn execute_with<R, E>(
        &self,
        fill: impl FnOnce(&mut [f32]) -> Result<(), E>,
        read: impl FnOnce(&[f32]) -> R,
    ) -> Result<R, E> {
        self.execute_inner(fill, read, None)
    }

    /// [`CompiledPlan::execute_with`], also writing each step's time to
    /// `times[i]` (`times` holds one entry per step, in
    /// [`CompiledPlan::steps`] order). The clock is read around each
    /// step's kernel and its post chain and nowhere else, so the profile
    /// is of the path that serves.
    ///
    /// # Errors
    /// Returns whatever `fill` returns; the plan then does not run.
    ///
    /// # Panics
    /// If `times` is not [`CompiledPlan::step_count`] long.
    pub fn execute_timed<R, E>(
        &self,
        fill: impl FnOnce(&mut [f32]) -> Result<(), E>,
        read: impl FnOnce(&[f32]) -> R,
        times: &mut [StepTime],
    ) -> Result<R, E> {
        assert_eq!(times.len(), self.steps.len(), "one time per step");
        self.execute_inner(fill, read, Some(times))
    }

    /// Takes the thread's arena, grown to this plan if it is shorter, runs
    /// in its first `arena_len` elements and puts it back.
    fn execute_inner<R, E>(
        &self,
        fill: impl FnOnce(&mut [f32]) -> Result<(), E>,
        read: impl FnOnce(&[f32]) -> R,
        times: Option<&mut [StepTime]>,
    ) -> Result<R, E> {
        let mut buf = ARENA.take();
        if buf.len() < self.arena_len {
            // Free the shorter arena first, so the two are never held at once.
            drop(buf);
            buf = vec![0.0f32; self.arena_len];
            stats::record_arena_grew();
        } else {
            stats::record_arena_reuse();
        }
        let arena = &mut buf[..self.arena_len];
        let out = fill(&mut arena[..self.input_len()]).map(|()| {
            self.run(arena, times);
            read(&arena[self.reg_offsets[self.out_reg]..][..self.out_rows * self.out_cols])
        });
        ARENA.set(buf);
        out
    }

    /// [`CompiledPlan::execute_with`] on input tensors, copied into the
    /// arena's input region, returning the output as a tensor (one buffer
    /// allocation for the copy out).
    ///
    /// # Errors
    /// Returns [`GraphError::InputArity`] / [`GraphError::InputShape`] if
    /// `inputs` do not match the compiled placeholders.
    pub fn execute(&self, inputs: &[&Tensor]) -> Result<Tensor, GraphError> {
        self.check_inputs(inputs)?;
        let fill = |region: &mut [f32]| -> Result<(), GraphError> {
            kernels::concat_rows(inputs.iter().map(|t| t.as_slice()), region);
            Ok(())
        };
        let out = self.execute_with(fill, <[f32]>::to_vec)?;
        Tensor::from_vec(out, &[self.out_rows, self.out_cols]).map_err(GraphError::Tensor)
    }

    /// Typed arity/shape validation of tensor inputs; kept apart from the
    /// per-step functions, which must not allocate.
    fn check_inputs(&self, inputs: &[&Tensor]) -> Result<(), GraphError> {
        if inputs.len() != self.input_dims.len() {
            return Err(GraphError::InputArity {
                expected: self.input_dims.len(),
                provided: inputs.len(),
            });
        }
        for (index, (input, &expected)) in inputs.iter().zip(&self.input_dims).enumerate() {
            let ok = match input.shape().dims() {
                [r, c] => (*r, *c) == expected,
                [n] => (1, *n) == expected,
                _ => false,
            };
            if !ok {
                return Err(GraphError::InputShape {
                    index,
                    expected,
                    provided: input.shape().dims().to_vec(),
                });
            }
        }
        Ok(())
    }

    /// The one run loop; with `times`, each step's kernel and post chain
    /// are timed into its entry.
    fn run(&self, arena: &mut [f32], mut times: Option<&mut [StepTime]>) {
        let outputs = &self.reg_offsets[self.input_dims.len()..];
        for (i, (step, &out_offset)) in self.steps.iter().zip(outputs).enumerate() {
            // Split the buffer around the output range: everything else
            // stays readable, and the arena planner guarantees no operand
            // of this step lies inside it.
            // A kernel's scratch is the range right after its output.
            let (below, rest) = arena.split_at_mut(out_offset);
            let (out, rest) = rest.split_at_mut(step.rows * step.cols);
            let (scratch, above) = rest.split_at_mut(step.kernel.scratch_len());
            let ops = Operands {
                plan: self,
                above_start: below.len() + out.len() + scratch.len(),
                below,
                above,
            };
            let started = times.is_some().then(Instant::now);
            self.run_kernel(step, out, scratch, &ops);
            let kernel_done = started.map(|_| Instant::now());
            self.run_post(step, out, &ops);
            if let (Some(times), Some(started), Some(kernel_done)) =
                (times.as_deref_mut(), started, kernel_done)
            {
                times[i] = StepTime {
                    kernel: kernel_done - started,
                    post: kernel_done.elapsed(),
                };
            }
        }
    }

    fn run_kernel(&self, step: &Step, out: &mut [f32], scratch: &mut [f32], ops: &Operands<'_>) {
        let cols = step.cols;
        match &step.kernel {
            Kernel::Copy { src } => ops.load(src, cols, out),
            Kernel::Gemm {
                a,
                b,
                spec,
                m,
                k,
                n,
            } => gemm_strided_into_at(
                self.level,
                *m,
                *k,
                *n,
                (ops.resolve(*a), a.row_stride),
                (ops.resolve(*b), b.row_stride),
                *spec,
                out,
            ),
            Kernel::SoftmaxRows { src } => {
                ops.load(src, cols, out);
                simd::softmax_rows(self.level, out, cols);
            }
            Kernel::LayerNorm {
                src,
                gamma,
                beta,
                eps,
            } => {
                ops.load(src, cols, out);
                let (gamma, beta) = (ops.resolve(*gamma), ops.resolve(*beta));
                simd::layer_norm_rows(self.level, out, cols, gamma, beta, *eps, None);
            }
            Kernel::MeanRowBlocks { src, block_rows } => {
                kernels::mean_row_blocks(ops.resolve(*src), *block_rows, cols, out);
            }
            Kernel::AddTileRows { src, tile } => {
                ops.load(src, cols, out);
                kernels::add_tile_rows(out, ops.resolve(*tile));
            }
            Kernel::ConcatRows { parts } => {
                kernels::concat_rows(parts.iter().map(|p| ops.resolve(*p)), out);
            }
            Kernel::ConcatCols { parts } => {
                let parts = parts.iter().map(|(p, width)| (ops.resolve(*p), *width));
                kernels::concat_cols(parts, cols, out);
            }
            Kernel::Attention { q, k, v, shape } => {
                let [q, k, v] = [q, k, v].map(|view| ops.resolve(*view));
                simd::attention(self.level, q, k, v, *shape, out, None, scratch);
            }
        }
    }

    /// Applies the step's fused elementwise chain as one pass per op over
    /// the freshly written output buffer. Each pass is exact per element
    /// and independent of pass structure, so fusing never moves a bit.
    fn run_post(&self, step: &Step, out: &mut [f32], ops: &Operands<'_>) {
        for post in &step.post {
            match post {
                PostOp::Unary(op) => op.apply_slice_at(self.level, out),
                PostOp::AddRow(row) => kernels::add_tile_rows(out, ops.resolve(*row)),
                PostOp::BinaryLhs { op, rhs } => {
                    kernels::binary_assign(*op, out, ops.resolve(*rhs));
                }
                PostOp::BinaryRhs { op, lhs } => {
                    kernels::binary_assign_rhs(*op, ops.resolve(*lhs), out);
                }
            }
        }
    }
}
