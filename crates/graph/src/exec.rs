//! Plan execution inside a reusable buffer arena.
//!
//! An [`Arena`] owns **one** `f32` buffer for a plan, sized to the plan's
//! peak live footprint: the compiler gave every register (runtime input
//! or step output) a range of it, the inputs at the front, ranges of dead
//! registers reused by later ones. An operand view is literally
//! `(offset, row_stride)` into that buffer.
//!
//! * **Inputs live in the arena.** The caller writes them in place: the
//!   `fill` closure of [`CompiledPlan::execute_argmax_with`] receives the
//!   input region (all inputs back to back, in declaration order) and
//!   must overwrite all of it — it still holds whatever the previous
//!   execution left there. The tensor-taking [`CompiledPlan::execute`] /
//!   [`CompiledPlan::execute_argmax`] are that same path with a closure
//!   that copies the tensors in.
//! * **Steps.** For each step the buffer is split around the step's
//!   output range with two safe `split_at_mut`s; operand views resolve
//!   into the halves on either side, so an operand overlapping the output
//!   — an arena-planner bug — is an out-of-range panic, never a silent
//!   alias. Slices and reshapes are views, not steps: a GEMM reads a
//!   strided view in place through its row stride, and a row-wise kernel
//!   the planner placed in place (`src: None`) skips the copy into its
//!   output because the output slot already holds its source.
//! * **Post-ops.** A step's fused chain is applied to the freshly written
//!   output as one pass per fused op, each pass running the same kernel
//!   the eager path dispatches to — the runtime-selected SIMD sweep for
//!   transcendental unaries, exact elementwise loops for the rest — at
//!   the dispatch level the plan latched when it was built
//!   ([`CompiledPlan::level`]). Because eager and compiled execution
//!   share those kernels, their outputs are bit-identical at every
//!   dispatch level, including the ULP-divergent opt-in FMA level.
//!
//! Steady state — an arena reused across requests of the same batch shape
//! — a plan executes with **zero** buffer allocations except the one
//! output tensor ([`CompiledPlan::execute`]), or none at all beyond the
//! index vector when the caller only needs per-row argmaxes. The per-step
//! functions (`run`, `run_kernel`, `run_post`, `resolve`, `load`) are held
//! to that by the `hot-path-alloc` lint span in `ci/lint-rules.toml`.

use tensor::{gemm_strided_into_at, Tensor};

use crate::compile::{CompiledPlan, Kernel, PostOp, Ref, Step, View};
use crate::error::GraphError;
use crate::stats;

/// The reusable execution buffer for one plan's batch shape.
///
/// Not `Sync` — each concurrent execution needs its own arena (pool them
/// with [`crate::ArenaPool`]). The counters are cumulative and monotonic;
/// tests diff them around an execute to assert reuse.
#[derive(Debug, Default)]
pub struct Arena {
    buf: Vec<f32>,
    /// Buffers allocated by this arena over its lifetime.
    allocs: u64,
    /// Executions that ran entirely in the already-allocated buffer.
    reuses: u64,
}

impl Arena {
    /// Creates an empty arena; the buffer materialises on first execute.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Buffers this arena has allocated over its lifetime (one per plan
    /// shape it has been sized for).
    pub fn slot_allocs(&self) -> u64 {
        self.allocs
    }

    /// Executions served without allocating.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Makes the buffer `len` elements long, allocating only on a size
    /// change.
    fn ensure(&mut self, len: usize) {
        if self.buf.len() == len {
            self.reuses += 1;
        } else {
            self.buf = vec![0.0f32; len];
            self.allocs += 1;
            stats::record_slot_allocs(1);
        }
    }
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
        let Some(view) = src else { return };
        let src = self.resolve(*view);
        if src.len() == out.len() {
            out.copy_from_slice(src);
        } else {
            for (o_row, s_row) in out.chunks_exact_mut(cols).zip(src.chunks(view.row_stride)) {
                o_row.copy_from_slice(&s_row[..cols]);
            }
        }
    }
}

impl CompiledPlan {
    /// Creates an arena with the buffer pre-allocated for this plan.
    pub fn new_arena(&self) -> Arena {
        let mut arena = Arena::new();
        arena.ensure(self.arena_len);
        arena
    }

    /// Runs the plan on the given input tensors, returning the output as
    /// a tensor (one buffer allocation for the output copy).
    ///
    /// # Errors
    /// Returns [`GraphError::InputArity`] / [`GraphError::InputShape`] if
    /// `inputs` do not match the compiled placeholders.
    pub fn execute(&self, arena: &mut Arena, inputs: &[&Tensor]) -> Result<Tensor, GraphError> {
        self.check_inputs(inputs)?;
        self.run_with(arena, |region| -> Result<(), GraphError> {
            copy_inputs(inputs, region);
            Ok(())
        })?;
        let out = self.output(arena).to_vec();
        Tensor::from_vec(out, &[self.out_rows, self.out_cols]).map_err(GraphError::Tensor)
    }

    /// [`CompiledPlan::execute_argmax_with`] on input tensors, copied into
    /// the arena's input region.
    ///
    /// # Errors
    /// Returns [`GraphError::InputArity`] / [`GraphError::InputShape`] if
    /// `inputs` do not match the compiled placeholders.
    pub fn execute_argmax(
        &self,
        arena: &mut Arena,
        inputs: &[&Tensor],
    ) -> Result<Vec<usize>, GraphError> {
        self.check_inputs(inputs)?;
        self.execute_argmax_with(arena, |region| {
            copy_inputs(inputs, region);
            Ok(())
        })
    }

    /// Has `fill` write the inputs straight into the arena, runs the plan
    /// and reduces the output to per-row argmax indices — the serve hot
    /// path's shape, with **zero** buffer allocations on a warm arena
    /// (beyond the index vector itself).
    ///
    /// `fill` receives the plan's input region: every runtime input back
    /// to back in declaration order, row-major. It must write every
    /// element (the region holds a previous execution's bytes). Ties
    /// resolve to the first maximum, exactly like the eager `argmax_rows`.
    ///
    /// # Errors
    /// Returns whatever `fill` returns; the plan then does not run.
    pub fn execute_argmax_with<E>(
        &self,
        arena: &mut Arena,
        fill: impl FnOnce(&mut [f32]) -> Result<(), E>,
    ) -> Result<Vec<usize>, E> {
        self.run_with(arena, fill)?;
        let mut out = Vec::with_capacity(self.out_rows);
        for row in self.output(arena).chunks_exact(self.out_cols) {
            let mut best = 0;
            for (j, v) in row.iter().enumerate() {
                if *v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// The output register's elements after a run.
    fn output<'a>(&self, arena: &'a Arena) -> &'a [f32] {
        &arena.buf[self.reg_offsets[self.out_reg]..][..self.out_rows * self.out_cols]
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

    fn run_with<E>(
        &self,
        arena: &mut Arena,
        fill: impl FnOnce(&mut [f32]) -> Result<(), E>,
    ) -> Result<(), E> {
        arena.ensure(self.arena_len);
        fill(&mut arena.buf[..self.input_len()])?;
        self.run(arena);
        Ok(())
    }

    fn run(&self, arena: &mut Arena) {
        let outputs = &self.reg_offsets[self.input_dims.len()..];
        for (step, &out_offset) in self.steps.iter().zip(outputs) {
            // Split the buffer around the output range: everything else
            // stays readable, and the arena planner guarantees no operand
            // of this step lies inside it.
            let (below, rest) = arena.buf.split_at_mut(out_offset);
            let (out, above) = rest.split_at_mut(step.rows * step.cols);
            let ops = Operands {
                plan: self,
                above_start: below.len() + out.len(),
                below,
                above,
            };
            self.run_kernel(step, out, &ops);
            self.run_post(step, out, &ops);
        }
    }

    fn run_kernel(&self, step: &Step, out: &mut [f32], ops: &Operands<'_>) {
        let (rows, cols) = (step.rows, step.cols);
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
                // The same three-pass SIMD kernel the eager `softmax_rows`
                // dispatches to, pinned at the plan's latched level.
                ops.load(src, cols, out);
                simd::softmax_rows_at(self.level, out, cols);
            }
            Kernel::LayerNorm {
                src,
                gamma,
                beta,
                eps,
            } => {
                // The same single-sweep SIMD kernel as the eager
                // `layer_norm_rows`, pinned at the plan's latched level.
                ops.load(src, cols, out);
                let (gamma, beta) = (ops.resolve(*gamma), ops.resolve(*beta));
                simd::layer_norm_rows_at(self.level, out, cols, gamma, beta, *eps);
            }
            Kernel::MeanRowBlocks { src, block_rows } => {
                // Mirrors the eager `mean_row_blocks`: accumulate each
                // block's rows in order, then scale once.
                let src = ops.resolve(*src);
                let scale = 1.0 / *block_rows as f32;
                out.fill(0.0);
                for (acc, block) in out
                    .chunks_exact_mut(cols)
                    .zip(src.chunks_exact(block_rows * cols))
                {
                    for row in block.chunks_exact(cols) {
                        for (a, &v) in acc.iter_mut().zip(row) {
                            *a += v;
                        }
                    }
                    for a in acc.iter_mut() {
                        *a *= scale;
                    }
                }
            }
            Kernel::AddTileRows {
                src,
                tile,
                tile_rows,
            } => {
                ops.load(src, cols, out);
                let tile = ops.resolve(*tile);
                for (r, o_row) in out.chunks_exact_mut(cols).enumerate() {
                    let t_row = &tile[(r % tile_rows) * cols..][..cols];
                    for (o, &t) in o_row.iter_mut().zip(t_row) {
                        *o += t;
                    }
                }
            }
            Kernel::ConcatRows { parts } => {
                let mut offset = 0;
                for p in parts {
                    out[offset..offset + p.len].copy_from_slice(ops.resolve(*p));
                    offset += p.len;
                }
            }
            Kernel::ConcatCols { parts } => {
                for r in 0..rows {
                    let mut offset = r * cols;
                    for (p, pc) in parts {
                        let src = ops.resolve(*p);
                        out[offset..offset + pc].copy_from_slice(&src[r * pc..(r + 1) * pc]);
                        offset += pc;
                    }
                }
            }
        }
    }

    /// Applies the step's fused elementwise chain as one pass per op over
    /// the freshly written output buffer.
    ///
    /// A chained op is either a named unary — one `match` outside the
    /// loop, then the runtime-dispatched SIMD sweep at the plan's latched
    /// level or a plain vectorizable loop, exactly like the eager
    /// `Tensor::apply` — or an exact single-operation elementwise loop,
    /// whose per-element result is independent of pass structure. Both
    /// ways, compiled output stays bit-identical to the eager path at the
    /// same level.
    fn run_post(&self, step: &Step, out: &mut [f32], ops: &Operands<'_>) {
        let cols = step.cols;
        for post in &step.post {
            match post {
                PostOp::Unary(op) => op.apply_slice_at(self.level, out),
                PostOp::AddRow(r) => {
                    let row = ops.resolve(*r);
                    for o_row in out.chunks_exact_mut(cols) {
                        for (o, &t) in o_row.iter_mut().zip(row) {
                            *o += t;
                        }
                    }
                }
                PostOp::MulRow(r) => {
                    let row = ops.resolve(*r);
                    for o_row in out.chunks_exact_mut(cols) {
                        for (o, &t) in o_row.iter_mut().zip(row) {
                            *o *= t;
                        }
                    }
                }
                PostOp::BinaryLhs { op, rhs } => {
                    for (o, &t) in out.iter_mut().zip(ops.resolve(*rhs)) {
                        *o = op.eval(*o, t);
                    }
                }
                PostOp::BinaryRhs { op, lhs } => {
                    for (o, &t) in out.iter_mut().zip(ops.resolve(*lhs)) {
                        *o = op.eval(t, *o);
                    }
                }
            }
        }
    }
}

/// Lays validated input tensors back to back into the input region.
fn copy_inputs(inputs: &[&Tensor], region: &mut [f32]) {
    let mut at = 0;
    for input in inputs {
        region[at..at + input.len()].copy_from_slice(input.as_slice());
        at += input.len();
    }
}
