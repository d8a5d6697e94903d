use graph::{ExprId, Graph, GraphError};
use tensor::{BinaryOp, MatmulSpec, Tensor, TensorError, UnaryOp};

use crate::{Activation, Param};

/// A recorder of the named ops a forward pass is made of.
///
/// Every layer and model spells its arithmetic once, as
/// `fn forward<T: Trace>(&self, t: &mut T, x: T::Node, …)`, and the
/// recorder decides what that means: a [`crate::Session`] evaluates each
/// op and records its gradient on the autograd tape (training, and — in
/// eval mode — the eager oracle), a [`Graph`] appends a node to the
/// expression IR that the graph compiler fuses into a plan (inference).
/// Record order is tape order and plan step order. No method takes a
/// closure, so a forward written against this trait can only be made of
/// ops both recorders — and therefore the fuser — know by name.
///
/// # Adding an op
///
/// One kernel, one method here, two recorder arms. Write the loop once as
/// an allocation-free slice-in/slice-out function in [`tensor::kernels`]
/// (zero-width rows accepted, with a row in the `SLICE_KERNELS` table of
/// `core/tests/warm_allocs.rs`, which calls it under a counting
/// allocator). Add the method to this trait. On [`Session`] it
/// calls an `autograd::Var` op whose forward allocates the result and
/// calls the kernel; on [`Graph`] it pushes a `graph::Op` node whose
/// `graph::exec::run_kernel` (or `run_post`) arm resolves the operand
/// views and calls the same kernel. Nothing in `exec.rs` may compute: an
/// arm that adds, multiplies or compares `f32`s itself is a second
/// implementation, and the parity suites (`nn/tests/trace_parity.rs`,
/// `baselines/tests/compiled_parity.rs`, `graph/src/plan_tests.rs`) exist
/// to check the planner, not to hold two loops together.
///
/// [`Session`]: crate::Session
pub trait Trace {
    /// Handle to a recorded `[rows, cols]` value.
    type Node: Copy;
    /// What a rejected op returns; shape errors raised by the layers
    /// themselves arrive as [`TensorError`]s.
    type Error: From<TensorError>;

    /// `(rows, cols)` of a recorded value.
    fn dims(&self, x: Self::Node) -> Result<(usize, usize), Self::Error>;
    /// A model weight: a registered gradient leaf on the tape, a constant
    /// snapshot in the graph.
    fn param(&mut self, p: &Param) -> Result<Self::Node, Self::Error>;
    /// A value frozen when the pass is recorded (a weight folded for
    /// inference): a leaf no gradient reaches on the tape, a constant
    /// snapshot in the graph.
    fn frozen(&mut self, value: Tensor) -> Result<Self::Node, Self::Error>;
    /// `op(a) · op(b)` with the transposes `spec` names.
    fn matmul(
        &mut self,
        a: Self::Node,
        b: Self::Node,
        spec: MatmulSpec,
    ) -> Result<Self::Node, Self::Error>;
    /// Elementwise non-linearity.
    fn activate(&mut self, x: Self::Node, f: Activation) -> Result<Self::Node, Self::Error>;
    /// `x · c` for a scalar `c`.
    fn scale(&mut self, x: Self::Node, c: f32) -> Result<Self::Node, Self::Error>;
    /// Elementwise `a + b` over equal shapes.
    fn add(&mut self, a: Self::Node, b: Self::Node) -> Result<Self::Node, Self::Error>;
    /// Numerically stable softmax over each row.
    fn softmax_rows(&mut self, x: Self::Node) -> Result<Self::Node, Self::Error>;
    /// Row standardisation, then `· gamma + beta` per feature.
    fn layer_norm(
        &mut self,
        x: Self::Node,
        gamma: Self::Node,
        beta: Self::Node,
        eps: f32,
    ) -> Result<Self::Node, Self::Error>;
    /// `x + row` with the `[cols]` row added to every row.
    fn add_row_broadcast(
        &mut self,
        x: Self::Node,
        row: Self::Node,
    ) -> Result<Self::Node, Self::Error>;
    /// `x + tile` with the tile repeated vertically `reps` times.
    fn add_tile_rows(
        &mut self,
        x: Self::Node,
        tile: Self::Node,
        reps: usize,
    ) -> Result<Self::Node, Self::Error>;
    /// Mean of every consecutive `block_rows`-row block, one row each.
    fn mean_row_blocks(
        &mut self,
        x: Self::Node,
        block_rows: usize,
    ) -> Result<Self::Node, Self::Error>;
    /// Vertical concatenation of equal-width parts.
    fn concat_rows(&mut self, parts: &[Self::Node]) -> Result<Self::Node, Self::Error>;
    /// Horizontal concatenation of equal-height parts.
    fn concat_cols(&mut self, parts: &[Self::Node]) -> Result<Self::Node, Self::Error>;
    /// Rows `[start, end)`.
    fn slice_rows(
        &mut self,
        x: Self::Node,
        start: usize,
        end: usize,
    ) -> Result<Self::Node, Self::Error>;
    /// Columns `[start, end)`.
    fn slice_cols(
        &mut self,
        x: Self::Node,
        start: usize,
        end: usize,
    ) -> Result<Self::Node, Self::Error>;
    /// Inverted dropout: in a training session each element is zeroed with
    /// probability `rate` and survivors are rescaled by `1/(1-rate)`; in an
    /// eval session and in the graph it is the identity and records nothing.
    fn dropout(&mut self, x: Self::Node, rate: f32) -> Result<Self::Node, Self::Error>;

    /// Scaled dot-product self-attention (paper §V.B, eqs. (1)–(4)) of
    /// `samples` sequences stacked in the rows of the projections `q`, `k`
    /// and `v`, their columns split into `heads` heads: every
    /// `(sample, head)` block is `softmax(Q·Kᵀ / √head_dim) · V`, the heads
    /// concatenated per sample (eq. 4) and the samples stacked again.
    ///
    /// One op in both recorders, one kernel for every block: a
    /// [`crate::Session`] records one tape node
    /// (`autograd::Var::attention`) whose forward is `simd::attention` and
    /// whose backward is `simd::attention_backward`; a [`Graph`] records
    /// one node that a compiled plan runs as one `simd::attention` step.
    /// Each output and gradient is bit for bit what the per-block chain
    /// (slices, `Q·Kᵀ`, the `1/√head_dim` scale
    /// [`simd::AttentionShape::scale`], the row softmax, `· V`, the
    /// concatenations) would give, except that a NaN is `f32::NAN`.
    /// Softmax is row-wise, so the result is bit-identical to attending
    /// each sample alone.
    ///
    /// # Errors
    /// Returns an error if `samples` does not divide the rows or `heads`
    /// the columns, or if `k` or `v` is not shaped as `q`.
    fn attention(
        &mut self,
        q: Self::Node,
        k: Self::Node,
        v: Self::Node,
        samples: usize,
        heads: usize,
    ) -> Result<Self::Node, Self::Error>;
}

type GraphResult = Result<ExprId, GraphError>;

impl Trace for Graph {
    type Node = ExprId;
    type Error = GraphError;

    fn dims(&self, x: ExprId) -> Result<(usize, usize), GraphError> {
        Graph::dims(self, x)
    }

    fn param(&mut self, p: &Param) -> GraphResult {
        self.constant(p.value())
    }

    fn frozen(&mut self, value: Tensor) -> GraphResult {
        self.constant(value)
    }

    fn matmul(&mut self, a: ExprId, b: ExprId, spec: MatmulSpec) -> GraphResult {
        Graph::matmul(self, a, b, spec)
    }

    fn activate(&mut self, x: ExprId, f: Activation) -> GraphResult {
        let op = match f {
            Activation::Gelu => UnaryOp::Gelu,
            Activation::Relu => UnaryOp::Relu,
            Activation::Tanh => UnaryOp::Tanh,
            Activation::Sigmoid => UnaryOp::Sigmoid,
            Activation::Identity => return Ok(x),
        };
        self.unary(x, op)
    }

    fn scale(&mut self, x: ExprId, c: f32) -> GraphResult {
        self.unary(x, UnaryOp::MulScalar(c))
    }

    fn add(&mut self, a: ExprId, b: ExprId) -> GraphResult {
        self.binary(a, b, BinaryOp::Add)
    }

    fn softmax_rows(&mut self, x: ExprId) -> GraphResult {
        Graph::softmax_rows(self, x)
    }

    fn layer_norm(&mut self, x: ExprId, gamma: ExprId, beta: ExprId, eps: f32) -> GraphResult {
        Graph::layer_norm(self, x, gamma, beta, eps)
    }

    fn add_row_broadcast(&mut self, x: ExprId, row: ExprId) -> GraphResult {
        Graph::add_row_broadcast(self, x, row)
    }

    fn add_tile_rows(&mut self, x: ExprId, tile: ExprId, reps: usize) -> GraphResult {
        Graph::add_tile_rows(self, x, tile, reps)
    }

    fn mean_row_blocks(&mut self, x: ExprId, block_rows: usize) -> GraphResult {
        Graph::mean_row_blocks(self, x, block_rows)
    }

    fn concat_rows(&mut self, parts: &[ExprId]) -> GraphResult {
        Graph::concat_rows(self, parts)
    }

    fn concat_cols(&mut self, parts: &[ExprId]) -> GraphResult {
        Graph::concat_cols(self, parts)
    }

    fn slice_rows(&mut self, x: ExprId, start: usize, end: usize) -> GraphResult {
        Graph::slice_rows(self, x, start, end)
    }

    fn slice_cols(&mut self, x: ExprId, start: usize, end: usize) -> GraphResult {
        Graph::slice_cols(self, x, start, end)
    }

    fn dropout(&mut self, x: ExprId, _rate: f32) -> GraphResult {
        Ok(x)
    }

    fn attention(
        &mut self,
        q: ExprId,
        k: ExprId,
        v: ExprId,
        samples: usize,
        heads: usize,
    ) -> GraphResult {
        Graph::attention(self, [q, k, v], samples, heads)
    }
}
