//! The CPU compiler: expression graph → fused, arena-planned [`CompiledPlan`].
//!
//! Compilation is two deterministic passes over the (already
//! shape-checked) graph:
//!
//! 1. **Lowering: views, kernel selection, fusion.** Nodes are walked in
//!    insertion order (a topological order — builders can only reference
//!    earlier ids), so *graph node order is step order*: a builder that
//!    wants a block of work to stay cache-resident pushes its nodes back
//!    to back. Every value is a [`View`] — `len` elements of a constant
//!    or an arena register from `offset` on, rows `row_stride` apart —
//!    and the structural ops that only re-address data (`SliceRows`,
//!    `SliceCols`, `Reshape`) emit **no step**: they hand their consumer
//!    a narrower view of the same register. A GEMM reads any view in
//!    place through its leading dimension; every other kernel reads dense
//!    views, and a strided one reaching it is first materialised by a
//!    [`Kernel::Copy`] that reads through the view. An *elementwise* node
//!    (unary, binary, row broadcast) whose chain operand is exactly the
//!    preceding step's output **and** has no other consumer folds into
//!    that step's post-op chain instead of emitting a step: this is what
//!    turns `matmul → +bias → GELU` into one GEMM step with a two-op post
//!    chain. The executor applies a post chain as one pass per fused op
//!    over the step's freshly written (cache-hot) output, each pass a
//!    call of the one slice-level function ([`tensor::kernels`],
//!    [`UnaryOp::apply_slice_at`]) the eager `Tensor` op calls too, so
//!    fusing cannot move a bit at any dispatch level — the plan latches
//!    [`simd::active_level`] at build time ([`CompiledPlan::level`]) and
//!    pins every step to it, GEMM included.
//! 2. **Liveness-based arena planning** ([`plan_arena`]). Each runtime
//!    input and each step's output is a register; its last use is the
//!    last step that reads it *through any view*. Every register gets a
//!    range of the plan's **one** arena buffer. Inputs take the front, in
//!    declaration order, so the caller fills one contiguous region.
//!    Walking the steps, a kernel that consumes its source one row at a
//!    time (`Copy`, `SoftmaxRows`, `LayerNorm`, `AddTileRows`) and whose
//!    source is a whole register dying at that step, read by nothing else
//!    in the step, runs **in place**: it takes the source's range as its
//!    output and the copy disappears. Any other output takes the lowest
//!    free range that fits (growing the arena if none does) *before* the
//!    step's operands are released — so it never overlaps a buffer the
//!    step still reads — and operands whose last use is this step are
//!    released after, coalescing with free neighbours. A kernel that needs
//!    scratch (the attention step's) claims it with its output, as the
//!    range right after it, and frees it again at once: only that step
//!    ever writes it. Ranges need not
//!    match in size: once the stacked input is dead, every later
//!    activation lives inside its bytes, and the arena
//!    ([`CompiledPlan::arena_bytes`]) is the plan's peak live footprint
//!    rather than a sum over buffer sizes.

use tensor::{BinaryOp, MatmulSpec, Tensor, UnaryOp};

use crate::error::GraphError;
use crate::ir::{ExprId, Graph, Op, ReduceOp};

/// The buffer a [`View`] reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ref {
    /// The i-th compile-time constant.
    Const(usize),
    /// The i-th register: the runtime inputs first, then one per step.
    /// [`CompiledPlan::reg_offsets`] places it in the arena.
    Reg(usize),
}

/// A step operand: `len` elements of `base` from `offset` on, holding a
/// matrix whose rows lie `row_stride` apart. Dense iff `len` is the
/// matrix's element count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct View {
    pub(crate) base: Ref,
    pub(crate) offset: usize,
    pub(crate) len: usize,
    pub(crate) row_stride: usize,
}

impl View {
    /// All `rows × cols` elements of `base`.
    fn whole(base: Ref, rows: usize, cols: usize) -> View {
        View {
            base,
            offset: 0,
            len: rows * cols,
            row_stride: cols,
        }
    }

    /// The `rows × cols` window starting `skip` elements into this view.
    fn window(self, skip: usize, rows: usize, cols: usize) -> View {
        View {
            offset: self.offset + skip,
            // First element to one past the last live one.
            len: match (rows, cols) {
                (0, _) | (_, 0) => 0,
                _ => (rows - 1) * self.row_stride + cols,
            },
            ..self
        }
    }
}

/// One fused elementwise operation applied per element of a step's output.
/// Operand views are dense.
#[derive(Debug, Clone)]
pub(crate) enum PostOp {
    /// Apply a named unary op to the chain value.
    Unary(UnaryOp),
    /// `chain + row[j]` for the element's column `j`.
    AddRow(View),
    /// `chain OP other[idx]` (chain is the left operand).
    BinaryLhs {
        /// The operation.
        op: BinaryOp,
        /// Elementwise right operand.
        rhs: View,
    },
    /// `other[idx] OP chain` (chain is the right operand).
    BinaryRhs {
        /// The operation.
        op: BinaryOp,
        /// Elementwise left operand.
        lhs: View,
    },
}

/// The structural/reduction core of one step. Only `Gemm` operands and
/// `Copy`'s source may be strided; every other view is dense. A row-wise
/// kernel's `src` is `None` once the arena planner has placed the step in
/// place: its output range already holds the source.
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
    /// Copy the source (standalone elementwise chains, materialised
    /// strided views, degenerate outputs).
    Copy { src: Option<View> },
    /// `op(a) · op(b)` via the packed GEMM, operands read in place through
    /// their row strides, written straight into the slot.
    Gemm {
        a: View,
        b: View,
        spec: MatmulSpec,
        m: usize,
        k: usize,
        n: usize,
    },
    /// Three-pass numerically stable softmax over each row.
    SoftmaxRows { src: Option<View> },
    /// Per-row standardise, then `· γ + β` per feature, in one pass.
    LayerNorm {
        src: Option<View>,
        gamma: View,
        beta: View,
        eps: f32,
    },
    /// Mean over consecutive `block_rows`-row blocks.
    MeanRowBlocks { src: View, block_rows: usize },
    /// `src + tile`, the tile repeating vertically.
    AddTileRows { src: Option<View>, tile: View },
    /// Vertical concat.
    ConcatRows { parts: Vec<View> },
    /// Horizontal concat; parts carry their column counts.
    ConcatCols { parts: Vec<(View, usize)> },
    /// Every `(sample, head)` block of a multi-head self-attention, in
    /// one call, each head written into its columns of the output; its
    /// scratch is the arena range right after the output.
    Attention {
        q: View,
        k: View,
        v: View,
        shape: simd::AttentionShape,
    },
}

impl Kernel {
    /// The kernel's name, as [`StepInfo::kernel`] reports it.
    fn name(&self) -> &'static str {
        match self {
            Kernel::Copy { .. } => "copy",
            Kernel::Gemm { .. } => "gemm",
            Kernel::SoftmaxRows { .. } => "softmax_rows",
            Kernel::LayerNorm { .. } => "layer_norm",
            Kernel::MeanRowBlocks { .. } => "mean_row_blocks",
            Kernel::AddTileRows { .. } => "add_tile_rows",
            Kernel::ConcatRows { .. } => "concat_rows",
            Kernel::ConcatCols { .. } => "concat_cols",
            Kernel::Attention { .. } => "attention",
        }
    }

    /// Elements of arena scratch the kernel needs beside its output.
    pub(crate) fn scratch_len(&self) -> usize {
        match self {
            Kernel::Attention { shape, .. } => shape.scratch_len(),
            _ => 0,
        }
    }
}

/// What one step of a [`CompiledPlan`] computes ([`CompiledPlan::steps`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StepInfo {
    /// The kernel, by name (`gemm`, `softmax_rows`, `layer_norm`, `copy`,
    /// …).
    pub kernel: &'static str,
    /// Rows of the step's output.
    pub rows: usize,
    /// Columns of the step's output.
    pub cols: usize,
    /// `(m, k, n)` of a GEMM step: `2·m·k·n` floating-point operations.
    pub gemm: Option<(usize, usize, usize)>,
    /// The fused post-ops applied to the output, by name, in order (a
    /// unary or binary op's lowercase name, `add_row` for a bias row).
    pub post: Vec<String>,
}

/// One executable step: a kernel writing the step's register, then a
/// fused post-op chain applied to it.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) kernel: Kernel,
    pub(crate) post: Vec<PostOp>,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

impl Step {
    /// Visits every view the step reads (kernel sources and post-op
    /// operands).
    pub(crate) fn views_mut(&mut self, mut f: impl FnMut(&mut View)) {
        match &mut self.kernel {
            Kernel::Copy { src } | Kernel::SoftmaxRows { src } => src.iter_mut().for_each(&mut f),
            Kernel::MeanRowBlocks { src, .. } => f(src),
            Kernel::Gemm { a, b, .. } => [a, b].into_iter().for_each(&mut f),
            Kernel::LayerNorm {
                src, gamma, beta, ..
            } => src.iter_mut().chain([gamma, beta]).for_each(&mut f),
            Kernel::AddTileRows { src, tile } => src.iter_mut().chain([tile]).for_each(&mut f),
            Kernel::ConcatRows { parts } => parts.iter_mut().for_each(&mut f),
            Kernel::ConcatCols { parts } => parts.iter_mut().for_each(|(p, _)| f(p)),
            Kernel::Attention { q, k, v, .. } => [q, k, v].into_iter().for_each(&mut f),
        }
        for post in &mut self.post {
            match post {
                PostOp::Unary(_) => {}
                PostOp::AddRow(v)
                | PostOp::BinaryLhs { rhs: v, .. }
                | PostOp::BinaryRhs { lhs: v, .. } => f(v),
            }
        }
    }

    /// The source of a kernel that consumes it one row at a time — the
    /// kernels the arena planner may run in place.
    fn row_wise_src(&mut self) -> Option<&mut Option<View>> {
        match &mut self.kernel {
            Kernel::Copy { src }
            | Kernel::SoftmaxRows { src }
            | Kernel::LayerNorm { src, .. }
            | Kernel::AddTileRows { src, .. } => Some(src),
            _ => None,
        }
    }
}

/// A compiled, immutable execution plan for one graph output.
///
/// Build once per (model, batch shape) via [`Compiler::compile`], execute
/// many times via [`CompiledPlan::execute_with`] /
/// [`CompiledPlan::execute`] in the calling thread's arena. Plans are
/// `Send + Sync` (share behind an `Arc`); all mutable state lives in the
/// arena.
#[derive(Debug)]
pub struct CompiledPlan {
    pub(crate) steps: Vec<Step>,
    pub(crate) consts: Vec<Tensor>,
    pub(crate) input_dims: Vec<(usize, usize)>,
    /// Where each register starts in the arena buffer: the inputs, back
    /// to back from 0, then step `i`'s output at `input_dims.len() + i`.
    pub(crate) reg_offsets: Vec<usize>,
    /// Elements in the arena buffer.
    pub(crate) arena_len: usize,
    peak_live: usize,
    /// The register holding the output.
    pub(crate) out_reg: usize,
    pub(crate) out_rows: usize,
    pub(crate) out_cols: usize,
    pub(crate) level: simd::Level,
}

impl CompiledPlan {
    /// Number of executable steps (after fusion; views cost none).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The SIMD dispatch level latched when this plan was built; every
    /// GEMM / softmax / layer-norm / activation step executes at this
    /// level.
    pub fn level(&self) -> simd::Level {
        self.level
    }

    /// Number of fused post-ops across all steps — elementwise nodes that
    /// did *not* cost a step or a buffer of their own.
    pub fn fused_op_count(&self) -> usize {
        self.steps.iter().map(|s| s.post.len()).sum()
    }

    /// The most registers (runtime inputs and step outputs) live at once
    /// — the number of buffers the plan would need if each were its own
    /// allocation instead of a range of the one arena.
    pub fn slot_count(&self) -> usize {
        self.peak_live
    }

    /// Bytes of the arena this plan runs in — its peak live footprint, the
    /// runtime inputs' included. A thread's arena is as long as the largest
    /// plan it has run.
    pub fn arena_bytes(&self) -> usize {
        self.arena_len * std::mem::size_of::<f32>()
    }

    /// What each step computes, in execution order — the rows of a
    /// per-step profile ([`CompiledPlan::execute_timed`] times the same
    /// steps in the same order).
    pub fn steps(&self) -> impl Iterator<Item = StepInfo> + '_ {
        self.steps.iter().map(|step| StepInfo {
            kernel: step.kernel.name(),
            rows: step.rows,
            cols: step.cols,
            gemm: match step.kernel {
                Kernel::Gemm { m, k, n, .. } => Some((m, k, n)),
                _ => None,
            },
            post: step
                .post
                .iter()
                .map(|post| match post {
                    PostOp::Unary(op) => format!("{op:?}").to_lowercase(),
                    PostOp::AddRow(_) => "add_row".into(),
                    PostOp::BinaryLhs { op, .. } | PostOp::BinaryRhs { op, .. } => {
                        format!("{op:?}").to_lowercase()
                    }
                })
                .collect(),
        })
    }

    /// Elements of the input region at the front of the arena buffer.
    pub(crate) fn input_len(&self) -> usize {
        self.input_dims.iter().map(|&(r, c)| r * c).sum()
    }
}

/// The CPU compiler. Stateless; [`Compiler::compile`] is a pure function
/// of the graph. (Kept as a struct so future backends can hang
/// configuration or a backend choice off it, mirroring the Compiler
/// pattern the ROADMAP references.)
#[derive(Debug, Default, Clone, Copy)]
pub struct Compiler;

impl Compiler {
    /// Creates a compiler.
    pub fn new() -> Self {
        Compiler
    }

    /// Compiles `graph` down to a fused, arena-planned plan producing
    /// `output`.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownExpr`] if `output` is not a node of
    /// `graph`.
    pub fn compile(&self, graph: &Graph, output: ExprId) -> Result<CompiledPlan, GraphError> {
        let (mut steps, out_reg) = lower(graph, output)?;
        let input_sizes: Vec<usize> = graph.input_dims.iter().map(|&(r, c)| r * c).collect();
        let (reg_offsets, arena_len, peak_live) = plan_arena(&mut steps, &input_sizes, out_reg);
        let (out_rows, out_cols) = (graph.nodes[output.0].rows, graph.nodes[output.0].cols);
        Ok(CompiledPlan {
            steps,
            consts: graph.consts.clone(),
            input_dims: graph.input_dims.clone(),
            reg_offsets,
            arena_len,
            peak_live,
            out_reg,
            out_rows,
            out_cols,
            // Latch the dispatch level at build time so every execution of
            // this plan uses the same kernels the eager path dispatches to.
            level: simd::active_level(),
        })
    }
}

/// Pass-1 state: where each lowered node's value lives.
struct Lowering<'g> {
    graph: &'g Graph,
    /// Per-use consumer counts among the nodes reachable from the output.
    consumers: Vec<usize>,
    /// Each lowered node's view, plus — when the value is exactly one
    /// step's whole output, the only thing a post-op chain may rewrite —
    /// that step's index.
    loc: Vec<Option<(View, Option<usize>)>>,
    steps: Vec<Step>,
}

impl Lowering<'_> {
    fn view(&self, x: ExprId) -> View {
        self.loc[x.0].expect("operand precedes use").0
    }

    fn dims(&self, x: ExprId) -> (usize, usize) {
        (self.graph.nodes[x.0].rows, self.graph.nodes[x.0].cols)
    }

    /// Emits a step computing node `id`; its value is the new register.
    fn emit(&mut self, id: usize, kernel: Kernel, post: Vec<PostOp>) {
        let (rows, cols) = self.dims(ExprId(id));
        let reg = self.graph.input_dims.len() + self.steps.len();
        self.loc[id] = Some((
            View::whole(Ref::Reg(reg), rows, cols),
            Some(self.steps.len()),
        ));
        self.steps.push(Step {
            kernel,
            post,
            rows,
            cols,
        });
    }

    /// `x`'s view if it is dense; otherwise materialises it with a copy
    /// through the view, which later consumers of `x` then share.
    fn dense(&mut self, x: ExprId) -> View {
        let (rows, cols) = self.dims(x);
        let view = self.view(x);
        if view.len != rows * cols {
            self.emit(x.0, Kernel::Copy { src: Some(view) }, Vec::new());
        }
        self.view(x)
    }

    /// True iff `x` is the previous step's whole output and nothing else
    /// will ever read it — the fusion precondition (the post chain
    /// rewrites that buffer in place).
    fn fusable(&self, x: ExprId) -> bool {
        let last = self.steps.len().checked_sub(1);
        last.is_some()
            && self.loc[x.0].expect("operand precedes use").1 == last
            && self.consumers[x.0] == 1
    }

    /// Node `id` = `post` applied to chain operand `x`: folded into the
    /// step that produced `x` when fusable, else a copy of `x` (strided
    /// views welcome) carrying the post-op.
    fn chain(&mut self, id: usize, x: ExprId, post: PostOp) {
        if self.fusable(x) {
            self.steps.last_mut().expect("fusable").post.push(post);
            self.loc[id] = self.loc[x.0];
        } else {
            let src = Some(self.view(x));
            self.emit(id, Kernel::Copy { src }, vec![post]);
        }
    }

    fn lower_node(&mut self, id: usize) {
        let graph = self.graph;
        let (rows, cols) = self.dims(ExprId(id));
        match &graph.nodes[id].op {
            Op::Input { index } => {
                self.loc[id] = Some((View::whole(Ref::Reg(*index), rows, cols), None));
            }
            Op::Constant { index } => {
                self.loc[id] = Some((View::whole(Ref::Const(*index), rows, cols), None));
            }
            Op::Unary { x, op } => self.chain(id, *x, PostOp::Unary(*op)),
            Op::Binary { a, b, op } => {
                let (lhs, rhs) = (self.dense(*a), self.dense(*b));
                if self.fusable(*b) && !self.fusable(*a) {
                    self.chain(id, *b, PostOp::BinaryRhs { op: *op, lhs });
                } else {
                    self.chain(id, *a, PostOp::BinaryLhs { op: *op, rhs });
                }
            }
            Op::AddRowBroadcast { x, row } => {
                let row = self.dense(*row);
                self.chain(id, *x, PostOp::AddRow(row));
            }
            Op::Matmul { a, b, spec } => {
                let (ar, ac) = self.dims(*a);
                let kernel = Kernel::Gemm {
                    a: self.view(*a),
                    b: self.view(*b),
                    spec: *spec,
                    m: rows,
                    k: if spec.trans_a { ar } else { ac },
                    n: cols,
                };
                self.emit(id, kernel, Vec::new());
            }
            Op::Reduce { x, op } => {
                let src = self.dense(*x);
                let kernel = match *op {
                    ReduceOp::SoftmaxRows => Kernel::SoftmaxRows { src: Some(src) },
                    ReduceOp::MeanRowBlocks { block_rows } => {
                        Kernel::MeanRowBlocks { src, block_rows }
                    }
                };
                self.emit(id, kernel, Vec::new());
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let kernel = Kernel::LayerNorm {
                    src: Some(self.dense(*x)),
                    gamma: self.dense(*gamma),
                    beta: self.dense(*beta),
                    eps: *eps,
                };
                self.emit(id, kernel, Vec::new());
            }
            Op::AddTileRows { x, tile, .. } => {
                let kernel = Kernel::AddTileRows {
                    src: Some(self.dense(*x)),
                    tile: self.dense(*tile),
                };
                self.emit(id, kernel, Vec::new());
            }
            Op::ConcatRows { parts } => {
                let parts = parts.iter().map(|p| self.dense(*p)).collect();
                self.emit(id, Kernel::ConcatRows { parts }, Vec::new());
            }
            Op::ConcatCols { parts } => {
                let parts = parts
                    .iter()
                    .map(|p| (self.dense(*p), self.dims(*p).1))
                    .collect();
                self.emit(id, Kernel::ConcatCols { parts }, Vec::new());
            }
            Op::Attention {
                q,
                k,
                v,
                samples,
                heads,
            } => {
                let kernel = Kernel::Attention {
                    q: self.dense(*q),
                    k: self.dense(*k),
                    v: self.dense(*v),
                    shape: simd::AttentionShape {
                        seq: rows / samples,
                        heads: *heads,
                        head_dim: cols / heads,
                    },
                };
                self.emit(id, kernel, Vec::new());
            }
            Op::SliceRows { x, start, .. } => {
                let view = self.view(*x);
                let window = view.window(start * view.row_stride, rows, cols);
                self.loc[id] = Some((window, None));
            }
            Op::SliceCols { x, start, .. } => {
                self.loc[id] = Some((self.view(*x).window(*start, rows, cols), None));
            }
            Op::Reshape { x, .. } => {
                let view = View {
                    row_stride: cols,
                    ..self.dense(*x)
                };
                self.loc[id] = Some((view, None));
            }
        }
    }
}

/// Pass 1: lowers the nodes `output` depends on to steps over registers
/// (inputs `0..n`, then one per step). Returns the steps and the register
/// holding the output.
fn lower(graph: &Graph, output: ExprId) -> Result<(Vec<Step>, usize), GraphError> {
    let n = graph.nodes.len();
    if output.0 >= n {
        return Err(GraphError::UnknownExpr {
            id: output.0,
            nodes: n,
        });
    }
    // Reachability + per-use consumer counts from the output.
    let mut reachable = vec![false; n];
    let mut consumers = vec![0usize; n];
    let mut stack = vec![output.0];
    while let Some(id) = stack.pop() {
        if !std::mem::replace(&mut reachable[id], true) {
            for_each_operand(&graph.nodes[id].op, |op_id| {
                consumers[op_id.0] += 1;
                stack.push(op_id.0);
            });
        }
    }
    let mut lowering = Lowering {
        graph,
        consumers,
        loc: vec![None; n],
        steps: Vec::new(),
    };
    for id in (0..n).filter(|&id| reachable[id]) {
        lowering.lower_node(id);
    }
    // The output must be a register of its own: an input, a constant or a
    // view of something larger is copied out.
    let (out_view, out_step) = lowering.loc[output.0].expect("output is reachable");
    let out_step = out_step.unwrap_or_else(|| {
        let src = Some(out_view);
        lowering.emit(output.0, Kernel::Copy { src }, Vec::new());
        lowering.steps.len() - 1
    });
    Ok((lowering.steps, graph.input_dims.len() + out_step))
}

/// The arena's free ranges as `(offset, len)`: sorted by offset, never
/// empty, never adjacent (a released range coalesces with its neighbours).
#[derive(Default)]
struct FreeRanges {
    ranges: Vec<(usize, usize)>,
    /// The arena's length so far.
    arena_len: usize,
}

impl FreeRanges {
    /// Claims `size` elements: the lowest free range that fits, else the
    /// arena grows (by as little as a free range at its end allows).
    fn take(&mut self, size: usize) -> usize {
        if size == 0 {
            return 0;
        }
        if let Some(i) = self.ranges.iter().position(|&(_, len)| len >= size) {
            let (offset, len) = self.ranges[i];
            if len == size {
                self.ranges.remove(i);
            } else {
                self.ranges[i] = (offset + size, len - size);
            }
            return offset;
        }
        let offset = match self.ranges.last() {
            Some(&(offset, len)) if offset + len == self.arena_len => {
                self.ranges.pop();
                offset
            }
            _ => self.arena_len,
        };
        self.arena_len = offset + size;
        offset
    }

    fn release(&mut self, offset: usize, size: usize) {
        if size == 0 {
            return;
        }
        let mut i = self.ranges.partition_point(|&(o, _)| o < offset);
        self.ranges.insert(i, (offset, size));
        if i > 0 && self.ranges[i - 1].0 + self.ranges[i - 1].1 == offset {
            i -= 1;
            self.ranges[i].1 += self.ranges.remove(i + 1).1;
        }
        if i + 1 < self.ranges.len() && self.ranges[i].0 + self.ranges[i].1 == self.ranges[i + 1].0
        {
            self.ranges[i].1 += self.ranges.remove(i + 1).1;
        }
    }
}

/// Pass 2: gives every register a range of the arena by liveness, placing
/// eligible row-wise steps in place (their `src` becomes `None`); see the
/// module docs. Returns each register's arena offset, the arena's length
/// and the most registers live at once.
fn plan_arena(
    steps: &mut [Step],
    input_sizes: &[usize],
    out_reg: usize,
) -> (Vec<usize>, usize, usize) {
    let n_in = input_sizes.len();
    let mut last_use: Vec<Option<usize>> = vec![None; n_in + steps.len()];
    for (idx, step) in steps.iter_mut().enumerate() {
        step.views_mut(|v| {
            if let Ref::Reg(reg) = v.base {
                last_use[reg] = Some(idx);
            }
        });
    }
    last_use[out_reg] = Some(usize::MAX);

    let mut free = FreeRanges::default();
    let mut sizes = input_sizes.to_vec();
    let mut offsets: Vec<usize> = input_sizes.iter().map(|&size| free.take(size)).collect();
    let (mut live, mut peak_live) = (n_in, n_in);
    // An input nothing reads is dead once the caller has filled it.
    for reg in (0..n_in).filter(|&reg| last_use[reg].is_none()) {
        free.release(offsets[reg], sizes[reg]);
        live -= 1;
    }
    for (idx, step) in steps.iter_mut().enumerate() {
        let size = step.rows * step.cols;
        // Registers whose last use is this step, with how many of the
        // step's views read them.
        let mut dying: Vec<(usize, usize)> = Vec::new();
        step.views_mut(|v| match v.base {
            Ref::Reg(reg) if last_use[reg] == Some(idx) => {
                match dying.iter_mut().find(|(d, _)| *d == reg) {
                    Some((_, reads)) => *reads += 1,
                    None => dying.push((reg, 1)),
                }
            }
            _ => {}
        });
        let in_place = step.row_wise_src().and_then(|src| {
            let view = (*src)?;
            let Ref::Reg(reg) = view.base else {
                return None;
            };
            let whole = view.offset == 0 && sizes[reg] == size;
            (whole && dying.contains(&(reg, 1))).then(|| {
                *src = None;
                reg
            })
        });
        let scratch = step.kernel.scratch_len();
        offsets.push(match in_place {
            Some(reg) => offsets[reg],
            // Claimed BEFORE this step's operands are released, so the
            // output (and the scratch right after it) never overlaps a
            // buffer the kernel still reads; the scratch dies with the step.
            None => {
                live += 1;
                let offset = free.take(size + scratch);
                free.release(offset + size, scratch);
                offset
            }
        });
        sizes.push(size);
        peak_live = peak_live.max(live);
        for &(reg, _) in dying.iter().filter(|(reg, _)| Some(*reg) != in_place) {
            free.release(offsets[reg], sizes[reg]);
            live -= 1;
        }
    }
    (offsets, free.arena_len, peak_live)
}

/// Visits every operand [`ExprId`] of one op.
fn for_each_operand(op: &Op, mut f: impl FnMut(ExprId)) {
    match op {
        Op::Input { .. } | Op::Constant { .. } => {}
        Op::Unary { x, .. } => f(*x),
        Op::Matmul { a, b, .. } | Op::Binary { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Op::Reduce { x, .. } => f(*x),
        Op::AddRowBroadcast { x, row } => {
            f(*x);
            f(*row);
        }
        Op::LayerNorm { x, gamma, beta, .. } => {
            f(*x);
            f(*gamma);
            f(*beta);
        }
        Op::AddTileRows { x, tile, .. } => {
            f(*x);
            f(*tile);
        }
        Op::Attention { q, k, v, .. } => {
            f(*q);
            f(*k);
            f(*v);
        }
        Op::ConcatRows { parts } | Op::ConcatCols { parts } => {
            for p in parts {
                f(*p);
            }
        }
        Op::SliceRows { x, .. } | Op::SliceCols { x, .. } | Op::Reshape { x, .. } => f(*x),
    }
}
