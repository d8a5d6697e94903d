//! Tests of the plan shapes that views and in-place steps produce: which
//! kernels a graph lowers to, that the arena plan is sound (no step
//! writes over a register something still reads), and that compiled
//! output is `to_bits`-equal to evaluating the same graph one node at a
//! time with eager `Tensor` ops.

use proptest::prelude::*;
use tensor::rng::SeededRng;
use tensor::{BinaryOp, MatmulSpec, Tensor, TensorError, UnaryOp};

use crate::compile::{CompiledPlan, Kernel, Ref};
use crate::{Compiler, ExprId, Graph, GraphError};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn compile(g: &Graph, out: ExprId) -> CompiledPlan {
    let plan = Compiler::new().compile(g, out).unwrap();
    assert_arena_is_sound(&plan);
    plan
}

fn run(plan: &CompiledPlan, inputs: &[&Tensor]) -> Tensor {
    plan.execute(inputs).unwrap()
}

fn kernels(plan: &CompiledPlan) -> Vec<&'static str> {
    plan.steps().map(|step| step.kernel).collect()
}

/// True iff step `idx` was planned in place (its row-wise source is gone).
fn in_place(plan: &CompiledPlan, idx: usize) -> bool {
    matches!(
        plan.steps[idx].kernel,
        Kernel::Copy { src: None }
            | Kernel::SoftmaxRows { src: None }
            | Kernel::LayerNorm { src: None, .. }
            | Kernel::AddTileRows { src: None, .. }
    )
}

/// Replays the plan's register lifetimes, independently of the planner's
/// free list: every view must read, in bounds, a register that already
/// exists; and no step's output range may overlap a register that this or
/// a later step reads. An in-place step's source has no reader left by
/// then — the step itself no longer names it — so an in-place step whose
/// source has a later reader fails here.
fn assert_arena_is_sound(plan: &CompiledPlan) {
    let n_in = plan.input_dims.len();
    let mut steps = plan.steps.clone();
    let sizes: Vec<usize> = (plan.input_dims.iter().map(|&(r, c)| r * c))
        .chain(steps.iter().map(|s| s.rows * s.cols))
        .collect();
    let range = |reg: usize| plan.reg_offsets[reg]..plan.reg_offsets[reg] + sizes[reg];
    let mut last_read = vec![None; sizes.len()];
    for (idx, step) in steps.iter_mut().enumerate() {
        step.views_mut(|v| {
            if let Ref::Reg(reg) = v.base {
                last_read[reg] = Some(idx);
            }
        });
    }
    last_read[plan.out_reg] = Some(usize::MAX);
    assert_eq!(sizes[plan.out_reg], plan.out_rows * plan.out_cols);
    assert!(
        (0..n_in).all(|i| range(i).start == sizes[..i].iter().sum::<usize>()),
        "inputs are not back to back at the front of the arena"
    );
    for (idx, step) in steps.iter_mut().enumerate() {
        let out = n_in + idx;
        assert!(
            range(out).end <= plan.arena_len,
            "step {idx} leaves the arena"
        );
        step.views_mut(|v| {
            if let Ref::Reg(reg) = v.base {
                assert!(reg < out, "step {idx} reads register {reg} too early");
                assert!(v.offset + v.len <= sizes[reg], "step {idx} overreads {reg}");
            }
        });
        // The step writes its output and, right after it, its scratch.
        let scratch = range(out).end..range(out).end + step.kernel.scratch_len();
        assert!(
            scratch.end <= plan.arena_len,
            "step {idx}'s scratch leaves the arena"
        );
        for reg in (0..out).filter(|&reg| last_read[reg] >= Some(idx)) {
            for b in [range(out), scratch.clone()] {
                let a = range(reg);
                assert!(
                    a.is_empty() || b.is_empty() || a.end <= b.start || b.end <= a.start,
                    "step {idx} writes {b:?} over register {reg} at {a:?}, read until step {:?}",
                    last_read[reg]
                );
            }
        }
    }
}

fn t(rows: usize, cols: usize, seed: u64) -> Tensor {
    SeededRng::new(seed).uniform_tensor(&[rows, cols], -1.0, 1.0)
}

#[test]
fn softmax_runs_in_place_only_when_its_source_dies_whole() {
    let x = t(4, 6, 1);

    // Source dies at the softmax: in place, in the input's own bytes.
    let mut g = Graph::new();
    let xi = g.input(4, 6);
    let out = g.softmax_rows(xi).unwrap();
    let plan = compile(&g, out);
    assert!(in_place(&plan, 0));
    assert_eq!(plan.arena_bytes(), 4 * 6 * 4);
    assert_eq!(bits(&run(&plan, &[&x])), bits(&x.softmax_rows().unwrap()));

    // Softmax over a (whole) slice whose base is read again later: the
    // base is still live, so the step must copy.
    let mut g = Graph::new();
    let xi = g.input(4, 6);
    let slice = g.slice_rows(xi, 0, 4).unwrap();
    let soft = g.softmax_rows(slice).unwrap();
    let out = g.binary(soft, xi, BinaryOp::Add).unwrap();
    let plan = compile(&g, out);
    assert_eq!(kernels(&plan), ["softmax_rows"]);
    assert!(
        !in_place(&plan, 0),
        "the softmax's source is read by the add"
    );
    let eager = x.softmax_rows().unwrap().add(&x).unwrap();
    assert_eq!(bits(&run(&plan, &[&x])), bits(&eager));

    // A partial slice of a dying register is not the whole register.
    let mut g = Graph::new();
    let xi = g.input(4, 6);
    let slice = g.slice_rows(xi, 1, 3).unwrap();
    let out = g.softmax_rows(slice).unwrap();
    let plan = compile(&g, out);
    assert!(!in_place(&plan, 0));
    let eager = x.slice_rows(1, 3).unwrap().softmax_rows().unwrap();
    assert_eq!(bits(&run(&plan, &[&x])), bits(&eager));
}

#[test]
fn a_source_the_step_reads_twice_is_not_overwritten() {
    // out = relu(x) + x: the relu is a copy of x carrying two post-ops,
    // the second of which reads x again.
    let x = t(3, 5, 2);
    let mut g = Graph::new();
    let xi = g.input(3, 5);
    let relu = g.unary(xi, UnaryOp::Relu).unwrap();
    let out = g.binary(relu, xi, BinaryOp::Add).unwrap();
    let plan = compile(&g, out);
    assert_eq!(plan.step_count(), 1);
    assert!(!in_place(&plan, 0));
    let eager = x.apply(UnaryOp::Relu).add(&x).unwrap();
    assert_eq!(bits(&run(&plan, &[&x])), bits(&eager));

    // Alone, the same copy runs in place: a pure post-op pass over x.
    let mut g = Graph::new();
    let xi = g.input(3, 5);
    let out = g.unary(xi, UnaryOp::Relu).unwrap();
    let plan = compile(&g, out);
    assert!(in_place(&plan, 0));
    assert_eq!(bits(&run(&plan, &[&x])), bits(&x.apply(UnaryOp::Relu)));

    // A zero-width value carries a post-op like any other: the plan
    // answers with the eager `[rows, 0]`...
    let mut g = Graph::new();
    let xi = g.input(3, 5);
    let none = g.slice_cols(xi, 1, 1).unwrap();
    let row = g.slice_rows(none, 0, 1).unwrap();
    let out = g.add_row_broadcast(none, row).unwrap();
    let plan = compile(&g, out);
    let none_e = x.slice_cols(1, 1).unwrap();
    let eager = none_e.add_row_broadcast(&none_e.slice_rows(0, 1).unwrap());
    let got = run(&plan, &[&x]);
    assert_eq!(got, eager.unwrap());
    assert_eq!(got.shape().dims(), &[3, 0]);
    // ...and its rows have no argmax, which is the eager typed error.
    let fill = |input: &mut [f32]| -> Result<(), GraphError> {
        input.copy_from_slice(x.as_slice());
        Ok(())
    };
    let argmax = |rows: &[f32]| tensor::kernels::argmax_rows(rows, plan.out_cols, &mut [0; 3]);
    assert_eq!(
        plan.execute_with(fill, argmax).unwrap(),
        Err(TensorError::Empty { op: "argmax_rows" })
    );
    assert_eq!(
        got.argmax_rows(),
        Err(TensorError::Empty { op: "argmax_rows" })
    );
}

#[test]
fn column_views_feed_a_gemm_in_place_and_anything_else_through_a_copy() {
    let (x, w) = (t(6, 8, 3), t(8, 8, 4));
    let mut g = Graph::new();
    let xi = g.input(6, 8);
    let wc = g.constant(w.clone()).unwrap();
    let a = g.slice_cols(xi, 2, 6).unwrap(); // 6×4, row stride 8
    let b_cols = g.slice_cols(wc, 3, 8).unwrap(); // 8×5 of a constant
    let b = g.slice_rows(b_cols, 1, 5).unwrap(); // 4×5: a slice of a slice
    let nn = g.matmul(a, b, MatmulSpec::NN).unwrap(); // 6×5
    let bt = g.slice_cols(wc, 1, 5).unwrap(); // 8×4, read as Bᵀ
    let nt = g.matmul(a, bt, MatmulSpec::NT).unwrap(); // 6×8
    let both = g.concat_cols(&[nn, nt]).unwrap(); // 6×13
    let ta = g.slice_cols(xi, 0, 5).unwrap(); // 6×5, read as Aᵀ
    let out = g.matmul(ta, both, MatmulSpec::TN).unwrap(); // 5×13
    let plan = compile(&g, out);
    assert_eq!(kernels(&plan), ["gemm", "gemm", "concat_cols", "gemm"]);

    let a_e = x.slice_cols(2, 6).unwrap();
    let b_e = w.slice_cols(3, 8).unwrap().slice_rows(1, 5).unwrap();
    let nt_e = a_e.matmul_nt(&w.slice_cols(1, 5).unwrap()).unwrap();
    let both_e = Tensor::concat_cols(&[&a_e.matmul(&b_e).unwrap(), &nt_e]).unwrap();
    let eager = x.slice_cols(0, 5).unwrap().matmul_tn(&both_e).unwrap();
    assert_eq!(bits(&run(&plan, &[&x])), bits(&eager));

    // The same column view into a row-wise kernel is materialised first —
    // and the softmax then runs in place on the copy.
    let mut g = Graph::new();
    let xi = g.input(6, 8);
    let a = g.slice_cols(xi, 2, 6).unwrap();
    let out = g.softmax_rows(a).unwrap();
    let plan = compile(&g, out);
    assert_eq!(kernels(&plan), ["copy", "softmax_rows"]);
    assert!(!in_place(&plan, 0) && in_place(&plan, 1));
    assert_eq!(bits(&run(&plan, &[&x])), bits(&a_e.softmax_rows().unwrap()));
}

#[test]
fn row_slices_and_reshapes_are_free_and_column_slices_copy_into_a_concat() {
    let x = t(6, 8, 5);
    let mut g = Graph::new();
    let xi = g.input(6, 8);
    let top = g.slice_rows(xi, 0, 2).unwrap();
    let bottom = g.slice_rows(xi, 4, 6).unwrap();
    let rows = g.concat_rows(&[top, bottom]).unwrap(); // 4×8, no copies
    let left = g.slice_cols(rows, 0, 3).unwrap();
    let right = g.slice_cols(rows, 5, 8).unwrap();
    let cols = g.concat_cols(&[left, right]).unwrap(); // 4×6, two copies
    let flat = g.reshape(cols, 2, 12).unwrap(); // dense: free
    let inner = g.slice_cols(flat, 1, 11).unwrap(); // 2×10, row stride 12
    let out = g.reshape(inner, 4, 5).unwrap(); // strided: one copy
    let plan = compile(&g, out);
    assert_eq!(
        kernels(&plan),
        // The last copy hands the output its own register, in place.
        ["concat_rows", "copy", "copy", "concat_cols", "copy", "copy"]
    );
    assert!(in_place(&plan, 5));

    let rows_e =
        Tensor::concat_rows(&[&x.slice_rows(0, 2).unwrap(), &x.slice_rows(4, 6).unwrap()]).unwrap();
    let cols_e = Tensor::concat_cols(&[
        &rows_e.slice_cols(0, 3).unwrap(),
        &rows_e.slice_cols(5, 8).unwrap(),
    ])
    .unwrap();
    let flat_e = cols_e.reshape(&[2, 12]).unwrap();
    let eager = flat_e.slice_cols(1, 11).unwrap().reshape(&[4, 5]).unwrap();
    assert_eq!(bits(&run(&plan, &[&x])), bits(&eager));
}

/// A graph under construction next to its node-at-a-time eager values.
struct Twin {
    g: Graph,
    ids: Vec<ExprId>,
    vals: Vec<Tensor>,
}

impl Twin {
    fn push(&mut self, id: ExprId, val: Tensor) {
        assert_eq!(
            self.g.dims(id).unwrap(),
            val.shape().as_matrix().unwrap(),
            "graph and eager shapes diverged"
        );
        self.ids.push(id);
        self.vals.push(val);
    }

    /// The first node from `from` on (cyclically) that satisfies `pred`.
    fn find(&self, from: usize, pred: impl Fn(usize, usize) -> bool) -> Option<usize> {
        let n = self.vals.len();
        (0..n).map(|i| (from + i) % n).find(|&i| {
            let (r, c) = self.vals[i].shape().as_matrix().unwrap();
            pred(r, c)
        })
    }
}

/// The per-block chain the attention step replaced, on eager tensors:
/// per `(sample, head)`, `softmax(Q·Kᵀ / √head_dim) · V`, the heads
/// joined per sample and the samples stacked.
fn eager_attention(qkv: [&Tensor; 3], samples: usize, heads: usize) -> Tensor {
    let (rows, cols) = qkv[0].shape().as_matrix().unwrap();
    let (seq, head_dim) = (rows / samples, cols / heads);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut stacked = Vec::new();
    for s in 0..samples {
        let [q, k, v] = qkv.map(|x| x.slice_rows(s * seq, (s + 1) * seq).unwrap());
        let mut joined = Vec::new();
        for h in 0..heads {
            let cut = |x: &Tensor| x.slice_cols(h * head_dim, (h + 1) * head_dim).unwrap();
            let scores = cut(&q).matmul_nt(&cut(&k)).unwrap().scale(scale);
            joined.push(scores.softmax_rows().unwrap().matmul(&cut(&v)).unwrap());
        }
        stacked.push(Tensor::concat_cols(&joined.iter().collect::<Vec<_>>()).unwrap());
    }
    Tensor::concat_rows(&stacked.iter().collect::<Vec<_>>()).unwrap()
}

#[test]
fn attention_is_one_step_whose_scratch_spares_what_is_read_later() {
    let (q, k, v) = (t(12, 8, 1), t(12, 8, 2), t(12, 8, 3));
    let mut g = Graph::new();
    let [qi, ki, vi] = [g.input(12, 8), g.input(12, 8), g.input(12, 8)];
    let attended = g.attention([qi, ki, vi], 3, 2).unwrap();
    // q is still read after the attention step: its scratch must spare it.
    let out = g.binary(attended, qi, BinaryOp::Add).unwrap();
    let plan = compile(&g, out);
    assert_eq!(kernels(&plan), ["attention"]);
    let eager = eager_attention([&q, &k, &v], 3, 2).add(&q).unwrap();
    assert_eq!(bits(&run(&plan, &[&q, &k, &v])), bits(&eager));
    assert!(matches!(
        g.attention([qi, ki, vi], 5, 2),
        Err(GraphError::ShapeMismatch {
            op: "attention",
            ..
        })
    ));
    let narrow = g.slice_cols(vi, 0, 4).unwrap();
    assert!(g.attention([qi, ki, narrow], 3, 2).is_err());
}

/// One of `n`'s divisors, chosen by `pick`.
fn divisor(n: usize, pick: usize) -> usize {
    let divisors: Vec<usize> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
    divisors[pick % divisors.len()]
}

/// Side of the square base matrices random graphs are cut from.
const SIDE: usize = 6;

/// Interprets `program` — `(op, pick, pick, pick)` tuples — into a graph
/// of slices, GEMMs over views, row-wise and row-block kernels, concats
/// and reshapes, evaluating every node eagerly alongside. Returns the
/// graph, its output, the two runtime inputs and the eager output.
fn random_twin(
    program: &[(usize, usize, usize, usize)],
    seed: u64,
) -> (Graph, ExprId, [Tensor; 2], Tensor) {
    let inputs = [t(SIDE, SIDE, seed), t(SIDE, SIDE, seed + 1)];
    let weight = t(SIDE, SIDE, seed + 2);
    let (gamma, beta) = (t(1, SIDE, seed + 3), t(1, SIDE, seed + 4));
    let mut tw = Twin {
        g: Graph::new(),
        ids: Vec::new(),
        vals: Vec::new(),
    };
    for input in &inputs {
        let id = tw.g.input(SIDE, SIDE);
        tw.push(id, input.clone());
    }
    let id = tw.g.constant(weight.clone()).unwrap();
    tw.push(id, weight);
    let gamma_id = tw.g.constant(gamma.clone()).unwrap();
    let beta_id = tw.g.constant(beta.clone()).unwrap();

    for &(op, p, q, r) in program {
        let x = p % tw.vals.len();
        let (xid, xv) = (tw.ids[x], tw.vals[x].clone());
        let (rows, cols) = xv.shape().as_matrix().unwrap();
        let base = q % 3; // one of the SIDE×SIDE base matrices
        let (bid, bv) = (tw.ids[base], tw.vals[base].clone());
        match op % 16 {
            0 => {
                let start = q % rows;
                let end = start + 1 + r % (rows - start);
                let id = tw.g.slice_rows(xid, start, end).unwrap();
                tw.push(id, xv.slice_rows(start, end).unwrap());
            }
            1 => {
                let start = q % cols;
                let end = start + 1 + r % (cols - start);
                let id = tw.g.slice_cols(xid, start, end).unwrap();
                tw.push(id, xv.slice_cols(start, end).unwrap());
            }
            // x · B with B a row window of a base (dense view).
            2 if cols <= SIDE => {
                let start = r % (SIDE - cols + 1);
                let b = tw.g.slice_rows(bid, start, start + cols).unwrap();
                let id = tw.g.matmul(xid, b, MatmulSpec::NN).unwrap();
                let b = bv.slice_rows(start, start + cols).unwrap();
                tw.push(id, xv.matmul(&b).unwrap());
            }
            // x · Bᵀ with B a column window of a base (strided view).
            3 if cols <= SIDE => {
                let start = r % (SIDE - cols + 1);
                let b = tw.g.slice_cols(bid, start, start + cols).unwrap();
                let id = tw.g.matmul(xid, b, MatmulSpec::NT).unwrap();
                let b = bv.slice_cols(start, start + cols).unwrap();
                tw.push(id, xv.matmul_nt(&b).unwrap());
            }
            // xᵀ · B with B a row-and-column window of a base.
            4 if rows <= SIDE => {
                let (start, width) = (r % (SIDE - rows + 1), 1 + r % SIDE);
                let b = tw.g.slice_rows(bid, start, start + rows).unwrap();
                let b = tw.g.slice_cols(b, 0, width).unwrap();
                let id = tw.g.matmul(xid, b, MatmulSpec::TN).unwrap();
                let b = bv.slice_rows(start, start + rows).unwrap();
                let b = b.slice_cols(0, width).unwrap();
                tw.push(id, xv.matmul_tn(&b).unwrap());
            }
            5 => {
                let op = [
                    UnaryOp::Relu,
                    UnaryOp::Tanh,
                    UnaryOp::Gelu,
                    UnaryOp::MulScalar(0.37),
                    UnaryOp::AddScalar(-0.2),
                ][q % 5];
                let id = tw.g.unary(xid, op).unwrap();
                tw.push(id, xv.apply(op));
            }
            6 => {
                let y = tw.find(q, |r, c| (r, c) == (rows, cols)).unwrap();
                let op = [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul][r % 3];
                let id = tw.g.binary(xid, tw.ids[y], op).unwrap();
                let val = xv.binary(&tw.vals[y], op).unwrap();
                tw.push(id, val);
            }
            7 => {
                let id = tw.g.softmax_rows(xid).unwrap();
                tw.push(id, xv.softmax_rows().unwrap());
            }
            8 if cols <= SIDE => {
                let gv = tw.g.slice_cols(gamma_id, 0, cols).unwrap();
                let bv = tw.g.slice_cols(beta_id, 0, cols).unwrap();
                let id = tw.g.layer_norm(xid, gv, bv, 1e-5).unwrap();
                let (ge, be) = (gamma.slice_cols(0, cols), beta.slice_cols(0, cols));
                let val = xv.layer_norm_rows(&ge.unwrap(), &be.unwrap(), 1e-5);
                tw.push(id, val.unwrap());
            }
            9 if xv.len() <= 200 => {
                let y = tw.find(q, |r, c| c == cols && r * c <= 200).unwrap();
                let id = tw.g.concat_rows(&[xid, tw.ids[y]]).unwrap();
                let val = Tensor::concat_rows(&[&xv, &tw.vals[y]]).unwrap();
                tw.push(id, val);
            }
            10 if xv.len() <= 200 => {
                let y = tw.find(q, |r, c| r == rows && r * c <= 200).unwrap();
                let id = tw.g.concat_cols(&[xid, tw.ids[y]]).unwrap();
                let val = Tensor::concat_cols(&[&xv, &tw.vals[y]]).unwrap();
                tw.push(id, val);
            }
            11 => {
                let (nr, nc) = if q % 2 == 0 {
                    (cols, rows)
                } else {
                    (1, rows * cols)
                };
                let id = tw.g.reshape(xid, nr, nc).unwrap();
                tw.push(id, xv.reshape(&[nr, nc]).unwrap());
            }
            12 => {
                // A bias row cut out of any node of the same width.
                let y = tw.find(q, |_, c| c == cols).unwrap();
                let at = r % tw.vals[y].shape().as_matrix().unwrap().0;
                let row = tw.g.slice_rows(tw.ids[y], at, at + 1).unwrap();
                let id = tw.g.add_row_broadcast(xid, row).unwrap();
                let row = tw.vals[y].slice_rows(at, at + 1).unwrap();
                tw.push(id, xv.add_row_broadcast(&row).unwrap());
            }
            // x + tile, the tile a row window of any node of x's width:
            // row-wise, so it runs in place when x dies here.
            13 => {
                let reps = divisor(rows, q);
                let tile_rows = rows / reps;
                let y = tw.find(r, |yr, c| c == cols && yr >= tile_rows).unwrap();
                let at = r % (tw.vals[y].shape().as_matrix().unwrap().0 - tile_rows + 1);
                let tile = tw.g.slice_rows(tw.ids[y], at, at + tile_rows).unwrap();
                let id = tw.g.add_tile_rows(xid, tile, reps).unwrap();
                let tile = tw.vals[y].slice_rows(at, at + tile_rows).unwrap();
                let tiled = Tensor::concat_rows(&vec![&tile; reps]).unwrap();
                tw.push(id, xv.add(&tiled).unwrap());
            }
            14 => {
                let block_rows = divisor(rows, q);
                let id = tw.g.mean_row_blocks(xid, block_rows).unwrap();
                tw.push(id, xv.mean_row_blocks(block_rows).unwrap());
            }
            // x attending over keys and values of any two nodes of its
            // shape (views welcome), in sequences and heads that divide it.
            15 => {
                let y = tw.find(q, |yr, yc| (yr, yc) == (rows, cols)).unwrap();
                let z = tw.find(r, |zr, zc| (zr, zc) == (rows, cols)).unwrap();
                let (samples, heads) = (divisor(rows, q), divisor(cols, r));
                let qkv = [xid, tw.ids[y], tw.ids[z]];
                let id = tw.g.attention(qkv, samples, heads).unwrap();
                let qkv = [&xv, &tw.vals[y], &tw.vals[z]];
                tw.push(id, eager_attention(qkv, samples, heads));
            }
            _ => {} // a guard above declined this shape
        }
    }

    // Keep the last few nodes all live to the end: flatten each to a row
    // (reshaping a strided view materialises it) and join them.
    let tail = tw.vals.len().saturating_sub(4);
    let mut flat_ids = Vec::new();
    let mut flat_vals = Vec::new();
    for i in tail..tw.vals.len() {
        let len = tw.vals[i].len();
        flat_ids.push(tw.g.reshape(tw.ids[i], 1, len).unwrap());
        flat_vals.push(tw.vals[i].reshape(&[1, len]).unwrap());
    }
    let out = tw.g.concat_cols(&flat_ids).unwrap();
    let eager = Tensor::concat_cols(&flat_vals.iter().collect::<Vec<_>>()).unwrap();
    (tw.g, out, inputs, eager)
}

proptest! {
    /// Random graphs of views over views: the planned arena is sound and
    /// the compiled output has the eager evaluation's bits — run twice on
    /// the thread's arena, whose bytes are stale the second time.
    #[test]
    fn random_view_graphs_match_node_at_a_time_evaluation(
        program in proptest::collection::vec(
            (0usize..16, 0usize..1000, 0usize..1000, 0usize..1000),
            4..28,
        ),
        seed in 0u64..1000,
    ) {
        let (g, out, inputs, eager) = random_twin(&program, seed);
        let plan = compile(&g, out);
        for pass in 0..2 {
            let got = plan.execute(&[&inputs[0], &inputs[1]]).unwrap();
            prop_assert!(
                bits(&got) == bits(&eager),
                "pass {pass}: compiled {:?} vs eager {:?} (kernels {:?})",
                got.as_slice(),
                eager.as_slice(),
                kernels(&plan)
            );
        }
    }
}
