// Justified exception to the workspace RefCell ban, for this module only:
// the tape is a per-pass, per-thread recorder by design (see the threading
// note on [`Tape`]); making it Sync would add lock traffic to every
// recorded op for no sharing benefit. The ban itself is clippy.toml's
// `disallowed_types`, which `tests/static_analysis.rs` denies
// workspace-wide on its clippy command line.
#![allow(clippy::disallowed_types)]

use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

use tensor::{kernels, BinaryOp, Tensor, TensorError};

use crate::Result;

/// Gradient function: given the gradient flowing into a node, hands each
/// parent's share to the [`Accumulator`] (parent `i` is `parents[i]`).
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &mut Accumulator<'_>) -> Result<()>>;

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) parents: Vec<usize>,
    /// `None` for a leaf and for every node no [`Tape::var`] reaches.
    pub(crate) backward: Option<BackwardFn>,
    /// Whether a [`Tape::var`] reaches this node, so that its gradient can
    /// reach a parameter.
    pub(crate) active: bool,
}

/// A Wengert list recording a single forward computation.
///
/// Create variables with [`Tape::var`] (gradient leaves) or
/// [`Tape::constant`] (inputs, masks and targets, which get none), combine
/// them through [`Var`] methods, then call [`Tape::backward`] on a scalar
/// result; it returns the [`Gradients`] of that result.
///
/// A `Tape` is intended to live for exactly one forward/backward pass; build
/// a fresh tape every training step.
///
/// # Ownership and threading
///
/// A tape is deliberately a **single-threaded, per-pass** object
/// (`RefCell` inside, not `Sync`): every inference or training pass builds
/// its own tape on its own thread and drops it afterwards, so tapes never
/// cross threads and need no locks. Thread-safety lives one level down —
/// the [`Tensor`] values recorded on the tape are `Arc`-backed, so pushing
/// a model weight onto a tape is an `O(1)` snapshot *sharing* storage with
/// the parameter (and with every other thread's tape), not a copy. That
/// split — shareable immutable values, thread-local recording state — is
/// what lets N serve workers run forward passes concurrently against one
/// set of weights.
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
}

/// What one [`Tape::backward`] call computed: the gradient of its scalar
/// output with respect to every [`Tape::var`] leaf that output depends on.
/// Interior nodes' gradients are dropped as soon as the backward pass has
/// used them, and constants never get one.
#[derive(Debug)]
pub struct Gradients(Vec<Option<Tensor>>);

impl Gradients {
    /// The gradient with respect to the leaf `var`; `None` if the
    /// differentiated output does not depend on it, or if `var` is a
    /// constant or an interior node.
    pub fn get(&self, var: Var<'_>) -> Option<&Tensor> {
        self.0.get(var.id)?.as_ref()
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Returns `true` when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a tracked variable holding `value` and returns its handle:
    /// a gradient leaf.
    pub fn var(&self, value: Tensor) -> Var<'_> {
        self.leaf(value, true)
    }

    /// Records a constant: an input, mask or target rather than a
    /// parameter. It is not a gradient leaf. [`Tape::backward`] computes no
    /// gradient for it, nor for any node that only constants reach, so an
    /// op over a constant skips that operand's gradient (a training step's
    /// patch input gets no `G · Wᵀ`).
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.leaf(value, false)
    }

    fn leaf(&self, value: Tensor, active: bool) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            parents: Vec::new(),
            backward: None,
            active,
        });
        Var {
            tape: self,
            id: nodes.len() - 1,
        }
    }

    /// Whether a [`Tape::var`] reaches any of the nodes `ids`: whether an
    /// op over them will keep its backward function.
    pub(crate) fn reaches(&self, ids: &[usize]) -> bool {
        let nodes = self.nodes.borrow();
        ids.iter().any(|&id| nodes[id].active)
    }

    /// Records an op's result. A node no variable reaches keeps neither its
    /// backward function nor what that function captured.
    pub(crate) fn push(&self, value: Tensor, parents: Vec<usize>, backward: BackwardFn) -> Var<'_> {
        let active = self.reaches(&parents);
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            parents,
            backward: active.then_some(backward),
            active,
        });
        Var {
            tape: self,
            id: nodes.len() - 1,
        }
    }

    /// The current value of a variable (cloned).
    pub fn value(&self, var: Var<'_>) -> Tensor {
        self.nodes.borrow()[var.id].value.clone()
    }

    /// Runs reverse-mode accumulation from the scalar variable `output` and
    /// returns the gradients it reached.
    ///
    /// Only nodes a [`Tape::var`] reaches are differentiated. A node's
    /// contributions are summed in the order its consumers' backward
    /// functions run (the reverse of recording order), in place, and the
    /// sum is dropped once the node's own backward function has used it.
    ///
    /// # Errors
    /// Returns an error if `output` is not a single-element tensor or if a
    /// recorded backward function produces a gradient of mismatched shape.
    pub fn backward(&self, output: Var<'_>) -> Result<Gradients> {
        let nodes = self.nodes.borrow();
        let root = &nodes[output.id];
        if root.value.len() != 1 {
            return Err(TensorError::RankMismatch {
                op: "backward",
                expected: 0,
                actual: root.value.shape().rank(),
            });
        }
        let mut partials: Vec<Option<Partial>> = Vec::new();
        partials.resize_with(nodes.len(), || None);
        if root.active {
            let seed = Tensor::full(root.value.shape().dims(), 1.0);
            partials[output.id] = Some(Partial::dense(seed));
        }

        for id in (0..=output.id).rev() {
            let node = &nodes[id];
            let Some(backward) = &node.backward else {
                continue;
            };
            let Some(partial) = partials[id].take() else {
                continue;
            };
            let mut accumulator = Accumulator {
                nodes: &nodes,
                parents: &node.parents,
                partials: &mut partials,
            };
            backward(&partial.finish(), &mut accumulator)?;
        }
        let leaves = partials.into_iter().map(|p| p.map(Partial::finish));
        Ok(Gradients(leaves.collect()))
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tape").field("nodes", &self.len()).finish()
    }
}

/// A node's gradient while its consumers' contributions arrive.
///
/// The sum equals the one a zero-padded, parent-sized tensor per slice
/// contribution would give, but every addition is in place and a slice's
/// gradient is added into its block only. The elements a slice skips would
/// have had `+0.0` added. That turns a `-0.0` into `+0.0`, changes nothing
/// else and commutes with every later addition, so [`Partial::finish`]
/// applies it once, to the elements outside `covered`.
struct Partial {
    grad: Tensor,
    /// The `(rows, cols)` block every contribution so far has written;
    /// `None` while every contribution has been dense.
    covered: Option<(Range<usize>, Range<usize>)>,
}

impl Partial {
    fn dense(grad: Tensor) -> Self {
        Partial {
            grad,
            covered: None,
        }
    }

    /// The finished sum.
    fn finish(self) -> Tensor {
        let Partial { mut grad, covered } = self;
        let (Some((rows, cols)), Ok((height, width))) = (covered, grad.shape().as_matrix()) else {
            return grad;
        };
        if width == 0 || (rows.len() == height && cols.len() == width) {
            return grad;
        }
        let skipped = |part: &mut [f32]| part.iter_mut().for_each(|v| *v += 0.0);
        for (r, row) in grad.as_mut_slice().chunks_exact_mut(width).enumerate() {
            if rows.contains(&r) {
                let (head, tail) = row.split_at_mut(cols.end);
                skipped(&mut head[..cols.start]);
                skipped(tail);
            } else {
                skipped(row);
            }
        }
        grad
    }
}

/// The part two ranges share (empty, at `a`'s or `b`'s start, if none).
fn overlap(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    let start = a.start.max(b.start);
    start..a.end.min(b.end).max(start)
}

/// Where a backward function puts its parents' gradients.
///
/// Parent `i` is the `i`-th of the node's recorded parents. A contribution
/// to a parent no variable reaches is dropped unread; ask
/// [`Accumulator::wants`] first to skip computing it.
pub(crate) struct Accumulator<'a> {
    nodes: &'a [Node],
    parents: &'a [usize],
    partials: &'a mut [Option<Partial>],
}

impl Accumulator<'_> {
    /// Whether parent `i`'s gradient can reach a parameter.
    pub(crate) fn wants(&self, i: usize) -> bool {
        self.nodes[self.parents[i]].active
    }

    /// Adds `grad`, shaped like parent `i`, to that parent's gradient. A
    /// first contribution is kept as it is; later ones are added into it in
    /// place.
    pub(crate) fn add(&mut self, i: usize, grad: Tensor) -> Result<()> {
        if !self.wants(i) {
            return Ok(());
        }
        let parent = self.parents[i];
        let shape = self.nodes[parent].value.shape();
        if !grad.shape().same_as(shape) {
            return Err(TensorError::ShapeMismatch {
                op: "backward.accumulate",
                lhs: grad.shape().dims().to_vec(),
                rhs: shape.dims().to_vec(),
            });
        }
        match &mut self.partials[parent] {
            Some(partial) => {
                kernels::binary_assign(BinaryOp::Add, partial.grad.as_mut_slice(), grad.as_slice())
            }
            empty => *empty = Some(Partial::dense(grad)),
        }
        Ok(())
    }

    /// Adds `grad`, the gradient of rows `[start, start + grad.rows)` of
    /// matrix parent `i`, into those rows of the parent's gradient.
    pub(crate) fn add_rows(&mut self, i: usize, start: usize, grad: &Tensor) -> Result<()> {
        let (rows, _) = grad.shape().as_matrix()?;
        let (_, width) = self.nodes[self.parents[i]].value.shape().as_matrix()?;
        self.add_block(i, start..start + rows, 0..width, grad)
    }

    /// Adds `grad`, the gradient of columns `[start, start + grad.cols)` of
    /// matrix parent `i`, into those columns of the parent's gradient.
    pub(crate) fn add_cols(&mut self, i: usize, start: usize, grad: &Tensor) -> Result<()> {
        let (_, cols) = grad.shape().as_matrix()?;
        let (height, _) = self.nodes[self.parents[i]].value.shape().as_matrix()?;
        self.add_block(i, 0..height, start..start + cols, grad)
    }

    /// Adds the `[rows.len(), cols.len()]` matrix `grad` into block
    /// `(rows, cols)` of parent `i`'s gradient. A first contribution is
    /// copied into a zeroed buffer, so its `-0.0`s keep their sign.
    fn add_block(
        &mut self,
        i: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        grad: &Tensor,
    ) -> Result<()> {
        if !self.wants(i) {
            return Ok(());
        }
        let value = &self.nodes[self.parents[i]].value;
        let (height, width) = value.shape().as_matrix()?;
        if grad.shape().as_matrix()? != (rows.len(), cols.len())
            || rows.end > height
            || cols.end > width
        {
            return Err(TensorError::ShapeMismatch {
                op: "backward.accumulate_block",
                lhs: grad.shape().dims().to_vec(),
                rhs: value.shape().dims().to_vec(),
            });
        }
        let corner = rows.start * width + cols.start;
        let (src, w) = (grad.as_slice(), cols.len());
        match &mut self.partials[self.parents[i]] {
            Some(partial) => {
                if w > 0 {
                    let dst = &mut partial.grad.as_mut_slice()[corner..];
                    for (d, s) in dst.chunks_mut(width).zip(src.chunks_exact(w)) {
                        kernels::binary_assign(BinaryOp::Add, &mut d[..w], s);
                    }
                }
                partial.covered = Some(match &partial.covered {
                    Some((r, c)) => (overlap(r, &rows), overlap(c, &cols)),
                    None => (rows, cols),
                });
            }
            empty => {
                let mut zeroed = value.zeros_like();
                kernels::copy_rows(src, w, &mut zeroed.as_mut_slice()[corner..], width, w);
                *empty = Some(Partial {
                    grad: zeroed,
                    covered: Some((rows, cols)),
                });
            }
        }
        Ok(())
    }
}

/// Handle to a value recorded on a [`Tape`].
///
/// `Var` is a cheap `Copy` handle (tape reference + index). All mathematical
/// operations live on `Var` and push new nodes onto the owning tape.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    pub(crate) tape: &'t Tape,
    pub(crate) id: usize,
}

impl fmt::Debug for Var<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.id)
            .field("shape", &self.value().shape().dims().to_vec())
            .finish()
    }
}

impl<'t> Var<'t> {
    /// The tape this variable belongs to.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Index of this variable on its tape.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The current value (cloned).
    pub fn value(&self) -> Tensor {
        self.tape.value(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::MatmulSpec;

    #[test]
    fn leaf_roundtrip() {
        let tape = Tape::new();
        let v = tape.var(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        assert_eq!(v.value().as_slice(), &[1.0, 2.0]);
        assert_eq!(tape.len(), 1);
        assert!(!tape.is_empty());
    }

    #[test]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let v = tape.var(Tensor::zeros(&[2, 2]));
        assert!(tape.backward(v).is_err());
    }

    #[test]
    fn backward_on_leaf_scalar() {
        let tape = Tape::new();
        let v = tape.var(Tensor::scalar(5.0));
        let grads = tape.backward(v).unwrap();
        assert_eq!(grads.get(v).unwrap().as_slice(), &[1.0]);
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let tape = Tape::new();
        let v = tape.var(Tensor::scalar(1.0));
        assert!(!format!("{tape:?}").is_empty());
        assert!(format!("{v:?}").contains("Var"));
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A `[rows, cols]` matrix of distinct, mixed-sign values.
    fn ramp(rows: usize, cols: usize, seed: f32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| ((i as f32 + seed) * 0.37).sin() * 3.0)
            .collect();
        Tensor::from_vec(data, &[rows, cols]).unwrap()
    }

    #[test]
    fn constants_and_what_only_they_reach_get_no_gradient() {
        let tape = Tape::new();
        let x = tape.constant(ramp(2, 3, 0.0));
        let w = tape.var(ramp(3, 2, 1.0));
        let mask = tape.constant(ramp(2, 3, 2.0));
        let masked = x.mul(mask).unwrap();
        let loss = masked.matmul(w).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert!(grads.get(w).is_some());
        for (what, var) in [("input", x), ("mask", mask), ("their product", masked)] {
            assert!(grads.get(var).is_none(), "{what} got a gradient");
        }
        // Only the matmul and the sum kept a backward function.
        let nodes = tape.nodes.borrow();
        let kept: Vec<usize> = (0..nodes.len())
            .filter(|&id| nodes[id].backward.is_some())
            .collect();
        assert_eq!(kept, [masked.id + 1, loss.id]);
    }

    #[test]
    fn interior_gradients_are_dropped_and_leaves_kept() {
        let tape = Tape::new();
        let a = tape.var(ramp(2, 2, 0.0));
        let hidden = a.scale(2.0);
        let loss = hidden.sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(a), Some(&Tensor::full(&[2, 2], 2.0)));
        assert!(grads.get(hidden).is_none());
        assert!(grads.get(loss).is_none());
    }

    /// `matmul_ex` with one constant operand returns the other operand's
    /// gradient bit for bit as when both are variables, for every spec.
    #[test]
    fn matmul_with_a_constant_operand_keeps_the_other_gradient() {
        let (m, k, n) = (5, 7, 3);
        let weights = ramp(m, n, 9.0);
        for spec in [
            MatmulSpec::NN,
            MatmulSpec::NT,
            MatmulSpec::TN,
            MatmulSpec::TT,
        ] {
            let a = ramp(
                if spec.trans_a { k } else { m },
                if spec.trans_a { m } else { k },
                0.5,
            );
            let b = ramp(
                if spec.trans_b { n } else { k },
                if spec.trans_b { k } else { n },
                4.0,
            );
            let run = |a_is_var: bool, b_is_var: bool| {
                let tape = Tape::new();
                let leaf = |t: &Tensor, var| {
                    if var {
                        tape.var(t.clone())
                    } else {
                        tape.constant(t.clone())
                    }
                };
                let (av, bv) = (leaf(&a, a_is_var), leaf(&b, b_is_var));
                let loss = av
                    .matmul_ex(bv, spec)
                    .unwrap()
                    .mul_mask(&weights)
                    .unwrap()
                    .sum_all()
                    .unwrap();
                let grads = tape.backward(loss).unwrap();
                let (da, db) = (grads.get(av).cloned(), grads.get(bv).cloned());
                (da, db)
            };
            let (da, db) = run(true, true);
            let (da_only, none) = run(true, false);
            assert!(none.is_none(), "{spec:?}: a constant B got a gradient");
            assert_eq!(bits(&da_only.unwrap()), bits(&da.unwrap()), "{spec:?}: dA");
            let (none, db_only) = run(false, true);
            assert!(none.is_none(), "{spec:?}: a constant A got a gradient");
            assert_eq!(bits(&db_only.unwrap()), bits(&db.unwrap()), "{spec:?}: dB");
        }
    }

    /// One contribution to a `[rows, cols]` parent as the zero-padded form
    /// built it: `g` at rows `r0..`, columns `c0..`, zeros elsewhere.
    fn zero_padded(rows: usize, cols: usize, r0: usize, c0: usize, g: &Tensor) -> Tensor {
        let (gr, gc) = g.shape().as_matrix().unwrap();
        let mut full = Tensor::zeros(&[rows, cols]);
        for r in 0..gr {
            let dst = (r0 + r) * cols + c0;
            full.as_mut_slice()[dst..dst + gc].copy_from_slice(&g.as_slice()[r * gc..(r + 1) * gc]);
        }
        full
    }

    /// A parent read by two overlapping `slice_rows`, a `slice_cols` and
    /// densely, with signed zeros in every contribution: the scattered sum
    /// equals the zero-pad-then-`add` sum bit for bit, whichever consumer
    /// the backward pass reaches first.
    #[test]
    fn slices_scatter_into_their_parent_as_zero_padding_would_add() {
        let (rows, cols) = (4, 5);
        let x = ramp(rows, cols, 0.0);
        // Each consumer's gradient, with signed zeros at (0, 0) (-0.0 in the
        // two contributions that cover it, padding in the others), (2, 2)
        // (covered by all four, -0.0 in each), (3, 1) (-0.0 in the three
        // that cover it) and a few lone ones.
        let with_zeros = |mut t: Tensor, zeros: &[(usize, f32)]| {
            for &(i, z) in zeros {
                t.as_mut_slice()[i] = z;
            }
            t
        };
        let top = with_zeros(ramp(3, cols, 1.0), &[(0, -0.0), (12, -0.0), (7, 0.0)]);
        let lower = with_zeros(ramp(2, cols, 2.0), &[(1, -0.0), (2, -0.0), (6, -0.0)]);
        let column = with_zeros(ramp(rows, 2, 3.0), &[(5, -0.0), (6, -0.0)]);
        let dense = with_zeros(
            ramp(rows, cols, 4.0),
            &[(0, -0.0), (12, -0.0), (16, -0.0), (19, -0.0)],
        );
        for dense_first in [false, true] {
            let tape = Tape::new();
            let xv = tape.var(x.clone());
            fn weigh<'t>(v: Var<'t>, g: &Tensor) -> Var<'t> {
                v.mul_mask(g).unwrap().sum_all().unwrap()
            }
            // The backward pass reaches the consumers last recorded first.
            let mut terms = Vec::new();
            let mut padded = Vec::new();
            if !dense_first {
                terms.push(weigh(xv, &dense));
                padded.push(dense.clone());
            }
            terms.push(weigh(xv.slice_rows(0, 3).unwrap(), &top));
            terms.push(weigh(xv.slice_rows(2, 4).unwrap(), &lower));
            terms.push(weigh(xv.slice_cols(1, 3).unwrap(), &column));
            padded.push(zero_padded(rows, cols, 0, 0, &top));
            padded.push(zero_padded(rows, cols, 2, 0, &lower));
            padded.push(zero_padded(rows, cols, 0, 1, &column));
            if dense_first {
                terms.push(weigh(xv, &dense));
                padded.push(dense.clone());
            }
            let loss = terms[1..]
                .iter()
                .fold(terms[0], |acc, &t| acc.add(t).unwrap());
            let grads = tape.backward(loss).unwrap();

            // Today's formula: the first contribution as it is, then each
            // later one added, in the order backward reaches them.
            padded.reverse();
            let want = padded[1..]
                .iter()
                .fold(padded[0].clone(), |acc, c| acc.add(c).unwrap());
            let got = grads.get(xv).unwrap();
            assert_eq!(bits(got), bits(&want), "dense first: {dense_first}");
            let sign = |t: &Tensor, i: usize| t.as_slice()[i].to_bits() >> 31;
            assert_eq!(
                [sign(got, 0), sign(got, 12), sign(got, 16)],
                [0, 1, 0],
                "-0.0 survives only where every contribution was -0.0"
            );
        }
    }

    /// A slice consumed alone: its gradient is copied into a zeroed buffer,
    /// so a `-0.0` survives (adding it to `+0.0` would not).
    #[test]
    fn a_first_slice_contribution_keeps_its_negative_zeros() {
        let tape = Tape::new();
        let x = tape.var(ramp(3, 2, 0.0));
        let g = Tensor::from_vec(vec![-0.0, 1.5, -0.0, -2.0], &[2, 2]).unwrap();
        let loss = x
            .slice_rows(1, 3)
            .unwrap()
            .mul_mask(&Tensor::ones(&[2, 2]))
            .unwrap()
            .mul_mask(&g)
            .unwrap()
            .sum_all()
            .unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(
            bits(grads.get(x).unwrap()),
            bits(&zero_padded(3, 2, 1, 0, &g))
        );
    }
}
