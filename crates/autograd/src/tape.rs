// Justified exception to the workspace RefCell ban, for this module only:
// the tape is a per-pass, per-thread recorder by design (see the threading
// note on [`Tape`]); making it Sync would add lock traffic to every
// recorded op for no sharing benefit. vital-lint pins the ban itself in
// ci/lint-rules.toml.
#![allow(clippy::disallowed_types)]

use std::cell::RefCell;
use std::fmt;

use tensor::{Tensor, TensorError};

use crate::Result;

/// Gradient function: maps the gradient flowing into a node to the gradients
/// of that node's parents (same order as `parents`).
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) parents: Vec<usize>,
    pub(crate) backward: Option<BackwardFn>,
}

/// A Wengert list recording a single forward computation.
///
/// Create variables with [`Tape::var`] (tracked) or [`Tape::constant`]
/// (recorded but typically used for data / masks whose gradient is ignored),
/// combine them through [`Var`] methods, then call [`Tape::backward`] on a
/// scalar result; it returns the [`Gradients`] of that result.
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
/// output with respect to every variable that output depends on.
#[derive(Debug)]
pub struct Gradients(Vec<Option<Tensor>>);

impl Gradients {
    /// The gradient with respect to `var`; `None` if the differentiated
    /// output does not depend on it.
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

    /// Records a tracked variable holding `value` and returns its handle.
    pub fn var(&self, value: Tensor) -> Var<'_> {
        self.push(value, Vec::new(), None)
    }

    /// Records a constant. Functionally identical to [`Tape::var`]; the name
    /// documents intent (inputs, masks and targets rather than parameters).
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.var(value)
    }

    pub(crate) fn push(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            parents,
            backward,
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
    /// # Errors
    /// Returns an error if `output` is not a single-element tensor or if a
    /// recorded backward function produces a gradient of mismatched shape.
    pub fn backward(&self, output: Var<'_>) -> Result<Gradients> {
        let nodes = self.nodes.borrow();
        let n = nodes.len();
        if nodes[output.id].value.len() != 1 {
            return Err(TensorError::RankMismatch {
                op: "backward",
                expected: 0,
                actual: nodes[output.id].value.shape().rank(),
            });
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[output.id] = Some(Tensor::full(nodes[output.id].value.shape().dims(), 1.0));

        for id in (0..=output.id).rev() {
            let Some(grad_out) = grads[id].clone() else {
                continue;
            };
            let node = &nodes[id];
            let Some(backward) = &node.backward else {
                continue;
            };
            let parent_grads = backward(&grad_out);
            debug_assert_eq!(parent_grads.len(), node.parents.len());
            for (parent, pg) in node.parents.iter().zip(parent_grads) {
                let parent_shape = nodes[*parent].value.shape().clone();
                if !pg.shape().same_as(&parent_shape) {
                    return Err(TensorError::ShapeMismatch {
                        op: "backward.accumulate",
                        lhs: pg.shape().dims().to_vec(),
                        rhs: parent_shape.dims().to_vec(),
                    });
                }
                grads[*parent] = Some(match grads[*parent].take() {
                    Some(existing) => existing.add(&pg)?,
                    None => pg,
                });
            }
        }
        Ok(Gradients(grads))
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tape").field("nodes", &self.len()).finish()
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
}
