//! Reverse-mode automatic differentiation over dense [`tensor::Tensor`]s.
//!
//! The crate implements a classic *tape* (Wengert list) design: a [`Tape`]
//! records every primitive operation performed on [`Var`] handles during a
//! forward pass, and [`Tape::backward`] walks the recorded list in reverse and
//! returns the [`Gradients`] with respect to every [`Tape::var`] leaf.
//!
//! The backward pass does only the work those gradients need. A node
//! records whether a variable reaches it; a [`Tape::constant`] (an input, a
//! mask, a target) and every node that only constants reach get no
//! gradient, so a product with a constant input computes the weight's
//! gradient and skips the input's. Each node's gradient is summed in one
//! buffer, in place and in a fixed order, a slice's gradient is added into
//! its range of the parent's, and the sum is dropped as soon as the
//! node's own backward function has used it. The sums are bit for bit the
//! ones a zero-padded, freshly allocated contribution per consumer would
//! give.
//!
//! The set of primitives is deliberately the exact set needed by the VITAL
//! vision transformer and the comparison baselines: dense affine maps,
//! multi-head self-attention as one node ([`Var::attention`], one
//! dispatched kernel each way), slicing and concatenation, row softmax,
//! layer normalisation, GELU/ReLU/tanh/sigmoid activations, dropout via
//! constant masks, and classification / regression losses.
//!
//! # Example
//!
//! ```
//! use autograd::Tape;
//! use tensor::Tensor;
//!
//! # fn main() -> Result<(), tensor::TensorError> {
//! let tape = Tape::new();
//! let x = tape.var(Tensor::from_vec(vec![1.0, 2.0], &[1, 2])?);
//! let w = tape.var(Tensor::from_vec(vec![3.0, 4.0], &[2, 1])?);
//! let y = x.matmul(w)?;          // y = 1*3 + 2*4 = 11
//! let loss = y.sum_all()?;
//! let grads = tape.backward(loss)?;
//! assert_eq!(grads.get(w).unwrap().as_slice(), &[1.0, 2.0]); // dy/dw = x
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod activation;
mod attention;
mod loss;
mod norm;
mod ops;
mod structural;
mod tape;

pub use tape::{Gradients, Tape, Var};

/// Convenience alias for results returned by autograd operations.
pub type Result<T> = std::result::Result<T, tensor::TensorError>;
