//! Dense `f32` tensors for the VITAL indoor-localization reproduction.
//!
//! This crate is the numeric substrate underneath the `autograd` and
//! `nn` crates: a small, dependency-light, row-major dense tensor with the
//! operations a compact vision transformer needs — blocked matrix
//! multiplication, elementwise arithmetic with simple broadcasting,
//! reductions, softmax/log-sum-exp helpers, and seeded random initialisers.
//!
//! Every structural and elementwise op is written once, as an
//! allocation-free slice-level function in [`kernels`]; the `Tensor`
//! methods allocate a result and call it, and the `graph` crate's compiled
//! plans call the same function on arena slices.
//!
//! The design goal is *predictability over generality*: every tensor is a
//! contiguous row-major buffer plus a shape; there are no lazily-evaluated
//! views or stride tricks, so each operation is easy to audit and to
//! differentiate in the autograd layer above.
//!
//! The buffer lives behind an [`std::sync::Arc`] with **copy-on-write**
//! mutation: clones are `O(1)` reference bumps, `Tensor` is `Send + Sync`,
//! and shared weight data is read across threads with no locks — the
//! storage substrate of the `Send + Sync` model stack and the serve
//! layer's shared-weight replica workers. Mutation through
//! [`Tensor::as_mut_slice`] detaches onto a private copy only when the
//! buffer is actually shared, so freshly built tensors (every kernel
//! output) are mutated in place at the old cost and results are
//! bit-identical either way.
//!
//! # Example
//!
//! ```
//! use tensor::Tensor;
//!
//! # fn main() -> Result<(), tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
pub mod kernels;
mod matmul;
mod named_ops;
mod ops;
mod reduce;
pub mod rng;
mod shape;
mod tensor_impl;

pub use error::TensorError;
pub use matmul::{gemm_strided_into_at, MatmulSpec};
pub use named_ops::{BinaryOp, UnaryOp, GELU_COEFF, SQRT_2_OVER_PI};
pub use shape::Shape;
pub use tensor_impl::Tensor;

/// Convenience alias for results returned by tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
