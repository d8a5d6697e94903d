//! Neural-network building blocks for the VITAL reproduction.
//!
//! Built on top of the [`tensor`] and [`autograd`] crates, this crate
//! provides the layers, optimizers and training session plumbing shared by
//! the VITAL vision transformer ([`vital`]) and the comparison baselines
//! ([`baselines`]): dense layers, layer normalisation, multi-head
//! self-attention, feed-forward blocks, 1-D convolutions, stacked
//! autoencoders, the Adam optimizer and dropout.
//!
//! # Architecture
//!
//! * [`Param`] — a shared, thread-safe parameter tensor: the weights,
//!   behind one lock, and nothing else. Params — and therefore every layer
//!   and model built from them — are `Send + Sync`; a reader snapshots the
//!   weights in `O(1)` and then reads them with no lock at all.
//! * [`Trace`] — a recorder of the named ops a forward pass is made of.
//!   It has two implementations: [`Session`] records onto an autograd tape
//!   (training; in eval mode, the eager bit-exactness oracle) and
//!   [`graph::Graph`] records into the expression IR that compiles to a
//!   fused inference plan.
//! * [`Session`] — wraps an autograd [`autograd::Tape`] for one forward /
//!   backward pass, registering every parameter used so
//!   [`Session::backward`] can return each one's gradient.
//! * [`Layer`] implementations — own their [`Param`]s and define their
//!   arithmetic exactly once, as `forward<T: Trace>(&self, t, input)`.
//! * [`optim`] — [`optim::Adam`], which updates the values held by
//!   [`Param`]s from the gradients a backward pass returned, and the one
//!   mini-batch loop that drives it.
//!
//! # How to write a layer
//!
//! Write one `pub fn forward<T: Trace>(&self, t: &mut T, x: T::Node, …)
//! -> Result<T::Node, T::Error>` that calls only `t`'s methods and other
//! layers' `forward`s. That single body is the training pass, the compiled
//! inference plan and the oracle the plan is checked against, so there is
//! nothing to keep in step. Raise the layer's own shape errors as
//! [`tensor::TensorError`]s (`.into()` converts them for either recorder),
//! take a weight with `t.param(&self.weight)`, and treat a single sample
//! as a stack of one. Record order is plan step order: put ops that should
//! run back to back next to each other.
//!
//! To add an op a layer needs, see "Adding an op" on [`Trace`].
//!
//! # Example: one gradient step on a dense layer
//!
//! ```
//! use autograd::Tape;
//! use nn::{Dense, Init, Layer, Session};
//! use nn::optim::Adam;
//! use tensor::rng::SeededRng;
//! use tensor::Tensor;
//!
//! # fn main() -> Result<(), tensor::TensorError> {
//! let mut rng = SeededRng::new(0);
//! let dense = Dense::new(&mut rng, 4, 2, Init::Xavier);
//! let mut adam = Adam::new(0.1);
//!
//! let tape = Tape::new();
//! let mut session = Session::new(&tape, true, 42);
//! let x = session.constant(Tensor::ones(&[3, 4]));
//! let out = dense.forward(&mut session, x)?;
//! let loss = out.softmax_cross_entropy(&[0, 1, 0])?;
//! adam.step(&session.backward(loss)?);
//! # Ok(())
//! # }
//! ```
//!
//! [`vital`]: https://docs.rs/vital
//! [`baselines`]: https://docs.rs/baselines

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod attention;
mod autoencoder;
mod conv;
mod dense;
mod init;
mod layer_norm;
mod mlp;
pub mod optim;
mod param;
mod session;
mod trace;

pub use attention::MultiHeadSelfAttention;
pub use autoencoder::StackedAutoencoder;
pub use conv::Conv1d;
pub use dense::Dense;
pub use init::Init;
pub use layer_norm::LayerNorm;
pub use mlp::{Activation, Mlp};
pub use param::{weight_stamp, Param};
pub use session::Session;
pub use trace::Trace;

/// Convenience alias for results returned by layer operations.
pub type Result<T> = std::result::Result<T, tensor::TensorError>;

/// Common interface of every trainable layer: exposing its parameters so an
/// optimizer (or a parameter counter) can reach them, and snapshotting /
/// restoring those parameters for model checkpoints.
pub trait Layer {
    /// All trainable parameters owned by this layer, in a stable order.
    fn params(&self) -> Vec<Param>;

    /// Total number of trainable scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Snapshot of every parameter — `(name, value)` pairs in the stable
    /// [`Layer::params`] order. This is the payload a model checkpoint
    /// persists; names are diagnostic, order is the contract.
    fn state_dict(&self) -> Vec<(String, tensor::Tensor)> {
        self.params()
            .iter()
            .map(|p| (p.name(), p.value()))
            .collect()
    }

    /// Restores every parameter from a [`Layer::state_dict`] snapshot of a
    /// layer with the same architecture. Entries are matched positionally
    /// and validated by shape, so the restored layer's forward pass is
    /// bit-identical to the snapshotted one.
    ///
    /// # Errors
    /// Returns [`tensor::TensorError::LengthMismatch`] if the entry count
    /// differs from this layer's parameter count, or
    /// [`tensor::TensorError::ShapeMismatch`] if any entry's shape differs
    /// from the corresponding parameter's.
    fn load_state(&self, state: &[(String, tensor::Tensor)]) -> Result<()> {
        let params = self.params();
        if params.len() != state.len() {
            return Err(tensor::TensorError::LengthMismatch {
                provided: state.len(),
                expected: params.len(),
            });
        }
        for (param, (_, value)) in params.iter().zip(state) {
            if !param.value().shape().same_as(value.shape()) {
                return Err(tensor::TensorError::ShapeMismatch {
                    op: "load_state",
                    lhs: param.value().shape().dims().to_vec(),
                    rhs: value.shape().dims().to_vec(),
                });
            }
        }
        for (param, (_, value)) in params.iter().zip(state) {
            param.set_value(value.clone());
        }
        Ok(())
    }
}
