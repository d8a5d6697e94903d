use autograd::{Tape, Var};
use tensor::rng::SeededRng;
use tensor::{MatmulSpec, Tensor, TensorError};

use crate::{Activation, Param, Result, Trace};

/// One forward/backward pass over a model.
///
/// A `Session` wraps an autograd [`Tape`] together with:
///
/// * the *training* flag (controls dropout),
/// * a seeded RNG for stochastic layers, and
/// * the list of [`Param`]s registered during the forward pass, so that
///   [`Session::backward`] can copy tape gradients back into the parameters
///   for the optimizer.
///
/// Build a fresh `Session` (and tape) for every batch. A session is the
/// tape-side [`crate::Trace`] recorder: layers are run on it with
/// `layer.forward(&mut session, x)`.
///
/// `Session` (with the optimizers in [`crate::optim`]) is the
/// **training-session handle** of the thread-safe parameter design:
/// its [`crate::Trace::param`] takes the lock-free `O(1)` weight snapshot
/// every reader uses, while [`Session::backward`] is the only place
/// gradients are deposited into a [`Param`]'s mutex-guarded training state.
/// Inference paths never construct anything but the tape + session pair on
/// their own thread, so serving takes no training locks.
pub struct Session<'t> {
    tape: &'t Tape,
    training: bool,
    rng: SeededRng,
    registered: Vec<(Param, Var<'t>)>,
}

impl<'t> Session<'t> {
    /// Creates a session over `tape`.
    ///
    /// `training` enables dropout; `seed` drives every stochastic layer in
    /// this pass (so a full epoch can be replayed deterministically).
    pub fn new(tape: &'t Tape, training: bool, seed: u64) -> Self {
        Session {
            tape,
            training,
            rng: SeededRng::new(seed),
            registered: Vec::new(),
        }
    }

    /// The underlying tape.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Whether dropout and other train-only behaviour is active.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Places a non-trainable tensor (input batch, target, mask) on the tape.
    pub fn constant(&self, value: Tensor) -> Var<'t> {
        self.tape.constant(value)
    }

    /// Runs the backward pass from `loss` and copies every registered
    /// parameter's gradient out of the tape (accumulating into the params).
    ///
    /// # Errors
    /// Propagates tape errors (e.g. `loss` not being a scalar).
    pub fn backward(&self, loss: Var<'t>) -> Result<()> {
        self.tape.backward(loss)?;
        for (param, var) in &self.registered {
            if let Ok(grad) = self.tape.grad(*var) {
                param.accumulate_grad(&grad);
            }
        }
        Ok(())
    }

    /// Number of parameters registered so far in this pass.
    pub fn registered_len(&self) -> usize {
        self.registered.len()
    }
}

impl<'t> Trace for Session<'t> {
    type Node = Var<'t>;
    type Error = TensorError;

    fn dims(&self, x: Var<'t>) -> Result<(usize, usize)> {
        x.value().shape().as_matrix()
    }

    fn param(&mut self, p: &Param) -> Result<Var<'t>> {
        let var = self.tape.var(p.value());
        self.registered.push((p.clone(), var));
        Ok(var)
    }

    fn matmul(&mut self, a: Var<'t>, b: Var<'t>, spec: MatmulSpec) -> Result<Var<'t>> {
        a.matmul_ex(b, spec)
    }

    fn activate(&mut self, x: Var<'t>, f: Activation) -> Result<Var<'t>> {
        Ok(match f {
            Activation::Gelu => x.gelu(),
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Identity => x,
        })
    }

    fn scale(&mut self, x: Var<'t>, c: f32) -> Result<Var<'t>> {
        Ok(x.scale(c))
    }

    fn add(&mut self, a: Var<'t>, b: Var<'t>) -> Result<Var<'t>> {
        a.add(b)
    }

    fn softmax_rows(&mut self, x: Var<'t>) -> Result<Var<'t>> {
        x.softmax_rows()
    }

    fn layer_norm(
        &mut self,
        x: Var<'t>,
        gamma: Var<'t>,
        beta: Var<'t>,
        eps: f32,
    ) -> Result<Var<'t>> {
        x.layer_norm(gamma, beta, eps)
    }

    fn add_row_broadcast(&mut self, x: Var<'t>, row: Var<'t>) -> Result<Var<'t>> {
        x.add_row_broadcast(row)
    }

    fn add_tile_rows(&mut self, x: Var<'t>, tile: Var<'t>, reps: usize) -> Result<Var<'t>> {
        x.add_tile_rows(tile, reps)
    }

    fn mean_row_blocks(&mut self, x: Var<'t>, block_rows: usize) -> Result<Var<'t>> {
        x.mean_pool_row_blocks(block_rows)
    }

    fn concat_rows(&mut self, parts: &[Var<'t>]) -> Result<Var<'t>> {
        Var::concat_rows(parts)
    }

    fn concat_cols(&mut self, parts: &[Var<'t>]) -> Result<Var<'t>> {
        Var::concat_cols(parts)
    }

    fn slice_rows(&mut self, x: Var<'t>, start: usize, end: usize) -> Result<Var<'t>> {
        x.slice_rows(start, end)
    }

    fn slice_cols(&mut self, x: Var<'t>, start: usize, end: usize) -> Result<Var<'t>> {
        x.slice_cols(start, end)
    }

    fn dropout(&mut self, x: Var<'t>, rate: f32) -> Result<Var<'t>> {
        if !self.training || rate <= 0.0 {
            return Ok(x);
        }
        let dims: Vec<usize> = x.value().shape().dims().to_vec();
        let mask = self.rng.dropout_mask(&dims, rate);
        x.mul_mask(&mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Tape;

    #[test]
    fn registers_params_and_collects_grads() {
        let p = Param::new("w", Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 0);
        let w = session.param(&p).unwrap();
        let x = session.constant(Tensor::from_vec(vec![4.0, 5.0], &[2]).unwrap());
        let loss = w.mul(x).unwrap().sum_all().unwrap();
        session.backward(loss).unwrap();
        assert_eq!(session.registered_len(), 1);
        assert_eq!(p.grad().unwrap().as_slice(), &[4.0, 5.0]);
    }

    #[test]
    fn dropout_disabled_in_eval_mode() {
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(Tensor::ones(&[4, 4]));
        let y = session.dropout(x, 0.9).unwrap();
        assert_eq!(y.value(), Tensor::ones(&[4, 4]));
        assert!(!session.is_training());
    }

    #[test]
    fn dropout_zeroes_and_rescales_in_training() {
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 7);
        let x = session.constant(Tensor::ones(&[100, 10]));
        let y = session.dropout(x, 0.5).unwrap().value();
        let zeros = y.as_slice().iter().filter(|v| **v == 0.0).count();
        assert!(zeros > 300 && zeros < 700, "zeros = {zeros}");
        let kept = y.as_slice().iter().find(|v| **v != 0.0).unwrap();
        assert!((kept - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dropout_with_zero_rate_is_identity() {
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 7);
        let x = session.constant(Tensor::ones(&[2, 2]));
        let y = session.dropout(x, 0.0).unwrap();
        assert_eq!(y.value(), Tensor::ones(&[2, 2]));
    }

    #[test]
    fn same_seed_same_dropout_mask() {
        let run = |seed: u64| {
            let tape = Tape::new();
            let mut session = Session::new(&tape, true, seed);
            let x = session.constant(Tensor::ones(&[10, 10]));
            session.dropout(x, 0.3).unwrap().value()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
