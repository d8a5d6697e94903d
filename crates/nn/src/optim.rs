//! Gradient-descent optimizers operating on [`Param`]s.

use std::collections::HashMap;

use autograd::{Tape, Var};
use tensor::rng::SeededRng;
use tensor::{Tensor, TensorError};

use crate::{Param, Session};

/// Common interface of optimizers: apply one update step using the gradients
/// currently accumulated in the given parameters.
///
/// Optimizers do **not** clear gradients; call [`Param::zero_grad`] after the
/// step (or use [`zero_grads`]).
pub trait Optimizer {
    /// Applies one update to every parameter that currently holds a gradient.
    fn step(&mut self, params: &[Param]);
}

/// Clears the gradient of every parameter in the slice.
pub fn zero_grads(params: &[Param]) {
    for p in params {
        p.zero_grad();
    }
}

/// Mini-batch gradient descent over `samples` training rows for `epochs`
/// passes: the one training loop every model's `fit` runs.
///
/// Each epoch shuffles the row order with `rng`; each `batch_size` chunk of
/// it gets a fresh [`Tape`], onto which `batch_loss(tape, epoch,
/// batch_index, indices, rng)` records the batch, returning the training
/// [`Session`] it opened (under the model's own dropout-seed formula) and
/// the scalar loss. It may draw augmentation noise from the same `rng`.
/// The loop owns the rest: [`Session::backward`], [`Optimizer::step`],
/// [`zero_grads`] and the epoch's mean loss, handed to `progress(epoch,
/// mean)` as the epoch ends and returned for all epochs.
///
/// # Errors
/// Whatever `batch_loss` returns, and tape errors from the backward pass.
#[allow(clippy::too_many_arguments)] // exactly what the per-model loops it replaced differed in
pub fn minibatches<E: From<TensorError>>(
    optimizer: &mut impl Optimizer,
    params: &[Param],
    samples: usize,
    batch_size: usize,
    epochs: usize,
    rng: &mut SeededRng,
    mut batch_loss: impl for<'t> FnMut(
        &'t Tape,
        usize,
        usize,
        &[usize],
        &mut SeededRng,
    ) -> Result<(Session<'t>, Var<'t>), E>,
    mut progress: impl FnMut(usize, f32),
) -> Result<Vec<f32>, E> {
    let mut order: Vec<usize> = (0..samples).collect();
    let mut epoch_losses = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        for (batch, indices) in order.chunks(batch_size).enumerate() {
            let tape = Tape::new();
            let (session, loss) = batch_loss(&tape, epoch, batch, indices, rng)?;
            epoch_loss += loss.value().item()?;
            session.backward(loss)?;
            optimizer.step(params);
            zero_grads(params);
        }
        let mean_loss = epoch_loss / samples.div_ceil(batch_size).max(1) as f32;
        progress(epoch, mean_loss);
        epoch_losses.push(mean_loss);
    }
    Ok(epoch_losses)
}

/// Adam optimizer (Kingma & Ba, 2015) with bias-corrected moment estimates.
#[derive(Debug)]
pub struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step_count: u64,
    moments: HashMap<usize, (Tensor, Tensor)>,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(learning_rate: f32) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step_count: 0,
            moments: HashMap::new(),
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Number of update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &[Param]) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for p in params {
            let Some(grad) = p.grad() else { continue };
            let (m, v) = self
                .moments
                .entry(p.key())
                .or_insert_with(|| (grad.zeros_like(), grad.zeros_like()));
            *m = m
                .scale(self.beta1)
                .add(&grad.scale(1.0 - self.beta1))
                .expect("moment shares the parameter shape");
            *v = v
                .scale(self.beta2)
                .add(&grad.mul(&grad).expect("same shape").scale(1.0 - self.beta2))
                .expect("moment shares the parameter shape");
            let m_hat = m.scale(1.0 / bias1);
            let v_hat = v.scale(1.0 / bias2);
            let eps = self.eps;
            let denom = v_hat.map(|x| x.sqrt() + eps);
            let update = m_hat
                .div(&denom)
                .expect("same shape")
                .scale(self.learning_rate);
            p.set_value(
                p.value()
                    .sub(&update)
                    .expect("update shares the parameter shape"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Param) {
        // f(x) = 0.5 * ||x||^2, grad = x
        p.zero_grad();
        p.accumulate_grad(&p.value());
    }

    #[test]
    fn adam_descends_quadratic() {
        let p = Param::new("x", Tensor::from_vec(vec![3.0, -2.0, 1.0], &[3]).unwrap());
        let mut adam = Adam::new(0.1);
        for _ in 0..300 {
            quadratic_grad(&p);
            adam.step(std::slice::from_ref(&p));
        }
        assert!(p.value().norm() < 1e-2);
        assert_eq!(adam.steps(), 300);
        assert_eq!(adam.learning_rate(), 0.1);
    }

    #[test]
    fn optimizers_skip_params_without_grad() {
        let p = Param::new("x", Tensor::ones(&[2]));
        let before = p.value();
        Adam::new(0.5).step(std::slice::from_ref(&p));
        assert_eq!(p.value(), before);
    }

    #[test]
    fn zero_grads_clears_all() {
        let a = Param::new("a", Tensor::ones(&[1]));
        let b = Param::new("b", Tensor::ones(&[1]));
        a.accumulate_grad(&Tensor::ones(&[1]));
        b.accumulate_grad(&Tensor::ones(&[1]));
        zero_grads(&[a.clone(), b.clone()]);
        assert!(a.grad().is_none());
        assert!(b.grad().is_none());
    }
}
