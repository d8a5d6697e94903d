//! The Adam optimizer and the mini-batch training loop that drives it.

use std::collections::HashMap;

use autograd::{Tape, Var};
use tensor::kernels::{adam_update, AdamStep};
use tensor::rng::{DrawKey, SeededRng};
use tensor::{Tensor, TensorError};

use crate::{Param, Session};

/// Mini-batch gradient descent over `samples` training rows for `epochs`
/// passes: the one training loop every model's `fit` runs.
///
/// Each epoch shuffles the row order with a [`SeededRng`] of `seed`; each
/// `batch_size` chunk of it gets a fresh [`Tape`] and a training
/// [`Session::keyed`] by `DrawKey::new(seed, [epoch, batch])`, so every
/// batch of every epoch draws its own dropout masks.
/// `batch_loss(session, epoch, indices)` records the batch on it and
/// returns the scalar loss; any augmentation it applies is keyed by the
/// model, not drawn from the loop. The loop owns the rest:
/// [`Session::backward`], [`Adam::step`] on the gradients it returns, and
/// the epoch's mean loss, handed to `progress(epoch, mean)` as the epoch
/// ends and returned for all epochs.
///
/// # Errors
/// Whatever `batch_loss` returns, and tape errors from the backward pass.
pub fn minibatches<E: From<TensorError>>(
    optimizer: &mut Adam,
    samples: usize,
    batch_size: usize,
    epochs: usize,
    seed: u64,
    mut batch_loss: impl for<'t> FnMut(&mut Session<'t>, usize, &[usize]) -> Result<Var<'t>, E>,
    mut progress: impl FnMut(usize, f32),
) -> Result<Vec<f32>, E> {
    let mut rng = SeededRng::new(seed);
    let mut order: Vec<usize> = (0..samples).collect();
    let mut epoch_losses = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        for (batch, indices) in order.chunks(batch_size).enumerate() {
            let tape = Tape::new();
            let mut session = Session::keyed(&tape, DrawKey::new(seed, [epoch, batch]));
            let loss = batch_loss(&mut session, epoch, indices)?;
            epoch_loss += loss.value().item()?;
            optimizer.step(&session.backward(loss)?);
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

    /// Applies one update to every parameter in `grads` (what
    /// [`Session::backward`] returned), keeping its moment estimates by
    /// [`Param::key`]. A parameter absent from `grads` is left alone.
    ///
    /// # Panics
    /// Panics if a gradient's shape differs from its parameter's: a
    /// programming error in the caller, not a user input error.
    pub fn step(&mut self, grads: &[(Param, Tensor)]) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let step = AdamStep {
            lr: self.learning_rate,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            inv_bias1: 1.0 / (1.0 - self.beta1.powf(t)),
            inv_bias2: 1.0 / (1.0 - self.beta2.powf(t)),
        };
        for (p, grad) in grads {
            let mut w = p.value();
            assert!(
                grad.shape().same_as(w.shape()),
                "gradient shape {:?} does not match parameter {} shape {:?}",
                grad.shape().dims(),
                p.name(),
                w.shape().dims()
            );
            let (m, v) = self
                .moments
                .entry(p.key())
                .or_insert_with(|| (grad.zeros_like(), grad.zeros_like()));
            adam_update(
                w.as_mut_slice(),
                grad.as_slice(),
                m.as_mut_slice(),
                v.as_mut_slice(),
                &step,
            );
            p.set_value(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_quadratic() {
        let p = Param::new("x", Tensor::from_vec(vec![3.0, -2.0, 1.0], &[3]).unwrap());
        let mut adam = Adam::new(0.1);
        for _ in 0..300 {
            // f(x) = 0.5 * ||x||^2, grad = x
            adam.step(&[(p.clone(), p.value())]);
        }
        assert!(p.value().norm() < 1e-2);
        assert_eq!(adam.steps(), 300);
        assert_eq!(adam.learning_rate(), 0.1);
    }

    #[test]
    fn optimizers_skip_params_without_grad() {
        let p = Param::new("x", Tensor::ones(&[2]));
        let q = Param::new("y", Tensor::ones(&[2]));
        let mut adam = Adam::new(0.5);
        adam.step(&[(q.clone(), Tensor::ones(&[2]))]);
        assert_eq!(p.value(), Tensor::ones(&[2]));
        assert_eq!(p.version(), 0);
        assert_ne!(q.value(), Tensor::ones(&[2]));
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn mismatched_gradient_panics() {
        let p = Param::new("w", Tensor::zeros(&[3]));
        Adam::new(0.1).step(&[(p, Tensor::ones(&[2]))]);
    }

    /// The update `Adam::step` ran before `adam_update` existed, one
    /// allocating `Tensor` op per arithmetic operation.
    fn tensor_op_chain(
        adam: &Adam,
        t: f32,
        w: &Tensor,
        grad: &Tensor,
        m: &Tensor,
        v: &Tensor,
    ) -> [Tensor; 3] {
        let bias1 = 1.0 - adam.beta1.powf(t);
        let bias2 = 1.0 - adam.beta2.powf(t);
        let m = m
            .scale(adam.beta1)
            .add(&grad.scale(1.0 - adam.beta1))
            .unwrap();
        let v = v
            .scale(adam.beta2)
            .add(&grad.mul(grad).unwrap().scale(1.0 - adam.beta2))
            .unwrap();
        let m_hat = m.scale(1.0 / bias1);
        let v_hat = v.scale(1.0 / bias2);
        let eps = adam.eps;
        let denom = v_hat.map(|x| x.sqrt() + eps);
        let update = m_hat.div(&denom).unwrap().scale(adam.learning_rate);
        [w.sub(&update).unwrap(), m, v]
    }

    #[test]
    fn adam_update_matches_the_tensor_op_chain_bit_for_bit() {
        let specials = [
            0.0,
            -0.0,
            1e-41, // denormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            0.37,
            -1.5e3,
            f32::MIN_POSITIVE,
            6.1e-5,
            -2.0e-3,
        ];
        // Every special value meets every other as weight, gradient and
        // first moment; the second moment stays non-negative as Adam's is.
        let n = specials.len();
        let table = |f: &dyn Fn(usize) -> f32| {
            let data = (0..n * n * n).map(f).collect();
            std::hint::black_box(Tensor::from_vec(data, &[n * n * n]).unwrap())
        };
        let w = table(&|i| specials[i % n]);
        let grad = table(&|i| specials[i / n % n]);
        let m = table(&|i| specials[i / (n * n)]);
        let v = table(&|i| specials[(i + i / n) % n].abs());
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for step in [1u64, 2, 1000] {
            let p = Param::new("w", w.clone());
            let mut adam = Adam::new(1e-3);
            adam.step_count = step - 1;
            adam.moments.insert(p.key(), (m.clone(), v.clone()));
            let [want_w, want_m, want_v] = tensor_op_chain(&adam, step as f32, &w, &grad, &m, &v);
            adam.step(&[(p.clone(), grad.clone())]);
            let (got_m, got_v) = &adam.moments[&p.key()];
            assert_eq!(bits(&p.value()), bits(&want_w), "weights at step {step}");
            assert_eq!(bits(got_m), bits(&want_m), "first moment at step {step}");
            assert_eq!(bits(got_v), bits(&want_v), "second moment at step {step}");
        }
    }
}
