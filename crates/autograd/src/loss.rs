//! Differentiable training losses: softmax cross-entropy for the reference
//! point classification problem and mean squared error for regression /
//! autoencoder baselines.

use tensor::Tensor;

use crate::tape::Accumulator;
use crate::{Result, Var};

impl<'t> Var<'t> {
    /// Mean softmax cross-entropy between logits (`batch × classes`) and
    /// integer class targets.
    ///
    /// The value is averaged over the batch. The gradient with respect to the
    /// logits is `(softmax − one-hot) / batch`.
    ///
    /// # Errors
    /// Returns an error if `self` is not a matrix, `targets.len()` differs
    /// from the number of rows, or any target index is out of range.
    pub fn softmax_cross_entropy(self, targets: &[usize]) -> Result<Var<'t>> {
        let logits = self.value();
        let (batch, classes) = logits.shape().as_matrix()?;
        if targets.len() != batch {
            return Err(tensor::TensorError::ShapeMismatch {
                op: "softmax_cross_entropy",
                lhs: vec![batch, classes],
                rhs: vec![targets.len()],
            });
        }
        if let Some(&bad) = targets.iter().find(|&&t| t >= classes) {
            return Err(tensor::TensorError::IndexOutOfBounds {
                op: "softmax_cross_entropy",
                index: bad,
                bound: classes,
            });
        }

        let probs = logits.softmax_rows()?;
        let mut total = 0.0f32;
        for (i, &target) in targets.iter().enumerate() {
            let p = probs.at(i, target)?.max(1e-12);
            total -= p.ln();
        }
        let value = Tensor::scalar(total / batch as f32);

        let targets_owned = targets.to_vec();
        Ok(self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                let scale = g.as_slice()[0] / batch as f32;
                let mut grad = probs.clone();
                for (i, &target) in targets_owned.iter().enumerate() {
                    let current = grad.at(i, target)?;
                    grad.set(i, target, current - 1.0)?;
                }
                acc.add(0, grad.scale(scale))
            }),
        ))
    }

    /// Mean squared error against a constant target tensor of identical shape.
    ///
    /// # Errors
    /// Returns an error if the shapes differ.
    pub fn mse_loss(self, target: &Tensor) -> Result<Var<'t>> {
        let pred = self.value();
        if !pred.shape().same_as(target.shape()) {
            return Err(tensor::TensorError::ShapeMismatch {
                op: "mse_loss",
                lhs: pred.shape().dims().to_vec(),
                rhs: target.shape().dims().to_vec(),
            });
        }
        let n = pred.len() as f32;
        let diff = pred.sub(target)?;
        let value = Tensor::scalar(diff.as_slice().iter().map(|d| d * d).sum::<f32>() / n);
        Ok(self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                acc.add(0, diff.scale(2.0 * g.as_slice()[0] / n))
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::Tape;
    use tensor::Tensor;

    fn t(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_classes() {
        let tape = Tape::new();
        let logits = tape.var(Tensor::zeros(&[2, 4]));
        let loss = logits.softmax_cross_entropy(&[0, 3]).unwrap();
        assert!((loss.value().item().unwrap() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_decreases_for_confident_correct_prediction() {
        let tape = Tape::new();
        let confident = tape.var(t(&[10.0, 0.0, 0.0], &[1, 3]));
        let uncertain = tape.var(t(&[1.0, 0.0, 0.0], &[1, 3]));
        let lc = confident.softmax_cross_entropy(&[0]).unwrap();
        let lu = uncertain.softmax_cross_entropy(&[0]).unwrap();
        assert!(lc.value().item().unwrap() < lu.value().item().unwrap());
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let tape = Tape::new();
        let logits_t = t(&[1.0, 2.0, 0.5, -0.5, 0.0, 1.5], &[2, 3]);
        let logits = tape.var(logits_t.clone());
        let loss = logits.softmax_cross_entropy(&[1, 2]).unwrap();
        let grads = tape.backward(loss).unwrap();
        let probs = logits_t.softmax_rows().unwrap();
        let g = grads.get(logits).unwrap();
        for i in 0..2 {
            for j in 0..3 {
                let onehot = if (i == 0 && j == 1) || (i == 1 && j == 2) {
                    1.0
                } else {
                    0.0
                };
                let expected = (probs.at(i, j).unwrap() - onehot) / 2.0;
                assert!((g.at(i, j).unwrap() - expected).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn cross_entropy_validates_inputs() {
        let tape = Tape::new();
        let logits = tape.var(Tensor::zeros(&[2, 3]));
        assert!(logits.softmax_cross_entropy(&[0]).is_err());
        assert!(logits.softmax_cross_entropy(&[0, 3]).is_err());
    }

    #[test]
    fn mse_loss_value_and_gradient() {
        let tape = Tape::new();
        let pred = tape.var(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let target = t(&[0.0, 2.0, 3.0, 8.0], &[2, 2]);
        let loss = pred.mse_loss(&target).unwrap();
        // mean of [1, 0, 0, 16] = 4.25
        assert!((loss.value().item().unwrap() - 4.25).abs() < 1e-6);
        let grads = tape.backward(loss).unwrap();
        // grad = 2*(pred-target)/4
        assert_eq!(grads.get(pred).unwrap().as_slice(), &[0.5, 0.0, 0.0, -2.0]);
        assert!(pred.mse_loss(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn gradient_descent_on_mse_converges() {
        // Minimal end-to-end sanity check: fit y = 2x with a single weight.
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[4, 1]);
        let y = t(&[2.0, 4.0, 6.0, 8.0], &[4, 1]);
        let mut w = t(&[0.0], &[1, 1]);
        for _ in 0..200 {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let wv = tape.var(w.clone());
            let pred = xv.matmul(wv).unwrap();
            let loss = pred.mse_loss(&y).unwrap();
            let grads = tape.backward(loss).unwrap();
            let gw = grads.get(wv).unwrap();
            w = w.sub(&gw.scale(0.05)).unwrap();
        }
        assert!((w.as_slice()[0] - 2.0).abs() < 1e-2);
    }
}
