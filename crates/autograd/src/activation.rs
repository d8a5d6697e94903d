//! Differentiable activation functions: ReLU, GELU, tanh, sigmoid and
//! row-wise softmax.

use tensor::{Tensor, UnaryOp};

use crate::tape::Accumulator;
use crate::{Result, Var};

/// Scalar GELU — delegates to the shared named op so the autograd forward
/// and the fused graph kernels run the same expression (test reference).
#[cfg(test)]
fn gelu_scalar(x: f32) -> f32 {
    UnaryOp::Gelu.eval(x)
}

impl<'t> Var<'t> {
    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        let x = self.value();
        let value = x.apply(UnaryOp::Relu);
        self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                acc.add(0, g.mul(&mask)?)
            }),
        )
    }

    /// Gaussian error linear unit (tanh approximation), the non-linearity
    /// used inside the ViT encoder MLP and classification head. Its
    /// backward is one dispatched sweep ([`Tensor::gelu_backward`]) that
    /// evaluates the forward's tanh again, bit for bit.
    pub fn gelu(self) -> Var<'t> {
        let x = self.value();
        let value = x.apply(UnaryOp::Gelu);
        self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| acc.add(0, x.gelu_backward(g)?)),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(self) -> Var<'t> {
        let value = self.value().apply(UnaryOp::Tanh);
        let y = value.clone();
        self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                acc.add(0, g.mul(&y.map(|v| 1.0 - v * v))?)
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(self) -> Var<'t> {
        let value = self.value().apply(UnaryOp::Sigmoid);
        let y = value.clone();
        self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                acc.add(0, g.mul(&y.map(|v| v * (1.0 - v)))?)
            }),
        )
    }

    /// Row-wise softmax (over the last axis of a matrix). Its backward is
    /// the one `simd::attention_backward` repeats for the attention
    /// weights.
    ///
    /// # Errors
    /// Returns an error for rank-0 or rank>2 tensors.
    pub fn softmax_rows(self) -> Result<Var<'t>> {
        let value = self.value().softmax_rows()?;
        let s = value.clone();
        Ok(self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                // dX = S ⊙ (G - rowsum(G ⊙ S))
                let (rows, cols) = s.shape().as_matrix()?;
                let gs = g.mul(&s)?;
                let mut out = vec![0.0f32; rows * cols];
                for i in 0..rows {
                    let dot: f32 = gs.as_slice()[i * cols..(i + 1) * cols].iter().sum();
                    for j in 0..cols {
                        let idx = i * cols + j;
                        out[idx] = s.as_slice()[idx] * (g.as_slice()[idx] - dot);
                    }
                }
                acc.add(0, Tensor::from_vec(out, s.shape().dims())?)
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

    /// Central-difference gradient check for a scalar-valued function of one
    /// tensor input.
    fn finite_diff<F>(x: &Tensor, f: F) -> Tensor
    where
        F: Fn(&Tensor) -> f32,
    {
        let eps = 1e-3;
        let mut grad = x.zeros_like();
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[i] -= eps;
            grad.as_mut_slice()[i] = (f(&plus) - f(&minus)) / (2.0 * eps);
        }
        grad
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn relu_forward_and_grad() {
        let tape = Tape::new();
        let x = tape.var(t(&[-1.0, 0.5, 2.0], &[3]));
        let loss = x.relu().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(loss.value().item().unwrap(), 2.5);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn gelu_matches_finite_difference() {
        let xv = t(&[-2.0, -0.5, 0.0, 0.7, 1.5], &[5]);
        let tape = Tape::new();
        let x = tape.var(xv.clone());
        let loss = x.gelu().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        let numeric = finite_diff(&xv, |v| v.map(super::gelu_scalar).sum());
        assert_close(grads.get(x).unwrap(), &numeric, 1e-2);
    }

    #[test]
    fn gelu_gradient_is_finite_for_every_finite_input() {
        let grad = |x: f32| {
            let tape = Tape::new();
            let v = tape.var(t(&[x], &[1]));
            let loss = v.gelu().sum_all().unwrap();
            tape.backward(loss).unwrap().get(v).unwrap().as_slice()[0]
        };
        assert_eq!(grad(0.0), 0.5);
        assert_eq!(grad(-0.0), 0.5);
        // Saturated tanh: the slope term is 0 even where `x²` overflows.
        for x in [6e19, 1e20, f32::MAX, 1e30, 12.0] {
            assert_eq!(grad(x), 1.0, "GELU'({x})");
            assert_eq!(grad(-x), 0.0, "GELU'({})", -x);
        }
        assert!(grad(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0, GELU(large) ≈ x, GELU(-large) ≈ 0
        assert!(super::gelu_scalar(0.0).abs() < 1e-7);
        assert!((super::gelu_scalar(6.0) - 6.0).abs() < 1e-3);
        assert!(super::gelu_scalar(-6.0).abs() < 1e-3);
    }

    #[test]
    fn tanh_and_sigmoid_gradients() {
        let xv = t(&[-1.0, 0.0, 1.0], &[3]);
        let tape = Tape::new();
        let x = tape.var(xv.clone());
        let loss = x.tanh().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        let numeric = finite_diff(&xv, |v| v.map(f32::tanh).sum());
        assert_close(grads.get(x).unwrap(), &numeric, 1e-2);

        let tape2 = Tape::new();
        let x2 = tape2.var(xv.clone());
        let loss2 = x2.sigmoid().sum_all().unwrap();
        let grads2 = tape2.backward(loss2).unwrap();
        let numeric2 = finite_diff(&xv, |v| v.map(|u| 1.0 / (1.0 + (-u).exp())).sum());
        assert_close(grads2.get(x2).unwrap(), &numeric2, 1e-2);
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        let xv = t(&[0.2, -0.4, 1.3, 0.0, 0.9, -1.1], &[2, 3]);
        // Loss = sum of softmax * fixed weights (to get a non-trivial grad).
        let w = t(&[1.0, 2.0, 3.0, -1.0, 0.5, 0.0], &[2, 3]);
        let tape = Tape::new();
        let x = tape.var(xv.clone());
        let loss = x
            .softmax_rows()
            .unwrap()
            .mul_mask(&w)
            .unwrap()
            .sum_all()
            .unwrap();
        let grads = tape.backward(loss).unwrap();
        let wc = w.clone();
        let numeric = finite_diff(&xv, move |v| {
            v.softmax_rows().unwrap().mul(&wc).unwrap().sum()
        });
        assert_close(grads.get(x).unwrap(), &numeric, 1e-2);
    }

    #[test]
    fn softmax_rows_forward_is_normalized() {
        let tape = Tape::new();
        let x = tape.var(t(&[5.0, 5.0, 5.0, 1.0, 2.0, 3.0], &[2, 3]));
        let s = x.softmax_rows().unwrap().value();
        assert!((s.row(0).unwrap().sum() - 1.0).abs() < 1e-6);
        assert!((s.at(0, 0).unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }
}
