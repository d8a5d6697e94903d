//! Named elementwise operations: the vocabulary both executors share.
//!
//! Historically the hot inference paths applied activations through opaque
//! closures (`x.map(|v| …)`), which a compiler — or a static analyzer —
//! cannot see through. [`UnaryOp`] and [`BinaryOp`] name every elementwise
//! operation the inference stack uses. Each has one scalar definition
//! ([`UnaryOp::eval`], [`BinaryOp::eval`]) and one slice-level sweep
//! ([`UnaryOp::apply_slice_at`], [`crate::kernels::binary_assign`]);
//! [`Tensor::apply`] / [`Tensor::binary`] on the tape and a fused post-op
//! of a compiled plan both call that sweep, so the two agree bit for bit
//! by construction.

use crate::{kernels, Result, Tensor, TensorError};

pub use simd::{GELU_COEFF, SQRT_2_OVER_PI};

/// A named elementwise unary operation.
///
/// Every variant is a pure scalar function evaluated by [`UnaryOp::eval`];
/// tensors apply it elementwise via [`Tensor::apply`] /
/// [`Tensor::apply_inplace`], and the graph compiler fuses chains of these
/// into single-pass kernels with identical per-element arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryOp {
    /// `max(x, 0)`.
    Relu,
    /// Tanh-approximation GELU:
    /// `0.5 · x · (1 + tanh(√(2/π) · (x + 0.044715 · x³)))`.
    Gelu,
    /// Logistic sigmoid `1 / (1 + e^(−x))`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Natural exponent `e^x`.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// `x + c` for a fixed scalar `c`.
    AddScalar(f32),
    /// `x · c` for a fixed scalar `c`.
    MulScalar(f32),
}

impl UnaryOp {
    /// Evaluates the operation on one scalar.
    ///
    /// This is the shared definition both execution modes use; the
    /// transcendental variants delegate to [`simd::scalar`], which is the
    /// *same generic kernel code* the vectorized sweeps run, so a
    /// per-element call and a [`simd::apply_act`] sweep agree
    /// bit-for-bit at every dispatch level.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => simd::scalar::relu(x),
            UnaryOp::Gelu => simd::scalar::gelu(x),
            UnaryOp::Sigmoid => simd::scalar::sigmoid(x),
            UnaryOp::Tanh => simd::scalar::tanh(x),
            UnaryOp::Exp => simd::scalar::exp(x),
            UnaryOp::Ln => x.ln(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Abs => x.abs(),
            UnaryOp::AddScalar(c) => x + c,
            UnaryOp::MulScalar(c) => x * c,
        }
    }

    /// Applies the operation to every element of `data` in place, at the
    /// [`simd::active_level`].
    pub fn apply_slice(self, data: &mut [f32]) {
        self.apply_slice_at(simd::active_level(), data);
    }

    /// [`UnaryOp::apply_slice`] pinned at an explicit dispatch level — what
    /// a compiled plan's fused post-ops call with the level they latched.
    ///
    /// The transcendental variants run the dispatched SIMD sweep; the
    /// rest are single IEEE operations, so the `match` sits *outside* the
    /// loop and each arm is a plain loop the compiler vectorizes
    /// (per-element [`UnaryOp::eval`] re-dispatches on every element and
    /// does not). One operation per element either way: same bits.
    pub fn apply_slice_at(self, level: simd::Level, data: &mut [f32]) {
        let act = match self {
            UnaryOp::Relu => simd::Act::Relu,
            UnaryOp::Gelu => simd::Act::Gelu,
            UnaryOp::Sigmoid => simd::Act::Sigmoid,
            UnaryOp::Tanh => simd::Act::Tanh,
            UnaryOp::Exp => simd::Act::Exp,
            UnaryOp::Ln => return data.iter_mut().for_each(|v| *v = v.ln()),
            UnaryOp::Sqrt => return data.iter_mut().for_each(|v| *v = v.sqrt()),
            UnaryOp::Abs => return data.iter_mut().for_each(|v| *v = v.abs()),
            UnaryOp::AddScalar(c) => return data.iter_mut().for_each(|v| *v += c),
            UnaryOp::MulScalar(c) => return data.iter_mut().for_each(|v| *v *= c),
        };
        simd::apply_act(level, act, data);
    }
}

/// A named elementwise binary operation between same-shape tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `a + b`.
    Add,
    /// `a − b`.
    Sub,
    /// `a · b`.
    Mul,
    /// `a / b`.
    Div,
}

impl BinaryOp {
    /// Evaluates the operation on one pair of scalars (`a` is the
    /// left-hand operand).
    #[inline]
    pub fn eval(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
        }
    }
}

impl Tensor {
    /// Applies a named unary operation elementwise, returning a new tensor.
    ///
    /// Semantically `self.map(|v| op.eval(v))`, but the transcendental
    /// variants run through the runtime-dispatched SIMD kernels
    /// ([`simd::apply_act`]); at every dispatch level the
    /// result is bit-identical to the per-element form.
    pub fn apply(&self, op: UnaryOp) -> Tensor {
        let mut out = self.clone();
        out.apply_inplace(op);
        out
    }

    /// Applies a named unary operation elementwise in place.
    pub fn apply_inplace(&mut self, op: UnaryOp) {
        op.apply_slice(self.as_mut_slice());
    }

    /// `grad ⊙ GELU′(self)`: the gradient that reaches the input of a
    /// GELU node whose output received `grad`, in one dispatched sweep
    /// ([`simd::gelu_backward`]) whose tanh is [`UnaryOp::Gelu`]'s bit for
    /// bit.
    ///
    /// # Errors
    /// Returns [`crate::TensorError::ShapeMismatch`] if the shapes differ.
    pub fn gelu_backward(&self, grad: &Tensor) -> Result<Tensor> {
        if !self.shape().same_as(grad.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: "gelu_backward",
                lhs: self.shape().dims().to_vec(),
                rhs: grad.shape().dims().to_vec(),
            });
        }
        let mut out = grad.clone();
        simd::gelu_backward(simd::active_level(), self.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// Applies a named binary operation elementwise against a same-shape
    /// tensor (`self` is the left-hand operand).
    ///
    /// # Errors
    /// Returns [`crate::TensorError::ShapeMismatch`] if the shapes differ.
    pub fn binary(&self, other: &Tensor, op: BinaryOp) -> Result<Tensor> {
        if !self.shape().same_as(other.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: match op {
                    BinaryOp::Add => "add",
                    BinaryOp::Sub => "sub",
                    BinaryOp::Mul => "mul",
                    BinaryOp::Div => "div",
                },
                lhs: self.shape().dims().to_vec(),
                rhs: other.shape().dims().to_vec(),
            });
        }
        let mut out = self.clone();
        kernels::binary_assign(op, out.as_mut_slice(), other.as_slice());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_matches_per_element_eval() {
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.5, 2.0], &[5]).unwrap();
        // Vectorized sweeps and per-element eval share one generic kernel
        // and are bit-identical at every dispatch level.
        for op in [
            UnaryOp::Relu,
            UnaryOp::Gelu,
            UnaryOp::Sigmoid,
            UnaryOp::Tanh,
            UnaryOp::Exp,
        ] {
            let swept = x.apply(op);
            let per_elem = x.map(|v| op.eval(v));
            assert_eq!(swept, per_elem, "{op:?} sweep vs per-element");
        }
        assert_eq!(x.apply(UnaryOp::Abs), x.map(f32::abs));
        assert_eq!(x.apply(UnaryOp::AddScalar(1.5)), x.add_scalar(1.5));
        assert_eq!(x.apply(UnaryOp::MulScalar(-3.0)), x.scale(-3.0));
    }

    #[test]
    fn exact_ops_sweep_to_the_bits_of_per_element_eval() {
        // `apply_slice` hoists the op's `match` out of the loop; each arm
        // must still be the one IEEE operation `eval` performs (NaNs from
        // the negative logarithms and roots included).
        let x = Tensor::from_vec((0..37).map(|i| i as f32 * 0.31 - 4.0).collect(), &[37]).unwrap();
        for op in [
            UnaryOp::Ln,
            UnaryOp::Sqrt,
            UnaryOp::Abs,
            UnaryOp::AddScalar(1.5),
            UnaryOp::MulScalar(-0.25),
        ] {
            let mut swept = x.as_slice().to_vec();
            op.apply_slice(&mut swept);
            for (got, &v) in swept.iter().zip(x.as_slice()) {
                assert_eq!(got.to_bits(), op.eval(v).to_bits(), "{op:?}({v})");
            }
        }
    }

    #[test]
    fn transcendentals_track_libm() {
        for v in [-4.0f32, -1.0, -0.3, 0.0, 0.3, 1.0, 4.0] {
            assert!((UnaryOp::Exp.eval(v) - v.exp()).abs() <= 1e-6 * v.exp());
            assert!((UnaryOp::Tanh.eval(v) - v.tanh()).abs() <= 5e-7);
            assert!((UnaryOp::Sigmoid.eval(v) - 1.0 / (1.0 + (-v).exp())).abs() <= 5e-7);
        }
    }

    #[test]
    fn gelu_formula_is_the_tanh_approximation() {
        let x = 0.5f32;
        let inner = SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x);
        let want = 0.5 * x * (1.0 + inner.tanh());
        assert!((UnaryOp::Gelu.eval(x) - want).abs() <= 5e-7);
        assert_eq!(UnaryOp::Gelu.eval(0.0), 0.0);
    }

    #[test]
    fn apply_inplace_matches_apply() {
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0], &[3]).unwrap();
        let mut y = x.clone();
        y.apply_inplace(UnaryOp::Abs);
        assert_eq!(y, x.apply(UnaryOp::Abs));
    }

    #[test]
    fn binary_dispatches_to_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 4.0, 9.0, f32::NAN], &[4]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 0.0, 3.0], &[4]).unwrap();
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div] {
            let got = a.binary(&b, op).unwrap();
            assert_eq!(got.shape(), a.shape());
            for ((g, &x), &y) in got.as_slice().iter().zip(a.as_slice()).zip(b.as_slice()) {
                assert_eq!(g.to_bits(), op.eval(x, y).to_bits(), "{op:?}({x}, {y})");
            }
        }
        assert!(a.binary(&Tensor::zeros(&[2]), BinaryOp::Add).is_err());
    }
}
