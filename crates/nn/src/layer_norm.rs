use tensor::Tensor;

use crate::{Layer, Param, Trace};

/// Layer normalisation with learnable per-feature scale and shift.
///
/// Applied before every MSA and MLP sub-block in the VITAL transformer
/// encoder ("we used layer normalization before each MSA and MLP sub-block",
/// paper §V.B).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
    features: usize,
}

impl LayerNorm {
    /// Creates a layer-norm over `features`-wide rows with ε = 1e-5.
    pub fn new(features: usize) -> Self {
        LayerNorm::with_eps(features, 1e-5)
    }

    /// Creates a layer-norm with an explicit ε.
    pub fn with_eps(features: usize, eps: f32) -> Self {
        LayerNorm {
            gamma: Param::new(format!("ln.gamma[{features}]"), Tensor::ones(&[features])),
            beta: Param::new(format!("ln.beta[{features}]"), Tensor::zeros(&[features])),
            eps,
            features,
        }
    }

    /// Feature width this layer normalises over.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Records the normalisation of each row of a `[rows, features]`
    /// value; a compiled plan runs it as one fused pass per row.
    ///
    /// # Errors
    /// Returns an error if the input's column count differs from `features`.
    pub fn forward<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        let gamma = t.param(&self.gamma)?;
        let beta = t.param(&self.beta)?;
        t.layer_norm(x, gamma, beta, self.eps)
    }
}

impl Layer for LayerNorm {
    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use autograd::Tape;
    use tensor::rng::SeededRng;

    #[test]
    fn normalises_rows() {
        let ln = LayerNorm::new(8);
        assert_eq!(ln.features(), 8);
        assert_eq!(ln.param_count(), 16);
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(SeededRng::new(0).uniform_tensor(&[4, 8], -50.0, 10.0));
        let y = ln.forward(&mut session, x).unwrap().value();
        for i in 0..4 {
            let row = y.row(i).unwrap();
            assert!(row.mean().abs() < 1e-4);
            assert!((row.variance() - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn gradients_reach_gamma_beta() {
        let ln = LayerNorm::new(3);
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 0);
        let x = session.constant(SeededRng::new(1).uniform_tensor(&[2, 3], -1.0, 1.0));
        let loss = ln
            .forward(&mut session, x)
            .unwrap()
            .softmax_cross_entropy(&[0, 2])
            .unwrap();
        let grads = session.backward(loss).unwrap();
        assert_eq!(grads.len(), ln.params().len());
    }

    #[test]
    fn feature_mismatch_errors() {
        let ln = LayerNorm::new(4);
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(Tensor::ones(&[2, 3]));
        assert!(ln.forward(&mut session, x).is_err());
    }
}
