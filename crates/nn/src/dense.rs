use tensor::rng::SeededRng;
use tensor::{MatmulSpec, Tensor};

use crate::{Init, Layer, Param, Trace};

/// A fully-connected affine layer: `y = x W + b`.
///
/// Input is a `[batch, in_features]` matrix; output is
/// `[batch, out_features]`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer with the given initialisation for the weight
    /// (the bias always starts at zero).
    pub fn new(rng: &mut SeededRng, in_features: usize, out_features: usize, init: Init) -> Self {
        Dense {
            weight: Param::new(
                format!("dense.w[{in_features}x{out_features}]"),
                init.weight(rng, in_features, out_features),
            ),
            bias: Param::new(
                format!("dense.b[{out_features}]"),
                Tensor::zeros(&[out_features]),
            ),
            in_features,
            out_features,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Records the affine map over a `[batch, in_features]` value. In a
    /// compiled plan the bias add fuses into the GEMM's output pass.
    ///
    /// # Errors
    /// Returns an error if the input's column count differs from
    /// `in_features`.
    pub fn forward<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        let w = t.param(&self.weight)?;
        self.forward_with(t, x, w)
    }

    /// The layer's `[in_features, out_features]` weight.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// [`Dense::forward`] with `weight` (any `[k, out_features]` value, `k`
    /// the input's width) standing in for the layer's own: the bias, and
    /// its fusion into the product, are the layer's.
    ///
    /// # Errors
    /// Returns an error if the input's column count differs from
    /// `weight`'s row count, or `weight`'s width from `out_features`.
    pub fn forward_with<T: Trace>(
        &self,
        t: &mut T,
        x: T::Node,
        weight: T::Node,
    ) -> Result<T::Node, T::Error> {
        let b = t.param(&self.bias)?;
        let product = t.matmul(x, weight, MatmulSpec::NN)?;
        t.add_row_broadcast(product, b)
    }
}

impl Layer for Dense {
    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use autograd::Tape;

    #[test]
    fn forward_shape_and_param_count() {
        let mut rng = SeededRng::new(0);
        let layer = Dense::new(&mut rng, 4, 3, Init::Xavier);
        assert_eq!(layer.param_count(), 4 * 3 + 3);
        assert_eq!(layer.in_features(), 4);
        assert_eq!(layer.out_features(), 3);

        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(Tensor::ones(&[2, 4]));
        let y = layer.forward(&mut session, x).unwrap();
        assert_eq!(y.value().shape().dims(), &[2, 3]);
    }

    #[test]
    fn gradients_reach_weight_and_bias() {
        let mut rng = SeededRng::new(3);
        let layer = Dense::new(&mut rng, 2, 2, Init::Xavier);
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 0);
        let x = session.constant(Tensor::ones(&[4, 2]));
        let loss = layer
            .forward(&mut session, x)
            .unwrap()
            .softmax_cross_entropy(&[0, 1, 0, 1])
            .unwrap();
        let grads = session.backward(loss).unwrap();
        for p in layer.params() {
            let reached = grads.iter().any(|(q, _)| q.key() == p.key());
            assert!(reached, "missing grad for {}", p.name());
        }
    }

    #[test]
    fn wrong_input_width_errors() {
        let mut rng = SeededRng::new(4);
        let layer = Dense::new(&mut rng, 3, 2, Init::Xavier);
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(Tensor::ones(&[1, 5]));
        assert!(layer.forward(&mut session, x).is_err());
    }
}
