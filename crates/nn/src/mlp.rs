use tensor::rng::SeededRng;

use crate::{Dense, Init, Layer, Param, Trace};

/// Non-linearity applied between the hidden layers of an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Gaussian error linear unit — used by the transformer encoder MLP and
    /// classification head in the paper.
    #[default]
    Gelu,
    /// Rectified linear unit — used by several comparison baselines.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid — used by the stacked-autoencoder baselines.
    Sigmoid,
    /// No activation (linear layer stack).
    Identity,
}

/// A multi-layer perceptron: a stack of [`Dense`] layers with a shared
/// activation between them (no activation after the final layer).
///
/// The paper uses two-layer GELU MLPs both inside the transformer encoder
/// (128 → 64 units) and as the fine-tuning classification head
/// (128 → `num_classes`).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    activation: Activation,
    dropout: f32,
}

impl Mlp {
    /// Creates an MLP whose layer widths are `sizes` (e.g. `[64, 128, 10]`
    /// builds two dense layers `64→128` and `128→10`).
    ///
    /// # Panics
    /// Panics if fewer than two sizes are supplied.
    pub fn new(rng: &mut SeededRng, sizes: &[usize], activation: Activation) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least an input and an output width"
        );
        let init = match activation {
            Activation::Relu => Init::He,
            _ => Init::Xavier,
        };
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(rng, w[0], w[1], init))
            .collect();
        Mlp {
            layers,
            activation,
            dropout: 0.0,
        }
    }

    /// Enables dropout (applied after each hidden activation) and returns the
    /// modified MLP, builder-style.
    pub fn with_dropout(mut self, rate: f32) -> Self {
        self.dropout = rate;
        self
    }

    /// Number of dense layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Output width of the final layer.
    pub fn out_features(&self) -> usize {
        self.layers
            .last()
            .map(Dense::out_features)
            .unwrap_or_default()
    }

    /// Records the MLP over a `[batch, in_features]` value: dense layers
    /// with the activation (then dropout, if enabled) between them, none
    /// after the last.
    ///
    /// # Errors
    /// Returns an error if the input width does not match the first layer.
    pub fn forward<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(t, h)?;
            if i != last {
                h = t.activate(h, self.activation)?;
                h = t.dropout(h, self.dropout)?;
            }
        }
        Ok(h)
    }
}

impl Layer for Mlp {
    fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use autograd::Tape;
    use tensor::Tensor;

    #[test]
    fn builds_correct_layer_stack() {
        let mut rng = SeededRng::new(0);
        let mlp = Mlp::new(&mut rng, &[6, 128, 64], Activation::Gelu);
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.out_features(), 64);
        assert_eq!(mlp.param_count(), 6 * 128 + 128 + 128 * 64 + 64);
    }

    #[test]
    #[should_panic(expected = "at least an input and an output width")]
    fn rejects_single_size() {
        let mut rng = SeededRng::new(0);
        let _ = Mlp::new(&mut rng, &[4], Activation::Relu);
    }

    #[test]
    fn forward_shapes_for_each_activation() {
        for act in [
            Activation::Gelu,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut rng = SeededRng::new(1);
            let mlp = Mlp::new(&mut rng, &[5, 8, 3], act);
            let tape = Tape::new();
            let mut session = Session::new(&tape, false, 0);
            let x = session.constant(Tensor::ones(&[4, 5]));
            let y = mlp.forward(&mut session, x).unwrap();
            assert_eq!(y.value().shape().dims(), &[4, 3]);
            assert!(y.value().all_finite());
        }
    }

    #[test]
    fn dropout_only_affects_training_mode() {
        let mut rng = SeededRng::new(2);
        let mlp = Mlp::new(&mut rng, &[4, 16, 2], Activation::Relu).with_dropout(0.5);
        let x = Tensor::ones(&[1, 4]);

        let run = |training: bool, seed: u64| {
            let tape = Tape::new();
            let mut session = Session::new(&tape, training, seed);
            let input = session.constant(x.clone());
            mlp.forward(&mut session, input).unwrap().value()
        };
        // Eval mode is deterministic regardless of seed.
        assert_eq!(run(false, 9), run(false, 10));
        // Training output will almost surely differ due to dropout.
        assert_ne!(run(false, 9), run(true, 11));
    }

    #[test]
    fn learns_xor() {
        // Small end-to-end training sanity check for the full layer stack.
        use crate::optim::Adam;
        let mut rng = SeededRng::new(3);
        let mlp = Mlp::new(&mut rng, &[2, 16, 2], Activation::Tanh);
        let mut adam = Adam::new(0.02);
        let inputs =
            Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
        let targets = [0usize, 1, 1, 0];
        let mut last_loss = f32::MAX;
        for step in 0..300 {
            let tape = Tape::new();
            let mut session = Session::new(&tape, true, step);
            let x = session.constant(inputs.clone());
            let logits = mlp.forward(&mut session, x).unwrap();
            let loss = logits.softmax_cross_entropy(&targets).unwrap();
            last_loss = loss.value().item().unwrap();
            adam.step(&session.backward(loss).unwrap());
        }
        assert!(last_loss < 0.1, "XOR did not converge: loss {last_loss}");
        // Check predictions.
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(inputs);
        let logits = mlp.forward(&mut session, x).unwrap().value();
        assert_eq!(logits.argmax_rows().unwrap(), vec![0, 1, 1, 0]);
    }
}
