use autograd::Tape;
use tensor::rng::{DrawKey, SeededRng};
use tensor::Tensor;

use crate::optim::Adam;
use crate::{Activation, Layer, Mlp, Param, Session, Trace};

/// A stacked (denoising) autoencoder.
///
/// Both WiDeep (ref. \[22\]) and CNNLoc (ref. \[21\]) use stacked autoencoders to
/// denoise / pre-train representations of the RSSI fingerprint before a
/// downstream classifier. The encoder compresses the fingerprint through the
/// widths in `hidden`, the decoder mirrors the widths to reconstruct the
/// input, and pre-training minimises the reconstruction MSE — optionally with
/// input corruption noise (denoising autoencoder).
#[derive(Debug, Clone)]
pub struct StackedAutoencoder {
    encoder: Mlp,
    decoder: Mlp,
    input_dim: usize,
    code_dim: usize,
}

impl StackedAutoencoder {
    /// Creates an autoencoder with the given hidden widths, e.g.
    /// `new(rng, 120, &[64, 32])` builds encoder `120→64→32` and decoder
    /// `32→64→120`.
    ///
    /// # Panics
    /// Panics if `hidden` is empty (an autoencoder needs at least one code
    /// layer).
    pub fn new(rng: &mut SeededRng, input_dim: usize, hidden: &[usize]) -> Self {
        assert!(
            !hidden.is_empty(),
            "autoencoder needs at least one hidden (code) width"
        );
        let mut enc_sizes = vec![input_dim];
        enc_sizes.extend_from_slice(hidden);
        let mut dec_sizes: Vec<usize> = enc_sizes.clone();
        dec_sizes.reverse();
        StackedAutoencoder {
            encoder: Mlp::new(rng, &enc_sizes, Activation::Sigmoid),
            decoder: Mlp::new(rng, &dec_sizes, Activation::Sigmoid),
            input_dim,
            code_dim: *hidden.last().expect("checked non-empty"),
        }
    }

    /// Width of the input / reconstruction.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Width of the bottleneck code.
    pub fn code_dim(&self) -> usize {
        self.code_dim
    }

    /// Records the encoder over a `[batch, input_dim]` value, producing
    /// the bottleneck representation.
    ///
    /// # Errors
    /// Returns an error if the input width differs from `input_dim`.
    pub fn encode<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        self.encoder.forward(t, x)
    }

    /// Records the full reconstruction (encode then decode).
    ///
    /// # Errors
    /// Returns an error if the input width differs from `input_dim`.
    pub fn reconstruct<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        let code = self.encode(t, x)?;
        self.decoder.forward(t, code)
    }

    /// Pre-trains the autoencoder on `data` (a `[samples, input_dim]` matrix)
    /// by minimising reconstruction MSE with Adam, optionally corrupting the
    /// input with Gaussian noise of standard deviation `noise_std`
    /// (denoising-autoencoder style). Returns the final epoch's mean loss.
    ///
    /// # Errors
    /// Returns an error if `data` is not a matrix of width `input_dim`.
    pub fn pretrain(
        &self,
        data: &Tensor,
        epochs: usize,
        learning_rate: f32,
        noise_std: f32,
        seed: u64,
    ) -> crate::Result<f32> {
        let mut adam = Adam::new(learning_rate);
        let mut rng = SeededRng::new(seed);
        let mut last = 0.0;
        for epoch in 0..epochs {
            let corrupted = if noise_std > 0.0 {
                let noise = rng.normal_tensor(data.shape().dims(), 0.0, noise_std);
                data.add(&noise)?
            } else {
                data.clone()
            };
            let tape = Tape::new();
            // Full batch: the epoch's one batch is batch 0.
            let mut session = Session::keyed(&tape, DrawKey::new(seed, [epoch, 0]));
            let x = session.constant(corrupted);
            let recon = self.reconstruct(&mut session, x)?;
            let loss = recon.mse_loss(data)?;
            last = loss.value().item()?;
            adam.step(&session.backward(loss)?);
        }
        Ok(last)
    }
}

impl Layer for StackedAutoencoder {
    fn params(&self) -> Vec<Param> {
        let mut params = self.encoder.params();
        params.extend(self.decoder.params());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_are_mirrored() {
        let mut rng = SeededRng::new(0);
        let ae = StackedAutoencoder::new(&mut rng, 30, &[16, 8]);
        assert_eq!(ae.input_dim(), 30);
        assert_eq!(ae.code_dim(), 8);
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(Tensor::ones(&[2, 30]));
        let code = ae.encode(&mut session, x).unwrap();
        assert_eq!(code.value().shape().dims(), &[2, 8]);
    }

    #[test]
    #[should_panic(expected = "at least one hidden")]
    fn empty_hidden_panics() {
        let mut rng = SeededRng::new(0);
        let _ = StackedAutoencoder::new(&mut rng, 10, &[]);
    }

    #[test]
    fn reconstruction_shape_matches_input() {
        let mut rng = SeededRng::new(1);
        let ae = StackedAutoencoder::new(&mut rng, 12, &[6]);
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(Tensor::ones(&[3, 12]));
        let recon = ae.reconstruct(&mut session, x).unwrap();
        assert_eq!(recon.value().shape().dims(), &[3, 12]);
    }

    #[test]
    fn pretraining_reduces_reconstruction_error() {
        let mut rng = SeededRng::new(2);
        let ae = StackedAutoencoder::new(&mut rng, 10, &[6]);
        let data = SeededRng::new(3).uniform_tensor(&[32, 10], 0.0, 1.0);

        // Loss before training.
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(data.clone());
        let before = ae
            .reconstruct(&mut session, x)
            .unwrap()
            .mse_loss(&data)
            .unwrap()
            .value()
            .item()
            .unwrap();

        let after = ae.pretrain(&data, 120, 0.01, 0.0, 4).unwrap();
        assert!(
            after < before * 0.6,
            "autoencoder failed to learn: before {before}, after {after}"
        );
    }

    #[test]
    fn denoising_pretrain_runs_with_noise() {
        let mut rng = SeededRng::new(5);
        let ae = StackedAutoencoder::new(&mut rng, 8, &[4]);
        let data = SeededRng::new(6).uniform_tensor(&[16, 8], 0.0, 1.0);
        let loss = ae.pretrain(&data, 10, 0.01, 0.1, 7).unwrap();
        assert!(loss.is_finite());
    }
}
