use tensor::rng::SeededRng;
use tensor::TensorError;

use crate::{Dense, Init, Layer, Param, Trace};

/// A 1-D convolution over the feature (AP) axis of a fingerprint batch.
///
/// The CNNLoc baseline (paper §VI.C, ref. \[21\]) applies stacked 1-D
/// convolutions to the RSSI fingerprint vector. The layer treats the input as
/// `[batch, length]` with a single input channel and produces
/// `[batch, windows × out_channels]` where `windows = (length − kernel)/stride + 1`.
///
/// Internally each sliding window is a column slice of the input that shares
/// one dense `kernel × out_channels` projection, so the convolution is
/// expressed entirely in terms of differentiable primitives.
#[derive(Debug, Clone)]
pub struct Conv1d {
    kernel: Dense,
    kernel_size: usize,
    stride: usize,
    out_channels: usize,
}

impl Conv1d {
    /// Creates a 1-D convolution layer.
    ///
    /// # Errors
    /// Returns an error if `kernel_size` or `stride` or `out_channels` is zero.
    pub fn new(
        rng: &mut SeededRng,
        kernel_size: usize,
        out_channels: usize,
        stride: usize,
    ) -> crate::Result<Self> {
        if kernel_size == 0 || stride == 0 || out_channels == 0 {
            return Err(TensorError::Empty { op: "conv1d.new" });
        }
        Ok(Conv1d {
            kernel: Dense::new(rng, kernel_size, out_channels, Init::He),
            kernel_size,
            stride,
            out_channels,
        })
    }

    /// The number of sliding windows produced for an input of width `length`.
    ///
    /// # Errors
    /// Returns an error if `length < kernel_size`.
    pub fn windows_for(&self, length: usize) -> crate::Result<usize> {
        if length < self.kernel_size {
            return Err(TensorError::ShapeMismatch {
                op: "conv1d.windows_for",
                lhs: vec![length],
                rhs: vec![self.kernel_size],
            });
        }
        Ok((length - self.kernel_size) / self.stride + 1)
    }

    /// Output width (`windows × out_channels`) for an input of width `length`.
    ///
    /// # Errors
    /// Returns an error if `length < kernel_size`.
    pub fn out_width_for(&self, length: usize) -> crate::Result<usize> {
        Ok(self.windows_for(length)? * self.out_channels)
    }

    /// Records the convolution over a `[batch, length]` value: every
    /// sliding window is a column slice sharing one dense projection.
    ///
    /// # Errors
    /// Returns an error if the input is narrower than the kernel.
    pub fn forward<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        let (_, length) = t.dims(x)?;
        let windows = self.windows_for(length)?;
        let mut outputs = Vec::with_capacity(windows);
        for w in 0..windows {
            let start = w * self.stride;
            let window = t.slice_cols(x, start, start + self.kernel_size)?;
            outputs.push(self.kernel.forward(t, window)?);
        }
        t.concat_cols(&outputs)
    }
}

impl Layer for Conv1d {
    fn params(&self) -> Vec<Param> {
        self.kernel.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use autograd::Tape;
    use tensor::Tensor;

    #[test]
    fn rejects_zero_configuration() {
        let mut rng = SeededRng::new(0);
        assert!(Conv1d::new(&mut rng, 0, 4, 1).is_err());
        assert!(Conv1d::new(&mut rng, 3, 0, 1).is_err());
        assert!(Conv1d::new(&mut rng, 3, 4, 0).is_err());
    }

    #[test]
    fn window_arithmetic() {
        let mut rng = SeededRng::new(1);
        let conv = Conv1d::new(&mut rng, 4, 2, 2).unwrap();
        assert_eq!(conv.windows_for(10).unwrap(), 4);
        assert_eq!(conv.out_width_for(10).unwrap(), 8);
        assert!(conv.windows_for(3).is_err());
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let mut rng = SeededRng::new(2);
        let conv = Conv1d::new(&mut rng, 5, 3, 1).unwrap();
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(SeededRng::new(3).uniform_tensor(&[2, 20], -1.0, 1.0));
        let y = conv.forward(&mut session, x).unwrap().value();
        assert_eq!(y.shape().dims(), &[2, 16 * 3]);
        assert!(y.all_finite());
    }

    #[test]
    fn gradients_flow_to_kernel() {
        let mut rng = SeededRng::new(6);
        let conv = Conv1d::new(&mut rng, 3, 2, 1).unwrap();
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 0);
        let x = session.constant(Tensor::ones(&[1, 8]));
        let loss = conv.forward(&mut session, x).unwrap().sum_all().unwrap();
        let grads = session.backward(loss).unwrap();
        assert_eq!(grads.len(), conv.params().len());
    }
}
