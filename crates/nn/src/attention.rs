use tensor::rng::SeededRng;
use tensor::TensorError;

use crate::{Dense, Init, Layer, Param, Trace};

/// Multi-head self-attention (MSA) over a sequence of embedded patches.
///
/// This is the attention sub-block of the VITAL transformer encoder
/// (paper §V.B, eqs. (1)–(4)): the input sequence `X ∈ ℝ^{N×D}` is projected
/// into queries, keys and values per head, scaled dot-product attention is
/// computed per head, the head outputs are concatenated and projected back to
/// the model dimension with `W_o`.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    query: Dense,
    key: Dense,
    value: Dense,
    output: Dense,
    heads: usize,
    d_model: usize,
}

impl MultiHeadSelfAttention {
    /// Creates an MSA block with `heads` attention heads over a model
    /// dimension of `d_model`.
    ///
    /// # Errors
    /// Returns an error if `d_model` is not divisible by `heads` or either is
    /// zero.
    pub fn new(rng: &mut SeededRng, d_model: usize, heads: usize) -> crate::Result<Self> {
        if heads == 0 || d_model == 0 || !d_model.is_multiple_of(heads) {
            return Err(TensorError::ShapeMismatch {
                op: "msa.new",
                lhs: vec![d_model],
                rhs: vec![heads],
            });
        }
        Ok(MultiHeadSelfAttention {
            query: Dense::new(rng, d_model, d_model, Init::Xavier),
            key: Dense::new(rng, d_model, d_model, Init::Xavier),
            value: Dense::new(rng, d_model, d_model, Init::Xavier),
            output: Dense::new(rng, d_model, d_model, Init::Xavier),
            heads,
            d_model,
        })
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model (embedding) dimension.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Records self-attention applied independently to `samples` sequences
    /// stacked as a `[samples * seq_len, d_model]` matrix (a single
    /// sequence is a stack of one).
    ///
    /// The Q/K/V and output projections run once over the whole stack (one
    /// large GEMM each); between them, [`Trace::attention`] records the
    /// per-`(sample, head)` scaled dot-product attention as one op: one
    /// tape node whose forward and backward are each one dispatched kernel
    /// (`simd::attention`, `simd::attention_backward`), and one compiled
    /// plan step. Both read the three projections in place and write each
    /// head's rows straight into that head's columns of the
    /// `[samples * seq_len, d_model]` result the output projection reads.
    /// Softmax is row-wise, so the result is bit-identical to attending
    /// each sample alone.
    ///
    /// # Errors
    /// Returns an error if the row count is not a multiple of `samples` or
    /// the feature width differs from `d_model`.
    pub fn forward<T: Trace>(
        &self,
        t: &mut T,
        x: T::Node,
        samples: usize,
    ) -> Result<T::Node, T::Error> {
        let (rows, cols) = t.dims(x)?;
        if samples == 0 || !rows.is_multiple_of(samples) {
            return Err(TensorError::ShapeMismatch {
                op: "msa.forward",
                lhs: vec![rows, cols],
                rhs: vec![samples],
            }
            .into());
        }
        let q = self.query.forward(t, x)?;
        let k = self.key.forward(t, x)?;
        let v = self.value.forward(t, x)?;
        let concat = t.attention(q, k, v, samples, self.heads)?;
        // The shared W_o projection over the whole stack.
        self.output.forward(t, concat)
    }
}

impl Layer for MultiHeadSelfAttention {
    fn params(&self) -> Vec<Param> {
        let mut params = self.query.params();
        params.extend(self.key.params());
        params.extend(self.value.params());
        params.extend(self.output.params());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use autograd::Tape;

    #[test]
    fn rejects_invalid_configuration() {
        let mut rng = SeededRng::new(0);
        assert!(MultiHeadSelfAttention::new(&mut rng, 10, 3).is_err());
        assert!(MultiHeadSelfAttention::new(&mut rng, 0, 1).is_err());
        assert!(MultiHeadSelfAttention::new(&mut rng, 8, 0).is_err());
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = SeededRng::new(1);
        let msa = MultiHeadSelfAttention::new(&mut rng, 16, 4).unwrap();
        assert_eq!(msa.heads(), 4);
        assert_eq!(msa.d_model(), 16);
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(SeededRng::new(2).uniform_tensor(&[6, 16], -1.0, 1.0));
        let y = msa.forward(&mut session, x, 1).unwrap();
        assert_eq!(y.value().shape().dims(), &[6, 16]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn param_count_is_four_projections() {
        let mut rng = SeededRng::new(3);
        let d = 12;
        let msa = MultiHeadSelfAttention::new(&mut rng, d, 3).unwrap();
        // 4 dense layers, each d*d weights + d biases.
        assert_eq!(msa.param_count(), 4 * (d * d + d));
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut rng = SeededRng::new(4);
        let msa = MultiHeadSelfAttention::new(&mut rng, 8, 2).unwrap();
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 0);
        let x = session.constant(SeededRng::new(5).uniform_tensor(&[4, 8], -1.0, 1.0));
        let out = msa.forward(&mut session, x, 1).unwrap();
        let loss = out.mean_pool_row_blocks(4).unwrap().sum_all().unwrap();
        let grads = session.backward(loss).unwrap();
        assert_eq!(grads.len(), msa.params().len());
    }

    #[test]
    fn attention_of_identical_tokens_is_uniform_mixture() {
        // If every token is identical, attention output rows must be equal.
        let mut rng = SeededRng::new(6);
        let msa = MultiHeadSelfAttention::new(&mut rng, 8, 2).unwrap();
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let row = SeededRng::new(7).uniform_tensor(&[1, 8], -1.0, 1.0);
        let x = session.constant(tensor::Tensor::concat_rows(&[&row; 5]).unwrap());
        let y = msa.forward(&mut session, x, 1).unwrap().value();
        let first = y.row(0).unwrap();
        for i in 1..5 {
            let other = y.row(i).unwrap();
            assert!(first.distance(&other).unwrap() < 1e-4);
        }
    }
}
