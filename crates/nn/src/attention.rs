use autograd::Var;
use tensor::rng::SeededRng;
use tensor::TensorError;

use crate::{Dense, Init, Layer, Param, Result, Session};

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
    head_dim: usize,
}

impl MultiHeadSelfAttention {
    /// Creates an MSA block with `heads` attention heads over a model
    /// dimension of `d_model`.
    ///
    /// # Errors
    /// Returns an error if `d_model` is not divisible by `heads` or either is
    /// zero.
    pub fn new(rng: &mut SeededRng, d_model: usize, heads: usize) -> Result<Self> {
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
            head_dim: d_model / heads,
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

    /// Applies self-attention to a `[seq_len, d_model]` sequence.
    ///
    /// # Errors
    /// Returns an error if the input feature width differs from `d_model`.
    pub fn forward<'t>(&self, session: &Session<'t>, x: Var<'t>) -> Result<Var<'t>> {
        self.forward_stacked(session, x, 1)
    }

    /// Applies self-attention independently to `samples` sequences stacked
    /// as a `[samples * seq_len, d_model]` matrix.
    ///
    /// The Q/K/V and output projections run once over the whole stack (one
    /// large GEMM each), and every `(sample, head)` score block is
    /// row-concatenated into a single `[samples * heads * seq_len, seq_len]`
    /// matrix so the attention weighting is **one** batched softmax sweep
    /// through the runtime-dispatched SIMD kernel. Softmax is row-wise, so
    /// the result is bit-identical to attending each sample alone.
    ///
    /// # Errors
    /// Returns an error if the row count is not a multiple of `samples` or
    /// the feature width differs from `d_model`.
    pub fn forward_stacked<'t>(
        &self,
        session: &Session<'t>,
        x: Var<'t>,
        samples: usize,
    ) -> Result<Var<'t>> {
        let rows = x.value().rows()?;
        if samples == 0 || !rows.is_multiple_of(samples) {
            return Err(TensorError::ShapeMismatch {
                op: "msa.forward_stacked",
                lhs: vec![rows],
                rhs: vec![samples],
            });
        }
        let seq_len = rows / samples;
        let q = self.query.forward(session, x)?;
        let k = self.key.forward(session, x)?;
        let v = self.value.forward(session, x)?;
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        // Dot-product similarity (eq. 2) per (sample, head) block...
        let mut scores = Vec::with_capacity(samples * self.heads);
        for s in 0..samples {
            let (qs, ks) = if samples == 1 {
                (q, k)
            } else {
                (
                    q.slice_rows(s * seq_len, (s + 1) * seq_len)?,
                    k.slice_rows(s * seq_len, (s + 1) * seq_len)?,
                )
            };
            for h in 0..self.heads {
                let start = h * self.head_dim;
                let end = start + self.head_dim;
                let qh = qs.slice_cols(start, end)?;
                let kh = ks.slice_cols(start, end)?;
                scores.push(qh.matmul(kh.transpose()?)?.scale(scale));
            }
        }
        // ...softmax weighting (eq. 1) as one batched sweep.
        let stacked_scores = if scores.len() == 1 {
            scores.pop().expect("at least one head")
        } else {
            Var::concat_rows(&scores)?
        };
        let attn_all = stacked_scores.softmax_rows()?;

        // attn · V per block, reassembled to `[samples * seq_len, d_model]`.
        let mut sample_outputs = Vec::with_capacity(samples);
        for s in 0..samples {
            let vs = if samples == 1 {
                v
            } else {
                v.slice_rows(s * seq_len, (s + 1) * seq_len)?
            };
            let mut head_outputs = Vec::with_capacity(self.heads);
            for h in 0..self.heads {
                let block = (s * self.heads + h) * seq_len;
                let attn = if samples * self.heads == 1 {
                    attn_all
                } else {
                    attn_all.slice_rows(block, block + seq_len)?
                };
                let start = h * self.head_dim;
                let vh = vs.slice_cols(start, start + self.head_dim)?;
                head_outputs.push(attn.matmul(vh)?);
            }
            // Concat(h1..hn) per sample (eq. 4)...
            sample_outputs.push(Var::concat_cols(&head_outputs)?);
        }
        let concat = if samples == 1 {
            sample_outputs.pop().expect("samples >= 1")
        } else {
            Var::concat_rows(&sample_outputs)?
        };
        // ...then the shared W_o projection over the whole stack.
        self.output.forward(session, concat)
    }

    /// Appends the attention sub-block to an expression graph, mirroring
    /// the eager [`MultiHeadSelfAttention::forward`] step for step.
    ///
    /// # Errors
    /// Returns a [`graph::GraphError`] on operand-shape mismatch.
    pub fn push_graph(
        &self,
        g: &mut graph::Graph,
        x: graph::ExprId,
    ) -> std::result::Result<graph::ExprId, graph::GraphError> {
        self.push_graph_stacked(g, x, 1)
    }

    /// Appends the stacked attention sub-block to an expression graph:
    /// the arithmetic of [`MultiHeadSelfAttention::forward_stacked`],
    /// ordered **block-locally**. Graph node order is plan step order, so
    /// each `(sample, head)` block's whole chain — `Q·Kᵀ` as a
    /// transposed-B GEMM over column views of the stacked projections (no
    /// slice or transpose is materialised), the `1/√d` scale fused into
    /// that GEMM's output pass, the row softmax, `· V` — is pushed back to
    /// back. The compiled plan then runs a block start to finish on one
    /// cache-resident `seq_len²` buffer that the softmax rewrites in place
    /// and the slot planner recycles for the next block, where the eager
    /// twin stacks every block into one matrix for a single softmax sweep.
    /// Softmax is row-wise, so both orders give the same bits — the eager
    /// sequence's, at the plan's latched dispatch level.
    ///
    /// # Errors
    /// Returns a [`graph::GraphError`] on operand-shape mismatch or if the
    /// stacked row count does not divide into `samples`.
    pub fn push_graph_stacked(
        &self,
        g: &mut graph::Graph,
        x: graph::ExprId,
        samples: usize,
    ) -> std::result::Result<graph::ExprId, graph::GraphError> {
        let (rows, cols) = g.dims(x)?;
        if samples == 0 || !rows.is_multiple_of(samples) {
            return Err(graph::GraphError::Tensor(TensorError::ShapeMismatch {
                op: "msa.push_graph_stacked",
                lhs: vec![rows, cols],
                rhs: vec![samples],
            }));
        }
        let seq_len = rows / samples;
        let q = self.query.push_graph(g, x)?;
        let k = self.key.push_graph(g, x)?;
        let v = self.value.push_graph(g, x)?;
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let mut sample_outputs = Vec::with_capacity(samples);
        for s in 0..samples {
            let (first, end) = (s * seq_len, (s + 1) * seq_len);
            let qs = g.slice_rows(q, first, end)?;
            let ks = g.slice_rows(k, first, end)?;
            let vs = g.slice_rows(v, first, end)?;
            let mut head_outputs = Vec::with_capacity(self.heads);
            for h in 0..self.heads {
                let (start, stop) = (h * self.head_dim, (h + 1) * self.head_dim);
                let qh = g.slice_cols(qs, start, stop)?;
                let kh = g.slice_cols(ks, start, stop)?;
                let block = g.matmul(qh, kh, tensor::MatmulSpec::NT)?;
                let scores = g.unary(block, tensor::UnaryOp::MulScalar(scale))?;
                let attn = g.softmax_rows(scores)?;
                let vh = g.slice_cols(vs, start, stop)?;
                head_outputs.push(g.matmul(attn, vh, tensor::MatmulSpec::NN)?);
            }
            sample_outputs.push(g.concat_cols(&head_outputs)?);
        }
        let concat = if samples == 1 {
            sample_outputs[0]
        } else {
            g.concat_rows(&sample_outputs)?
        };
        self.output.push_graph(g, concat)
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
    use autograd::Tape;
    use tensor::Tensor;

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
        let session = Session::new(&tape, false, 0);
        let x = session.constant(SeededRng::new(2).uniform_tensor(&[6, 16], -1.0, 1.0));
        let y = msa.forward(&session, x).unwrap();
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
        let session = Session::new(&tape, true, 0);
        let x = session.constant(SeededRng::new(5).uniform_tensor(&[4, 8], -1.0, 1.0));
        let out = msa.forward(&session, x).unwrap();
        let loss = out.mean_pool_rows().unwrap().sum_all().unwrap();
        session.backward(loss).unwrap();
        let with_grad = msa.params().iter().filter(|p| p.grad().is_some()).count();
        assert_eq!(with_grad, msa.params().len());
    }

    #[test]
    fn attention_of_identical_tokens_is_uniform_mixture() {
        // If every token is identical, attention output rows must be equal.
        let mut rng = SeededRng::new(6);
        let msa = MultiHeadSelfAttention::new(&mut rng, 8, 2).unwrap();
        let tape = Tape::new();
        let session = Session::new(&tape, false, 0);
        let row = SeededRng::new(7).uniform_tensor(&[8], -1.0, 1.0);
        let x = session.constant(row.tile_rows(5).unwrap());
        let y = msa.forward(&session, x).unwrap().value();
        let first = y.row(0).unwrap();
        for i in 1..5 {
            let other = y.row(i).unwrap();
            assert!(first.distance(&other).unwrap() < 1e-4);
        }
        let _ = Tensor::zeros(&[1]);
    }
}
