//! Multi-head scaled dot-product self-attention as one tape node.

use simd::AttentionShape;
use tensor::{Tensor, TensorError};

use crate::tape::Accumulator;
use crate::{Result, Var};

impl<'t> Var<'t> {
    /// Scaled dot-product self-attention (paper §V.B, eqs. (1)–(4)) of
    /// `samples` sequences stacked in the rows of the projections `self`
    /// (Q), `k` and `v`, their columns split into `heads` heads: every
    /// `(sample, head)` block is `softmax(Q·Kᵀ / √head_dim) · V`, written
    /// into that head's columns of the sample's rows.
    ///
    /// One node: the forward is [`simd::attention`], which also saves the
    /// softmax's probabilities when a variable reaches an operand, and the
    /// backward is [`simd::attention_backward`], one dispatched call for
    /// dQ, dK and dV. Both are bit for bit what the per-block chain of
    /// slices, products, scale, softmax and concatenations would give on
    /// this tape, except that a NaN comes out as `f32::NAN`.
    ///
    /// # Errors
    /// Returns an error if `samples` does not divide the rows or `heads`
    /// the columns, or if `k` or `v` is not shaped as `self`.
    pub fn attention(
        self,
        k: Var<'t>,
        v: Var<'t>,
        samples: usize,
        heads: usize,
    ) -> Result<Var<'t>> {
        let qkv = [self, k, v].map(|x| x.value());
        let (rows, cols) = qkv[0].shape().as_matrix()?;
        if samples == 0 || heads == 0 || rows % samples != 0 || cols % heads != 0 {
            return Err(TensorError::ShapeMismatch {
                op: "attention",
                lhs: vec![rows, cols],
                rhs: vec![samples, heads],
            });
        }
        if let Some(other) = qkv[1..].iter().find(|x| !x.shape().same_as(qkv[0].shape())) {
            return Err(TensorError::ShapeMismatch {
                op: "attention",
                lhs: qkv[0].shape().dims().to_vec(),
                rhs: other.shape().dims().to_vec(),
            });
        }
        let shape = AttentionShape {
            seq: rows / samples,
            heads,
            head_dim: cols / heads,
        };
        let level = simd::active_level();
        let parents = vec![self.id, k.id, v.id];
        let mut saved = self
            .tape
            .reaches(&parents)
            .then(|| vec![0.0; shape.saved_len(samples)]);
        let mut out = vec![0.0; rows * cols];
        let [q_in, k_in, v_in] = qkv.each_ref().map(Tensor::as_slice);
        let mut scratch = vec![0.0; shape.scratch_len()];
        let saving = saved.as_deref_mut();
        simd::attention(
            level,
            q_in,
            k_in,
            v_in,
            shape,
            &mut out,
            saving,
            &mut scratch,
        );
        let saved = saved.unwrap_or_default();
        Ok(self.tape.push(
            Tensor::from_vec(out, &[rows, cols])?,
            parents,
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                let mut grads = [(); 3].map(|_| vec![0.0; g.len()]);
                let mut scratch = vec![0.0; shape.backward_scratch_len()];
                let [dq, dk, dv] = &mut grads;
                simd::attention_backward(
                    level,
                    qkv.each_ref().map(Tensor::as_slice),
                    &saved,
                    g.as_slice(),
                    shape,
                    [dq, dk, dv],
                    &mut scratch,
                );
                for (i, grad) in grads.into_iter().enumerate() {
                    acc.add(i, Tensor::from_vec(grad, &[rows, cols])?)?;
                }
                Ok(())
            }),
        ))
    }
}
