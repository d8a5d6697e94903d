//! Arithmetic and linear-algebra primitives with recorded gradients.

use tensor::{MatmulSpec, Tensor};

use crate::tape::Accumulator;
use crate::{Result, Var};

// `add`/`sub`/`mul` deliberately shadow the `std::ops` names: recording onto
// the tape is fallible (shape mismatches), so the operator traits' infallible
// signatures cannot express them, and the whole workspace already reads
// `a.add(b)?`. The clippy lint is suppressed rather than renaming the API.
#[allow(clippy::should_implement_trait)]
impl<'t> Var<'t> {
    /// Elementwise addition. Gradient flows unchanged to both operands.
    ///
    /// # Errors
    /// Returns an error if the operand shapes differ.
    pub fn add(self, other: Var<'t>) -> Result<Var<'t>> {
        let value = self.value().add(&other.value())?;
        Ok(self.tape.push(
            value,
            vec![self.id, other.id],
            Box::new(|g: &Tensor, acc: &mut Accumulator<'_>| {
                acc.add(0, g.clone())?;
                acc.add(1, g.clone())
            }),
        ))
    }

    /// Elementwise subtraction (`self - other`).
    ///
    /// # Errors
    /// Returns an error if the operand shapes differ.
    pub fn sub(self, other: Var<'t>) -> Result<Var<'t>> {
        let value = self.value().sub(&other.value())?;
        Ok(self.tape.push(
            value,
            vec![self.id, other.id],
            Box::new(|g: &Tensor, acc: &mut Accumulator<'_>| {
                acc.add(0, g.clone())?;
                if acc.wants(1) {
                    acc.add(1, g.scale(-1.0))?;
                }
                Ok(())
            }),
        ))
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    /// Returns an error if the operand shapes differ.
    pub fn mul(self, other: Var<'t>) -> Result<Var<'t>> {
        let a = self.value();
        let b = other.value();
        let value = a.mul(&b)?;
        Ok(self.tape.push(
            value,
            vec![self.id, other.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                if acc.wants(0) {
                    acc.add(0, g.mul(&b)?)?;
                }
                if acc.wants(1) {
                    acc.add(1, g.mul(&a)?)?;
                }
                Ok(())
            }),
        ))
    }

    /// Multiplies every element by the scalar `c`.
    pub fn scale(self, c: f32) -> Var<'t> {
        let value = self.value().scale(c);
        self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| acc.add(0, g.scale(c))),
        )
    }

    /// Elementwise multiplication by a *constant* tensor (no gradient flows
    /// into the mask). This is the primitive behind dropout.
    ///
    /// # Errors
    /// Returns an error if the shapes differ.
    pub fn mul_mask(self, mask: &Tensor) -> Result<Var<'t>> {
        let value = self.value().mul(mask)?;
        let mask = mask.clone();
        Ok(self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| acc.add(0, g.mul(&mask)?)),
        ))
    }

    /// Matrix product `self · other`: [`Var::matmul_ex`] with
    /// [`MatmulSpec::NN`].
    ///
    /// # Errors
    /// Returns an error if the inner dimensions differ.
    pub fn matmul(self, other: Var<'t>) -> Result<Var<'t>> {
        self.matmul_ex(other, MatmulSpec::NN)
    }

    /// Matrix product `op(self) · op(other)` with the transposes `spec`
    /// names read in place, as one tape node: the forward is
    /// [`Tensor::matmul_ex`] — the GEMM call a compiled plan's step makes —
    /// and no transposed copy of an operand or a gradient is ever built.
    ///
    /// Gradients, each one `matmul_ex` over the stored operands `A`, `B`
    /// and the output gradient `G`:
    ///
    /// | spec | `dA`      | `dB`      |
    /// |------|-----------|-----------|
    /// | `NN` | `G · Bᵀ`  | `Aᵀ · G`  |
    /// | `NT` | `G · B`   | `Gᵀ · A`  |
    /// | `TN` | `B · Gᵀ`  | `A · G`   |
    /// | `TT` | `Bᵀ · Gᵀ` | `Gᵀ · Aᵀ` |
    ///
    /// # Errors
    /// Returns an error if the inner dimensions differ.
    pub fn matmul_ex(self, other: Var<'t>, spec: MatmulSpec) -> Result<Var<'t>> {
        use MatmulSpec as S;
        let a = self.value();
        let b = other.value();
        let value = a.matmul_ex(&b, spec)?;
        let a_shape_is_vec = a.shape().rank() == 1;
        let b_shape_is_vec = b.shape().rank() == 1;
        // The forward pass promotes rank-1 operands to matrices (a row, or
        // for an untransposed right operand a k×1 column — see
        // `Tensor::matmul_ex`). The backward pass works on those matrix
        // views and flattens the gradients back to the recorded parents'
        // rank-1 shapes at the end.
        let am = if a_shape_is_vec { a.as_row_matrix() } else { a };
        let (a_rows, a_cols) = am.shape().as_matrix()?;
        let k = if spec.trans_a { a_rows } else { a_cols };
        let bm = if !b_shape_is_vec {
            b
        } else if spec.trans_b || k == 1 {
            b.as_row_matrix()
        } else {
            b.reshape(&[k, 1])
                .expect("length checked by forward matmul")
        };
        Ok(self.tape.push(
            value,
            vec![self.id, other.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                if acc.wants(0) {
                    let da = match (spec.trans_a, spec.trans_b) {
                        (false, false) => g.matmul_ex(&bm, S::NT),
                        (false, true) => g.matmul_ex(&bm, S::NN),
                        (true, false) => bm.matmul_ex(g, S::NT),
                        (true, true) => bm.matmul_ex(g, S::TT),
                    }?;
                    acc.add(0, if a_shape_is_vec { da.flatten() } else { da })?;
                }
                if acc.wants(1) {
                    let db = match (spec.trans_a, spec.trans_b) {
                        (false, false) => am.matmul_ex(g, S::TN),
                        (false, true) => g.matmul_ex(&am, S::TN),
                        (true, false) => am.matmul_ex(g, S::NN),
                        (true, true) => g.matmul_ex(&am, S::TT),
                    }?;
                    acc.add(1, if b_shape_is_vec { db.flatten() } else { db })?;
                }
                Ok(())
            }),
        ))
    }

    /// Adds a rank-1 bias vector to every row of a matrix.
    ///
    /// Gradients: `dX = g`, `dbias = Σ_rows g`.
    ///
    /// # Errors
    /// Returns an error if `bias.len()` differs from the column count.
    pub fn add_row_broadcast(self, bias: Var<'t>) -> Result<Var<'t>> {
        let value = self.value().add_row_broadcast(&bias.value())?;
        Ok(self.tape.push(
            value,
            vec![self.id, bias.id],
            Box::new(|g: &Tensor, acc: &mut Accumulator<'_>| {
                acc.add(0, g.clone())?;
                if acc.wants(1) {
                    acc.add(1, g.sum_rows()?)?;
                }
                Ok(())
            }),
        ))
    }

    /// Sum of all elements, producing a scalar variable.
    ///
    /// # Errors
    /// This operation itself is infallible for any non-empty tensor but keeps
    /// a `Result` signature for composition with `?` chains.
    pub fn sum_all(self) -> Result<Var<'t>> {
        let x = self.value();
        let shape: Vec<usize> = x.shape().dims().to_vec();
        let value = Tensor::scalar(x.sum());
        Ok(self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                acc.add(0, Tensor::full(&shape, g.as_slice()[0]))
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

    #[test]
    fn add_and_sub_gradients() {
        let tape = Tape::new();
        let a = tape.var(t(&[1.0, 2.0], &[2]));
        let b = tape.var(t(&[3.0, 4.0], &[2]));
        let y = a.add(b).unwrap().sub(a).unwrap(); // y = b
        let loss = y.sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(b).unwrap().as_slice(), &[1.0, 1.0]);
        // a contributes +1 and -1 -> 0
        assert_eq!(grads.get(a).unwrap().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn mul_gradients() {
        let tape = Tape::new();
        let a = tape.var(t(&[2.0, 3.0], &[2]));
        let b = tape.var(t(&[5.0, 7.0], &[2]));
        let loss = a.mul(b).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(a).unwrap().as_slice(), &[5.0, 7.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_gradients_match_manual() {
        let tape = Tape::new();
        let a = tape.var(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = tape.var(t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let loss = a.matmul(b).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        // dA = ones(2,2) * B^T ; dB = A^T * ones(2,2)
        let ones = Tensor::ones(&[2, 2]);
        let da = ones.matmul_nt(&b.value()).unwrap();
        let db = a.value().matmul_tn(&ones).unwrap();
        assert_eq!(grads.get(a), Some(&da));
        assert_eq!(grads.get(b), Some(&db));
    }

    #[test]
    fn bias_broadcast_gradient_sums_rows() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = tape.var(t(&[10.0, 20.0], &[2]));
        let loss = x.add_row_broadcast(b).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(b).unwrap().as_slice(), &[2.0, 2.0]);
        assert_eq!(grads.get(x), Some(&Tensor::ones(&[2, 2])));
    }

    #[test]
    fn mask_blocks_gradient_into_dropped_elements() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0], &[3]));
        let mask = t(&[1.0, 0.0, 2.0], &[3]);
        let loss = x.mul_mask(&mask).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[1.0, 0.0, 2.0]);
    }

    #[test]
    fn vector_matmul_gradient_has_vector_shape() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0], &[2]));
        let w = tape.var(t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]));
        let loss = x.matmul(w).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().shape().dims(), &[2]);
    }
}
