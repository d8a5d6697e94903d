//! Layer normalisation with learnable scale and shift.

use tensor::Tensor;

use crate::tape::Accumulator;
use crate::{Result, Var};

impl<'t> Var<'t> {
    /// Layer normalisation over the last axis of a matrix, with learnable
    /// per-feature `gamma` (scale) and `beta` (shift).
    ///
    /// For each row `x` of the input: `y = γ ⊙ (x − μ)/√(σ² + ε) + β`.
    /// This matches the normalisation applied before every MSA and MLP
    /// sub-block of the VITAL transformer encoder.
    ///
    /// # Errors
    /// Returns an error if `self` is not a matrix or if `gamma` / `beta`
    /// lengths do not match the feature dimension.
    pub fn layer_norm(self, gamma: Var<'t>, beta: Var<'t>, eps: f32) -> Result<Var<'t>> {
        let x = self.value();
        let g = gamma.value();
        let b = beta.value();
        let (rows, cols) = x.shape().as_matrix()?;
        if g.len() != cols || b.len() != cols {
            return Err(tensor::TensorError::ShapeMismatch {
                op: "layer_norm",
                lhs: x.shape().dims().to_vec(),
                rhs: g.shape().dims().to_vec(),
            });
        }

        // Forward on the runtime-dispatched SIMD kernel; keep the input and
        // the per-row (mean, 1/std) the kernel computed so the backward
        // closure can reconstruct x̂ without a second [rows × cols] buffer.
        let (value, means, inv_std) = x.layer_norm_rows_stats(&g, &b, eps)?;

        let x_for_back = x.clone();
        let gamma_for_back = g.clone();
        Ok(self.tape.push(
            value,
            vec![self.id, gamma.id, beta.id],
            Box::new(move |grad: &Tensor, acc: &mut Accumulator<'_>| {
                let gs = grad.as_slice();
                let xs = x_for_back.as_slice();
                let gm = gamma_for_back.as_slice();
                let want_dx = acc.wants(0);
                let mut dx = vec![0.0f32; if want_dx { rows * cols } else { 0 }];
                let mut dgamma = vec![0.0f32; cols];
                let mut dbeta = vec![0.0f32; cols];
                for (i, (&inv_std_i, &mean_i)) in inv_std.iter().zip(&means).enumerate() {
                    // dxhat = grad ⊙ gamma, with x̂ = (x − μ)·istd rebuilt
                    // from the saved statistics.
                    let mut sum_dxhat = 0.0f32;
                    let mut sum_dxhat_xhat = 0.0f32;
                    for (j, &gm_j) in gm.iter().enumerate() {
                        let idx = i * cols + j;
                        let xh = (xs[idx] - mean_i) * inv_std_i;
                        let dxhat = gs[idx] * gm_j;
                        sum_dxhat += dxhat;
                        sum_dxhat_xhat += dxhat * xh;
                        dgamma[j] += gs[idx] * xh;
                        dbeta[j] += gs[idx];
                    }
                    if !want_dx {
                        continue;
                    }
                    let n = cols as f32;
                    for (j, &gm_j) in gm.iter().enumerate() {
                        let idx = i * cols + j;
                        let xh = (xs[idx] - mean_i) * inv_std_i;
                        let dxhat = gs[idx] * gm_j;
                        dx[idx] = inv_std_i * (dxhat - sum_dxhat / n - xh * sum_dxhat_xhat / n);
                    }
                }
                if want_dx {
                    acc.add(0, Tensor::from_vec(dx, &[rows, cols])?)?;
                }
                acc.add(1, Tensor::from_vec(dgamma, &[cols])?)?;
                acc.add(2, Tensor::from_vec(dbeta, &[cols])?)
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

    fn layer_norm_ref(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let (rows, cols) = x.shape().as_matrix().unwrap();
        let mut out = vec![0.0; rows * cols];
        for i in 0..rows {
            let row = &x.as_slice()[i * cols..(i + 1) * cols];
            let mean: f32 = row.iter().sum::<f32>() / cols as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            for j in 0..cols {
                out[i * cols + j] =
                    gamma.as_slice()[j] * (row[j] - mean) / (var + eps).sqrt() + beta.as_slice()[j];
            }
        }
        Tensor::from_vec(out, &[rows, cols]).unwrap()
    }

    #[test]
    fn forward_matches_reference() {
        let x = t(&[1.0, 2.0, 3.0, -1.0, 0.0, 5.0], &[2, 3]);
        let gamma = t(&[1.0, 2.0, 0.5], &[3]);
        let beta = t(&[0.0, -1.0, 1.0], &[3]);
        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let g = tape.var(gamma.clone());
        let b = tape.var(beta.clone());
        let y = xv.layer_norm(g, b, 1e-5).unwrap().value();
        let reference = layer_norm_ref(&x, &gamma, &beta, 1e-5);
        for (a, r) in y.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - r).abs() < 1e-5);
        }
    }

    #[test]
    fn normalized_rows_have_zero_mean_unit_variance_when_identity_affine() {
        let x = t(&[10.0, 20.0, 30.0, 40.0], &[1, 4]);
        let tape = Tape::new();
        let xv = tape.var(x);
        let g = tape.var(Tensor::ones(&[4]));
        let b = tape.var(Tensor::zeros(&[4]));
        let y = xv.layer_norm(g, b, 1e-6).unwrap().value();
        assert!(y.mean().abs() < 1e-5);
        assert!((y.variance() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let x = t(&[0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]);
        let gamma = t(&[1.2, 0.8, 1.0], &[3]);
        let beta = t(&[0.1, -0.2, 0.0], &[3]);
        let weights = t(&[1.0, -2.0, 0.5, 3.0, 1.0, -1.0], &[2, 3]);
        let eps = 1e-5;

        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let gv = tape.var(gamma.clone());
        let bv = tape.var(beta.clone());
        let loss = xv
            .layer_norm(gv, bv, eps)
            .unwrap()
            .mul_mask(&weights)
            .unwrap()
            .sum_all()
            .unwrap();
        let grads = tape.backward(loss).unwrap();

        let f = |x_: &Tensor, g_: &Tensor, b_: &Tensor| {
            layer_norm_ref(x_, g_, b_, eps).mul(&weights).unwrap().sum()
        };
        let fd = 1e-3f32;
        // Check dX.
        let dx = grads.get(xv).unwrap();
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[i] += fd;
            let mut minus = x.clone();
            minus.as_mut_slice()[i] -= fd;
            let num = (f(&plus, &gamma, &beta) - f(&minus, &gamma, &beta)) / (2.0 * fd);
            assert!(
                (dx.as_slice()[i] - num).abs() < 2e-2,
                "dx[{i}] {} vs {num}",
                dx.as_slice()[i]
            );
        }
        // Check dGamma and dBeta.
        let dg = grads.get(gv).unwrap();
        let db = grads.get(bv).unwrap();
        for i in 0..gamma.len() {
            let mut plus = gamma.clone();
            plus.as_mut_slice()[i] += fd;
            let mut minus = gamma.clone();
            minus.as_mut_slice()[i] -= fd;
            let num = (f(&x, &plus, &beta) - f(&x, &minus, &beta)) / (2.0 * fd);
            assert!((dg.as_slice()[i] - num).abs() < 2e-2);

            let mut bplus = beta.clone();
            bplus.as_mut_slice()[i] += fd;
            let mut bminus = beta.clone();
            bminus.as_mut_slice()[i] -= fd;
            let numb = (f(&x, &gamma, &bplus) - f(&x, &gamma, &bminus)) / (2.0 * fd);
            assert!((db.as_slice()[i] - numb).abs() < 2e-2);
        }
    }

    #[test]
    fn shape_validation() {
        let tape = Tape::new();
        let x = tape.var(Tensor::zeros(&[2, 3]));
        let g = tape.var(Tensor::ones(&[4]));
        let b = tape.var(Tensor::zeros(&[3]));
        assert!(x.layer_norm(g, b, 1e-5).is_err());
    }
}
