//! Reductions, statistics and normalisation helpers.

use crate::kernels;
use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements (`0.0` for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Population variance of all elements (`0.0` for an empty tensor).
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.as_slice()
            .iter()
            .map(|v| (v - m) * (v - m))
            .sum::<f32>()
            / self.len() as f32
    }

    /// Population standard deviation of all elements.
    pub fn std(&self) -> f32 {
        self.variance().sqrt()
    }

    /// Maximum element.
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn max(&self) -> Result<f32> {
        self.as_slice()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
            .ok_or(TensorError::Empty { op: "max" })
    }

    /// Minimum element.
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn min(&self) -> Result<f32> {
        self.as_slice()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
            .ok_or(TensorError::Empty { op: "min" })
    }

    /// Index of the maximum element (first occurrence).
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn argmax(&self) -> Result<usize> {
        if self.is_empty() {
            return Err(TensorError::Empty { op: "argmax" });
        }
        let mut best = 0;
        for (i, v) in self.as_slice().iter().enumerate() {
            if *v > self.as_slice()[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Per-row argmax of a matrix, one index per row.
    ///
    /// # Errors
    /// Returns an error if the tensor is not a matrix or has zero columns.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        let (r, c) = self.shape().as_matrix()?;
        let mut out = vec![0; r];
        kernels::argmax_rows(self.as_slice(), c, &mut out)?;
        Ok(out)
    }

    /// Sum along rows of a matrix, returning a rank-1 tensor of length `cols`.
    ///
    /// # Errors
    /// Returns an error if the tensor is not a matrix.
    pub fn sum_rows(&self) -> Result<Tensor> {
        let (_, c) = self.shape().as_matrix()?;
        let mut out = vec![0.0; c];
        if c > 0 {
            for chunk in self.as_slice().chunks_exact(c) {
                for (acc, &v) in out.iter_mut().zip(chunk) {
                    *acc += v;
                }
            }
        }
        Tensor::from_vec(out, &[c])
    }

    /// Mean along rows of a matrix, returning a rank-1 tensor of length `cols`.
    ///
    /// # Errors
    /// Returns an error if the tensor is not a matrix or has zero rows.
    pub fn mean_rows(&self) -> Result<Tensor> {
        let (r, _) = self.shape().as_matrix()?;
        if r == 0 {
            return Err(TensorError::Empty { op: "mean_rows" });
        }
        Ok(self.sum_rows()?.scale(1.0 / r as f32))
    }

    /// Sums consecutive blocks of `block_rows` rows of a
    /// `[blocks * block_rows, cols]` matrix elementwise, returning a
    /// `[block_rows, cols]` matrix.
    ///
    /// This is the reduction behind batched (stacked-sample) execution: the
    /// gradient of a per-sample tensor tiled across a batch is the block sum
    /// of the stacked gradient.
    ///
    /// # Errors
    /// Returns an error if the tensor is not a matrix, `block_rows` is zero,
    /// or the row count is not a multiple of `block_rows`.
    pub fn sum_row_blocks(&self, block_rows: usize) -> Result<Tensor> {
        let (r, c) = self.shape().as_matrix()?;
        if block_rows == 0 || !r.is_multiple_of(block_rows) {
            return Err(TensorError::ShapeMismatch {
                op: "sum_row_blocks (rows must be a multiple of block_rows)",
                lhs: self.shape().dims().to_vec(),
                rhs: vec![block_rows],
            });
        }
        let mut out = vec![0.0f32; block_rows * c];
        for block in self.as_slice().chunks_exact(block_rows * c) {
            for (acc, &v) in out.iter_mut().zip(block) {
                *acc += v;
            }
        }
        Tensor::from_vec(out, &[block_rows, c])
    }

    /// Means each consecutive block of `block_rows` rows down to a single
    /// row: a `[blocks * block_rows, cols]` matrix becomes `[blocks, cols]`.
    ///
    /// Batched mean pooling: with one block per sample this collapses every
    /// sample's patch rows to its pooled feature row in a single pass.
    ///
    /// # Errors
    /// Returns an error if the tensor is not a matrix, `block_rows` is zero,
    /// or the row count is not a multiple of `block_rows`.
    pub fn mean_row_blocks(&self, block_rows: usize) -> Result<Tensor> {
        let (r, c) = self.shape().as_matrix()?;
        if block_rows == 0 || !r.is_multiple_of(block_rows) {
            return Err(TensorError::ShapeMismatch {
                op: "mean_row_blocks (rows must be a multiple of block_rows)",
                lhs: self.shape().dims().to_vec(),
                rhs: vec![block_rows],
            });
        }
        let blocks = r / block_rows;
        let mut out = vec![0.0f32; blocks * c];
        kernels::mean_row_blocks(self.as_slice(), block_rows, c, &mut out);
        Tensor::from_vec(out, &[blocks, c])
    }

    /// Numerically stable softmax along the last axis of a matrix (per row).
    ///
    /// Rank-1 tensors are treated as a single row. Runs on the
    /// runtime-dispatched three-pass SIMD kernel ([`simd::softmax_rows`]);
    /// results are bit-identical across the dispatch levels.
    ///
    /// # Errors
    /// Returns an error for rank-0 or rank>2 tensors.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        let (_, c) = self.shape().as_matrix()?;
        let mut out = self.as_slice().to_vec();
        simd::softmax_rows(simd::active_level(), &mut out, c);
        Tensor::from_vec(out, self.shape().dims())
    }

    /// Per-row layer normalization of a matrix:
    /// `y = (x − mean) · istd · γ[j] + β[j]` with `istd = 1/√(var + eps)`
    /// over each row's population statistics.
    ///
    /// Runs on the runtime-dispatched single-sweep SIMD kernel
    /// ([`simd::layer_norm_rows`]).
    ///
    /// # Errors
    /// Returns an error if `self` is not a matrix or `gamma`/`beta` do not
    /// have exactly one element per column.
    pub fn layer_norm_rows(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Result<Tensor> {
        let (_, c) = self.layer_norm_check(gamma, beta)?;
        let mut out = self.as_slice().to_vec();
        let (gamma, beta) = (gamma.as_slice(), beta.as_slice());
        simd::layer_norm_rows(simd::active_level(), &mut out, c, gamma, beta, eps, None);
        Tensor::from_vec(out, self.shape().dims())
    }

    /// [`Tensor::layer_norm_rows`] that also returns the per-row
    /// `(mean, 1/std)` the kernel computed — the training backward pass
    /// reconstructs `x̂` from them.
    ///
    /// # Errors
    /// Same conditions as [`Tensor::layer_norm_rows`].
    pub fn layer_norm_rows_stats(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Result<(Tensor, Vec<f32>, Vec<f32>)> {
        let (r, c) = self.layer_norm_check(gamma, beta)?;
        let mut out = self.as_slice().to_vec();
        let mut means = vec![0.0f32; r];
        let mut inv_stds = vec![0.0f32; r];
        simd::layer_norm_rows(
            simd::active_level(),
            &mut out,
            c,
            gamma.as_slice(),
            beta.as_slice(),
            eps,
            Some((&mut means, &mut inv_stds)),
        );
        Ok((Tensor::from_vec(out, self.shape().dims())?, means, inv_stds))
    }

    fn layer_norm_check(&self, gamma: &Tensor, beta: &Tensor) -> Result<(usize, usize)> {
        let (r, c) = self.shape().as_matrix()?;
        if gamma.len() != c || beta.len() != c {
            return Err(TensorError::ShapeMismatch {
                op: "layer_norm_rows (gamma/beta must have one element per column)",
                lhs: self.shape().dims().to_vec(),
                rhs: vec![gamma.len(), beta.len()],
            });
        }
        Ok((r, c))
    }

    /// Frobenius / L2 norm of the tensor.
    pub fn norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn sum_row_blocks_adds_blocks_elementwise() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[4, 2]);
        let s = a.sum_row_blocks(2).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        // One block is the identity.
        assert_eq!(a.sum_row_blocks(4).unwrap(), a);
        assert!(a.sum_row_blocks(3).is_err());
        assert!(a.sum_row_blocks(0).is_err());
    }

    #[test]
    fn mean_row_blocks_pools_each_block() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[4, 2]);
        let m = a.mean_row_blocks(2).unwrap();
        assert_eq!(m.shape().dims(), &[2, 2]);
        assert_eq!(m.as_slice(), &[2.0, 3.0, 20.0, 30.0]);
        // Pooling the whole matrix matches mean_rows.
        let whole = a.mean_row_blocks(4).unwrap();
        assert_eq!(whole.as_slice(), a.mean_rows().unwrap().as_slice());
        assert!(a.mean_row_blocks(3).is_err());
    }

    #[test]
    fn basic_statistics() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[4]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.variance() - 1.25).abs() < 1e-6);
        assert!((a.std() - 1.118034).abs() < 1e-5);
        assert_eq!(a.max().unwrap(), 4.0);
        assert_eq!(a.min().unwrap(), 1.0);
    }

    #[test]
    fn empty_tensor_statistics() {
        let e = Tensor::zeros(&[0]);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.variance(), 0.0);
        assert!(e.max().is_err());
        assert!(e.argmax().is_err());
    }

    #[test]
    fn argmax_variants() {
        let a = t(&[0.1, 0.7, 0.2], &[3]);
        assert_eq!(a.argmax().unwrap(), 1);
        let m = t(&[0.1, 0.9, 0.8, 0.2], &[2, 2]);
        assert_eq!(m.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn row_reductions() {
        let m = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(m.sum_rows().unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(m.mean_rows().unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let m = t(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = m.softmax_rows().unwrap();
        for i in 0..2 {
            let row_sum: f32 = s.row(i).unwrap().sum();
            assert!((row_sum - 1.0).abs() < 1e-6);
        }
        // Larger logit -> larger probability
        assert!(s.at(0, 2).unwrap() > s.at(0, 0).unwrap());
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = t(&[1000.0, 1001.0, 1002.0], &[3]);
        let s = a.softmax_rows().unwrap();
        assert!(s.all_finite());
        let b = t(&[0.0, 1.0, 2.0], &[3]).softmax_rows().unwrap();
        for (x, y) in s.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn layer_norm_rows_normalizes_each_row() {
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let gamma = t(&[1.0, 1.0, 1.0], &[3]);
        let beta = t(&[0.0, 0.0, 0.0], &[3]);
        let y = m.layer_norm_rows(&gamma, &beta, 1e-5).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        for i in 0..2 {
            let row = y.row(i).unwrap();
            assert!(row.mean().abs() < 1e-5);
            assert!((row.std() - 1.0).abs() < 1e-3);
        }
        let (y2, means, istds) = m.layer_norm_rows_stats(&gamma, &beta, 1e-5).unwrap();
        assert_eq!(y, y2);
        assert!((means[0] - 2.0).abs() < 1e-6);
        assert!((means[1] - 5.0).abs() < 1e-6);
        assert!(istds.iter().all(|v| *v > 0.0));
        // Scale/shift participate: gamma=2, beta=1 doubles and shifts.
        let g2 = t(&[2.0, 2.0, 2.0], &[3]);
        let b1 = t(&[1.0, 1.0, 1.0], &[3]);
        let z = m.layer_norm_rows(&g2, &b1, 1e-5).unwrap();
        for (zi, yi) in z.as_slice().iter().zip(y.as_slice()) {
            assert!((zi - (2.0 * yi + 1.0)).abs() < 1e-5);
        }
        // Mismatched gamma/beta lengths are rejected.
        assert!(m.layer_norm_rows(&t(&[1.0], &[1]), &beta, 1e-5).is_err());
    }

    #[test]
    fn norm_of_pythagorean_vector() {
        let a = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn row_reductions_accept_zero_column_matrices() {
        let empty = Tensor::from_vec(vec![], &[2, 0]).unwrap();
        assert_eq!(empty.sum_rows().unwrap().shape().dims(), &[0]);
    }
}
