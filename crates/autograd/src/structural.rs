//! Shape-manipulating primitives: reshape, slicing, concatenation
//! and pooling: the glue between the layers' products.

use tensor::{kernels, Tensor};

use crate::tape::Accumulator;
use crate::{Result, Var};

impl<'t> Var<'t> {
    /// Reinterprets the value with a new shape of equal volume.
    ///
    /// # Errors
    /// Returns an error if the volumes differ.
    pub fn reshape(self, dims: &[usize]) -> Result<Var<'t>> {
        let original: Vec<usize> = self.value().shape().dims().to_vec();
        let value = self.value().reshape(dims)?;
        Ok(self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                acc.add(0, g.reshape(&original)?)
            }),
        ))
    }

    /// Copies rows `[start, end)` of a matrix. Its gradient is added into
    /// those rows of the parent's.
    ///
    /// # Errors
    /// Returns an error if the range is out of bounds.
    pub fn slice_rows(self, start: usize, end: usize) -> Result<Var<'t>> {
        let value = self.value().slice_rows(start, end)?;
        Ok(self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| acc.add_rows(0, start, g)),
        ))
    }

    /// Copies columns `[start, end)` of a matrix. Its gradient is added
    /// into those columns of the parent's.
    ///
    /// # Errors
    /// Returns an error if the range is out of bounds.
    pub fn slice_cols(self, start: usize, end: usize) -> Result<Var<'t>> {
        let value = self.value().slice_cols(start, end)?;
        Ok(self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| acc.add_cols(0, start, g)),
        ))
    }

    /// Adds `tile` (a `[block_rows, cols]` matrix) to every consecutive
    /// `block_rows`-row block of `self` (a `[reps * block_rows, cols]`
    /// matrix).
    ///
    /// This is the batched form of a per-sample addition: stacking `reps`
    /// samples row-wise and tiling the shared operand (e.g. a positional
    /// embedding) over the stack. Gradients: `dX = g`,
    /// `dtile = Σ_blocks g` (the block sum over the batch).
    ///
    /// # Errors
    /// Returns an error if the shapes are incompatible.
    pub fn add_tile_rows(self, tile: Var<'t>, reps: usize) -> Result<Var<'t>> {
        let (x, t) = (self.value(), tile.value());
        let (rows, cols) = x.shape().as_matrix()?;
        let (block_rows, tile_cols) = t.shape().as_matrix()?;
        if tile_cols != cols || block_rows * reps != rows {
            return Err(tensor::TensorError::ShapeMismatch {
                op: "add_tile_rows",
                lhs: x.shape().dims().to_vec(),
                rhs: t.shape().dims().to_vec(),
            });
        }
        let mut value = x;
        kernels::add_tile_rows(value.as_mut_slice(), t.as_slice());
        Ok(self.tape.push(
            value,
            vec![self.id, tile.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                acc.add(0, g.clone())?;
                if acc.wants(1) {
                    acc.add(1, g.sum_row_blocks(block_rows)?)?;
                }
                Ok(())
            }),
        ))
    }

    /// Mean-pools every consecutive `block_rows`-row block of a
    /// `[blocks * block_rows, cols]` matrix down to one row, producing a
    /// `[blocks, cols]` matrix.
    ///
    /// With one block per sample this collapses a whole stacked batch of
    /// patch sequences to per-sample pooled features in one op — the
    /// pooling before the transformer's fine-tuning MLP head.
    ///
    /// # Errors
    /// Returns an error if the row count is not a multiple of `block_rows`.
    pub fn mean_pool_row_blocks(self, block_rows: usize) -> Result<Var<'t>> {
        let x = self.value();
        let value = x.mean_row_blocks(block_rows)?;
        let (rows, cols) = x.shape().as_matrix()?;
        Ok(self.tape.push(
            value,
            vec![self.id],
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                // Each input row receives its block's pooled gradient / P.
                let scale = 1.0 / block_rows as f32;
                let mut full = Vec::with_capacity(rows * cols);
                for block_grad in g.as_slice().chunks_exact(cols) {
                    for _ in 0..block_rows {
                        full.extend(block_grad.iter().map(|v| v * scale));
                    }
                }
                acc.add(0, Tensor::from_vec(full, &[rows, cols])?)
            }),
        ))
    }

    /// Vertically concatenates matrices with equal column counts.
    ///
    /// # Errors
    /// Returns an error if `parts` is empty, the parts belong to different
    /// tapes, or column counts differ.
    pub fn concat_rows(parts: &[Var<'t>]) -> Result<Var<'t>> {
        let first = parts
            .first()
            .ok_or(tensor::TensorError::Empty { op: "concat_rows" })?;
        let tape = first.tape;
        let values: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let value = Tensor::concat_rows(&refs)?;
        let row_counts: Vec<usize> = values
            .iter()
            .map(|v| v.rows().expect("concat operand is a matrix"))
            .collect();
        let parents: Vec<usize> = parts.iter().map(|p| p.id).collect();
        Ok(tape.push(
            value,
            parents,
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                let mut offset = 0;
                for (i, rc) in row_counts.iter().enumerate() {
                    if acc.wants(i) {
                        acc.add(i, g.slice_rows(offset, offset + rc)?)?;
                    }
                    offset += rc;
                }
                Ok(())
            }),
        ))
    }

    /// Horizontally concatenates matrices with equal row counts.
    ///
    /// # Errors
    /// Returns an error if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[Var<'t>]) -> Result<Var<'t>> {
        let first = parts
            .first()
            .ok_or(tensor::TensorError::Empty { op: "concat_cols" })?;
        let tape = first.tape;
        let values: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let value = Tensor::concat_cols(&refs)?;
        let col_counts: Vec<usize> = values
            .iter()
            .map(|v| v.cols().expect("concat operand is a matrix"))
            .collect();
        let parents: Vec<usize> = parts.iter().map(|p| p.id).collect();
        Ok(tape.push(
            value,
            parents,
            Box::new(move |g: &Tensor, acc: &mut Accumulator<'_>| {
                let mut offset = 0;
                for (i, cc) in col_counts.iter().enumerate() {
                    if acc.wants(i) {
                        acc.add(i, g.slice_cols(offset, offset + cc)?)?;
                    }
                    offset += cc;
                }
                Ok(())
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Tape, Var};
    use tensor::Tensor;

    fn t(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn reshape_round_trips_gradient() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let loss = x.reshape(&[4]).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().shape().dims(), &[2, 2]);
    }

    #[test]
    fn slice_rows_gradient_zero_pads() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]));
        let loss = x.slice_rows(1, 2).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(
            grads.get(x).unwrap().as_slice(),
            &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn slice_cols_gradient_zero_pads() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]));
        let loss = x.slice_cols(0, 1).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(
            grads.get(x).unwrap().as_slice(),
            &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn mean_pool_rows_spreads_gradient() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let pooled = x.mean_pool_row_blocks(2).unwrap();
        assert_eq!(pooled.value().shape().dims(), &[1, 2]);
        assert_eq!(pooled.value().as_slice(), &[2.0, 3.0]);
        let loss = pooled.sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[0.5; 4]);
    }

    #[test]
    fn concat_rows_splits_gradient() {
        let tape = Tape::new();
        let a = tape.var(t(&[1.0, 2.0], &[1, 2]));
        let b = tape.var(t(&[3.0, 4.0], &[1, 2]));
        let cat = Var::concat_rows(&[a, b]).unwrap();
        assert_eq!(cat.value().shape().dims(), &[2, 2]);
        let mask = t(&[1.0, 1.0, 2.0, 2.0], &[2, 2]);
        let loss = cat.mul_mask(&mask).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(a).unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let tape = Tape::new();
        let a = tape.var(t(&[1.0, 2.0], &[2, 1]));
        let b = tape.var(t(&[3.0, 4.0], &[2, 1]));
        let cat = Var::concat_cols(&[a, b]).unwrap();
        assert_eq!(cat.value().shape().dims(), &[2, 2]);
        let mask = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let loss = cat.mul_mask(&mask).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(a).unwrap().as_slice(), &[5.0, 7.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[6.0, 8.0]);
    }

    #[test]
    fn add_tile_rows_matches_per_block_add_and_sums_gradient() {
        let tape = Tape::new();
        // Two stacked "samples" of 2×2 each.
        let x = tape.var(t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[4, 2]));
        let pos = tape.var(t(&[10.0, 20.0, 30.0, 40.0], &[2, 2]));
        let y = x.add_tile_rows(pos, 2).unwrap();
        assert_eq!(
            y.value().as_slice(),
            &[11.0, 22.0, 33.0, 44.0, 15.0, 26.0, 37.0, 48.0]
        );
        let mask = t(&[1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[4, 2]);
        let loss = y.mul_mask(&mask).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(x), Some(&mask));
        // dtile sums the two blocks of the mask.
        assert_eq!(grads.get(pos).unwrap().as_slice(), &[3.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn add_tile_rows_with_one_rep_is_plain_add() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0], &[1, 2]));
        let b = tape.var(t(&[3.0, 4.0], &[1, 2]));
        let y = x.add_tile_rows(b, 1).unwrap();
        assert_eq!(y.value().as_slice(), &[4.0, 6.0]);
        let loss = y.sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(b).unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn mean_pool_row_blocks_pools_per_block() {
        let tape = Tape::new();
        let x = tape.var(t(&[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[4, 2]));
        let pooled = x.mean_pool_row_blocks(2).unwrap();
        assert_eq!(pooled.value().shape().dims(), &[2, 2]);
        assert_eq!(pooled.value().as_slice(), &[2.0, 3.0, 20.0, 30.0]);
        let mask = t(&[1.0, 1.0, 3.0, 3.0], &[2, 2]);
        let loss = pooled.mul_mask(&mask).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(
            grads.get(x).unwrap().as_slice(),
            &[0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 1.5]
        );
    }

    #[test]
    fn mean_pool_row_blocks_of_whole_matrix_matches_mean_pool_rows() {
        let tape = Tape::new();
        let data = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let via_blocks = tape.var(data.clone()).mean_pool_row_blocks(3).unwrap();
        let via_rows = data.mean_rows().unwrap().reshape(&[1, 2]).unwrap();
        assert_eq!(via_blocks.value(), via_rows);
    }

    #[test]
    fn empty_concat_errors() {
        let parts: Vec<Var<'_>> = Vec::new();
        assert!(Var::concat_rows(&parts).is_err());
        assert!(Var::concat_cols(&parts).is_err());
    }
}
