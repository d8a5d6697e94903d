use std::fmt;
use std::sync::Arc;

use crate::{kernels, Result, Shape, TensorError};

/// A dense, row-major `f32` tensor with shared, copy-on-write storage.
///
/// `Tensor` is the single numeric container used throughout the VITAL
/// workspace. Its buffer is always contiguous (which keeps the autograd
/// layer simple) and lives behind an [`Arc`], so:
///
/// * **Cloning is `O(1)`** — a clone bumps a reference count instead of
///   copying the data. Model weights snapshotted onto autograd tapes, or
///   shared between concurrent inference workers, all read the *same*
///   allocation with no lock and no copy. `Tensor` is `Send + Sync`.
/// * **Mutation is copy-on-write** — [`Tensor::as_mut_slice`] (and the
///   in-place helpers built on it) mutate the buffer directly when this
///   handle is the only owner, and transparently detach onto a private
///   copy first when it is shared. Freshly created tensors are always
///   unique, so hot-path kernels that fill a new buffer never pay the
///   copy; results are bit-identical either way.
///
/// # Example
/// ```
/// use tensor::Tensor;
/// # fn main() -> Result<(), tensor::TensorError> {
/// let x = Tensor::zeros(&[2, 3]);
/// assert_eq!(x.shape().dims(), &[2, 3]);
/// assert_eq!(x.len(), 6);
/// # Ok(())
/// # }
/// ```
///
/// A model checkpoint (`vital::Checkpoint`) stores a tensor as its shape
/// followed by its contiguous row-major data, and rebuilds it with
/// [`Tensor::from_vec`] once the shape's volume is checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Shape,
}

impl Tensor {
    /// Internal constructor for a freshly built buffer whose length is
    /// already known to match `shape` (the `Arc` it creates is unique, so
    /// subsequent in-place writes take the no-copy path).
    pub(crate) fn from_parts(data: Vec<f32>, shape: Shape) -> Self {
        debug_assert_eq!(data.len(), shape.volume());
        Tensor {
            data: Arc::new(data),
            shape,
        }
    }

    /// Creates a tensor from a flat row-major buffer and a shape.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` is not the
    /// product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                provided: data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor::from_parts(data, shape))
    }

    /// Creates a scalar tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_parts(vec![value], Shape::scalar())
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.volume()];
        Tensor::from_parts(data, shape)
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.volume()];
        Tensor::from_parts(data, shape)
    }

    /// Creates a square identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_parts(data, Shape::new(&[n, n]))
    }

    /// Creates a zero tensor with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Tensor::from_parts(vec![0.0; self.data.len()], self.shape.clone())
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The number of rows when viewed as a matrix (rank 1 → 1 row).
    ///
    /// # Errors
    /// Returns an error for rank-0 or rank>2 tensors.
    pub fn rows(&self) -> Result<usize> {
        Ok(self.shape.as_matrix()?.0)
    }

    /// The number of columns when viewed as a matrix.
    ///
    /// # Errors
    /// Returns an error for rank-0 or rank>2 tensors.
    pub fn cols(&self) -> Result<usize> {
        Ok(self.shape.as_matrix()?.1)
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    ///
    /// Copy-on-write: when the storage is shared with other tensor handles
    /// (clones are `O(1)` reference bumps), this first detaches onto a
    /// private copy so the mutation can never be observed through them. A
    /// uniquely-owned buffer — every freshly created tensor — is mutated in
    /// place with no copy.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor and returns its buffer (clones only if the
    /// storage is still shared with another handle).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Element at a 2-D position `(row, col)`.
    ///
    /// # Errors
    /// Returns an error if the tensor is not a matrix or indices are out of
    /// bounds.
    pub fn at(&self, row: usize, col: usize) -> Result<f32> {
        let (r, c) = self.shape.as_matrix()?;
        if row >= r {
            return Err(TensorError::IndexOutOfBounds {
                op: "at.row",
                index: row,
                bound: r,
            });
        }
        if col >= c {
            return Err(TensorError::IndexOutOfBounds {
                op: "at.col",
                index: col,
                bound: c,
            });
        }
        Ok(self.data[row * c + col])
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Errors
    /// Returns an error if the tensor is not a matrix or indices are out of
    /// bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) -> Result<()> {
        let (r, c) = self.shape.as_matrix()?;
        if row >= r || col >= c {
            return Err(TensorError::IndexOutOfBounds {
                op: "set",
                index: row.max(col),
                bound: r.max(c),
            });
        }
        self.as_mut_slice()[row * c + col] = value;
        Ok(())
    }

    /// Returns a copy of row `row` as a rank-1 tensor.
    ///
    /// # Errors
    /// Returns an error if the tensor is not a matrix or `row` is out of bounds.
    pub fn row(&self, row: usize) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix()?;
        if row >= r {
            return Err(TensorError::IndexOutOfBounds {
                op: "row",
                index: row,
                bound: r,
            });
        }
        Ok(Tensor::from_parts(
            self.data[row * c..(row + 1) * c].to_vec(),
            Shape::new(&[c]),
        ))
    }

    /// Reinterprets the tensor with a new shape of the same volume.
    ///
    /// The result *shares* this tensor's storage (`O(1)`, no copy);
    /// copy-on-write keeps later mutations of either handle private.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                provided: self.data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor {
            data: Arc::clone(&self.data),
            shape,
        })
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if the tensor holds more than
    /// one element.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() != 1 {
            return Err(TensorError::LengthMismatch {
                provided: self.data.len(),
                expected: 1,
            });
        }
        Ok(self.data[0])
    }

    /// Stacks rank-1 tensors of equal length into a matrix, one per row.
    ///
    /// # Errors
    /// Returns an error if `rows` is empty or the lengths differ.
    pub fn from_rows(rows: &[Tensor]) -> Result<Tensor> {
        let first = rows.first().ok_or(TensorError::Empty { op: "from_rows" })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "from_rows",
                    lhs: first.shape.dims().to_vec(),
                    rhs: r.shape.dims().to_vec(),
                });
            }
            data.extend_from_slice(r.as_slice());
        }
        Tensor::from_vec(data, &[rows.len(), cols])
    }

    /// Vertically concatenates matrices with the same number of columns.
    ///
    /// # Errors
    /// Returns an error if `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or(TensorError::Empty { op: "concat_rows" })?;
        let cols = first.cols()?;
        let mut rows = 0;
        for p in parts {
            if p.cols()? != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: first.shape.dims().to_vec(),
                    rhs: p.shape.dims().to_vec(),
                });
            }
            rows += p.rows()?;
        }
        let mut data = vec![0.0; rows * cols];
        kernels::concat_rows(parts.iter().map(|p| p.as_slice()), &mut data);
        Ok(Tensor::from_parts(data, Shape::new(&[rows, cols])))
    }

    /// Horizontally concatenates matrices with the same number of rows.
    ///
    /// # Errors
    /// Returns an error if `parts` is empty, a part is not a matrix or row
    /// counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or(TensorError::Empty { op: "concat_cols" })?;
        let rows = first.rows()?;
        let mut widths = Vec::with_capacity(parts.len());
        for p in parts {
            let (r, c) = p.shape.as_matrix()?;
            if r != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: first.shape.dims().to_vec(),
                    rhs: p.shape.dims().to_vec(),
                });
            }
            widths.push(c);
        }
        let cols = widths.iter().sum();
        let mut data = vec![0.0; rows * cols];
        let parts = parts.iter().map(|p| p.as_slice()).zip(widths);
        kernels::concat_cols(parts, cols, &mut data);
        Ok(Tensor::from_parts(data, Shape::new(&[rows, cols])))
    }

    /// The `rows × width` window starting `skip` elements into this
    /// matrix of `stride` columns, copied out as a new matrix.
    fn window(&self, stride: usize, skip: usize, rows: usize, width: usize) -> Tensor {
        let mut data = vec![0.0; rows * width];
        if !data.is_empty() {
            kernels::copy_rows(&self.data[skip..], stride, &mut data, width, width);
        }
        Tensor::from_parts(data, Shape::new(&[rows, width]))
    }

    /// Copies rows `[start, end)` into a new matrix.
    ///
    /// # Errors
    /// Returns an error if the range is invalid or out of bounds.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix()?;
        if start > end || end > r {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_rows",
                index: end,
                bound: r,
            });
        }
        Ok(self.window(c, start * c, end - start, c))
    }

    /// Copies columns `[start, end)` into a new matrix.
    ///
    /// # Errors
    /// Returns an error if the range is invalid or out of bounds.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix()?;
        if start > end || end > c {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_cols",
                index: end,
                bound: c,
            });
        }
        Ok(self.window(c, start, r, end - start))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        const MAX: usize = 8;
        let shown: Vec<String> = self
            .data
            .iter()
            .take(MAX)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(f, "[{}", shown.join(", "))?;
        if self.data.len() > MAX {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.rows().unwrap(), 2);
        assert_eq!(t.cols().unwrap(), 3);
        assert_eq!(t.at(1, 2).unwrap(), 6.0);
        assert_eq!(t.row(0).unwrap().as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(matches!(
            Tensor::from_vec(vec![1.0, 2.0], &[3]),
            Err(TensorError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(0, 0).unwrap(), 1.0);
        assert_eq!(i.at(0, 1).unwrap(), 0.0);
        assert_eq!(i.at(2, 2).unwrap(), 1.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let m = t.reshape(&[2, 2]).unwrap();
        assert_eq!(m.at(1, 0).unwrap(), 3.0);
        assert!(t.reshape(&[3, 2]).is_err());
    }

    #[test]
    fn set_and_item() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(0, 1, 5.0).unwrap();
        assert_eq!(t.at(0, 1).unwrap(), 5.0);
        assert!(t.set(2, 0, 1.0).is_err());
        assert_eq!(Tensor::scalar(3.5).item().unwrap(), 3.5);
        assert!(t.item().is_err());
    }

    #[test]
    fn from_rows_stacks() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let m = Tensor::from_rows(&[a, b]).unwrap();
        assert_eq!(m.shape().dims(), &[2, 2]);
        assert_eq!(m.at(1, 1).unwrap(), 4.0);
    }

    #[test]
    fn concat_rows_and_cols() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        let v = Tensor::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(v.shape().dims(), &[2, 2]);
        let h = Tensor::concat_cols(&[&a, &b]).unwrap();
        assert_eq!(h.shape().dims(), &[1, 4]);
        assert_eq!(h.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_mismatch_errors() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::zeros(&[1, 3]);
        assert!(Tensor::concat_rows(&[&a, &b]).is_err());
        let c = Tensor::zeros(&[2, 2]);
        assert!(Tensor::concat_cols(&[&a, &c]).is_err());
        // Every part is validated, also when the first has no rows to
        // copy: a taller part and a rank-3 part are both refused.
        let none = Tensor::zeros(&[0, 3]);
        assert!(matches!(
            Tensor::concat_cols(&[&none, &Tensor::zeros(&[2, 4])]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(Tensor::concat_cols(&[&none, &Tensor::zeros(&[2, 2, 2])]).is_err());
        assert_eq!(
            Tensor::concat_cols(&[&none, &Tensor::zeros(&[0, 4])])
                .unwrap()
                .shape()
                .dims(),
            &[0, 7]
        );
    }

    #[test]
    fn slicing_rows_and_cols() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let r = t.slice_rows(1, 3).unwrap();
        assert_eq!(r.shape().dims(), &[2, 4]);
        assert_eq!(r.at(0, 0).unwrap(), 4.0);
        let c = t.slice_cols(1, 3).unwrap();
        assert_eq!(c.shape().dims(), &[3, 2]);
        assert_eq!(c.at(2, 1).unwrap(), 10.0);
        assert!(t.slice_rows(2, 4).is_err());
        assert!(t.slice_cols(3, 2).is_err());
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[10]);
        let s = t.to_string();
        assert!(s.contains('…'));
    }

    #[test]
    fn clones_share_storage_until_mutated() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data), "clone must not copy");
        // Mutating the clone detaches it; the original is untouched.
        b.as_mut_slice()[0] = 9.0;
        assert!(!Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.as_slice(), &[9.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn reshape_shares_storage() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let m = t.reshape(&[2, 2]).unwrap();
        assert!(Arc::ptr_eq(&t.data, &m.data), "reshape must not copy");
    }

    #[test]
    fn into_vec_avoids_copy_when_unique() {
        let t = Tensor::from_vec(vec![5.0, 6.0], &[2]).unwrap();
        assert_eq!(t.into_vec(), vec![5.0, 6.0]);
        let shared = Tensor::ones(&[3]);
        let _keep = shared.clone();
        assert_eq!(shared.into_vec(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn tensors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
