//! Elementwise arithmetic, scalar ops, broadcasting helpers and transposition.

use crate::{kernels, BinaryOp, Result, Tensor, TensorError, UnaryOp};

impl Tensor {
    /// Elementwise addition of two tensors with identical shapes.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.binary(other, BinaryOp::Add)
    }

    /// Elementwise subtraction (`self - other`).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.binary(other, BinaryOp::Sub)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.binary(other, BinaryOp::Mul)
    }

    /// Elementwise division (`self / other`).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.binary(other, BinaryOp::Div)
    }

    /// Adds `value` to every element.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.apply(UnaryOp::AddScalar(value))
    }

    /// Multiplies every element by `value`.
    pub fn scale(&self, value: f32) -> Tensor {
        self.apply(UnaryOp::MulScalar(value))
    }

    /// Applies `f` to every element, producing a new tensor of the same shape.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.as_slice().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(data, self.shape().dims()).expect("map preserves volume")
    }

    /// Adds a rank-1 `row` vector to every row of a matrix (bias broadcast).
    ///
    /// # Errors
    /// Returns an error if `self` is not a matrix or `row.len()` differs from
    /// the column count.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Result<Tensor> {
        let (r, c) = self.shape().as_matrix()?;
        if row.len() != c {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape().dims().to_vec(),
                rhs: row.shape().dims().to_vec(),
            });
        }
        let mut data = self.as_slice().to_vec();
        kernels::add_tile_rows(&mut data, row.as_slice());
        Tensor::from_vec(data, &[r, c])
    }

    /// Transposes a matrix (rank-1 tensors become a column matrix).
    ///
    /// # Errors
    /// Returns an error for rank-0 or rank>2 tensors.
    pub fn transpose(&self) -> Result<Tensor> {
        let (r, c) = self.shape().as_matrix()?;
        let src = self.as_slice();
        let mut data = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                data[j * r + i] = src[i * c + j];
            }
        }
        Ok(Tensor::from_vec(data, &[c, r]).expect("transpose preserves volume"))
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise natural exponent (runs on the dispatched SIMD kernel).
    pub fn exp(&self) -> Tensor {
        self.apply(UnaryOp::Exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise power.
    pub fn powi(&self, n: i32) -> Tensor {
        self.map(|v| v.powi(n))
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Returns `true` if every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.as_slice().iter().all(|v| v.is_finite())
    }

    /// Squared Euclidean distance between two tensors of identical shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn squared_distance(&self, other: &Tensor) -> Result<f32> {
        if !self.shape().same_as(other.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: "squared_distance",
                lhs: self.shape().dims().to_vec(),
                rhs: other.shape().dims().to_vec(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }

    /// Euclidean distance between two tensors of identical shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn distance(&self, other: &Tensor) -> Result<f32> {
        Ok(self.squared_distance(other)?.sqrt())
    }

    /// Flattens the tensor into rank 1, preserving row-major order.
    pub fn flatten(&self) -> Tensor {
        Tensor::from_vec(self.as_slice().to_vec(), &[self.len()]).expect("flatten keeps volume")
    }

    /// Converts a rank-1 tensor into a `1 × n` matrix view (copy).
    pub fn as_row_matrix(&self) -> Tensor {
        Tensor::from_vec(self.as_slice().to_vec(), &[1, self.len()])
            .expect("row matrix keeps volume")
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[4.0, 3.0, 2.0, 1.0], &[2, 2]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.div(&b).unwrap().as_slice(), &[0.25, 2.0 / 3.0, 1.5, 4.0]);
    }

    #[test]
    fn arithmetic_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn scalar_ops_and_map() {
        let a = t(&[1.0, -2.0], &[2]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, -1.0]);
        assert_eq!(a.scale(-2.0).as_slice(), &[-2.0, 4.0]);
        assert_eq!(a.abs().as_slice(), &[1.0, 2.0]);
        assert_eq!(a.map(|v| v * v).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn row_broadcasts() {
        let m = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = t(&[10.0, 20.0], &[2]);
        assert_eq!(
            m.add_row_broadcast(&r).unwrap().as_slice(),
            &[11.0, 22.0, 13.0, 24.0]
        );
        let bad = t(&[1.0, 2.0, 3.0], &[3]);
        assert!(m.add_row_broadcast(&bad).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mt = m.transpose().unwrap();
        assert_eq!(mt.shape().dims(), &[3, 2]);
        assert_eq!(mt.at(2, 1).unwrap(), 6.0);
        assert_eq!(mt.transpose().unwrap(), m);
    }

    #[test]
    fn distances() {
        let a = t(&[0.0, 3.0], &[2]);
        let b = t(&[4.0, 0.0], &[2]);
        assert_eq!(a.squared_distance(&b).unwrap(), 25.0);
        assert_eq!(a.distance(&b).unwrap(), 5.0);
    }

    #[test]
    fn clamp_and_finite() {
        let a = t(&[-200.0, 5.0, f32::NAN], &[3]);
        let c = a.clamp(-100.0, 0.0);
        assert_eq!(c.as_slice()[0], -100.0);
        assert_eq!(c.as_slice()[1], 0.0);
        assert!(!a.all_finite());
        assert!(t(&[1.0], &[1]).all_finite());
    }

    #[test]
    fn flatten_and_row_matrix() {
        let m = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(m.flatten().shape().dims(), &[4]);
        let v = t(&[1.0, 2.0], &[2]);
        assert_eq!(v.as_row_matrix().shape().dims(), &[1, 2]);
    }

    #[test]
    fn row_broadcasts_accept_zero_column_matrices() {
        let empty = Tensor::from_vec(vec![], &[2, 0]).unwrap();
        let row = Tensor::from_vec(vec![], &[0]).unwrap();
        assert_eq!(
            empty.add_row_broadcast(&row).unwrap().shape().dims(),
            &[2, 0]
        );
    }
}
