use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{Cholesky, Error, Result};

/// A dense, row-major matrix of `f64` values.
///
/// The matrix is the basic currency of the numerical code in this workspace:
/// Gaussian-process kernels, design matrices for the power/memory models and
/// covariance matrices are all `Matrix` values. Storage is a single `Vec`
/// in row-major order. The hot products ([`Matrix::matmul`],
/// [`Matrix::gram`], [`Matrix::matvec`]) are cache-blocked and
/// register-tiled in `crate::block` under a strict accumulation-order
/// contract: per output element they execute the exact operation sequence
/// of the naive element-at-a-time loops, so results are bit-for-bit
/// identical to the pre-blocking implementation (see DESIGN.md §2a and
/// `tests/reference_kernels.rs`).
///
/// # Examples
///
/// ```
/// use hyperpower_linalg::Matrix;
///
/// # fn main() -> Result<(), hyperpower_linalg::Error> {
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// # Ok(())
/// # }
/// ```
///
/// The default is the empty 0×0 matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::ShapeMismatch {
                expected: format!("{} elements for {rows}x{cols}", rows * cols),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] if there are no rows or the rows are empty,
    /// and [`Error::ShapeMismatch`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(Error::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(Error::ShapeMismatch {
                    expected: format!("row of length {cols}"),
                    found: format!("row {i} of length {}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// Allocates per call; hot loops should use [`Matrix::col_iter`] or
    /// [`Matrix::copy_col_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        self.col_iter(j).collect()
    }

    /// Iterates over column `j` without allocating (strided walk over the
    /// row-major buffer).
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        self.data[j..].iter().step_by(self.cols.max(1)).copied()
    }

    /// Copies column `j` into a caller-provided buffer of length
    /// `self.rows()` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()` or `out.len() != self.rows()`.
    pub fn copy_col_into(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        assert_eq!(out.len(), self.rows, "copy_col_into: buffer length");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.data[i * self.cols + j];
        }
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Mutably borrows the underlying row-major buffer (crate-internal:
    /// the blocked kernels in `crate::block` write through this).
    pub(crate) fn buf_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns `true` if every entry is finite.
    ///
    /// Every factorization checks its whole input, so this folds with `&`
    /// instead of stopping at the first non-finite entry: the loop then
    /// vectorizes, and the answer is the same.
    pub fn is_finite(&self) -> bool {
        self.data
            .iter()
            .fold(true, |finite, v| finite & v.is_finite())
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(Error::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", x.len()),
            });
        }
        let mut out = vec![0.0; self.rows];
        crate::block::matvec_into(self.rows, self.cols, &self.data, x, &mut out);
        Ok(out)
    }

    /// Matrix-matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                expected: format!("rhs with {} rows", self.cols),
                found: format!("rhs with {} rows", rhs.rows),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::block::matmul_into(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (always symmetric positive semi-definite).
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        crate::block::gram_into(self.rows, self.cols, &self.data, &mut out.data);
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                found: format!("{}x{}", rhs.rows, rhs.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a copy scaled by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * factor).collect(),
        }
    }

    /// Adds `value` to every diagonal entry in place (useful for jitter /
    /// ridge terms).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, value: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            let c = self.cols;
            self.data[i * c + i] += value;
        }
    }

    /// Computes the Cholesky factorization of this symmetric
    /// positive-definite matrix. See [`Cholesky`].
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is not square, contains non-finite
    /// entries, or is not positive definite.
    pub fn cholesky(&self) -> Result<Cholesky> {
        Cholesky::factor(self)
    }

    /// Maximum absolute difference to another matrix of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Result<f64> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                found: format!("{}x{}", rhs.rows, rhs.cols),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn is_finite_finds_every_non_finite_entry() {
        assert!(Matrix::zeros(0, 0).is_finite());
        assert!(Matrix::zeros(0, 3).is_finite());
        let finite = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f64 - 17.5);
        assert!(finite.is_finite());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 17, 34] {
                let mut m = finite.clone();
                m.buf_mut()[at] = bad;
                assert!(!m.is_finite(), "{bad} at entry {at}");
            }
        }
    }

    #[test]
    fn col_accessors_agree() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        for j in 0..m.cols() {
            let owned = m.col(j);
            let via_iter: Vec<f64> = m.col_iter(j).collect();
            assert_eq!(owned, via_iter);
            let mut buf = vec![0.0; m.rows()];
            m.copy_col_into(j, &mut buf);
            assert_eq!(owned, buf);
        }
        // Single-column matrix: the stride degenerates to 1.
        let thin = Matrix::from_rows(&[&[1.5], &[-2.5]]).unwrap();
        assert_eq!(thin.col_iter(0).collect::<Vec<_>>(), vec![1.5, -2.5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn col_iter_out_of_bounds_panics() {
        let m = Matrix::identity(2);
        let _ = m.col_iter(2);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[1.0]]).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }));
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(matches!(Matrix::from_rows(&[]).unwrap_err(), Error::Empty));
    }

    #[test]
    fn identity_matvec_is_identity() {
        let eye = Matrix::identity(3);
        let x = [1.0, -2.0, 3.5];
        assert_eq!(eye.matvec(&x).unwrap(), x.to_vec());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_equals_transpose_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = a.gram();
        let expected = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&expected).unwrap() < 1e-12);
    }

    #[test]
    fn add_diagonal_adds_jitter() {
        let mut m = Matrix::zeros(3, 3);
        m.add_diagonal(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(2, 2)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m}").is_empty());
    }

    #[test]
    fn scale_and_add() {
        let a = Matrix::identity(2);
        let b = a.scale(3.0).add(&a).unwrap();
        assert_eq!(b[(0, 0)], 4.0);
        assert_eq!(b[(0, 1)], 0.0);
    }
}
