//! The Cholesky factorization and its solves. Every factorization runs
//! one jitter ladder ([`Cholesky::refactor`]) over the column-order kernel
//! of `crate::block`, which reads the upper triangle of its input a row at
//! a time and writes `Lᵀ`, the one factor a [`Cholesky`] stores; every
//! solve reads `Lᵀ` through one forward and one backward kernel.

use crate::{Error, Matrix, Result};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The factorization is computed once and can then be reused for multiple
/// solves, log-determinant queries and sampling transforms — exactly the
/// access pattern of Gaussian-process regression, where the kernel matrix is
/// factored once per fit and solved against many right-hand sides.
///
/// # Examples
///
/// ```
/// use hyperpower_linalg::Matrix;
///
/// # fn main() -> Result<(), hyperpower_linalg::Error> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]])?;
/// let chol = a.cholesky()?;
/// // L is lower-triangular with positive diagonal.
/// assert!((chol.factor_l()[(0, 0)] - 5.0).abs() < 1e-12);
/// // log|A| via the factorization.
/// assert!(chol.log_det().is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cholesky {
    /// `Lᵀ` (row-major), the one stored factor: the column-order kernel
    /// writes column j of `L` as its row j, and every solve reads it —
    /// the forward solve one row of `Lᵀ` per step, the backward solve one
    /// row per solved element, both contiguous. [`Cholesky::factor_l`]
    /// builds `L` from it on request.
    lt: Matrix,
}

/// One attempt of the jitter ladder: [`crate::block::cholesky_factor_lt`]
/// with its failure as the typed error.
fn factor_shifted(a: &Matrix, shift: Option<f64>, lt: &mut Matrix) -> Result<()> {
    crate::block::cholesky_factor_lt(a.rows(), a.as_slice(), shift, lt.buf_mut())
        .map_err(|(pivot, value)| Error::NotPositiveDefinite { pivot, value })
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix: the first attempt of
    /// [`Cholesky::factor_with_jitter`], with no jitter.
    ///
    /// The factorization is the column-order kernel in `crate::block`,
    /// which reads the upper triangle of `a` a row at a time and writes
    /// `Lᵀ`; the strictly lower triangle is checked for finiteness but
    /// never factored. The factor is bit-identical to the naive
    /// left-looking loop's over the lower triangle of a symmetric matrix
    /// (pinned by `tests/reference_kernels.rs`), and on failure the first
    /// bad pivot and its pivot value are too.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] if `a` is not square.
    /// * [`Error::NonFiniteInput`] if `a` contains NaN or infinity.
    /// * [`Error::NotPositiveDefinite`] if a non-positive pivot arises.
    pub fn factor(a: &Matrix) -> Result<Self> {
        Cholesky::factor_with_jitter(a, 0.0, 0).map(|(chol, _)| chol)
    }

    /// Factors `a + jitter·I`, escalating `jitter` by ×10 up to `max_tries`
    /// times if the matrix is numerically indefinite.
    ///
    /// This is the standard trick for kernel matrices that are positive
    /// definite in exact arithmetic but borderline in floating point.
    ///
    /// Returns the factorization together with the jitter that was actually
    /// applied (0.0 if the first attempt, on `a` itself, succeeded).
    ///
    /// # Errors
    ///
    /// [`Error::NotSquare`] and [`Error::NonFiniteInput`] as for
    /// [`Cholesky::factor`]; otherwise the last attempt's error, which is
    /// the first attempt's when `max_tries` is 0.
    pub fn factor_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<(Self, f64)> {
        let mut chol = Cholesky::default();
        let jitter = chol.refactor(a, initial_jitter, max_tries)?;
        Ok((chol, jitter))
    }

    /// [`Cholesky::factor_with_jitter`] in place: factors `a + jitter·I`
    /// into this factorization's storage and returns the jitter applied.
    /// The factor, the jitter and any error are the same, bit for bit, and
    /// once the storage has the size, factoring allocates nothing — so a
    /// caller that factors many matrices of one size, like the GP
    /// hyper-parameter search with one covariance per trial, keeps one
    /// `Cholesky` and re-factors it.
    ///
    /// This is the one jitter ladder: it checks that every entry of `a` is
    /// finite, then factors its upper triangle, retrying `a + jitter·I`
    /// with `jitter` growing ×10 from `initial_jitter` up to `max_tries`
    /// times while the matrix is numerically indefinite. Each retry first
    /// checks, as a factorization of the shifted copy would, that every
    /// shifted diagonal entry is finite. After an error the stored factor
    /// is unspecified until the next successful factorization.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::factor_with_jitter`].
    pub fn refactor(&mut self, a: &Matrix, initial_jitter: f64, max_tries: usize) -> Result<f64> {
        if !a.is_square() {
            return Err(Error::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(Error::NonFiniteInput);
        }
        let n = a.rows();
        let lt = &mut self.lt;
        if lt.shape() != (n, n) {
            *lt = Matrix::zeros(n, n);
        }
        let mut outcome = factor_shifted(a, None, lt).map(|()| 0.0);
        let mut jitter = initial_jitter;
        for _ in 0..max_tries {
            if outcome.is_ok() {
                break;
            }
            let mut diagonal = a.as_slice().iter().step_by(n + 1);
            outcome = if diagonal.all(|d| (d + jitter).is_finite()) {
                factor_shifted(a, Some(jitter), lt).map(|()| jitter)
            } else {
                Err(Error::NonFiniteInput)
            };
            jitter *= 10.0;
        }
        let jitter = outcome?;
        // Inputs were checked above; this catches factor-internal
        // overflow/underflow before the factor escapes into GP solves.
        crate::debug_assert_finite!("cholesky factor", lt.as_slice());
        Ok(jitter)
    }

    /// The lower-triangular factor `L`, built from the stored `Lᵀ` on each
    /// call.
    pub fn factor_l(&self) -> Matrix {
        self.lt.transpose()
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lt.rows()
    }

    /// Solves `A·x = b` using the factorization (forward then backward
    /// substitution).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// [`Cholesky::solve`] in place: on return `b` holds `x`, with no
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(Error::ShapeMismatch {
                expected: format!("rhs of length {n}"),
                found: format!("rhs of length {}", b.len()),
            });
        }
        crate::block::solve_lower_lt(n, self.lt.as_slice(), 1, b);
        crate::block::solve_lower_transpose_lt(n, self.lt.as_slice(), b);
        Ok(())
    }

    /// Solves `L·Y = B` (forward substitution) for every column of `B` in
    /// one pass, in place: takes `B` and returns `Y` in its storage. Each
    /// column of the result is bit-for-bit the forward half of
    /// [`Cholesky::solve`] on that column.
    ///
    /// A row-major matrix with RHS in the columns is exactly the layout the
    /// forward kernel wants (components contiguous across right-hand
    /// sides), so each row of `Lᵀ` is loaded once and reused across all
    /// columns instead of once per column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_lower_columns(&self, mut b: Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(Error::ShapeMismatch {
                expected: format!("rhs with {n} rows"),
                found: format!("rhs with {} rows", b.rows()),
            });
        }
        crate::block::solve_lower_lt(n, self.lt.as_slice(), b.cols(), b.buf_mut());
        Ok(b)
    }

    /// Natural logarithm of `det(A) = det(L)² = (∏ Lᵢᵢ)²`: the logs of the
    /// pivots summed in index order, as [`crate::vector::sum_ordered`]
    /// folds them, then doubled.
    pub fn log_det(&self) -> f64 {
        let pivots = self.lt.as_slice().iter().step_by(self.dim() + 1);
        pivots.map(|d| d.ln()).fold(0.0, |acc, x| acc + x) * 2.0
    }

    /// Reconstructs `A = L·Lᵀ` (mainly useful in tests).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.dim();
        let lt = &self.lt;
        Matrix::from_fn(n, n, |i, j| {
            (0..=i.min(j)).map(|k| lt[(k, i)] * lt[(k, j)]).sum()
        })
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap()
    }

    #[test]
    fn factor_known_matrix() {
        // Classic textbook example with exact integer factor.
        let c = spd3().cholesky().unwrap();
        let l = c.factor_l();
        let expected =
            Matrix::from_rows(&[&[5.0, 0.0, 0.0], &[3.0, 3.0, 0.0], &[-1.0, 1.0, 3.0]]).unwrap();
        assert!(l.max_abs_diff(&expected).unwrap() < 1e-12);
    }

    #[test]
    fn reconstruct_roundtrip() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        assert!(c.reconstruct().max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn log_det_matches_product_of_pivots() {
        let c = spd3().cholesky().unwrap();
        // det = (5*3*3)^2 = 2025
        assert!((c.log_det() - 2025.0_f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let err = a.cholesky().unwrap_err();
        assert!(matches!(err, Error::NotPositiveDefinite { pivot: 1, .. }));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a).unwrap_err(),
            Error::NotSquare { rows: 2, cols: 3 }
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(a.cholesky().unwrap_err(), Error::NonFiniteInput));
    }

    #[test]
    fn jitter_recovers_borderline_matrix() {
        // Rank-deficient matrix: needs jitter to factor.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let (c, jitter) = Cholesky::factor_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn jitter_without_retries_reports_the_first_failure() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let err = Cholesky::factor_with_jitter(&a, 1e-10, 0).unwrap_err();
        assert!(matches!(
            err,
            Error::NotPositiveDefinite { pivot: 1, value } if value == -3.0
        ));
        assert_eq!(
            format!("{err:?}"),
            format!("{:?}", a.cholesky().unwrap_err())
        );
    }

    #[test]
    fn refactor_matches_owned_factor_and_reads_only_the_upper_triangle() {
        let a = spd3();
        let (owned, _) = Cholesky::factor_with_jitter(&a, 1e-10, 3).unwrap();
        // A finite lower triangle that disagrees with the upper (a search
        // trial leaves it zero) is never read.
        let mut upper = a.clone();
        upper[(1, 0)] = 0.0;
        upper[(2, 0)] = -1e300;
        let mut chol = Cholesky::default();
        // A failed factorization first: the next one must not read its
        // leftovers.
        let indefinite =
            Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        assert!(chol.refactor(&indefinite, 1e-10, 0).is_err());
        let jitter = chol.refactor(&upper, 1e-10, 3).unwrap();
        assert_eq!(jitter, 0.0);
        assert_eq!(chol, owned);
        assert_eq!(Cholesky::factor(&upper).unwrap(), owned);
        let mut x = vec![1.0, -2.0, 0.5];
        chol.solve_in_place(&mut x).unwrap();
        assert_eq!(x, owned.solve(&[1.0, -2.0, 0.5]).unwrap());
        assert!(chol.solve_in_place(&mut [1.0]).is_err());
        // Both check every entry for finiteness, either triangle.
        for (i, j) in [(0, 2), (2, 0)] {
            let mut bad = upper.clone();
            bad[(i, j)] = f64::NAN;
            assert!(matches!(
                Cholesky::factor(&bad).unwrap_err(),
                Error::NonFiniteInput
            ));
            assert!(matches!(
                chol.refactor(&bad, 1e-10, 3).unwrap_err(),
                Error::NonFiniteInput
            ));
        }
    }

    #[test]
    fn jitter_escalates_tenfold_up_to_max_tries() {
        // Indefinite by about 1e-6: the retries at 1e-10 … 1e-7 fail, the
        // fifth, at 1e-6, succeeds.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 - 1e-6]]).unwrap();
        let (_, jitter) = Cholesky::factor_with_jitter(&a, 1e-10, 5).unwrap();
        assert_eq!(jitter, 1e-10 * 10.0 * 10.0 * 10.0 * 10.0);
        let err = Cholesky::factor_with_jitter(&a, 1e-10, 4).unwrap_err();
        let mut shifted = a.clone();
        shifted.add_diagonal(1e-10 * 10.0 * 10.0 * 10.0);
        assert_eq!(
            format!("{err:?}"),
            format!("{:?}", shifted.cholesky().unwrap_err())
        );
    }

    #[test]
    fn jitter_zero_for_well_conditioned() {
        let (_, jitter) = Cholesky::factor_with_jitter(&spd3(), 1e-10, 5).unwrap();
        assert_eq!(jitter, 0.0);
    }

    #[test]
    fn solve_wrong_length_rejected() {
        let c = spd3().cholesky().unwrap();
        assert!(c.solve(&[1.0, 2.0]).is_err());
    }
}
