//! Covariance functions (kernels) for Gaussian-process regression.
//!
//! Two stationary kernels are provided: the squared-exponential and the
//! Matérn 5/2. Spearmint — the tool HyperPower builds on — defaults to
//! Matérn 5/2 for hyper-parameter optimization because objective surfaces
//! of trained networks are typically less smooth than the SE kernel assumes;
//! we follow that default in the `hyperpower` crate while keeping SE
//! available for comparison and tests.

use std::fmt::Debug;
use std::sync::Arc;

use hyperpower_linalg::{vector, Matrix};

use crate::{Error, Result};

/// A stationary covariance function over `ℝᵈ`.
///
/// The trait is object-safe so that searchers can hold a
/// `Arc<dyn Kernel>` chosen at runtime.
pub trait Kernel: Debug + Send + Sync {
    /// Evaluates `k(a, b)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `a.len() != b.len()`.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// The kernel's characteristic length scale.
    fn length_scale(&self) -> f64;

    /// Returns a boxed copy of this kernel with a different length scale.
    ///
    /// Used by the marginal-likelihood fitter, which searches over length
    /// scales without knowing the concrete kernel type.
    fn with_length_scale(&self, length_scale: f64) -> Arc<dyn Kernel>;

    /// Evaluates the kernel at a row of squared distances, for kernels
    /// that see the data only through them: writes `out[j] = k(d2[j])` and
    /// returns `true`.
    ///
    /// Each `out[j]` is bit-for-bit `eval(a, bⱼ)` for
    /// `d2[j] = vector::squared_distance(a, bⱼ)`: the row batches the
    /// values but keeps each one's floating-point steps. Every covariance
    /// the GP builds goes through this hook a row at a time — the
    /// provided [`Kernel::matrix`] and [`Kernel::cross`], the posterior's
    /// cross-covariances and every trial of the hyper-parameter fit, which
    /// computes a fit's pairwise distances once. The default returns
    /// `false` and leaves `out` alone: the kernel needs the rows themselves
    /// (as [`Matern52Ard`](crate::Matern52Ard) does), and those callers
    /// evaluate them with [`Kernel::eval`] instead.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `d2.len() != out.len()`.
    fn eval_squared_distances(&self, _d2: &[f64], _out: &mut [f64]) -> bool {
        false
    }

    /// Builds the symmetric kernel matrix `K[i][j] = k(xᵢ, xⱼ)` for the rows
    /// of `x`, evaluating the lower triangle a row at a time through
    /// [`Kernel::eval_squared_distances`].
    fn matrix(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        let mut d2 = Vec::with_capacity(n);
        for i in 0..n {
            d2.clear();
            d2.extend((0..=i).map(|j| vector::squared_distance(x.row(i), x.row(j))));
            fill_row(self, &d2, &mut k.row_mut(i)[..=i], |j| {
                self.eval(x.row(i), x.row(j))
            });
            for j in 0..i {
                k[(j, i)] = k[(i, j)];
            }
        }
        k
    }

    /// Evaluates the cross-covariance vector `k(x*, xᵢ)` between one query
    /// point and each row of `x`, through
    /// [`Kernel::eval_squared_distances`].
    fn cross(&self, query: &[f64], x: &Matrix) -> Vec<f64> {
        let d2: Vec<f64> = (0..x.rows())
            .map(|i| vector::squared_distance(query, x.row(i)))
            .collect();
        let mut k = vec![0.0; d2.len()];
        fill_row(self, &d2, &mut k, |i| self.eval(query, x.row(i)));
        k
    }
}

/// Fills `out` with the kernel at the squared distances `d2` through
/// [`Kernel::eval_squared_distances`] or, for a kernel without a distance
/// form, with `at_rows(j)`: the kernel evaluated at the two rows whose
/// squared distance is `d2[j]`.
pub(crate) fn fill_row<K: Kernel + ?Sized>(
    kernel: &K,
    d2: &[f64],
    out: &mut [f64],
    at_rows: impl Fn(usize) -> f64,
) {
    if !kernel.eval_squared_distances(d2, out) {
        for (j, k) in out.iter_mut().enumerate() {
            *k = at_rows(j);
        }
    }
}

fn validate_length_scale(length_scale: f64) -> Result<()> {
    if !(length_scale.is_finite() && length_scale > 0.0) {
        return Err(Error::InvalidHyperParameter {
            name: "length_scale",
            value: length_scale,
        });
    }
    Ok(())
}

/// The squared-exponential (RBF) kernel
/// `k(a, b) = exp(−‖a − b‖² / (2ℓ²))`.
///
/// Infinitely differentiable — the smoothest common choice.
///
/// # Examples
///
/// ```
/// use hyperpower_gp::{Kernel, SquaredExponential};
///
/// let k = SquaredExponential::new(1.0);
/// assert_eq!(k.eval(&[0.0], &[0.0]), 1.0);
/// assert!(k.eval(&[0.0], &[3.0]) < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquaredExponential {
    length_scale: f64,
}

impl SquaredExponential {
    /// Creates a squared-exponential kernel with the given length scale.
    ///
    /// # Panics
    ///
    /// Panics if `length_scale` is not positive and finite; use
    /// [`SquaredExponential::try_new`] for a fallible constructor.
    pub fn new(length_scale: f64) -> Self {
        match Self::try_new(length_scale) {
            Ok(k) => k,
            Err(_) => panic!("length scale must be positive and finite, got {length_scale}"),
        }
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHyperParameter`] if `length_scale` is not
    /// positive and finite.
    pub fn try_new(length_scale: f64) -> Result<Self> {
        validate_length_scale(length_scale)?;
        Ok(SquaredExponential { length_scale })
    }

    /// Wraps this kernel in an [`Arc`] for use as a trait object.
    pub fn into_kernel(self) -> Arc<dyn Kernel> {
        Arc::new(self)
    }
}

/// The squared-exponential formula, shared by `eval` and the row hook.
fn se_at_squared_distance(d2: f64, length_scale: f64) -> f64 {
    (-d2 / (2.0 * length_scale * length_scale)).exp()
}

impl Kernel for SquaredExponential {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        se_at_squared_distance(vector::squared_distance(a, b), self.length_scale)
    }

    fn eval_squared_distances(&self, d2: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(d2.len(), out.len(), "kernel row: length mismatch");
        let length_scale = self.length_scale;
        for (k, &d2) in out.iter_mut().zip(d2) {
            *k = se_at_squared_distance(d2, length_scale);
        }
        true
    }

    fn length_scale(&self) -> f64 {
        self.length_scale
    }

    fn with_length_scale(&self, length_scale: f64) -> Arc<dyn Kernel> {
        Arc::new(SquaredExponential { length_scale })
    }
}

/// The Matérn 5/2 kernel
/// `k(r) = (1 + √5·r/ℓ + 5r²/(3ℓ²))·exp(−√5·r/ℓ)`.
///
/// Twice differentiable; the standard surrogate kernel for hyper-parameter
/// optimization (Snoek et al. 2012, the basis of the paper's tooling).
///
/// # Examples
///
/// ```
/// use hyperpower_gp::{Kernel, Matern52};
///
/// let k = Matern52::new(2.0);
/// assert_eq!(k.eval(&[1.0, 1.0], &[1.0, 1.0]), 1.0);
/// let near = k.eval(&[0.0, 0.0], &[0.5, 0.0]);
/// let far = k.eval(&[0.0, 0.0], &[3.0, 0.0]);
/// assert!(near > far);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matern52 {
    length_scale: f64,
}

impl Matern52 {
    /// Creates a Matérn 5/2 kernel with the given length scale.
    ///
    /// # Panics
    ///
    /// Panics if `length_scale` is not positive and finite; use
    /// [`Matern52::try_new`] for a fallible constructor.
    pub fn new(length_scale: f64) -> Self {
        match Self::try_new(length_scale) {
            Ok(k) => k,
            Err(_) => panic!("length scale must be positive and finite, got {length_scale}"),
        }
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHyperParameter`] if `length_scale` is not
    /// positive and finite.
    pub fn try_new(length_scale: f64) -> Result<Self> {
        validate_length_scale(length_scale)?;
        Ok(Matern52 { length_scale })
    }

    /// Wraps this kernel in an [`Arc`] for use as a trait object.
    pub fn into_kernel(self) -> Arc<dyn Kernel> {
        Arc::new(self)
    }
}

/// The Matérn 5/2 formula's first step, `s = √5·r/ℓ` at `r = √d²`, shared
/// by `eval` and the row hook.
fn matern_scaled_distance(d2: f64, length_scale: f64) -> f64 {
    5.0_f64.sqrt() * d2.sqrt() / length_scale
}

/// The Matérn 5/2 formula's second step, `(1 + s + s²/3)·exp(−s)`.
fn matern_at_scaled_distance(s: f64) -> f64 {
    (1.0 + s + s * s / 3.0) * (-s).exp()
}

impl Kernel for Matern52 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let s = matern_scaled_distance(vector::squared_distance(a, b), self.length_scale);
        matern_at_scaled_distance(s)
    }

    /// Two passes over the row: the square roots and divisions of the
    /// first vectorize, and the second is bound by `exp`.
    fn eval_squared_distances(&self, d2: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(d2.len(), out.len(), "kernel row: length mismatch");
        let length_scale = self.length_scale;
        for (s, &d2) in out.iter_mut().zip(d2) {
            *s = matern_scaled_distance(d2, length_scale);
        }
        for k in out.iter_mut() {
            *k = matern_at_scaled_distance(*k);
        }
        true
    }

    fn length_scale(&self) -> f64 {
        self.length_scale
    }

    fn with_length_scale(&self, length_scale: f64) -> Arc<dyn Kernel> {
        Arc::new(Matern52 { length_scale })
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn se_unit_at_zero_distance() {
        let k = SquaredExponential::new(1.3);
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn se_hand_computed() {
        let k = SquaredExponential::new(1.0);
        // exp(-0.5) at distance 1.
        assert!((k.eval(&[0.0], &[1.0]) - (-0.5f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn matern_unit_at_zero_distance() {
        let k = Matern52::new(0.7);
        assert!((k.eval(&[0.5], &[0.5]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn matern_hand_computed() {
        let k = Matern52::new(1.0);
        let s = 5.0f64.sqrt();
        let expected = (1.0 + s + s * s / 3.0) * (-s).exp();
        assert!((k.eval(&[0.0], &[1.0]) - expected).abs() < 1e-12);
    }

    #[test]
    fn kernels_decay_monotonically() {
        let se = SquaredExponential::new(1.0);
        let m = Matern52::new(1.0);
        let mut prev_se = 1.0;
        let mut prev_m = 1.0;
        for i in 1..20 {
            let d = i as f64 * 0.3;
            let v_se = se.eval(&[0.0], &[d]);
            let v_m = m.eval(&[0.0], &[d]);
            assert!(v_se < prev_se);
            assert!(v_m < prev_m);
            assert!(v_se > 0.0 && v_m > 0.0);
            prev_se = v_se;
            prev_m = v_m;
        }
    }

    #[test]
    fn invalid_length_scales_rejected() {
        assert!(SquaredExponential::try_new(0.0).is_err());
        assert!(SquaredExponential::try_new(-1.0).is_err());
        assert!(Matern52::try_new(f64::NAN).is_err());
        assert!(Matern52::try_new(f64::INFINITY).is_err());
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 2.0]]).unwrap();
        let k = Matern52::new(1.5).matrix(&x);
        for i in 0..3 {
            assert!((k[(i, i)] - 1.0).abs() < 1e-15);
            for j in 0..3 {
                assert_eq!(k[(i, j)], k[(j, i)]);
            }
        }
    }

    #[test]
    fn cross_matches_eval() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        let k = SquaredExponential::new(1.0);
        let c = k.cross(&[0.5], &x);
        assert_eq!(c.len(), 2);
        assert!((c[0] - k.eval(&[0.5], &[0.0])).abs() < 1e-15);
    }

    #[test]
    fn with_length_scale_rebuilds() {
        let k = Matern52::new(1.0).into_kernel();
        let k2 = k.with_length_scale(2.0);
        assert_eq!(k2.length_scale(), 2.0);
        // Longer length scale => slower decay.
        assert!(k2.eval(&[0.0], &[1.0]) > k.eval(&[0.0], &[1.0]));
    }

    #[test]
    fn kernel_trait_is_object_safe() {
        let kernels: Vec<Arc<dyn Kernel>> = vec![
            SquaredExponential::new(1.0).into_kernel(),
            Matern52::new(1.0).into_kernel(),
        ];
        for k in kernels {
            assert!(k.eval(&[0.0], &[0.1]) > 0.9);
        }
    }
}
