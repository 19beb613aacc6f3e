//! The covariance function for Gaussian-process regression.
//!
//! Spearmint — the tool HyperPower builds on — uses the Matérn 5/2 kernel
//! for hyper-parameter optimization because objective surfaces of trained
//! networks are typically less smooth than the squared-exponential kernel
//! assumes. This reproduction follows it: [`Matern52`] is the one kernel.
//!
//! A kernel sees the data only through distances. One row hook,
//! [`Kernel::eval_distances`], evaluates every covariance the GP builds a
//! row of distances at a time; each caller takes the square roots of the
//! squared distances it accumulates, and a hyper-parameter fit takes them
//! once per fit.

use std::fmt::Debug;
use std::sync::Arc;

use hyperpower_linalg::{vector, Matrix};

use crate::{Error, Result};

/// A stationary covariance function over `ℝᵈ` that sees the data only
/// through distances.
///
/// The trait is object-safe so that the GP can hold an `Arc<dyn Kernel>`
/// and a test can substitute its own kernel.
pub trait Kernel: Debug + Send + Sync {
    /// Evaluates the kernel at a row of distances: writes
    /// `out[j] = k(r[j])`.
    ///
    /// Every covariance the GP builds goes through this hook a row at a
    /// time — [`Kernel::eval`], the provided [`Kernel::matrix`] and
    /// [`Kernel::cross`], the posterior's cross-covariances and every trial
    /// of the hyper-parameter fit — so each value takes the same
    /// floating-point steps wherever it is built. Each caller passes
    /// `r = √d²` of the squared distances `vector::squared_distance`
    /// accumulates; the fit takes those roots once per fit, not once per
    /// trial.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r.len() != out.len()`.
    fn eval_distances(&self, r: &[f64], out: &mut [f64]);

    /// The kernel's characteristic length scale.
    fn length_scale(&self) -> f64;

    /// Returns a boxed copy of this kernel with a different length scale.
    ///
    /// Used by the marginal-likelihood fitter, which searches over length
    /// scales without knowing the concrete kernel type.
    fn with_length_scale(&self, length_scale: f64) -> Arc<dyn Kernel>;

    /// Evaluates `k(a, b)`: the row hook at the one distance
    /// `√vector::squared_distance(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != b.len()`.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let mut k = [0.0];
        self.eval_distances(&[vector::squared_distance(a, b).sqrt()], &mut k);
        k[0]
    }

    /// Builds the symmetric kernel matrix `K[i][j] = k(xᵢ, xⱼ)` for the rows
    /// of `x`, evaluating the lower triangle a row at a time through
    /// [`Kernel::eval_distances`] and mirroring it, so the matrix is
    /// symmetric bit for bit.
    fn matrix(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        let mut r = Vec::with_capacity(n);
        for i in 0..n {
            r.clear();
            r.extend((0..=i).map(|j| vector::squared_distance(x.row(i), x.row(j)).sqrt()));
            self.eval_distances(&r, &mut k.row_mut(i)[..=i]);
            for j in 0..i {
                k[(j, i)] = k[(i, j)];
            }
        }
        k
    }

    /// Evaluates the cross-covariance vector `k(x*, xᵢ)` between one query
    /// point and each row of `x`, through [`Kernel::eval_distances`].
    fn cross(&self, query: &[f64], x: &Matrix) -> Vec<f64> {
        let r: Vec<f64> = (0..x.rows())
            .map(|i| vector::squared_distance(query, x.row(i)).sqrt())
            .collect();
        let mut k = vec![0.0; r.len()];
        self.eval_distances(&r, &mut k);
        k
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
        if !(length_scale.is_finite() && length_scale > 0.0) {
            return Err(Error::InvalidHyperParameter {
                name: "length_scale",
                value: length_scale,
            });
        }
        Ok(Matern52 { length_scale })
    }

    /// Wraps this kernel in an [`Arc`] for use as a trait object.
    pub fn into_kernel(self) -> Arc<dyn Kernel> {
        Arc::new(self)
    }
}

impl Kernel for Matern52 {
    /// Two passes over the row: the first computes `s = √5·r/ℓ`, left to
    /// right, whose divisions vectorize, and the second
    /// `(1 + s + s²/3)·exp(−s)`, which is bound by `exp`.
    fn eval_distances(&self, r: &[f64], out: &mut [f64]) {
        assert_eq!(r.len(), out.len(), "kernel row: length mismatch");
        let length_scale = self.length_scale;
        for (s, &r) in out.iter_mut().zip(r) {
            *s = 5.0_f64.sqrt() * r / length_scale;
        }
        for k in out.iter_mut() {
            let s = *k;
            *k = (1.0 + s + s * s / 3.0) * (-s).exp();
        }
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
        let m = Matern52::new(1.0);
        let mut prev = 1.0;
        for i in 1..20 {
            let d = i as f64 * 0.3;
            let v = m.eval(&[0.0], &[d]);
            assert!(v < prev);
            assert!(v > 0.0);
            prev = v;
        }
    }

    #[test]
    fn invalid_length_scales_rejected() {
        assert!(Matern52::try_new(0.0).is_err());
        assert!(Matern52::try_new(-1.0).is_err());
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
        let k = Matern52::new(1.0);
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
            Matern52::new(1.0).into_kernel(),
            Matern52::new(1.0).into_kernel().with_length_scale(2.0),
        ];
        for k in kernels {
            assert!(k.eval(&[0.0], &[0.1]) > 0.9);
        }
    }
}
