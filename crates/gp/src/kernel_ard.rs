//! Automatic-relevance-determination (ARD) variant of the Matérn 5/2
//! kernel: one length scale per input dimension.
//!
//! Hyper-parameter spaces mix dimensions with very different effective
//! ranges (a kernel size in 2–5 vs a log learning rate); ARD lets the
//! surrogate stretch each axis independently. This is what Spearmint
//! actually uses; the isotropic [`Matern52`](crate::Matern52) is the
//! cheaper default in this reproduction, with ARD available as an
//! extension. Nothing outside its own tests and the GP fit's tests uses it
//! yet. It has no distance form ([`Kernel::eval_squared_distances`]
//! returns `false`), so every covariance built with it, in each trial of a
//! hyper-parameter fit too, evaluates the rows with [`Kernel::eval`].

use std::sync::Arc;

use crate::kernel::Kernel;
use crate::{Error, Result};

/// Matérn 5/2 kernel with per-dimension length scales.
///
/// `k(a, b) = (1 + √5·r + 5r²/3)·exp(−√5·r)` with
/// `r² = Σⱼ ((aⱼ − bⱼ)/ℓⱼ)²`.
///
/// # Examples
///
/// ```
/// use hyperpower_gp::{Kernel, Matern52Ard};
///
/// # fn main() -> Result<(), hyperpower_gp::Error> {
/// let k = Matern52Ard::try_new(vec![0.1, 10.0])?;
/// // Distance along the short axis decays correlation much faster.
/// let along_short = k.eval(&[0.0, 0.0], &[0.5, 0.0]);
/// let along_long = k.eval(&[0.0, 0.0], &[0.0, 0.5]);
/// assert!(along_short < along_long);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52Ard {
    length_scales: Vec<f64>,
}

impl Matern52Ard {
    /// Creates an ARD kernel with the given per-dimension length scales.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHyperParameter`] if the vector is empty or
    /// any length scale is not positive and finite.
    pub fn try_new(length_scales: Vec<f64>) -> Result<Self> {
        if length_scales.is_empty() {
            return Err(Error::InvalidHyperParameter {
                name: "length_scales",
                value: 0.0,
            });
        }
        for &l in &length_scales {
            if !(l.is_finite() && l > 0.0) {
                return Err(Error::InvalidHyperParameter {
                    name: "length_scales",
                    value: l,
                });
            }
        }
        Ok(Matern52Ard { length_scales })
    }

    /// Isotropic constructor: the same length scale replicated over `dim`
    /// dimensions (useful as a fitting seed).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHyperParameter`] for invalid inputs.
    pub fn isotropic(length_scale: f64, dim: usize) -> Result<Self> {
        Self::try_new(vec![length_scale; dim])
    }

    /// The per-dimension length scales.
    pub fn length_scales(&self) -> &[f64] {
        &self.length_scales
    }

    /// Wraps this kernel in an [`Arc`] for use as a trait object.
    pub fn into_kernel(self) -> Arc<dyn Kernel> {
        Arc::new(self)
    }
}

impl Kernel for Matern52Ard {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "point dimensionality mismatch");
        assert_eq!(
            a.len(),
            self.length_scales.len(),
            "kernel dimensionality mismatch"
        );
        let r2: f64 = a
            .iter()
            .zip(b)
            .zip(&self.length_scales)
            .map(|((x, y), l)| {
                let d = (x - y) / l;
                d * d
            })
            .sum();
        let s = (5.0 * r2).sqrt();
        (1.0 + s + s * s / 3.0) * (-s).exp()
    }

    /// Geometric mean of the per-dimension length scales (used by the
    /// generic marginal-likelihood fitter as the single scalar it tunes;
    /// the relative anisotropy is preserved by `with_length_scale`).
    fn length_scale(&self) -> f64 {
        let log_sum: f64 = self.length_scales.iter().map(|l| l.ln()).sum();
        (log_sum / self.length_scales.len() as f64).exp()
    }

    /// Rescales every dimension so the geometric mean becomes
    /// `length_scale`, preserving the anisotropy ratios.
    fn with_length_scale(&self, length_scale: f64) -> Arc<dyn Kernel> {
        let current = self.length_scale();
        let factor = length_scale / current;
        Arc::new(Matern52Ard {
            length_scales: self.length_scales.iter().map(|l| l * factor).collect(),
        })
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn unit_at_zero_distance() {
        let k = Matern52Ard::try_new(vec![1.0, 2.0, 0.5]).unwrap();
        assert!((k.eval(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn matches_isotropic_matern_when_scales_equal() {
        use crate::Matern52;
        let ard = Matern52Ard::isotropic(1.3, 2).unwrap();
        let iso = Matern52::new(1.3);
        for (a, b) in [([0.0, 0.0], [1.0, 0.5]), ([2.0, -1.0], [0.1, 0.3])] {
            assert!((ard.eval(&a, &b) - iso.eval(&a, &b)).abs() < 1e-12);
        }
    }

    #[test]
    fn anisotropy_stretches_axes() {
        let k = Matern52Ard::try_new(vec![0.1, 10.0]).unwrap();
        let short = k.eval(&[0.0, 0.0], &[1.0, 0.0]);
        let long = k.eval(&[0.0, 0.0], &[0.0, 1.0]);
        assert!(short < 0.01);
        assert!(long > 0.95);
    }

    #[test]
    fn geometric_mean_length_scale() {
        let k = Matern52Ard::try_new(vec![1.0, 4.0]).unwrap();
        assert!((k.length_scale() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn with_length_scale_preserves_anisotropy() {
        let k = Matern52Ard::try_new(vec![1.0, 4.0]).unwrap();
        let scaled = k.with_length_scale(4.0);
        assert!((scaled.length_scale() - 4.0).abs() < 1e-12);
        // Ratio 1:4 preserved => evals along each axis keep their ordering.
        let short = scaled.eval(&[0.0, 0.0], &[1.0, 0.0]);
        let long = scaled.eval(&[0.0, 0.0], &[0.0, 1.0]);
        assert!(short < long);
    }

    #[test]
    fn invalid_scales_rejected() {
        assert!(Matern52Ard::try_new(vec![]).is_err());
        assert!(Matern52Ard::try_new(vec![1.0, 0.0]).is_err());
        assert!(Matern52Ard::try_new(vec![1.0, f64::NAN]).is_err());
        assert!(Matern52Ard::isotropic(-1.0, 3).is_err());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dim_panics() {
        let k = Matern52Ard::isotropic(1.0, 2).unwrap();
        k.eval(&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn works_in_gp_regression() {
        use crate::GpRegressor;
        use hyperpower_linalg::Matrix;
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let y = [0.0, 1.0, 0.1, 1.1];
        let gp = GpRegressor::fit(
            Matern52Ard::try_new(vec![0.5, 5.0]).unwrap().into_kernel(),
            1.0,
            1e-6,
            &x,
            &y,
        )
        .unwrap();
        // Dimension 0 matters (short scale), dimension 1 barely does.
        let p = gp.predict(&[1.0, 0.5]).unwrap();
        assert!((p.mean - 1.05).abs() < 0.2, "mean {}", p.mean);
    }
}
