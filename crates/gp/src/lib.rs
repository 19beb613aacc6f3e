//! Gaussian-process machinery for the HyperPower reproduction.
//!
//! HyperPower (DATE 2018) drives its hyper-parameter search with
//! Spearmint-style Bayesian optimization: a Gaussian-process surrogate over
//! the objective (test error), an acquisition function that trades off
//! exploration and exploitation, and candidate-grid maximisation of that
//! acquisition. This crate provides all of those pieces from scratch:
//!
//! * [`kernel`] — covariance functions ([`SquaredExponential`],
//!   [`Matern52`]) behind the object-safe [`Kernel`] trait,
//! * [`GpRegressor`] — exact GP regression with Cholesky solves, jitter
//!   escalation and target normalisation,
//! * [`fit_gp_hyperparams`] — multi-start Nelder–Mead maximisation of the
//!   log marginal likelihood, or one restart from a previous optimum
//!   ([`fit_gp_hyperparams_laddered_from`]),
//! * [`acquisition`] — Expected Improvement (for minimisation) plus the
//!   probabilistic machinery (`normal_cdf`) the constrained variants need,
//! * [`sampler`] — uniform and Latin-hypercube candidate generators on the
//!   unit hypercube,
//! * [`optimize`] — a dependency-free Nelder–Mead simplex optimizer.
//!
//! # Examples
//!
//! ```
//! use hyperpower_gp::{GpRegressor, Matern52};
//! use hyperpower_linalg::Matrix;
//!
//! # fn main() -> Result<(), hyperpower_gp::Error> {
//! // Observations of y = x² at a few points.
//! let x = Matrix::from_vec(5, 1, vec![-2.0, -1.0, 0.0, 1.0, 2.0]).unwrap();
//! let y = [4.0, 1.0, 0.0, 1.0, 4.0];
//! let gp = GpRegressor::fit(Matern52::new(1.0).into_kernel(), 1.0, 1e-6, &x, &y)?;
//! let p = gp.predict(&[0.5])?;
//! assert!((p.mean - 0.25).abs() < 0.5);
//! assert!(p.variance >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
mod error;
mod fit;
pub mod kernel;
mod kernel_ard;
pub mod optimize;
mod regressor;
pub mod sampler;

pub use error::Error;
pub use fit::{
    fit_gp_hyperparams, fit_gp_hyperparams_laddered, fit_gp_hyperparams_laddered_from, FitOptions,
    FittedGp, LadderedFit,
};
pub use kernel::{Kernel, Matern52, SquaredExponential};
pub use kernel_ard::Matern52Ard;
pub use regressor::{GpRegressor, Prediction};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
