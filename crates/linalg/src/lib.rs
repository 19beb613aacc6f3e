//! Dense linear-algebra kernels for the HyperPower reproduction.
//!
//! This crate provides the small set of numerical routines the rest of the
//! workspace needs:
//!
//! * [`Matrix`] — a row-major dense matrix of `f64` with the usual
//!   constructors, element access and BLAS-like operations,
//! * [`Cholesky`] — factorization of symmetric positive-definite matrices,
//!   with solves and log-determinants (the workhorse of Gaussian-process
//!   regression in `hyperpower-gp`),
//! * [`ridge_least_squares`] — ℓ₂-regularised linear regression via the
//!   normal equations (the workhorse of the power/memory predictive models
//!   in `hyperpower`),
//! * [`vector`] — free functions on `&[f64]` slices (dot products, norms,
//!   axpy),
//! * [`stats`] — descriptive statistics (mean, standard deviation, RMSPE)
//!   used when reporting experiment tables,
//! * [`units`] — typed hardware units ([`units::Watts`],
//!   [`units::Mebibytes`], [`units::Seconds`], [`units::Joules`]) so the
//!   constraint pipeline's `P(z) ≤ P_B` / `M(z) ≤ M_B` checks are
//!   type-safe at the API boundary.
//!
//! Everything is implemented from scratch in safe Rust. The hot kernels
//! live in [`block`] under a strict accumulation-order contract:
//! `matmul`/`gram`/`matvec` are cache-blocked and register-tiled, and the
//! Cholesky factorization runs column by column into `Lᵀ`, one contiguous
//! axpy per earlier column, with triangular solves against either factor.
//! They change memory layout and reuse, never the per-output-element
//! operation sequence, so every result is bit-for-bit identical to the
//! naive element-at-a-time loops (which live on as frozen test oracles in
//! `tests/reference_kernels.rs`). See DESIGN.md §2a for the contract and
//! the legal/illegal transformation catalog. A [`CholeskyWorkspace`] lets a
//! caller that factors many same-sized matrices, like the GP
//! hyper-parameter search, reuse one factor's storage.
//!
//! # Examples
//!
//! Solving a symmetric positive-definite system:
//!
//! ```
//! use hyperpower_linalg::Matrix;
//!
//! # fn main() -> Result<(), hyperpower_linalg::Error> {
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
//! let chol = a.cholesky()?;
//! let x = chol.solve(&[8.0, 7.0])?;
//! assert!((x[0] - 1.25).abs() < 1e-12);
//! assert!((x[1] - 1.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
mod cholesky;
pub mod corpus;
mod error;
pub mod guards;
mod lstsq;
mod matrix;
pub mod stats;
pub mod units;
pub mod vector;

pub use cholesky::{Cholesky, CholeskyView, CholeskyWorkspace};
pub use error::Error;
pub use lstsq::{ridge_least_squares, LeastSquaresFit};
pub use matrix::Matrix;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
