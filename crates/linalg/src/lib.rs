//! Dense linear-algebra kernels for the HyperPower reproduction.
//!
//! This crate provides the small set of numerical routines the rest of the
//! workspace needs:
//!
//! * [`Matrix`] — a row-major dense matrix of `f64` with the usual
//!   constructors, element access, transpose and the two products the
//!   least-squares fit needs (Gram matrix and matrix-vector),
//! * [`Cholesky`] — factorization of symmetric positive-definite matrices,
//!   re-factorable in place, with solves and log-determinants (the
//!   workhorse of Gaussian-process regression in `hyperpower-gp`),
//! * [`ridge_least_squares`] — ℓ₂-regularised linear regression via the
//!   normal equations (the workhorse of the power/memory predictive models
//!   in `hyperpower`),
//! * [`vector`] — free functions on `&[f64]` slices (dot products, norms,
//!   distances, the ordered sum),
//! * [`stats`] — descriptive statistics (mean, standard deviation, RMSPE)
//!   used when reporting experiment tables,
//! * [`units`] — typed hardware units ([`units::Watts`],
//!   [`units::Mebibytes`], [`units::Seconds`], [`units::Joules`]) so the
//!   constraint pipeline's `P(z) ≤ P_B` / `M(z) ≤ M_B` checks are
//!   type-safe at the API boundary.
//!
//! Everything is implemented from scratch in safe Rust. The Cholesky
//! factorization and its solves run in a private `block` module under a
//! strict accumulation-order contract: the factorization reads its input's
//! upper triangle row by row and runs column by column into `Lᵀ`, the one
//! factor a [`Cholesky`] stores, with one forward and one backward solve
//! kernel that both read `Lᵀ`. They change memory layout and reuse, never
//! the per-output-element operation sequence, so every result is
//! bit-for-bit identical to the naive element-at-a-time loops, which live
//! on as frozen test oracles in `tests/common/mod.rs` together with those
//! of [`Matrix::gram`] and [`Matrix::matvec`]. See DESIGN.md §2a for the
//! contract and the legal/illegal transformation catalog.
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

mod block;
mod cholesky;
pub mod corpus;
mod error;
pub mod guards;
mod lstsq;
mod matrix;
pub mod stats;
pub mod units;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::Error;
pub use lstsq::{ridge_least_squares, LeastSquaresFit};
pub use matrix::Matrix;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
