use std::fmt;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The requested shape is inconsistent with the supplied data, or two
    /// operands have incompatible dimensions.
    ShapeMismatch {
        /// Human-readable description of what was expected.
        expected: String,
        /// Human-readable description of what was found.
        found: String,
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// Cholesky factorization failed because the matrix is not positive
    /// definite (a non-positive pivot was encountered).
    NotPositiveDefinite {
        /// Index of the pivot at which the failure was detected.
        pivot: usize,
        /// Value of the offending pivot.
        value: f64,
    },
    /// An input contained NaN or infinity where finite values are required.
    NonFiniteInput,
    /// The operation requires a non-empty input.
    Empty,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            Error::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            Error::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite (pivot {pivot} = {value:.6e})"
            ),
            Error::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            Error::Empty => write!(f, "operation requires non-empty input"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            Error::ShapeMismatch {
                expected: "3x3".into(),
                found: "2x3".into(),
            },
            Error::NotSquare { rows: 2, cols: 3 },
            Error::NotPositiveDefinite {
                pivot: 1,
                value: -0.5,
            },
            Error::NonFiniteInput,
            Error::Empty,
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
