//! Finiteness guards for numerical boundaries.
//!
//! NaN or infinity entering a Cholesky factorization, a least-squares
//! solve or a GP posterior does not crash — it silently poisons every
//! downstream result (acquisition values, incumbent selection, constraint
//! predictions). The [`debug_assert_finite!`](crate::debug_assert_finite)
//! macro makes those boundaries loud in debug/test builds while compiling
//! to nothing in release builds, where the typed `NonFiniteInput`-style
//! errors remain the contract. The static-analysis pass (`hyperpower-analyze`, rule R5)
//! requires the guard at each declared boundary file.

/// Returns the index and value of the first non-finite element, if any.
///
/// Used by [`debug_assert_finite!`](crate::debug_assert_finite) to produce
/// an actionable panic message; exported so the macro can reference it
/// from other crates.
#[must_use]
pub fn first_non_finite(values: &[f64]) -> Option<(usize, f64)> {
    values
        .iter()
        .enumerate()
        .find(|(_, v)| !v.is_finite())
        .map(|(i, v)| (i, *v))
}

/// Debug-build assertion that every element of a `&[f64]` slice is finite.
///
/// The first argument names the boundary (it appears in the panic
/// message); the second is the slice to check. For a scalar, pass
/// `std::slice::from_ref(&x)`. Compiles to nothing when
/// `debug_assertions` are off, so release hot paths pay zero cost.
///
/// # Examples
///
/// ```
/// use hyperpower_linalg::debug_assert_finite;
///
/// let mean = vec![0.5, 1.5];
/// debug_assert_finite!("gp posterior mean", &mean);
/// ```
///
/// ```should_panic
/// use hyperpower_linalg::debug_assert_finite;
///
/// let poisoned = vec![0.5, f64::NAN];
/// debug_assert_finite!("objective", &poisoned); // panics in debug builds
/// ```
#[macro_export]
macro_rules! debug_assert_finite {
    ($what:expr, $values:expr) => {
        debug_assert!(
            $crate::guards::first_non_finite($values).is_none(),
            "non-finite value at {}: {:?} (index, value)",
            $what,
            $crate::guards::first_non_finite($values)
        );
    };
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn finds_first_non_finite() {
        assert_eq!(first_non_finite(&[1.0, 2.0]), None);
        let (i, v) = first_non_finite(&[1.0, f64::NAN, f64::INFINITY]).unwrap();
        assert_eq!(i, 1);
        assert!(v.is_nan());
        assert_eq!(
            first_non_finite(&[f64::NEG_INFINITY]),
            Some((0, f64::NEG_INFINITY))
        );
    }

    #[test]
    fn macro_passes_on_finite_input() {
        let xs = [0.0, -1.5, 1e300];
        debug_assert_finite!("test slice", &xs);
    }

    #[test]
    #[should_panic(expected = "non-finite value")]
    fn macro_panics_on_nan_in_debug() {
        let xs = [0.0, f64::NAN];
        debug_assert_finite!("test slice", &xs);
        // Release builds compile the guard away; keep the test honest there.
        if !cfg!(debug_assertions) {
            panic!("non-finite value (release-mode stand-in)");
        }
    }
}
