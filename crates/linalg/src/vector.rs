//! Free functions on `&[f64]` slices.
//!
//! These are the handful of BLAS-1 style operations the workspace needs.
//! All functions panic on length mismatches — at this level a mismatch is a
//! programming error, not a recoverable condition.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (ℓ₂) norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Strictly left-to-right sum of a slice.
///
/// This is the workspace's blessed order-sensitive reduction (analyzer
/// rule R14): callers that must produce bit-identical traces sum through
/// it instead of open-coding `+=` in a loop, so the sequential
/// association order is pinned in exactly one place and a future
/// parallel/SIMD refactor of the caller cannot silently reorder it.
pub fn sum_ordered(a: &[f64]) -> f64 {
    // Deliberately dormant grant, kept as documentation of the blessing:
    // analyze::allow(R14, R16): this fold *is* the blessed ordered reduction.
    a.iter().fold(0.0, |acc, x| acc + x)
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn dot_hand_computed() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_pythagorean() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn squared_distance_symmetric() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert_eq!(squared_distance(&a, &b), 25.0);
        assert_eq!(squared_distance(&b, &a), 25.0);
    }

    #[test]
    fn sub_elementwise() {
        assert_eq!(sub(&[5.0, 3.0], &[2.0, 1.0]), vec![3.0, 2.0]);
    }

    #[test]
    fn sum_ordered_is_left_to_right() {
        // With this magnitude spread, left-to-right and right-to-left
        // association produce different doubles; pin the former.
        let xs = [1e16, 1.0, -1e16, 1.0];
        assert_eq!(sum_ordered(&xs), xs.iter().fold(0.0, |a, x| a + x));
        // 1e16 + 1.0 rounds back to 1e16 (ulp is 2.0 up there), so the
        // first 1.0 vanishes and only the last survives the cancellation.
        assert_eq!(sum_ordered(&xs), 1.0);
        assert_eq!(sum_ordered(&[]), 0.0);
    }
}
