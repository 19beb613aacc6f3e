//! Frozen naive reference kernels — the pre-blocking implementations of
//! `Matrix::matmul`/`gram`/`matvec` and `Cholesky`, copied verbatim at the
//! moment the blocked kernels replaced them.
//!
//! These are the oracles of the accumulation-order contract (DESIGN.md
//! §2a): the blocked kernels in `hyperpower_linalg::block` must reproduce
//! their outputs *bit-for-bit*, because the 19 golden traces at the
//! workspace root pin every downstream f64 the GP loop emits. Do not
//! "improve" these loops — their whole value is that they never change.

// Oracle code mirrors the original element-at-a-time kernels, panics and all.
#![allow(clippy::unwrap_used, clippy::expect_used, dead_code)]

use hyperpower_linalg::Matrix;

/// The original element-at-a-time `Matrix::matmul`, zero-skip included.
pub fn naive_matmul(a: &Matrix, rhs: &Matrix) -> Matrix {
    assert_eq!(a.cols(), rhs.rows(), "naive_matmul shape");
    let mut out = Matrix::zeros(a.rows(), rhs.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let v = a[(i, k)];
            if v == 0.0 {
                continue;
            }
            for j in 0..rhs.cols() {
                out[(i, j)] += v * rhs[(k, j)];
            }
        }
    }
    out
}

/// The original `Matrix::gram`: upper triangle row-by-row with the
/// zero-skip, then a mirror copy into the lower triangle.
pub fn naive_gram(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.cols(), x.cols());
    for i in 0..x.rows() {
        let r = x.row(i);
        for a in 0..x.cols() {
            let ra = r[a];
            if ra == 0.0 {
                continue;
            }
            for b in a..x.cols() {
                out[(a, b)] += ra * r[b];
            }
        }
    }
    for a in 0..x.cols() {
        for b in 0..a {
            out[(a, b)] = out[(b, a)];
        }
    }
    out
}

/// The original `Matrix::matvec`: one `vector::dot` fold per row.
pub fn naive_matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.cols(), "naive_matvec shape");
    (0..a.rows())
        .map(|i| hyperpower_linalg::vector::dot(a.row(i), x))
        .collect()
}

/// The original left-looking `Cholesky::factor` loop. Returns the factor,
/// or the `(pivot, value)` of the first non-positive/non-finite pivot —
/// exactly the payload of `Error::NotPositiveDefinite`.
pub fn naive_cholesky(a: &Matrix) -> Result<Matrix, (usize, f64)> {
    assert!(a.is_square(), "naive_cholesky shape");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err((i, sum));
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// The original forward substitution `L·y = b`.
pub fn naive_solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(b.len(), n, "naive_solve_lower shape");
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for (k, &yk) in y.iter().enumerate().take(i) {
            sum -= l[(i, k)] * yk;
        }
        y[i] = sum / l[(i, i)];
    }
    y
}

/// The original backward substitution `Lᵀ·x = y`.
pub fn naive_solve_lower_transpose(l: &Matrix, y: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(y.len(), n, "naive_solve_lower_transpose shape");
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for (k, &xk) in x.iter().enumerate().skip(i + 1) {
            sum -= l[(k, i)] * xk;
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// Asserts two matrices are bit-identical, reporting the first differing
/// element with both bit patterns.
pub fn assert_bits_eq(label: &str, expected: &Matrix, actual: &Matrix) {
    assert_eq!(expected.shape(), actual.shape(), "{label}: shape");
    for i in 0..expected.rows() {
        for j in 0..expected.cols() {
            let (e, a) = (expected[(i, j)], actual[(i, j)]);
            assert!(
                e.to_bits() == a.to_bits(),
                "{label}: bit mismatch at ({i}, {j}): naive {e:?} ({:#018x}) vs blocked {a:?} ({:#018x})",
                e.to_bits(),
                a.to_bits()
            );
        }
    }
}

/// Slice flavour of [`assert_bits_eq`].
pub fn assert_slice_bits_eq(label: &str, expected: &[f64], actual: &[f64]) {
    assert_eq!(expected.len(), actual.len(), "{label}: length");
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        assert!(
            e.to_bits() == a.to_bits(),
            "{label}: bit mismatch at {i}: naive {e:?} ({:#018x}) vs blocked {a:?} ({:#018x})",
            e.to_bits(),
            a.to_bits()
        );
    }
}
