//! Property-based tests for the linear-algebra kernels.

// Test-support code: strategies build exact values and assert round-trips
// bit-for-bit; panicking helpers are correct in a test harness.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

mod common;

use common::naive_matmul;
use hyperpower_linalg::{ridge_least_squares, stats, vector, Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a random matrix with entries in [-3, 3].
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-3.0f64..3.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized to shape"))
    })
}

/// Strategy: a random symmetric positive-definite matrix built as
/// `B·Bᵀ + n·I` (guaranteed SPD).
fn spd_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-2.0f64..2.0, n * n).prop_map(move |data| {
            let b = Matrix::from_vec(n, n, data).expect("sized to shape");
            let mut a = naive_matmul(&b, &b.transpose());
            a.add_diagonal(n as f64);
            a
        })
    })
}

proptest! {
    #[test]
    fn cholesky_reconstructs_spd(a in spd_strategy(8)) {
        let chol = Cholesky::factor(&a).expect("SPD by construction");
        let back = chol.reconstruct();
        prop_assert!(a.max_abs_diff(&back).unwrap() < 1e-8);
    }

    #[test]
    fn cholesky_solve_residual_small(a in spd_strategy(8)) {
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        let residual = vector::sub(&a.matvec(&x).unwrap(), &b);
        prop_assert!(vector::norm2(&residual) < 1e-6 * (1.0 + vector::norm2(&b)));
    }

    #[test]
    fn forward_and_full_solves_round_trip_through_the_factor(a in spd_strategy(8)) {
        // The forward solve scoring runs and the full solve the fit runs:
        // L·y == b and L·Lᵀ·x == b up to substitution rounding. (Their bits
        // are pinned to the naive loops in `tests/reference_kernels.rs`.)
        let chol = Cholesky::factor(&a).expect("SPD by construction");
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73) - 1.1).collect();
        let composed = chol.solve(&b).unwrap();
        let b_col = Matrix::from_vec(n, 1, b.clone()).expect("sized to shape");
        let y = chol.solve_lower_columns(b_col).unwrap();
        let l = chol.factor_l();
        let ly = l.matvec(y.as_slice()).unwrap();
        let residual = vector::sub(&ly, &b);
        prop_assert!(vector::norm2(&residual) < 1e-9 * (1.0 + vector::norm2(&b)));
        let llt_x = l.matvec(&l.transpose().matvec(&composed).unwrap()).unwrap();
        let residual = vector::sub(&llt_x, &b);
        prop_assert!(vector::norm2(&residual) < 1e-6 * (1.0 + vector::norm2(&b)));
    }

    #[test]
    fn jitter_ladder_factor_solves_consistently(
        (a, b) in (1usize..=8).prop_flat_map(|n| {
            // Rank-deficient Gram matrix from a single row: always needs
            // the jitter ladder for n > 1.
            (
                proptest::collection::vec(-2.0f64..2.0, n),
                proptest::collection::vec(-3.0f64..3.0, n),
            )
        }).prop_map(|(row, b)| {
            let n = row.len();
            let x = Matrix::from_vec(1, n, row).expect("sized to shape");
            (x.gram(), b)
        })
    ) {
        let n = a.rows();
        let (chol, jitter) = Cholesky::factor_with_jitter(&a, 1e-10, 30)
            .expect("ladder must terminate on a PSD matrix");
        prop_assert!(jitter >= 0.0);
        // The factor the ladder returns is exactly the factor of the
        // jittered matrix, so solving with it must round-trip against
        // A + jitter·I — same contract as the un-jittered path.
        let mut aj = a.clone();
        aj.add_diagonal(jitter);
        let refactored = Cholesky::factor(&aj).expect("ladder already factored this");
        prop_assert_eq!(chol.factor_l(), refactored.factor_l());
        let x = chol.solve(&b).unwrap();
        let reconstructed = aj.matvec(&x).unwrap();
        let residual = vector::sub(&reconstructed, &b);
        // The jittered system is potentially ill-conditioned (that is the
        // point of the ladder); bound the relative residual loosely.
        prop_assert!(
            vector::norm2(&residual) <= 1e-3 * (1.0 + vector::norm2(&b) + vector::norm2(&x)),
            "jitter {} n {} residual {}",
            jitter, n, vector::norm2(&residual)
        );
    }

    #[test]
    fn cholesky_log_det_is_finite(a in spd_strategy(8)) {
        let chol = Cholesky::factor(&a).unwrap();
        prop_assert!(chol.log_det().is_finite());
    }

    #[test]
    fn transpose_involution(a in matrix_strategy(8)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal(a in matrix_strategy(8)) {
        let g = a.gram();
        for i in 0..g.rows() {
            // Diagonal of a Gram matrix is a sum of squares.
            prop_assert!(g[(i, i)] >= -1e-12);
            for j in 0..g.cols() {
                prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn least_squares_recovers_planted_weights(
        coeffs in proptest::collection::vec(-2.0f64..2.0, 1..5),
        rows in 8usize..20,
        seed_vals in proptest::collection::vec(0.1f64..5.0, 200)
    ) {
        let d = coeffs.len();
        let x = Matrix::from_fn(rows, d, |i, j| seed_vals[(i * d + j) % seed_vals.len()] + (i * 7 + j * 3) as f64 % 5.0);
        let y: Vec<f64> = (0..rows).map(|i| vector::dot(x.row(i), &coeffs)).collect();
        if let Ok(fit) = ridge_least_squares(&x, &y, 1e-9) {
            let preds: Vec<f64> = (0..rows).map(|i| fit.predict(x.row(i))).collect();
            let diff = vector::sub(&preds, &y);
            prop_assert!(vector::norm2(&diff) < 1e-4 * (1.0 + vector::norm2(&y)));
        }
    }

    #[test]
    fn rmspe_scale_invariant(
        actual in proptest::collection::vec(1.0f64..100.0, 1..20),
        scale in 0.5f64..2.0
    ) {
        let predicted: Vec<f64> = actual.iter().map(|a| a * scale).collect();
        let r = stats::rmspe(&predicted, &actual).unwrap();
        prop_assert!((r - (scale - 1.0).abs()).abs() < 1e-9);
    }

    #[test]
    fn std_dev_nonnegative(values in proptest::collection::vec(-100.0f64..100.0, 2..50)) {
        prop_assert!(stats::std_dev(&values).unwrap() >= 0.0);
    }

    #[test]
    fn geometric_mean_between_min_and_max(values in proptest::collection::vec(0.1f64..50.0, 1..20)) {
        let g = stats::geometric_mean(&values).unwrap();
        let lo = stats::min_finite(&values).unwrap();
        let hi = stats::max_finite(&values).unwrap();
        prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
    }
}
