//! Property-based tests for the Gaussian-process crate.

// Test-support code: strategies build exact values and assert round-trips
// bit-for-bit; panicking helpers are correct in a test harness.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use hyperpower_gp::acquisition::{expected_improvement, normal_cdf, probability_below};
use hyperpower_gp::{GpRegressor, Kernel, Matern52};
use hyperpower_linalg::{vector, Matrix};
use proptest::prelude::*;

fn training_set() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (2usize..12).prop_flat_map(|n| {
        (
            proptest::collection::vec(-5.0f64..5.0, n),
            proptest::collection::vec(-2.0f64..2.0, n),
        )
            .prop_map(move |(xs, ys)| (Matrix::from_vec(n, 1, xs).expect("n rows"), ys))
    })
}

/// A point and rows of its dimension, between 1 and 13 (the searchers'
/// spaces have up to 13): the point itself (d² = 0), nearby rows, and rows
/// far away in every coordinate, where the kernel's `exp` underflows to
/// zero at every length scale in 1e-3–1e3. Also returns the index of the
/// first far row.
fn point_and_rows() -> impl Strategy<Value = (Vec<f64>, Matrix, usize)> {
    (1usize..=13).prop_flat_map(|d| {
        (
            proptest::collection::vec(-5.0f64..5.0, d),
            proptest::collection::vec(-5.0f64..5.0, d..=8 * d),
            proptest::collection::vec(1e6f64..1e8, 1..=3),
        )
            .prop_map(move |(point, near, far)| {
                let mut rows = point.clone();
                rows.extend(near.chunks_exact(d).flatten());
                let first_far = rows.len() / d;
                for offset in &far {
                    rows.extend(point.iter().map(|v| v + offset));
                }
                let n = rows.len() / d;
                let rows = Matrix::from_vec(n, d, rows).expect("n rows");
                (point, rows, first_far)
            })
    })
}

proptest! {
    #[test]
    fn row_hook_matches_eval_bit_for_bit(
        (point, rows, first_far) in point_and_rows(),
        log10_length_scale in -3.0f64..=3.0,
    ) {
        // Every covariance the GP builds goes through the row hook. Each
        // value must be `eval` to the bit, at d² = 0 and past underflow
        // too, and it must be the formula as written out here.
        let length_scale = 10f64.powf(log10_length_scale);
        let d2: Vec<f64> = (0..rows.rows())
            .map(|j| vector::squared_distance(&point, rows.row(j)))
            .collect();
        let formula: Vec<f64> = d2
            .iter()
            .map(|d2| {
                let s = 5.0f64.sqrt() * d2.sqrt() / length_scale;
                (1.0 + s + s * s / 3.0) * (-s).exp()
            })
            .collect();
        let kernel = Matern52::new(length_scale);
        let mut row = vec![f64::NAN; d2.len()];
        kernel.eval_squared_distances(&d2, &mut row);
        for (j, k) in row.iter().enumerate() {
            let eval = kernel.eval(&point, rows.row(j));
            prop_assert_eq!(k.to_bits(), eval.to_bits(), "ℓ = {}, row {}", length_scale, j);
            prop_assert_eq!(k.to_bits(), formula[j].to_bits(), "ℓ = {}, row {}", length_scale, j);
        }
        prop_assert_eq!(row[0], 1.0);
        prop_assert!(row[first_far..].iter().all(|k| *k == 0.0), "no underflow");
    }

    #[test]
    fn matrix_and_cross_match_eval_bit_for_bit(
        (point, rows, _first_far) in point_and_rows(),
        log10_length_scale in -3.0f64..=3.0,
    ) {
        // The provided `matrix` and `cross` evaluate through the row hook.
        let kernel = Matern52::new(10f64.powf(log10_length_scale));
        let cross = kernel.cross(&point, &rows);
        let k = kernel.matrix(&rows);
        for i in 0..rows.rows() {
            prop_assert_eq!(cross[i].to_bits(), kernel.eval(&point, rows.row(i)).to_bits());
            for j in 0..rows.rows() {
                let eval = kernel.eval(rows.row(i), rows.row(j));
                prop_assert_eq!(k[(i, j)].to_bits(), eval.to_bits(), "{:?} at ({}, {})", kernel, i, j);
            }
        }
    }

    #[test]
    fn gp_variance_nonnegative((x, y) in training_set(), q in -10.0f64..10.0) {
        let gp = GpRegressor::fit(
            Matern52::new(1.0).into_kernel(), 1.0, 1e-4, &x, &y,
        ).unwrap();
        let p = gp.predict(&[q]).unwrap();
        prop_assert!(p.variance >= 0.0);
        prop_assert!(p.mean.is_finite());
    }

    #[test]
    fn gp_variance_small_at_training_points((x, y) in training_set()) {
        let gp = GpRegressor::fit(
            Matern52::new(1.0).into_kernel(), 1.0, 1e-6, &x, &y,
        ).unwrap();
        // Posterior variance at a training input is bounded by (roughly) the
        // noise level, far below the prior variance of 1.
        for i in 0..x.rows() {
            let p = gp.predict(x.row(i)).unwrap();
            prop_assert!(p.variance < 0.1, "variance {} at row {i}", p.variance);
        }
    }

    #[test]
    fn gp_far_field_reverts_to_prior((x, y) in training_set()) {
        let gp = GpRegressor::fit(
            Matern52::new(1.0).into_kernel(), 1.0, 1e-4, &x, &y,
        ).unwrap();
        let p = gp.predict(&[1e4]).unwrap();
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        prop_assert!((p.mean - y_mean).abs() < 1e-6);
        prop_assert!((p.variance - 1.0).abs() < 1e-6);
    }

    #[test]
    fn kernel_matrices_factor_with_jitter((x, _y) in training_set()) {
        // Gram matrices at a short and a long length scale are SPD
        // (possibly after jitter).
        for kernel in [Matern52::new(0.5).into_kernel(), Matern52::new(2.0).into_kernel()] {
            let k = kernel.matrix(&x);
            let r = hyperpower_linalg::Cholesky::factor_with_jitter(&k, 1e-10, 12);
            prop_assert!(r.is_ok());
        }
    }

    #[test]
    fn ei_nonnegative(mean in -10.0f64..10.0, std in 0.0f64..5.0, best in -10.0f64..10.0) {
        prop_assert!(expected_improvement(mean, std, best) >= 0.0);
    }

    #[test]
    fn ei_bounded_by_improvement_plus_std(mean in -10.0f64..10.0, std in 0.0f64..5.0, best in -10.0f64..10.0) {
        // EI <= max(best - mean, 0) + std (loose but useful sanity bound:
        // E[max(best - Y, 0)] <= max(best - mean, 0) + E|Y - mean|, and
        // E|Y - mean| = std*sqrt(2/pi) < std).
        let ei = expected_improvement(mean, std, best);
        prop_assert!(ei <= (best - mean).max(0.0) + std + 1e-12);
    }

    #[test]
    fn cdf_in_unit_interval(z in -50.0f64..50.0) {
        let v = normal_cdf(z);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn cdf_symmetry(z in -8.0f64..8.0) {
        prop_assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn gp_posterior_stays_finite_on_adversarial_inputs(
        // Adversarial but valid: extreme-but-finite targets, near-duplicate
        // inputs (ill-conditioned Gram matrices), tiny noise, and the kernel
        // at both ends of the sensible length-scale range.
        n in 2usize..10,
        base in -5.0f64..5.0,
        spread in 1e-9f64..1e-3,
        y_scale in prop::sample::select(vec![1e-8f64, 1.0, 1e6, 1e8]),
        length_scale in prop::sample::select(vec![1e-3f64, 1.0, 1e3]),
        q in -1e6f64..1e6,
    ) {
        // Rows cluster within `spread` of `base`: the Gram matrix is close
        // to rank-one, which is exactly where naive solvers blow up.
        let xs: Vec<f64> = (0..n).map(|i| base + spread * i as f64).collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| y_scale * if i.is_multiple_of(2) { 1.0 } else { -1.0 })
            .collect();
        let x = Matrix::from_vec(n, 1, xs).expect("n rows");
        let kernel = Matern52::new(length_scale).into_kernel();
        let gp = GpRegressor::fit(kernel, 1.0, 1e-6, &x, &ys).unwrap();
        let p = gp.predict(&[q]).unwrap();
        prop_assert!(p.mean.is_finite(), "mean {} not finite", p.mean);
        prop_assert!(p.variance.is_finite(), "variance {} not finite", p.variance);
        prop_assert!(p.variance >= 0.0, "variance {} negative", p.variance);
    }

    #[test]
    fn gp_fit_rejects_non_finite_targets((x, mut y) in training_set(), bad in prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY])) {
        y[0] = bad;
        let r = GpRegressor::fit(Matern52::new(1.0).into_kernel(), 1.0, 1e-4, &x, &y);
        prop_assert!(r.is_err(), "non-finite target must be a typed error, not a poisoned posterior");
    }

    #[test]
    fn probability_below_monotone_in_threshold(
        mean in -5.0f64..5.0,
        std in 0.01f64..3.0,
        t1 in -10.0f64..10.0,
        dt in 0.0f64..5.0,
    ) {
        let p1 = probability_below(mean, std, t1);
        let p2 = probability_below(mean, std, t1 + dt);
        prop_assert!(p2 >= p1 - 1e-12);
    }
}
