//! `GpRegressor::posterior_batch` is per-point `predict`, bit-for-bit.
//!
//! The batched path exists purely for memory-traffic reasons (the
//! cross-covariances built a training row at a time, one multi-RHS
//! triangular solve per candidate block); any observable divergence from
//! the per-point path would leak into acquisition scores and break the
//! workspace's golden traces. These tests pin bit-equality across block
//! sizes, kernels and training-set sizes, the sweeps' fit shapes among
//! them, and pin `predict_joint`, which shares the cross-covariance
//! builder, to `predict` as well.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use std::sync::Arc;

use hyperpower_gp::{
    fit_gp_hyperparams_laddered, FitOptions, GpRegressor, Kernel, Matern52, SquaredExponential,
};
use hyperpower_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn fitted_gp(kernel: Arc<dyn Kernel>, n: usize, d: usize, seed: u64) -> GpRegressor {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Matrix::from_fn(n, d, |_, _| rng.random_range(0.0..1.0));
    let y: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    GpRegressor::fit(kernel, 1.0, 1e-6, &x, &y).expect("synthetic fit")
}

fn assert_batch_matches_pointwise(gp: &GpRegressor, queries: &Matrix) {
    let (means, variances) = gp.posterior_batch(queries).expect("batch posterior");
    assert_eq!(means.len(), queries.rows());
    assert_eq!(variances.len(), queries.rows());
    for q in 0..queries.rows() {
        let p = gp.predict(queries.row(q)).expect("pointwise posterior");
        assert_eq!(
            means[q].to_bits(),
            p.mean.to_bits(),
            "mean bits diverged at query {q} (batch {} vs pointwise {})",
            means[q],
            p.mean
        );
        assert_eq!(
            variances[q].to_bits(),
            p.variance.to_bits(),
            "variance bits diverged at query {q} (batch {} vs pointwise {})",
            variances[q],
            p.variance
        );
    }
}

#[test]
fn batch_equals_pointwise_for_every_block_size_1_to_8() {
    let gp = fitted_gp(Matern52::new(0.5).into_kernel(), 37, 3, 0xBA7C_0001);
    let mut rng = StdRng::seed_from_u64(0xBA7C_0002);
    for block in 1..=8usize {
        let queries = Matrix::from_fn(block, 3, |_, _| rng.random_range(0.0..1.0));
        assert_batch_matches_pointwise(&gp, &queries);
    }
}

#[test]
fn batch_equals_pointwise_across_kernels_and_panel_straddling_sizes() {
    // Training sizes straddle the blocked solver's panel width (32).
    for (seed, n) in [(1u64, 5usize), (2, 31), (3, 32), (4, 33), (5, 70)] {
        for kernel in [
            SquaredExponential::new(0.7).into_kernel(),
            Matern52::new(0.4).into_kernel(),
        ] {
            let gp = fitted_gp(kernel, n, 2, 0xBA7C_0100 + seed);
            let mut rng = StdRng::seed_from_u64(0xBA7C_0200 + seed);
            let queries = Matrix::from_fn(13, 2, |_, _| rng.random_range(-0.2..1.2));
            assert_batch_matches_pointwise(&gp, &queries);
        }
    }
}

#[test]
fn batch_and_joint_equal_pointwise_at_the_sweeps_fit_shapes() {
    // `paper_sweep` fits about 21 rows of 6 dimensions and `batch_sweep`
    // up to 76 rows of 13, with the searchers' fit options; candidates are
    // scored in blocks of 64, the last block of a grid shorter.
    let options = FitOptions {
        restarts: 2,
        max_evals_per_restart: 80,
        min_noise_variance: 1e-6,
    };
    for n in [1usize, 3, 21, 76] {
        for d in [6usize, 13] {
            let mut rng = StdRng::seed_from_u64(0xBA7C_0600 + (n * 100 + d) as u64);
            let x = Matrix::from_fn(n, d, |_, _| rng.random_range(0.0..1.0));
            let y: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
            let kernel = Matern52::new(0.5).into_kernel();
            let gp = fit_gp_hyperparams_laddered(kernel, &x, &y, options, 2)
                .expect("synthetic fit")
                .fitted
                .gp;
            // Every third query repeats a training row.
            let queries = Matrix::from_fn(64, d, |q, c| {
                if q % 3 == 0 {
                    x[((q / 3) % n, c)]
                } else {
                    rng.random_range(0.0..1.0)
                }
            });
            let order: Vec<usize> = (0..queries.rows()).collect();
            for block in [1, 7, 64] {
                for rows in order.chunks(block) {
                    let b = Matrix::from_fn(rows.len(), d, |r, c| queries[(rows[r], c)]);
                    assert_batch_matches_pointwise(&gp, &b);
                    let (means, cov) = gp.predict_joint(&b).expect("joint posterior");
                    for (r, &q) in rows.iter().enumerate() {
                        let p = gp.predict(queries.row(q)).expect("pointwise posterior");
                        let what = format!("n={n} d={d} block={block} query {q}");
                        assert_eq!(means[r].to_bits(), p.mean.to_bits(), "{what}: mean");
                        assert_eq!(
                            cov[(r, r)].max(0.0).to_bits(),
                            p.variance.to_bits(),
                            "{what}: variance"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batch_of_one_is_predict() {
    let gp = fitted_gp(
        SquaredExponential::new(1.0).into_kernel(),
        12,
        4,
        0xBA7C_0300,
    );
    let queries = Matrix::from_fn(1, 4, |_, j| 0.1 + 0.2 * j as f64);
    assert_batch_matches_pointwise(&gp, &queries);
}

#[test]
fn batch_rejects_wrong_dimensionality() {
    let gp = fitted_gp(Matern52::new(0.5).into_kernel(), 8, 2, 0xBA7C_0400);
    assert!(gp.posterior_batch(&Matrix::zeros(3, 5)).is_err());
}

#[test]
fn empty_batch_is_empty() {
    let gp = fitted_gp(Matern52::new(0.5).into_kernel(), 8, 2, 0xBA7C_0500);
    let (means, variances) = gp.posterior_batch(&Matrix::zeros(0, 2)).unwrap();
    assert!(means.is_empty());
    assert!(variances.is_empty());
}
