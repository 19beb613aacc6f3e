//! The hyper-parameter fit against the frozen fit it replaced.
//!
//! `fit_gp_hyperparams` builds every Nelder–Mead trial's covariance from a
//! per-fit pairwise-distance table; the frozen copy in `common` refits a
//! whole `GpRegressor` from the rows in every trial. The two must agree to
//! the bit — hyper-parameters, likelihood, ladder rung and typed error —
//! because the golden traces pin every f64 the BO loop derives from them.
//! A fit without a warm start is that same cold search, and a warm start
//! whose restart finds no finite likelihood falls back to it bit for bit.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

mod common;

use std::sync::Arc;

use common::{
    fit_bits, frozen_fit_gp_hyperparams, frozen_fit_gp_hyperparams_laddered, BO_FIT, MAX_RUNGS,
};
use hyperpower_gp::{
    fit_gp_hyperparams, fit_gp_hyperparams_laddered, fit_gp_hyperparams_laddered_from, FitOptions,
    FittedGp, Kernel, LadderedFit, Matern52, Result,
};
use hyperpower_linalg::{corpus, Matrix};

/// Seeded rows in the unit cube (where the searchers' configurations live)
/// and targets in [0, 1).
fn corpus_data(n: usize, d: usize) -> (Matrix, Vec<f64>) {
    let tag = (n * 100 + d) as u64;
    let unit: Vec<f64> = corpus::dense(0xF17 ^ tag, n, d)
        .as_slice()
        .iter()
        .map(|v| 0.5 * (v + 1.0))
        .collect();
    let y = corpus::vector(0xF18 ^ tag, n)
        .iter()
        .map(|v| 0.5 * (v + 1.0))
        .collect();
    (Matrix::from_vec(n, d, unit).unwrap(), y)
}

fn assert_same_ladder(new: &Result<LadderedFit>, old: &Result<LadderedFit>, what: &str) {
    match (new, old) {
        (Ok(a), Ok(b)) => assert_eq!(fit_bits(a), fit_bits(b), "{what}: fit diverged"),
        // Debug text, not `==`: a NaN payload must compare equal too.
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: error"),
        _ => panic!("{what}: outcome differs: {new:?} vs frozen {old:?}"),
    }
}

fn check(kernel: &Arc<dyn Kernel>, x: &Matrix, y: &[f64], options: FitOptions, what: &str) {
    let new = fit_gp_hyperparams_laddered(kernel.clone(), x, y, options, MAX_RUNGS);
    let old = frozen_fit_gp_hyperparams_laddered(kernel.clone(), x, y, options, MAX_RUNGS);
    assert_same_ladder(&new, &old, what);
    let no_start = fit_gp_hyperparams_laddered_from(kernel.clone(), x, y, options, MAX_RUNGS, None);
    assert_same_ladder(&no_start, &old, &format!("{what}, no start"));
    let new = fit_gp_hyperparams(kernel.clone(), x, y, options);
    let old = frozen_fit_gp_hyperparams(kernel.clone(), x, y, options);
    let wrap = |r: Result<FittedGp>| r.map(|fitted| LadderedFit { fitted, rungs: 0 });
    assert_same_ladder(&wrap(new), &wrap(old), what);
}

#[test]
fn matern_fit_matches_frozen_fit_on_every_shape() {
    let kernel = Matern52::new(0.5).into_kernel();
    for n in [1, 2, 21, 72] {
        for d in [1, 6, 13] {
            let (x, y) = corpus_data(n, d);
            check(&kernel, &x, &y, BO_FIT, &format!("matern n={n} d={d}"));
        }
    }
}

/// A stationary kernel that is indefinite on near-duplicate rows: two rows
/// closer than `1e-6` correlate at [`Self::SPIKE`], far above the unit
/// diagonal.
///
/// Near-duplicate rows alone never make the Matérn fit climb the ladder.
/// Each rung's first trial, the heuristic seed, puts 1% of the target
/// variance on the diagonal, and the Cholesky jitter adds up to 0.1 more,
/// so rung 0 always factors. This kernel stands in for a surrogate that
/// the lowest noise floor cannot factor.
#[derive(Debug)]
struct Spiked(Matern52);

impl Spiked {
    /// With constant targets the signal variance seeds at `1e-6`, so the
    /// near-duplicate pair needs `1e-6 · (SPIKE − 1) = 0.10005` of added
    /// diagonal. Rung 0 reaches `1e-6` of noise plus `0.1` of jitter, rung
    /// 1 reaches `1e-4 + 0.1`.
    const SPIKE: f64 = 100_051.0;
}

impl Kernel for Spiked {
    fn length_scale(&self) -> f64 {
        self.0.length_scale()
    }

    fn with_length_scale(&self, length_scale: f64) -> Arc<dyn Kernel> {
        Arc::new(Spiked(Matern52::new(length_scale)))
    }

    fn eval_squared_distances(&self, d2: &[f64], out: &mut [f64]) {
        self.0.eval_squared_distances(d2, out);
        for (k, &d2) in out.iter_mut().zip(d2) {
            if d2 > 0.0 && d2 < 1e-12 {
                *k = Self::SPIKE;
            }
        }
    }
}

#[test]
fn near_duplicate_rows_climb_a_rung_like_the_frozen_fit() {
    let (base, _) = corpus_data(1, 6);
    let mut rows = base.as_slice().to_vec();
    rows.extend_from_slice(base.as_slice());
    rows[6] += 1e-9;
    let x = Matrix::from_vec(2, 6, rows).unwrap();
    let y = [0.25, 0.25];
    let kernel: Arc<dyn Kernel> = Arc::new(Spiked(Matern52::new(0.5)));
    let new = fit_gp_hyperparams_laddered(kernel.clone(), &x, &y, BO_FIT, MAX_RUNGS);
    let old = frozen_fit_gp_hyperparams_laddered(kernel, &x, &y, BO_FIT, MAX_RUNGS);
    assert_same_ladder(&new, &old, "near-duplicate rows");
    assert_eq!(
        new.unwrap().rungs,
        1,
        "the ladder must climb exactly one rung"
    );
}

#[test]
fn invalid_inputs_fail_with_the_frozen_fit_error() {
    let kernel = Matern52::new(0.5).into_kernel();
    let (x, y) = corpus_data(21, 6);
    let mut nan_y = y.clone();
    nan_y[7] = f64::NAN;
    let nan_floor = FitOptions {
        min_noise_variance: f64::NAN,
        ..BO_FIT
    };
    let cases: [(&str, Matrix, &[f64], FitOptions); 4] = [
        ("empty x", Matrix::zeros(0, 6), &[], BO_FIT),
        ("y length mismatch", x.clone(), &y[..20], BO_FIT),
        ("nan target", x.clone(), &nan_y, BO_FIT),
        ("nan noise floor", x, &y, nan_floor),
    ];
    for (what, x, y, options) in cases {
        assert!(
            fit_gp_hyperparams_laddered(kernel.clone(), &x, y, options, MAX_RUNGS).is_err(),
            "{what}: must fail"
        );
        check(&kernel, &x, y, options, what);
    }
}

/// A warm start at ln σ_f² = −800 underflows the signal variance to zero in
/// every trial of its restart, so no trial finds a finite likelihood and
/// each rung must run the cold search: the fit is the frozen fit's, bit
/// for bit.
#[test]
fn a_start_where_every_trial_fails_returns_the_cold_fit() {
    let kernel = Matern52::new(0.5).into_kernel();
    let start = [0.0, -800.0, -5.0];
    for (n, d) in [(2, 6), (21, 6), (72, 13)] {
        let (x, y) = corpus_data(n, d);
        let warm = fit_gp_hyperparams_laddered_from(
            kernel.clone(),
            &x,
            &y,
            BO_FIT,
            MAX_RUNGS,
            Some(start),
        );
        let cold = frozen_fit_gp_hyperparams_laddered(kernel.clone(), &x, &y, BO_FIT, MAX_RUNGS);
        assert_same_ladder(&warm, &cold, &format!("failing start n={n} d={d}"));
    }
}
