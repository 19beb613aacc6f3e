//! Frozen reference fit — `fit_gp_hyperparams` and
//! `fit_gp_hyperparams_laddered` copied verbatim at the moment the fit
//! began building each trial's covariance from a per-fit distance table.
//!
//! This is the oracle of that change: every Nelder–Mead trial here refits
//! a whole [`GpRegressor`] from the rows, and the library's fit must choose
//! bit-identical hyper-parameters, because the golden traces at the
//! workspace root pin every f64 the BO loop derives from them. The
//! bench ratchet times the library against the same copy. Do not
//! "improve" this code — its whole value is that it never changes. The
//! shared test inputs at the end of the file are not part of the copy.

// Oracle code is kept exactly as it was, including what the library's
// lints would now reject in test support.
#![allow(clippy::unwrap_used, clippy::expect_used, dead_code)]

use std::sync::Arc;

use hyperpower_gp::optimize::{nelder_mead, NelderMeadOptions};
use hyperpower_gp::{Error, FitOptions, FittedGp, GpRegressor, Kernel, LadderedFit, Result};
use hyperpower_linalg::Matrix;

pub fn frozen_fit_gp_hyperparams(
    base_kernel: Arc<dyn Kernel>,
    x: &Matrix,
    y: &[f64],
    options: FitOptions,
) -> Result<FittedGp> {
    // A non-finite noise floor would otherwise be silently ignored by
    // `f64::max` (NaN loses); reject it up front so callers poking the
    // failure path get a deterministic error instead of a quiet fit.
    if !(options.min_noise_variance.is_finite() && options.min_noise_variance > 0.0) {
        return Err(Error::InvalidHyperParameter {
            name: "min_noise_variance",
            value: options.min_noise_variance,
        });
    }
    // Data-driven initial guesses.
    let median_dist = median_pairwise_distance(x).max(1e-3);
    let y_var = variance(y).max(1e-6);
    let init = [
        median_dist.ln(),
        y_var.ln(),
        (0.01 * y_var).max(options.min_noise_variance).ln(),
    ];

    let objective = |p: &[f64]| -> f64 {
        let length_scale = p[0].exp();
        let signal_variance = p[1].exp();
        let noise_variance = p[2].exp().max(options.min_noise_variance);
        if !(length_scale.is_finite() && signal_variance.is_finite() && noise_variance.is_finite())
        {
            return f64::INFINITY;
        }
        let kernel = base_kernel.with_length_scale(length_scale);
        match GpRegressor::fit(kernel, signal_variance, noise_variance, x, y) {
            Ok(gp) => -gp.log_marginal_likelihood(),
            Err(_) => f64::INFINITY,
        }
    };

    let mut best: Option<(Vec<f64>, f64)> = None;
    for restart in 0..options.restarts.max(1) {
        // Deterministic perturbations: restart 0 is the heuristic seed,
        // later restarts are offset in alternating directions.
        let offset = match restart {
            0 => [0.0, 0.0, 0.0],
            1 => [1.0, 0.5, 1.5],
            2 => [-1.0, -0.5, -1.5],
            r => {
                let s = r as f64;
                [s * 0.7, -s * 0.3, s * 0.9]
            }
        };
        let start: Vec<f64> = init.iter().zip(&offset).map(|(a, b)| a + b).collect();
        let result = nelder_mead(
            objective,
            &start,
            NelderMeadOptions {
                max_evals: options.max_evals_per_restart,
                ..Default::default()
            },
        );
        if best.as_ref().is_none_or(|(_, f)| result.f < *f) {
            best = Some((result.x, result.f));
        }
    }

    // `restarts.max(1)` guarantees at least one entry; if every restart
    // diverged (or none ran), fall back to the heuristic seed.
    let params = match best {
        Some((params, best_f)) if best_f.is_finite() => params,
        _ => init.to_vec(),
    };
    let length_scale = params[0].exp();
    let signal_variance = params[1].exp();
    let noise_variance = params[2].exp().max(options.min_noise_variance);
    let gp = GpRegressor::fit(
        base_kernel.with_length_scale(length_scale),
        signal_variance,
        noise_variance,
        x,
        y,
    )?;
    Ok(FittedGp {
        gp,
        length_scale,
        signal_variance,
        noise_variance,
    })
}

pub fn frozen_fit_gp_hyperparams_laddered(
    base_kernel: Arc<dyn Kernel>,
    x: &Matrix,
    y: &[f64],
    options: FitOptions,
    max_rungs: u32,
) -> Result<LadderedFit> {
    let mut last: Result<LadderedFit> = Err(Error::NoObservations);
    for rung in 0..=max_rungs {
        let floor = options.min_noise_variance * 100f64.powi(rung as i32);
        let rung_options = FitOptions {
            min_noise_variance: floor,
            ..options
        };
        match frozen_fit_gp_hyperparams(base_kernel.clone(), x, y, rung_options) {
            Ok(fitted) => {
                return Ok(LadderedFit {
                    fitted,
                    rungs: rung,
                })
            }
            Err(e) => last = Err(e),
        }
    }
    last
}

fn median_pairwise_distance(x: &Matrix) -> f64 {
    let n = x.rows();
    if n < 2 {
        return 1.0;
    }
    let mut dists = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in 0..i {
            dists.push(hyperpower_linalg::vector::squared_distance(x.row(i), x.row(j)).sqrt());
        }
    }
    dists.sort_by(f64::total_cmp);
    dists[dists.len() / 2]
}

fn variance(y: &[f64]) -> f64 {
    if y.len() < 2 {
        return 1.0;
    }
    let m = y.iter().sum::<f64>() / y.len() as f64;
    y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (y.len() - 1) as f64
}

// Shared test inputs, not part of the frozen copy.

/// `BoSearcher`'s and `ThompsonSearcher`'s fit options.
pub const BO_FIT: FitOptions = FitOptions {
    restarts: 2,
    max_evals_per_restart: 80,
    min_noise_variance: 1e-6,
};

/// `hyperpower::methods::MAX_JITTER_RUNGS`.
pub const MAX_RUNGS: u32 = 2;

/// The bits a fit must reproduce: its ladder rung, its hyper-parameters
/// and the log marginal likelihood of its regressor.
pub fn fit_bits(l: &LadderedFit) -> (u32, [u64; 4]) {
    let f = &l.fitted;
    let values = [
        f.length_scale,
        f.signal_variance,
        f.noise_variance,
        f.gp.log_marginal_likelihood(),
    ];
    (l.rungs, values.map(f64::to_bits))
}
