//! Frozen reference fit — `fit_gp_hyperparams` and
//! `fit_gp_hyperparams_laddered` copied verbatim at the moment the fit
//! began building each trial's covariance from a per-fit distance table —
//! and frozen reference scorer — `GpRegressor::posterior_batch` copied at
//! the moment the cross-covariances began to be built a training row at a
//! time — and frozen per-point loop — `GpRegressor::predict` copied, with
//! the forward solve it ran, at the moment an owned factor stopped solving
//! row by row against `L`.
//!
//! The fit is the oracle of the first change: every Nelder–Mead trial
//! here refits a whole [`GpRegressor`] from the rows, and the library's
//! fit must choose bit-identical hyper-parameters, because the golden
//! traces at the workspace root pin every f64 the BO loop derives from
//! them. The scorer is the oracle of the second: one k* vector per
//! candidate, then a transpose of the solution, and the library's scores
//! must be bit-identical. The per-point loop is the baseline that batched
//! scoring is timed against, and both scoring paths must match its bits.
//! The bench ratchet times the library against these copies. Do not
//! "improve" this code — its whole value is that it never changes. The
//! shared test inputs at the end of the file are not part of any copy.

// Oracle code is kept exactly as it was, including what the library's
// lints would now reject in test support.
#![allow(clippy::unwrap_used, clippy::expect_used, dead_code)]

use std::sync::Arc;

use hyperpower_gp::optimize::{nelder_mead, NelderMeadOptions};
use hyperpower_gp::{
    Error, FitOptions, FittedGp, GpRegressor, Kernel, LadderedFit, Prediction, Result,
};
use hyperpower_linalg::{vector, Cholesky, Matrix};

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

/// The state `GpRegressor::posterior_batch` and `GpRegressor::predict`
/// read. The regressor keeps its factor private, so [`FrozenScorer::fit`]
/// rebuilds it from the public kernel and linalg calls `GpRegressor::fit`
/// makes, with the kernel matrix and cross-covariances evaluated as the
/// provided `Kernel::matrix` and `Kernel::cross` evaluated them then: one
/// `Kernel::eval` per entry. `l` is the factor's `L`, which
/// [`FrozenScorer::predict`] solves against.
pub struct FrozenScorer {
    kernel: Arc<dyn Kernel>,
    signal_variance: f64,
    x_train: Matrix,
    y_mean: f64,
    alpha: Vec<f64>,
    chol: Cholesky,
    l: Matrix,
}

impl FrozenScorer {
    pub fn fit(
        kernel: Arc<dyn Kernel>,
        signal_variance: f64,
        noise_variance: f64,
        x_train: &Matrix,
        y_train: &[f64],
    ) -> Self {
        let n = x_train.rows();
        let y_mean = y_train.iter().sum::<f64>() / n as f64;
        let y_centered: Vec<f64> = y_train.iter().map(|y| y - y_mean).collect();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.eval(x_train.row(i), x_train.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        let mut cov = k.scale(signal_variance);
        cov.add_diagonal(noise_variance);
        let (chol, _jitter) = Cholesky::factor_with_jitter(&cov, 1e-10, 10).unwrap();
        let alpha = chol.solve(&y_centered).unwrap();
        let l = chol.factor_l();
        FrozenScorer {
            kernel,
            signal_variance,
            x_train: x_train.clone(),
            y_mean,
            alpha,
            chol,
            l,
        }
    }

    fn cross(&self, query: &[f64]) -> Vec<f64> {
        (0..self.x_train.rows())
            .map(|i| self.kernel.eval(query, self.x_train.row(i)))
            .collect()
    }

    pub fn posterior_batch(&self, queries: &Matrix) -> Result<(Vec<f64>, Vec<f64>)> {
        if queries.cols() != self.x_train.cols() {
            return Err(Error::DimensionMismatch {
                expected: format!("queries with {} columns", self.x_train.cols()),
                found: format!("queries with {} columns", queries.cols()),
            });
        }
        let m = queries.rows();
        let n = self.x_train.rows();
        // K* gathered column-wise (n×m): component-major is exactly the
        // layout the multi-RHS forward solve wants.
        let mut kstar = Matrix::zeros(n, m);
        let mut means = Vec::with_capacity(m);
        for q in 0..m {
            let k_star: Vec<f64> = self
                .cross(queries.row(q))
                .into_iter()
                .map(|v| v * self.signal_variance)
                .collect();
            means.push(self.y_mean + vector::dot(&k_star, &self.alpha));
            for (i, v) in k_star.into_iter().enumerate() {
                kstar[(i, q)] = v;
            }
        }
        let v = self
            .chol
            .solve_lower_columns(kstar)
            .map_err(Error::Numerical)?;
        // Column dots in row-major storage: transpose once so each query's
        // `vᵀv` is the same contiguous `vector::dot` fold `predict` runs.
        let vt = v.transpose();
        let mut variances = Vec::with_capacity(m);
        for q in 0..m {
            let query = queries.row(q);
            let prior = self.signal_variance * self.kernel.eval(query, query);
            let vq = vt.row(q);
            variances.push((prior - vector::dot(vq, vq)).max(0.0));
        }
        Ok((means, variances))
    }

    pub fn predict(&self, query: &[f64]) -> Result<Prediction> {
        if query.len() != self.x_train.cols() {
            return Err(Error::DimensionMismatch {
                expected: format!("query with {} dimensions", self.x_train.cols()),
                found: format!("query with {} dimensions", query.len()),
            });
        }
        let k_star: Vec<f64> = self
            .kernel
            .cross(query, &self.x_train)
            .into_iter()
            .map(|v| v * self.signal_variance)
            .collect();
        let mean = self.y_mean + vector::dot(&k_star, &self.alpha);
        // v = L⁻¹ k*; var = k(x*,x*) − vᵀv
        let v = solve_lower(&self.l, &k_star);
        let prior = self.signal_variance * self.kernel.eval(query, query);
        let variance = (prior - vector::dot(&v, &v)).max(0.0);
        hyperpower_linalg::debug_assert_finite!("gp posterior (mean, variance)", &[mean, variance]);
        Ok(Prediction { mean, variance })
    }
}

/// `Cholesky::solve_lower` as `FrozenScorer::predict` ran it: a copy of
/// `b`, solved in place row by row against `L` by the blocked kernel
/// below, with one right-hand side.
fn solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut y = b.to_vec();
    solve_lower_rows(l.rows(), l.as_slice(), 1, &mut y);
    y
}

/// Rows of the solution per block of [`solve_lower_rows`].
const ROW_BLOCK: usize = 32;

/// Blocked forward substitution `L·Y = B` against row-major `L` for
/// `nrhs` right-hand sides stored column-wise (`y[i * nrhs + r]`): each
/// row of a block subtracts the block's earlier rows and divides, then
/// every later row subtracts the whole block.
fn solve_lower_rows(n: usize, l: &[f64], nrhs: usize, y: &mut [f64]) {
    debug_assert_eq!(l.len(), n * n);
    debug_assert_eq!(y.len(), n * nrhs);
    let mut a0 = 0;
    while a0 < n {
        let a1 = (a0 + ROW_BLOCK).min(n);
        for i in a0..a1 {
            let (head, tail) = y.split_at_mut(i * nrhs);
            let yi = &mut tail[..nrhs];
            for k in a0..i {
                let lik = l[i * n + k];
                let yk = &head[k * nrhs..(k + 1) * nrhs];
                for (yv, &kv) in yi.iter_mut().zip(yk) {
                    *yv -= lik * kv;
                }
            }
            let d = l[i * n + i];
            for yv in yi.iter_mut() {
                *yv /= d;
            }
        }
        for i in a1..n {
            let (head, tail) = y.split_at_mut(i * nrhs);
            let yi = &mut tail[..nrhs];
            for k in a0..a1 {
                let lik = l[i * n + k];
                let yk = &head[k * nrhs..(k + 1) * nrhs];
                for (yv, &kv) in yi.iter_mut().zip(yk) {
                    *yv -= lik * kv;
                }
            }
        }
        a0 = a1;
    }
}

// Shared test inputs, not part of the frozen copies.

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
