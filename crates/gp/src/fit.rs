//! The GP hyper-parameter fit: Nelder–Mead over the log marginal
//! likelihood, one covariance factorization per trial.
//!
//! A fit computes what every trial shares once ([`FitTable`]): its rows'
//! pairwise distances in the factor's row order and the centred targets.
//! Each trial fills the upper triangle of one reused covariance a row at a
//! time through the kernel's row hook, factors it and solves for α in one
//! reused workspace ([`TrialWorkspace`]), through the function
//! [`GpRegressor::fit`] scores with, so a trial is that regressor's refit
//! bit for bit. The fit's result is one more trial at the optimum: its
//! regressor keeps that trial's factor, α and likelihood.
//! [`GpRegressor::fit`] itself runs only to report a typed error or on the
//! fallback to the heuristic start.

use std::sync::Arc;

use hyperpower_linalg::{vector, CholeskyWorkspace, Matrix};

use crate::optimize::{nelder_mead, NelderMeadOptions};
use crate::regressor::factor_covariance;
use crate::{Error, GpRegressor, Kernel, Result};

/// Options for [`fit_gp_hyperparams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Number of Nelder–Mead restarts of a cold search, from different
    /// initial points. A warm-started fit (see
    /// [`fit_gp_hyperparams_laddered_from`]) runs one restart instead, and
    /// these only if that restart finds no finite likelihood.
    pub restarts: usize,
    /// Objective-evaluation budget per restart.
    pub max_evals_per_restart: usize,
    /// Lower bound on the noise variance (keeps the surrogate from claiming
    /// to interpolate noisy observations exactly).
    pub min_noise_variance: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            restarts: 3,
            max_evals_per_restart: 120,
            min_noise_variance: 1e-6,
        }
    }
}

/// A GP whose hyper-parameters were chosen by marginal-likelihood
/// maximisation.
#[derive(Debug, Clone)]
pub struct FittedGp {
    /// The fitted regressor, ready for prediction.
    pub gp: GpRegressor,
    /// Selected kernel length scale.
    pub length_scale: f64,
    /// Selected signal variance.
    pub signal_variance: f64,
    /// Selected noise variance.
    pub noise_variance: f64,
}

/// Fits GP hyper-parameters (length scale, signal variance, noise variance)
/// by maximising the log marginal likelihood with multi-start Nelder–Mead
/// in log-space.
///
/// This mirrors what Spearmint does each Bayesian-optimization iteration
/// (it slice-samples; we optimise — the paper's behaviour only depends on
/// the surrogate being refit to the data each round, per Figure 2 step 3).
///
/// This is a cold search: it is seeded at data-driven heuristics (median
/// pairwise distance for the length scale, target variance for the signal
/// variance) plus perturbed restarts, so it is deterministic for a given
/// dataset. [`fit_gp_hyperparams_laddered_from`] can instead start the
/// search at a previous fit's optimum.
///
/// The rows' pairwise distances are computed once per fit, square roots
/// included. Each trial fills its covariance's upper triangle a row at a
/// time, one [`Kernel::eval_distances`] call per row of that table, and
/// scales the row by the signal variance. Every covariance entry, the
/// factorization and the likelihood take the floating-point steps of
/// [`GpRegressor::fit`], so the result is bit-identical to refitting the
/// regressor at every trial. Every trial writes its covariance, factor and
/// solve into one workspace the fit allocates once. The returned regressor
/// is the one of a last trial at the optimum, so it too is
/// [`GpRegressor::fit`]'s at the chosen hyper-parameters, bit for bit.
///
/// # Errors
///
/// Propagates fitting errors from [`GpRegressor::fit`] if even the fallback
/// heuristic hyper-parameters fail (e.g. empty data).
pub fn fit_gp_hyperparams(
    base_kernel: Arc<dyn Kernel>,
    x: &Matrix,
    y: &[f64],
    options: FitOptions,
) -> Result<FittedGp> {
    let table = FitTable::new(x, y);
    let mut ws = TrialWorkspace::new(&table);
    fit_with_table(&base_kernel, &table, &mut ws, options, None)
}

/// What every trial of one fit shares, computed once per fit.
struct FitTable<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    /// The distances `√‖xᵢ − xⱼ‖²` in the factor's row order: row j holds
    /// the distances from row j to rows j..n, and rows follow one another.
    /// Each is the distance [`Kernel::matrix`] evaluates at (i, j), as
    /// `vector::squared_distance(xᵢ, xⱼ).sqrt()`.
    r: Vec<f64>,
    /// `ȳ`, the mean [`GpRegressor::fit`] centres the targets on; read
    /// only when `y_centered` is `Some`.
    y_mean: f64,
    /// `y − ȳ`, or `None` when no hyper-parameters can fit the data (no
    /// rows, a target count that differs from the row count, or a
    /// non-finite target): [`GpRegressor::fit`] rejects such data in every
    /// trial.
    y_centered: Option<Vec<f64>>,
}

/// The hyper-parameters of one trial, from a log-space point.
struct Hyper {
    length_scale: f64,
    signal_variance: f64,
    noise_variance: f64,
}

impl Hyper {
    /// The hyper-parameters at `p = [ln ℓ, ln σ_f², ln σ_n²]`, the noise
    /// variance floored at `min_noise_variance`, or `None` where a trial
    /// fails at once: a non-finite value, or a signal variance that
    /// underflowed to zero, which [`GpRegressor::fit`] also rejects (the
    /// noise floor keeps the noise variance positive).
    fn at(p: &[f64], min_noise_variance: f64) -> Option<Self> {
        let hyper = Hyper {
            length_scale: p[0].exp(),
            signal_variance: p[1].exp(),
            noise_variance: p[2].exp().max(min_noise_variance),
        };
        (hyper.length_scale.is_finite()
            && hyper.signal_variance.is_finite()
            && hyper.signal_variance > 0.0
            && hyper.noise_variance.is_finite())
        .then_some(hyper)
    }
}

/// The buffers every trial of one fit reuses, so a trial allocates
/// nothing: the covariance, the factor `Lᵀ` and α. A trial writes only
/// the covariance's upper triangle, a row at a time, which is all the
/// factorization reads; the lower triangle stays zero and passes the
/// factorization's finiteness check.
struct TrialWorkspace {
    cov: Matrix,
    factor: CholeskyWorkspace,
    alpha: Vec<f64>,
}

impl TrialWorkspace {
    fn new(table: &FitTable<'_>) -> Self {
        let n = table.x.rows();
        TrialWorkspace {
            cov: Matrix::zeros(n, n),
            factor: CholeskyWorkspace::default(),
            alpha: Vec::with_capacity(n),
        }
    }
}

impl<'a> FitTable<'a> {
    fn new(x: &'a Matrix, y: &'a [f64]) -> Self {
        let n = x.rows();
        let mut r = Vec::with_capacity(n * (n + 1) / 2);
        for j in 0..n {
            for i in j..n {
                r.push(vector::squared_distance(x.row(i), x.row(j)).sqrt());
            }
        }
        let fits = n > 0 && y.len() == n && y.iter().all(|v| v.is_finite());
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_centered = fits.then(|| y.iter().map(|v| v - y_mean).collect());
        FitTable {
            x,
            y,
            r,
            y_mean,
            y_centered,
        }
    }

    /// Row j of the distance table, for j = 0..n: the distances from row j
    /// to rows j..n, the first of them its distance to itself.
    fn upper_rows(&self) -> impl Iterator<Item = &[f64]> {
        let n = self.x.rows();
        let mut rest = self.r.as_slice();
        (0..n).map(move |j| {
            let (row, tail) = rest.split_at(n - j);
            rest = tail;
            row
        })
    }

    fn median_pairwise_distance(&self) -> f64 {
        let n = self.x.rows();
        if n < 2 {
            return 1.0;
        }
        let mut dists = Vec::with_capacity(n * (n - 1) / 2);
        for row in self.upper_rows() {
            dists.extend_from_slice(&row[1..]);
        }
        dists.sort_by(f64::total_cmp);
        dists[dists.len() / 2]
    }

    /// The cold search's heuristic seed: the logs of the median pairwise
    /// distance (at least `1e-3`), of the target variance (at least
    /// `1e-6`) and of a hundredth of it (at least the noise floor). It
    /// sorts every pairwise distance, so a fit computes it only when it
    /// runs the cold search, reports a typed error or falls back.
    fn heuristic_start(&self, min_noise_variance: f64) -> [f64; 3] {
        let median_dist = self.median_pairwise_distance().max(1e-3);
        let y_var = variance(self.y).max(1e-6);
        [
            median_dist.ln(),
            y_var.ln(),
            (0.01 * y_var).max(min_noise_variance).ln(),
        ]
    }

    /// Writes a trial's covariance `σ_f²·K + σ_n²·I` at `p` into the upper
    /// triangle of `cov`, and returns its hyper-parameters, or `None`
    /// (writing nothing) where [`Hyper::at`] rejects `p`. Row j is the
    /// kernel at row j of the distance table, through
    /// [`Kernel::eval_distances`], times the signal variance: each entry is
    /// the one `kernel.matrix(x).scale(signal_variance)` holds at (j, i)
    /// and, mirrored, at (i, j). Then the diagonal gets the noise.
    fn fill(
        &self,
        cov: &mut Matrix,
        base_kernel: &dyn Kernel,
        min_noise_variance: f64,
        p: &[f64],
    ) -> Option<Hyper> {
        let hyper = Hyper::at(p, min_noise_variance)?;
        let kernel = base_kernel.with_length_scale(hyper.length_scale);
        for (j, r) in self.upper_rows().enumerate() {
            let row = &mut cov.row_mut(j)[j..];
            kernel.eval_distances(r, row);
            for k in row.iter_mut() {
                *k *= hyper.signal_variance;
            }
        }
        cov.add_diagonal(hyper.noise_variance);
        Some(hyper)
    }

    /// The search's objective at log-space hyper-parameters `p`: the
    /// negative log marginal likelihood of one trial, or `+∞` wherever
    /// [`GpRegressor::fit`] would fail.
    fn objective(
        &self,
        ws: &mut TrialWorkspace,
        base_kernel: &dyn Kernel,
        y_centered: &[f64],
        min_noise_variance: f64,
        p: &[f64],
    ) -> f64 {
        if self
            .fill(&mut ws.cov, base_kernel, min_noise_variance, p)
            .is_none()
        {
            return f64::INFINITY;
        }
        match factor_covariance(&ws.cov, y_centered, &mut ws.factor, &mut ws.alpha) {
            Ok((_, log_marginal_likelihood)) => -log_marginal_likelihood,
            Err(_) => f64::INFINITY,
        }
    }

    /// The fitted GP at the search's optimum `p`: one more trial there,
    /// whose factor, α and likelihood the regressor keeps (the search's
    /// last trial is rarely at its optimum). That is
    /// [`GpRegressor::fit`]'s regressor at the same hyper-parameters, bit
    /// for bit. `None` if the trial fails, which the finite objective the
    /// search found at `p` rules out.
    fn fitted(
        &self,
        ws: &mut TrialWorkspace,
        base_kernel: &dyn Kernel,
        y_centered: &[f64],
        min_noise_variance: f64,
        p: &[f64],
    ) -> Option<FittedGp> {
        let hyper = self.fill(&mut ws.cov, base_kernel, min_noise_variance, p)?;
        let (chol, log_marginal_likelihood) =
            factor_covariance(&ws.cov, y_centered, &mut ws.factor, &mut ws.alpha).ok()?;
        let gp = GpRegressor::from_factor(
            base_kernel.with_length_scale(hyper.length_scale),
            hyper.signal_variance,
            hyper.noise_variance,
            self.x.clone(),
            self.y_mean,
            ws.alpha.clone(),
            chol.clone(),
            log_marginal_likelihood,
        );
        Some(FittedGp {
            gp,
            length_scale: hyper.length_scale,
            signal_variance: hyper.signal_variance,
            noise_variance: hyper.noise_variance,
        })
    }
}

/// One rung's fit. With a log-space `start`, the search is one restart
/// from it, and the cold search runs only if that restart finds no finite
/// likelihood; without one, the search is the cold search.
fn fit_with_table(
    base_kernel: &Arc<dyn Kernel>,
    table: &FitTable<'_>,
    ws: &mut TrialWorkspace,
    options: FitOptions,
    start: Option<[f64; 3]>,
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
    let floor = options.min_noise_variance;
    // The typed-error and fallback paths: the regressor refitted from the
    // rows reports why the data or these hyper-parameters fail.
    let refit = |params: &[f64]| -> Result<FittedGp> {
        let length_scale = params[0].exp();
        let signal_variance = params[1].exp();
        let noise_variance = params[2].exp().max(floor);
        let gp = GpRegressor::fit(
            base_kernel.with_length_scale(length_scale),
            signal_variance,
            noise_variance,
            table.x,
            table.y,
        )?;
        Ok(FittedGp {
            gp,
            length_scale,
            signal_variance,
            noise_variance,
        })
    };
    // Data no trial can fit makes every objective value +∞, so the search
    // would end at the heuristic seed: refit there for the typed error.
    let Some(y_centered) = table.y_centered.as_deref() else {
        return refit(&table.heuristic_start(floor));
    };

    let mut objective = |p: &[f64]| table.objective(ws, &**base_kernel, y_centered, floor, p);
    let search = NelderMeadOptions {
        max_evals: options.max_evals_per_restart,
        ..Default::default()
    };
    let warm = start.and_then(|start| best_restart(&mut objective, [start], search));
    let best = match warm {
        Some(best) => best,
        None => {
            let init = table.heuristic_start(floor);
            match best_restart(&mut objective, cold_starts(init, options.restarts), search) {
                Some(best) => best,
                // Every cold restart diverged too: fall back to the
                // heuristic seed.
                None => return refit(&init),
            }
        }
    };
    match table.fitted(ws, &**base_kernel, y_centered, floor, &best) {
        Some(fitted) => Ok(fitted),
        None => refit(&best),
    }
}

/// The cold search's restart points, at least one: restart 0 is the
/// heuristic seed `init`, later restarts are deterministic offsets from it
/// in alternating directions.
fn cold_starts(init: [f64; 3], restarts: usize) -> impl Iterator<Item = [f64; 3]> {
    (0..restarts.max(1)).map(move |restart| {
        let offset = match restart {
            0 => [0.0, 0.0, 0.0],
            1 => [1.0, 0.5, 1.5],
            2 => [-1.0, -0.5, -1.5],
            r => {
                let s = r as f64;
                [s * 0.7, -s * 0.3, s * 0.9]
            }
        };
        [
            init[0] + offset[0],
            init[1] + offset[1],
            init[2] + offset[2],
        ]
    })
}

/// Runs one Nelder–Mead restart from each of `starts` in turn and returns
/// the point with the lowest objective (the earliest restart's on ties),
/// or `None` if no restart found a finite one.
fn best_restart(
    objective: &mut impl FnMut(&[f64]) -> f64,
    starts: impl IntoIterator<Item = [f64; 3]>,
    search: NelderMeadOptions,
) -> Option<Vec<f64>> {
    let mut best: Option<(Vec<f64>, f64)> = None;
    for start in starts {
        let result = nelder_mead(&mut *objective, &start, search);
        if best.as_ref().is_none_or(|(_, f)| result.f < *f) {
            best = Some((result.x, result.f));
        }
    }
    best.filter(|(_, f)| f.is_finite()).map(|(x, _)| x)
}

/// A fit that may have climbed the noise-floor ladder before succeeding.
#[derive(Debug, Clone)]
pub struct LadderedFit {
    /// The fitted GP from the first rung that succeeded.
    pub fitted: FittedGp,
    /// How many rungs failed before this fit succeeded (0 = clean fit at
    /// the requested noise floor).
    pub rungs: u32,
}

/// Like [`fit_gp_hyperparams`], but escalates the noise floor through a
/// deterministic jitter ladder instead of failing outright.
///
/// Rung `r` retries the fit with `min_noise_variance × 100^r`, for
/// `r = 0..=max_rungs`. A larger noise floor inflates the diagonal of the
/// kernel matrix, which rescues Cholesky factorizations that fail on
/// near-duplicate inputs at the cost of a less confident surrogate. The
/// ladder is a pure function of the data and options — no randomness, no
/// retry loops with side effects — so callers can log each escalation as a
/// typed event and stay reproducible. Every rung and every restart shares
/// one pairwise-distance table and one trial workspace.
///
/// Every rung runs the cold search; this is
/// [`fit_gp_hyperparams_laddered_from`] without a start.
///
/// # Errors
///
/// Returns the last rung's error if every rung fails (e.g. a non-finite
/// noise floor poisons all rungs, or the data itself is degenerate).
pub fn fit_gp_hyperparams_laddered(
    base_kernel: Arc<dyn Kernel>,
    x: &Matrix,
    y: &[f64],
    options: FitOptions,
    max_rungs: u32,
) -> Result<LadderedFit> {
    fit_gp_hyperparams_laddered_from(base_kernel, x, y, options, max_rungs, None)
}

/// Like [`fit_gp_hyperparams_laddered`], optionally warm-started at the
/// log-space hyper-parameters `start = [ln ℓ, ln σ_f², ln σ_n²]`, such as
/// a previous fit's optimum on a shorter history.
///
/// With a start, each rung runs one Nelder–Mead restart from it, under the
/// same `max_evals_per_restart`. If that restart finds no finite
/// likelihood, the rung runs the cold search's `restarts` restarts, so a
/// warm start never fails a rung the cold search would fit. Without a
/// start, every rung runs the cold search.
///
/// # Errors
///
/// As [`fit_gp_hyperparams_laddered`].
pub fn fit_gp_hyperparams_laddered_from(
    base_kernel: Arc<dyn Kernel>,
    x: &Matrix,
    y: &[f64],
    options: FitOptions,
    max_rungs: u32,
    start: Option<[f64; 3]>,
) -> Result<LadderedFit> {
    let table = FitTable::new(x, y);
    let mut ws = TrialWorkspace::new(&table);
    let mut last: Result<LadderedFit> = Err(Error::NoObservations);
    for rung in 0..=max_rungs {
        let floor = options.min_noise_variance * 100f64.powi(rung as i32);
        let rung_options = FitOptions {
            min_noise_variance: floor,
            ..options
        };
        match fit_with_table(&base_kernel, &table, &mut ws, rung_options, start) {
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

fn variance(y: &[f64]) -> f64 {
    if y.len() < 2 {
        return 1.0;
    }
    let m = y.iter().sum::<f64>() / y.len() as f64;
    y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (y.len() - 1) as f64
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::Matern52;

    fn sine_data(n: usize) -> (Matrix, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        (Matrix::from_vec(n, 1, xs).unwrap(), ys)
    }

    #[test]
    fn fitted_gp_beats_arbitrary_hyperparams() {
        let (x, y) = sine_data(15);
        let fitted = fit_gp_hyperparams(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions::default(),
        )
        .unwrap();
        let naive =
            GpRegressor::fit(Matern52::new(0.01).into_kernel(), 100.0, 1.0, &x, &y).unwrap();
        assert!(fitted.gp.log_marginal_likelihood() > naive.log_marginal_likelihood());
    }

    #[test]
    fn fitted_gp_predicts_smooth_function() {
        let (x, y) = sine_data(20);
        let fitted = fit_gp_hyperparams(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions::default(),
        )
        .unwrap();
        // Interpolate at a held-out point.
        let p = fitted.gp.predict(&[2.25]).unwrap();
        assert!((p.mean - 2.25f64.sin()).abs() < 0.15, "mean {}", p.mean);
    }

    #[test]
    fn hyperparams_are_positive() {
        let (x, y) = sine_data(10);
        let fitted = fit_gp_hyperparams(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions {
                restarts: 2,
                max_evals_per_restart: 60,
                min_noise_variance: 1e-7,
            },
        )
        .unwrap();
        assert!(fitted.length_scale > 0.0);
        assert!(fitted.signal_variance > 0.0);
        assert!(fitted.noise_variance >= 1e-7);
    }

    #[test]
    fn works_with_two_points() {
        let x = Matrix::from_vec(2, 1, vec![0.0, 1.0]).unwrap();
        let y = [0.0, 1.0];
        let fitted = fit_gp_hyperparams(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions::default(),
        )
        .unwrap();
        assert_eq!(fitted.gp.num_observations(), 2);
    }

    #[test]
    fn ladder_reports_zero_rungs_on_clean_data() {
        let (x, y) = sine_data(12);
        let laddered = fit_gp_hyperparams_laddered(
            Matern52::new(1.0).into_kernel(),
            &x,
            &y,
            FitOptions::default(),
            2,
        )
        .unwrap();
        assert_eq!(laddered.rungs, 0);
        assert!(laddered.fitted.noise_variance >= 1e-6);
    }

    #[test]
    fn non_finite_noise_floor_fails_every_rung() {
        let (x, y) = sine_data(8);
        let options = FitOptions {
            min_noise_variance: f64::NAN,
            ..FitOptions::default()
        };
        let direct = fit_gp_hyperparams(Matern52::new(1.0).into_kernel(), &x, &y, options);
        assert!(matches!(
            direct,
            Err(Error::InvalidHyperParameter {
                name: "min_noise_variance",
                ..
            })
        ));
        let laddered =
            fit_gp_hyperparams_laddered(Matern52::new(1.0).into_kernel(), &x, &y, options, 2);
        assert!(laddered.is_err());
    }

    #[test]
    fn deterministic_for_same_data() {
        let (x, y) = sine_data(12);
        let k = Matern52::new(1.0).into_kernel();
        let a = fit_gp_hyperparams(k.clone(), &x, &y, FitOptions::default()).unwrap();
        let b = fit_gp_hyperparams(k, &x, &y, FitOptions::default()).unwrap();
        assert_eq!(a.length_scale, b.length_scale);
        assert_eq!(a.noise_variance, b.noise_variance);
    }

    #[test]
    fn warm_start_runs_one_restart_from_the_start() {
        let (x, y) = sine_data(12);
        let kernel = Matern52::new(1.0).into_kernel();
        let options = FitOptions {
            restarts: 2,
            max_evals_per_restart: 80,
            min_noise_variance: 1e-6,
        };
        let start = [0.4, -0.8, -5.0];
        let warm =
            fit_gp_hyperparams_laddered_from(kernel.clone(), &x, &y, options, 2, Some(start))
                .unwrap();
        // The expected search: one restart from `start` under the same cap.
        let table = FitTable::new(&x, &y);
        let y_centered = table.y_centered.as_deref().unwrap();
        let mut ws = TrialWorkspace::new(&table);
        let floor = options.min_noise_variance;
        let one = nelder_mead(
            |p: &[f64]| table.objective(&mut ws, &*kernel, y_centered, floor, p),
            &start,
            NelderMeadOptions {
                max_evals: options.max_evals_per_restart,
                ..Default::default()
            },
        );
        assert!(one.f.is_finite());
        let f = &warm.fitted;
        assert_eq!(warm.rungs, 0);
        assert_eq!(
            [f.length_scale, f.signal_variance, f.noise_variance].map(f64::to_bits),
            [one.x[0].exp(), one.x[1].exp(), one.x[2].exp().max(floor)].map(f64::to_bits)
        );
        assert_eq!((-f.gp.log_marginal_likelihood()).to_bits(), one.f.to_bits());
    }

    #[test]
    fn every_trial_scores_like_a_regressor_refit() {
        // Rows in 3 dimensions, the last a near-duplicate of the first, so
        // large signal-to-noise trials fail to factor; targets of mixed
        // magnitude, so the order of their sum shows.
        let n = 9;
        let mut rows: Vec<f64> = (0..(n - 1) * 3).map(|k| (k as f64 * 0.37).sin()).collect();
        rows.extend([rows[0] + 1e-9, rows[1], rows[2]]);
        let x = Matrix::from_vec(n, 3, rows).unwrap();
        let y: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.8).cos() * 10f64.powi(i as i32 % 4))
            .collect();
        let table = FitTable::new(&x, &y);
        let y_centered = table.y_centered.as_deref().unwrap();
        let floor = 1e-6;
        let base = Matern52::new(1.0).into_kernel();
        // One workspace for every trial, as in a fit: failed trials leave
        // partial factors behind that later trials must not read.
        let mut ws = TrialWorkspace::new(&table);
        let mut failed = 0;
        // ln ℓ = −800 and ln σ_f² = −800 underflow to zero. At
        // ln σ_f² = ln σ_n² = 709.5 both variances are finite but the
        // covariance diagonal overflows to +∞: the trial's finiteness check
        // must fail it like the regressor's.
        for log_l in [-800.0f64, -6.9, -1.6, 0.0, 3.4] {
            for log_sv in [-800.0f64, -6.9, 0.0, 41.4, 709.5] {
                for log_nv in [-20.7f64, -6.9, -0.7, 709.5] {
                    let p = [log_l, log_sv, log_nv];
                    // The per-trial objective as it was before the distance
                    // table: refit a whole regressor.
                    let (l, sv, nv) = (p[0].exp(), p[1].exp(), p[2].exp().max(floor));
                    let expected = if l.is_finite() && sv.is_finite() && nv.is_finite() {
                        let kernel = base.with_length_scale(l);
                        match GpRegressor::fit(kernel, sv, nv, &x, &y) {
                            Ok(gp) => -gp.log_marginal_likelihood(),
                            Err(_) => f64::INFINITY,
                        }
                    } else {
                        f64::INFINITY
                    };
                    failed += usize::from(expected == f64::INFINITY);
                    let got = table.objective(&mut ws, &*base, y_centered, floor, &p);
                    assert_eq!(got.to_bits(), expected.to_bits(), "at {p:?}");
                }
            }
        }
        assert!(failed > 0, "some trials must fail");
        // The regressor's error at the overflowing diagonal is the
        // finiteness check's, not a failed pivot.
        let huge = 709.5f64.exp();
        assert!(matches!(
            GpRegressor::fit(base, huge, huge, &x, &y),
            Err(Error::Numerical(hyperpower_linalg::Error::NonFiniteInput))
        ));
    }
}
