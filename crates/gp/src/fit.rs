use std::sync::Arc;

use hyperpower_linalg::{vector, CholeskyWorkspace, Matrix};

use crate::kernel::fill_row;
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
/// The rows' pairwise squared distances are computed once per fit. Each
/// trial fills its covariance's lower triangle a row at a time: kernels
/// with a distance form ([`Matern52`] and [`SquaredExponential`]) evaluate
/// a row of that table in one [`Kernel::eval_squared_distances`] call;
/// other kernels, such as [`Matern52Ard`], evaluate the rows with
/// [`Kernel::eval`]. The row is then scaled by the signal variance. Either
/// way every covariance entry, the factorization and the likelihood take
/// the floating-point steps of [`GpRegressor::fit`], so the result is
/// bit-identical to refitting the regressor at every trial. Every trial
/// writes its covariance, factor and solve into one workspace the fit
/// allocates once.
///
/// [`Matern52`]: crate::Matern52
/// [`SquaredExponential`]: crate::SquaredExponential
/// [`Matern52Ard`]: crate::Matern52Ard
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
    /// `‖xᵢ − xⱼ‖²` for `j ≤ i`, row by row: the lower triangle
    /// [`Kernel::matrix`] evaluates, in its order.
    d2: Vec<f64>,
    /// `y − ȳ`, or `None` when no hyper-parameters can fit the data (no
    /// rows, a target count that differs from the row count, or a
    /// non-finite target): [`GpRegressor::fit`] rejects such data in every
    /// trial.
    y_centered: Option<Vec<f64>>,
}

/// The buffers every trial of one fit reuses, so a trial allocates
/// nothing: the covariance, the factor `Lᵀ` and α. A trial writes only
/// the covariance's lower triangle, which is all the factorization reads;
/// the upper triangle stays zero and passes the factorization's finiteness
/// check.
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
        let mut d2 = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            for j in 0..=i {
                d2.push(vector::squared_distance(x.row(i), x.row(j)));
            }
        }
        let fits = n > 0 && y.len() == n && y.iter().all(|v| v.is_finite());
        let y_centered = fits.then(|| {
            let y_mean = y.iter().sum::<f64>() / n as f64;
            y.iter().map(|v| v - y_mean).collect()
        });
        FitTable {
            x,
            y,
            d2,
            y_centered,
        }
    }

    /// The squared distances from row `i` to rows `0..=i`.
    fn lower_row(&self, i: usize) -> &[f64] {
        &self.d2[i * (i + 1) / 2..][..=i]
    }

    fn median_pairwise_distance(&self) -> f64 {
        let n = self.x.rows();
        if n < 2 {
            return 1.0;
        }
        let mut dists = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            dists.extend(self.lower_row(i)[..i].iter().map(|d2| d2.sqrt()));
        }
        dists.sort_by(f64::total_cmp);
        dists[dists.len() / 2]
    }

    /// The search's objective at log-space hyper-parameters `p`: the
    /// negative log marginal likelihood, or `+∞` wherever
    /// [`GpRegressor::fit`] would fail. Each row of the covariance's lower
    /// triangle is the kernel at the row's tabled distances, through
    /// [`Kernel::eval_squared_distances`] (at the rows, for a kernel
    /// without a distance form), then times the signal variance, exactly
    /// as `kernel.matrix(x).scale(signal_variance)` computes it.
    fn objective(
        &self,
        ws: &mut TrialWorkspace,
        base_kernel: &dyn Kernel,
        y_centered: &[f64],
        min_noise_variance: f64,
        p: &[f64],
    ) -> f64 {
        let length_scale = p[0].exp();
        let signal_variance = p[1].exp();
        let noise_variance = p[2].exp().max(min_noise_variance);
        // `GpRegressor::fit` also rejects a signal variance that underflowed
        // to zero; the noise floor keeps the noise variance positive.
        if !(length_scale.is_finite()
            && signal_variance.is_finite()
            && signal_variance > 0.0
            && noise_variance.is_finite())
        {
            return f64::INFINITY;
        }
        let kernel = base_kernel.with_length_scale(length_scale);
        let cov = &mut ws.cov;
        for i in 0..self.x.rows() {
            let row = &mut cov.row_mut(i)[..=i];
            fill_row(&*kernel, self.lower_row(i), row, |j| {
                kernel.eval(self.x.row(i), self.x.row(j))
            });
            for k in row.iter_mut() {
                *k *= signal_variance;
            }
        }
        cov.add_diagonal(noise_variance);
        match factor_covariance(cov, y_centered, &mut ws.factor, &mut ws.alpha) {
            Ok((_, log_marginal_likelihood)) => -log_marginal_likelihood,
            Err(_) => f64::INFINITY,
        }
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
    // Data-driven initial guesses.
    let median_dist = table.median_pairwise_distance().max(1e-3);
    let y_var = variance(table.y).max(1e-6);
    let init = [
        median_dist.ln(),
        y_var.ln(),
        (0.01 * y_var).max(options.min_noise_variance).ln(),
    ];
    let refit = |params: &[f64]| -> Result<FittedGp> {
        let length_scale = params[0].exp();
        let signal_variance = params[1].exp();
        let noise_variance = params[2].exp().max(options.min_noise_variance);
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
        return refit(&init);
    };

    let floor = options.min_noise_variance;
    let mut objective = |p: &[f64]| table.objective(ws, &**base_kernel, y_centered, floor, p);
    let search = NelderMeadOptions {
        max_evals: options.max_evals_per_restart,
        ..Default::default()
    };
    let best = start
        .and_then(|start| best_restart(&mut objective, [start], search))
        .or_else(|| best_restart(&mut objective, cold_starts(init, options.restarts), search));
    // If every cold restart diverged too, fall back to the heuristic seed.
    refit(best.as_deref().unwrap_or(&init))
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
        let kernels = [
            Matern52::new(1.0).into_kernel(),
            crate::SquaredExponential::new(1.0).into_kernel(),
            crate::Matern52Ard::try_new(vec![0.5, 1.0, 2.0])
                .unwrap()
                .into_kernel(),
        ];
        // One workspace for every trial, as in a fit: failed trials leave
        // partial factors behind that later trials must not read.
        let mut ws = TrialWorkspace::new(&table);
        let mut failed = 0;
        for base in &kernels {
            // ln ℓ = −800 and ln σ_f² = −800 underflow to zero. At
            // ln σ_f² = ln σ_n² = 709.5 both variances are finite but the
            // covariance diagonal overflows to +∞: the trial's finiteness
            // check must fail it like the regressor's.
            for log_l in [-800.0f64, -6.9, -1.6, 0.0, 3.4] {
                for log_sv in [-800.0f64, -6.9, 0.0, 41.4, 709.5] {
                    for log_nv in [-20.7f64, -6.9, -0.7, 709.5] {
                        let p = [log_l, log_sv, log_nv];
                        // The per-trial objective as it was before the
                        // distance table: refit a whole regressor.
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
                        let got = table.objective(&mut ws, &**base, y_centered, floor, &p);
                        assert_eq!(got.to_bits(), expected.to_bits(), "{base:?} at {p:?}");
                    }
                }
            }
        }
        assert!(failed > 0, "some trials must fail");
        // The regressor's error at the overflowing diagonal is the
        // finiteness check's, not a failed pivot.
        let huge = 709.5f64.exp();
        assert!(matches!(
            GpRegressor::fit(kernels[0].clone(), huge, huge, &x, &y),
            Err(Error::Numerical(hyperpower_linalg::Error::NonFiniteInput))
        ));
    }
}
