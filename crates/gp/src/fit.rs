//! The GP hyper-parameter fit: Nelder–Mead over the profiled log marginal
//! likelihood, one covariance factorization per trial that needs no
//! jitter.
//!
//! For a length scale ℓ and a noise ratio `r = σ_n²/σ_f²` the covariance
//! is `σ_f²·(C_ℓ + r·I)`, and the likelihood's optimum over the signal
//! variance σ_f² has a closed form from one factor of `C_ℓ + r·I`. So the
//! search runs over `p = (ln ℓ, ln r)` alone, and every trial sets σ_f² to
//! that optimum ([`FitTable::profiled`]). Where `C_ℓ + r·I` does not
//! factor without jitter, the factorization's jitter, which is absolute,
//! has to act at the data's scale, as it does on a regressor's covariance:
//! the trial then factors `C_ℓ + r·I` times the heuristic seed's signal
//! variance, and scores the regressor at its hyper-parameters with one
//! more factorization.
//!
//! A fit computes what every trial shares once ([`FitTable`]): its rows'
//! pairwise distances in the factor's row order and the centred targets.
//! Each trial fills the upper triangle of one reused covariance a row at a
//! time through the kernel's row hook, factors it and solves for α in one
//! reused workspace ([`TrialWorkspace`]), through the function
//! [`GpRegressor::fit`] scores with. The search keeps its best trial, and
//! the fit's result is one more trial there in the three-parameter form
//! `(ℓ, σ_f², r·σ_f²)`: its regressor keeps that trial's factor, α and
//! likelihood, so it is [`GpRegressor::fit`]'s at the chosen
//! hyper-parameters, bit for bit. [`GpRegressor::fit`] itself runs only to
//! report a typed error or on the fallback to the heuristic start.
//!
//! A cold fit runs `restarts` Nelder–Mead restarts from the heuristic seed
//! and offsets from it. A warm fit runs two: one from the previous
//! optimum and one from the heuristic seed. The second is needed because
//! the profiled likelihood is flat on the white-noise plateaus `ℓ → 0` and
//! `r → ∞`, where a lone warm restart that lands there stays.

use std::sync::Arc;

use hyperpower_linalg::{vector, Cholesky, Matrix};

use crate::optimize::{nelder_mead, NelderMeadOptions};
use crate::regressor::{factor_covariance, Evidence, JITTER_TRIES};
use crate::{Error, GpRegressor, Kernel, Result};

/// Options for [`fit_gp_hyperparams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Number of Nelder–Mead restarts of a cold search, from different
    /// initial points. A warm-started fit (see
    /// [`fit_gp_hyperparams_laddered_from`]) runs two instead: one from
    /// its start and one from the cold search's first point.
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
/// variance, a hundredth of it for the noise) plus perturbed restarts, so
/// it is deterministic for a given dataset.
/// [`fit_gp_hyperparams_laddered_from`] can instead start the search at a
/// previous fit's optimum.
///
/// The search runs over the length scale ℓ and the noise ratio
/// `r = σ_n²/σ_f²`. Each trial fills `C_ℓ + r·I` from a per-fit table of
/// pairwise distances, a row at a time through
/// [`Kernel::eval_distances`], factors it into one workspace the fit
/// allocates once, and sets the signal variance to the likelihood's
/// optimum at (ℓ, r) in closed form, under the noise floor
/// `σ_n² ≥ min_noise_variance`. Where `C_ℓ + r·I` needs jitter to factor,
/// the trial factors it at the data's scale instead, and its likelihood is
/// that of the regressor at its (ℓ, σ_f², σ_n²), bit for bit; elsewhere it
/// is the same likelihood in exact arithmetic. The returned regressor is
/// that of one more trial at the best (ℓ, σ_f², σ_n²), whose every
/// covariance entry, factorization and likelihood take the floating-point
/// steps of [`GpRegressor::fit`]: it is [`GpRegressor::fit`]'s at the
/// chosen hyper-parameters, bit for bit.
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

/// Three-parameter hyper-parameters: those of the fit's result, or of a
/// refit on the typed-error and fallback paths.
#[derive(Clone, Copy)]
struct Hyper {
    length_scale: f64,
    signal_variance: f64,
    noise_variance: f64,
}

impl Hyper {
    /// The hyper-parameters at the log-space point
    /// `p = [ln ℓ, ln σ_f², ln σ_n²]`, the noise variance floored at
    /// `floor`. [`GpRegressor::fit`] checks them.
    fn at(p: [f64; 3], floor: f64) -> Self {
        Hyper {
            length_scale: p[0].exp(),
            signal_variance: p[1].exp(),
            noise_variance: p[2].exp().max(floor),
        }
    }
}

/// One trial of the profiled search.
#[derive(Clone, Copy)]
struct Trial {
    /// The trial's ℓ, its σ̂² and `σ_n² = r·σ̂²`, floored at the noise
    /// floor against rounding (σ̂² ≥ floor/r).
    hyper: Hyper,
    /// The negative log marginal likelihood at `hyper`.
    nll: f64,
}

/// A log-space point `[ln ℓ, ln σ_f², ln σ_n²]` in the profiled search's
/// coordinates `(ln ℓ, ln r)`, with `ln r = ln σ_n² − ln σ_f²`.
fn profile(p: [f64; 3]) -> [f64; 2] {
    [p[0], p[2] - p[1]]
}

/// The buffers every trial of one fit reuses, so a trial allocates
/// nothing: the covariance, the factor `Lᵀ` and α. A trial writes only
/// the covariance's upper triangle, a row at a time, which is all the
/// factorization reads; the lower triangle stays zero and passes the
/// factorization's finiteness check.
struct TrialWorkspace {
    cov: Matrix,
    factor: Cholesky,
    alpha: Vec<f64>,
}

impl TrialWorkspace {
    fn new(table: &FitTable<'_>) -> Self {
        let n = table.x.rows();
        TrialWorkspace {
            cov: Matrix::zeros(n, n),
            factor: Cholesky::default(),
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

    /// The median of the pairwise distances: the element a full sort
    /// would put at the middle, found without sorting.
    fn median_pairwise_distance(&self) -> f64 {
        let n = self.x.rows();
        if n < 2 {
            return 1.0;
        }
        let mut dists = Vec::with_capacity(n * (n - 1) / 2);
        for row in self.upper_rows() {
            dists.extend_from_slice(&row[1..]);
        }
        let mid = dists.len() / 2;
        *dists.select_nth_unstable_by(mid, f64::total_cmp).1
    }

    /// The heuristic seed's signal variance: the target variance, at
    /// least `1e-6`.
    fn seed_signal_variance(&self) -> f64 {
        variance(self.y).max(1e-6)
    }

    /// The heuristic seed, `[ln ℓ, ln σ_f², ln σ_n²]`: the logs of the
    /// median pairwise distance (at least `1e-3`), of
    /// [`Self::seed_signal_variance`] and of a hundredth of it (at least
    /// the noise floor).
    fn heuristic_start(&self, min_noise_variance: f64) -> [f64; 3] {
        let median_dist = self.median_pairwise_distance().max(1e-3);
        let y_var = self.seed_signal_variance();
        [
            median_dist.ln(),
            y_var.ln(),
            (0.01 * y_var).max(min_noise_variance).ln(),
        ]
    }

    /// Writes `s·K + σ²·I` into the upper triangle of `cov`, where `K` is
    /// `kernel`'s matrix over the table's rows, `s` is `signal_variance`
    /// and σ² is `noise_variance`. Row j is the kernel at row j of the
    /// distance table, through [`Kernel::eval_distances`], times `s`: each
    /// entry is the one `kernel.matrix(x).scale(s)` holds at (j, i) and,
    /// mirrored, at (i, j). Then the diagonal gets the noise.
    fn fill(
        &self,
        cov: &mut Matrix,
        kernel: &dyn Kernel,
        signal_variance: f64,
        noise_variance: f64,
    ) {
        for (j, r) in self.upper_rows().enumerate() {
            let row = &mut cov.row_mut(j)[j..];
            kernel.eval_distances(r, row);
            for k in row.iter_mut() {
                *k *= signal_variance;
            }
        }
        cov.add_diagonal(noise_variance);
    }

    /// Fills the covariance at `hyper`, factors it with up to
    /// `jitter_tries` jitter retries and solves it against the centred
    /// targets through [`factor_covariance`]: with [`JITTER_TRIES`], as
    /// [`GpRegressor::fit`] does at `hyper`. `kernel` is the base kernel at
    /// `hyper`'s length scale. `None` if the covariance does not factor.
    fn factor_at(
        &self,
        ws: &mut TrialWorkspace,
        kernel: &dyn Kernel,
        y_centered: &[f64],
        hyper: Hyper,
        jitter_tries: usize,
    ) -> Option<Evidence> {
        self.fill(
            &mut ws.cov,
            kernel,
            hyper.signal_variance,
            hyper.noise_variance,
        );
        let (factor, alpha) = (&mut ws.factor, &mut ws.alpha);
        factor_covariance(&ws.cov, y_centered, jitter_tries, factor, alpha).ok()
    }

    /// The profiled trial at `p = (ln ℓ, ln r)`, or `None` where it fails:
    /// a non-finite ℓ or r, a zero r, a covariance that does not factor,
    /// or a non-finite likelihood.
    ///
    /// It fills `C_ℓ + r·I`, factors it without jitter and solves it
    /// against the centred targets through [`factor_covariance`]. With
    /// `q = ỹᵀ(C_ℓ + r·I)⁻¹ỹ`, the negative log likelihood at signal
    /// variance σ_f² is
    /// `q/(2σ_f²) + (n/2)·ln σ_f² + ½·ln|C_ℓ + r·I| + (n/2)·ln 2π`. It is
    /// convex in ln σ_f², with its minimum at `q/n`, so under the noise
    /// floor `σ_n² = r·σ_f² ≥ min_noise_variance` its minimum is at
    /// `σ̂² = max(q/n, min_noise_variance/r)`, exactly.
    ///
    /// Where `C_ℓ + r·I` needs jitter, the jitter must act at the data's
    /// scale, where the regressor's own factorization adds it: the trial
    /// factors `s₀·(C_ℓ + r·I)` with jitter instead, `s₀` being the heuristic
    /// seed's signal variance `seed_variance`, takes σ̂² from that factor
    /// (there q is `s₀` times its `ỹᵀA⁻¹ỹ`), and scores the regressor at
    /// `(ℓ, σ̂², r·σ̂²)`: its likelihood, jitter and all, bit for bit.
    fn profiled(
        &self,
        ws: &mut TrialWorkspace,
        base_kernel: &dyn Kernel,
        y_centered: &[f64],
        seed_variance: f64,
        min_noise_variance: f64,
        p: &[f64],
    ) -> Option<Trial> {
        let (length_scale, ratio) = (p[0].exp(), p[1].exp());
        if !(length_scale.is_finite() && ratio.is_finite() && ratio > 0.0) {
            return None;
        }
        let kernel = base_kernel.with_length_scale(length_scale);
        let n = y_centered.len();
        // The hyper-parameters of σ̂² for a given q.
        let profile = |quad: f64| {
            let signal_variance = (quad / n as f64).max(min_noise_variance / ratio);
            Hyper {
                length_scale,
                signal_variance,
                noise_variance: (ratio * signal_variance).max(min_noise_variance),
            }
        };
        let unit = Hyper {
            length_scale,
            signal_variance: 1.0,
            noise_variance: ratio,
        };
        let unjittered = self.factor_at(ws, &*kernel, y_centered, unit, 0);
        let (hyper, nll) = match unjittered {
            Some(evidence) => {
                let hyper = profile(evidence.quad);
                let signal_variance = hyper.signal_variance;
                let nll = evidence.quad / (2.0 * signal_variance)
                    + 0.5 * n as f64 * signal_variance.ln()
                    + 0.5 * evidence.log_det
                    + Evidence::half_n_ln_2pi(n);
                (hyper, nll)
            }
            None => {
                let scaled = Hyper {
                    length_scale,
                    signal_variance: seed_variance,
                    noise_variance: seed_variance * ratio,
                };
                let evidence = self.factor_at(ws, &*kernel, y_centered, scaled, JITTER_TRIES)?;
                let hyper = profile(seed_variance * evidence.quad);
                let regressor = self.factor_at(ws, &*kernel, y_centered, hyper, JITTER_TRIES)?;
                (hyper, -regressor.log_marginal_likelihood(n))
            }
        };
        nll.is_finite().then_some(Trial { hyper, nll })
    }

    /// The fitted GP at `hyper`: one more trial there, in the
    /// three-parameter form, whose factor, α and likelihood the regressor
    /// keeps. That is [`GpRegressor::fit`]'s regressor at the same
    /// hyper-parameters, bit for bit. `None` if the trial fails.
    fn fitted(
        &self,
        ws: &mut TrialWorkspace,
        base_kernel: &dyn Kernel,
        y_centered: &[f64],
        hyper: Hyper,
    ) -> Option<FittedGp> {
        let kernel = base_kernel.with_length_scale(hyper.length_scale);
        let evidence = self.factor_at(ws, &*kernel, y_centered, hyper, JITTER_TRIES)?;
        let gp = GpRegressor::from_factor(
            kernel,
            hyper.signal_variance,
            hyper.noise_variance,
            self.x.clone(),
            self.y_mean,
            ws.alpha.clone(),
            ws.factor.clone(),
            evidence.log_marginal_likelihood(y_centered.len()),
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
/// from it and one from the heuristic seed; without one, it is the cold
/// search. The best trial wins: the lowest negative log likelihood, and
/// the earliest trial on ties, so a warm fit's own restart wins ties.
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
    let refit = |hyper: Hyper| -> Result<FittedGp> {
        let gp = GpRegressor::fit(
            base_kernel.with_length_scale(hyper.length_scale),
            hyper.signal_variance,
            hyper.noise_variance,
            table.x,
            table.y,
        )?;
        Ok(FittedGp {
            gp,
            length_scale: hyper.length_scale,
            signal_variance: hyper.signal_variance,
            noise_variance: hyper.noise_variance,
        })
    };
    let init = table.heuristic_start(floor);
    // Data no trial can fit makes every trial fail, so the search would
    // find nothing: refit at the heuristic seed for the typed error.
    let Some(y_centered) = table.y_centered.as_deref() else {
        return refit(Hyper::at(init, floor));
    };

    let search = NelderMeadOptions {
        max_evals: options.max_evals_per_restart,
        ..Default::default()
    };
    let seed_variance = table.seed_signal_variance();
    let warm = start.map(profile);
    let restarts = if warm.is_some() { 1 } else { options.restarts };
    let seeds = cold_starts(profile(init), restarts);
    let mut best: Option<Trial> = None;
    for from in warm.into_iter().chain(seeds) {
        let objective = |p: &[f64]| match table.profiled(
            ws,
            &**base_kernel,
            y_centered,
            seed_variance,
            floor,
            p,
        ) {
            Some(trial) => {
                if best.is_none_or(|b| trial.nll < b.nll) {
                    best = Some(trial);
                }
                trial.nll
            }
            None => f64::INFINITY,
        };
        nelder_mead(objective, &from, search);
    }
    // Every restart diverged: fall back to the heuristic seed.
    let Some(best) = best else {
        return refit(Hyper::at(init, floor));
    };
    match table.fitted(ws, &**base_kernel, y_centered, best.hyper) {
        Some(fitted) => Ok(fitted),
        None => refit(best.hyper),
    }
}

/// The cold search's restart points in `(ln ℓ, ln r)`, at least one:
/// restart 0 is the heuristic seed `init`, later restarts are
/// deterministic offsets from it in alternating directions.
fn cold_starts(init: [f64; 2], restarts: usize) -> impl Iterator<Item = [f64; 2]> {
    (0..restarts.max(1)).map(move |restart| {
        let offset = match restart {
            0 => [0.0, 0.0],
            1 => [1.0, 1.0],
            2 => [-1.0, -1.0],
            r => {
                let s = r as f64;
                [s * 0.7, s * 1.2]
            }
        };
        [init[0] + offset[0], init[1] + offset[1]]
    })
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
/// `r = 0..=max_rungs`. A larger noise floor puts more noise on the
/// covariance's diagonal: in the heuristic seed, where each rung's search
/// starts, and in every regressor the fit scores or returns, whose noise
/// variance is at least the floor. That rescues Cholesky factorizations
/// that fail on near-duplicate inputs at the cost of a less confident
/// surrogate. The
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
/// With a start, each rung runs two Nelder–Mead restarts under the same
/// `max_evals_per_restart`: one from the start, which enters the search
/// as `(ln ℓ, ln σ_n² − ln σ_f²)`, and one from the heuristic seed, the
/// cold search's first. The better one wins, and the start's on ties. The
/// second restart frees a start that sits on a white-noise plateau
/// (`ℓ → 0` or `r → ∞`), where the profiled likelihood is flat. Without a
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
    use crate::optimize::NelderMeadResult;
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

    /// Checks the fit that `start` warm-starts on `(x, y)` against the
    /// search it must run: a restart from the start and one from the
    /// heuristic seed under the same cap, the lower negative log likelihood
    /// winning and the start's on ties, then one trial at the winner for
    /// σ̂². Returns both restarts' results, the start's first.
    fn check_warm_fit(
        x: &Matrix,
        y: &[f64],
        start: [f64; 3],
    ) -> (NelderMeadResult, NelderMeadResult) {
        let kernel = Matern52::new(1.0).into_kernel();
        let options = FitOptions {
            restarts: 2,
            max_evals_per_restart: 30,
            min_noise_variance: 1e-6,
        };
        let floor = options.min_noise_variance;
        let warm = fit_gp_hyperparams_laddered_from(kernel.clone(), x, y, options, 2, Some(start))
            .unwrap();
        let table = FitTable::new(x, y);
        let y_centered = table.y_centered.as_deref().unwrap();
        let s0 = table.seed_signal_variance();
        let mut ws = TrialWorkspace::new(&table);
        let mut restart = |from: [f64; 2]| {
            nelder_mead(
                |p: &[f64]| {
                    table
                        .profiled(&mut ws, &*kernel, y_centered, s0, floor, p)
                        .map_or(f64::INFINITY, |trial| trial.nll)
                },
                &from,
                NelderMeadOptions {
                    max_evals: options.max_evals_per_restart,
                    ..Default::default()
                },
            )
        };
        let own = restart([start[0], start[2] - start[1]]);
        let seed = restart(profile(table.heuristic_start(floor)));
        let best = if seed.f < own.f { &seed } else { &own };
        let trial = table
            .profiled(&mut ws, &*kernel, y_centered, s0, floor, &best.x)
            .unwrap();
        assert_eq!(trial.nll.to_bits(), best.f.to_bits());
        let f = &warm.fitted;
        assert_eq!(warm.rungs, 0);
        let signal_variance = trial.hyper.signal_variance;
        assert_eq!(
            [f.length_scale, f.signal_variance, f.noise_variance].map(f64::to_bits),
            [
                best.x[0].exp(),
                signal_variance,
                (best.x[1].exp() * signal_variance).max(floor)
            ]
            .map(f64::to_bits)
        );
        let nll = -f.gp.log_marginal_likelihood();
        assert!(
            (nll - best.f).abs() <= 1e-9 * (1.0 + best.f.abs()),
            "{nll} vs {}",
            best.f
        );
        (own, seed)
    }

    #[test]
    fn a_warm_fit_is_the_better_of_its_two_restarts() {
        let (x, y) = sine_data(12);
        let (own, _) = check_warm_fit(&x, &y, [0.4, -0.8, -5.0]);
        assert!(own.f.is_finite());

        // A start on the white-noise plateau: at ℓ = 1e-3 every kernel
        // entry off the diagonal underflows to zero, so the likelihood is
        // flat there and the start's restart stops at once. The heuristic
        // seed's restart finds the smooth fit.
        let (own, seed) = check_warm_fit(&x, &y, [1e-3f64.ln(), 0.0, 0.0]);
        assert!(own.evals < 10, "{} evaluations on the plateau", own.evals);
        assert!(seed.f < own.f - 1.0, "{} vs {}", seed.f, own.f);

        // One row: the covariance is 1 at every length scale, so two
        // restarts that share ln r walk the same path in it and tie to
        // the bit at different length scales. The heuristic seed is
        // (ln 1, ln 0.01 − ln 1); the start shares its ln r.
        let x = Matrix::from_vec(1, 1, vec![0.5]).unwrap();
        let (own, seed) = check_warm_fit(&x, &[0.3], [2.0, 0.0, 0.01f64.ln()]);
        assert_eq!(own.f.to_bits(), seed.f.to_bits());
        assert_ne!(own.x[0].to_bits(), seed.x[0].to_bits());
    }

    #[test]
    fn every_trial_scores_like_a_regressor_refit() {
        // Rows in 3 dimensions, the last a near-duplicate of the first, and
        // targets of mixed magnitude. A noise floor of 1e-2 binds wherever
        // r·q/n is below it, and then changes the likelihood a lot. Beside
        // the near-duplicate pair, `C_ℓ + r·I` is singular to working
        // precision at r ≤ e^-39: there it factors only with jitter at the
        // longer length scales, or not even then.
        let n = 10;
        let mut rows: Vec<f64> = (0..(n - 1) * 3).map(|k| (k as f64 * 0.37).sin()).collect();
        rows.extend([rows[0] + 1e-9, rows[1], rows[2]]);
        let x = Matrix::from_vec(n, 3, rows).unwrap();
        let y: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.8).cos() * 10f64.powi(i as i32 % 3))
            .collect();
        let table = FitTable::new(&x, &y);
        let y_centered = table.y_centered.as_deref().unwrap();
        let s0 = table.seed_signal_variance();
        let floor = 1e-2;
        let base = Matern52::new(1.0).into_kernel();
        // One workspace for every trial, as in a fit: failed trials leave
        // partial factors behind that later trials must not read.
        let mut ws = TrialWorkspace::new(&table);
        let nll_at = |hyper: &Hyper| {
            let kernel = base.with_length_scale(hyper.length_scale);
            let gp = GpRegressor::fit(kernel, hyper.signal_variance, hyper.noise_variance, &x, &y);
            -gp.unwrap().log_marginal_likelihood()
        };
        let (mut floored, mut interior, mut jittered, mut failed) = (0, 0, 0, 0);
        let mut singular_gap = 0f64;
        for log_l in [-1.6f64, -0.5, 0.0, 1.0] {
            for log_r in [-46.0f64, -39.0, -13.8, -6.9, -2.3, 0.0, 2.3] {
                let p = [log_l, log_r];
                let trial = table.profiled(&mut ws, &*base, y_centered, s0, floor, &p);
                // Whether C_ℓ + r·I needs jitter to factor.
                let kernel = base.with_length_scale(log_l.exp());
                let unit = Hyper {
                    length_scale: log_l.exp(),
                    signal_variance: 1.0,
                    noise_variance: log_r.exp(),
                };
                let jitter = table
                    .factor_at(&mut ws, &*kernel, y_centered, unit, 0)
                    .is_none();
                let Some(trial) = trial else {
                    // The regressor at the σ̂² of s₀·(C_ℓ + r·I), factored
                    // with jitter, does not factor.
                    assert!(jitter, "trial at {p:?} failed");
                    failed += 1;
                    continue;
                };
                let hyper = trial.hyper;
                let refit = nll_at(&hyper);
                if jitter {
                    // The trial scored the regressor's covariance.
                    jittered += 1;
                    assert_eq!(trial.nll.to_bits(), refit.to_bits(), "at {p:?}");
                    continue;
                }
                if log_r < -30.0 {
                    // Singular to working precision but factored without
                    // jitter: both likelihoods are mostly rounding.
                    singular_gap = singular_gap.max((trial.nll - refit).abs());
                    continue;
                }
                // The profiled likelihood is the refitted regressor's.
                let tol = 1e-9 * (1.0 + refit.abs());
                assert!(
                    (trial.nll - refit).abs() <= tol,
                    "at {p:?}: {} vs {refit}",
                    trial.nll
                );
                if hyper.signal_variance == floor / log_r.exp() {
                    floored += 1;
                    continue;
                }
                interior += 1;
                // Off the floor, σ̂² minimises the likelihood at (ℓ, r).
                for step in [-0.05f64, 0.05] {
                    let scaled = Hyper {
                        signal_variance: hyper.signal_variance * step.exp(),
                        noise_variance: hyper.noise_variance * step.exp(),
                        ..hyper
                    };
                    assert!(nll_at(&scaled) > trial.nll, "σ̂² is not optimal at {p:?}");
                }
            }
        }
        eprintln!(
            "{floored} floored, {interior} interior, {jittered} jittered, {failed} failed, \
             singular gap {singular_gap:e}"
        );
        assert!(
            floored > 0 && interior > 0 && jittered > 0 && failed > 0,
            "{floored} floored, {interior} interior, {jittered} jittered, {failed} failed"
        );
        assert!(
            singular_gap < 0.5,
            "{singular_gap} nats where C_ℓ + r·I is singular"
        );
        // Where ℓ underflows to zero, the kernel is NaN at distance zero, so
        // the trial fails like the regressor's refit; where r is zero or
        // infinite, no σ̂² exists.
        for p in [[-800.0, 0.0], [0.0, -800.0], [0.0, 800.0]] {
            assert!(
                table
                    .profiled(&mut ws, &*base, y_centered, s0, floor, &p)
                    .is_none(),
                "at {p:?}"
            );
        }
        assert!(matches!(
            GpRegressor::fit(base.with_length_scale(0.0), 1.0, floor, &x, &y),
            Err(Error::Numerical(hyperpower_linalg::Error::NonFiniteInput))
        ));
    }
}
