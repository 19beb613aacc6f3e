//! Exact GP regression: the fitted model and its posterior.
//!
//! [`GpRegressor::fit`] factors `σ_f²·K + σ_n²·I` through
//! [`factor_covariance`], the one function every hyper-parameter trial
//! scores with too, and a fit hands out its last trial's factor through
//! [`GpRegressor::from_factor`]. Posteriors build their
//! cross-covariances a training row at a time through the kernel's row
//! hook, and batched scoring solves a whole candidate block in the
//! storage of its cross-covariances.

use std::sync::Arc;

use hyperpower_linalg::{vector, Cholesky, CholeskyWorkspace, Matrix};

use crate::{Error, Kernel, Result};

/// Posterior prediction of a Gaussian process at one query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean of the latent function.
    pub mean: f64,
    /// Posterior variance of the latent function (noise-free), clamped to be
    /// non-negative.
    pub variance: f64,
}

impl Prediction {
    /// Posterior standard deviation (`variance.sqrt()`).
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Exact Gaussian-process regression with a fixed kernel.
///
/// The model is `y = f(x) + ε`, `f ~ GP(m, σ_f²·k)`, `ε ~ N(0, σ_n²)`, where
/// `m` is the empirical mean of the training targets (centering makes the
/// zero-mean assumption harmless). Fitting factors the kernel matrix once
/// with Cholesky (with jitter escalation for borderline matrices);
/// predictions are then O(n) mean / O(n²) variance per query.
///
/// This is the surrogate model `M` of the paper's Figure 2: at every
/// Bayesian-optimization iteration it supplies the predictive marginal
/// density `p_M(y|x)` that the acquisition function integrates against.
///
/// # Examples
///
/// ```
/// use hyperpower_gp::{GpRegressor, Matern52};
/// use hyperpower_linalg::Matrix;
///
/// # fn main() -> Result<(), hyperpower_gp::Error> {
/// let x = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]).unwrap();
/// let y = [0.0, 1.0, 4.0];
/// let gp = GpRegressor::fit(Matern52::new(1.0).into_kernel(), 1.0, 1e-6, &x, &y)?;
/// // Interpolates near the data, uncertain far away.
/// assert!(gp.predict(&[1.0])?.variance < gp.predict(&[10.0])?.variance);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GpRegressor {
    kernel: Arc<dyn Kernel>,
    signal_variance: f64,
    noise_variance: f64,
    x_train: Matrix,
    y_mean: f64,
    /// α = (σ_f²K + σ_n²I)⁻¹ (y − m)
    alpha: Vec<f64>,
    chol: Cholesky,
    log_marginal_likelihood: f64,
}

/// Factors the noisy covariance `cov` (with jitter escalation) into
/// `factor` and solves it against the centred targets into `alpha`,
/// returning the factor and the log marginal likelihood. Only the upper
/// triangle of `cov` is factored; every entry must be finite.
///
/// [`GpRegressor::fit`] and every trial of the hyper-parameter search
/// score their covariance through this one function, so a trial and the
/// regressor refitted at its hyper-parameters agree to the bit, and the
/// fit hands out the regressor of its trial at the optimum
/// ([`GpRegressor::from_factor`]). A search passes the same `factor` and
/// `alpha` to every trial, so trials allocate nothing once the first has
/// sized them.
pub(crate) fn factor_covariance<'w>(
    cov: &Matrix,
    y_centered: &[f64],
    factor: &'w mut CholeskyWorkspace,
    alpha: &mut Vec<f64>,
) -> Result<(&'w Cholesky, f64)> {
    let (chol, _jitter) = factor.factor_jittered(cov, 1e-10, 10)?;
    alpha.clear();
    alpha.extend_from_slice(y_centered);
    chol.solve_in_place(alpha)?;
    hyperpower_linalg::debug_assert_finite!("gp fit alpha", alpha);

    // log p(y|X) = -½ yᵀα − ½ log|K| − n/2 log 2π
    let log_marginal_likelihood = -0.5 * vector::dot(y_centered, alpha)
        - 0.5 * chol.log_det()
        - 0.5 * y_centered.len() as f64 * (2.0 * std::f64::consts::PI).ln();
    Ok((chol, log_marginal_likelihood))
}

impl GpRegressor {
    /// Fits a GP to `n` observations: `x_train` is n×d, `y_train` has
    /// length n.
    ///
    /// `signal_variance` scales the kernel; `noise_variance` is the
    /// observation-noise variance added to the diagonal.
    ///
    /// # Errors
    ///
    /// * [`Error::NoObservations`] if `x_train` has no rows.
    /// * [`Error::DimensionMismatch`] if `y_train.len() != x_train.rows()`.
    /// * [`Error::InvalidHyperParameter`] for non-positive/non-finite
    ///   variances.
    /// * [`Error::Numerical`] if the covariance matrix cannot be factored.
    pub fn fit(
        kernel: Arc<dyn Kernel>,
        signal_variance: f64,
        noise_variance: f64,
        x_train: &Matrix,
        y_train: &[f64],
    ) -> Result<Self> {
        if x_train.rows() == 0 {
            return Err(Error::NoObservations);
        }
        if y_train.len() != x_train.rows() {
            return Err(Error::DimensionMismatch {
                expected: format!("{} targets", x_train.rows()),
                found: format!("{} targets", y_train.len()),
            });
        }
        if !(signal_variance.is_finite() && signal_variance > 0.0) {
            return Err(Error::InvalidHyperParameter {
                name: "signal_variance",
                value: signal_variance,
            });
        }
        if !(noise_variance.is_finite() && noise_variance > 0.0) {
            return Err(Error::InvalidHyperParameter {
                name: "noise_variance",
                value: noise_variance,
            });
        }
        if y_train.iter().any(|v| !v.is_finite()) {
            // A NaN target would silently poison α and every posterior;
            // reject it here with the typed error instead.
            return Err(Error::Numerical(hyperpower_linalg::Error::NonFiniteInput));
        }

        let n = x_train.rows();
        let y_mean = y_train.iter().sum::<f64>() / n as f64;
        let y_centered: Vec<f64> = y_train.iter().map(|y| y - y_mean).collect();

        let mut cov = kernel.matrix(x_train).scale(signal_variance);
        cov.add_diagonal(noise_variance);
        let mut factor = CholeskyWorkspace::default();
        let mut alpha = Vec::with_capacity(n);
        let (chol, log_marginal_likelihood) =
            factor_covariance(&cov, &y_centered, &mut factor, &mut alpha)?;
        Ok(GpRegressor::from_factor(
            kernel,
            signal_variance,
            noise_variance,
            x_train.clone(),
            y_mean,
            alpha,
            chol.clone(),
            log_marginal_likelihood,
        ))
    }

    /// The regressor whose covariance was factored by
    /// [`factor_covariance`]: `chol`, `alpha` and `log_marginal_likelihood`
    /// are what it returned for the centred targets `y_train − y_mean` at
    /// these hyper-parameters. The fit builds its result here from its
    /// trial at the optimum, which is [`GpRegressor::fit`] bit for bit.
    #[allow(clippy::too_many_arguments)] // one per field
    pub(crate) fn from_factor(
        kernel: Arc<dyn Kernel>,
        signal_variance: f64,
        noise_variance: f64,
        x_train: Matrix,
        y_mean: f64,
        alpha: Vec<f64>,
        chol: Cholesky,
        log_marginal_likelihood: f64,
    ) -> Self {
        GpRegressor {
            kernel,
            signal_variance,
            noise_variance,
            x_train,
            y_mean,
            alpha,
            chol,
            log_marginal_likelihood,
        }
    }

    /// Posterior mean and (noise-free) variance at `query`.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `query.len()` differs from the
    ///   training dimensionality.
    /// * [`Error::Numerical`] if the triangular solve against the stored
    ///   factorization fails.
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
        let v = self.chol.solve_lower(&k_star)?;
        let prior = self.signal_variance * self.kernel.eval(query, query);
        let variance = (prior - vector::dot(&v, &v)).max(0.0);
        hyperpower_linalg::debug_assert_finite!("gp posterior (mean, variance)", &[mean, variance]);
        Ok(Prediction { mean, variance })
    }

    /// Posterior means and (noise-free, clamped) variances for a whole
    /// block of query points — the rows of `queries` — in one pass.
    ///
    /// Semantically this is `predict` applied to every row, and the results
    /// are **bit-for-bit identical** to the per-point path (pinned by
    /// `tests/posterior_batch.rs` and the workspace goldens): each query's
    /// cross-covariances, mean dot product, triangular solve and variance
    /// reduction take the exact same floating-point steps. What changes is
    /// the memory traffic. The cross-covariances `K*` are built one
    /// training row at a time against every query of the block, through
    /// one [`Kernel::eval_distances`] call per row, while each query's
    /// mean accumulates. The `m` forward substitutions run as one multi-RHS
    /// solve in `K*`'s own storage ([`Cholesky::solve_lower_columns`]), so
    /// each row of the factor is loaded once per block instead of once per
    /// query, and each query's `vᵀv` accumulates from the solution's rows.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `queries.cols()` differs from the
    ///   training dimensionality.
    /// * [`Error::Numerical`] if the triangular solve against the stored
    ///   factorization fails.
    pub fn posterior_batch(&self, queries: &Matrix) -> Result<(Vec<f64>, Vec<f64>)> {
        self.check_queries(queries)?;
        let m = queries.rows();
        let (kstar, means) = self.cross_covariance(queries);
        let v = self
            .chol
            .solve_lower_columns(kstar)
            .map_err(Error::Numerical)?;
        // Each query's `vᵀv` in training-row order from −0.0, the fold
        // `vector::dot` runs over that query's column of V.
        let mut vtv = vec![-0.0; m];
        for i in 0..v.rows() {
            for (acc, &vi) in vtv.iter_mut().zip(v.row(i)) {
                *acc += vi * vi;
            }
        }
        let self_r: Vec<f64> = (0..m)
            .map(|q| vector::squared_distance(queries.row(q), queries.row(q)).sqrt())
            .collect();
        let mut prior = vec![0.0; m];
        self.kernel.eval_distances(&self_r, &mut prior);
        let variances: Vec<f64> = prior
            .iter()
            .zip(&vtv)
            .map(|(k, vtv)| (self.signal_variance * k - vtv).max(0.0))
            .collect();
        hyperpower_linalg::debug_assert_finite!("gp batch posterior means", &means);
        hyperpower_linalg::debug_assert_finite!("gp batch posterior variances", &variances);
        Ok((means, variances))
    }

    /// Joint posterior over a set of query points (rows of `queries`):
    /// the posterior mean vector and the full posterior covariance matrix.
    ///
    /// This is what Thompson sampling needs — correlated draws over a
    /// candidate grid — and what pointwise [`GpRegressor::predict`] cannot
    /// provide. The means and the cross-covariances come from the builder
    /// [`GpRegressor::posterior_batch`] uses, so each mean is `predict`'s
    /// to the bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the query dimensionality
    /// differs from the training data.
    pub fn predict_joint(
        &self,
        queries: &Matrix,
    ) -> std::result::Result<(Vec<f64>, Matrix), Error> {
        self.check_queries(queries)?;
        let (kstar, mean) = self.cross_covariance(queries);
        // Solved for all queries in one multi-RHS pass — bit-identical per
        // column to the per-query `solve_lower`.
        let v = self.chol.solve_lower_columns(kstar)?;
        let vt = v.transpose();
        hyperpower_linalg::debug_assert_finite!("gp joint posterior mean", &mean);
        let prior = self.kernel.matrix(queries);
        let cov = Matrix::from_fn(queries.rows(), queries.rows(), |i, j| {
            self.signal_variance * prior[(i, j)] - vector::dot(vt.row(i), vt.row(j))
        });
        Ok((mean, cov))
    }

    fn check_queries(&self, queries: &Matrix) -> Result<()> {
        if queries.cols() != self.x_train.cols() {
            return Err(Error::DimensionMismatch {
                expected: format!("queries with {} columns", self.x_train.cols()),
                found: format!("queries with {} columns", queries.cols()),
            });
        }
        Ok(())
    }

    /// The cross-covariances `K*[i][q] = σ_f²·k(x_q, xᵢ)` between the
    /// training rows and the rows of `queries` (n×m, one column per
    /// query, the layout the multi-RHS forward solve wants), and each
    /// query's posterior mean.
    ///
    /// `K*` is built one training row at a time: that row's squared
    /// distances to every query accumulate dimension by dimension over the
    /// transposed queries, their square roots go through one
    /// [`Kernel::eval_distances`] call, which turns them into covariances,
    /// and each query's dot product with α takes the row's term. Every sum
    /// runs in index order from −0.0, the fold `vector::squared_distance`
    /// and `vector::dot` run, so each value is the one
    /// [`GpRegressor::predict`] computes for its query.
    fn cross_covariance(&self, queries: &Matrix) -> (Matrix, Vec<f64>) {
        let m = queries.rows();
        let n = self.x_train.rows();
        let qt = queries.transpose();
        let mut kstar = Matrix::zeros(n, m);
        let mut r = vec![0.0; m];
        let mut dots = vec![-0.0; m];
        for (i, &alpha) in self.alpha.iter().enumerate() {
            let xi = self.x_train.row(i);
            r.fill(-0.0);
            for (c, &xc) in xi.iter().enumerate() {
                for (acc, &qc) in r.iter_mut().zip(qt.row(c)) {
                    *acc += (qc - xc) * (qc - xc);
                }
            }
            for v in r.iter_mut() {
                *v = v.sqrt();
            }
            let row = kstar.row_mut(i);
            self.kernel.eval_distances(&r, row);
            for (k, dot) in row.iter_mut().zip(&mut dots) {
                *k *= self.signal_variance;
                *dot += *k * alpha;
            }
        }
        let means = dots.into_iter().map(|dot| self.y_mean + dot).collect();
        (kstar, means)
    }

    /// Draws one correlated sample from the joint posterior at `queries`
    /// (Thompson sampling). The posterior covariance is factored with
    /// jitter escalation; `standard_normals` must supply `queries.rows()`
    /// i.i.d. N(0,1) values (the caller owns the RNG so this crate stays
    /// generic over randomness sources).
    ///
    /// # Errors
    ///
    /// Propagates [`Error::DimensionMismatch`] and numerical failures.
    ///
    /// # Panics
    ///
    /// Panics if `standard_normals.len() != queries.rows()`.
    pub fn sample_posterior(
        &self,
        queries: &Matrix,
        standard_normals: &[f64],
    ) -> std::result::Result<Vec<f64>, Error> {
        assert_eq!(
            standard_normals.len(),
            queries.rows(),
            "need one standard normal per query point"
        );
        let (mean, cov) = self.predict_joint(queries)?;
        let (chol, _) = hyperpower_linalg::Cholesky::factor_with_jitter(&cov, 1e-10, 12)
            .map_err(Error::Numerical)?;
        let l = chol.factor_l();
        let m = queries.rows();
        let sample: Vec<f64> = (0..m)
            .map(|i| {
                let mut v = mean[i];
                for j in 0..=i {
                    v += l[(i, j)] * standard_normals[j];
                }
                v
            })
            .collect();
        Ok(sample)
    }

    /// Log marginal likelihood of the training data under this model — the
    /// quantity maximised by [`crate::fit_gp_hyperparams`].
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal_likelihood
    }

    /// Number of training observations.
    pub fn num_observations(&self) -> usize {
        self.x_train.rows()
    }

    /// Dimensionality of the input space.
    pub fn input_dim(&self) -> usize {
        self.x_train.cols()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Arc<dyn Kernel> {
        &self.kernel
    }

    /// The observation-noise variance.
    pub fn noise_variance(&self) -> f64 {
        self.noise_variance
    }

    /// The signal variance that scales the kernel.
    pub fn signal_variance(&self) -> f64 {
        self.signal_variance
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::Matern52;

    fn toy_gp() -> GpRegressor {
        let x = Matrix::from_vec(4, 1, vec![-1.0, 0.0, 1.0, 2.0]).unwrap();
        let y = [1.0, 0.0, 1.0, 4.0];
        GpRegressor::fit(Matern52::new(1.0).into_kernel(), 1.0, 1e-6, &x, &y).unwrap()
    }

    #[test]
    fn single_point_posterior_closed_form() {
        // With one observation the posterior mean at the observed point is
        // m + k/(k+σ²)·(y − m) = y when σ² → 0 (m = y here so mean = y).
        let x = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
        let y = [2.0];
        let gp = GpRegressor::fit(Matern52::new(1.0).into_kernel(), 1.0, 1e-8, &x, &y).unwrap();
        let p = gp.predict(&[0.0]).unwrap();
        assert!((p.mean - 2.0).abs() < 1e-6);
        assert!(p.variance < 1e-6);
        // Far away: revert to prior mean (= empirical mean = 2) with prior variance.
        let far = gp.predict(&[100.0]).unwrap();
        assert!((far.mean - 2.0).abs() < 1e-9);
        assert!((far.variance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interpolates_training_data() {
        let gp = toy_gp();
        let p = gp.predict(&[1.0]).unwrap();
        assert!((p.mean - 1.0).abs() < 1e-3, "mean {}", p.mean);
    }

    #[test]
    fn variance_shrinks_at_observed_points() {
        let gp = toy_gp();
        assert!(gp.predict(&[0.0]).unwrap().variance < 1e-4);
        assert!(gp.predict(&[5.0]).unwrap().variance > 0.5);
    }

    #[test]
    fn variance_nonnegative_everywhere() {
        let gp = toy_gp();
        for i in -30..30 {
            let p = gp.predict(&[i as f64 * 0.33]).unwrap();
            assert!(p.variance >= 0.0);
            assert!(p.std_dev() >= 0.0);
        }
    }

    #[test]
    fn mismatched_targets_rejected() {
        let x = Matrix::from_vec(2, 1, vec![0.0, 1.0]).unwrap();
        let err =
            GpRegressor::fit(Matern52::new(1.0).into_kernel(), 1.0, 1e-6, &x, &[1.0]).unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { .. }));
    }

    #[test]
    fn empty_training_rejected() {
        let x = Matrix::zeros(0, 1);
        let err =
            GpRegressor::fit(Matern52::new(1.0).into_kernel(), 1.0, 1e-6, &x, &[]).unwrap_err();
        assert!(matches!(err, Error::NoObservations));
    }

    #[test]
    fn invalid_variances_rejected() {
        let x = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
        let k = Matern52::new(1.0).into_kernel();
        assert!(GpRegressor::fit(k.clone(), 0.0, 1e-6, &x, &[1.0]).is_err());
        assert!(GpRegressor::fit(k.clone(), 1.0, -1.0, &x, &[1.0]).is_err());
        assert!(GpRegressor::fit(k, f64::NAN, 1e-6, &x, &[1.0]).is_err());
    }

    #[test]
    fn log_marginal_likelihood_prefers_matching_noise() {
        // Noisy data should get higher evidence with a noise level near the
        // truth than with an absurdly small one.
        let x = Matrix::from_vec(8, 1, (0..8).map(|i| i as f64).collect()).unwrap();
        // y = 0 with +-0.5 alternating "noise".
        let y: Vec<f64> = (0..8)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let k = Matern52::new(3.0).into_kernel();
        let good = GpRegressor::fit(k.clone(), 1.0, 0.25, &x, &y).unwrap();
        let bad = GpRegressor::fit(k, 1.0, 1e-8, &x, &y).unwrap();
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn predict_wrong_dim_is_typed_error() {
        let err = toy_gp().predict(&[0.0, 1.0]).unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { .. }));
    }

    #[test]
    fn joint_posterior_diagonal_matches_pointwise() {
        let gp = toy_gp();
        let queries = Matrix::from_vec(3, 1, vec![-0.5, 0.5, 3.0]).unwrap();
        let (mean, cov) = gp.predict_joint(&queries).unwrap();
        for i in 0..3 {
            let p = gp.predict(queries.row(i)).unwrap();
            assert!((mean[i] - p.mean).abs() < 1e-10);
            assert!((cov[(i, i)] - p.variance).abs() < 1e-8);
        }
        // Covariance is symmetric.
        for i in 0..3 {
            for j in 0..3 {
                assert!((cov[(i, j)] - cov[(j, i)]).abs() < 1e-10);
            }
        }
        // Far from the data, nearby points keep their prior correlation.
        let far = Matrix::from_vec(2, 1, vec![49.5, 50.5]).unwrap();
        let (_, far_cov) = gp.predict_joint(&far).unwrap();
        assert!(far_cov[(0, 1)] > 0.3);
    }

    #[test]
    fn joint_posterior_rejects_wrong_dim() {
        let gp = toy_gp();
        let queries = Matrix::zeros(2, 3);
        assert!(gp.predict_joint(&queries).is_err());
    }

    #[test]
    fn posterior_samples_interpolate_training_data() {
        // At training points with tiny noise, every posterior draw passes
        // (nearly) through the observations.
        let x = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]).unwrap();
        let y = [0.5, -0.5, 1.5];
        let gp = GpRegressor::fit(Matern52::new(1.0).into_kernel(), 1.0, 1e-8, &x, &y).unwrap();
        let normals = [1.3, -0.7, 0.2];
        let sample = gp.sample_posterior(&x, &normals).unwrap();
        for (s, t) in sample.iter().zip(&y) {
            assert!((s - t).abs() < 1e-2, "sample {s} vs observation {t}");
        }
    }

    #[test]
    fn posterior_samples_vary_far_from_data() {
        let gp = toy_gp();
        let queries = Matrix::from_vec(2, 1, vec![50.0, 60.0]).unwrap();
        let a = gp.sample_posterior(&queries, &[1.0, 1.0]).unwrap();
        let b = gp.sample_posterior(&queries, &[-1.0, -1.0]).unwrap();
        // Different normals => different draws in the uncertain region.
        assert!((a[0] - b[0]).abs() > 0.5);
    }

    #[test]
    #[should_panic(expected = "one standard normal per query")]
    fn sample_posterior_wrong_normal_count_panics() {
        let gp = toy_gp();
        let queries = Matrix::from_vec(2, 1, vec![0.0, 1.0]).unwrap();
        let _ = gp.sample_posterior(&queries, &[0.0]);
    }

    #[test]
    fn accessors_report_fit() {
        let gp = toy_gp();
        assert_eq!(gp.num_observations(), 4);
        assert_eq!(gp.input_dim(), 1);
        assert_eq!(gp.noise_variance(), 1e-6);
        assert_eq!(gp.signal_variance(), 1.0);
        assert_eq!(gp.kernel().length_scale(), 1.0);
    }
}
