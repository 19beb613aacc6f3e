//! Predictive power and memory models (paper §3.3, Eq. 1–2).
//!
//! HyperPower models a network's inference power and memory as functions
//! that are **linear in the structural hyper-parameters** `z`:
//!
//! ```text
//! P(z) = Σⱼ wⱼ·zⱼ          M(z) = Σⱼ mⱼ·zⱼ
//! ```
//!
//! fitted by (ridge-regularised) least squares on `L` offline-profiled
//! samples and validated with 10-fold cross-validation; the paper reports
//! RMSPE below 7% on all device–dataset pairs (Table 1). The linear form
//! is chosen deliberately: it is evaluated *inside* the acquisition
//! function on every candidate grid point, so it must be near-free.
//!
//! As an extension hook (the paper's §3.3 points at its follow-up work for
//! non-linear models) a quadratic-feature variant is provided via
//! [`FeatureMap::Quadratic`].

use hyperpower_linalg::units::{Mebibytes, Seconds, Watts};
use hyperpower_linalg::{ridge_least_squares, stats, Matrix};

use crate::{Error, Result};

/// How raw structural values are expanded into regression features.
///
/// Both maps prepend a constant **intercept** feature: GPU power has a
/// large constant baseline (idle draw) that a strictly zero-intercept
/// model cannot express. The model stays linear in the weights, which is
/// all the paper's formulation requires for cheap in-acquisition
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatureMap {
    /// The paper's formulation: an intercept plus the structural values
    /// themselves.
    #[default]
    Linear,
    /// Extension: intercept, structural values and their squares (still
    /// linear in the *weights*, so fitting and evaluation stay cheap).
    Quadratic,
}

impl FeatureMap {
    /// Expands a structural vector into regression features: `[1, z]`, or
    /// `[1, z, z²]` for [`FeatureMap::Quadratic`].
    ///
    /// Fitting builds its design matrix from these rows.
    /// [`LinearHwModel::predict`] does not call it: it takes the same dot
    /// product with the features left implicit, so screening a candidate
    /// grid allocates nothing.
    pub fn expand(&self, z: &[f64]) -> Vec<f64> {
        match self {
            FeatureMap::Linear => {
                let mut out = Vec::with_capacity(z.len() + 1);
                out.push(1.0);
                out.extend_from_slice(z);
                out
            }
            FeatureMap::Quadratic => {
                let mut out = Vec::with_capacity(z.len() * 2 + 1);
                out.push(1.0);
                out.extend_from_slice(z);
                out.extend(z.iter().map(|v| v * v));
                out
            }
        }
    }

    /// `vector::dot(weights, &self.expand(z))` without building the
    /// features: the same products, `w·1`, `w·zⱼ` and `w·(zⱼ·zⱼ)`, summed in
    /// the same order from the same start, so the result is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics, as `vector::dot` does, unless `weights` holds one weight per
    /// feature of `z`.
    fn dot(&self, weights: &[f64], z: &[f64]) -> f64 {
        let squares = match self {
            FeatureMap::Linear => 0,
            FeatureMap::Quadratic => z.len(),
        };
        assert_eq!(weights.len(), 1 + z.len() + squares, "dot: length mismatch");
        let (intercept, rest) = weights.split_at(1);
        let (linear, quadratic) = rest.split_at(z.len());
        intercept
            .iter()
            .map(|w| w * 1.0)
            .chain(linear.iter().zip(z).map(|(w, v)| w * v))
            .chain(quadratic.iter().zip(z).map(|(w, v)| w * (v * v)))
            .sum()
    }
}

/// How targets are transformed before the linear fit.
///
/// Power and memory are fitted on their natural scale (the paper's Eq.
/// 1–2). Latency spans orders of magnitude across the search space, so the
/// latency model fits `log(y)` and exponentiates predictions — still a
/// cheap dot product plus one `exp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetTransform {
    /// Fit the raw target (paper Eq. 1–2).
    #[default]
    Identity,
    /// Fit `ln(target)`; predictions are exponentiated. Requires strictly
    /// positive targets.
    Log,
}

impl TargetTransform {
    fn forward(&self, y: f64) -> f64 {
        match self {
            TargetTransform::Identity => y,
            TargetTransform::Log => y.ln(),
        }
    }

    fn inverse(&self, y: f64) -> f64 {
        match self {
            TargetTransform::Identity => y,
            TargetTransform::Log => y.exp(),
        }
    }
}

/// A fitted hardware-metric model with its cross-validation diagnostics.
///
/// # Examples
///
/// ```
/// use hyperpower::model::{FeatureMap, LinearHwModel};
///
/// # fn main() -> Result<(), hyperpower::Error> {
/// // Power = 2·z0 + 0.5·z1 exactly: the model recovers it.
/// let z: Vec<Vec<f64>> = (1..20).map(|i| vec![i as f64, (i * i % 7) as f64]).collect();
/// let y: Vec<f64> = z.iter().map(|r| 2.0 * r[0] + 0.5 * r[1]).collect();
/// let model = LinearHwModel::fit_kfold(&z, &y, 10, FeatureMap::Linear)?;
/// assert!(model.cv_rmspe() < 0.01);
/// assert!((model.predict(&[10.0, 3.0]) - 21.5).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearHwModel {
    weights: Vec<f64>,
    feature_map: FeatureMap,
    target_transform: TargetTransform,
    cv_rmspe: f64,
    residual_std: f64,
}

impl LinearHwModel {
    /// Fits the model with `k`-fold cross-validation (the paper uses
    /// `k = 10`).
    ///
    /// The returned model is trained on *all* samples; `cv_rmspe` is the
    /// RMSPE of held-out predictions across the folds, and `residual_std`
    /// the standard deviation of held-out residuals (used by HW-CWEI's
    /// probabilistic constraints).
    ///
    /// # Errors
    ///
    /// * [`Error::NotEnoughSamples`] if fewer than `max(k, 2·features)`
    ///   samples are supplied.
    /// * [`Error::InvalidConfig`] if rows have inconsistent lengths or
    ///   `k < 2`.
    /// * Numerical errors if the design matrix is degenerate.
    pub fn fit_kfold(z: &[Vec<f64>], y: &[f64], k: usize, feature_map: FeatureMap) -> Result<Self> {
        Self::fit_kfold_transformed(z, y, k, feature_map, TargetTransform::Identity)
    }

    /// Like [`LinearHwModel::fit_kfold`] but with a target transform
    /// (see [`TargetTransform`]). CV diagnostics (`cv_rmspe`,
    /// `residual_std`) are computed on the *original* target scale.
    ///
    /// # Errors
    ///
    /// As [`LinearHwModel::fit_kfold`], plus [`Error::InvalidConfig`] if a
    /// log transform is requested for non-positive targets.
    pub fn fit_kfold_transformed(
        z: &[Vec<f64>],
        y: &[f64],
        k: usize,
        feature_map: FeatureMap,
        target_transform: TargetTransform,
    ) -> Result<Self> {
        if target_transform == TargetTransform::Log && y.iter().any(|v| *v <= 0.0) {
            return Err(Error::InvalidConfig(
                "log target transform requires positive targets".into(),
            ));
        }
        let y: Vec<f64> = y.iter().map(|v| target_transform.forward(*v)).collect();
        let y = y.as_slice();
        if z.len() != y.len() || z.is_empty() {
            return Err(Error::InvalidConfig(
                "need equally many feature rows and targets".into(),
            ));
        }
        if k < 2 {
            return Err(Error::InvalidConfig("k-fold requires k >= 2".into()));
        }
        // In-bounds: `z` is checked non-empty above. analyze::allow(R15)
        let d = feature_map.expand(&z[0]).len();
        if z.iter().any(|r| feature_map.expand(r).len() != d) {
            return Err(Error::InvalidConfig("ragged feature rows".into()));
        }
        let required = k.max(2 * d);
        if z.len() < required {
            return Err(Error::NotEnoughSamples {
                required,
                available: z.len(),
            });
        }

        let n = z.len();
        let features: Vec<Vec<f64>> = z.iter().map(|r| feature_map.expand(r)).collect();

        // k-fold CV: contiguous folds over the (already randomised,
        // profiler-shuffled) sample order.
        let mut held_out_pred = Vec::with_capacity(n);
        let mut held_out_true = Vec::with_capacity(n);
        for fold in 0..k {
            let lo = fold * n / k;
            let hi = (fold + 1) * n / k;
            if lo == hi {
                continue;
            }
            let train_rows: Vec<&Vec<f64>> = features
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < lo || *i >= hi)
                .map(|(_, r)| r)
                .collect();
            let train_y: Vec<f64> = y
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < lo || *i >= hi)
                .map(|(_, v)| *v)
                .collect();
            let x = rows_to_matrix(&train_rows, d)?;
            let fit = ridge_least_squares(&x, &train_y, 1e-6)?;
            for i in lo..hi {
                // Fold bounds: `hi <= features.len() == y.len()` by
                // construction; the grant covers both indexed lines.
                held_out_pred.push(target_transform.inverse(fit.predict(&features[i]))); // analyze::allow(R15)
                held_out_true.push(target_transform.inverse(y[i]));
            }
        }
        let cv_rmspe = stats::rmspe(&held_out_pred, &held_out_true).unwrap_or(f64::NAN);
        let residuals: Vec<f64> = held_out_pred
            .iter()
            .zip(&held_out_true)
            .map(|(p, t)| p - t)
            .collect();
        let residual_std = stats::std_dev(&residuals).unwrap_or(0.0);

        // Final model on all data.
        let all_rows: Vec<&Vec<f64>> = features.iter().collect();
        let x = rows_to_matrix(&all_rows, d)?;
        let fit = ridge_least_squares(&x, y, 1e-6)?;
        hyperpower_linalg::debug_assert_finite!("hw-model weights", &fit.coefficients);

        Ok(LinearHwModel {
            weights: fit.coefficients,
            feature_map,
            target_transform,
            cv_rmspe,
            residual_std,
        })
    }

    /// Predicts the hardware metric for a structural vector `z`: the dot
    /// product of the weights with the features `[1, z]` (`[1, z, z²]` for
    /// [`FeatureMap::Quadratic`]), then the inverse target transform.
    ///
    /// The features stay implicit, so a prediction allocates nothing, and
    /// the result is bit-identical to
    /// `vector::dot(weights, &feature_map.expand(z))` transformed back.
    ///
    /// # Panics
    ///
    /// Panics if `z` has the wrong dimensionality for the feature map.
    pub fn predict(&self, z: &[f64]) -> f64 {
        hyperpower_linalg::debug_assert_finite!("hw-model input z", z);
        self.target_transform
            .inverse(self.feature_map.dot(&self.weights, z))
    }

    /// The fitted weights (`wⱼ` of Eq. 1 / `mⱼ` of Eq. 2).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Cross-validated Root Mean Square Percentage Error, as a fraction
    /// (the paper's Table 1 metric; multiply by 100 for percent).
    pub fn cv_rmspe(&self) -> f64 {
        self.cv_rmspe
    }

    /// Standard deviation of held-out residuals, in the metric's units.
    /// HW-CWEI uses this as the constraint models' predictive noise.
    pub fn residual_std(&self) -> f64 {
        self.residual_std
    }

    /// The feature map used at fit time.
    pub fn feature_map(&self) -> FeatureMap {
        self.feature_map
    }

    /// The target transform used at fit time.
    pub fn target_transform(&self) -> TargetTransform {
        self.target_transform
    }
}

fn rows_to_matrix(rows: &[&Vec<f64>], d: usize) -> Result<Matrix> {
    let mut data = Vec::with_capacity(rows.len() * d);
    for r in rows {
        data.extend_from_slice(r);
    }
    Ok(Matrix::from_vec(rows.len(), d, data)?)
}

/// The fitted models a platform exposes: power always, memory only where
/// the platform can measure it (not on Tegra — paper footnote 1), latency
/// as an extension beyond the paper (its refs \[10\]/\[14\] constrain
/// runtime).
#[derive(Debug, Clone, PartialEq)]
pub struct HwModels {
    /// The power model `P(z)`.
    pub power: LinearHwModel,
    /// The memory model `M(z)`, if the platform supports memory
    /// measurement.
    pub memory: Option<LinearHwModel>,
    /// The inference-latency model `T(z)` in seconds per example, if
    /// latency was profiled.
    pub latency: Option<LinearHwModel>,
}

impl HwModels {
    /// Predicted inference power `P(z)` (paper Eq. 1). The underlying
    /// regression is fitted on raw watt readings; the typed wrapper is the
    /// API boundary that keeps budget comparisons dimension-safe.
    pub fn predict_power(&self, z: &[f64]) -> Watts {
        Watts(self.power.predict(z))
    }

    /// Predicted memory `M(z)` (paper Eq. 2), or `None` without a memory
    /// model. The regression is fitted on raw byte readings and converted
    /// here, so the scale change happens in exactly one place.
    pub fn predict_memory(&self, z: &[f64]) -> Option<Mebibytes> {
        self.memory
            .as_ref()
            .map(|m| Mebibytes::from_bytes(m.predict(z)))
    }

    /// Predicted latency per example, or `None` without a latency model.
    pub fn predict_latency(&self, z: &[f64]) -> Option<Seconds> {
        self.latency.as_ref().map(|m| Seconds(m.predict(z)))
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn planted_data(n: usize, noise: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = [3.0, -1.5, 0.8];
        let intercept = 30.0;
        let z: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..3)
                    .map(|_| rng.random_range(1.0..10.0))
                    .collect::<Vec<f64>>()
            })
            .collect();
        let y: Vec<f64> = z
            .iter()
            .map(|r| {
                let clean: f64 = intercept + r.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>();
                clean + noise * (rng.random_range(0.0f64..1.0) - 0.5)
            })
            .collect();
        (z, y)
    }

    #[test]
    fn recovers_planted_weights() {
        let (z, y) = planted_data(60, 0.0, 1);
        let m = LinearHwModel::fit_kfold(&z, &y, 10, FeatureMap::Linear).unwrap();
        // weights[0] is the intercept.
        assert!((m.weights()[0] - 30.0).abs() < 1e-4);
        assert!((m.weights()[1] - 3.0).abs() < 1e-5);
        assert!((m.weights()[2] + 1.5).abs() < 1e-5);
        assert!(m.cv_rmspe() < 1e-5);
        assert!(m.residual_std() < 1e-3);
    }

    #[test]
    fn noisy_data_has_nonzero_rmspe() {
        let (z, y) = planted_data(80, 2.0, 2);
        let m = LinearHwModel::fit_kfold(&z, &y, 10, FeatureMap::Linear).unwrap();
        assert!(m.cv_rmspe() > 0.0);
        assert!(m.cv_rmspe() < 0.2, "rmspe {}", m.cv_rmspe());
        assert!(m.residual_std() > 0.0);
    }

    #[test]
    fn quadratic_features_fit_quadratic_truth_better() {
        let mut rng = StdRng::seed_from_u64(3);
        let z: Vec<Vec<f64>> = (0..80)
            .map(|_| vec![rng.random_range(1.0f64..6.0)])
            .collect();
        let y: Vec<f64> = z.iter().map(|r| 2.0 * r[0] * r[0] + r[0]).collect();
        let lin = LinearHwModel::fit_kfold(&z, &y, 10, FeatureMap::Linear).unwrap();
        let quad = LinearHwModel::fit_kfold(&z, &y, 10, FeatureMap::Quadratic).unwrap();
        assert!(quad.cv_rmspe() < lin.cv_rmspe() * 0.2);
    }

    #[test]
    fn too_few_samples_rejected() {
        let (z, y) = planted_data(5, 0.0, 4);
        let err = LinearHwModel::fit_kfold(&z, &y, 10, FeatureMap::Linear).unwrap_err();
        assert!(matches!(err, Error::NotEnoughSamples { .. }));
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(LinearHwModel::fit_kfold(&[], &[], 10, FeatureMap::Linear).is_err());
        let z = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(LinearHwModel::fit_kfold(&z, &[1.0, 2.0], 2, FeatureMap::Linear).is_err());
        let (z, y) = planted_data(30, 0.0, 5);
        assert!(LinearHwModel::fit_kfold(&z, &y, 1, FeatureMap::Linear).is_err());
    }

    #[test]
    fn hw_models_memory_optional() {
        let (z, y) = planted_data(40, 0.1, 6);
        let power = LinearHwModel::fit_kfold(&z, &y, 10, FeatureMap::Linear).unwrap();
        let models = HwModels {
            power: power.clone(),
            memory: None,
            latency: None,
        };
        assert!(models.predict_power(&[2.0, 2.0, 2.0]).is_finite());
        assert!(models.predict_power(&[2.0, 2.0, 2.0]) > Watts::ZERO);
        assert_eq!(models.predict_memory(&[2.0, 2.0, 2.0]), None);
        let with_mem = HwModels {
            power: power.clone(),
            memory: Some(power),
            latency: None,
        };
        assert!(with_mem.predict_memory(&[2.0, 2.0, 2.0]).is_some());
    }

    #[test]
    fn prediction_is_affine_in_z() {
        let (z, y) = planted_data(50, 0.0, 7);
        let m = LinearHwModel::fit_kfold(&z, &y, 5, FeatureMap::Linear).unwrap();
        // Affinity: p(a) + p(b) - p(0) = p(a + b).
        let a = m.predict(&[1.0, 2.0, 3.0]);
        let b = m.predict(&[2.0, 4.0, 6.0]);
        let zero = m.predict(&[0.0, 0.0, 0.0]);
        let sum = m.predict(&[3.0, 6.0, 9.0]);
        assert!((a + b - zero - sum).abs() < 1e-9);
    }
}
