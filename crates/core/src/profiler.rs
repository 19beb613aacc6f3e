//! Offline random profiling of the hyper-parameter space (paper §3.3).
//!
//! Before any optimization runs, HyperPower samples `L` random
//! configurations, measures each one's inference power `Pₗ` and memory
//! `Mₗ` on the target platform, and fits the predictive models on
//! `{(zₗ, Pₗ, Mₗ)}`. The crucial property (paper §3.2, Fig. 3 left): these
//! measurements do **not** require trained networks — power and memory are
//! invariant to weight values — so profiling costs seconds per sample, not
//! training hours.

use hyperpower_gp::sampler::latin_hypercube;
use hyperpower_gpu_sim::{Gpu, TrainingCostModel, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::model::{FeatureMap, LinearHwModel};
use crate::{Config, Error, HwModels, Result, SearchSpace};

/// The raw profiling dataset `{(zₗ, Pₗ, Mₗ)}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledData {
    /// Structural vectors, one per profiled configuration.
    pub z: Vec<Vec<f64>>,
    /// Measured power in watts.
    pub power_w: Vec<f64>,
    /// Measured memory in bytes, or `None` on platforms without a memory
    /// API (Tegra TX1).
    pub memory_bytes: Option<Vec<f64>>,
    /// Measured inference latency in seconds per example (extension: the
    /// paper profiles power/memory only).
    pub latency_s: Vec<f64>,
}

impl ProfiledData {
    /// Number of profiled configurations.
    pub fn len(&self) -> usize {
        self.z.len()
    }

    /// Returns `true` if no configurations were profiled.
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }
}

/// Profiles random configurations on a (simulated) GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profiler {
    samples: usize,
}

impl Profiler {
    /// A profiler that will measure `samples` configurations (the
    /// experiments use `L = 100`).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn new(samples: usize) -> Self {
        assert!(samples > 0, "need at least one profiling sample");
        Profiler { samples }
    }

    /// Draws a Latin-hypercube sample of the space and measures each point
    /// on `gpu`, advancing `clock` by the measurement cost.
    ///
    /// Deterministic for a given `(space, gpu seed, profiler seed)`.
    ///
    /// # Errors
    ///
    /// Propagates decode errors (impossible for the built-in spaces).
    pub fn profile(
        &self,
        space: &SearchSpace,
        gpu: &mut Gpu,
        clock: &mut VirtualClock,
        cost: &TrainingCostModel,
        seed: u64,
    ) -> Result<ProfiledData> {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = latin_hypercube(&mut rng, self.samples, space.dim());
        let supports_memory = gpu.device().supports_memory_measurement;

        let mut z = Vec::with_capacity(self.samples);
        let mut power = Vec::with_capacity(self.samples);
        let mut latency = Vec::with_capacity(self.samples);
        let mut memory = if supports_memory {
            Some(Vec::with_capacity(self.samples))
        } else {
            None
        };

        for i in 0..grid.rows() {
            let config = Config::new(grid.row(i).to_vec())?;
            let decoded = space.decode(&config)?;
            // The regression targets stay raw (suffixed) magnitudes: the
            // linear models fit watts/bytes/seconds directly, and the typed
            // wrappers come back at the prediction boundary (`HwModels`).
            // One noise-free analysis per design; the sensors read it in
            // the order power, latency, memory.
            let truth = gpu.analyze(&decoded.arch);
            power.push(gpu.measure_power(&truth).get());
            latency.push(gpu.measure_latency(&truth).get());
            if let Some(mem) = memory.as_mut() {
                // `supports_memory` was checked when `memory` was created,
                // so a measurement refusal here cannot occur; skipping the
                // sample keeps the profiler panic-free regardless.
                if let Ok(m) = gpu.measure_memory(&truth) {
                    mem.push(m.as_bytes());
                }
            }
            z.push(decoded.structural);
            clock.advance_secs(cost.measurement_s);
        }

        Ok(ProfiledData {
            z,
            power_w: power,
            memory_bytes: memory,
            latency_s: latency,
        })
    }
}

/// Fits the power (and, where measured, memory) models on profiling data
/// with `k`-fold cross-validation.
///
/// # Errors
///
/// Propagates fitting errors ([`Error::NotEnoughSamples`] for undersized
/// profiling runs).
pub fn fit_models(data: &ProfiledData, k: usize, feature_map: FeatureMap) -> Result<HwModels> {
    if data.is_empty() {
        return Err(Error::MissingProfilingData("power"));
    }
    let power = LinearHwModel::fit_kfold(&data.z, &data.power_w, k, feature_map)?;
    let memory = match &data.memory_bytes {
        Some(m) => Some(LinearHwModel::fit_kfold(&data.z, m, k, feature_map)?),
        None => None,
    };
    // Latency spans orders of magnitude across the space; fit it on the
    // log scale (predictions are exponentiated, staying near-free).
    let latency = if data.latency_s.is_empty() {
        None
    } else {
        Some(LinearHwModel::fit_kfold_transformed(
            &data.z,
            &data.latency_s,
            k,
            feature_map,
            crate::model::TargetTransform::Log,
        )?)
    };
    Ok(HwModels {
        power,
        memory,
        latency,
    })
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use hyperpower_gpu_sim::DeviceProfile;

    fn profile_pair(
        space: &SearchSpace,
        device: DeviceProfile,
        n: usize,
    ) -> (ProfiledData, VirtualClock) {
        let mut gpu = Gpu::new(device, 11);
        let mut clock = VirtualClock::new();
        let cost = TrainingCostModel::default();
        let data = Profiler::new(n)
            .profile(space, &mut gpu, &mut clock, &cost, 22)
            .unwrap();
        (data, clock)
    }

    #[test]
    fn profiling_collects_l_samples_and_costs_time() {
        let (data, clock) = profile_pair(&SearchSpace::mnist(), DeviceProfile::gtx_1070(), 50);
        assert_eq!(data.len(), 50);
        assert!(data.memory_bytes.is_some());
        assert_eq!(data.z[0].len(), SearchSpace::mnist().structural_dim());
        // 50 measurements at 10 s each.
        assert!((clock.seconds() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn tegra_has_no_memory_column() {
        let (data, _) = profile_pair(&SearchSpace::cifar10(), DeviceProfile::tegra_tx1(), 40);
        assert!(data.memory_bytes.is_none());
        assert_eq!(data.power_w.len(), 40);
    }

    #[test]
    fn fitted_power_model_rmspe_in_paper_range() {
        // The paper reports RMSPE < 7% for all pairs (Table 1).
        for (space, device) in [
            (SearchSpace::mnist(), DeviceProfile::gtx_1070()),
            (SearchSpace::cifar10(), DeviceProfile::gtx_1070()),
            (SearchSpace::mnist(), DeviceProfile::tegra_tx1()),
            (SearchSpace::cifar10(), DeviceProfile::tegra_tx1()),
        ] {
            let (data, _) = profile_pair(&space, device.clone(), 100);
            let models = fit_models(&data, 10, FeatureMap::Linear).unwrap();
            let rmspe = models.power.cv_rmspe();
            assert!(
                rmspe < 0.10,
                "{} on {}: power RMSPE {:.1}% too high",
                space.name(),
                device.name,
                rmspe * 100.0
            );
        }
    }

    #[test]
    fn fitted_memory_model_rmspe_small() {
        for space in [SearchSpace::mnist(), SearchSpace::cifar10()] {
            let (data, _) = profile_pair(&space, DeviceProfile::gtx_1070(), 100);
            let models = fit_models(&data, 10, FeatureMap::Linear).unwrap();
            let mem = models.memory.expect("GTX measures memory");
            assert!(
                mem.cv_rmspe() < 0.10,
                "{}: memory RMSPE {:.1}%",
                space.name(),
                mem.cv_rmspe() * 100.0
            );
        }
    }

    #[test]
    fn model_predictions_track_measurements() {
        let (data, _) = profile_pair(&SearchSpace::cifar10(), DeviceProfile::gtx_1070(), 100);
        let models = fit_models(&data, 10, FeatureMap::Linear).unwrap();
        // On the training data itself, predictions should correlate: mean
        // absolute percentage deviation well under 20%.
        let mut total = 0.0;
        for (z, p) in data.z.iter().zip(&data.power_w) {
            total += ((models.predict_power(z).get() - p) / p).abs();
        }
        assert!((total / data.len() as f64) < 0.1);
    }

    #[test]
    fn deterministic_profiling() {
        let (a, _) = profile_pair(&SearchSpace::mnist(), DeviceProfile::gtx_1070(), 30);
        let (b, _) = profile_pair(&SearchSpace::mnist(), DeviceProfile::gtx_1070(), 30);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_data_rejected() {
        let empty = ProfiledData {
            z: vec![],
            power_w: vec![],
            memory_bytes: None,
            latency_s: vec![],
        };
        assert!(fit_models(&empty, 10, FeatureMap::Linear).is_err());
        assert!(empty.is_empty());
    }
}
