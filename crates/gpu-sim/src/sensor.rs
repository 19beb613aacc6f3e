use std::fmt;

use hyperpower_linalg::units::{Mebibytes, Seconds, Watts};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use hyperpower_nn::ArchSpec;

use crate::{analyze, DeviceProfile, InferenceReport};

/// Errors returned by the measurement interface.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MeasurementError {
    /// The platform does not expose this measurement. The Tegra TX1 has no
    /// NVML memory API and `tegrastats` reports utilisation rather than
    /// memory consumption (paper footnote 1).
    Unsupported {
        /// Device name.
        device: String,
        /// Name of the unsupported quantity, e.g. `"memory"`.
        quantity: &'static str,
    },
}

impl fmt::Display for MeasurementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasurementError::Unsupported { device, quantity } => {
                write!(f, "device {device} does not support {quantity} measurement")
            }
        }
    }
}

impl std::error::Error for MeasurementError {}

/// A simulated GPU with NVML-like measurement endpoints.
///
/// Wraps the noise-free [`analyze`] ground truth with per-measurement
/// Gaussian sensor noise, the way repeated NVML polls of a real board
/// scatter around the true draw. Measurements consume RNG state, so two
/// consecutive measurements of the same network differ slightly — and the
/// whole sequence is reproducible from the constructor seed.
///
/// Each measurement reads the network's noise-free report, which
/// [`Gpu::analyze`] computes once per network: a caller that measures one
/// network's power, memory and latency analyzes it once.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Gpu {
    device: DeviceProfile,
    rng: StdRng,
}

impl Gpu {
    /// Creates a simulated GPU with a deterministic sensor-noise stream.
    pub fn new(device: DeviceProfile, seed: u64) -> Self {
        Gpu {
            device,
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The device profile.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Noise-free analysis of a network on this device (the "infinite
    /// averaging" limit of the sensors).
    pub fn analyze(&self, spec: &ArchSpec) -> InferenceReport {
        analyze(&self.device, spec)
    }

    /// One noisy power measurement of a network whose noise-free report on
    /// this device is `truth` ([`Gpu::analyze`]), clamped to the physical
    /// envelope `[idle, max]`.
    pub fn measure_power(&mut self, truth: &InferenceReport) -> Watts {
        let noisy = truth.power + Watts(self.device.power_noise_w * self.standard_normal());
        noisy.clamp(
            Watts(self.device.idle_power_w),
            Watts(self.device.max_power_w),
        )
    }

    /// One noisy memory measurement of a network whose noise-free report on
    /// this device is `truth` ([`Gpu::analyze`]).
    ///
    /// # Errors
    ///
    /// Returns [`MeasurementError::Unsupported`] on platforms without a
    /// memory API (Tegra TX1).
    pub fn measure_memory(
        &mut self,
        truth: &InferenceReport,
    ) -> Result<Mebibytes, MeasurementError> {
        if !self.device.supports_memory_measurement {
            return Err(MeasurementError::Unsupported {
                device: self.device.name.clone(),
                quantity: "memory",
            });
        }
        let noise = Mebibytes(self.device.memory_noise_mib * self.standard_normal());
        Ok((truth.memory + noise).max(Mebibytes::ZERO))
    }

    /// One noisy latency measurement per example of a network whose
    /// noise-free report on this device is `truth` ([`Gpu::analyze`]):
    /// timing a few inference batches scatters by ~2% on real systems.
    pub fn measure_latency(&mut self, truth: &InferenceReport) -> Seconds {
        (truth.latency * (1.0 + 0.02 * self.standard_normal())).max(truth.latency * 0.5)
    }

    fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
// Exact float equality is intended here: determinism asserts bit-identical readings.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use hyperpower_nn::LayerSpec;

    fn spec() -> ArchSpec {
        ArchSpec::new(
            (3, 32, 32),
            10,
            vec![
                LayerSpec::conv(48, 3),
                LayerSpec::pool(2),
                LayerSpec::dense(300),
            ],
        )
        .unwrap()
    }

    #[test]
    fn power_measurements_scatter_around_truth() {
        let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), 1);
        let report = gpu.analyze(&spec());
        let truth = report.power;
        let n = 200;
        let measurements: Vec<Watts> = (0..n).map(|_| gpu.measure_power(&report)).collect();
        let mean = measurements.iter().copied().sum::<Watts>() / n as f64;
        assert!(
            (mean - truth).get().abs() < 0.5,
            "mean {mean} vs truth {truth}"
        );
        // Noise is real: not all identical.
        assert!(measurements.iter().any(|m| (*m - truth).get().abs() > 0.1));
    }

    #[test]
    fn power_stays_in_envelope() {
        let mut gpu = Gpu::new(DeviceProfile::tegra_tx1(), 2);
        let report = gpu.analyze(&spec());
        for _ in 0..100 {
            let p = gpu.measure_power(&report);
            assert!(p >= Watts(1.8) && p <= Watts(14.5), "power {p}");
        }
    }

    #[test]
    fn tegra_memory_unsupported() {
        let mut gpu = Gpu::new(DeviceProfile::tegra_tx1(), 3);
        let err = gpu.measure_memory(&gpu.analyze(&spec())).unwrap_err();
        assert!(matches!(
            err,
            MeasurementError::Unsupported {
                quantity: "memory",
                ..
            }
        ));
        assert!(err.to_string().contains("Tegra"));
    }

    #[test]
    fn gtx_memory_supported_and_noisy() {
        let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), 4);
        let report = gpu.analyze(&spec());
        let truth = report.memory;
        let a = gpu.measure_memory(&report).unwrap();
        let b = gpu.measure_memory(&report).unwrap();
        assert_ne!(a, b, "sensor noise expected");
        assert!(
            (a - truth).get().abs() < 100.0,
            "reading {a} vs truth {truth}"
        );
    }

    #[test]
    fn seeded_reproducibility() {
        let mut a = Gpu::new(DeviceProfile::gtx_1070(), 9);
        let mut b = Gpu::new(DeviceProfile::gtx_1070(), 9);
        let report = a.analyze(&spec());
        for _ in 0..10 {
            assert_eq!(a.measure_power(&report), b.measure_power(&report));
        }
    }
}
