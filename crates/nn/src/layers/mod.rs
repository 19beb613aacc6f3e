//! Network layers with full forward/backward passes.
//!
//! Each layer caches whatever its backward pass needs during `forward`, and
//! accumulates parameter gradients during `backward`; [`Layer::update`]
//! applies one SGD step and clears the gradients. This mirrors the
//! train-step structure of Caffe, the framework the paper uses.

mod activation;
mod conv;
mod dense;
mod dropout;
mod gemm;
mod pool;

pub use activation::{Flatten, Relu};
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use pool::{AvgPool2d, MaxPool2d};

use crate::{Tensor, TrainingHyper};

/// A differentiable network layer.
///
/// The trait is object-safe; [`crate::Network`] stores layers as
/// `Box<dyn Layer>`.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output, caching anything `backward` will need.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates gradients: consumes `∂L/∂output`, accumulates parameter
    /// gradients internally, and returns `∂L/∂input`.
    ///
    /// Must be called after a `forward` with the matching input.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Applies one SGD step to the layer's parameters (if any) and clears
    /// accumulated gradients. The default implementation is a no-op for
    /// parameter-free layers.
    fn update(&mut self, _hyper: &TrainingHyper) {}

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Switches between training and inference behaviour. Only layers
    /// that behave differently at test time (e.g. [`Dropout`]) override
    /// this; the default is a no-op.
    fn set_training(&mut self, _training: bool) {}

    /// The layer's trainable parameters, flattened (weights then biases).
    /// Empty for parameter-free layers. Used by network checkpointing.
    fn param_values(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Replaces the layer's trainable parameters from a flattened buffer
    /// (the inverse of [`Layer::param_values`]).
    ///
    /// # Panics
    ///
    /// Implementations panic if `values.len() != self.param_count()`.
    fn set_param_values(&mut self, values: &[f32]) {
        assert!(
            values.is_empty(),
            "layer {} has no parameters to set",
            self.name()
        );
    }

    /// Short human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;
}

/// He-normal initialisation standard deviation for a layer with the given
/// fan-in. Used by [`Conv2d`] and [`Dense`].
pub(crate) fn he_std(fan_in: usize) -> f64 {
    (2.0 / fan_in.max(1) as f64).sqrt()
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
pub(crate) fn standard_normal(rng: &mut impl rand::RngExt) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
pub(crate) use tests::check_input_gradient;

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn he_std_decreases_with_fan_in() {
        assert!(he_std(10) > he_std(100));
        assert!((he_std(2) - 1.0).abs() < 1e-12);
        assert!(he_std(0).is_finite());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// Finite-difference gradient check, shared by the layer tests.
    ///
    /// Verifies `∂L/∂input` for `L = Σ output·seed_grad` against central
    /// differences.
    pub(crate) fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f64) {
        let out = layer.forward(input);
        // Seed gradient: deterministic pseudo-random pattern.
        let seed: Vec<f32> = (0..out.len())
            .map(|i| ((i * 2654435761 % 97) as f32 / 97.0) - 0.5)
            .collect();
        let (n, c, h, w) = out.shape();
        let grad_out = Tensor::from_vec(n, c, h, w, seed.clone());
        let grad_in = layer.backward(&grad_out);

        let loss = |layer: &mut dyn Layer, input: &Tensor| -> f64 {
            let out = layer.forward(input);
            out.as_slice()
                .iter()
                .zip(&seed)
                .map(|(o, s)| (*o as f64) * (*s as f64))
                .sum()
        };

        let eps = 1e-3;
        let (n, c, h, w) = input.shape();
        // Check a deterministic subset of positions to keep tests fast.
        let stride = (input.len() / 12).max(1);
        for flat in (0..input.len()).step_by(stride) {
            let mut plus = input.clone();
            plus.as_mut_slice()[flat] += eps as f32;
            let mut minus = input.clone();
            minus.as_mut_slice()[flat] -= eps as f32;
            let numeric = (loss(layer, &plus) - loss(layer, &minus)) / (2.0 * eps);
            let analytic = grad_in.as_slice()[flat] as f64;
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "gradient mismatch at {flat} (shape {n},{c},{h},{w}): numeric {numeric}, analytic {analytic}"
            );
        }
    }
}
