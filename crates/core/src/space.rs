//! Hyper-parameter search spaces and configuration en/decoding.
//!
//! The paper optimizes AlexNet variants with **six** (MNIST) and
//! **thirteen** (CIFAR-10) hyper-parameters: per convolution layer the
//! feature count (20–80) and kernel size (2–5), per pooling layer the
//! kernel size (1–3), fully connected widths (200–700), plus learning rate
//! (0.001–0.1), momentum (0.8–0.95) and weight decay (0.0001–0.01).
//!
//! Searchers operate on the **unit hypercube**: a [`Config`] is a vector in
//! `[0, 1]ᵈ` and the [`SearchSpace`] decodes it into a concrete
//! [`ArchSpec`] + [`TrainingHyper`] pair. The *structural* subset `z` of
//! the decoded values — everything that shapes the network, as opposed to
//! the training dynamics — is what the predictive power/memory models
//! consume (paper §3.3).

use hyperpower_nn::{ArchSpec, LayerSpec, TrainingHyper};
use rand::{Rng, RngExt};

use crate::{Error, Result};

/// One dimension of a search space.
#[derive(Debug, Clone, PartialEq)]
pub enum Dimension {
    /// An integer range `lo..=hi`, decoded by stratified rounding.
    Integer {
        /// Dimension name (for reports).
        name: &'static str,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Whether this dimension is structural (affects power/memory).
        structural: bool,
    },
    /// A log-uniform continuous range (e.g. learning rate).
    LogUniform {
        /// Dimension name (for reports).
        name: &'static str,
        /// Lower bound (positive).
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// A uniform continuous range (e.g. momentum).
    Uniform {
        /// Dimension name (for reports).
        name: &'static str,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl Dimension {
    /// The dimension's name.
    pub fn name(&self) -> &'static str {
        match self {
            Dimension::Integer { name, .. }
            | Dimension::LogUniform { name, .. }
            | Dimension::Uniform { name, .. } => name,
        }
    }

    /// Whether the dimension is structural (enters the `z` vector).
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            Dimension::Integer {
                structural: true,
                ..
            }
        )
    }

    /// Decodes a unit-interval coordinate into the dimension's value.
    ///
    /// # Panics
    ///
    /// Debug-asserts `u ∈ [0, 1]`.
    pub fn decode(&self, u: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&u));
        match *self {
            Dimension::Integer { lo, hi, .. } => {
                let span = (hi - lo + 1) as f64;
                let v = lo + (u * span).floor() as i64;
                v.min(hi) as f64
            }
            Dimension::LogUniform { lo, hi, .. } => (lo.ln() + u * (hi.ln() - lo.ln())).exp(),
            Dimension::Uniform { lo, hi, .. } => lo + u * (hi - lo),
        }
    }

    fn validate(&self) -> Result<()> {
        let ok = match *self {
            Dimension::Integer { lo, hi, .. } => lo <= hi,
            Dimension::LogUniform { lo, hi, .. } => lo > 0.0 && lo < hi && hi.is_finite(),
            Dimension::Uniform { lo, hi, .. } => lo < hi && lo.is_finite() && hi.is_finite(),
        };
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidSpace(format!(
                "dimension {} has an invalid range",
                self.name()
            )))
        }
    }
}

/// A point in the unit hypercube, i.e. an *encoded* hyper-parameter
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    unit: Vec<f64>,
}

impl Config {
    /// Wraps a unit-hypercube vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any component is outside
    /// `[0, 1]` or non-finite.
    pub fn new(unit: Vec<f64>) -> Result<Self> {
        if unit.iter().any(|u| !(0.0..=1.0).contains(u)) {
            return Err(Error::InvalidConfig("components must lie in [0, 1]".into()));
        }
        Ok(Config { unit })
    }

    /// Draws a uniform random configuration of dimension `d`.
    pub fn random(rng: &mut impl Rng, d: usize) -> Self {
        Config {
            unit: (0..d).map(|_| rng.random_range(0.0..1.0)).collect(),
        }
    }

    /// The unit-hypercube coordinates.
    pub fn unit(&self) -> &[f64] {
        &self.unit
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.unit.len()
    }

    /// A Gaussian perturbation of this configuration, clamped to the unit
    /// cube — the proposal rule of the paper's Rand-Walk method
    /// (`x_{n+1} ~ N(x⁺, σ₀²)`).
    pub fn gaussian_step(&self, sigma: f64, rng: &mut impl Rng) -> Config {
        let unit = self
            .unit
            .iter()
            .map(|u| {
                let n = {
                    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.random_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                };
                (u + sigma * n).clamp(0.0, 1.0)
            })
            .collect();
        Config { unit }
    }
}

/// A decoded configuration: the concrete network and training settings a
/// [`Config`] denotes, plus the raw decoded values.
#[derive(Debug, Clone)]
pub struct Decoded {
    /// The network architecture.
    pub arch: ArchSpec,
    /// The training hyper-parameters.
    pub hyper: TrainingHyper,
    /// All decoded dimension values, in space order.
    pub values: Vec<f64>,
    /// The structural sub-vector `z` (inputs to the power/memory models).
    pub structural: Vec<f64>,
}

/// Which network template a space decodes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Template {
    /// 1 conv + 1 pool + 1 FC on 28×28×1 (6 hyper-parameters).
    MnistAlexNet,
    /// 3×(conv+pool) + 1 FC on 32×32×3 (13 hyper-parameters).
    CifarAlexNet,
}

/// A named hyper-parameter search space bound to a network template.
///
/// # Examples
///
/// ```
/// use hyperpower::{Config, SearchSpace};
///
/// # fn main() -> Result<(), hyperpower::Error> {
/// let space = SearchSpace::mnist();
/// assert_eq!(space.dim(), 6);
/// let config = Config::new(vec![0.5; 6])?;
/// let decoded = space.decode(&config)?;
/// assert_eq!(decoded.arch.input_shape(), (1, 28, 28));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SearchSpace {
    name: String,
    template: Template,
    dims: Vec<Dimension>,
    fixed_weight_decay: Option<f64>,
}

impl SearchSpace {
    /// The paper's 6-dimensional MNIST space: one conv block and one FC
    /// layer (weight decay fixed at 5·10⁻⁴).
    pub fn mnist() -> Self {
        SearchSpace {
            name: "mnist".into(),
            template: Template::MnistAlexNet,
            dims: vec![
                Dimension::Integer {
                    name: "conv1_features",
                    lo: 20,
                    hi: 80,
                    structural: true,
                },
                Dimension::Integer {
                    name: "conv1_kernel",
                    lo: 2,
                    hi: 5,
                    structural: true,
                },
                Dimension::Integer {
                    name: "pool1_kernel",
                    lo: 1,
                    hi: 3,
                    structural: true,
                },
                Dimension::Integer {
                    name: "fc1_units",
                    lo: 200,
                    hi: 700,
                    structural: true,
                },
                Dimension::LogUniform {
                    name: "learning_rate",
                    lo: 1e-3,
                    hi: 0.1,
                },
                Dimension::Uniform {
                    name: "momentum",
                    lo: 0.8,
                    hi: 0.95,
                },
            ],
            fixed_weight_decay: Some(5e-4),
        }
    }

    /// The paper's 13-dimensional CIFAR-10 space: three conv blocks, one FC
    /// layer and all three training hyper-parameters.
    pub fn cifar10() -> Self {
        SearchSpace {
            name: "cifar10".into(),
            template: Template::CifarAlexNet,
            dims: vec![
                Dimension::Integer {
                    name: "conv1_features",
                    lo: 20,
                    hi: 80,
                    structural: true,
                },
                Dimension::Integer {
                    name: "conv1_kernel",
                    lo: 2,
                    hi: 5,
                    structural: true,
                },
                Dimension::Integer {
                    name: "pool1_kernel",
                    lo: 1,
                    hi: 3,
                    structural: true,
                },
                Dimension::Integer {
                    name: "conv2_features",
                    lo: 20,
                    hi: 80,
                    structural: true,
                },
                Dimension::Integer {
                    name: "conv2_kernel",
                    lo: 2,
                    hi: 5,
                    structural: true,
                },
                Dimension::Integer {
                    name: "pool2_kernel",
                    lo: 1,
                    hi: 3,
                    structural: true,
                },
                Dimension::Integer {
                    name: "conv3_features",
                    lo: 20,
                    hi: 80,
                    structural: true,
                },
                Dimension::Integer {
                    name: "conv3_kernel",
                    lo: 2,
                    hi: 5,
                    structural: true,
                },
                Dimension::Integer {
                    name: "pool3_kernel",
                    lo: 1,
                    hi: 3,
                    structural: true,
                },
                Dimension::Integer {
                    name: "fc1_units",
                    lo: 200,
                    hi: 700,
                    structural: true,
                },
                Dimension::LogUniform {
                    name: "learning_rate",
                    lo: 1e-3,
                    hi: 0.1,
                },
                Dimension::Uniform {
                    name: "momentum",
                    lo: 0.8,
                    hi: 0.95,
                },
                Dimension::LogUniform {
                    name: "weight_decay",
                    lo: 1e-4,
                    hi: 1e-2,
                },
            ],
            fixed_weight_decay: None,
        }
    }

    /// Space name (`"mnist"` or `"cifar10"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimensionality of the unit hypercube.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// The dimensions, in decode order.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dims
    }

    /// Number of structural dimensions (length of `z`).
    pub fn structural_dim(&self) -> usize {
        self.dims.iter().filter(|d| d.is_structural()).count()
    }

    /// Validates the space definition. Called by the built-in constructors'
    /// tests; public so downstream spaces can self-check.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpace`] for empty spaces or bad ranges.
    pub fn validate(&self) -> Result<()> {
        if self.dims.is_empty() {
            return Err(Error::InvalidSpace("no dimensions".into()));
        }
        for d in &self.dims {
            d.validate()?;
        }
        Ok(())
    }

    /// Decodes a configuration into a concrete architecture and training
    /// hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on dimension mismatch; architecture
    /// assembly errors are impossible for in-range values of the built-in
    /// templates but are propagated defensively.
    pub fn decode(&self, config: &Config) -> Result<Decoded> {
        if config.dim() != self.dim() {
            return Err(Error::InvalidConfig(format!(
                "expected {} dimensions, got {}",
                self.dim(),
                config.dim()
            )));
        }
        let values: Vec<f64> = self
            .dims
            .iter()
            .zip(config.unit())
            .map(|(d, u)| d.decode(*u))
            .collect();
        let structural: Vec<f64> = self
            .dims
            .iter()
            .zip(&values)
            .filter(|(d, _)| d.is_structural())
            .map(|(_, v)| *v)
            .collect();

        let v = |name: &str| -> f64 {
            self.dims
                .iter()
                .position(|d| d.name() == name)
                .map(|i| values[i])
                .unwrap_or_else(|| panic!("template references unknown dimension {name}"))
        };

        let (arch, weight_decay) = match self.template {
            Template::MnistAlexNet => {
                let arch = ArchSpec::new(
                    (1, 28, 28),
                    10,
                    vec![
                        LayerSpec::conv(v("conv1_features") as usize, v("conv1_kernel") as usize),
                        LayerSpec::pool(v("pool1_kernel") as usize),
                        LayerSpec::dense(v("fc1_units") as usize),
                    ],
                )?;
                (arch, self.fixed_weight_decay.unwrap_or(5e-4))
            }
            Template::CifarAlexNet => {
                let arch = ArchSpec::new(
                    (3, 32, 32),
                    10,
                    vec![
                        LayerSpec::conv(v("conv1_features") as usize, v("conv1_kernel") as usize),
                        LayerSpec::pool(v("pool1_kernel") as usize),
                        LayerSpec::conv(v("conv2_features") as usize, v("conv2_kernel") as usize),
                        LayerSpec::pool(v("pool2_kernel") as usize),
                        LayerSpec::conv(v("conv3_features") as usize, v("conv3_kernel") as usize),
                        LayerSpec::pool(v("pool3_kernel") as usize),
                        LayerSpec::dense(v("fc1_units") as usize),
                    ],
                )?;
                (arch, v("weight_decay"))
            }
        };
        let hyper = TrainingHyper::new(v("learning_rate"), v("momentum"), weight_decay)?;
        Ok(Decoded {
            arch,
            hyper,
            values,
            structural,
        })
    }

    /// Extracts the structural sub-vector `z` without building the network.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on dimension mismatch.
    pub fn structural_values(&self, config: &Config) -> Result<Vec<f64>> {
        let mut z = Vec::new();
        self.structural_values_into(config.unit(), &mut z)?;
        Ok(z)
    }

    /// [`SearchSpace::structural_values`] of the unit-cube point `unit`,
    /// decoded into `z` (cleared first): a caller that screens many points
    /// reuses one buffer instead of allocating one per point.
    pub(crate) fn structural_values_into(&self, unit: &[f64], z: &mut Vec<f64>) -> Result<()> {
        if unit.len() != self.dim() {
            return Err(Error::InvalidConfig(format!(
                "expected {} dimensions, got {}",
                self.dim(),
                unit.len()
            )));
        }
        z.clear();
        z.extend(
            self.dims
                .iter()
                .zip(unit)
                .filter(|(d, _)| d.is_structural())
                .map(|(d, u)| d.decode(*u)),
        );
        Ok(())
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_dimensionalities() {
        assert_eq!(SearchSpace::mnist().dim(), 6);
        assert_eq!(SearchSpace::cifar10().dim(), 13);
        SearchSpace::mnist().validate().unwrap();
        SearchSpace::cifar10().validate().unwrap();
    }

    #[test]
    fn structural_subset_excludes_training_dims() {
        let mnist = SearchSpace::mnist();
        assert_eq!(mnist.structural_dim(), 4);
        let cifar = SearchSpace::cifar10();
        assert_eq!(cifar.structural_dim(), 10);
    }

    #[test]
    fn integer_decode_covers_range_uniformly() {
        let d = Dimension::Integer {
            name: "k",
            lo: 2,
            hi: 5,
            structural: true,
        };
        assert_eq!(d.decode(0.0), 2.0);
        assert_eq!(d.decode(0.24), 2.0);
        assert_eq!(d.decode(0.26), 3.0);
        assert_eq!(d.decode(0.99), 5.0);
        assert_eq!(d.decode(1.0), 5.0); // clamped at the top
    }

    #[test]
    fn log_uniform_decode_endpoints() {
        let d = Dimension::LogUniform {
            name: "lr",
            lo: 1e-3,
            hi: 0.1,
        };
        assert!((d.decode(0.0) - 1e-3).abs() < 1e-12);
        assert!((d.decode(1.0) - 0.1).abs() < 1e-12);
        // Midpoint in log space is the geometric mean.
        assert!((d.decode(0.5) - 0.01).abs() < 1e-10);
    }

    #[test]
    fn uniform_decode_endpoints() {
        let d = Dimension::Uniform {
            name: "m",
            lo: 0.8,
            hi: 0.95,
        };
        assert_eq!(d.decode(0.0), 0.8);
        assert!((d.decode(1.0) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn all_corner_configs_decode_to_valid_networks() {
        // Every corner of the hypercube must produce a valid architecture
        // (the pool cascade must never shrink feature maps below 1x1).
        for space in [SearchSpace::mnist(), SearchSpace::cifar10()] {
            for corner in [0.0, 1.0] {
                let config = Config::new(vec![corner; space.dim()]).unwrap();
                let decoded = space.decode(&config).unwrap();
                assert!(decoded.arch.param_count() > 0);
            }
        }
    }

    #[test]
    fn random_configs_decode_to_valid_networks() {
        let mut rng = StdRng::seed_from_u64(5);
        for space in [SearchSpace::mnist(), SearchSpace::cifar10()] {
            for _ in 0..200 {
                let config = Config::random(&mut rng, space.dim());
                let decoded = space.decode(&config).unwrap();
                assert_eq!(decoded.values.len(), space.dim());
                assert_eq!(decoded.structural.len(), space.structural_dim());
                let lr = decoded.hyper.learning_rate();
                assert!((1e-3..=0.1).contains(&lr));
            }
        }
    }

    #[test]
    fn structural_values_match_decode() {
        let space = SearchSpace::cifar10();
        let mut rng = StdRng::seed_from_u64(6);
        let config = Config::random(&mut rng, space.dim());
        let decoded = space.decode(&config).unwrap();
        assert_eq!(
            space.structural_values(&config).unwrap(),
            decoded.structural
        );
    }

    #[test]
    fn reused_structural_buffer_matches_fresh_decode() {
        // One buffer across both spaces and many points: nothing stale from
        // an earlier, longer or shorter, decode may survive.
        let mut rng = StdRng::seed_from_u64(9);
        let mut z = vec![f64::NAN; 32];
        for _ in 0..50 {
            for space in [SearchSpace::cifar10(), SearchSpace::mnist()] {
                let config = Config::random(&mut rng, space.dim());
                space.structural_values_into(config.unit(), &mut z).unwrap();
                let decoded = space.decode(&config).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&z), bits(&decoded.structural));
            }
        }
        let err = SearchSpace::mnist().structural_values_into(&[0.5; 13], &mut z);
        assert!(matches!(err, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn config_validation() {
        assert!(Config::new(vec![0.0, 0.5, 1.0]).is_ok());
        assert!(Config::new(vec![-0.1]).is_err());
        assert!(Config::new(vec![1.1]).is_err());
        assert!(Config::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let space = SearchSpace::mnist();
        let config = Config::new(vec![0.5; 3]).unwrap();
        assert!(space.decode(&config).is_err());
        assert!(space.structural_values(&config).is_err());
    }

    #[test]
    fn gaussian_step_stays_in_cube() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = Config::new(vec![0.05, 0.95, 0.5]).unwrap();
        for _ in 0..100 {
            let step = base.gaussian_step(0.3, &mut rng);
            assert!(step.unit().iter().all(|u| (0.0..=1.0).contains(u)));
        }
    }

    #[test]
    fn gaussian_step_is_local_for_small_sigma() {
        let mut rng = StdRng::seed_from_u64(8);
        let base = Config::new(vec![0.5; 5]).unwrap();
        let step = base.gaussian_step(0.01, &mut rng);
        for (a, b) in base.unit().iter().zip(step.unit()) {
            assert!((a - b).abs() < 0.1);
        }
    }

    #[test]
    fn bad_dimension_ranges_rejected() {
        let d = Dimension::Integer {
            name: "bad",
            lo: 5,
            hi: 2,
            structural: false,
        };
        assert!(d.validate().is_err());
        let d = Dimension::LogUniform {
            name: "bad",
            lo: 0.0,
            hi: 1.0,
        };
        assert!(d.validate().is_err());
        let d = Dimension::Uniform {
            name: "bad",
            lo: 1.0,
            hi: 1.0,
        };
        assert!(d.validate().is_err());
    }

    #[test]
    fn cifar_max_pooling_cascade_valid() {
        // pool kernels 3,3,3: 32 -> 10 -> 3 -> 1.
        let space = SearchSpace::cifar10();
        let mut unit = vec![0.5; 13];
        unit[2] = 0.99; // pool1 = 3
        unit[5] = 0.99; // pool2 = 3
        unit[8] = 0.99; // pool3 = 3
        let config = Config::new(unit).unwrap();
        let decoded = space.decode(&config).unwrap();
        let walk = decoded.arch.shape_walk();
        let last_pool = walk.iter().rev().find(|l| l.kind == "pool").unwrap();
        assert_eq!(last_pool.output.1, 1);
    }
}
