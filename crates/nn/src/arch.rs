//! Architecture descriptions with shape inference and cost accounting.
//!
//! An [`ArchSpec`] is the bridge between the hyper-parameter optimizer and
//! everything that consumes an architecture: [`crate::Network`] instantiates
//! it for real training, the training simulator ([`crate::sim`]) reads its
//! capacity, and the GPU simulator crate walks its [`LayerShapeReport`]s to
//! estimate inference power, memory and latency.

use crate::{Error, Result};

/// One stage of an architecture, in the vocabulary of the paper's AlexNet
/// variants: convolutions (20–80 features, kernel 2–5), max pooling
/// (kernel 1–3) and fully connected layers (200–700 units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// Convolution with ReLU: `features` output channels, square `kernel`,
    /// stride 1, same padding.
    Conv {
        /// Number of output feature maps.
        features: usize,
        /// Square kernel size.
        kernel: usize,
    },
    /// Non-overlapping max pooling with the given square kernel
    /// (kernel 1 is the identity).
    Pool {
        /// Pooling window and stride.
        kernel: usize,
    },
    /// Non-overlapping average pooling with the given square kernel.
    AvgPool {
        /// Pooling window and stride.
        kernel: usize,
    },
    /// Fully connected layer with ReLU.
    Dense {
        /// Number of output units.
        units: usize,
    },
    /// Inverted dropout (active during training only). The rate is stored
    /// in integer percent so the spec stays `Eq + Hash`.
    Dropout {
        /// Drop probability in percent, `0..=99`.
        rate_percent: u8,
    },
}

impl LayerSpec {
    /// Convenience constructor for [`LayerSpec::Conv`].
    pub fn conv(features: usize, kernel: usize) -> Self {
        LayerSpec::Conv { features, kernel }
    }

    /// Convenience constructor for [`LayerSpec::Pool`].
    pub fn pool(kernel: usize) -> Self {
        LayerSpec::Pool { kernel }
    }

    /// Convenience constructor for [`LayerSpec::Dense`].
    pub fn dense(units: usize) -> Self {
        LayerSpec::Dense { units }
    }

    /// Convenience constructor for [`LayerSpec::Dropout`].
    pub fn dropout(rate_percent: u8) -> Self {
        LayerSpec::Dropout { rate_percent }
    }
}

/// Per-layer cost report produced by [`ArchSpec::shape_walk`].
///
/// The GPU simulator consumes these to price each layer's compute and
/// memory traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerShapeReport {
    /// Human-readable layer kind (`"conv"`, `"pool"`, `"dense"`,
    /// `"classifier"`).
    pub kind: &'static str,
    /// Input shape `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// Output shape `(channels, height, width)`.
    pub output: (usize, usize, usize),
    /// Trainable parameters in this layer.
    pub params: usize,
    /// Multiply–accumulate-based FLOPs per example (2 FLOPs per MAC).
    pub flops: u64,
    /// Output activation element count per example.
    pub activations: usize,
}

/// A validated network architecture: input shape, class count and a stack
/// of [`LayerSpec`]s, to which a final classifier (`Dense(num_classes)`) is
/// implicitly appended.
///
/// # Examples
///
/// ```
/// use hyperpower_nn::{ArchSpec, LayerSpec};
///
/// # fn main() -> Result<(), hyperpower_nn::Error> {
/// let spec = ArchSpec::new((3, 32, 32), 10, vec![
///     LayerSpec::conv(32, 5),
///     LayerSpec::pool(2),
///     LayerSpec::dense(256),
/// ])?;
/// assert!(spec.param_count() > 0);
/// assert!(spec.flops_per_example() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArchSpec {
    input: (usize, usize, usize),
    num_classes: usize,
    layers: Vec<LayerSpec>,
}

impl ArchSpec {
    /// Creates and validates an architecture.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArchitecture`] if:
    /// * the input shape or class count is zero,
    /// * any layer has a zero dimension,
    /// * a convolution or pooling layer appears after a dense layer,
    /// * a pooling layer would shrink the feature map below 1×1.
    pub fn new(
        input: (usize, usize, usize),
        num_classes: usize,
        layers: Vec<LayerSpec>,
    ) -> Result<Self> {
        let (c, h, w) = input;
        if c == 0 || h == 0 || w == 0 {
            return Err(Error::InvalidArchitecture(format!(
                "input shape {input:?} has a zero dimension"
            )));
        }
        if num_classes == 0 {
            return Err(Error::InvalidArchitecture(
                "at least one class required".into(),
            ));
        }
        let spec = ArchSpec {
            input,
            num_classes,
            layers,
        };
        // shape_walk_checked validates layer-by-layer.
        spec.shape_walk_checked()?;
        Ok(spec)
    }

    /// Input shape `(channels, height, width)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.input
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The explicit layer stack (excluding the implicit final classifier).
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    fn shape_walk_checked(&self) -> Result<Vec<LayerShapeReport>> {
        let mut reports = Vec::with_capacity(self.layers.len() + 1);
        let (mut c, mut h, mut w) = self.input;
        let mut seen_dense = false;
        for (i, layer) in self.layers.iter().enumerate() {
            let report = match *layer {
                LayerSpec::Conv { features, kernel } => {
                    if seen_dense {
                        return Err(Error::InvalidArchitecture(format!(
                            "layer {i}: convolution after a dense layer"
                        )));
                    }
                    if features == 0 || kernel == 0 {
                        return Err(Error::InvalidArchitecture(format!(
                            "layer {i}: conv with zero features or kernel"
                        )));
                    }
                    let params = features * (c * kernel * kernel) + features;
                    let flops = 2 * (features * c * kernel * kernel) as u64 * (h * w) as u64;
                    let report = LayerShapeReport {
                        kind: "conv",
                        input: (c, h, w),
                        output: (features, h, w),
                        params,
                        flops,
                        activations: features * h * w,
                    };
                    c = features;
                    report
                }
                LayerSpec::Pool { kernel } | LayerSpec::AvgPool { kernel } => {
                    let kind = if matches!(layer, LayerSpec::Pool { .. }) {
                        "pool"
                    } else {
                        "avgpool"
                    };
                    if seen_dense {
                        return Err(Error::InvalidArchitecture(format!(
                            "layer {i}: pooling after a dense layer"
                        )));
                    }
                    if kernel == 0 {
                        return Err(Error::InvalidArchitecture(format!(
                            "layer {i}: pool with zero kernel"
                        )));
                    }
                    let (oh, ow) = (h / kernel, w / kernel);
                    if oh == 0 || ow == 0 {
                        return Err(Error::InvalidArchitecture(format!(
                            "layer {i}: pool kernel {kernel} shrinks {h}x{w} below 1x1"
                        )));
                    }
                    let report = LayerShapeReport {
                        kind,
                        input: (c, h, w),
                        output: (c, oh, ow),
                        params: 0,
                        flops: (c * oh * ow * kernel * kernel) as u64,
                        activations: c * oh * ow,
                    };
                    h = oh;
                    w = ow;
                    report
                }
                LayerSpec::Dropout { rate_percent } => {
                    if rate_percent >= 100 {
                        return Err(Error::InvalidArchitecture(format!(
                            "layer {i}: dropout rate {rate_percent}% must be below 100%"
                        )));
                    }
                    LayerShapeReport {
                        kind: "dropout",
                        input: (c, h, w),
                        output: (c, h, w),
                        params: 0,
                        flops: (c * h * w) as u64,
                        activations: c * h * w,
                    }
                }
                LayerSpec::Dense { units } => {
                    if units == 0 {
                        return Err(Error::InvalidArchitecture(format!(
                            "layer {i}: dense with zero units"
                        )));
                    }
                    seen_dense = true;
                    let in_features = c * h * w;
                    let params = units * in_features + units;
                    let report = LayerShapeReport {
                        kind: "dense",
                        input: (c, h, w),
                        output: (units, 1, 1),
                        params,
                        flops: 2 * (units * in_features) as u64,
                        activations: units,
                    };
                    c = units;
                    h = 1;
                    w = 1;
                    report
                }
            };
            reports.push(report);
        }
        // Implicit classifier.
        let in_features = c * h * w;
        reports.push(LayerShapeReport {
            kind: "classifier",
            input: (c, h, w),
            output: (self.num_classes, 1, 1),
            params: self.num_classes * in_features + self.num_classes,
            flops: 2 * (self.num_classes * in_features) as u64,
            activations: self.num_classes,
        });
        Ok(reports)
    }

    /// Per-layer shape and cost reports, including the implicit final
    /// classifier layer.
    pub fn shape_walk(&self) -> Vec<LayerShapeReport> {
        // The spec was validated at construction, so the checked walk can
        // only fail on an internal bug — loud in debug, empty in release.
        let walk = self.shape_walk_checked();
        debug_assert!(walk.is_ok(), "spec was validated at construction");
        walk.unwrap_or_default()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.shape_walk().iter().map(|r| r.params).sum()
    }

    /// Total forward-pass FLOPs per example.
    pub fn flops_per_example(&self) -> u64 {
        self.shape_walk().iter().map(|r| r.flops).sum()
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn cifar_spec() -> ArchSpec {
        ArchSpec::new(
            (3, 32, 32),
            10,
            vec![
                LayerSpec::conv(32, 5),
                LayerSpec::pool(2),
                LayerSpec::conv(64, 3),
                LayerSpec::pool(2),
                LayerSpec::dense(256),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shape_walk_tracks_dimensions() {
        let spec = cifar_spec();
        let walk = spec.shape_walk();
        assert_eq!(walk.len(), 6); // 5 explicit + classifier
        assert_eq!(walk[0].output, (32, 32, 32));
        assert_eq!(walk[1].output, (32, 16, 16));
        assert_eq!(walk[2].output, (64, 16, 16));
        assert_eq!(walk[3].output, (64, 8, 8));
        assert_eq!(walk[4].output, (256, 1, 1));
        assert_eq!(walk[5].output, (10, 1, 1));
        assert_eq!(walk[5].kind, "classifier");
    }

    #[test]
    fn conv_param_and_flop_formulas() {
        let spec = ArchSpec::new((3, 8, 8), 2, vec![LayerSpec::conv(4, 3)]).unwrap();
        let walk = spec.shape_walk();
        // params = 4*(3*9) + 4 = 112
        assert_eq!(walk[0].params, 112);
        // flops = 2 * 4*3*9 * 64 = 13824
        assert_eq!(walk[0].flops, 13_824);
    }

    #[test]
    fn dense_param_formula() {
        let spec = ArchSpec::new((1, 4, 4), 3, vec![LayerSpec::dense(10)]).unwrap();
        let walk = spec.shape_walk();
        assert_eq!(walk[0].params, 10 * 16 + 10);
        assert_eq!(walk[1].params, 3 * 10 + 3);
        assert_eq!(spec.param_count(), 170 + 33);
    }

    #[test]
    fn bigger_nets_cost_more() {
        let small = ArchSpec::new((3, 32, 32), 10, vec![LayerSpec::conv(20, 2)]).unwrap();
        let large = ArchSpec::new((3, 32, 32), 10, vec![LayerSpec::conv(80, 5)]).unwrap();
        assert!(large.param_count() > small.param_count());
        assert!(large.flops_per_example() > small.flops_per_example());
    }

    #[test]
    fn pool_shrinks_below_one_rejected() {
        let err =
            ArchSpec::new((1, 4, 4), 2, vec![LayerSpec::pool(3), LayerSpec::pool(3)]).unwrap_err();
        assert!(matches!(err, Error::InvalidArchitecture(_)));
    }

    #[test]
    fn conv_after_dense_rejected() {
        let err = ArchSpec::new(
            (1, 8, 8),
            2,
            vec![LayerSpec::dense(16), LayerSpec::conv(4, 3)],
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidArchitecture(_)));
        let err = ArchSpec::new((1, 8, 8), 2, vec![LayerSpec::dense(16), LayerSpec::pool(2)])
            .unwrap_err();
        assert!(matches!(err, Error::InvalidArchitecture(_)));
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(ArchSpec::new((0, 8, 8), 2, vec![]).is_err());
        assert!(ArchSpec::new((1, 8, 8), 0, vec![]).is_err());
        assert!(ArchSpec::new((1, 8, 8), 2, vec![LayerSpec::conv(0, 3)]).is_err());
        assert!(ArchSpec::new((1, 8, 8), 2, vec![LayerSpec::dense(0)]).is_err());
        assert!(ArchSpec::new((1, 8, 8), 2, vec![LayerSpec::pool(0)]).is_err());
    }

    #[test]
    fn avg_pool_and_dropout_in_shape_walk() {
        let spec = ArchSpec::new(
            (3, 32, 32),
            10,
            vec![
                LayerSpec::conv(16, 3),
                LayerSpec::AvgPool { kernel: 2 },
                LayerSpec::dense(64),
                LayerSpec::dropout(50),
            ],
        )
        .unwrap();
        let walk = spec.shape_walk();
        assert_eq!(walk[1].kind, "avgpool");
        assert_eq!(walk[1].output, (16, 16, 16));
        assert_eq!(walk[3].kind, "dropout");
        assert_eq!(walk[3].output, (64, 1, 1));
        assert_eq!(walk[3].params, 0);
    }

    #[test]
    fn dropout_rate_validation() {
        assert!(ArchSpec::new((1, 4, 4), 2, vec![LayerSpec::dropout(99)]).is_ok());
        assert!(ArchSpec::new((1, 4, 4), 2, vec![LayerSpec::dropout(100)]).is_err());
    }

    #[test]
    fn avg_pool_after_dense_rejected() {
        let err = ArchSpec::new(
            (1, 8, 8),
            2,
            vec![LayerSpec::dense(16), LayerSpec::AvgPool { kernel: 2 }],
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidArchitecture(_)));
    }

    #[test]
    fn empty_stack_is_linear_classifier() {
        let spec = ArchSpec::new((1, 28, 28), 10, vec![]).unwrap();
        let walk = spec.shape_walk();
        assert_eq!(walk.len(), 1);
        assert_eq!(walk[0].params, 10 * 784 + 10);
    }
}
