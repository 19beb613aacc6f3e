use rand::rngs::StdRng;
use rand::SeedableRng;

use hyperpower_data::{Dataset, Split};

use crate::arch::{ArchSpec, LayerSpec};
use crate::layers::{AvgPool2d, Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2d, Relu};
use crate::{Result, SoftmaxCrossEntropy, Tensor, TrainingHyper};

/// A sequential network instantiated from an [`ArchSpec`].
///
/// Layers are stored as boxed [`Layer`] objects: conv/dense stages get a
/// ReLU appended, a [`Flatten`] is inserted before the first dense layer,
/// and the spec's implicit classifier head is materialised as a final
/// [`Dense`] without activation (the loss applies softmax).
///
/// # Examples
///
/// See the crate-level example for an end-to-end training loop.
#[derive(Debug)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    input_shape: (usize, usize, usize),
    num_classes: usize,
    loss: SoftmaxCrossEntropy,
}

impl Network {
    /// Instantiates a network with He-initialised weights drawn from a
    /// seeded RNG, so the same `(spec, seed)` always yields the same
    /// initial parameters.
    ///
    /// # Errors
    ///
    /// Currently infallible for a validated spec; the `Result` reserves the
    /// right to fail on future spec extensions.
    //
    // Derived-stream boundary: the RNG is minted from the explicit `seed`
    // argument, never ambient state, so any caller stays deterministic
    // per (spec, seed). analyze::allow(R11)
    pub fn from_spec(spec: &ArchSpec, seed: u64) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let (mut c, mut h, mut w) = spec.input_shape();
        let mut flattened = false;
        for layer in spec.layers() {
            match *layer {
                LayerSpec::Conv { features, kernel } => {
                    layers.push(Box::new(Conv2d::new(c, features, kernel, &mut rng)));
                    layers.push(Box::new(Relu::new()));
                    c = features;
                }
                LayerSpec::Pool { kernel } => {
                    let pool = MaxPool2d::new(kernel);
                    let (oh, ow) = pool.output_hw(h, w);
                    layers.push(Box::new(pool));
                    h = oh;
                    w = ow;
                }
                LayerSpec::AvgPool { kernel } => {
                    let pool = AvgPool2d::new(kernel);
                    let (oh, ow) = pool.output_hw(h, w);
                    layers.push(Box::new(pool));
                    h = oh;
                    w = ow;
                }
                LayerSpec::Dropout { rate_percent } => {
                    use rand::RngExt;
                    let layer_seed: u64 = rng.random();
                    layers.push(Box::new(Dropout::new(
                        rate_percent as f64 / 100.0,
                        layer_seed,
                    )));
                }
                LayerSpec::Dense { units } => {
                    if !flattened {
                        layers.push(Box::new(Flatten::new()));
                        flattened = true;
                        c *= h * w;
                        h = 1;
                        w = 1;
                    }
                    layers.push(Box::new(Dense::new(c, units, &mut rng)));
                    layers.push(Box::new(Relu::new()));
                    c = units;
                }
            }
        }
        if !flattened {
            layers.push(Box::new(Flatten::new()));
            c *= h * w;
        }
        layers.push(Box::new(Dense::new(c, spec.num_classes(), &mut rng)));

        Ok(Network {
            layers,
            input_shape: spec.input_shape(),
            num_classes: spec.num_classes(),
            loss: SoftmaxCrossEntropy::new(),
        })
    }

    /// The layer stack (used by checkpointing).
    pub(crate) fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Total trainable parameters across all layers.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass: raw class logits for a batch.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut activation = input.clone();
        for layer in &mut self.layers {
            activation = layer.forward(&activation);
        }
        activation
    }

    /// One SGD step on a single mini-batch; returns the batch loss.
    ///
    /// # Panics
    ///
    /// Panics if the batch shapes are inconsistent with the network.
    pub fn train_batch(&mut self, images: &[f32], labels: &[usize], hyper: &TrainingHyper) -> f64 {
        for layer in &mut self.layers {
            layer.set_training(true);
        }
        let (c, h, w) = self.input_shape;
        let n = labels.len();
        let input = Tensor::from_vec(n, c, h, w, images.to_vec());
        let logits = self.forward(&input);
        let (loss, grad) = self.loss.loss_and_grad(&logits, labels);
        let mut grad = grad;
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        for layer in &mut self.layers {
            layer.update(hyper);
        }
        loss
    }

    /// One pass over the training split in mini-batches; returns the mean
    /// batch loss.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's image shape differs from the network input.
    pub fn train_epoch(&mut self, data: &Dataset, batch_size: usize, hyper: &TrainingHyper) -> f64 {
        assert_eq!(
            data.image_shape(),
            self.input_shape,
            "dataset shape must match network input"
        );
        let mut total = 0.0;
        let mut batches = 0;
        for batch in data.batches(Split::Train, batch_size) {
            total += self.train_batch(batch.images, batch.labels, hyper);
            batches += 1;
        }
        if batches == 0 {
            0.0
        } else {
            total / batches as f64
        }
    }

    /// Classification error rate (fraction misclassified) on a split.
    /// Switches dropout-style layers into inference mode for the duration.
    pub fn evaluate(&mut self, data: &Dataset, split: Split) -> f64 {
        for layer in &mut self.layers {
            layer.set_training(false);
        }
        let (c, h, w) = self.input_shape;
        let mut wrong = 0usize;
        let mut total = 0usize;
        for batch in data.batches(split, 64) {
            let n = batch.len();
            let input = Tensor::from_vec(n, c, h, w, batch.images.to_vec());
            let logits = self.forward(&input);
            let preds = self.loss.predictions(&logits);
            for (p, l) in preds.iter().zip(batch.labels) {
                if p != l {
                    wrong += 1;
                }
                total += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            wrong as f64 / total as f64
        }
    }

    /// The number of classes predicted by the head.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use hyperpower_data::{mnist_like, synthetic_dataset, GeneratorOptions};

    fn tiny_spec() -> ArchSpec {
        ArchSpec::new(
            (1, 8, 8),
            4,
            vec![
                LayerSpec::conv(4, 3),
                LayerSpec::pool(2),
                LayerSpec::dense(16),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_matches_spec_params() {
        let spec = tiny_spec();
        let net = Network::from_spec(&spec, 0).unwrap();
        assert_eq!(net.param_count(), spec.param_count());
        assert_eq!(net.num_classes(), 4);
    }

    #[test]
    fn deterministic_initialisation() {
        let spec = tiny_spec();
        let mut a = Network::from_spec(&spec, 7).unwrap();
        let mut b = Network::from_spec(&spec, 7).unwrap();
        let input = Tensor::from_vec(1, 1, 8, 8, (0..64).map(|i| i as f32 / 64.0).collect());
        assert_eq!(a.forward(&input).as_slice(), b.forward(&input).as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = tiny_spec();
        let mut a = Network::from_spec(&spec, 1).unwrap();
        let mut b = Network::from_spec(&spec, 2).unwrap();
        let input = Tensor::from_vec(1, 1, 8, 8, (0..64).map(|i| i as f32 / 64.0).collect());
        assert_ne!(a.forward(&input).as_slice(), b.forward(&input).as_slice());
    }

    #[test]
    fn logits_shape() {
        let spec = tiny_spec();
        let mut net = Network::from_spec(&spec, 0).unwrap();
        let out = net.forward(&Tensor::zeros(3, 1, 8, 8));
        assert_eq!(out.shape(), (3, 4, 1, 1));
    }

    #[test]
    fn training_reduces_loss_on_tiny_problem() {
        // A linearly separable 2-class toy task on 6x6 images.
        let opts = GeneratorOptions {
            channels: 1,
            height: 6,
            width: 6,
            num_classes: 2,
            noise_level: 0.05,
            max_shift: 0,
        };
        let data = synthetic_dataset(opts, 3, 32, 16);
        let spec = ArchSpec::new((1, 6, 6), 2, vec![LayerSpec::dense(8)]).unwrap();
        let mut net = Network::from_spec(&spec, 5).unwrap();
        let hyper = TrainingHyper::new(0.1, 0.9, 0.0).unwrap();
        let first = net.train_epoch(&data, 8, &hyper);
        let mut last = first;
        for _ in 0..15 {
            last = net.train_epoch(&data, 8, &hyper);
        }
        assert!(
            last < first * 0.5,
            "loss should fall substantially: first {first}, last {last}"
        );
    }

    #[test]
    fn training_beats_chance_on_mnist_like() {
        let data = mnist_like(17, 120, 60);
        let spec = ArchSpec::new(
            (1, 28, 28),
            10,
            vec![
                LayerSpec::conv(4, 3),
                LayerSpec::pool(2),
                LayerSpec::dense(24),
            ],
        )
        .unwrap();
        let mut net = Network::from_spec(&spec, 11).unwrap();
        let hyper = TrainingHyper::new(0.05, 0.9, 1e-4).unwrap();
        for _ in 0..6 {
            net.train_epoch(&data, 16, &hyper);
        }
        let err = net.evaluate(&data, Split::Test);
        assert!(err < 0.6, "test error {err} should beat chance (0.9)");
    }

    #[test]
    fn avg_pool_and_dropout_network_trains() {
        let opts = GeneratorOptions {
            channels: 1,
            height: 8,
            width: 8,
            num_classes: 2,
            noise_level: 0.05,
            max_shift: 0,
        };
        let data = synthetic_dataset(opts, 7, 32, 16);
        let spec = ArchSpec::new(
            (1, 8, 8),
            2,
            vec![
                LayerSpec::conv(4, 3),
                LayerSpec::AvgPool { kernel: 2 },
                LayerSpec::dense(16),
                LayerSpec::dropout(25),
            ],
        )
        .unwrap();
        let mut net = Network::from_spec(&spec, 9).unwrap();
        let hyper = TrainingHyper::new(0.1, 0.9, 0.0).unwrap();
        let first = net.train_epoch(&data, 8, &hyper);
        let mut last = first;
        for _ in 0..12 {
            last = net.train_epoch(&data, 8, &hyper);
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
        // Evaluation (dropout off) is deterministic.
        let a = net.evaluate(&data, Split::Test);
        let b = net.evaluate(&data, Split::Test);
        assert_eq!(a, b);
    }

    #[test]
    fn evaluate_on_empty_split_is_zero() {
        let data = mnist_like(0, 8, 0);
        let spec = ArchSpec::new((1, 28, 28), 10, vec![]).unwrap();
        let mut net = Network::from_spec(&spec, 0).unwrap();
        assert_eq!(net.evaluate(&data, Split::Test), 0.0);
    }

    #[test]
    #[should_panic(expected = "must match network input")]
    fn shape_mismatch_panics() {
        let data = mnist_like(0, 8, 4);
        let spec = ArchSpec::new((3, 32, 32), 10, vec![]).unwrap();
        let mut net = Network::from_spec(&spec, 0).unwrap();
        let hyper = TrainingHyper::new(0.01, 0.9, 0.0).unwrap();
        net.train_epoch(&data, 4, &hyper);
    }
}
