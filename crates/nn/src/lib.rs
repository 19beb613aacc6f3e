//! Neural-network substrate for the HyperPower reproduction.
//!
//! The paper's objective function is "generate the candidate CNN, train it
//! to completion with Caffe, report its test error" (Figure 2, step 2).
//! This crate replaces Caffe with a from-scratch CNN library:
//!
//! * [`Tensor`] — a minimal NCHW tensor of `f32`,
//! * [`layers`] — `Conv2d`, `MaxPool2d`, `Dense`, `ReLU`, `Flatten` behind
//!   the [`Layer`] trait, with full forward/backward passes,
//! * [`SoftmaxCrossEntropy`] — fused softmax + cross-entropy loss,
//! * [`Network`] — a sequential container with SGD (momentum + weight
//!   decay) training, built from an [`ArchSpec`],
//! * [`arch`] — architecture descriptions with shape inference, parameter
//!   and FLOP counting (consumed by the GPU simulator crate),
//! * [`sim`] — a calibrated *training simulator* used for the paper-scale
//!   experiment sweeps, where really training hundreds of networks for
//!   simulated hours each would be pointless; it reproduces the error
//!   regimes, learning curves and divergence behaviour the experiments
//!   depend on (see DESIGN.md for the substitution rationale).
//!
//! Real gradient-descent training (examples, integration tests) and the
//! simulator share the same [`ArchSpec`]/[`TrainingHyper`] vocabulary, so
//! the optimizer code paths are identical either way.
//!
//! # Examples
//!
//! Train a small CNN on a synthetic dataset:
//!
//! ```
//! use hyperpower_data::{mnist_like, Split};
//! use hyperpower_nn::{ArchSpec, LayerSpec, Network, TrainingHyper};
//!
//! # fn main() -> Result<(), hyperpower_nn::Error> {
//! let data = mnist_like(0, 64, 32);
//! let spec = ArchSpec::new((1, 28, 28), 10, vec![
//!     LayerSpec::conv(8, 3),
//!     LayerSpec::pool(2),
//!     LayerSpec::dense(32),
//! ])?;
//! let mut net = Network::from_spec(&spec, 42)?;
//! let hyper = TrainingHyper::new(0.05, 0.9, 1e-4)?;
//! net.train_epoch(&data, 16, &hyper);
//! let err = net.evaluate(&data, Split::Test);
//! assert!((0.0..=1.0).contains(&err));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
mod checkpoint;
mod error;
pub mod layers;
mod loss;
mod network;
mod sgd;
pub mod sim;
mod tensor;

pub use arch::{ArchSpec, LayerShapeReport, LayerSpec};
pub use error::Error;
pub use layers::Layer;
pub use loss::SoftmaxCrossEntropy;
pub use network::Network;
pub use sgd::{LearningRateSchedule, TrainingHyper};
pub use tensor::Tensor;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
