//! Synthetic image-classification datasets for the HyperPower reproduction.
//!
//! The paper trains AlexNet variants on MNIST and CIFAR-10 with Caffe. No
//! dataset files ship with this reproduction, so this crate generates
//! *procedural* stand-ins that exercise exactly the same code path —
//! multi-class image tensors fed through convolutional networks:
//!
//! * [`mnist_like`] — 28×28×1 images, 10 classes, "easy" (well-trained
//!   networks reach ≈1% test error, matching the paper's MNIST regime),
//! * [`cifar10_like`] — 32×32×3 images, 10 classes, "hard" (test error
//!   saturates around ≈20%, matching the paper's CIFAR-10 regime).
//!
//! Each class is defined by a random smooth prototype image; samples are
//! the prototype plus per-sample spatial jitter and pixel noise. Difficulty
//! is controlled by the noise-to-signal ratio. Every generator takes an
//! explicit seed and is fully deterministic.
//!
//! # Examples
//!
//! ```
//! use hyperpower_data::mnist_like;
//!
//! let ds = mnist_like(42, 128, 64);
//! assert_eq!(ds.num_train(), 128);
//! assert_eq!(ds.num_test(), 64);
//! assert_eq!(ds.image_shape(), (1, 28, 28));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod generator;

pub use dataset::{Batch, BatchIter, Dataset, Split};
pub use generator::{cifar10_like, mnist_like, synthetic_dataset, GeneratorOptions};
