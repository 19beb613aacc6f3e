/// Which half of a dataset to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// The training examples.
    Train,
    /// The held-out test examples.
    Test,
}

/// An in-memory image-classification dataset with a train/test split.
///
/// Images are stored flattened in CHW order (`channels × height × width`
/// per example), as `f32` in `[0, 1]`. Labels are class indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    channels: usize,
    height: usize,
    width: usize,
    num_classes: usize,
    train_images: Vec<f32>,
    train_labels: Vec<usize>,
    test_images: Vec<f32>,
    test_labels: Vec<usize>,
}

impl Dataset {
    /// Assembles a dataset from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths are inconsistent with the image shape
    /// and label counts, or if any label is out of range.
    #[allow(clippy::too_many_arguments)] // mirrors the on-disk layout: shape, classes, then the four buffers
    pub fn from_parts(
        channels: usize,
        height: usize,
        width: usize,
        num_classes: usize,
        train_images: Vec<f32>,
        train_labels: Vec<usize>,
        test_images: Vec<f32>,
        test_labels: Vec<usize>,
    ) -> Self {
        let px = channels * height * width;
        assert_eq!(
            train_images.len(),
            train_labels.len() * px,
            "train image buffer inconsistent with labels"
        );
        assert_eq!(
            test_images.len(),
            test_labels.len() * px,
            "test image buffer inconsistent with labels"
        );
        assert!(
            train_labels
                .iter()
                .chain(&test_labels)
                .all(|l| *l < num_classes),
            "label out of range"
        );
        Dataset {
            channels,
            height,
            width,
            num_classes,
            train_images,
            train_labels,
            test_images,
            test_labels,
        }
    }

    /// Image shape as `(channels, height, width)`.
    pub fn image_shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Number of pixels (times channels) per example.
    pub fn example_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of training examples.
    pub fn num_train(&self) -> usize {
        self.train_labels.len()
    }

    /// Number of test examples.
    pub fn num_test(&self) -> usize {
        self.test_labels.len()
    }

    /// Number of examples in `split`.
    pub fn len(&self, split: Split) -> usize {
        match split {
            Split::Train => self.num_train(),
            Split::Test => self.num_test(),
        }
    }

    /// Returns `true` if `split` holds no examples.
    pub fn is_empty(&self, split: Split) -> bool {
        self.len(split) == 0
    }

    /// Borrows the pixels of example `index` in `split`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for the split.
    pub fn image(&self, split: Split, index: usize) -> &[f32] {
        let px = self.example_len();
        let (buf, n) = match split {
            Split::Train => (&self.train_images, self.num_train()),
            Split::Test => (&self.test_images, self.num_test()),
        };
        assert!(index < n, "example index {index} out of bounds ({n})");
        &buf[index * px..(index + 1) * px]
    }

    /// Label of example `index` in `split`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for the split.
    pub fn label(&self, split: Split, index: usize) -> usize {
        match split {
            Split::Train => self.train_labels[index],
            Split::Test => self.test_labels[index],
        }
    }

    /// Iterates over `split` in contiguous mini-batches of at most
    /// `batch_size` examples (the final batch may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn batches(&self, split: Split, batch_size: usize) -> BatchIter<'_> {
        assert!(batch_size > 0, "batch size must be positive");
        BatchIter {
            dataset: self,
            split,
            batch_size,
            cursor: 0,
        }
    }
}

/// A contiguous mini-batch view into a [`Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct Batch<'a> {
    /// Flattened images, `labels.len() × example_len` values in CHW order.
    pub images: &'a [f32],
    /// Class labels, one per example.
    pub labels: &'a [usize],
}

impl Batch<'_> {
    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the batch holds no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Iterator over mini-batches, produced by [`Dataset::batches`].
#[derive(Debug)]
pub struct BatchIter<'a> {
    dataset: &'a Dataset,
    split: Split,
    batch_size: usize,
    cursor: usize,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = Batch<'a>;

    fn next(&mut self) -> Option<Batch<'a>> {
        let n = self.dataset.len(self.split);
        if self.cursor >= n {
            return None;
        }
        let start = self.cursor;
        let end = (start + self.batch_size).min(n);
        self.cursor = end;
        let px = self.dataset.example_len();
        let (images, labels) = match self.split {
            Split::Train => (&self.dataset.train_images, &self.dataset.train_labels),
            Split::Test => (&self.dataset.test_images, &self.dataset.test_labels),
        };
        Some(Batch {
            // `start <= end <= n`: the cursor is checked against the split
            // length `n` above and `end` is clamped to it, so both slices
            // are in bounds.
            images: &images[start * px..end * px],
            labels: &labels[start..end],
        })
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        // 2 train + 1 test examples of 1x2x2 images, 2 classes.
        Dataset::from_parts(
            1,
            2,
            2,
            2,
            vec![0.0, 0.1, 0.2, 0.3, 1.0, 1.1, 1.2, 1.3],
            vec![0, 1],
            vec![0.5; 4],
            vec![1],
        )
    }

    #[test]
    fn shapes_and_counts() {
        let d = tiny();
        assert_eq!(d.image_shape(), (1, 2, 2));
        assert_eq!(d.example_len(), 4);
        assert_eq!(d.num_train(), 2);
        assert_eq!(d.num_test(), 1);
        assert_eq!(d.num_classes(), 2);
        assert!(!d.is_empty(Split::Train));
    }

    #[test]
    fn image_and_label_access() {
        let d = tiny();
        assert_eq!(d.image(Split::Train, 1), &[1.0, 1.1, 1.2, 1.3]);
        assert_eq!(d.label(Split::Train, 0), 0);
        assert_eq!(d.label(Split::Test, 0), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn image_out_of_bounds_panics() {
        tiny().image(Split::Test, 1);
    }

    #[test]
    fn batches_cover_everything_once() {
        let d = tiny();
        let batches: Vec<_> = d.batches(Split::Train, 1).collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].labels, &[0]);
        assert_eq!(batches[1].labels, &[1]);
    }

    #[test]
    fn final_partial_batch() {
        let d = tiny();
        let batches: Vec<_> = d.batches(Split::Train, 5).collect();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[0].images.len(), 8);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        let d = tiny();
        let _ = d.batches(Split::Train, 0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_rejected() {
        Dataset::from_parts(1, 1, 1, 2, vec![0.0], vec![5], vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn bad_buffer_rejected() {
        Dataset::from_parts(1, 2, 2, 2, vec![0.0; 3], vec![0], vec![], vec![]);
    }
}
