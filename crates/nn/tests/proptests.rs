//! Property-based tests for the NN substrate.

// Test-support code: strategies build exact values and assert round-trips
// bit-for-bit; panicking helpers are correct in a test harness.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use hyperpower_nn::sim::{DatasetProfile, TrainingSimulator};
use hyperpower_nn::{ArchSpec, LayerSpec, SoftmaxCrossEntropy, Tensor, TrainingHyper};
use proptest::prelude::*;

/// Strategy: a valid MNIST-shaped architecture from the paper's ranges.
fn arch_strategy() -> impl Strategy<Value = ArchSpec> {
    (20usize..=80, 2usize..=5, 1usize..=3, 200usize..=700).prop_map(|(f, k, p, u)| {
        ArchSpec::new(
            (1, 28, 28),
            10,
            vec![
                LayerSpec::conv(f, k),
                LayerSpec::pool(p),
                LayerSpec::dense(u),
            ],
        )
        .expect("paper ranges always valid")
    })
}

fn hyper_strategy() -> impl Strategy<Value = TrainingHyper> {
    (1e-3f64..0.1, 0.8f64..0.95, 1e-4f64..1e-2)
        .prop_map(|(lr, m, wd)| TrainingHyper::new(lr, m, wd).expect("in range"))
}

proptest! {
    #[test]
    fn shape_walk_is_consistent(spec in arch_strategy()) {
        let walk = spec.shape_walk();
        // Chained shapes: each layer's input is the previous output.
        let mut prev = spec.input_shape();
        for layer in &walk {
            prop_assert_eq!(layer.input, prev);
            prev = layer.output;
        }
        // Classifier ends at (10, 1, 1).
        prop_assert_eq!(prev, (10, 1, 1));
        // Aggregates match the per-layer sums.
        prop_assert_eq!(spec.param_count(), walk.iter().map(|l| l.params).sum::<usize>());
        prop_assert_eq!(spec.flops_per_example(), walk.iter().map(|l| l.flops).sum::<u64>());
        prop_assert!(spec.param_count() > 0);
    }

    #[test]
    fn more_features_cost_more(
        f in 20usize..=79, k in 2usize..=5, p in 1usize..=3, u in 200usize..=700
    ) {
        let small = ArchSpec::new((1, 28, 28), 10, vec![
            LayerSpec::conv(f, k), LayerSpec::pool(p), LayerSpec::dense(u),
        ]).unwrap();
        let big = ArchSpec::new((1, 28, 28), 10, vec![
            LayerSpec::conv(f + 1, k), LayerSpec::pool(p), LayerSpec::dense(u),
        ]).unwrap();
        prop_assert!(big.param_count() > small.param_count());
        prop_assert!(big.flops_per_example() > small.flops_per_example());
    }

    #[test]
    fn simulator_errors_are_valid_probabilities(
        spec in arch_strategy(), hyper in hyper_strategy(), seed in 0u64..1000
    ) {
        let sim = TrainingSimulator::new(DatasetProfile::mnist());
        let outcome = sim.simulate(&spec, &hyper, seed);
        prop_assert!(!outcome.curve.is_empty());
        for e in &outcome.curve {
            prop_assert!((0.0..=1.0).contains(e), "error {e} out of range");
        }
        prop_assert_eq!(outcome.final_error, *outcome.curve.last().unwrap());
        // Diverged runs stay at chance.
        if outcome.diverged {
            prop_assert!(outcome.final_error > 0.85);
        }
    }

    #[test]
    fn simulator_asymptote_bounded(
        spec in arch_strategy(), hyper in hyper_strategy()
    ) {
        let sim = TrainingSimulator::new(DatasetProfile::mnist());
        let e = sim.asymptotic_error(&spec, &hyper);
        let p = sim.profile();
        prop_assert!(e >= p.base_error - 1e-12);
        prop_assert!(e <= p.chance_error + 1e-12);
    }

    #[test]
    fn divergence_threshold_positive_and_capacity_monotone(
        hyper in hyper_strategy(), k in 2usize..=5, u in 200usize..=700
    ) {
        let sim = TrainingSimulator::new(DatasetProfile::mnist());
        let small = ArchSpec::new((1, 28, 28), 10, vec![
            LayerSpec::conv(20, k), LayerSpec::pool(2), LayerSpec::dense(u),
        ]).unwrap();
        let large = ArchSpec::new((1, 28, 28), 10, vec![
            LayerSpec::conv(80, k), LayerSpec::pool(2), LayerSpec::dense(u),
        ]).unwrap();
        let ts = sim.divergence_threshold(&small, &hyper);
        let tl = sim.divergence_threshold(&large, &hyper);
        prop_assert!(ts > 0.0 && tl > 0.0);
        prop_assert!(ts >= tl, "bigger nets must not tolerate more aggressive learning rates");
    }

    #[test]
    fn softmax_loss_gradient_sums_to_zero(
        logits in proptest::collection::vec(-5.0f32..5.0, 12),
        label in 0usize..4
    ) {
        let loss = SoftmaxCrossEntropy::new();
        let t = Tensor::from_vec(3, 4, 1, 1, logits);
        let (l, grad) = loss.loss_and_grad(&t, &[label, (label + 1) % 4, (label + 2) % 4]);
        prop_assert!(l >= 0.0);
        for b in 0..3 {
            let s: f32 = grad.example(b).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn training_hyper_roundtrips(lr in 1e-4f64..1.0, m in 0.0f64..0.999, wd in 0.0f64..0.1) {
        let h = TrainingHyper::new(lr, m, wd).unwrap();
        prop_assert_eq!(h.learning_rate(), lr);
        prop_assert_eq!(h.momentum(), m);
        prop_assert_eq!(h.weight_decay(), wd);
    }
}
