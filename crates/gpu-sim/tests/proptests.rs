//! Property-based tests for the GPU simulator.

// Test-support code: strategies build exact values and assert round-trips
// bit-for-bit; panicking helpers are correct in a test harness.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use hyperpower_gpu_sim::{
    analyze, DeviceProfile, Gpu, Joules, Mebibytes, Seconds, TrainingCostModel, Watts,
};
use hyperpower_nn::{ArchSpec, LayerSpec};
use proptest::prelude::*;

fn cifar_arch_strategy() -> impl Strategy<Value = ArchSpec> {
    (
        20usize..=80,
        2usize..=5,
        1usize..=3,
        20usize..=80,
        2usize..=5,
        1usize..=3,
        200usize..=700,
    )
        .prop_map(|(f1, k1, p1, f2, k2, p2, u)| {
            ArchSpec::new(
                (3, 32, 32),
                10,
                vec![
                    LayerSpec::conv(f1, k1),
                    LayerSpec::pool(p1),
                    LayerSpec::conv(f2, k2),
                    LayerSpec::pool(p2),
                    LayerSpec::dense(u),
                ],
            )
            .expect("paper ranges always valid")
        })
}

proptest! {
    #[test]
    fn power_within_physical_envelope(spec in cifar_arch_strategy()) {
        for device in [DeviceProfile::gtx_1070(), DeviceProfile::tegra_tx1()] {
            let r = analyze(&device, &spec);
            prop_assert!(r.power >= Watts(device.idle_power_w - 1e-9));
            prop_assert!(r.power <= Watts(device.max_power_w + 1e-9));
            prop_assert!((0.0..=1.0).contains(&r.utilization));
            prop_assert!(r.latency > Seconds::ZERO);
        }
    }

    #[test]
    fn memory_at_least_baseline(spec in cifar_arch_strategy()) {
        let device = DeviceProfile::gtx_1070();
        let r = analyze(&device, &spec);
        prop_assert!(r.memory >= Mebibytes(device.baseline_memory_mib));
    }

    #[test]
    fn memory_monotone_in_fc_width(
        f in 20usize..=80, k in 2usize..=5, u in 200usize..=699
    ) {
        let device = DeviceProfile::gtx_1070();
        let base = |units: usize| {
            analyze(
                &device,
                &ArchSpec::new(
                    (3, 32, 32),
                    10,
                    vec![LayerSpec::conv(f, k), LayerSpec::pool(2), LayerSpec::dense(units)],
                )
                .unwrap(),
            )
            .memory
        };
        prop_assert!(base(u + 1) > base(u));
    }

    #[test]
    fn memory_monotone_in_feature_count(
        f in 20usize..=79, k in 2usize..=5, u in 200usize..=700
    ) {
        let device = DeviceProfile::gtx_1070();
        let base = |features: usize| {
            analyze(
                &device,
                &ArchSpec::new(
                    (3, 32, 32),
                    10,
                    vec![LayerSpec::conv(features, k), LayerSpec::pool(2), LayerSpec::dense(u)],
                )
                .unwrap(),
            )
            .memory
        };
        prop_assert!(base(f + 1) > base(f));
    }

    #[test]
    fn energy_is_power_times_latency(spec in cifar_arch_strategy()) {
        // The typed identity `Watts × Seconds = Joules` must agree with the
        // raw-magnitude product for every architecture on every device.
        for device in [DeviceProfile::gtx_1070(), DeviceProfile::tegra_tx1()] {
            let r = analyze(&device, &spec);
            let typed: Joules = r.power * r.latency;
            let raw_j = r.power.get() * r.latency.get();
            prop_assert!((typed.get() - raw_j).abs() <= 1e-12 * raw_j.abs());
            prop_assert!(typed > Joules::ZERO);
        }
    }

    #[test]
    fn measurements_scatter_within_bounds(spec in cifar_arch_strategy(), seed in 0u64..100) {
        let device = DeviceProfile::gtx_1070();
        let truth = analyze(&device, &spec);
        let mut gpu = Gpu::new(device.clone(), seed);
        for _ in 0..5 {
            let p = gpu.measure_power(&truth);
            prop_assert!((p - truth.power).get().abs() < 8.0 * device.power_noise_w);
            let m = gpu.measure_memory(&truth).unwrap();
            let noise_mib = (m - truth.memory).get().abs();
            prop_assert!(noise_mib < 8.0 * device.memory_noise_mib);
        }
    }

    #[test]
    fn tegra_memory_always_unsupported(spec in cifar_arch_strategy(), seed in 0u64..50) {
        let mut gpu = Gpu::new(DeviceProfile::tegra_tx1(), seed);
        prop_assert!(gpu.measure_memory(&gpu.analyze(&spec)).is_err());
    }

    #[test]
    fn training_cost_scales_with_epochs(
        spec in cifar_arch_strategy(), epochs in 1usize..60, examples in 1000usize..60_000
    ) {
        let cost = TrainingCostModel::default();
        let t1 = cost.training_secs(&spec, examples, epochs);
        let t2 = cost.training_secs(&spec, examples, epochs + 1);
        prop_assert!(t1 > 0.0);
        prop_assert!(t2 > t1);
        // Linearity in epochs (overhead aside).
        let per_epoch = cost.epoch_secs(&spec, examples);
        prop_assert!((t2 - t1 - per_epoch).abs() < 1e-6 * per_epoch.max(1.0));
    }

    #[test]
    fn analysis_is_deterministic(spec in cifar_arch_strategy()) {
        let device = DeviceProfile::tegra_tx1();
        prop_assert_eq!(analyze(&device, &spec), analyze(&device, &spec));
    }
}
