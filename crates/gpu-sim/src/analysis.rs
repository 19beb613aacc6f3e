use hyperpower_linalg::units::{Mebibytes, Seconds, Watts};
use hyperpower_nn::{ArchSpec, LayerShapeReport};

use crate::DeviceProfile;

/// Noise-free ground truth for one architecture on one device.
///
/// Produced by [`analyze`]; the sensor layer ([`crate::Gpu`]) adds
/// measurement noise on top of these values. The hardware quantities carry
/// their units in the type — `power * latency` *is* [`crate::Joules`], and
/// mixing e.g. watts into a memory comparison is a compile error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceReport {
    /// Mean inference latency per example.
    pub latency: Seconds,
    /// Mean board power during sustained inference.
    pub power: Watts,
    /// Device memory consumed while the network is resident.
    pub memory: Mebibytes,
    /// Time-weighted mean compute utilisation in `[0, 1]`.
    pub utilization: f64,
}

/// Per-layer roofline costs at the device's inference batch size.
struct LayerCost {
    /// Execution time in seconds.
    time_s: f64,
    /// Compute utilisation `t_compute / max(t_compute, t_memory)`.
    utilization: f64,
    /// Occupancy factor in `[0, 1]`: how much of the device the layer's
    /// parallelism can keep busy.
    occupancy: f64,
}

fn layer_cost(device: &DeviceProfile, layer: &LayerShapeReport) -> LayerCost {
    let batch = device.inference_batch as f64;
    let flops = layer.flops as f64 * batch;
    let (ic, ih, iw) = layer.input;
    let in_bytes = (ic * ih * iw) as f64 * batch * 4.0;
    let out_bytes = layer.activations as f64 * batch * 4.0;
    let param_bytes = layer.params as f64 * 4.0;
    let bytes = in_bytes + out_bytes + param_bytes;

    let t_compute = flops / (device.peak_gflops * 1e9);
    let t_memory = bytes / (device.mem_bandwidth_gbps * 1e9);
    // Kernel-launch floor: even trivial layers cost a few microseconds.
    let time_s = t_compute.max(t_memory).max(3e-6);
    let utilization = if time_s > 0.0 {
        t_compute / time_s
    } else {
        0.0
    };
    // Parallelism: output elements, with a split-K factor for dense layers
    // (GEMM libraries parallelise the reduction dimension when the output
    // tile alone cannot fill the device).
    let k_split = if layer.kind == "dense" || layer.kind == "classifier" {
        8.0
    } else {
        1.0
    };
    let out_elems = layer.activations as f64 * batch * k_split;
    let occupancy = 1.0 - (-(out_elems / device.occupancy_saturation_elems)).exp();
    LayerCost {
        time_s,
        utilization,
        occupancy,
    }
}

/// Computes the noise-free inference power, memory, latency and utilisation
/// of `spec` on `device`.
///
/// **Power** is a time-weighted mix of per-layer draws: each layer draws
/// `idle + (max − idle)·(0.18 + 0.82·u·occ)` where `u` is its roofline
/// compute utilisation and `occ` its occupancy. The model is deliberately
/// *non-linear* in the structural hyper-parameters (roofline max, occupancy
/// exponential), so the paper's linear predictive model (Eq. 1) fits well
/// but not perfectly — matching the 4–7% RMSPE of Table 1.
///
/// **Memory** is `baseline + 2.0 × (3·params + batch·Σ activations +
/// im2col workspace)` in bytes: parameters are held in triplicate
/// (weights + gradient + momentum buffers, as Caffe keeps them for a net
/// loaded from training), activations are resident per batch element, and
/// the largest convolution contributes a (capped) im2col workspace. The 2.0 factor
/// models allocator slack.
///
/// This function never fails: every validated [`ArchSpec`] has a
/// well-defined cost on every device.
pub fn analyze(device: &DeviceProfile, spec: &ArchSpec) -> InferenceReport {
    let walk = spec.shape_walk();
    let batch = device.inference_batch as f64;

    let mut times_s = Vec::with_capacity(walk.len());
    let mut power_terms = Vec::with_capacity(walk.len());
    let mut util_terms = Vec::with_capacity(walk.len());
    for layer in &walk {
        let cost = layer_cost(device, layer);
        // Memory-bound kernels still draw substantial power (the memory
        // subsystem is not free), hence the 0.45 utilisation floor inside
        // the activity term.
        let activity = cost.occupancy * (0.45 + 0.55 * cost.utilization);
        let draw_fraction = 0.15 + 0.85 * activity;
        let power =
            device.idle_power_w + (device.max_power_w - device.idle_power_w) * draw_fraction;
        times_s.push(cost.time_s);
        power_terms.push(cost.time_s * power);
        util_terms.push(cost.time_s * cost.utilization);
    }
    // The layer walk is in network order; sum_ordered pins the
    // left-to-right association so the report stays bit-identical across
    // refactors of this loop (analyzer rule R14).
    let total_time = hyperpower_linalg::vector::sum_ordered(&times_s);
    let weighted_power = hyperpower_linalg::vector::sum_ordered(&power_terms);
    let weighted_util = hyperpower_linalg::vector::sum_ordered(&util_terms);
    let power_w = if total_time > 0.0 {
        weighted_power / total_time
    } else {
        device.idle_power_w
    };
    let utilization = if total_time > 0.0 {
        weighted_util / total_time
    } else {
        0.0
    };

    // Memory model.
    let params: f64 = walk.iter().map(|l| l.params as f64).sum();
    let total_activations: f64 = walk.iter().map(|l| l.activations as f64).sum::<f64>() + {
        let (c, h, w) = spec.input_shape();
        (c * h * w) as f64
    };
    let im2col = walk
        .iter()
        .filter(|l| l.kind == "conv")
        .map(|l| {
            let (ic, _, _) = l.input;
            let (_, oh, ow) = l.output;
            // k² recovered from flops: flops = 2·oc·ic·k²·oh·ow.
            let (oc, _, _) = l.output;
            let k2 = l.flops as f64 / (2.0 * (oc * ic * oh * ow) as f64);
            k2 * ic as f64 * (oh * ow) as f64 * batch * 4.0
        })
        .fold(0.0, f64::max)
        // cuDNN-style workspace limit: the framework falls back to
        // implicit-GEMM algorithms rather than allocate unbounded im2col
        // buffers.
        .min(64.0 * 1024.0 * 1024.0);
    let dynamic_bytes = 2.0 * (3.0 * params * 4.0 + batch * total_activations * 4.0 + im2col);
    let memory = Mebibytes(device.baseline_memory_mib) + Mebibytes::from_bytes(dynamic_bytes);

    InferenceReport {
        latency: Seconds(total_time / batch),
        power: Watts(power_w),
        memory,
        utilization,
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use hyperpower_nn::LayerSpec;

    fn cifar_arch(features: usize, kernel: usize, units: usize) -> ArchSpec {
        ArchSpec::new(
            (3, 32, 32),
            10,
            vec![
                LayerSpec::conv(features, kernel),
                LayerSpec::pool(2),
                LayerSpec::conv(features, kernel),
                LayerSpec::pool(2),
                LayerSpec::dense(units),
            ],
        )
        .unwrap()
    }

    fn mnist_arch(features: usize, kernel: usize, units: usize) -> ArchSpec {
        ArchSpec::new(
            (1, 28, 28),
            10,
            vec![
                LayerSpec::conv(features, kernel),
                LayerSpec::pool(2),
                LayerSpec::dense(units),
            ],
        )
        .unwrap()
    }

    #[test]
    fn power_within_device_envelope() {
        let gtx = DeviceProfile::gtx_1070();
        for (f, k, u) in [(20, 2, 200), (50, 3, 400), (80, 5, 700)] {
            let r = analyze(&gtx, &cifar_arch(f, k, u));
            assert!(r.power >= Watts(gtx.idle_power_w), "power {}", r.power);
            assert!(r.power <= Watts(gtx.max_power_w), "power {}", r.power);
        }
    }

    #[test]
    fn bigger_networks_draw_more_power() {
        let gtx = DeviceProfile::gtx_1070();
        let small = analyze(&gtx, &cifar_arch(20, 2, 200));
        let large = analyze(&gtx, &cifar_arch(80, 5, 700));
        assert!(
            large.power > small.power + Watts(5.0),
            "large {} vs small {}",
            large.power,
            small.power
        );
    }

    #[test]
    fn power_spread_makes_budget_selective() {
        // The paper's 90 W budget (CIFAR on GTX 1070) must split the space:
        // some configurations below, some above.
        let gtx = DeviceProfile::gtx_1070();
        let mut below = 0;
        let mut above = 0;
        for f in [20, 35, 50, 65, 80] {
            for k in [2, 3, 4, 5] {
                for u in [200, 450, 700] {
                    let p = analyze(&gtx, &cifar_arch(f, k, u)).power;
                    if p <= Watts(90.0) {
                        below += 1;
                    } else {
                        above += 1;
                    }
                }
            }
        }
        // The feasible region is deliberately small (the paper's default
        // methods waste most samples on violations), but must exist.
        assert!(below >= 3, "only {below} configs under budget");
        assert!(above >= 20, "only {above} configs over budget");
    }

    #[test]
    fn tegra_power_spread_crosses_budgets() {
        let tegra = DeviceProfile::tegra_tx1();
        let mnist_small = analyze(&tegra, &mnist_arch(20, 2, 200)).power;
        let mnist_large = analyze(&tegra, &mnist_arch(80, 5, 700)).power;
        // 10 W budget should separate small from large MNIST nets.
        assert!(mnist_small < Watts(10.0), "small draws {mnist_small}");
        assert!(mnist_large > Watts(10.0), "large draws {mnist_large}");
        let cifar_large = analyze(&tegra, &cifar_arch(80, 5, 700)).power;
        assert!(cifar_large > Watts(12.0), "large CIFAR draws {cifar_large}");
    }

    #[test]
    fn memory_spread_crosses_gtx_budgets() {
        let gtx = DeviceProfile::gtx_1070();
        let cifar_small = analyze(&gtx, &cifar_arch(20, 2, 200)).memory;
        let cifar_large = analyze(&gtx, &cifar_arch(80, 5, 700)).memory;
        assert!(
            cifar_small < Mebibytes::from_gib(1.25),
            "small CIFAR {cifar_small}"
        );
        assert!(
            cifar_large > Mebibytes::from_gib(1.25),
            "large CIFAR {cifar_large}"
        );
        let mnist_small = analyze(&gtx, &mnist_arch(20, 2, 200)).memory;
        let mnist_large = analyze(&gtx, &mnist_arch(80, 5, 700)).memory;
        assert!(
            mnist_small < Mebibytes::from_gib(1.15),
            "small MNIST {mnist_small}"
        );
        assert!(
            mnist_large > Mebibytes::from_gib(1.15),
            "large MNIST {mnist_large}"
        );
    }

    #[test]
    fn memory_monotone_in_units() {
        let gtx = DeviceProfile::gtx_1070();
        let a = analyze(&gtx, &mnist_arch(40, 3, 200)).memory;
        let b = analyze(&gtx, &mnist_arch(40, 3, 700)).memory;
        assert!(b > a);
    }

    #[test]
    fn latency_positive_and_batch_scaled() {
        let gtx = DeviceProfile::gtx_1070();
        let r = analyze(&gtx, &cifar_arch(50, 3, 400));
        assert!(r.latency > Seconds::ZERO);
        assert!(
            r.latency < Seconds(0.1),
            "per-example latency {}",
            r.latency
        );
    }

    #[test]
    fn utilization_in_unit_interval() {
        for device in [DeviceProfile::gtx_1070(), DeviceProfile::tegra_tx1()] {
            let r = analyze(&device, &cifar_arch(50, 4, 500));
            assert!((0.0..=1.0).contains(&r.utilization));
        }
    }

    #[test]
    fn tegra_saturates_easier_than_gtx() {
        // The same net keeps a bigger fraction of the small device busy.
        // `Watts / Watts` is the dimensionless fraction.
        let spec = cifar_arch(40, 3, 400);
        let tegra = analyze(&DeviceProfile::tegra_tx1(), &spec);
        let gtx = analyze(&DeviceProfile::gtx_1070(), &spec);
        let tegra_frac = (tegra.power - Watts(1.8)) / Watts(14.5 - 1.8);
        let gtx_frac = (gtx.power - Watts(45.0)) / Watts(150.0 - 45.0);
        assert!(tegra_frac > gtx_frac);
    }

    #[test]
    fn bigger_nets_cost_more_energy_per_example() {
        let gtx = DeviceProfile::gtx_1070();
        let energy = |spec: &ArchSpec| {
            let r = analyze(&gtx, spec);
            r.power * r.latency
        };
        let small = energy(&cifar_arch(40, 3, 300));
        assert!(small > crate::Joules::ZERO);
        assert!(energy(&cifar_arch(80, 5, 700)) > small);
    }

    #[test]
    fn deterministic() {
        let gtx = DeviceProfile::gtx_1070();
        let spec = cifar_arch(33, 4, 321);
        assert_eq!(analyze(&gtx, &spec), analyze(&gtx, &spec));
    }
}
