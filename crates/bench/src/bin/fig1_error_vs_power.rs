//! Figure 1: test error vs GPU power for AlexNet variants
//! (CIFAR-10 on the GTX 1070).
//!
//! The paper's motivating observation: for a given accuracy level, power
//! can differ by tens of watts (they report up to 55.01 W — more than a
//! third of the GPU's TDP), so a human expert cannot eyeball the
//! hardware-optimal configuration. This harness samples 200 random
//! configurations, trains each (simulated) and measures its inference
//! power, renders the scatter, and quantifies the iso-accuracy power
//! spread plus the two motivating design points (iso-error power savings,
//! iso-power error reduction).

// Experiment binaries are terminal programs: printing results and
// panicking on setup failures are the point, not a lint violation.
#![allow(clippy::print_stdout, clippy::print_stderr)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hyperpower::{Config, Scenario};
use hyperpower_bench::plot::{csv, scatter, Series};
use hyperpower_gpu_sim::Gpu;
use hyperpower_nn::sim::TrainingSimulator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scenario = Scenario::cifar10_gtx1070();
    let sim = TrainingSimulator::new(scenario.dataset.clone());
    let mut gpu = Gpu::new(scenario.device.clone(), 42);
    let mut rng = StdRng::seed_from_u64(1);

    let mut points = Vec::new(); // (power W, error %)
    for i in 0..200u64 {
        let config = Config::random(&mut rng, scenario.space.dim());
        let decoded = scenario.space.decode(&config).expect("valid space");
        let outcome = sim.simulate(&decoded.arch, &decoded.hyper, i);
        let power = gpu.measure_power(&gpu.analyze(&decoded.arch));
        points.push((power.get(), outcome.final_error * 100.0));
    }

    let series = vec![Series::new(
        'o',
        "CIFAR-10 AlexNet variants",
        points.clone(),
    )];
    println!("FIGURE 1. Test error vs GPU power consumption (CIFAR-10, GTX 1070).\n");
    print!(
        "{}",
        scatter(
            "Each point: one random hyper-parameter configuration, trained to completion",
            "GPU power [W]",
            "test error [%]",
            &series,
            72,
            24,
        )
    );

    // Iso-accuracy power spread: among converged configurations, bucket by
    // error and report the largest in-bucket power range.
    let mut best_spread: (f64, f64) = (0.0, 0.0); // (spread W, bucket error %)
    for bucket in 0..16 {
        let lo = 20.0 + bucket as f64 * 2.0;
        let hi = lo + 2.0;
        let bucket_points: Vec<f64> = points
            .iter()
            .filter(|(_, e)| (lo..hi).contains(e))
            .map(|(p, _)| *p)
            .collect();
        if bucket_points.len() >= 2 {
            let min = bucket_points.iter().copied().fold(f64::INFINITY, f64::min);
            let max = bucket_points
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            if max - min > best_spread.0 {
                best_spread = (max - min, (lo + hi) / 2.0);
            }
        }
    }
    println!(
        "\nLargest iso-accuracy power spread: {:.2} W (around {:.0}% error) — the paper reports up to 55.01 W.",
        best_spread.0, best_spread.1
    );

    // Motivating design points vs an AlexNet-like mid reference.
    let reference = scenario
        .space
        .decode(
            &Config::new(vec![
                0.75, 0.9, 0.4, 0.75, 0.9, 0.4, 0.75, 0.9, 0.4, 0.6, 0.5, 0.5, 0.5,
            ])
            .expect("in range"),
        )
        .expect("valid");
    let ref_power = gpu.analyze(&reference.arch).power.get();
    let ref_err = sim
        .simulate(&reference.arch, &reference.hyper, 999)
        .final_error
        * 100.0;
    let iso_error_saving = points
        .iter()
        .filter(|(_, e)| *e <= ref_err)
        .map(|(p, _)| ref_power - p)
        .fold(f64::NEG_INFINITY, f64::max);
    let iso_power_err = points
        .iter()
        .filter(|(p, _)| *p <= ref_power)
        .map(|(_, e)| *e)
        .fold(f64::INFINITY, f64::min);
    println!(
        "Reference (AlexNet-like) config: {ref_power:.1} W at {ref_err:.2}% error.\n\
         Best iso-error power saving found: {iso_error_saving:.2} W (paper: 12.12 W).\n\
         Best iso-power error: {iso_power_err:.2}% vs reference {ref_err:.2}% (paper: 21.16% vs 24.74%).",
    );

    println!("\n--- CSV ---");
    print!("{}", csv(&series));
}
