//! Figure 5: predicted vs actual power for the proposed models, on MNIST
//! and CIFAR-10 networks executing on the GTX 1070 (left) and Tegra TX1
//! (right).
//!
//! Alignment along the diagonal indicates good prediction. The models are
//! fitted on 100 profiled configurations (10-fold CV) and evaluated here
//! on 100 *fresh* configurations per pair.

// Experiment binaries are terminal programs: printing results and
// panicking on setup failures are the point, not a lint violation.
#![allow(clippy::print_stdout, clippy::print_stderr)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hyperpower::{Config, Scenario, Session};
use hyperpower_bench::plot::{csv, scatter, Series};
use hyperpower_gpu_sim::Gpu;
use hyperpower_linalg::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("FIGURE 5. Actual vs predicted power using the fitted linear models.\n");
    let pairs = [
        (Scenario::mnist_gtx1070(), 'm'),
        (Scenario::cifar10_gtx1070(), 'c'),
        (Scenario::mnist_tegra_tx1(), 'M'),
        (Scenario::cifar10_tegra_tx1(), 'C'),
    ];

    let mut all_series = Vec::new();
    for (scenario, marker) in pairs {
        let name = scenario.name.clone();
        let device = scenario.device.clone();
        let space = scenario.space.clone();
        let session = Session::new(scenario, 31).expect("session setup");
        let mut gpu = Gpu::new(device, 77);
        let mut rng = StdRng::seed_from_u64(99);
        let mut pts = Vec::new();
        let mut actuals = Vec::new();
        let mut predictions = Vec::new();
        for _ in 0..100 {
            let config = Config::random(&mut rng, space.dim());
            let decoded = space.decode(&config).expect("valid");
            let actual = gpu.measure_power(&gpu.analyze(&decoded.arch)).get();
            let predicted = session.models().predict_power(&decoded.structural).get();
            pts.push((actual, predicted));
            actuals.push(actual);
            predictions.push(predicted);
        }
        let rmspe = stats::rmspe(&predictions, &actuals).unwrap_or(f64::NAN);
        println!(
            "  {name}: held-out RMSPE {:.2}% over 100 fresh configurations",
            rmspe * 100.0
        );
        all_series.push(Series::new(marker, name, pts));
    }

    // GTX panel.
    println!("\n(left) GTX 1070:");
    print!(
        "{}",
        scatter(
            "diagonal = perfect prediction",
            "actual power [W]",
            "predicted power [W]",
            &all_series[0..2],
            60,
            18,
        )
    );
    // Tegra panel.
    println!("\n(right) Tegra TX1:");
    print!(
        "{}",
        scatter(
            "diagonal = perfect prediction",
            "actual power [W]",
            "predicted power [W]",
            &all_series[2..4],
            60,
            18,
        )
    );

    println!("\n--- CSV ---");
    print!("{}", csv(&all_series));
}
