//! Figure 3: the two insights behind HyperPower's enhancements.
//!
//! * **Left** — GPU power vs number of training epochs (Tegra TX1, MNIST):
//!   power is (noise apart) *invariant* to how long the network has been
//!   trained, which is why it can be treated as an a-priori-known
//!   constraint and profiled on untrained networks (paper §3.2).
//! * **Right** — test-accuracy trajectories: diverging configurations are
//!   identifiable within the first few epochs (accuracy stuck at chance),
//!   enabling early termination.

// Experiment binaries are terminal programs: printing results and
// panicking on setup failures are the point, not a lint violation.
#![allow(clippy::print_stdout, clippy::print_stderr)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hyperpower::{Config, EarlyTermination, Scenario};
use hyperpower_bench::plot::{scatter, Series};
use hyperpower_gpu_sim::Gpu;
use hyperpower_nn::sim::TrainingSimulator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scenario = Scenario::mnist_tegra_tx1();
    let sim = TrainingSimulator::new(scenario.dataset.clone());
    let mut gpu = Gpu::new(scenario.device.clone(), 3);
    let mut rng = StdRng::seed_from_u64(11);

    // Left: measure power of the same architectures at several training
    // checkpoints. The weights change between checkpoints; the power does
    // not (beyond sensor noise).
    println!("FIGURE 3 (left). Power vs training epochs (MNIST, Tegra TX1).\n");
    let mut power_series = Vec::new();
    for (idx, marker) in [(0u64, 'a'), (1, 'b'), (2, 'c')] {
        let config = Config::random(&mut rng, scenario.space.dim());
        let decoded = scenario.space.decode(&config).expect("valid");
        let report = gpu.analyze(&decoded.arch);
        let mut pts = Vec::new();
        for epoch in [1usize, 5, 10, 20, 30] {
            // A measurement at this checkpoint: the architecture (hence
            // true power) is unchanged; only sensor noise differs.
            pts.push((epoch as f64, gpu.measure_power(&report).get()));
        }
        let spread = pts
            .iter()
            .map(|(_, p)| *p)
            .fold(f64::NEG_INFINITY, f64::max)
            - pts.iter().map(|(_, p)| *p).fold(f64::INFINITY, f64::min);
        println!(
            "  config {}: power spread across checkpoints {:.2} W (sensor noise only)",
            idx, spread
        );
        power_series.push(Series::new(marker, format!("config {idx}"), pts));
    }
    print!(
        "{}",
        scatter(
            "Power is invariant to training progress",
            "training epochs",
            "power [W]",
            &power_series,
            60,
            14,
        )
    );

    // Right: accuracy trajectories for a mix of converging and diverging
    // configurations.
    println!("\nFIGURE 3 (right). Accuracy trajectories identify divergence early.\n");
    let mut acc_series = Vec::new();
    let markers = ['1', '2', '3', '4', '5', '6', '7', '8'];
    let mut divergent = 0;
    for (i, marker) in markers.iter().enumerate() {
        let config = Config::random(&mut rng, scenario.space.dim());
        let decoded = scenario.space.decode(&config).expect("valid");
        let outcome = sim.simulate_epochs(&decoded.arch, &decoded.hyper, 30, i as u64);
        if outcome.diverged {
            divergent += 1;
        }
        let pts: Vec<(f64, f64)> = outcome
            .curve
            .iter()
            .enumerate()
            .map(|(t, e)| ((t + 1) as f64, (1.0 - e) * 100.0))
            .collect();
        acc_series.push(Series::new(
            *marker,
            format!(
                "config {i} ({})",
                if outcome.diverged {
                    "diverged"
                } else {
                    "converged"
                }
            ),
            pts,
        ));
    }
    print!(
        "{}",
        scatter(
            "Diverged runs stay at chance accuracy (10%)",
            "training epochs",
            "test accuracy [%]",
            &acc_series,
            60,
            18,
        )
    );

    let policy = EarlyTermination::default();
    println!(
        "\n{divergent}/8 sampled configurations diverged; all are identifiable at epoch {} with the error threshold {:.0}% (accuracy below {:.0}%).",
        policy.check_epoch,
        policy.error_threshold * 100.0,
        (1.0 - policy.error_threshold) * 100.0
    );
}
