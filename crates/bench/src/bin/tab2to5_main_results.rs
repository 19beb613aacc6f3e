//! Tables 2–5: the paper's main fixed-runtime comparison.
//!
//! For every device–dataset pair and every method, runs the
//! constraint-unaware Default baseline and the HyperPower variant under
//! the paper's wall-clock budgets (2 h MNIST / 5 h CIFAR-10, virtual
//! time), three paired runs each, and prints:
//!
//! * **Table 2** — mean (std) best feasible test error,
//! * **Table 3** — runtime for HyperPower to reach the default's queried
//!   sample count, with geometric-mean speedup,
//! * **Table 4** — queried-sample counts and increase,
//! * **Table 5** — time to reach the default's best accuracy, with
//!   speedup.
//!
//! Usage: `tab2to5_main_results [--quick] [--workers N]` (`--quick`: one
//! run per cell and quarter-length budgets, for smoke testing;
//! `--workers`: run the 16 independent (pair × method) cells on N threads
//! — the printed tables are bit-identical for every N, only wall-clock
//! changes; defaults to the `HYPERPOWER_WORKERS` environment variable,
//! then 1).

// Experiment binaries are terminal programs: printing results and
// panicking on setup failures are the point, not a lint violation.
#![allow(clippy::print_stdout, clippy::print_stderr)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hyperpower::executor::parallel_map;
use hyperpower::report::{format_error_cell, format_scalar_cell, PairedRuns};
use hyperpower::{Budget, Method, Mode, Scenario, Session, Trace};
use hyperpower_bench::parallel::workers_from_args;

fn run_pairs(
    scenario: &Scenario,
    method: Method,
    runs: usize,
    hours: f64,
    base_seed: u64,
) -> PairedRuns {
    let mut session = Session::new(scenario.clone(), base_seed).expect("session setup");
    let mut default_runs: Vec<Trace> = Vec::new();
    let mut hyperpower_runs: Vec<Trace> = Vec::new();
    for run in 0..runs {
        let seed = base_seed * 1000 + run as u64;
        default_runs.push(
            session
                .run_seeded(method, Mode::Default, Budget::VirtualHours(hours), seed)
                .expect("default run"),
        );
        hyperpower_runs.push(
            session
                .run_seeded(method, Mode::HyperPower, Budget::VirtualHours(hours), seed)
                .expect("hyperpower run"),
        );
    }
    PairedRuns {
        default_runs,
        hyperpower_runs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let workers = workers_from_args(&args);
    let runs = if quick { 1 } else { 5 };
    let budget_scale = if quick { 0.25 } else { 1.0 };

    let scenarios = Scenario::all_pairs();
    let methods = Method::ALL;

    // Each (pair, method) cell builds its own session from its own seed,
    // so the 16 cells are fully independent: running them on threads
    // cannot change any table entry, only the wall-clock.
    let cells: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|si| (0..methods.len()).map(move |mi| (si, mi)))
        .collect();
    eprintln!(
        "running {} (pair x method) cells on {workers} thread(s) ...",
        cells.len()
    );
    let mut computed = parallel_map(&cells, workers, |_, &(si, mi)| {
        let scenario = &scenarios[si];
        eprintln!("running {} / {} ...", scenario.name, methods[mi]);
        let hours = scenario.time_budget_hours * budget_scale;
        run_pairs(
            scenario,
            methods[mi],
            runs,
            hours,
            (si * 10 + mi + 1) as u64,
        )
    })
    .into_iter();

    // results[pair][method], in the cells' row-major order.
    let mut results: Vec<Vec<PairedRuns>> = Vec::new();
    for _ in 0..scenarios.len() {
        let row: Vec<PairedRuns> = computed.by_ref().take(methods.len()).collect();
        results.push(row);
    }

    let pair_names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    let header = || {
        print!("{:<10}", "Solver");
        for name in &pair_names {
            print!(" | {name:^34}");
        }
        println!();
        print!("{:<10}", "");
        for _ in &pair_names {
            print!(" | {:^16} {:^17}", "Default", "HyperPower");
        }
        println!();
    };

    println!("\nTABLE 2. MEAN BEST TEST ERROR (AND STANDARD DEVIATION) PER METHOD.");
    header();
    for (mi, method) in methods.iter().enumerate() {
        print!("{:<10}", method.to_string());
        for (si, scenario) in scenarios.iter().enumerate() {
            let row = results[si][mi].best_error_row(scenario.dataset.chance_error);
            print!(
                " | {:^16} {:^17}",
                format_error_cell(row.default),
                format_error_cell(row.hyperpower)
            );
        }
        println!();
    }

    println!("\nTABLE 3. RUNTIME (HOURS) FOR HYPERPOWER METHODS TO REACH THE NUMBER OF SAMPLES THAT THEIR EXHAUSTIVE COUNTERPARTS QUERIED.");
    header();
    for (mi, method) in methods.iter().enumerate() {
        print!("{:<10}", method.to_string());
        for scenario_results in results.iter().take(scenarios.len()) {
            let row = scenario_results[mi].runtime_to_samples_row();
            print!(
                " | {:>6} {:>6} {:>9}",
                format_scalar_cell(row.default_hours, ""),
                format_scalar_cell(row.hyperpower_hours, ""),
                format_scalar_cell(row.speedup, "x")
            );
            print!("{}", " ".repeat(11));
        }
        println!();
    }

    println!("\nTABLE 4. INCREASE IN THE NUMBER OF SAMPLES THAT EACH METHOD WAS ABLE TO QUERY.");
    header();
    for (mi, method) in methods.iter().enumerate() {
        print!("{:<10}", method.to_string());
        for scenario_results in results.iter().take(scenarios.len()) {
            let row = scenario_results[mi].sample_count_row();
            print!(
                " | {:>7} {:>8} {:>8}",
                format_scalar_cell(row.default_samples, ""),
                format_scalar_cell(row.hyperpower_samples, ""),
                format_scalar_cell(row.increase, "x")
            );
            print!("{}", " ".repeat(9));
        }
        println!();
    }

    println!("\nTABLE 5. IMPROVEMENT IN RUNTIME (HOURS) TO ACHIEVE THE BEST ACCURACY THAT THE EXHAUSTIVE METHODS DID.");
    header();
    for (mi, method) in methods.iter().enumerate() {
        print!("{:<10}", method.to_string());
        for scenario_results in results.iter().take(scenarios.len()) {
            let row = scenario_results[mi].time_to_accuracy_row();
            print!(
                " | {:>6} {:>6} {:>9}",
                format_scalar_cell(row.default_hours, ""),
                format_scalar_cell(row.hyperpower_hours, ""),
                format_scalar_cell(row.speedup, "x")
            );
            print!("{}", " ".repeat(11));
        }
        println!();
    }

    println!("\n(5 paired runs per cell unless --quick; budgets: 2 h MNIST, 5 h CIFAR-10 of virtual time; '--' = no feasible design found, as in the paper.)");
}
