//! The profiled GP hyper-parameter fit against the three-parameter fit it
//! replaced, along growing histories.
//!
//! The library's fit searches (ln ℓ, ln r), with r = σ_n²/σ_f², and sets
//! σ_f² in closed form in every trial; a warm fit runs one restart from
//! the previous optimum and one from the heuristic seed. The gp crate's
//! test support holds the fit it replaced, frozen, which searched all
//! three hyper-parameters and ran one restart from a warm start. This
//! replays four fixed growing
//! chains of BO observations, each fitted at n = 3, 4, … rows, and each
//! side warm-starts every fit after the first at its own previous optimum.
//! Every fit's log marginal likelihood is compared with the frozen fit's
//! on the same rows. The chains are deterministic, so the bounds below are
//! set just outside their own values.

#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "../crates/gp/tests/common/mod.rs"]
mod common;

use common::frozen_fit_gp_hyperparams_laddered_from;
use hyperpower::methods::{BoSearcher, ConstraintWeighting, MAX_JITTER_RUNGS};
use hyperpower::{Budget, Method, Mode, Scenario, Session};
use hyperpower_gp::{fit_gp_hyperparams_laddered_from, FitOptions, FittedGp, Matern52};
use hyperpower_linalg::Matrix;

/// The first `rows` finite-error observations of a seeded HyperPower-mode
/// run, as (unit-cube configuration, error).
fn chain(
    scenario: Scenario,
    method: Method,
    seed: u64,
    evals: usize,
    rows: usize,
) -> Vec<(Vec<f64>, f64)> {
    let mut session = Session::new(scenario, seed).expect("session");
    let trace = session
        .run_seeded(method, Mode::HyperPower, Budget::Evaluations(evals), seed)
        .expect("run");
    let chain: Vec<(Vec<f64>, f64)> = trace
        .samples
        .iter()
        .filter_map(|s| Some((s.config.unit().to_vec(), s.error.filter(|e| e.is_finite())?)))
        .take(rows)
        .collect();
    assert_eq!(chain.len(), rows, "the run observed {rows} finite errors");
    chain
}

/// A fit's hyper-parameters in log space, where the next fit starts.
fn log_params(fitted: &FittedGp) -> [f64; 3] {
    [
        fitted.length_scale.ln(),
        fitted.signal_variance.ln(),
        fitted.noise_variance.ln(),
    ]
}

/// Each fit's log marginal likelihood minus the frozen fit's, at n = 3 up
/// to the chain's length, both sides warm-started along their own chain.
fn gaps(chain: &[(Vec<f64>, f64)], options: FitOptions, frozen: FitOptions) -> Vec<f64> {
    let d = chain[0].0.len();
    let kernel = Matern52::new(0.5).into_kernel();
    let (mut start, mut frozen_start) = (None, None);
    let mut gaps = Vec::new();
    for n in 3..=chain.len() {
        let x = Matrix::from_vec(
            n,
            d,
            chain[..n].iter().flat_map(|(u, _)| u.clone()).collect(),
        )
        .unwrap();
        let y: Vec<f64> = chain[..n].iter().map(|(_, e)| *e).collect();
        let new = fit_gp_hyperparams_laddered_from(
            kernel.clone(),
            &x,
            &y,
            options,
            MAX_JITTER_RUNGS,
            start,
        )
        .expect("fit")
        .fitted;
        let old = frozen_fit_gp_hyperparams_laddered_from(
            kernel.clone(),
            &x,
            &y,
            frozen,
            MAX_JITTER_RUNGS,
            frozen_start,
        )
        .expect("frozen fit")
        .fitted;
        gaps.push(new.gp.log_marginal_likelihood() - old.gp.log_marginal_likelihood());
        start = Some(log_params(&new));
        frozen_start = Some(log_params(&old));
    }
    gaps
}

#[test]
fn profiled_fits_are_no_worse_than_the_frozen_fit_along_growing_chains() {
    let options = BoSearcher::new(ConstraintWeighting::None, None).fit_options;
    // The searchers' options when the frozen fit was the library's.
    let frozen = FitOptions {
        max_evals_per_restart: 80,
        ..options
    };
    let chains = [
        (
            "HW-CWEI CIFAR-GTX seed 7",
            chain(Scenario::cifar10_gtx1070(), Method::HwCwei, 7, 48, 40),
        ),
        (
            "HW-IECI MNIST-GTX seed 11",
            chain(Scenario::mnist_gtx1070(), Method::HwIeci, 11, 80, 76),
        ),
        (
            "HW-CWEI CIFAR-GTX seed 3",
            chain(Scenario::cifar10_gtx1070(), Method::HwCwei, 3, 80, 76),
        ),
        (
            "HW-IECI CIFAR-Tegra seed 5",
            chain(Scenario::cifar10_tegra_tx1(), Method::HwIeci, 5, 80, 76),
        ),
    ];
    let mut report = Vec::new();
    for (name, chain) in &chains {
        let gaps = gaps(chain, options, frozen);
        // The first fit has no start: both sides run their cold search.
        let cold = gaps[0];
        let warm = &gaps[1..];
        let worst = warm.iter().copied().fold(f64::INFINITY, f64::min);
        let best = warm.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let at_least = warm.iter().filter(|g| **g >= 0.0).count();
        report.push(format!(
            "{name}: cold {cold:+.1e}, warm worst {worst:+.1e} best {best:+.4}, \
             {at_least} of {} at least the frozen fit's",
            warm.len()
        ));
        assert!(
            cold >= -0.001,
            "{name}: cold fit {cold} nats below the frozen fit"
        );
        assert!(
            worst >= -0.001,
            "{name}: a warm fit {worst} nats below the frozen fit"
        );
    }
    eprintln!("{}", report.join("\n"));
}
