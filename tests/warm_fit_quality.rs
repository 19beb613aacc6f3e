//! How close warm-started GP hyper-parameter fits stay to cold ones.
//!
//! A BO searcher starts each round's hyper-parameter search at the
//! previous round's optimum and runs one Nelder–Mead restart, where a cold
//! search runs two from data-driven seeds. This replays one fixed growing
//! chain: the first 40 observations of a seeded HW-CWEI run, fitted at
//! n = 3..=40 rows, each warm fit started from the one before. Each warm
//! fit's log marginal likelihood is compared with the cold fit's on the
//! same rows. The chain is deterministic, so the bounds below are set just
//! outside its own values.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use hyperpower::methods::{BoSearcher, ConstraintWeighting, MAX_JITTER_RUNGS};
use hyperpower::{Budget, Method, Mode, Scenario, Session};
use hyperpower_gp::{fit_gp_hyperparams_laddered, fit_gp_hyperparams_laddered_from, Matern52};
use hyperpower_linalg::Matrix;

#[test]
fn warm_fits_track_cold_fits_along_a_growing_history() {
    let mut session = Session::new(Scenario::cifar10_gtx1070(), 7).expect("session");
    let trace = session
        .run_seeded(Method::HwCwei, Mode::HyperPower, Budget::Evaluations(48), 7)
        .expect("run");
    let rows: Vec<(&[f64], f64)> = trace
        .samples
        .iter()
        .filter_map(|s| Some((s.config.unit(), s.error.filter(|e| e.is_finite())?)))
        .take(40)
        .collect();
    assert_eq!(rows.len(), 40, "the run observed 40 finite errors");
    let d = rows[0].0.len();
    let options = BoSearcher::new(ConstraintWeighting::None, None).fit_options;
    let kernel = Matern52::new(0.5).into_kernel();

    let mut start = None;
    let mut gaps = Vec::new();
    for n in 3..=rows.len() {
        let x = Matrix::from_vec(
            n,
            d,
            rows[..n].iter().flat_map(|(u, _)| u.to_vec()).collect(),
        )
        .unwrap();
        let y: Vec<f64> = rows[..n].iter().map(|(_, e)| *e).collect();
        let warm = fit_gp_hyperparams_laddered_from(
            kernel.clone(),
            &x,
            &y,
            options,
            MAX_JITTER_RUNGS,
            start,
        )
        .expect("warm fit")
        .fitted;
        let cold = fit_gp_hyperparams_laddered(kernel.clone(), &x, &y, options, MAX_JITTER_RUNGS)
            .expect("cold fit")
            .fitted;
        gaps.push(warm.gp.log_marginal_likelihood() - cold.gp.log_marginal_likelihood());
        start = Some([
            warm.length_scale.ln(),
            warm.signal_variance.ln(),
            warm.noise_variance.ln(),
        ]);
    }
    // The first fit has no start: it is the cold fit.
    assert_eq!(gaps[0].to_bits(), 0f64.to_bits());
    // On this chain the worst warm fit sits 0.0997 nats below its cold
    // fit, and 32 of the 38 fits match or beat it.
    let worst = gaps.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(worst >= -0.11, "worst warm fit {worst} nats below cold");
    let at_least_cold = gaps.iter().filter(|g| **g >= 0.0).count();
    assert!(
        at_least_cold >= 32,
        "only {at_least_cold} of {} warm fits match or beat the cold fit",
        gaps.len()
    );
}
