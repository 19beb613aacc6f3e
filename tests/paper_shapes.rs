//! Statistical shape tests: the qualitative results the paper's evaluation
//! rests on must hold in this reproduction. These are the load-bearing
//! claims behind Tables 1–5 and Figures 1, 3, 4 and 6 (the full harnesses
//! live in `crates/bench`).

// Test-support code: strategies build exact values and assert round-trips
// bit-for-bit; panicking helpers are correct in a test harness.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use hyperpower::{Budget, Config, Method, Mode, Scenario, Session};
use hyperpower_gpu_sim::{analyze, Gpu};
use hyperpower_nn::sim::TrainingSimulator;
use hyperpower_nn::TrainingHyper;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Table 1 shape: all fitted models stay below 12% RMSPE (the paper
/// reports <7%; our ground truth is deliberately non-linear, so we allow
/// slightly more slack while staying in the clearly-usable range).
#[test]
fn model_rmspe_within_usable_range() {
    for scenario in Scenario::all_pairs() {
        let name = scenario.name.clone();
        let session = Session::new(scenario, 1).expect("session");
        let power = session.models().power.cv_rmspe();
        assert!(power < 0.12, "{name}: power RMSPE {:.1}%", power * 100.0);
        if let Some(mem) = &session.models().memory {
            assert!(
                mem.cv_rmspe() < 0.12,
                "{name}: memory RMSPE {:.1}%",
                mem.cv_rmspe() * 100.0
            );
        }
    }
}

/// Figure 1 shape: iso-accuracy configurations span tens of watts on the
/// GTX 1070 (the paper reports up to 55 W).
#[test]
fn iso_accuracy_power_spread_is_large() {
    let scenario = Scenario::cifar10_gtx1070();
    let sim = TrainingSimulator::new(scenario.dataset.clone());
    let hyper = TrainingHyper::new(0.012, 0.9, 1e-3).expect("valid");
    let mut rng = StdRng::seed_from_u64(2);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); 40];
    for _ in 0..400 {
        let config = Config::random(&mut rng, scenario.space.dim());
        let decoded = scenario.space.decode(&config).expect("valid");
        let err = sim.asymptotic_error(&decoded.arch, &hyper);
        let power = analyze(&scenario.device, &decoded.arch).power.get();
        let bucket = ((err * 100.0) as usize).min(39);
        buckets[bucket].push(power);
    }
    let max_spread = buckets
        .iter()
        .filter(|b| b.len() >= 3)
        .map(|b| {
            b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - b.iter().copied().fold(f64::INFINITY, f64::min)
        })
        .fold(0.0, f64::max);
    assert!(
        max_spread > 25.0,
        "iso-accuracy power spread only {max_spread:.1} W"
    );
}

/// §3.2 shape: power is invariant to training progress (the measurements
/// of an architecture do not drift as its weights change).
#[test]
fn power_is_training_invariant() {
    let scenario = Scenario::mnist_tegra_tx1();
    let mut gpu = Gpu::new(scenario.device.clone(), 3);
    let config = Config::new(vec![0.6; 6]).expect("in range");
    let decoded = scenario.space.decode(&config).expect("valid");
    let report = gpu.analyze(&decoded.arch);
    let truth = report.power;
    // 20 "checkpoints": all measurements within sensor noise of the truth.
    for _ in 0..20 {
        let m = gpu.measure_power(&report);
        assert!((m - truth).get().abs() < 5.0 * scenario.device.power_noise_w);
    }
}

/// Figure 4 / Table 2 shape on the headline pair (CIFAR-10, GTX 1070):
/// HyperPower Rand beats default Rand on best feasible error under the
/// same time budget, and queries far more samples.
#[test]
fn hyperpower_rand_dominates_default_on_cifar_gtx() {
    let scenario = Scenario::cifar10_gtx1070();
    let chance = scenario.dataset.chance_error;
    let mut session = Session::new(scenario, 4).expect("session");
    let mut default_best = Vec::new();
    let mut hyper_best = Vec::new();
    let mut default_queried = 0usize;
    let mut hyper_queried = 0usize;
    for run in 0..3u64 {
        let d = session
            .run_seeded(Method::Rand, Mode::Default, Budget::VirtualHours(5.0), run)
            .expect("run");
        let h = session
            .run_seeded(
                Method::Rand,
                Mode::HyperPower,
                Budget::VirtualHours(5.0),
                run,
            )
            .expect("run");
        default_best.push(d.best_feasible().map(|b| b.error).unwrap_or(chance));
        hyper_best.push(h.best_feasible().map(|b| b.error).unwrap_or(chance));
        default_queried += d.queried();
        hyper_queried += h.queried();
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&hyper_best) < mean(&default_best) - 0.05,
        "HyperPower {:.3} vs default {:.3}",
        mean(&hyper_best),
        mean(&default_best)
    );
    assert!(
        hyper_queried > default_queried * 5,
        "sample increase only {hyper_queried}/{default_queried}"
    );
    // HyperPower's best error lands in the paper's CIFAR regime.
    assert!(
        mean(&hyper_best) < 0.30,
        "best error {:.3}",
        mean(&hyper_best)
    );
}

/// Table 2 shape for the BO methods on the headline pair (CIFAR-10, GTX
/// 1070): over the table's five paired 5 h runs, HW-CWEI and HW-IECI in
/// HyperPower mode beat their Default runs on mean best feasible error. A
/// run that finds no feasible design counts at chance error, as in the
/// table.
#[test]
fn hyperpower_bo_beats_default_on_cifar_gtx() {
    let scenario = Scenario::cifar10_gtx1070();
    let chance = scenario.dataset.chance_error;
    // The session seeds of the two cells in `tab2to5_main_results`.
    for (method, session_seed) in [(Method::HwCwei, 13u64), (Method::HwIeci, 14)] {
        let mut session = Session::new(scenario.clone(), session_seed).expect("session");
        let mut default_best = Vec::new();
        let mut hyper_best = Vec::new();
        for run in 0..5u64 {
            let seed = session_seed * 1000 + run;
            for (mode, best) in [
                (Mode::Default, &mut default_best),
                (Mode::HyperPower, &mut hyper_best),
            ] {
                let trace = session
                    .run_seeded(method, mode, Budget::VirtualHours(5.0), seed)
                    .expect("run");
                best.push(trace.best_feasible().map_or(chance, |b| b.error));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&hyper_best) < mean(&default_best),
            "{method}: HyperPower {:.3} vs Default {:.3}",
            mean(&hyper_best),
            mean(&default_best)
        );
    }
}

/// Figure 6 shape: with the enhancements on, a method reaches its first
/// feasible design much earlier in wall-clock time.
#[test]
fn enhancements_reach_feasible_region_faster() {
    let scenario = Scenario::cifar10_gtx1070();
    let mut session = Session::new(scenario, 5).expect("session");
    let mut wins = 0;
    for run in 0..3u64 {
        let d = session
            .run_seeded(
                Method::Rand,
                Mode::Default,
                Budget::VirtualHours(5.0),
                70 + run,
            )
            .expect("run");
        let h = session
            .run_seeded(
                Method::Rand,
                Mode::HyperPower,
                Budget::VirtualHours(5.0),
                70 + run,
            )
            .expect("run");
        let first = |t: &hyperpower::Trace| t.best_error_by_time().first().map(|(ts, _)| *ts);
        match (first(&d), first(&h)) {
            (Some(dt), Some(ht)) if ht < dt => wins += 1,
            (None, Some(_)) => wins += 1,
            _ => {}
        }
    }
    assert!(
        wins >= 2,
        "HyperPower reached feasibility first in only {wins}/3 runs"
    );
}

/// Early-termination shape: in HyperPower mode some samples are
/// early-terminated and they cost a small fraction of a full run.
#[test]
fn early_termination_fires_and_saves_time() {
    let scenario = Scenario::mnist_gtx1070();
    let mut session = Session::new(scenario, 6).expect("session");
    // Enough evaluations that some divergent configurations show up.
    let trace = session
        .run_seeded(Method::Rand, Mode::HyperPower, Budget::Evaluations(40), 90)
        .expect("run");
    let terminated: Vec<_> = trace
        .samples
        .iter()
        .filter(|s| s.kind == hyperpower::SampleKind::EarlyTerminated)
        .collect();
    assert!(
        !terminated.is_empty(),
        "expected at least one early-terminated run in 40 evaluations"
    );
    for s in terminated {
        let e = s.error.expect("evaluated");
        assert!(e > 0.8, "terminated runs are at chance level, got {e}");
    }
}
