//! Property-based tests for the HyperPower core crate.

// Test-support code: strategies build exact values and assert round-trips
// bit-for-bit; panicking helpers are correct in a test harness.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use hyperpower::driver::RunSetup;
use hyperpower::golden::encode_trace;
use hyperpower::integrity::crc32;
use hyperpower::methods::History;
use hyperpower::model::{FeatureMap, LinearHwModel, TargetTransform};
use hyperpower::recovery::{plan_trial, RetryPolicy, TrialOutcome};
use hyperpower::space::Decoded;
use hyperpower::{
    run_optimization_with, Budget, Budgets, Config, ConstraintOracle, EarlyTermination,
    EvaluationResult, ExecutorOptions, HwModels, Mebibytes, Method, Mode, Objective, SearchSpace,
    Trace, Watts,
};
use hyperpower_gpu_sim::{
    DeviceProfile, FaultPlan, FaultProfile, Gpu, TrainingCostModel, TrainingFault,
};
use proptest::prelude::*;

/// A stub objective with arbitrary (proptest-chosen) virtual durations:
/// the training time and error depend only on the evaluation seed, exactly
/// like the real objectives, so the executor's scheduling decisions are
/// the only thing under test.
struct FakeObjective {
    durations: Vec<f64>,
}

impl Objective for FakeObjective {
    fn evaluate(
        &self,
        _decoded: &Decoded,
        early: Option<&EarlyTermination>,
        seed: u64,
    ) -> hyperpower::Result<EvaluationResult> {
        let idx = (seed as usize) % self.durations.len();
        let terminated_early = early.is_some() && seed.is_multiple_of(3);
        let train_secs = if terminated_early {
            self.durations[idx] * 0.25
        } else {
            self.durations[idx]
        };
        Ok(EvaluationResult {
            error: 0.05 + 0.9 * ((seed % 997) as f64 / 997.0),
            diverged: false,
            terminated_early,
            train_secs,
        })
    }

    fn full_epochs(&self) -> usize {
        10
    }
}

fn run_fake(
    objective: &FakeObjective,
    budget: Budget,
    seed: u64,
    workers: usize,
    gpus: usize,
) -> Trace {
    let space = SearchSpace::mnist();
    let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), seed);
    run_optimization_with(
        RunSetup {
            space: &space,
            objective,
            gpu: &mut gpu,
            budgets: Budgets::default(),
            oracle: None,
            early_termination: Some(EarlyTermination::default()),
            cost: TrainingCostModel::default(),
            method: Method::Rand,
            mode: Mode::HyperPower,
            budget,
            seed,
            searcher_override: None,
        },
        &ExecutorOptions {
            workers,
            simulated_gpus: gpus,
            ..ExecutorOptions::default()
        },
    )
    .expect("fake run")
}

fn run_fake_with_profile(
    objective: &FakeObjective,
    budget: Budget,
    seed: u64,
    workers: usize,
    gpus: usize,
    profile: FaultProfile,
) -> Trace {
    let space = SearchSpace::mnist();
    let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), seed);
    run_optimization_with(
        RunSetup {
            space: &space,
            objective,
            gpu: &mut gpu,
            budgets: Budgets::default(),
            oracle: None,
            early_termination: Some(EarlyTermination::default()),
            cost: TrainingCostModel::default(),
            method: Method::Rand,
            mode: Mode::HyperPower,
            budget,
            seed,
            searcher_override: None,
        },
        &ExecutorOptions {
            workers,
            simulated_gpus: gpus,
            fault_profile: profile,
            ..ExecutorOptions::default()
        },
    )
    .expect("fake run")
}

fn unit_vec(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..=1.0, dim)
}

/// A power model fitted to `P(z) = 60 + Σ z` with a known residual spread.
fn toy_power_model(noise: f64) -> LinearHwModel {
    let z: Vec<Vec<f64>> = (0..60)
        .map(|i| {
            vec![
                (i % 7) as f64 + 1.0,
                (i % 5) as f64 + 1.0,
                (i % 3) as f64 + 1.0,
            ]
        })
        .collect();
    let y: Vec<f64> = z
        .iter()
        .enumerate()
        .map(|(i, r)| 60.0 + r.iter().sum::<f64>() + noise * if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    LinearHwModel::fit_kfold(&z, &y, 10, FeatureMap::Linear).expect("fits")
}

/// A hardware model over `d` structural values, fitted to seeded positive
/// targets with the given feature map and target transform.
fn seeded_hw_model(
    seed: u64,
    d: usize,
    feature_map: FeatureMap,
    transform: TargetTransform,
) -> LinearHwModel {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let z: Vec<Vec<f64>> = (0..4 * d + 12)
        .map(|_| (0..d).map(|_| rng.random_range(1.0..80.0)).collect())
        .collect();
    let y: Vec<f64> = z
        .iter()
        .map(|r| 50.0 + 0.3 * r.iter().sum::<f64>() + rng.random_range(0.0..5.0))
        .collect();
    LinearHwModel::fit_kfold_transformed(&z, &y, 10, feature_map, transform).expect("fits")
}

/// The oracle of `LinearHwModel::predict`: the explicit feature vector,
/// `vector::dot`, then the inverse of the target transform.
fn predict_by_expansion(model: &LinearHwModel, z: &[f64]) -> f64 {
    let y = hyperpower_linalg::vector::dot(model.weights(), &model.feature_map().expand(z));
    match model.target_transform() {
        TargetTransform::Identity => y,
        TargetTransform::Log => y.exp(),
    }
}

/// Structural values for the prediction oracle: mostly in the spaces'
/// ranges, salted with signed zeros, negatives and large magnitudes.
fn z_entry() -> impl Strategy<Value = f64> {
    (
        prop::sample::select(vec![0u8, 0, 0, 0, 1, 2, 3, 4]),
        0.0f64..700.0,
    )
        .prop_map(|(kind, v)| match kind {
            0 => v,
            1 => 0.0,
            2 => -0.0,
            3 => -v,
            _ => v * 1e12,
        })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn hw_model_predict_panics_on_a_wrong_length_z() {
    for feature_map in [FeatureMap::Linear, FeatureMap::Quadratic] {
        let model = seeded_hw_model(3, 4, feature_map, TargetTransform::Identity);
        assert!(model.predict(&[1.0; 4]).is_finite());
        for len in [0, 3, 5, 9] {
            let z = vec![1.0; len];
            let outcome = std::panic::catch_unwind(|| model.predict(&z));
            assert!(
                outcome.is_err(),
                "{feature_map:?}: a z of length {len} against 4 structural values must panic"
            );
        }
    }
}

/// The CRC32 (IEEE) of `bytes` one bit at a time: eight shifts per byte
/// against the reflected polynomial, with no table.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Lengths 0–64 run the eight-byte words alone, the byte-wise tail alone,
/// and both; each start offset 0–7 slides every byte through every lane
/// of a word.
#[test]
fn crc32_matches_the_bitwise_reference_at_every_length_and_offset() {
    let buffer: Vec<u8> = (0u32..72).map(|i| (i * 151 + 17) as u8).collect();
    for offset in 0..8 {
        for len in 0..=64 {
            let bytes = &buffer[offset..offset + len];
            assert_eq!(
                crc32(bytes),
                crc32_bitwise(bytes),
                "offset {offset}, length {len}"
            );
        }
    }
}

proptest! {
    #[test]
    fn crc32_matches_the_bitwise_reference_on_random_buffers(
        bytes in proptest::collection::vec(0u8..=255, 4096),
    ) {
        prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
    }
}

proptest! {
    #[test]
    fn hw_model_predict_bit_equals_expanded_dot(
        seed in 0u64..1_000_000,
        d in 1usize..=10,
        feature_map in prop::sample::select(vec![FeatureMap::Linear, FeatureMap::Quadratic]),
        transform in prop::sample::select(vec![TargetTransform::Identity, TargetTransform::Log]),
        zs in proptest::collection::vec(proptest::collection::vec(z_entry(), 10), 8),
    ) {
        let model = seeded_hw_model(seed, d, feature_map, transform);
        for z in &zs {
            let z = &z[..d];
            prop_assert_eq!(
                model.predict(z).to_bits(),
                predict_by_expansion(&model, z).to_bits(),
                "{:?}/{:?} prediction at {:?}",
                feature_map,
                transform,
                z
            );
        }
    }

    #[test]
    fn every_unit_point_decodes_mnist(unit in unit_vec(6)) {
        let space = SearchSpace::mnist();
        let config = Config::new(unit).unwrap();
        let decoded = space.decode(&config).unwrap();
        // All decoded values within the paper's published ranges.
        prop_assert!((20.0..=80.0).contains(&decoded.values[0]));
        prop_assert!((2.0..=5.0).contains(&decoded.values[1]));
        prop_assert!((1.0..=3.0).contains(&decoded.values[2]));
        prop_assert!((200.0..=700.0).contains(&decoded.values[3]));
        prop_assert!((1e-3..=0.1).contains(&decoded.hyper.learning_rate()));
        prop_assert!((0.8..=0.95).contains(&decoded.hyper.momentum()));
        prop_assert_eq!(decoded.structural.len(), 4);
    }

    #[test]
    fn every_unit_point_decodes_cifar(unit in unit_vec(13)) {
        let space = SearchSpace::cifar10();
        let config = Config::new(unit).unwrap();
        let decoded = space.decode(&config).unwrap();
        prop_assert!(decoded.arch.param_count() > 0);
        prop_assert_eq!(decoded.structural.len(), 10);
        prop_assert!((1e-4..=1e-2).contains(&decoded.hyper.weight_decay()));
    }

    #[test]
    fn structural_values_agree_with_decode(unit in unit_vec(13)) {
        // `structural_values` runs the buffered decode that BO screening
        // reuses one buffer for; it must give `decode`'s `z`, bit for bit.
        for space in [SearchSpace::cifar10(), SearchSpace::mnist()] {
            let config = Config::new(unit[..space.dim()].to_vec()).unwrap();
            let z = space.structural_values(&config).unwrap();
            let decoded = space.decode(&config).unwrap();
            prop_assert_eq!(bits(&z), bits(&decoded.structural));
        }
    }

    #[test]
    fn integer_dimensions_decode_monotonically(u1 in 0.0f64..=1.0, u2 in 0.0f64..=1.0) {
        let space = SearchSpace::mnist();
        let dim = &space.dimensions()[0]; // conv1_features, 20..=80
        let (lo, hi) = (u1.min(u2), u1.max(u2));
        prop_assert!(dim.decode(lo) <= dim.decode(hi));
    }

    #[test]
    fn gaussian_step_stays_in_cube(unit in unit_vec(13), sigma in 0.001f64..1.0, seed in 0u64..500) {
        use rand::{rngs::StdRng, SeedableRng};
        let base = Config::new(unit).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let step = base.gaussian_step(sigma, &mut rng);
        prop_assert!(step.unit().iter().all(|u| (0.0..=1.0).contains(u)));
        prop_assert_eq!(step.dim(), base.dim());
    }

    #[test]
    fn indicator_implies_majority_probability(z in proptest::collection::vec(1.0f64..8.0, 3)) {
        // If the hard indicator says feasible, the Gaussian constraint
        // probability must be at least 1/2 (and vice versa).
        let oracle = ConstraintOracle::new(
            HwModels { power: toy_power_model(2.0), memory: None, latency: None },
            Budgets::power(Watts(70.0)),
        );
        let feasible = oracle.predicted_feasible(&z);
        let p = oracle.feasibility_probability(&z);
        prop_assert!((0.0..=1.0).contains(&p));
        if feasible {
            prop_assert!(p >= 0.5 - 1e-9, "indicator true but probability {p}");
        } else {
            prop_assert!(p <= 0.5 + 1e-9, "indicator false but probability {p}");
        }
    }

    #[test]
    fn budgets_none_accepts_everything(power in 0.0f64..1e4) {
        prop_assert!(
            Budgets::default().satisfied_by(Watts(power), Some(Mebibytes(f64::MAX)))
        );
    }

    #[test]
    fn budget_check_is_monotone_in_power(
        budget in 10.0f64..200.0, below in 0.0f64..1.0, above in 0.0f64..100.0
    ) {
        let b = Budgets::power(Watts(budget));
        prop_assert!(b.satisfied_by(Watts(budget * below), None));
        prop_assert!(!b.satisfied_by(Watts(budget + above + 1e-9), None));
    }

    #[test]
    fn history_best_is_minimum(errors in proptest::collection::vec(0.0f64..1.0, 1..30)) {
        let mut h = History::new();
        for (i, e) in errors.iter().enumerate() {
            let u = (i as f64 / errors.len() as f64).min(1.0);
            h.push(Config::new(vec![u; 3]).unwrap(), *e);
        }
        let best = h.best().unwrap().error;
        let min = errors.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(best, min);
    }

    #[test]
    fn executor_eval_budget_is_exact_and_commits_are_ordered(
        durations in proptest::collection::vec(1.0f64..5000.0, 1..12),
        n in 1usize..10,
        gpus in 1usize..5,
        seed in 0u64..200,
    ) {
        let objective = FakeObjective { durations };
        let trace = run_fake(&objective, Budget::Evaluations(n), seed, 1, gpus);
        // The budget is met exactly: never undershot, never exceeded by
        // in-flight work (no screen here, so every sample is evaluated).
        prop_assert_eq!(trace.evaluations(), n);
        prop_assert_eq!(trace.queried(), n);
        // Commits are sorted by completion time with contiguous indices —
        // no sample lost, duplicated or reordered.
        let mut prev = 0.0f64;
        for (i, s) in trace.samples.iter().enumerate() {
            prop_assert_eq!(s.index, i);
            prop_assert!(s.timestamp_s >= prev, "commit order broken at {i}");
            prev = s.timestamp_s;
        }
        prop_assert!(trace.total_time_s >= prev);
    }

    #[test]
    fn executor_trace_is_worker_count_invariant(
        durations in proptest::collection::vec(1.0f64..5000.0, 1..12),
        n in 1usize..8,
        gpus in 1usize..4,
        seed in 0u64..200,
        workers in 2usize..6,
    ) {
        let objective = FakeObjective { durations };
        let reference = encode_trace(&run_fake(&objective, Budget::Evaluations(n), seed, 1, gpus));
        let parallel = encode_trace(&run_fake(&objective, Budget::Evaluations(n), seed, workers, gpus));
        prop_assert_eq!(reference, parallel);
    }

    #[test]
    fn executor_deadline_overshoot_is_at_most_one_sample_per_gpu(
        durations in proptest::collection::vec(1.0f64..5000.0, 1..12),
        gpus in 1usize..5,
        seed in 0u64..200,
        deadline_h in 0.05f64..2.0,
    ) {
        let objective = FakeObjective { durations };
        let trace = run_fake(&objective, Budget::VirtualHours(deadline_h), seed, 1, gpus);
        // Work is always dispatched at t = 0 < deadline.
        prop_assert!(!trace.samples.is_empty());
        // Only in-flight samples may finish past the deadline: at most one
        // per simulated GPU (the paper's "last sample queried before the
        // limit completes" rule, per worker).
        let deadline_s = deadline_h * 3600.0;
        let overshoots = trace
            .samples
            .iter()
            .filter(|s| s.timestamp_s > deadline_s)
            .count();
        prop_assert!(
            overshoots <= gpus,
            "{overshoots} samples past the deadline with {gpus} GPUs"
        );
    }

    #[test]
    fn charged_virtual_time_is_sum_of_attempts_and_backoff(
        seed in 0u64..5000,
        query in 0u64..5000,
        train_secs in 10.0f64..100_000.0,
        pressure_frac in 0.0f64..1.2,
        glitch_p in 0.0f64..0.5,
        oom_p in 0.0f64..1.0,
        onset_frac in 0.0f64..0.9,
        crash_p in 0.0f64..0.4,
        stall_p in 0.0f64..0.3,
        finite_watchdog_bit in 0u32..2,
        watchdog_secs in 600.0f64..50_000.0,
        max_retries in 0u32..5,
        terminated_early_bit in 0u32..2,
    ) {
        // Satellite invariant: the virtual time a trial charges is exactly
        // the sum of its attempt durations plus the backoff between them —
        // recomputed here independently from the (pure) fault plan, added
        // in the same order so equality is bit-exact.
        let finite_watchdog = finite_watchdog_bit == 1;
        let terminated_early = terminated_early_bit == 1;
        let profile = FaultProfile {
            name: "prop".into(),
            sensor_glitch_prob: glitch_p,
            oom_prob_at_full_pressure: oom_p,
            oom_onset_frac: onset_frac,
            crash_prob: crash_p,
            stall_prob: stall_p,
            timeout_s: if finite_watchdog { watchdog_secs } else { f64::INFINITY },
            sensor_drift_w_per_hour: 0.0,
        };
        let timeout_secs = profile.timeout_s;
        let plan = FaultPlan::new(profile, seed);
        let policy = RetryPolicy { max_retries, ..RetryPolicy::default() };
        let result = EvaluationResult {
            error: 0.1,
            diverged: false,
            terminated_early,
            train_secs,
        };
        let trial = plan_trial(&plan, &policy, query, &result, pressure_frac);

        prop_assert!(trial.attempts >= 1 && trial.attempts <= max_retries + 1);
        let mut expected_secs = 0.0f64;
        for attempt in 1..=trial.attempts {
            let charge_secs = match plan.training_fault(query, attempt, pressure_frac) {
                Some(TrainingFault::Stall) => timeout_secs,
                Some(TrainingFault::Oom) | Some(TrainingFault::Crash) => {
                    plan.fault_point_frac(query, attempt) * train_secs
                }
                None => {
                    if train_secs > timeout_secs && !terminated_early {
                        timeout_secs
                    } else {
                        train_secs
                    }
                }
            };
            expected_secs += charge_secs;
            if attempt < trial.attempts {
                expected_secs += policy.backoff_secs(attempt, plan.backoff_unit(query, attempt));
            }
        }
        prop_assert_eq!(trial.charged_secs, expected_secs);
        // A trial that ran out of attempts is terminal; otherwise the last
        // attempt completed.
        match trial.outcome {
            TrialOutcome::Failed(_) => prop_assert_eq!(trial.attempts, max_retries + 1),
            TrialOutcome::Completed { .. } => {}
        }
    }

    #[test]
    fn executor_deadline_overshoot_bounded_even_with_faults(
        durations in proptest::collection::vec(1.0f64..5000.0, 1..12),
        gpus in 1usize..5,
        seed in 0u64..200,
        deadline_h in 0.05f64..2.0,
    ) {
        // The "last sample queried before the limit completes" rule holds
        // under fault injection too: retries and backoff stretch a trial,
        // but each in-flight trial still commits exactly once.
        let objective = FakeObjective { durations };
        let trace = run_fake_with_profile(
            &objective,
            Budget::VirtualHours(deadline_h),
            seed,
            1,
            gpus,
            FaultProfile::oom_heavy(),
        );
        prop_assert!(!trace.samples.is_empty());
        let deadline_s = deadline_h * 3600.0;
        let overshoots = trace
            .samples
            .iter()
            .filter(|s| s.timestamp_s > deadline_s)
            .count();
        prop_assert!(
            overshoots <= gpus,
            "{overshoots} samples past the deadline with {gpus} GPUs under faults"
        );
    }

    #[test]
    fn recalibrated_weights_are_a_pure_function_of_the_prefix(
        zs in proptest::collection::vec(proptest::collection::vec(1.0f64..8.0, 3), 8..20),
        factor in 1.3f64..2.0,
        split in 0usize..8,
    ) {
        use hyperpower::drift::{DriftConfig, DriftMonitor};
        // Two monitors fed the same committed sequence — plus a third
        // cloned mid-stream — must agree bit-for-bit: recalibration is a
        // pure fold over the committed prefix, with no hidden state.
        let config = DriftConfig {
            recalibrate: true,
            drift_threshold: 0.1,
            safety_margin: 0.0,
        };
        let make = || DriftMonitor::new(
            HwModels { power: toy_power_model(0.0), memory: None, latency: None },
            Budgets::power(Watts(5000.0)),
            config,
        );
        let mut a = make();
        let mut b = make();
        let mut forked = None;
        for (i, z) in zs.iter().enumerate() {
            if i == split {
                forked = Some(a.clone());
            }
            let truth = Watts((60.0 + z.iter().sum::<f64>()) * factor);
            let oa = a.observe_commit(z, truth, None, None, false);
            let ob = b.observe_commit(z, truth, None, None, false);
            prop_assert_eq!(&oa.events, &ob.events);
            prop_assert_eq!(oa.drift_rmspe, ob.drift_rmspe);
            if let Some(c) = forked.as_mut() {
                let oc = c.observe_commit(z, truth, None, None, false);
                prop_assert_eq!(&oa.events, &oc.events);
            }
        }
        prop_assert_eq!(a.recalibrations(), b.recalibrations());
        prop_assert_eq!(
            a.current_models().power.weights(),
            b.current_models().power.weights(),
            "recalibrated weights diverged between identical replays"
        );
        if let Some(c) = forked {
            prop_assert_eq!(
                a.current_models().power.weights(),
                c.current_models().power.weights(),
                "mid-stream clone diverged from the original"
            );
        }
    }

    #[test]
    fn model_prediction_is_affine(z in proptest::collection::vec(0.0f64..10.0, 3), t in 0.0f64..1.0) {
        // Prediction along a segment interpolates linearly.
        let model = toy_power_model(0.0);
        let z2: Vec<f64> = z.iter().map(|v| v + 1.0).collect();
        let mid: Vec<f64> = z.iter().zip(&z2).map(|(a, b)| a + t * (b - a)).collect();
        let interp = model.predict(&z) + t * (model.predict(&z2) - model.predict(&z));
        prop_assert!((model.predict(&mid) - interp).abs() < 1e-9);
    }
}
