//! Fault injection, retry/backoff, quarantine and crash-resume tests.
//!
//! The executor's robustness contract, end to end:
//!
//! * the **inert profile changes nothing** — running with
//!   `FaultProfile::none()` (or with checkpointing enabled) is
//!   byte-identical to not having the fault subsystem at all;
//! * a **fixed fault profile is deterministic** — traces are byte-identical
//!   across worker-thread counts, and every emitted trace stays
//!   schema-valid;
//! * **panics are typed** — a panicking objective surfaces as
//!   [`Error::WorkerPanic`] with the proposal index and payload, not as a
//!   poisoned thread;
//! * **early termination beats the watchdog** — a trial that terminated
//!   early is a completed observation even when the full training would
//!   have overrun the timeout (the timeout is recorded as a secondary
//!   cause);
//! * **terminal failures quarantine** — a configuration that exhausts its
//!   retries circuit-breaks: re-proposals are rejected at model-eval cost;
//! * **runs resume** — a run killed mid-flight leaves a checkpoint, and
//!   resuming it yields the same final trace bytes as the uninterrupted
//!   run, at any worker count.
//!
//! The CI fault matrix drives this suite (and the golden suite) with
//! `HYPERPOWER_FAULT_PROFILE` ∈ {none, flaky-sensor, oom-heavy,
//! drifting-hw} × `HYPERPOWER_WORKERS` ∈ {1, 4} ×
//! `HYPERPOWER_RECALIBRATE` ∈ {unset, 1}; see `.github/workflows/ci.yml`.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hyperpower::driver::RunSetup;
use hyperpower::golden::{diff_text, encode_trace, parse};
use hyperpower::methods::{BoSearcher, ConstraintWeighting, History};
use hyperpower::recovery::LIAR_ERROR;
use hyperpower::space::Decoded;
use hyperpower::{
    Budget, Budgets, CheckpointConfig, Config, EarlyTermination, Error, EvaluationResult,
    ExecutorOptions, Method, Mode, Objective, RetryPolicy, SampleKind, Scenario, SearchSpace,
    Searcher, Session, Trace, TrialFailure,
};
use hyperpower_gpu_sim::{DeviceProfile, FaultProfile, Gpu, TrainingCostModel};
use rand::rngs::StdRng;

const SEED: u64 = 0x5EED_FA17;

/// The profile under test for a suite invocation: the CI fault matrix sets
/// `HYPERPOWER_FAULT_PROFILE`; locally the default exercises flaky-sensor.
fn matrix_profile() -> FaultProfile {
    match std::env::var("HYPERPOWER_FAULT_PROFILE") {
        Ok(name) => FaultProfile::parse(&name)
            .unwrap_or_else(|| panic!("unknown HYPERPOWER_FAULT_PROFILE '{name}'")),
        Err(_) => FaultProfile::flaky_sensor(),
    }
}

/// The CI matrix's third axis: `HYPERPOWER_RECALIBRATE=1` turns the
/// self-healing layer on (drift monitor, online refits, adaptive margins)
/// for the matrix invariants, proving they also hold while the constraint
/// models are being rewritten mid-run.
fn matrix_options() -> ExecutorOptions {
    match std::env::var("HYPERPOWER_RECALIBRATE") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("on") => ExecutorOptions::default()
            .with_recalibrate(true)
            .with_drift_threshold(0.05)
            .with_safety_margin(0.05),
        _ => ExecutorOptions::default(),
    }
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/fault-scratch");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn run_session(options: &ExecutorOptions) -> Trace {
    let mut session = Session::new(Scenario::mnist_gtx1070(), SEED).expect("session");
    session
        .run_seeded_with(
            Method::Rand,
            Mode::HyperPower,
            Budget::Evaluations(6),
            SEED,
            options,
        )
        .expect("run")
}

// ---------------------------------------------------------------------------
// Test objectives
// ---------------------------------------------------------------------------

/// Deterministic stub: error and training time are pure functions of the
/// evaluation seed (like the real simulated objective, minus the cost).
struct StubObjective {
    train_secs_base: f64,
    terminated_early: bool,
}

impl StubObjective {
    fn new() -> Self {
        StubObjective {
            train_secs_base: 400.0,
            terminated_early: false,
        }
    }
}

impl Objective for StubObjective {
    fn evaluate(
        &self,
        _decoded: &Decoded,
        _early: Option<&EarlyTermination>,
        seed: u64,
    ) -> hyperpower::Result<EvaluationResult> {
        Ok(EvaluationResult {
            error: 0.05 + 0.9 * ((seed % 997) as f64 / 997.0),
            diverged: false,
            terminated_early: self.terminated_early,
            train_secs: self.train_secs_base + (seed % 13) as f64 * 25.0,
        })
    }

    fn full_epochs(&self) -> usize {
        10
    }
}

/// Panics when asked to evaluate one specific proposal — deterministic at
/// any worker count (the panic is keyed on the evaluation seed, which is a
/// pure function of the proposal index).
struct PanicOnQuery {
    inner: StubObjective,
    target_seed: u64,
}

impl PanicOnQuery {
    /// `query` uses the executor's documented derivation
    /// `eval_seed = run_seed × 0x9e37_79b9_7f4a_7c15 + query`.
    fn new(run_seed: u64, query: u64) -> Self {
        PanicOnQuery {
            inner: StubObjective::new(),
            target_seed: run_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(query),
        }
    }
}

impl Objective for PanicOnQuery {
    fn evaluate(
        &self,
        decoded: &Decoded,
        early: Option<&EarlyTermination>,
        seed: u64,
    ) -> hyperpower::Result<EvaluationResult> {
        assert!(
            seed != self.target_seed,
            "simulated crash: poisoned proposal"
        );
        self.inner.evaluate(decoded, early, seed)
    }

    fn full_epochs(&self) -> usize {
        self.inner.full_epochs()
    }
}

/// Stub that panics once its call budget is spent — the "kill -9" stand-in
/// for crash-resume tests (and the worker-panic regression).
struct ChaosObjective {
    inner: StubObjective,
    calls: AtomicUsize,
    panic_after: usize,
}

impl ChaosObjective {
    fn new(panic_after: usize) -> Self {
        ChaosObjective {
            inner: StubObjective::new(),
            calls: AtomicUsize::new(0),
            panic_after,
        }
    }
}

impl Objective for ChaosObjective {
    fn evaluate(
        &self,
        decoded: &Decoded,
        early: Option<&EarlyTermination>,
        seed: u64,
    ) -> hyperpower::Result<EvaluationResult> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        assert!(
            call < self.panic_after,
            "simulated crash: objective call budget exhausted"
        );
        self.inner.evaluate(decoded, early, seed)
    }

    fn full_epochs(&self) -> usize {
        self.inner.full_epochs()
    }
}

/// Always proposes the same configuration (for quarantine tests).
struct FixedSearcher(Config);

impl Searcher for FixedSearcher {
    fn propose(
        &mut self,
        _space: &SearchSpace,
        _history: &History,
        _rng: &mut StdRng,
    ) -> hyperpower::Result<Config> {
        Ok(self.0.clone())
    }
}

/// Runs the stub objective through the real executor with full control over
/// options (no profiling/oracle, so every proposal is evaluated).
fn run_stub(
    objective: &dyn Objective,
    budget: Budget,
    options: &ExecutorOptions,
    searcher: Option<Box<dyn Searcher>>,
) -> hyperpower::Result<Trace> {
    let space = SearchSpace::mnist();
    let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), SEED);
    hyperpower::run_optimization_with(
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
            seed: SEED,
            searcher_override: searcher,
        },
        options,
    )
}

// ---------------------------------------------------------------------------
// Inert profile and matrix invariants
// ---------------------------------------------------------------------------

#[test]
fn inert_profile_and_checkpointing_change_no_bytes() {
    let baseline = encode_trace(&run_session(&ExecutorOptions::default()));
    let explicit_none = encode_trace(&run_session(
        &ExecutorOptions::default().with_fault_profile(FaultProfile::none()),
    ));
    assert_eq!(baseline, explicit_none);

    // Observing the run through a checkpoint sink must not perturb it.
    let ckpt = scratch_path("inert.ckpt");
    let with_sink = encode_trace(&run_session(
        &ExecutorOptions::default().with_checkpoint(CheckpointConfig::every_commit(ckpt.clone())),
    ));
    assert_eq!(baseline, with_sink);
    assert!(ckpt.exists(), "checkpoint file written");
}

#[test]
fn matrix_profile_trace_is_worker_invariant_and_schema_valid() {
    let profile = matrix_profile();
    for gpus in [1usize, 2] {
        let reference = encode_trace(&run_session(
            &matrix_options()
                .with_fault_profile(profile.clone())
                .with_simulated_gpus(gpus),
        ));
        let parallel = encode_trace(&run_session(
            &matrix_options()
                .with_fault_profile(profile.clone())
                .with_simulated_gpus(gpus)
                .with_workers(4),
        ));
        assert_eq!(reference, parallel, "workers must not change the trace");
        // And the same profile + seed replays exactly.
        let replay = encode_trace(&run_session(
            &matrix_options()
                .with_fault_profile(profile.clone())
                .with_simulated_gpus(gpus),
        ));
        assert_eq!(reference, replay, "fault schedule must replay exactly");
        parse(&reference).expect("faulted trace stays schema-valid");
        assert!(diff_text(&reference, &parallel).is_empty());
    }
}

// ---------------------------------------------------------------------------
// Worker-panic capture
// ---------------------------------------------------------------------------

#[test]
fn panicking_objective_becomes_typed_worker_panic() {
    // Poison proposal 2: at every worker count the typed error names the
    // same proposal and carries the panic payload.
    for workers in [1usize, 4] {
        let objective = PanicOnQuery::new(SEED, 2);
        let err = run_stub(
            &objective,
            Budget::Evaluations(8),
            &ExecutorOptions::default().with_workers(workers),
            None,
        )
        .expect_err("panicking objective must fail the run");
        match err {
            Error::WorkerPanic { query, message } => {
                assert_eq!(
                    query, 2,
                    "first panicking proposal wins (workers={workers})"
                );
                assert!(
                    message.contains("simulated crash"),
                    "payload preserved, got: {message}"
                );
            }
            other => panic!("expected WorkerPanic, got: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Early termination vs. watchdog timeout
// ---------------------------------------------------------------------------

/// A profile that injects nothing but arms a finite watchdog.
fn watchdog_only(timeout_s: f64) -> FaultProfile {
    FaultProfile {
        name: "watchdog".into(),
        timeout_s,
        ..FaultProfile::none()
    }
}

#[test]
fn early_termination_wins_over_timeout() {
    let objective = StubObjective {
        train_secs_base: 5000.0, // far past the watchdog below
        terminated_early: true,
    };
    let trace = run_stub(
        &objective,
        Budget::Evaluations(3),
        &ExecutorOptions::default().with_fault_profile(watchdog_only(1000.0)),
        None,
    )
    .expect("run");
    assert_eq!(trace.evaluations(), 3);
    for s in &trace.samples {
        // The trial completed (early termination preempts the watchdog),
        // with the overrun recorded as a secondary cause — not a failure.
        assert_eq!(s.kind, SampleKind::EarlyTerminated);
        assert!(s.error.is_some());
        assert_eq!(s.failure, Some(TrialFailure::Timeout));
        assert_eq!(s.retries, 0);
    }
}

#[test]
fn timeout_without_early_termination_is_terminal() {
    let objective = StubObjective {
        train_secs_base: 5000.0,
        terminated_early: false,
    };
    let trace = run_stub(
        &objective,
        Budget::Evaluations(2),
        &ExecutorOptions::default().with_fault_profile(watchdog_only(1000.0)),
        None,
    )
    .expect("run");
    for s in &trace.samples {
        assert_eq!(s.kind, SampleKind::Failed);
        assert_eq!(s.failure, Some(TrialFailure::Timeout));
        assert!(s.error.is_none());
        assert!(!s.feasible);
        // Default policy: 2 retries, all reaped by the watchdog.
        assert_eq!(s.retries, 2);
        assert_eq!(s.faults, vec![TrialFailure::Timeout; 3]);
    }
}

// ---------------------------------------------------------------------------
// Quarantine circuit breaker
// ---------------------------------------------------------------------------

#[test]
fn exhausted_retries_quarantine_the_configuration() {
    // Quarantine is decided at each candidate's virtual dispatch instant,
    // against the samples committed by then. With G simulated GPUs the
    // first G copies of the fixed config are all dispatched before the
    // first failure commits, so each trains once; every later
    // re-proposal is circuit-broken.
    for gpus in [1usize, 2, 4] {
        let profile = FaultProfile {
            name: "crash-always".into(),
            crash_prob: 1.0,
            ..FaultProfile::none()
        };
        let objective = StubObjective::new();
        let config = Config::new(vec![0.5; 6]).expect("config");
        let trace = run_stub(
            &objective,
            Budget::VirtualHours(0.5),
            &ExecutorOptions {
                retry: RetryPolicy {
                    max_retries: 1,
                    ..RetryPolicy::default()
                },
                ..ExecutorOptions::default()
                    .with_simulated_gpus(gpus)
                    .with_fault_profile(profile)
            },
            Some(Box::new(FixedSearcher(config))),
        )
        .expect("run");

        assert_eq!(trace.samples[0].kind, SampleKind::Failed, "gpus={gpus}");
        let mut failed = 0;
        for s in &trace.samples {
            if s.kind == SampleKind::Failed {
                failed += 1;
                assert_eq!(s.failure, Some(TrialFailure::Crash), "gpus={gpus}");
                assert_eq!(s.retries, 1, "gpus={gpus}");
                assert_eq!(s.faults, vec![TrialFailure::Crash; 2], "gpus={gpus}");
            } else {
                // Every re-proposal of the failed config is circuit-broken:
                // rejected at model-eval cost, never trained again.
                assert_eq!(s.kind, SampleKind::Rejected, "gpus={gpus}");
                assert_eq!(s.failure, Some(TrialFailure::Quarantined), "gpus={gpus}");
            }
        }
        assert_eq!(failed, gpus, "one failure per GPU's first copy");
        assert!(
            trace.samples.len() > gpus,
            "run continued past the failures (gpus={gpus})"
        );
        assert_eq!(
            trace.evaluations(),
            gpus,
            "each copy dispatched before the first failure trains exactly once"
        );
    }
}

// ---------------------------------------------------------------------------
// Kill-and-resume
// ---------------------------------------------------------------------------

/// Kills a run after `panic_after` objective calls, then resumes it from
/// the checkpoint and asserts the final trace is byte-identical to an
/// uninterrupted run. `resume_workers`/`gpus` prove resume is free to pick
/// a different thread count and honours the virtual schedule.
fn kill_and_resume_case(name: &str, panic_after: usize, resume_workers: usize, gpus: usize) {
    kill_and_resume_with(name, 10, panic_after, resume_workers, gpus, || None);
}

/// [`kill_and_resume_case`] over `evals` evaluations, with every run's
/// searcher built by `searcher` (`None` is the spec's Rand).
fn kill_and_resume_with(
    name: &str,
    evals: usize,
    panic_after: usize,
    resume_workers: usize,
    gpus: usize,
    searcher: impl Fn() -> Option<Box<dyn Searcher>>,
) {
    let profile = FaultProfile::flaky_sensor();
    let budget = Budget::Evaluations(evals);
    let options = ExecutorOptions::default()
        .with_fault_profile(profile.clone())
        .with_simulated_gpus(gpus);

    // Reference: uninterrupted run.
    let reference = encode_trace(
        &run_stub(&StubObjective::new(), budget, &options, searcher()).expect("uninterrupted run"),
    );

    // Interrupted run: crash mid-flight, leaving a checkpoint behind.
    let ckpt = scratch_path(name);
    let _ = std::fs::remove_file(&ckpt);
    let chaos = ChaosObjective::new(panic_after);
    let err = run_stub(
        &chaos,
        budget,
        &options
            .clone()
            .with_checkpoint(CheckpointConfig::every_commit(ckpt.clone())),
        searcher(),
    )
    .expect_err("chaos objective must kill the run");
    assert!(matches!(err, Error::WorkerPanic { .. }), "got: {err}");
    assert!(ckpt.exists(), "interrupted run left a checkpoint");

    // Resume: committed results replay from the checkpoint; only the
    // remainder re-evaluates. The fresh-call allowance proves the recorded
    // evaluations are used.
    let fresh_calls_needed = evals - panic_after.min(evals);
    let resumed_objective = ChaosObjective::new(fresh_calls_needed + gpus);
    let resumed = run_stub(
        &resumed_objective,
        budget,
        &options
            .clone()
            .with_workers(resume_workers)
            .with_resume_from(ckpt.clone()),
        searcher(),
    )
    .expect("resumed run");
    assert_eq!(
        reference,
        encode_trace(&resumed),
        "resumed trace must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn killed_run_resumes_bit_identically_single_gpu() {
    kill_and_resume_case("kill_single.ckpt", 4, 1, 1);
}

#[test]
fn killed_run_resumes_bit_identically_multi_gpu_and_more_workers() {
    for gpus in [2usize, 4] {
        kill_and_resume_case(&format!("kill_multi_g{gpus}.ckpt"), 5, 4, gpus);
    }
}

/// A BO searcher carries state from one proposal to the next. A resume
/// rebuilds it by re-proposing over the cached evaluations, so the resumed
/// trace must still be byte-identical, with one GPU and with four (where
/// proposals condition on constant-liar pending points).
#[test]
fn killed_bo_run_resumes_bit_identically() {
    for (gpus, resume_workers) in [(1usize, 1usize), (4, 4)] {
        kill_and_resume_with(
            &format!("kill_bo_g{gpus}.ckpt"),
            14,
            8,
            resume_workers,
            gpus,
            || Some(Box::new(BoSearcher::new(ConstraintWeighting::None, None))),
        );
    }
}

#[test]
fn resume_rejects_a_mismatched_run() {
    let budget = Budget::Evaluations(4);
    let ckpt = scratch_path("mismatch.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let options =
        ExecutorOptions::default().with_checkpoint(CheckpointConfig::every_commit(ckpt.clone()));
    run_stub(&StubObjective::new(), budget, &options, None).expect("checkpointed run");

    // Same checkpoint, different budget: the header check must refuse.
    let err = run_stub(
        &StubObjective::new(),
        Budget::Evaluations(9),
        &ExecutorOptions::default().with_resume_from(ckpt),
        None,
    )
    .expect_err("mismatched resume must fail");
    assert!(matches!(err, Error::ResumeMismatch(_)), "got: {err}");
}

/// `text` with its first `"power_w"` reading moved up by one ulp.
fn bump_first_power_w(text: &str) -> String {
    let key = "\"power_w\": ";
    let start = text.find(key).expect("a power reading") + key.len();
    let len = text[start..].find([',', '}']).expect("the reading ends");
    let watts: f64 = text[start..start + len].parse().expect("a number");
    let bumped = f64::from_bits(watts.to_bits() + 1);
    format!("{}{bumped:?}{}", &text[..start], &text[start + len..])
}

/// Kills a 10-evaluation run checkpointing to `ckpt` after 5 objective
/// calls, then moves the first recorded power reading by one ulp and
/// re-frames the file, so its checksum holds and only the replay's
/// bit-exact check can tell. Returns the doctored file's bytes.
fn kill_and_doctor(ckpt: &PathBuf, options: &ExecutorOptions) -> String {
    let _ = std::fs::remove_file(ckpt);
    let err = run_stub(
        &ChaosObjective::new(5),
        Budget::Evaluations(10),
        &options
            .clone()
            .with_checkpoint(CheckpointConfig::every_commit(ckpt)),
        None,
    )
    .expect_err("chaos objective must kill the run");
    assert!(matches!(err, Error::WorkerPanic { .. }), "got: {err}");
    let text = std::fs::read_to_string(ckpt).expect("checkpoint");
    let (_, body) = text.split_once('\n').expect("framed checkpoint");
    let mut doctored = String::from("C ");
    hyperpower::integrity::frame(&mut doctored, '\n', |out| {
        out.push_str(&bump_first_power_w(body));
    });
    std::fs::write(ckpt, &doctored).expect("rewrite checkpoint");
    doctored
}

/// Expects the resume's typed refusal of the doctored first sample.
fn assert_doctored_sample_refused(result: hyperpower::Result<Trace>) {
    match result {
        Err(Error::ResumeMismatch(msg)) => assert!(msg.contains("samples[0].power_w"), "{msg}"),
        Err(other) => panic!("expected a ResumeMismatch, got {other}"),
        Ok(_) => panic!("a doctored checkpoint must not resume"),
    }
}

#[test]
fn a_doctored_checkpoint_fails_before_any_objective_call() {
    let options = ExecutorOptions::default().with_fault_profile(FaultProfile::flaky_sensor());
    let ckpt = scratch_path("doctored.ckpt");
    kill_and_doctor(&ckpt, &options);
    // One objective call would panic the run: the check must come first.
    assert_doctored_sample_refused(run_stub(
        &ChaosObjective::new(0),
        Budget::Evaluations(10),
        &options.with_resume_from(ckpt),
        None,
    ));
}

/// A run that resumes from the checkpoint it writes must not touch the
/// file before its replay verifies: a failed resume leaves the doctored
/// bytes in place, so a second resume is refused the same way instead of
/// trusting samples the first one recomputed. Once a replay verifies, the
/// run checkpoints on its cadence again.
#[test]
fn a_failed_self_resume_leaves_its_checkpoint_untouched() {
    let options = ExecutorOptions::default().with_fault_profile(FaultProfile::flaky_sensor());
    let ckpt = scratch_path("doctored_self_resume.ckpt");
    let doctored = kill_and_doctor(&ckpt, &options);
    let checkpointing = options.with_checkpoint(CheckpointConfig::every_commit(&ckpt));
    let self_resume = checkpointing.clone().with_resume_from(&ckpt);
    for attempt in 1..=2 {
        assert_doctored_sample_refused(run_stub(
            &ChaosObjective::new(0),
            Budget::Evaluations(10),
            &self_resume,
            None,
        ));
        assert_eq!(
            std::fs::read_to_string(&ckpt).expect("checkpoint"),
            doctored,
            "resume {attempt} rewrote the checkpoint it failed to verify"
        );
    }

    // An undoctored checkpoint of the first 5 commits verifies; the
    // resumed run then commits 2 more, each written, before its next kill.
    for (checkpoint, killed_after) in [(&checkpointing, 5), (&self_resume, 2)] {
        run_stub(
            &ChaosObjective::new(killed_after),
            Budget::Evaluations(10),
            checkpoint,
            None,
        )
        .expect_err("chaos objective must kill the run");
    }
    let resumed = hyperpower::checkpoint::RunCheckpoint::load(&ckpt).expect("checkpoint");
    assert_eq!(
        resumed.samples.len(),
        7,
        "the resumed run stopped checkpointing"
    );
}

/// A resumed run replays into its own checkpoint sink, so the file it
/// leaves must be the uninterrupted run's, byte for byte, whether it
/// checkpoints beside the file it resumed from or over it.
#[test]
fn a_resumed_run_writes_the_uninterrupted_checkpoint() {
    let budget = Budget::Evaluations(10);
    for gpus in [1usize, 4] {
        let options = ExecutorOptions::default()
            .with_fault_profile(FaultProfile::flaky_sensor())
            .with_simulated_gpus(gpus);
        let checkpointing = |path: &PathBuf| {
            options
                .clone()
                .with_checkpoint(CheckpointConfig::every_commit(path))
        };
        let reference = scratch_path(&format!("uninterrupted_g{gpus}.ckpt"));
        run_stub(
            &StubObjective::new(),
            budget,
            &checkpointing(&reference),
            None,
        )
        .expect("uninterrupted run");
        let expected = std::fs::read_to_string(&reference).expect("reference checkpoint");

        let killed = scratch_path(&format!("killed_g{gpus}.ckpt"));
        let elsewhere = scratch_path(&format!("resumed_elsewhere_g{gpus}.ckpt"));
        for into in [&elsewhere, &killed] {
            let _ = std::fs::remove_file(&killed);
            run_stub(
                &ChaosObjective::new(5),
                budget,
                &checkpointing(&killed),
                None,
            )
            .expect_err("chaos objective must kill the run");
            run_stub(
                &StubObjective::new(),
                budget,
                &checkpointing(into).with_resume_from(&killed),
                None,
            )
            .expect("resumed run");
            assert_eq!(
                std::fs::read_to_string(into).expect("resumed checkpoint"),
                expected,
                "gpus={gpus}: the resumed run's checkpoint at {} differs",
                into.display()
            );
        }
    }
}

/// A checkpoint exactly as releases before the one-line run identity wrote
/// it: the identity members spread over one line each. It holds the whole
/// run that `resume_rejects_a_mismatched_run` checkpoints.
const MULTI_LINE_HEADER_CHECKPOINT: &str =
    include_str!("fixtures/checkpoint_multiline_header.ckpt");

#[test]
fn a_checkpoint_in_the_multi_line_header_layout_still_resumes() {
    assert!(
        MULTI_LINE_HEADER_CHECKPOINT
            .contains("{\n  \"schema\": \"hyperpower-checkpoint-v2\",\n  \"seed\""),
        "the fixture keeps the multi-line layout"
    );
    let budget = Budget::Evaluations(4);
    let reference = encode_trace(
        &run_stub(
            &StubObjective::new(),
            budget,
            &ExecutorOptions::default(),
            None,
        )
        .expect("reference run"),
    );
    let ckpt = scratch_path("multi_line_header.ckpt");
    std::fs::write(&ckpt, MULTI_LINE_HEADER_CHECKPOINT).expect("write fixture");
    // Every evaluation must come from the checkpoint: one objective call
    // would panic the run.
    let resumed = run_stub(
        &ChaosObjective::new(0),
        budget,
        &ExecutorOptions::default().with_resume_from(ckpt),
        None,
    )
    .expect("the multi-line layout decodes and resumes");
    assert_eq!(reference, encode_trace(&resumed));
}

#[test]
fn orphaned_checkpoint_tmp_is_swept_on_open() {
    let budget = Budget::Evaluations(4);
    let ckpt = scratch_path("orphan.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let options =
        ExecutorOptions::default().with_checkpoint(CheckpointConfig::every_commit(ckpt.clone()));
    let reference = encode_trace(
        &run_stub(&StubObjective::new(), budget, &options, None).expect("checkpointed run"),
    );

    // Simulate a crash between the temp write and the rename: a stale,
    // half-written `*.tmp` stranded beside the (complete) checkpoint.
    let tmp = ckpt.with_extension("tmp");
    std::fs::write(&tmp, "{ \"schema\": \"hyperpower-checkpoint-v1\", torn").expect("stale tmp");

    // Resume must sweep the orphan on open and replay from the real
    // checkpoint, bit-identically.
    let resumed = run_stub(
        &StubObjective::new(),
        budget,
        &ExecutorOptions::default().with_resume_from(ckpt.clone()),
        None,
    )
    .expect("resume despite an orphaned tmp");
    assert_eq!(
        reference,
        encode_trace(&resumed),
        "orphaned tmp must not perturb a resumed run"
    );
    assert!(!tmp.exists(), "resume sweeps the orphaned tmp");

    // A fresh checkpointing run sweeps it on sink creation too.
    std::fs::write(&tmp, "stale").expect("stale tmp");
    run_stub(&StubObjective::new(), budget, &options, None).expect("fresh checkpointed run");
    assert!(!tmp.exists(), "CheckpointSink::new sweeps the orphaned tmp");
}

// ---------------------------------------------------------------------------
// Self-healing: drift recalibration, margins, and the degradation ladder
// ---------------------------------------------------------------------------

/// Options that turn the whole self-healing layer on, aggressively enough
/// to engage within a short run under `drifting-hw`.
fn healing_options(gpus: usize) -> ExecutorOptions {
    ExecutorOptions::default()
        .with_fault_profile(FaultProfile::drifting_hw())
        .with_simulated_gpus(gpus)
        .with_recalibrate(true)
        .with_drift_threshold(0.05)
        .with_safety_margin(0.1)
}

#[test]
fn recalibrating_run_is_worker_invariant_under_drifting_hw() {
    let run = |gpus: usize, workers: usize| {
        let mut session = Session::new(Scenario::mnist_gtx1070(), SEED).expect("session");
        encode_trace(
            &session
                .run_seeded_with(
                    Method::Rand,
                    Mode::HyperPower,
                    Budget::Evaluations(16),
                    SEED,
                    &healing_options(gpus).with_workers(workers),
                )
                .expect("run"),
        )
    };
    let mut recalibrated_anywhere = false;
    for gpus in [1usize, 2] {
        let reference = run(gpus, 1);
        let parallel = run(gpus, 4);
        assert_eq!(
            reference, parallel,
            "recalibrating trace must be worker-invariant (gpus={gpus})"
        );
        let trace = parse(&reference).expect("recalibrating trace stays schema-valid");
        drop(trace);
        recalibrated_anywhere |= reference.contains("\"recalibrated\"");
    }
    assert!(
        recalibrated_anywhere,
        "drifting-hw never engaged a recalibration — thresholds too loose for the test"
    );
}

#[test]
fn recalibrating_killed_run_resumes_bit_identically() {
    // Same kill-and-resume contract as above, but with the drift monitor
    // rewriting the constraint models mid-run: the replayed prefix must
    // reconstruct the monitor (and margins) bit-exactly.
    let session = Session::new(Scenario::mnist_gtx1070(), SEED).expect("session");
    let oracle = session.oracle().clone();
    let budget = Budget::Evaluations(16);
    let run_healing = |objective: &dyn Objective, options: &ExecutorOptions| {
        let space = SearchSpace::mnist();
        let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), SEED);
        hyperpower::run_optimization_with(
            RunSetup {
                space: &space,
                objective,
                gpu: &mut gpu,
                budgets: oracle.budgets(),
                oracle: Some(&oracle),
                early_termination: Some(EarlyTermination::default()),
                cost: TrainingCostModel::default(),
                method: Method::Rand,
                mode: Mode::HyperPower,
                budget,
                seed: SEED,
                searcher_override: None,
            },
            options,
        )
    };
    let options = healing_options(1);
    let reference =
        encode_trace(&run_healing(&StubObjective::new(), &options).expect("uninterrupted run"));

    let ckpt = scratch_path("kill_recalibrating.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let err = run_healing(
        &ChaosObjective::new(5),
        &options
            .clone()
            .with_checkpoint(CheckpointConfig::every_commit(ckpt.clone())),
    )
    .expect_err("chaos objective must kill the run");
    assert!(matches!(err, Error::WorkerPanic { .. }), "got: {err}");
    assert!(ckpt.exists(), "interrupted run left a checkpoint");

    let resumed = run_healing(
        &ChaosObjective::new(100),
        &options
            .clone()
            .with_workers(4)
            .with_resume_from(ckpt.clone()),
    )
    .expect("resumed run");
    assert_eq!(
        reference,
        encode_trace(&resumed),
        "resumed recalibrating trace must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn forced_gp_failure_degrades_through_ladder_to_rand_walk() {
    use hyperpower::methods::{BoSearcher, ConstraintWeighting};
    use hyperpower::DegradationEvent;

    // Poison the surrogate's noise floor: every rung of the jitter ladder
    // fails, so every GP proposal must degrade to a Rand-Walk step — and
    // the run completes with each downgrade as a typed trace event.
    let mut searcher = BoSearcher::new(ConstraintWeighting::None, None);
    searcher.fit_options.min_noise_variance = f64::NAN;
    let trace = run_stub(
        &StubObjective::new(),
        Budget::Evaluations(8),
        &ExecutorOptions::default(),
        Some(Box::new(searcher)),
    )
    .expect("forced GP failure must not abort the run");
    assert_eq!(trace.evaluations(), 8);
    assert!(
        trace.degradation_count() > 0,
        "poisoned fits left no degradation events in the trace"
    );
    let all_fallbacks = trace
        .samples
        .iter()
        .flat_map(|s| s.degradations.iter())
        .all(|d| *d == DegradationEvent::RandWalkFallback);
    assert!(
        all_fallbacks,
        "a NaN noise floor cannot be rescued by jitter"
    );
    // Seed-phase proposals (before min_observations) never touch the GP.
    for s in &trace.samples[..3] {
        assert!(s.degradations.is_empty(), "seed proposals degraded");
    }
    // The encoded trace round-trips with the degradation keys present.
    let text = encode_trace(&trace);
    assert!(text.contains("rand-walk-fallback"));
    parse(&text).expect("degraded trace stays schema-valid");
}

#[test]
fn failed_samples_never_win() {
    // The liar contract: a terminally failed trial records no error and is
    // infeasible, so it can never be reported as the best design — the
    // worst-case LIAR_ERROR only steers the searcher away.
    let profile = FaultProfile {
        name: "crash-always".into(),
        crash_prob: 1.0,
        ..FaultProfile::none()
    };
    let trace = run_stub(
        &StubObjective::new(),
        Budget::Evaluations(3),
        &ExecutorOptions::default().with_fault_profile(profile),
        None,
    )
    .expect("run");
    assert!(trace
        .samples
        .iter()
        .all(|s| s.kind == SampleKind::Failed || s.failure == Some(TrialFailure::Quarantined)));
    assert!(trace.best_feasible().is_none());
    assert!((0.0..=1.0).contains(&LIAR_ERROR));
}
