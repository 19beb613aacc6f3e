//! Golden-trace regression tests: full [`Trace`]s pinned bit-for-bit.
//!
//! Each fixture in `tests/golden/` is the complete JSON encoding (see
//! `hyperpower::golden`) of one small optimization run — every timestamp,
//! measurement, feasibility verdict and configuration coordinate — for one
//! of the paper's four methods under each budget kind. The executor's
//! determinism contract makes these byte-stable across worker-thread
//! counts, platforms and (absent an intentional semantic change) commits.
//!
//! # Regenerating fixtures
//!
//! After an *intentional* semantic change (new RNG consumption order, cost
//! model retune, …), re-bless the fixtures and review the diff like any
//! other code change:
//!
//! ```text
//! GOLDEN_BLESS=force cargo test --test golden_traces
//! git diff tests/golden/
//! ```
//!
//! `GOLDEN_BLESS=1` only writes *missing* fixtures; if blessing would
//! change the bytes of an existing one it fails with the full per-field
//! report instead (the golden-invariance gate). Only the explicit
//! `force` spelling may rewrite committed bytes.
//!
//! On failure, each test prints a per-field report (JSON path, expected
//! vs actual value, f64 bit patterns) and also writes it to
//! `target/golden-diff/<name>.txt` so CI can upload the reports as an
//! artifact.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::path::PathBuf;

use hyperpower::golden::{diff_text, encode_trace};
use hyperpower::integrity::crc32;
use hyperpower::methods::ThompsonSearcher;
use hyperpower::{Budget, ExecutorOptions, Method, Mode, Scenario, Session, Trace};
use hyperpower_gpu_sim::FaultProfile;

/// One shared seed for all fixtures: any cross-method divergence is then a
/// method property, not a seed artifact.
const GOLDEN_SEED: u64 = 0x17120244;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn diff_report_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/golden-diff")
        .join(format!("{name}.txt"))
}

fn run_case(method: Method, budget: Budget) -> Trace {
    // MNIST / GTX 1070 keeps the fixtures small and exercises both budget
    // dimensions (power and memory); HyperPower mode exercises the
    // rejection path for the model-free methods.
    let mut session = Session::new(Scenario::mnist_gtx1070(), GOLDEN_SEED).expect("session setup");
    session
        .run_seeded(method, Mode::HyperPower, budget, GOLDEN_SEED)
        .expect("golden run")
}

/// Like [`run_case`], under a seeded fault-injection profile: retries,
/// sensor glitches and terminal failures are part of the pinned bytes.
fn run_faulted_case(method: Method, budget: Budget, profile: FaultProfile) -> Trace {
    let mut session = Session::new(Scenario::mnist_gtx1070(), GOLDEN_SEED).expect("session setup");
    session
        .run_seeded_with(
            method,
            Mode::HyperPower,
            budget,
            GOLDEN_SEED,
            &ExecutorOptions::default().with_fault_profile(profile),
        )
        .expect("golden faulted run")
}

fn check(name: &str, method: Method, budget: Budget) {
    check_encoded(name, encode_trace(&run_case(method, budget)));
}

fn check_encoded(name: &str, actual: String) {
    let path = fixture_path(name);

    let bless_var = std::env::var("GOLDEN_BLESS").unwrap_or_default();
    if !bless_var.is_empty() && bless_var != "0" {
        // Invariance gate: blessing must never *silently* rewrite a
        // fixture. If the bytes would change, fail with the same pointed
        // per-field report a plain test run gives, and require the
        // explicit `GOLDEN_BLESS=force` spelling to overwrite — so a
        // stray bless in a "nothing should change" PR shows up as a
        // failure, not a quiet diff.
        if bless_var != "force" {
            if let Ok(expected) = std::fs::read_to_string(&path) {
                let report = diff_text(&expected, &actual);
                if report.is_empty() {
                    return; // byte-identical: nothing to bless
                }
                panic!(
                    "GOLDEN_BLESS would change fixture '{name}' ({} mismatches):\n  {}\n\
                     \nIf this semantic change is intentional, re-bless with \
                     GOLDEN_BLESS=force and review the diff; otherwise the \
                     change violates the golden-invariance contract.",
                    report.len(),
                    report.join("\n  ")
                );
            }
        }
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate with \
             GOLDEN_BLESS=1 cargo test --test golden_traces",
            path.display()
        )
    });
    let report = diff_text(&expected, &actual);
    if report.is_empty() {
        return;
    }
    let text = format!(
        "golden trace '{name}' diverged ({} mismatches):\n  {}\n",
        report.len(),
        report.join("\n  ")
    );
    let report_path = diff_report_path(name);
    if let Some(dir) = report_path.parent() {
        // Best effort: the panic below carries the full report either way.
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(&report_path, &text);
    }
    panic!(
        "{text}\nIf this change is intentional, re-bless with \
         GOLDEN_BLESS=1 cargo test --test golden_traces and review the diff."
    );
}

/// Small budgets keep fixtures reviewable: 5 evaluations, or 0.1 virtual
/// hours (a handful of MNIST trainings).
const EVALS: Budget = Budget::Evaluations(5);
const HOURS: Budget = Budget::VirtualHours(0.1);

#[test]
fn golden_rand_evals() {
    check("rand_evals", Method::Rand, EVALS);
}

#[test]
fn golden_rand_hours() {
    check("rand_hours", Method::Rand, HOURS);
}

#[test]
fn golden_randwalk_evals() {
    check("randwalk_evals", Method::RandWalk, EVALS);
}

#[test]
fn golden_randwalk_hours() {
    check("randwalk_hours", Method::RandWalk, HOURS);
}

#[test]
fn golden_hwcwei_evals() {
    check("hwcwei_evals", Method::HwCwei, EVALS);
}

#[test]
fn golden_hwcwei_hours() {
    check("hwcwei_hours", Method::HwCwei, HOURS);
}

#[test]
fn golden_hwieci_evals() {
    check("hwieci_evals", Method::HwIeci, EVALS);
}

#[test]
fn golden_hwieci_hours() {
    check("hwieci_hours", Method::HwIeci, HOURS);
}

/// Thirty evaluations: 27 consecutive BO rounds, each refitting the GP
/// surrogate on a history one sample longer, where the five-evaluation
/// fixtures pin two.
#[test]
fn golden_hwieci_evals30() {
    check("hwieci_evals30", Method::HwIeci, Budget::Evaluations(30));
}

// Fault-injected fixtures: the flaky-sensor profile pins the whole
// recovery machinery — glitch re-measurements, retries with seeded
// backoff, and terminal failures with their liar commits — bit-for-bit.

#[test]
fn golden_rand_evals_flaky_sensor() {
    check_encoded(
        "rand_evals_flaky_sensor",
        encode_trace(&run_faulted_case(
            Method::Rand,
            EVALS,
            FaultProfile::flaky_sensor(),
        )),
    );
}

// Drifting-hardware fixtures: the sensor bias grows with virtual time and
// the self-healing layer is switched on, aggressively enough that drift
// detections, margin moves and the live-RMSPE telemetry are part of the
// pinned bytes. (A full recalibration needs more measured commits than a
// reviewable fixture holds; that path is pinned by the fault-injection
// suite's worker-invariance and kill-and-resume tests instead.)

/// The self-healing knobs of the drifting-hardware fixtures.
fn healing(options: ExecutorOptions) -> ExecutorOptions {
    options
        .with_fault_profile(FaultProfile::drifting_hw())
        .with_recalibrate(true)
        .with_drift_threshold(0.02)
        .with_safety_margin(0.1)
}

fn run_healing_case(method: Method) -> Trace {
    let mut session = Session::new(Scenario::mnist_gtx1070(), GOLDEN_SEED).expect("session setup");
    session
        .run_seeded_with(
            method,
            Mode::HyperPower,
            EVALS,
            GOLDEN_SEED,
            &healing(ExecutorOptions::default()),
        )
        .expect("golden healing run")
}

#[test]
fn golden_rand_evals_drifting_hw() {
    check_encoded(
        "rand_evals_drifting_hw",
        encode_trace(&run_healing_case(Method::Rand)),
    );
}

#[test]
fn golden_hwieci_evals_drifting_hw() {
    check_encoded(
        "hwieci_evals_drifting_hw",
        encode_trace(&run_healing_case(Method::HwIeci)),
    );
}

#[test]
fn golden_hwieci_evals_flaky_sensor() {
    check_encoded(
        "hwieci_evals_flaky_sensor",
        encode_trace(&run_faulted_case(
            Method::HwIeci,
            EVALS,
            FaultProfile::flaky_sensor(),
        )),
    );
}

// Multi-GPU fixtures: G > 1 simulated training GPUs run the batch-parallel
// schedule — one virtual timeline per GPU, proposals made against the
// in-flight candidates as constant-liar pending points, commits in
// (completion time, proposal index) order. Worker threads come from
// `HYPERPOWER_WORKERS`, so the CI worker matrix checks these bytes at one
// and several threads.

/// Eight evaluations: enough for BO to propose with pending points after
/// its warm-up, and for completions to overtake each other.
const EVALS8: Budget = Budget::Evaluations(8);

fn gpus(count: usize) -> ExecutorOptions {
    ExecutorOptions::from_env().with_simulated_gpus(count)
}

fn check_gpus(name: &str, method: Method, budget: Budget, options: &ExecutorOptions) {
    let mut session = Session::new(Scenario::mnist_gtx1070(), GOLDEN_SEED).expect("session setup");
    let trace = session
        .run_seeded_with(method, Mode::HyperPower, budget, GOLDEN_SEED, options)
        .expect("golden multi-GPU run");
    check_encoded(name, encode_trace(&trace));
}

#[test]
fn golden_rand_hours_g2() {
    check_gpus("rand_hours_g2", Method::Rand, HOURS, &gpus(2));
}

#[test]
fn golden_hwieci_hours_g4() {
    check_gpus("hwieci_hours_g4", Method::HwIeci, HOURS, &gpus(4));
}

#[test]
fn golden_hwcwei_evals8_g2() {
    check_gpus("hwcwei_evals8_g2", Method::HwCwei, EVALS8, &gpus(2));
}

#[test]
fn golden_hwieci_evals8_flaky_sensor_g2() {
    check_gpus(
        "hwieci_evals8_flaky_sensor_g2",
        Method::HwIeci,
        EVALS8,
        &gpus(2).with_fault_profile(FaultProfile::flaky_sensor()),
    );
}

#[test]
fn golden_rand_evals8_oom_heavy_g4() {
    check_gpus(
        "rand_evals8_oom_heavy_g4",
        Method::Rand,
        EVALS8,
        &gpus(4).with_fault_profile(FaultProfile::oom_heavy()),
    );
}

#[test]
fn golden_hwieci_evals8_drifting_hw_g2() {
    check_gpus(
        "hwieci_evals8_drifting_hw_g2",
        Method::HwIeci,
        EVALS8,
        &healing(gpus(2)),
    );
}

/// CRC32 of the encoded trace [`thompson_hwieci_trace_crc_is_pinned`]
/// runs.
const THOMPSON_HWIECI_CRC: u32 = 0xadb8_5d5d;

/// Thompson sampling is not one of the paper's four methods, so no
/// fixture holds its trace; a CRC32 of the encoding pins its bytes. Each
/// of its proposals screens a candidate grid through the constraint
/// oracle and draws from the GP's joint posterior, whose forward solve
/// takes each admitted candidate as one of its right-hand sides, so a
/// change to either that moves a bit moves the CRC.
#[test]
fn thompson_hwieci_trace_crc_is_pinned() {
    let mut session =
        Session::new(Scenario::cifar10_gtx1070(), GOLDEN_SEED).expect("session setup");
    let searcher = ThompsonSearcher::new(Some(session.oracle().clone()));
    let trace = session
        .run_with_searcher(
            Box::new(searcher),
            Method::HwIeci,
            Budget::Evaluations(12),
            GOLDEN_SEED,
        )
        .expect("thompson run");
    let crc = crc32(encode_trace(&trace).as_bytes());
    assert_eq!(
        crc, THOMPSON_HWIECI_CRC,
        "Thompson trace bytes changed: crc32 {crc:#010x}, pinned {THOMPSON_HWIECI_CRC:#010x}"
    );
}

/// CRC32 of the encoded trace [`thompson_unscreened_trace_crc_is_pinned`]
/// runs.
const THOMPSON_UNSCREENED_CRC: u32 = 0x1361_496f;

/// The Thompson searcher without a constraint oracle. Every grid row is
/// then admissible, so the cap on admitted candidates ends the screen in
/// every proposal, and a change to where it stops moves the CRC. (The
/// executor still screens each proposal with the session's oracle.)
#[test]
fn thompson_unscreened_trace_crc_is_pinned() {
    let mut session =
        Session::new(Scenario::cifar10_gtx1070(), GOLDEN_SEED).expect("session setup");
    let trace = session
        .run_with_searcher(
            Box::new(ThompsonSearcher::new(None)),
            Method::HwIeci,
            Budget::Evaluations(12),
            GOLDEN_SEED,
        )
        .expect("thompson run");
    let crc = crc32(encode_trace(&trace).as_bytes());
    assert_eq!(
        crc, THOMPSON_UNSCREENED_CRC,
        "Thompson trace bytes changed: crc32 {crc:#010x}, pinned {THOMPSON_UNSCREENED_CRC:#010x}"
    );
}
