//! Serving-layer contract tests: lease lifecycle, idempotent tells,
//! backpressure, durability and byte-exact recovery.
//!
//! The chaos harness (`tests/chaos_matrix.rs`) attacks everything at
//! once; this suite isolates each promise:
//!
//! * serving a study through ask–tell — at any width, with duplicated or
//!   arbitrarily reordered deliveries — commits the exact bytes of the
//!   embedded executor loop (property-tested over delivery schedules);
//! * a tell on an expired lease is rejected with the typed
//!   [`hyperpower::Error::LeaseExpired`] and changes nothing;
//! * per-study and server-wide bounds refuse with typed
//!   [`ServerError::Overloaded`], shedding the lowest-priority study
//!   first at the global bound;
//! * `kill -9` (dropping the server, tearing the journal tail, stranding
//!   a stale snapshot temp) resumes to byte-identical state.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::path::PathBuf;

use hyperpower::driver::RunSetup;
use hyperpower::golden::encode_trace;
use hyperpower::{
    run_optimization_with, Budget, Budgets, ConstraintOracle, DriftConfig, EarlyTermination, Error,
    EvaluationResult, ExecutorOptions, Method, Mode, Objective, RetryPolicy, Scenario, SearchSpace,
    Session, StoreDefect, StudySpec, TellOutcome, Trace,
};
use hyperpower_gpu_sim::{DeviceProfile, FaultProfile, Gpu, TrainingCostModel};
use hyperpower_server::{
    fsck_store, HealthState, ServerConfig, ServerError, StudyJournal, StudyServer, StudySetup,
    SyntheticObjective,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEED: u64 = 0x5EED_05E6;

fn scratch_root(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/server-scratch")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn spec(seed: u64, budget: Budget, profile: FaultProfile) -> StudySpec {
    StudySpec {
        method: Method::Rand,
        mode: Mode::HyperPower,
        budget,
        seed,
        budgets: Budgets::default(),
        cost: TrainingCostModel::default(),
        early_termination: Some(EarlyTermination::default()),
        fault_profile: profile,
        retry: RetryPolicy::default(),
        drift: DriftConfig::default(),
    }
}

fn setup(seed: u64, budget: Budget, priority: u32) -> StudySetup {
    StudySetup {
        space: SearchSpace::mnist(),
        gpu: Gpu::new(DeviceProfile::gtx_1070(), seed),
        oracle: None,
        spec: spec(seed, budget, FaultProfile::none()),
        priority,
    }
}

/// The uninterrupted embedded-loop reference for `setup(seed, budget, _)`.
fn reference(seed: u64, budget: Budget) -> Trace {
    let space = SearchSpace::mnist();
    let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), seed);
    let objective = SyntheticObjective;
    run_optimization_with(
        RunSetup {
            space: &space,
            objective: &objective,
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
        &ExecutorOptions::default(),
    )
    .expect("reference run")
}

fn eval(c: &hyperpower::LeasedCandidate) -> EvaluationResult {
    SyntheticObjective
        .evaluate(&c.decoded, None, c.eval_seed)
        .expect("synthetic objective")
}

/// Serves the study to completion, telling every result back promptly.
fn drive(server: &mut StudyServer, name: &str, width: usize) {
    let mut now = 0.0;
    for _ in 0..10_000 {
        if server.is_finished(name).expect("is_finished") {
            return;
        }
        now += 60.0;
        let batch = server.ask(name, width, now).expect("ask");
        for c in batch {
            server.tell(name, c.lease_id, &eval(&c)).expect("tell");
        }
    }
    panic!("drive wedged: study {name} never finished");
}

// ---------------------------------------------------------------------------
// Byte-exactness of plain serving
// ---------------------------------------------------------------------------

#[test]
fn served_study_matches_embedded_loop_at_any_width() {
    let expected = encode_trace(&reference(SEED, Budget::Evaluations(6)));
    for width in [1usize, 3, 8] {
        let root = scratch_root(&format!("plain-w{width}"));
        let mut server = StudyServer::new(ServerConfig {
            root,
            ..ServerConfig::default()
        })
        .expect("server");
        server
            .create_study("plain", setup(SEED, Budget::Evaluations(6), 1))
            .expect("create");
        drive(&mut server, "plain", width);
        let actual = encode_trace(&server.trace("plain").expect("trace"));
        assert_eq!(expected, actual, "width {width} changed the trace");
    }
}

// ---------------------------------------------------------------------------
// Idempotent tells: duplication and reordering (property)
// ---------------------------------------------------------------------------

/// Serves a study while duplicating and shuffling every round's
/// deliveries according to `schedule_seed`; the committed bytes must not
/// care.
fn drive_scrambled(server: &mut StudyServer, name: &str, schedule_seed: u64) {
    let mut rng = StdRng::seed_from_u64(schedule_seed);
    let mut draw = move || rng.random_range(0.0..1.0);
    let mut now = 0.0;
    for _ in 0..10_000 {
        if server.is_finished(name).expect("is_finished") {
            return;
        }
        now += 60.0;
        let batch = server.ask(name, 4, now).expect("ask");
        // Build the delivery list: every result at least once, some twice.
        let mut deliveries: Vec<(u64, EvaluationResult)> = Vec::new();
        for c in &batch {
            let r = eval(c);
            deliveries.push((c.lease_id, r));
            if draw() < 0.5 {
                deliveries.push((c.lease_id, r));
            }
        }
        // Fisher–Yates on float draws (the vendored rand subset).
        for i in (1..deliveries.len()).rev() {
            let j = (draw() * (i + 1) as f64) as usize;
            deliveries.swap(i, j.min(i));
        }
        let mut accepted = 0usize;
        let mut duplicates = 0usize;
        for (lease_id, r) in &deliveries {
            match server.tell(name, *lease_id, r).expect("tell") {
                TellOutcome::Accepted { .. } => accepted += 1,
                TellOutcome::Duplicate => duplicates += 1,
                TellOutcome::Discarded => {}
            }
        }
        assert_eq!(accepted, batch.len(), "each lease ingested exactly once");
        assert_eq!(duplicates, deliveries.len() - batch.len());
    }
    panic!("drive_scrambled wedged: study {name} never finished");
}

proptest! {
    /// Duplicated and arbitrarily reordered tells yield bit-identical
    /// traces for every delivery schedule.
    #[test]
    fn duplicated_and_reordered_tells_are_trace_neutral(schedule_seed in 0u64..1_000_000) {
        let expected = encode_trace(&reference(SEED, Budget::Evaluations(6)));
        let root = scratch_root(&format!("scramble-{schedule_seed}"));
        let mut server = StudyServer::new(ServerConfig { root: root.clone(), ..ServerConfig::default() })
            .expect("server");
        server
            .create_study("scramble", setup(SEED, Budget::Evaluations(6), 1))
            .expect("create");
        drive_scrambled(&mut server, "scramble", schedule_seed);
        let actual = encode_trace(&server.trace("scramble").expect("trace"));
        prop_assert_eq!(expected, actual);
        std::fs::remove_dir_all(&root).ok();
    }
}

// ---------------------------------------------------------------------------
// Lease expiry
// ---------------------------------------------------------------------------

#[test]
fn tell_on_expired_lease_is_rejected_and_state_untouched() {
    let root = scratch_root("expiry");
    let mut server = StudyServer::new(ServerConfig {
        root,
        lease_policy: RetryPolicy {
            max_retries: 0,
            backoff_base_s: 10.0,
            backoff_factor: 2.0,
            backoff_jitter_frac: 0.0,
        },
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("exp", setup(SEED, Budget::Evaluations(4), 1))
        .expect("create");

    let batch = server.ask("exp", 1, 0.0).expect("ask");
    assert_eq!(batch.len(), 1);
    let candidate = &batch[0];
    assert!(
        (candidate.deadline_s - 10.0).abs() < 1e-9,
        "TTL is the policy base"
    );

    // The worker dies; the deadline passes; the lease is reclaimed.
    assert_eq!(server.tick_hedge(100.0).reclaimed, 1);
    let before_bytes = encode_trace(&server.trace("exp").expect("trace"));
    let before_committed = server.committed("exp").expect("committed");

    let err = server
        .tell("exp", candidate.lease_id, &eval(candidate))
        .expect_err("late tell must be rejected");
    match err {
        ServerError::Core(Error::LeaseExpired { lease_id, query }) => {
            assert_eq!(lease_id, candidate.lease_id);
            assert_eq!(query, candidate.query);
        }
        other => panic!("expected LeaseExpired, got {other}"),
    }
    assert_eq!(
        before_bytes,
        encode_trace(&server.trace("exp").expect("trace")),
        "a rejected tell must not perturb a single byte"
    );
    assert_eq!(
        before_committed,
        server.committed("exp").expect("committed")
    );
    assert_eq!(server.outstanding_total(), 0);

    // The candidate is re-issued under a fresh lease with the attempt
    // bumped and a grown deadline; serving on yields the reference bytes.
    let reissued = server.ask("exp", 1, 100.0).expect("ask");
    assert_eq!(reissued.len(), 1);
    assert_eq!(reissued[0].query, candidate.query);
    assert_eq!(reissued[0].eval_seed, candidate.eval_seed);
    assert_eq!(reissued[0].attempt, 2);
    assert!(
        reissued[0].deadline_s > 100.0 + 10.0,
        "backoff grows the TTL"
    );
    server
        .tell("exp", reissued[0].lease_id, &eval(&reissued[0]))
        .expect("tell");
    drive(&mut server, "exp", 2);
    assert_eq!(
        encode_trace(&reference(SEED, Budget::Evaluations(4))),
        encode_trace(&server.trace("exp").expect("trace"))
    );
}

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

#[test]
fn per_study_bound_refuses_with_typed_overload() {
    let root = scratch_root("overload");
    let mut server = StudyServer::new(ServerConfig {
        root,
        max_outstanding_per_study: 2,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("busy", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");

    let batch = server.ask("busy", 5, 0.0).expect("ask");
    assert_eq!(batch.len(), 2, "the ask is capped at the per-study bound");
    match server.ask("busy", 1, 0.0) {
        Err(ServerError::Overloaded {
            study,
            outstanding,
            limit,
        }) => {
            assert_eq!(study, "busy");
            assert_eq!(outstanding, 2);
            assert_eq!(limit, 2);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Telling a result back drains the queue and lifts the refusal.
    server
        .tell("busy", batch[0].lease_id, &eval(&batch[0]))
        .expect("tell");
    assert!(server.ask("busy", 1, 0.0).is_ok());
}

#[test]
fn global_bound_sheds_lowest_priority_first() {
    let root = scratch_root("shed");
    let mut server = StudyServer::new(ServerConfig {
        root,
        max_outstanding_per_study: 8,
        max_outstanding_total: 2,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("hi", setup(SEED, Budget::Evaluations(6), 5))
        .expect("create hi");
    server
        .create_study("lo", setup(SEED ^ 1, Budget::Evaluations(6), 1))
        .expect("create lo");

    let lo_batch = server.ask("lo", 2, 0.0).expect("lo ask");
    assert_eq!(lo_batch.len(), 2);
    assert_eq!(server.outstanding_total(), 2);

    // At the global bound the high-priority ask sheds `lo`'s leases.
    let hi_batch = server.ask("hi", 1, 0.0).expect("hi ask");
    assert_eq!(hi_batch.len(), 1);
    assert_eq!(server.committed("lo").expect("committed"), 0);

    // `lo`'s old leases are dead; its candidates re-issue later.
    match server.tell("lo", lo_batch[0].lease_id, &eval(&lo_batch[0])) {
        Err(ServerError::Core(Error::LeaseExpired { .. })) => {}
        other => panic!("expected LeaseExpired on shed lease, got {other:?}"),
    }

    // While hi's candidate is out on a lease, a refill ask plans nothing
    // new (block planning preserves worker-count invariance) — the batch
    // is empty, not an error.
    assert!(server.ask("hi", 4, 0.0).expect("hi refill").is_empty());

    // Fill the bound with high-priority work: the low-priority study has
    // nothing it may shed, so its ask is refused, typed.
    for c in hi_batch {
        server.tell("hi", c.lease_id, &eval(&c)).expect("tell hi");
    }
    let hi_pair = server.ask("hi", 2, 0.0).expect("hi pair");
    assert_eq!(hi_pair.len(), 2);
    assert_eq!(server.outstanding_total(), 2);
    match server.ask("lo", 1, 0.0) {
        Err(ServerError::Overloaded { study, .. }) => assert_eq!(study, "lo"),
        other => panic!("expected Overloaded for lo, got {other:?}"),
    }

    // Both studies still finish exactly once pressure drains.
    for c in hi_pair {
        server.tell("hi", c.lease_id, &eval(&c)).expect("tell hi");
    }
    drive(&mut server, "hi", 2);
    drive(&mut server, "lo", 2);
    assert_eq!(
        encode_trace(&reference(SEED, Budget::Evaluations(6))),
        encode_trace(&server.trace("hi").expect("trace hi"))
    );
    assert_eq!(
        encode_trace(&reference(SEED ^ 1, Budget::Evaluations(6))),
        encode_trace(&server.trace("lo").expect("trace lo"))
    );
}

// ---------------------------------------------------------------------------
// Naming and admission
// ---------------------------------------------------------------------------

#[test]
fn admission_errors_are_typed() {
    let root = scratch_root("admission");
    let mut server = StudyServer::new(ServerConfig {
        root,
        max_studies: 2,
        ..ServerConfig::default()
    })
    .expect("server");

    match server.create_study("../evil", setup(SEED, Budget::Evaluations(2), 1)) {
        Err(ServerError::InvalidStudyName(name)) => assert_eq!(name, "../evil"),
        other => panic!("expected InvalidStudyName, got {other:?}"),
    }
    match server.ask("ghost", 1, 0.0) {
        Err(ServerError::StudyNotFound(name)) => assert_eq!(name, "ghost"),
        other => panic!("expected StudyNotFound, got {other:?}"),
    }
    server
        .create_study("a", setup(SEED, Budget::Evaluations(2), 1))
        .expect("create a");
    match server.create_study("a", setup(SEED, Budget::Evaluations(2), 1)) {
        Err(ServerError::StudyExists(name)) => assert_eq!(name, "a"),
        other => panic!("expected StudyExists, got {other:?}"),
    }
    server
        .create_study("b", setup(SEED, Budget::Evaluations(2), 1))
        .expect("create b");
    match server.create_study("c", setup(SEED, Budget::Evaluations(2), 1)) {
        Err(ServerError::Overloaded { limit, .. }) => assert_eq!(limit, 2),
        other => panic!("expected Overloaded at max_studies, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Durability: kill -9 and resume
// ---------------------------------------------------------------------------

#[test]
fn kill_and_resume_is_byte_exact_even_with_torn_tail_and_stale_tmp() {
    let expected = encode_trace(&reference(SEED, Budget::Evaluations(6)));
    let root = scratch_root("kill9");
    let config = ServerConfig {
        root: root.clone(),
        // A cadence longer than the partial run below, so the crash lands
        // in the window where the journal still carries live records.
        snapshot_every_commits: 4,
        ..ServerConfig::default()
    };
    let mut server = StudyServer::new(config.clone()).expect("server");
    server
        .create_study("crashy", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");

    // Serve part of the run, then "kill -9" the process.
    let mut now = 0.0;
    for _ in 0..3 {
        now += 60.0;
        let batch = server.ask("crashy", 1, now).expect("ask");
        for c in batch {
            server.tell("crashy", c.lease_id, &eval(&c)).expect("tell");
        }
    }
    let committed_before = server.committed("crashy").expect("committed");
    assert!(committed_before > 0, "the partial run committed something");
    drop(server);

    // The crash tore the journal mid-append and stranded a stale snapshot
    // temp file.
    let (journal_path, snapshot_path) = hyperpower_server::journal::study_paths(&root, "crashy");
    let bytes = std::fs::read(&journal_path).expect("journal bytes");
    if bytes.len() > 8 {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal_path)
            .expect("open journal");
        file.set_len(bytes.len() as u64 - 7).expect("tear journal");
    }
    std::fs::write(
        snapshot_path.with_extension("tmp"),
        "{ \"schema\": \"hyperpower-checkpoint-v1\", torn",
    )
    .expect("stale tmp");

    // Recover and finish; the bytes must equal the uninterrupted run.
    let mut server = StudyServer::new(config).expect("server 2");
    let recovered = server
        .open_study("crashy", setup(SEED, Budget::Evaluations(6), 1))
        .expect("open");
    assert!(
        recovered <= committed_before,
        "a tear can only lose the tail"
    );
    drive(&mut server, "crashy", 2);
    assert_eq!(
        expected,
        encode_trace(&server.trace("crashy").expect("trace"))
    );
    assert!(
        !snapshot_path.with_extension("tmp").exists(),
        "recovery sweeps the stale snapshot temp"
    );
}

/// A commit's `E` and `S` records land in one append, so a kill can tear
/// the pair at any byte. The study's cadence is above its budget, so its
/// journal keeps every record; the served store is cut at every byte from
/// the start of the last tell's `E` record to the end of its `S` record.
/// Each cut must load, scan no worse than a torn tail, and reopen and
/// serve to the uninterrupted bytes.
#[test]
fn every_cut_through_a_commits_records_recovers_byte_exact() {
    let budget = Budget::Evaluations(6);
    let expected = encode_trace(&reference(SEED, budget));
    let config = |root: PathBuf| ServerConfig {
        root,
        snapshot_every_commits: 100,
        ..ServerConfig::default()
    };
    let root = scratch_root("torn-commit");
    let (journal_path, snapshot_path) = hyperpower_server::journal::study_paths(&root, "torn");
    let mut server = StudyServer::new(config(root.clone())).expect("server");
    server
        .create_study("torn", setup(SEED, budget, 1))
        .expect("create");
    let mut start = 0;
    for round in 1..=5 {
        let batch = server.ask("torn", 1, 60.0 * f64::from(round)).expect("ask");
        assert_eq!(batch.len(), 1, "round {round}");
        start = std::fs::read(&journal_path).expect("journal").len();
        for c in batch {
            server.tell("torn", c.lease_id, &eval(&c)).expect("tell");
        }
    }
    assert_eq!(server.committed("torn").expect("committed"), 5);
    drop(server);
    assert!(!snapshot_path.exists(), "the cadence is above the budget");
    let journal = std::fs::read(&journal_path).expect("journal");
    let records = std::str::from_utf8(&journal[start..]).expect("UTF-8 records");
    let (eval_record, sample_record) = records
        .strip_suffix('\n')
        .and_then(|r| r.split_once('\n'))
        .expect("the last tell appended two records");
    assert!(eval_record.starts_with("E "), "{eval_record}");
    assert!(sample_record.starts_with("S "), "{sample_record}");

    let cut_root = root.join("cut");
    for cut in start..=journal.len() {
        std::fs::remove_dir_all(&cut_root).ok();
        std::fs::create_dir_all(&cut_root).expect("cut root");
        std::fs::write(cut_root.join("torn.journal"), &journal[..cut]).expect("cut journal");
        let committed = if cut == journal.len() { 5 } else { 4 };
        let state = StudyJournal::load(&cut_root, "torn")
            .unwrap_or_else(|e| panic!("cut {cut}: {e}"))
            .expect("a journal");
        assert_eq!(state.samples.len(), committed, "cut {cut}");
        let report = fsck_store(&cut_root, false).expect("fsck scan");
        assert!(report.stale_tmps.is_empty(), "cut {cut}: {report}");
        for study in &report.studies {
            for (defect, _) in &study.defects {
                assert_eq!(*defect, StoreDefect::TruncatedTail, "cut {cut}: {report}");
            }
        }
        let mut server = StudyServer::new(config(cut_root.clone())).expect("server");
        let recovered = server
            .open_study("torn", setup(SEED, budget, 1))
            .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(recovered, committed, "cut {cut}");
        drive(&mut server, "torn", 1);
        assert_eq!(
            expected,
            encode_trace(&server.trace("torn").expect("trace")),
            "cut {cut}: the recovered trace diverged"
        );
    }
}

/// A HW-CWEI study as `hyperpower serve` hosts one: HyperPower mode with
/// the session's fitted constraint oracle.
fn bo_setup(oracle: &ConstraintOracle, budget: Budget) -> StudySetup {
    StudySetup {
        oracle: Some(oracle.clone()),
        spec: StudySpec {
            method: Method::HwCwei,
            ..spec(SEED, budget, FaultProfile::none())
        },
        ..setup(SEED, budget, 1)
    }
}

/// A BO searcher carries state from one ask to the next, and the journal
/// persists none of it: recovery rebuilds it by re-driving every ask. The
/// crash lands after 12 of 24 tells, once with journaled records past the
/// last snapshot and once right after a snapshot.
#[test]
fn killed_bo_study_recovers_byte_exact() {
    let session = Session::new(Scenario::mnist_gtx1070(), SEED).expect("session");
    let oracle = session.oracle();
    let budget = Budget::Evaluations(24);
    let space = SearchSpace::mnist();
    let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), SEED);
    let reference = run_optimization_with(
        RunSetup {
            space: &space,
            objective: &SyntheticObjective,
            gpu: &mut gpu,
            budgets: Budgets::default(),
            oracle: Some(oracle),
            early_termination: Some(EarlyTermination::default()),
            cost: TrainingCostModel::default(),
            method: Method::HwCwei,
            mode: Mode::HyperPower,
            budget,
            seed: SEED,
            searcher_override: None,
        },
        &ExecutorOptions::default(),
    )
    .expect("reference run");
    let expected = encode_trace(&reference);

    let default_cadence = ServerConfig::default().snapshot_every_commits;
    for snapshot_every_commits in [default_cadence, 6] {
        let root = scratch_root(&format!("bo-kill-s{snapshot_every_commits}"));
        let config = ServerConfig {
            root: root.clone(),
            snapshot_every_commits,
            ..ServerConfig::default()
        };
        let mut server = StudyServer::new(config.clone()).expect("server");
        server
            .create_study("bo", bo_setup(oracle, budget))
            .expect("create");
        let mut now = 0.0;
        let mut tells = 0;
        while tells < 12 {
            now += 60.0;
            for c in server.ask("bo", 1, now).expect("ask") {
                server.tell("bo", c.lease_id, &eval(&c)).expect("tell");
                tells += 1;
            }
        }
        assert_eq!(server.committed("bo").expect("committed"), 12);
        drop(server);

        let (journal_path, _) = hyperpower_server::journal::study_paths(&root, "bo");
        let journal = std::fs::read_to_string(&journal_path).expect("journal");
        assert_eq!(
            journal.lines().count() == 1,
            12 % snapshot_every_commits == 0,
            "cadence {snapshot_every_commits}: the journal holds records past the \
             last snapshot exactly when the crash does not follow one"
        );

        let mut server = StudyServer::new(config).expect("server 2");
        let recovered = server
            .open_study("bo", bo_setup(oracle, budget))
            .expect("open");
        assert_eq!(recovered, 12, "cadence {snapshot_every_commits}");
        drive(&mut server, "bo", 1);
        assert_eq!(
            expected,
            encode_trace(&server.trace("bo").expect("trace")),
            "cadence {snapshot_every_commits}: recovered trace diverged"
        );
        drop(server);
        let report = fsck_store(&root, false).expect("fsck scan");
        assert!(report.clean(), "cadence {snapshot_every_commits}: {report}");
    }
}

/// `payload` with its first `"power_w"` reading moved up by one ulp.
fn bump_first_power_w(payload: &str) -> String {
    let key = "\"power_w\": ";
    let start = payload.find(key).expect("a power reading") + key.len();
    let len = payload[start..].find([',', '}']).expect("the reading ends");
    let watts: f64 = payload[start..start + len].parse().expect("a number");
    let bumped = f64::from_bits(watts.to_bits() + 1);
    format!("{}{bumped:?}{}", &payload[..start], &payload[start + len..])
}

#[test]
fn a_reopen_that_fails_verification_writes_nothing() {
    let root = scratch_root("doctored");
    let config = ServerConfig {
        root: root.clone(),
        snapshot_every_commits: 100,
        ..ServerConfig::default()
    };
    let mut server = StudyServer::new(config.clone()).expect("server");
    server
        .create_study("doctored", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");
    for round in 1..=3 {
        for c in server
            .ask("doctored", 1, 60.0 * f64::from(round))
            .expect("ask")
        {
            server
                .tell("doctored", c.lease_id, &eval(&c))
                .expect("tell");
        }
    }
    assert_eq!(server.committed("doctored").expect("committed"), 3);
    drop(server);

    // Move the third sample's power reading by one ulp behind a valid
    // checksum: the store loads, and only the replay can tell.
    let (journal_path, snapshot_path) = hyperpower_server::journal::study_paths(&root, "doctored");
    let journal = std::fs::read_to_string(&journal_path).expect("journal");
    let mut samples = 0;
    let doctored: String = journal
        .lines()
        .map(|line| {
            let mut fields = line.splitn(3, ' ');
            let (tag, _, payload) = (fields.next(), fields.next(), fields.next());
            if tag == Some("S") {
                samples += 1;
                if samples == 3 {
                    let payload = bump_first_power_w(payload.expect("sample payload"));
                    let mut record = String::from("S ");
                    hyperpower::integrity::frame(&mut record, ' ', |out| out.push_str(&payload));
                    record.push('\n');
                    return record;
                }
            }
            format!("{line}\n")
        })
        .collect();
    assert_eq!(samples, 3, "the journal holds every committed sample");
    std::fs::write(&journal_path, &doctored).expect("doctor the journal");

    for open in 1..=2 {
        let mut server = StudyServer::new(config.clone()).expect("server");
        match server.open_study("doctored", setup(SEED, Budget::Evaluations(6), 1)) {
            Err(ServerError::Core(Error::ResumeMismatch(msg))) => {
                assert!(msg.contains("samples[2].power_w"), "open {open}: {msg}");
            }
            other => panic!("open {open}: expected a ResumeMismatch, got {other:?}"),
        }
        assert_eq!(
            std::fs::read_to_string(&journal_path).expect("journal"),
            doctored,
            "open {open} rewrote the journal"
        );
        assert!(!snapshot_path.exists(), "open {open} wrote a snapshot");
    }
}

#[test]
fn reopening_a_finished_study_leaves_its_journal_at_the_header() {
    let root = scratch_root("finished");
    let config = ServerConfig {
        root: root.clone(),
        ..ServerConfig::default()
    };
    let mut server = StudyServer::new(config.clone()).expect("server");
    server
        .create_study("finished", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");
    drive(&mut server, "finished", 1);
    let expected = encode_trace(&server.trace("finished").expect("trace"));
    drop(server);

    let (journal_path, snapshot_path) = hyperpower_server::journal::study_paths(&root, "finished");
    let journal = std::fs::read_to_string(&journal_path).expect("journal");
    let snapshot = std::fs::read_to_string(&snapshot_path).expect("snapshot");
    assert_eq!(
        journal.lines().count(),
        1,
        "a finished study's journal is its header line"
    );
    for reopen in 1..=2 {
        let mut server = StudyServer::new(config.clone()).expect("server");
        let recovered = server
            .open_study("finished", setup(SEED, Budget::Evaluations(6), 1))
            .expect("reopen");
        assert_eq!(recovered, 6, "reopen {reopen}");
        assert!(server.is_finished("finished").expect("is_finished"));
        assert_eq!(
            encode_trace(&server.trace("finished").expect("trace")),
            expected
        );
        drop(server);
        assert_eq!(
            std::fs::read_to_string(&journal_path).expect("journal"),
            journal,
            "reopen {reopen} changed the journal"
        );
        assert_eq!(
            std::fs::read_to_string(&snapshot_path).expect("snapshot"),
            snapshot,
            "reopen {reopen} changed the snapshot"
        );
    }
}

/// A finished study's snapshot already holds every commit, so a later ask
/// and a late duplicate tell write nothing: stand-in files put where its
/// journal and snapshot were survive both.
#[test]
fn requests_to_a_finished_study_write_nothing() {
    let root = scratch_root("finished-quiet");
    let mut server = StudyServer::new(ServerConfig {
        root: root.clone(),
        ..ServerConfig::default()
    })
    .expect("server");
    // Sixteen evaluations end on the default cadence of eight.
    server
        .create_study("quiet", setup(SEED, Budget::Evaluations(16), 1))
        .expect("create");
    let mut now = 0.0;
    let mut last = None;
    while !server.is_finished("quiet").expect("is_finished") {
        now += 60.0;
        for c in server.ask("quiet", 1, now).expect("ask") {
            let result = eval(&c);
            server.tell("quiet", c.lease_id, &result).expect("tell");
            last = Some((c.lease_id, result));
        }
    }
    let (lease_id, result) = last.expect("a told lease");
    let (journal_path, snapshot_path) = hyperpower_server::journal::study_paths(&root, "quiet");
    std::fs::write(&journal_path, "journal stand-in").expect("journal stand-in");
    std::fs::write(&snapshot_path, "snapshot stand-in").expect("snapshot stand-in");
    assert!(server.ask("quiet", 1, now + 60.0).expect("ask").is_empty());
    assert_eq!(
        server.tell("quiet", lease_id, &result).expect("tell"),
        TellOutcome::Duplicate
    );
    assert_eq!(
        std::fs::read_to_string(&journal_path).expect("journal"),
        "journal stand-in"
    );
    assert_eq!(
        std::fs::read_to_string(&snapshot_path).expect("snapshot"),
        "snapshot stand-in"
    );
}

#[test]
fn open_study_refuses_a_mismatched_spec() {
    let root = scratch_root("mismatch");
    let config = ServerConfig {
        root,
        ..ServerConfig::default()
    };
    let mut server = StudyServer::new(config.clone()).expect("server");
    server
        .create_study("pinned", setup(SEED, Budget::Evaluations(4), 1))
        .expect("create");
    let batch = server.ask("pinned", 1, 0.0).expect("ask");
    for c in batch {
        server.tell("pinned", c.lease_id, &eval(&c)).expect("tell");
    }
    drop(server);

    let mut server = StudyServer::new(config).expect("server 2");
    match server.open_study("pinned", setup(SEED ^ 99, Budget::Evaluations(4), 1)) {
        Err(ServerError::Core(Error::ResumeMismatch(msg))) => {
            assert!(msg.contains("different run"), "{msg}");
            assert!(msg.contains("seed: expected"), "{msg}");
        }
        other => panic!("expected ResumeMismatch, got {other:?}"),
    }
    // create_study must also refuse: durable state exists on disk.
    match server.create_study("pinned", setup(SEED, Budget::Evaluations(4), 1)) {
        Err(ServerError::StudyExists(name)) => assert_eq!(name, "pinned"),
        other => panic!("expected StudyExists over durable state, got {other:?}"),
    }
}

#[test]
fn snapshot_rotation_keeps_the_journal_to_its_header() {
    let root = scratch_root("rotate");
    let mut server = StudyServer::new(ServerConfig {
        root: root.clone(),
        snapshot_every_commits: 2,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("rot", setup(SEED, Budget::Evaluations(5), 1))
        .expect("create");
    drive(&mut server, "rot", 2);
    let committed = server.committed("rot").expect("committed");
    drop(server);

    let (journal_path, snapshot_path) = hyperpower_server::journal::study_paths(&root, "rot");
    let journal = std::fs::read_to_string(&journal_path).expect("journal");
    assert_eq!(
        journal.lines().count(),
        1,
        "a finished study's journal rotates down to its header line"
    );
    // v2 framing: `H <crc32 hex8> {payload}`.
    assert!(journal.starts_with("H "), "{journal}");
    let rest = journal.trim_start_matches("H ");
    let (crc, payload) = rest.split_once(' ').expect("framed header");
    assert_eq!(
        hyperpower::integrity::parse_crc32_hex(crc),
        Some(hyperpower::integrity::crc32(payload.trim_end().as_bytes())),
        "header frame checksum verifies"
    );
    assert!(payload.starts_with('{'), "{journal}");
    let snapshot =
        hyperpower::checkpoint::RunCheckpoint::load(&snapshot_path).expect("snapshot parses");
    assert_eq!(snapshot.samples.len(), committed);
}

/// Folds words into a running FNV-1a-style 64-bit digest, as the lease
/// digest of the core's study tests does.
fn fold(digest: &mut u64, words: impl IntoIterator<Item = u64>) {
    for word in words {
        *digest = (*digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds each named study's journal and then its snapshot: the file's
/// length and every byte, or `u64::MAX` for a file that does not exist.
fn fold_store(digest: &mut u64, root: &std::path::Path, names: &[&str]) {
    for name in names {
        let (journal, snapshot) = hyperpower_server::journal::study_paths(root, name);
        for path in [journal, snapshot] {
            match std::fs::read(&path) {
                Ok(bytes) => {
                    fold(digest, [bytes.len() as u64]);
                    fold(digest, bytes.iter().map(|&b| u64::from(b)));
                }
                Err(_) => fold(digest, [u64::MAX]),
            }
        }
    }
}

/// One width-1 round: each unfinished study is asked once and told every
/// candidate, and the store is folded after every ask and every tell.
fn serve_round_folding(
    server: &mut StudyServer,
    root: &std::path::Path,
    names: &[&str],
    now: f64,
    digest: &mut u64,
) {
    for name in names {
        if server.is_finished(name).expect("is_finished") {
            continue;
        }
        let batch = server.ask(name, 1, now).expect("ask");
        fold_store(digest, root, names);
        for c in batch {
            server.tell(name, c.lease_id, &eval(&c)).expect("tell");
            fold_store(digest, root, names);
        }
    }
}

/// Every byte of every study's journal and snapshot, read after every
/// ask, tell and reopen of a served Rand, Rand-Walk and BO study at the
/// default snapshot cadence, with budgets on and off that cadence and a
/// kill halfway, folds into one pinned digest. How the durable path does
/// its work may change how often a file is rewritten, never what a file
/// holds at any point a caller can observe.
#[test]
fn served_store_bytes_are_pinned() {
    let session = Session::new(Scenario::mnist_gtx1070(), SEED).expect("session");
    let oracle = session.oracle();
    let setups = || {
        let walk_budget = Budget::Evaluations(20);
        [
            ("rand", setup(SEED, Budget::Evaluations(16), 1)),
            (
                "walk",
                StudySetup {
                    spec: StudySpec {
                        method: Method::RandWalk,
                        ..spec(SEED, walk_budget, FaultProfile::none())
                    },
                    ..setup(SEED, walk_budget, 1)
                },
            ),
            ("bo", bo_setup(oracle, Budget::Evaluations(20))),
        ]
    };
    let names = ["rand", "walk", "bo"];
    let root = scratch_root("store-pin");
    let config = ServerConfig {
        root: root.clone(),
        ..ServerConfig::default()
    };
    assert_eq!(config.snapshot_every_commits, 8, "the pin's cadence");
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut now = 0.0;

    let mut server = StudyServer::new(config.clone()).expect("server");
    for (name, setup) in setups() {
        server.create_study(name, setup).expect("create");
        fold_store(&mut digest, &root, &names);
    }
    for _ in 0..9 {
        now += 60.0;
        serve_round_folding(&mut server, &root, &names, now, &mut digest);
    }
    for name in names {
        assert!(!server.is_finished(name).expect("is_finished"), "{name}");
    }
    drop(server);

    let mut server = StudyServer::new(config).expect("server 2");
    for (name, setup) in setups() {
        server.open_study(name, setup).expect("open");
        fold_store(&mut digest, &root, &names);
    }
    for _ in 0..1_000 {
        if names
            .iter()
            .all(|name| server.is_finished(name).expect("is_finished"))
        {
            break;
        }
        now += 60.0;
        serve_round_folding(&mut server, &root, &names, now, &mut digest);
    }
    assert_eq!(server.committed("walk").expect("committed"), 20);
    now += 60.0;
    assert!(server.ask("rand", 1, now).expect("ask").is_empty());
    fold_store(&mut digest, &root, &names);
    assert_eq!(
        digest, 0xb91f_7e69_509a_81df,
        "the store digest moved: {digest:#018x}"
    );
}

// ---------------------------------------------------------------------------
// Supervision: quarantine gating and the shed tie-break
// ---------------------------------------------------------------------------

/// Pins the documented shed order: victims are chosen by `(priority,
/// name)` — lowest priority first, lexicographically smallest name
/// breaking ties — so equal-priority studies shed deterministically.
#[test]
fn shed_victim_tie_break_is_priority_then_name() {
    let root = scratch_root("tiebreak");
    let mut server = StudyServer::new(ServerConfig {
        root,
        max_outstanding_per_study: 8,
        max_outstanding_total: 2,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("bb", setup(SEED ^ 2, Budget::Evaluations(6), 1))
        .expect("create bb");
    server
        .create_study("aa", setup(SEED ^ 1, Budget::Evaluations(6), 1))
        .expect("create aa");
    server
        .create_study("hi", setup(SEED, Budget::Evaluations(6), 5))
        .expect("create hi");

    let bb = server.ask("bb", 1, 0.0).expect("bb ask");
    let aa = server.ask("aa", 1, 0.0).expect("aa ask");
    assert_eq!(server.outstanding_total(), 2);

    // At the global bound, "aa" and "bb" tie on priority: the name
    // breaks the tie, so "aa" is shed and "bb" keeps its lease.
    let hi = server.ask("hi", 1, 0.0).expect("hi ask");
    assert_eq!(hi.len(), 1);
    match server.tell("aa", aa[0].lease_id, &eval(&aa[0])) {
        Err(ServerError::Core(Error::LeaseExpired { .. })) => {}
        other => panic!("aa must have been shed, got {other:?}"),
    }
    match server.tell("bb", bb[0].lease_id, &eval(&bb[0])) {
        Ok(TellOutcome::Accepted { .. }) => {}
        other => panic!("bb must have survived the tie-break, got {other:?}"),
    }
}

#[test]
fn a_quarantined_worker_never_receives_a_fresh_lease() {
    let root = scratch_root("quarantine");
    let mut server = StudyServer::new(ServerConfig {
        root,
        supervision_seed: 7,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("q", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");

    // A healthy worker gets work.
    let batch = server.ask_worker("q", "w0", 1, 60.0).expect("w0 ask");
    assert_eq!(batch.len(), 1);
    server
        .tell("q", batch[0].lease_id, &eval(&batch[0]))
        .expect("tell");

    // Fail w1 until supervision quarantines it (probation threshold plus
    // a bounded seeded slack).
    server.worker_heartbeat("w1", 60.0);
    let mut state = HealthState::Healthy;
    for _ in 0..16 {
        state = server.note_worker_failure("w1", 60.0);
        if state == HealthState::Quarantined {
            break;
        }
    }
    assert_eq!(state, HealthState::Quarantined);

    // Quarantined: an empty batch, not an error — and no fresh lease.
    let refused = server.ask_worker("q", "w1", 1, 120.0).expect("w1 ask");
    assert!(refused.is_empty(), "a quarantined worker got a lease");
    assert_eq!(server.worker_state("w1"), Some(HealthState::Quarantined));

    // A healthy sibling still receives the candidate.
    let sibling = server.ask_worker("q", "w2", 1, 120.0).expect("w2 ask");
    assert_eq!(sibling.len(), 1);
    server
        .tell("q", sibling[0].lease_id, &eval(&sibling[0]))
        .expect("tell sibling");

    // Past its seeded parole instant a sweep releases the worker.
    let parole = server.workers().parole_until("w1").expect("parole set");
    server.tick_hedge(parole + 1.0);
    assert_eq!(server.worker_state("w1"), Some(HealthState::Healthy));
    let back = server
        .ask_worker("q", "w1", 1, parole + 2.0)
        .expect("w1 parole ask");
    assert_eq!(back.len(), 1);
    server
        .tell("q", back[0].lease_id, &eval(&back[0]))
        .expect("tell paroled");

    // Supervision is execution-only: the served bytes are the reference.
    drive(&mut server, "q", 2);
    assert_eq!(
        encode_trace(&reference(SEED, Budget::Evaluations(6))),
        encode_trace(&server.trace("q").expect("trace"))
    );
}

// ---------------------------------------------------------------------------
// Hedged re-dispatch
// ---------------------------------------------------------------------------

/// Hedge-friendly config: leases effectively never expire (isolating the
/// hedge race from reclaim) and deadlines are jitter-free.
fn hedge_config(root: PathBuf, hedge_after_s: f64) -> ServerConfig {
    ServerConfig {
        root,
        lease_policy: RetryPolicy {
            max_retries: 0,
            backoff_base_s: 1.0e6,
            backoff_factor: 2.0,
            backoff_jitter_frac: 0.0,
        },
        hedge_after_s,
        ..ServerConfig::default()
    }
}

#[test]
fn hedged_duplicate_commits_once_and_is_trace_neutral() {
    let root = scratch_root("hedge-unit");
    let mut server = StudyServer::new(hedge_config(root, 100.0)).expect("server");
    server
        .create_study("h", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");

    let batch = server.ask("h", 1, 60.0).expect("ask");
    assert_eq!(batch.len(), 1);
    let original = &batch[0];

    // Before the hedge deadline (issue + 100 s) the tick hedges nothing.
    let report = server.tick_hedge(110.0);
    assert!(report.hedged.is_empty(), "hedged before the deadline");

    // Past it, the candidate is re-issued: same query, same eval_seed
    // (fixed at planning time — the trace-neutrality mechanism), a fresh
    // lease.
    let report = server.tick_hedge(200.0);
    assert_eq!(report.hedged.len(), 1);
    let (study, hedged) = &report.hedged[0];
    assert_eq!(study, "h");
    assert_eq!(hedged.query, original.query);
    assert_eq!(hedged.eval_seed, original.eval_seed);
    assert_ne!(hedged.lease_id, original.lease_id);

    // An item is hedged at most once while both leases are out.
    assert!(server.tick_hedge(300.0).hedged.is_empty());

    // First fulfilment commits; the loser resolves as a duplicate.
    match server
        .tell("h", hedged.lease_id, &eval(hedged))
        .expect("tell")
    {
        TellOutcome::Accepted { .. } => {}
        other => panic!("hedge winner must commit, got {other:?}"),
    }
    match server
        .tell("h", original.lease_id, &eval(original))
        .expect("tell loser")
    {
        TellOutcome::Duplicate => {}
        other => panic!("hedge loser must be a duplicate, got {other:?}"),
    }
    assert_eq!(server.hedge_stats("h").expect("stats"), (1, 1));

    drive(&mut server, "h", 2);
    assert_eq!(
        encode_trace(&reference(SEED, Budget::Evaluations(6))),
        encode_trace(&server.trace("h").expect("trace"))
    );
}

/// Serves a study under hedging while stalling a seeded subset of
/// deliveries long enough for `tick_hedge` to race a duplicate against
/// them; stalled originals are told late and must resolve as duplicates
/// (or commit first — either order is trace-neutral).
fn drive_hedged(server: &mut StudyServer, name: &str, width: usize, schedule_seed: u64) {
    let mut rng = StdRng::seed_from_u64(schedule_seed);
    let mut draw = move || rng.random_range(0.0..1.0);
    let mut now = 0.0;
    let mut stalled: Vec<(hyperpower::LeasedCandidate, u32)> = Vec::new();
    for round in 0..10_000u32 {
        now += 60.0;
        let report = server.tick_hedge(now);
        for (study, c) in report.hedged {
            server
                .tell(&study, c.lease_id, &eval(&c))
                .expect("hedged tell");
        }
        let mut due = Vec::new();
        stalled.retain(|(c, release)| {
            if *release <= round {
                due.push(c.clone());
                false
            } else {
                true
            }
        });
        for c in due {
            // Either the hedge already committed this candidate
            // (Duplicate), the run outlived it (Discarded), or the stall
            // released before the hedge fired (Accepted): all are legal.
            server.tell(name, c.lease_id, &eval(&c)).expect("late tell");
        }
        if server.is_finished(name).expect("is_finished") {
            if stalled.is_empty() {
                return;
            }
            continue;
        }
        let batch = match server.ask(name, width, now) {
            Ok(batch) => batch,
            Err(ServerError::Overloaded { .. }) => continue,
            Err(e) => panic!("ask: {e}"),
        };
        for c in batch {
            if draw() < 0.4 {
                let delay = 3 + (draw() * 4.0) as u32;
                stalled.push((c, round + delay));
            } else {
                server.tell(name, c.lease_id, &eval(&c)).expect("tell");
            }
        }
    }
    panic!("drive_hedged wedged: study {name} never finished");
}

proptest! {
    /// Any (hedge deadline, worker width, schedule seed) yields committed
    /// bytes identical to the unhedged embedded-loop reference, and every
    /// hedge the server issued was settled by a single commit.
    #[test]
    fn hedged_redispatch_is_trace_neutral(
        schedule_seed in 0u64..1_000_000,
        hedge_after in prop::sample::select(vec![90.0f64, 120.0, 240.0]),
        width in 1usize..4,
    ) {
        let expected = encode_trace(&reference(SEED, Budget::Evaluations(6)));
        let root = scratch_root(&format!("hedge-{schedule_seed}-{width}"));
        let mut server = StudyServer::new(hedge_config(root.clone(), hedge_after))
            .expect("server");
        server
            .create_study("hp", setup(SEED, Budget::Evaluations(6), 1))
            .expect("create");
        drive_hedged(&mut server, "hp", width, schedule_seed);
        let actual = encode_trace(&server.trace("hp").expect("trace"));
        prop_assert_eq!(expected, actual);
        let (issued, superseded) = server.hedge_stats("hp").expect("stats");
        prop_assert_eq!(issued, superseded, "every hedge race settles as one commit");
        std::fs::remove_dir_all(&root).ok();
    }
}

// ---------------------------------------------------------------------------
// Tenant backpressure: token bucket and circuit breaker
// ---------------------------------------------------------------------------

#[test]
fn sustained_overload_returns_only_typed_refusals() {
    let expected = encode_trace(&reference(SEED, Budget::Evaluations(6)));
    let root = scratch_root("soak");
    let mut server = StudyServer::new(ServerConfig {
        root,
        max_outstanding_per_study: 2,
        tenant_rate_per_s: 0.05,
        tenant_burst: 2.0,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("soak", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");

    // Hammer the tenant at 0.2 admissions/s against a 0.05/s refill:
    // most calls must be refused, every refusal must be typed, and the
    // study must still finish with the reference bytes.
    let mut now = 0.0;
    let mut refusals = 0usize;
    let mut pending: Vec<(u64, EvaluationResult)> = Vec::new();
    for _ in 0..4_000 {
        now += 5.0;
        // Advance the scheduler clock (tells are charged at its
        // high-water mark) and let overdue leases reclaim, as any real
        // serving loop would.
        server.tick_hedge(now);
        pending.retain(
            |(lease_id, result)| match server.tell("soak", *lease_id, result) {
                Ok(_) => false,
                Err(ServerError::Backpressure { retry_after_s, .. }) => {
                    assert!(retry_after_s.is_finite() && retry_after_s > 0.0);
                    refusals += 1;
                    true
                }
                // A starved tell can outlive its lease; the candidate goes
                // back to the queue and a later ask re-issues it.
                Err(ServerError::Core(Error::LeaseExpired { .. })) => false,
                Err(e) => panic!("tell refused untypedly: {e}"),
            },
        );
        if server.is_finished("soak").expect("is_finished") {
            if pending.is_empty() {
                break;
            }
            continue;
        }
        if !pending.is_empty() {
            // Don't let fresh asks burn the trickle of tokens the
            // stalled tells are waiting on.
            continue;
        }
        match server.ask("soak", 4, now) {
            Ok(batch) => {
                for c in batch {
                    pending.push((c.lease_id, eval(&c)));
                }
            }
            Err(ServerError::Backpressure { retry_after_s, .. }) => {
                assert!(retry_after_s.is_finite() && retry_after_s > 0.0);
                refusals += 1;
            }
            Err(ServerError::Overloaded { .. }) => refusals += 1,
            Err(e) => panic!("ask refused untypedly: {e}"),
        }
    }
    assert!(refusals > 0, "the soak never saw backpressure");
    assert!(server.is_finished("soak").expect("is_finished"));
    assert!(pending.is_empty(), "every result was eventually ingested");
    assert_eq!(
        expected,
        encode_trace(&server.trace("soak").expect("trace"))
    );
}

#[test]
fn breaker_opens_after_sustained_journal_failures() {
    let root = scratch_root("breaker");
    let mut server = StudyServer::new(ServerConfig {
        root: root.clone(),
        // Snapshot on every commit so tells hit the filesystem each time.
        snapshot_every_commits: 1,
        breaker_threshold: 3,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("br", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");
    let batch = server.ask("br", 1, 60.0).expect("ask");
    for c in batch {
        server.tell("br", c.lease_id, &eval(&c)).expect("tell");
    }

    // Yank the store out from under the server: every snapshot rotation
    // now fails, each failed tell extends the tenant's breaker streak,
    // and within the seeded threshold the circuit opens.
    std::fs::remove_dir_all(&root).expect("yank store");
    let mut saw_open = false;
    for i in 0..20u32 {
        let now = 120.0 + f64::from(i);
        match server.ask("br", 1, now) {
            Ok(batch) => {
                for c in batch {
                    match server.tell("br", c.lease_id, &eval(&c)) {
                        Err(ServerError::Core(_)) => {} // streak grows
                        Err(ServerError::CircuitOpen { .. }) => {}
                        Ok(_) => {}
                        Err(e) => panic!("unexpected tell error: {e}"),
                    }
                }
            }
            Err(ServerError::CircuitOpen { study, until_s }) => {
                assert_eq!(study, "br");
                assert!(until_s > now, "parole must be in the future");
                saw_open = true;
                break;
            }
            Err(ServerError::Core(_)) => {} // journal failure: streak grows
            Err(e) => panic!("unexpected ask error: {e}"),
        }
    }
    assert!(saw_open, "the breaker never opened");
    assert_eq!(server.tenant_state("br"), Some(HealthState::Quarantined));
}

// ---------------------------------------------------------------------------
// fsck: scan and salvage
// ---------------------------------------------------------------------------

#[test]
fn fsck_salvages_a_rotted_journal_back_to_replayable_bytes() {
    let expected = encode_trace(&reference(SEED, Budget::Evaluations(6)));
    let root = scratch_root("fsck-salvage");
    let config = ServerConfig {
        root: root.clone(),
        // No mid-run rotation: the journal keeps every record, so the
        // bit-flip below lands in live history.
        snapshot_every_commits: 100,
        ..ServerConfig::default()
    };
    let mut server = StudyServer::new(config.clone()).expect("server");
    server
        .create_study("rotted", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");
    let mut now = 0.0;
    for _ in 0..3 {
        now += 60.0;
        for c in server.ask("rotted", 1, now).expect("ask") {
            server.tell("rotted", c.lease_id, &eval(&c)).expect("tell");
        }
    }
    drop(server);

    // Bit-rot one byte of the first record after the header, and strand
    // a half-written temp file next to it.
    let (journal_path, _) = hyperpower_server::journal::study_paths(&root, "rotted");
    let mut bytes = std::fs::read(&journal_path).expect("journal bytes");
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line");
    bytes[header_end + 20] ^= 0x01;
    std::fs::write(&journal_path, &bytes).expect("rot journal");
    std::fs::write(journal_path.with_extension("journal-tmp"), "half-written").expect("tmp");

    // A plain scan reports the damage without touching anything.
    let scan = fsck_store(&root, false).expect("scan");
    assert!(!scan.clean(), "the rot must be detected:\n{scan}");
    assert!(scan.recoverable(), "a torn suffix is salvageable:\n{scan}");
    assert_eq!(std::fs::read(&journal_path).expect("journal"), bytes);

    // Salvage truncates to the last valid frame and sweeps the temp.
    let salvaged = fsck_store(&root, true).expect("salvage");
    assert!(
        salvaged.salvaged,
        "salvage must report repairs:\n{salvaged}"
    );
    assert!(salvaged.recoverable());
    let rescan = fsck_store(&root, false).expect("rescan");
    assert!(
        rescan.clean(),
        "the salvaged store must scan clean:\n{rescan}"
    );

    // Reopen (replaying the salvaged prefix) and finish: byte-identical.
    let mut server = StudyServer::new(config).expect("server 2");
    server
        .open_study("rotted", setup(SEED, Budget::Evaluations(6), 1))
        .expect("open salvaged");
    drive(&mut server, "rotted", 2);
    assert_eq!(
        expected,
        encode_trace(&server.trace("rotted").expect("trace"))
    );
}

/// A store holding one study that committed a few samples; its journal
/// still holds every record (no rotation yet). Returns the root and the
/// journal path.
fn small_store(name: &str) -> (PathBuf, PathBuf) {
    let root = scratch_root(name);
    let mut server = StudyServer::new(ServerConfig {
        root: root.clone(),
        snapshot_every_commits: 100,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study(name, setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");
    for round in 1..=2 {
        for c in server.ask(name, 1, 60.0 * f64::from(round)).expect("ask") {
            server.tell(name, c.lease_id, &eval(&c)).expect("tell");
        }
    }
    drop(server);
    let (journal_path, _) = hyperpower_server::journal::study_paths(&root, name);
    (root, journal_path)
}

fn append_line(path: &std::path::Path, line: &str) {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open journal");
    writeln!(file, "{line}").expect("append");
}

fn assert_corrupt_frame(root: &std::path::Path, name: &str, detail: &str) {
    let err = StudyJournal::load(root, name).expect_err("load must refuse the record");
    assert!(
        matches!(&err, Error::Checkpoint(m) if m.contains(detail)),
        "expected a `{detail}` checkpoint error, got: {err}"
    );
    let report = fsck_store(root, false).expect("scan");
    assert!(
        report.studies[0]
            .defects
            .iter()
            .any(|(defect, _)| *defect == StoreDefect::CorruptFrame),
        "fsck must report a corrupt frame:\n{report}"
    );
}

#[test]
fn an_unframed_journal_record_is_a_corrupt_frame() {
    // A record with no checksum must not pass as verified: the unframed
    // form is refused by the loader and flagged by fsck alike.
    let (root, journal_path) = small_store("unframed");
    append_line(
        &journal_path,
        r#"E {"seed": "7", "error": 0.5, "diverged": false, "terminated_early": false, "train_secs": 1.0}"#,
    );
    assert_corrupt_frame(&root, "unframed", "corrupt frame");
}

#[test]
fn a_hostile_deeply_nested_record_is_a_typed_error() {
    // A correctly checksummed sample record nested a million levels deep
    // must surface as an error, never a stack overflow.
    let (root, journal_path) = small_store("nested");
    let mut record = String::from("S ");
    hyperpower::integrity::frame(&mut record, ' ', |out| out.push_str(&"[".repeat(1_000_000)));
    append_line(&journal_path, &record);
    assert_corrupt_frame(&root, "nested", "nesting");
}

#[test]
fn a_checksummed_but_undecodable_evaluation_is_a_corrupt_frame() {
    // The frame is valid, the payload is not an evaluation: the loader and
    // fsck must both refuse it, and salvage must make the study whole.
    let (root, journal_path) = small_store("undecodable");
    let mut record = String::from("E ");
    hyperpower::integrity::frame(&mut record, ' ', |out| out.push_str(r#"{"seed": "7"}"#));
    append_line(&journal_path, &record);
    assert_corrupt_frame(&root, "undecodable", "missing numeric field");

    let salvaged = fsck_store(&root, true).expect("salvage");
    assert!(salvaged.recoverable(), "{salvaged}");
    let mut server = StudyServer::new(ServerConfig {
        root: root.clone(),
        snapshot_every_commits: 100,
        ..ServerConfig::default()
    })
    .expect("server");
    let recovered = server
        .open_study("undecodable", setup(SEED, Budget::Evaluations(6), 1))
        .expect("open salvaged");
    assert!(recovered > 0, "the salvaged journal keeps its samples");
    drive(&mut server, "undecodable", 1);
    assert_eq!(
        encode_trace(&reference(SEED, Budget::Evaluations(6))),
        encode_trace(&server.trace("undecodable").expect("trace"))
    );
}

#[test]
fn a_snapshot_from_another_run_is_refused_by_field() {
    // Loading must compare the snapshot's run identity with the journal
    // header's instead of merging another run's samples.
    let (root, _) = small_store("foreign");
    let elsewhere = scratch_root("foreign-elsewhere");
    let mut server = StudyServer::new(ServerConfig {
        root: elsewhere.clone(),
        snapshot_every_commits: 1,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("foreign", setup(SEED ^ 1, Budget::Evaluations(6), 1))
        .expect("create");
    for c in server.ask("foreign", 1, 60.0).expect("ask") {
        server.tell("foreign", c.lease_id, &eval(&c)).expect("tell");
    }
    drop(server);
    let (_, theirs) = hyperpower_server::journal::study_paths(&elsewhere, "foreign");
    let (_, ours) = hyperpower_server::journal::study_paths(&root, "foreign");
    std::fs::copy(theirs, ours).expect("copy the snapshot");

    match StudyJournal::load(&root, "foreign") {
        Err(Error::ResumeMismatch(msg)) => assert!(msg.contains("seed: expected"), "{msg}"),
        other => panic!("expected a ResumeMismatch naming `seed`, got {other:?}"),
    }
    let report = fsck_store(&root, false).expect("scan");
    assert!(
        report.studies[0]
            .defects
            .iter()
            .any(|(defect, _)| *defect == StoreDefect::HeaderMismatch),
        "fsck must report a header mismatch:\n{report}"
    );
}

#[test]
fn a_read_only_fsck_writes_nothing() {
    // A store with a snapshot, journal records past it, and a stale temp
    // file of each kind.
    let root = scratch_root("read-only");
    let mut server = StudyServer::new(ServerConfig {
        root: root.clone(),
        snapshot_every_commits: 2,
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("ro", setup(SEED, Budget::Evaluations(6), 1))
        .expect("create");
    for round in 1..=3 {
        for c in server.ask("ro", 1, 60.0 * f64::from(round)).expect("ask") {
            server.tell("ro", c.lease_id, &eval(&c)).expect("tell");
        }
    }
    drop(server);
    let (journal_path, snapshot_path) = hyperpower_server::journal::study_paths(&root, "ro");
    assert!(snapshot_path.exists(), "the store holds a snapshot");
    std::fs::write(snapshot_path.with_extension("tmp"), "stale").expect("stale tmp");
    std::fs::write(journal_path.with_extension("journal-tmp"), "stale").expect("stale tmp");
    let contents = || {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&root)
            .expect("list the store")
            .map(|entry| {
                let path = entry.expect("entry").path();
                let bytes = std::fs::read(&path).expect("read");
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    let before = contents();

    let first = fsck_store(&root, false).expect("scan");
    assert_eq!(contents(), before, "a read-only scan changed the store");
    let second = fsck_store(&root, false).expect("rescan");
    assert_eq!(first.stale_tmps.len(), 2, "{first}");
    assert_eq!(second.stale_tmps, first.stale_tmps, "{second}");
}

/// A kill between `create` opening `<name>.journal` and writing its header
/// leaves an empty journal and no snapshot. Nothing was committed, so
/// salvage removes the journal and the name is free again.
#[test]
fn salvage_removes_a_journal_whose_header_never_landed() {
    let root = scratch_root("headerless");
    std::fs::create_dir_all(&root).expect("root");
    let (journal_path, _) = hyperpower_server::journal::study_paths(&root, "alpha");
    std::fs::write(&journal_path, "").expect("empty journal");

    let scan = fsck_store(&root, false).expect("scan");
    assert!(
        !scan.clean(),
        "the missing header must be reported:\n{scan}"
    );
    assert!(scan.recoverable(), "nothing was committed:\n{scan}");
    assert!(
        journal_path.exists(),
        "a read-only scan removed the journal"
    );

    let salvaged = fsck_store(&root, true).expect("salvage");
    assert!(salvaged.recoverable(), "{salvaged}");
    assert!(!journal_path.exists(), "salvage kept the empty journal");

    let mut server = StudyServer::new(ServerConfig {
        root: root.clone(),
        ..ServerConfig::default()
    })
    .expect("server");
    server
        .create_study("alpha", setup(SEED, Budget::Evaluations(2), 1))
        .expect("the name is free after salvage");
}
