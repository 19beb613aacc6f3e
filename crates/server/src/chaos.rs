//! The deterministic chaos harness.
//!
//! [`run_chaos`] simulates a full serving deployment — several named
//! studies, a pool of workers, a scheduler clock — and attacks it with
//! every failure mode the server claims to survive: killed workers
//! (results dropped, leases left to expire), duplicated tells, reordered
//! (delayed) tells, and `kill -9` of the whole server process, including
//! crashes that tear the last journal record mid-write and strand a stale
//! snapshot temp file. After the dust settles it byte-compares every
//! study's final trace against an *uninterrupted* single-process reference
//! run of the identical spec. The [`ChaosProfile`] picks the failure
//! family: the baseline storm serves without hedging, so lost workers are
//! recovered through lease expiry alone; the other two profiles hedge.
//!
//! Everything is a pure function of `(chaos seed, worker count)`: fault
//! decisions come from [`ChaosPlan`] — [`seeded_unit`] draws, one salt per
//! decision kind — the simulated objective
//! is a pure function of the evaluation seed, and deliveries are processed
//! in a deterministic order. A failing seed therefore replays exactly,
//! locally and in CI (`HYPERPOWER_CHAOS_SEED`).

use std::path::{Path, PathBuf};

use hyperpower::driver::RunSetup;
use hyperpower::golden::{diff_text, encode_trace};
use hyperpower::space::Decoded;
use hyperpower::{
    run_optimization_with, Budget, Budgets, EarlyTermination, Error, EvaluationResult,
    ExecutorOptions, Method, Mode, Objective, RetryPolicy, SearchSpace, StudySpec, Trace,
};
use hyperpower_gpu_sim::{seeded_unit, DeviceProfile, FaultProfile, Gpu, TrainingCostModel};

use crate::journal::study_paths;
use crate::{ServerConfig, ServerError, StudyServer, StudySetup};

const SALT_DROP: u64 = 0xC4A0_0001;
const SALT_DUP: u64 = 0xC4A0_0002;
const SALT_DELAY: u64 = 0xC4A0_0003;
const SALT_CRASH: u64 = 0xC4A0_0004;
const SALT_TEAR: u64 = 0xC4A0_0005;
const SALT_TEAR_AT: u64 = 0xC4A0_0006;
const SALT_ROT: u64 = 0xC4A0_0007;
const SALT_ROT_AT: u64 = 0xC4A0_0008;
const SALT_SLOW: u64 = 0xC4A0_0009;
const SALT_SLOW_DELAY: u64 = 0xC4A0_000A;

/// Which failure family a chaos run leans on, atop the always-on baseline
/// faults (drops, duplicates, delays, crashes, torn journals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChaosProfile {
    /// The kill/duplicate/reorder/crash storm, served without hedging: leases
    /// expire and are reclaimed, late tells are rejected, and workers whose
    /// results go missing are quarantined.
    Baseline,
    /// Crashes additionally flip seeded bits inside journal bodies; the
    /// harness recovers through `fsck --salvage` and proves byte-exact
    /// reconvergence.
    BitRot,
    /// A seeded subset of workers delivers results rounds late, forcing
    /// hedged re-dispatch: a healthy worker's duplicate wins the race.
    SlowWorker,
}

impl ChaosProfile {
    /// Stable CLI/CI name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosProfile::Baseline => "baseline",
            ChaosProfile::BitRot => "bit-rot",
            ChaosProfile::SlowWorker => "slow-worker",
        }
    }

    /// Parses a CLI/CI name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "baseline" => Some(ChaosProfile::Baseline),
            "bit-rot" => Some(ChaosProfile::BitRot),
            "slow-worker" => Some(ChaosProfile::SlowWorker),
            _ => None,
        }
    }
}

/// Deterministic fault decisions for one chaos run: every predicate is a
/// pure function of the plan seed and its arguments.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    seed: u64,
}

impl ChaosPlan {
    /// A plan over `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosPlan { seed }
    }

    fn unit(&self, salt: u64, a: u64, b: u64) -> f64 {
        seeded_unit(self.seed, salt, a, b)
    }

    /// The worker evaluating this lease dies: its result is never told and
    /// the lease is left to expire.
    pub fn drop_tell(&self, study: u64, lease_id: u64) -> bool {
        self.unit(SALT_DROP, study, lease_id) < 0.18
    }

    /// The delivery is duplicated (an at-least-once transport retry).
    pub fn duplicate_tell(&self, study: u64, lease_id: u64) -> bool {
        self.unit(SALT_DUP, study, lease_id) < 0.25
    }

    /// Extra scheduler rounds this delivery is delayed — delays reorder
    /// tells across leases (and can outlive the lease's deadline, turning
    /// the delivery into a typed late-tell rejection).
    pub fn delay_rounds(&self, study: u64, lease_id: u64) -> u64 {
        (self.unit(SALT_DELAY, study, lease_id) * 4.0) as u64
    }

    /// The whole server process is killed after this round.
    pub fn crash_after_round(&self, round: u64) -> bool {
        self.unit(SALT_CRASH, round, 0) < 0.10
    }

    /// Whether this crash tears the study's last journal record mid-write.
    pub fn tear_journal(&self, round: u64, study: u64) -> bool {
        self.unit(SALT_TEAR, round, study) < 0.5
    }

    /// Where inside the last record the tear lands: a fraction in `(0, 1]`
    /// of the record's bytes that survive.
    pub fn tear_keep_frac(&self, round: u64, study: u64) -> f64 {
        self.unit(SALT_TEAR_AT, round, study)
    }

    /// Whether this crash also rots a bit somewhere in the study's journal
    /// body (bit-rot profile only).
    pub fn rot_journal(&self, round: u64, study: u64) -> bool {
        self.unit(SALT_ROT, round, study) < 0.6
    }

    /// Which `(byte fraction, bit)` of the journal body the rot flips.
    pub fn rot_target(&self, round: u64, study: u64) -> (f64, u32) {
        let frac = self.unit(SALT_ROT_AT, round, study);
        let bit = (self.unit(SALT_ROT_AT, study, round) * 8.0) as u32 & 7;
        (frac, bit)
    }

    /// Whether this worker is chronically slow (slow-worker profile only).
    pub fn slow_worker(&self, worker: u64) -> bool {
        self.unit(SALT_SLOW, worker, 0) < 0.4
    }

    /// Extra delivery rounds a slow worker adds — always past the hedge
    /// deadline, so the duplicate race actually happens.
    pub fn slow_delay_rounds(&self, worker: u64, lease_id: u64) -> u64 {
        3 + (self.unit(SALT_SLOW_DELAY, worker, lease_id) * 3.0) as u64
    }
}

/// The chaos deployment's objective: error and training time are pure
/// functions of the evaluation seed (the fault-injection suite's stub),
/// so any worker — or the reference run — computes identical results.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyntheticObjective;

impl Objective for SyntheticObjective {
    fn evaluate(
        &self,
        _decoded: &Decoded,
        _early: Option<&EarlyTermination>,
        seed: u64,
    ) -> hyperpower::Result<EvaluationResult> {
        Ok(EvaluationResult {
            error: 0.05 + 0.9 * ((seed % 997) as f64 / 997.0),
            diverged: false,
            terminated_early: false,
            train_secs: 400.0 + (seed % 13) as f64 * 25.0,
        })
    }

    fn full_epochs(&self) -> usize {
        10
    }
}

/// One study in the chaos deployment.
#[derive(Debug, Clone)]
struct ChaosStudy {
    name: &'static str,
    seed: u64,
    method: Method,
    budget: Budget,
    fault_profile: FaultProfile,
    priority: u32,
}

/// The fixed deployment every chaos run hosts: multiple studies with
/// distinct seeds, methods, budgets and fault profiles (one of them
/// retry-heavy), at different shedding priorities.
fn deployment() -> Vec<ChaosStudy> {
    vec![
        ChaosStudy {
            name: "alpha",
            seed: 0xA1FA_0001,
            method: Method::Rand,
            budget: Budget::Evaluations(6),
            fault_profile: FaultProfile::none(),
            priority: 2,
        },
        ChaosStudy {
            name: "beta",
            seed: 0xBE7A_0002,
            method: Method::RandWalk,
            budget: Budget::Evaluations(5),
            fault_profile: FaultProfile::flaky_sensor(),
            priority: 1,
        },
    ]
}

fn chaos_spec(st: &ChaosStudy) -> StudySpec {
    StudySpec {
        method: st.method,
        mode: Mode::HyperPower,
        budget: st.budget,
        seed: st.seed,
        budgets: Budgets::default(),
        cost: TrainingCostModel::default(),
        early_termination: Some(EarlyTermination::default()),
        fault_profile: st.fault_profile.clone(),
        retry: RetryPolicy::default(),
        drift: hyperpower::DriftConfig::default(),
    }
}

fn chaos_setup(st: &ChaosStudy) -> StudySetup {
    StudySetup {
        space: SearchSpace::mnist(),
        gpu: Gpu::new(DeviceProfile::gtx_1070(), st.seed),
        oracle: None,
        spec: chaos_spec(st),
        priority: st.priority,
    }
}

/// The uninterrupted single-process reference: the embedded executor loop
/// over the identical spec, space, GPU seed and objective.
fn reference_trace(st: &ChaosStudy) -> Result<Trace, Error> {
    let space = SearchSpace::mnist();
    let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), st.seed);
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
            method: st.method,
            mode: Mode::HyperPower,
            budget: st.budget,
            seed: st.seed,
            searcher_override: None,
        },
        &ExecutorOptions {
            workers: 1,
            simulated_gpus: 1,
            fault_profile: st.fault_profile.clone(),
            retry: RetryPolicy::default(),
            checkpoint: None,
            resume_from: None,
            drift: hyperpower::DriftConfig::default(),
        },
    )
}

/// Counters describing what one chaos run inflicted and absorbed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosReport {
    /// Scheduler rounds until every study finished.
    pub rounds: u64,
    /// Server processes killed (and recovered).
    pub crashes: usize,
    /// Journals torn mid-record by a crash.
    pub torn_journals: usize,
    /// Committed samples reconstructed across all recoveries.
    pub recovered_samples: usize,
    /// Results lost with their worker.
    pub dropped_tells: usize,
    /// Deliveries duplicated in flight.
    pub duplicated_tells: usize,
    /// Deliveries delayed (reordered) in flight.
    pub delayed_tells: usize,
    /// Late tells rejected with the typed lease-expiry error.
    pub expired_tells: usize,
    /// Leases reclaimed by deadline expiry.
    pub reclaimed_leases: usize,
    /// Asks refused by backpressure.
    pub overload_refusals: usize,
    /// Speculative duplicate leases issued by hedged re-dispatch.
    pub hedged_leases: u64,
    /// Sibling leases a first fulfilment superseded.
    pub superseded_leases: u64,
    /// Journal bodies bit-rotted by a crash (bit-rot profile).
    pub rotted_journals: usize,
    /// Studies recovered only after an `fsck --salvage` pass.
    pub salvaged_studies: usize,
    /// Workers quarantined or retired at the end of the run.
    pub unhealthy_workers: usize,
}

/// A study whose post-chaos trace differs from the uninterrupted
/// reference (the harness's failure evidence, ready for an artifact).
#[derive(Debug, Clone)]
pub struct TraceMismatch {
    /// Study name.
    pub study: String,
    /// Per-field differences from [`diff_text`].
    pub diffs: Vec<String>,
    /// Reference trace bytes.
    pub expected: String,
    /// Post-chaos trace bytes.
    pub actual: String,
}

/// The outcome of one chaos run: what was inflicted, and any study whose
/// trace bytes diverged (none, when the server honours its contract).
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Fault counters.
    pub report: ChaosReport,
    /// Studies whose final bytes diverged from the reference.
    pub mismatches: Vec<TraceMismatch>,
}

/// One in-flight result delivery.
struct Delivery {
    study: usize,
    lease_id: u64,
    result: EvaluationResult,
    due_round: u64,
    /// Index of the worker carrying the result (fleet attribution).
    worker: usize,
}

/// Scheduler-clock seconds per round. Together with the harness lease
/// policy (base TTL 240 s, factor 2, jitter ½) a dropped lease is
/// reclaimed after 2–3 rounds and re-issued with a grown deadline.
const ROUND_SECS: f64 = 120.0;

/// Hard stop: no legitimate run needs anywhere near this many rounds, so
/// hitting it means the serving loop wedged — which is itself a failure
/// the harness must surface, not spin on.
const MAX_ROUNDS: u64 = 5_000;

fn harness_config(root: &Path, profile: ChaosProfile) -> ServerConfig {
    ServerConfig {
        root: root.to_path_buf(),
        max_studies: 8,
        max_outstanding_per_study: 16,
        max_outstanding_total: 32,
        lease_policy: RetryPolicy {
            max_retries: 0,
            backoff_base_s: 240.0,
            backoff_factor: 2.0,
            backoff_jitter_frac: 0.5,
        },
        snapshot_every_commits: 3,
        // The baseline storm serves without hedging, so a dropped result
        // waits out its lease. The other profiles hedge after one round of
        // silence (plus jitter), before reclamation would re-pool it.
        hedge_after_s: match profile {
            ChaosProfile::Baseline => 0.0,
            ChaosProfile::BitRot | ChaosProfile::SlowWorker => 120.0,
        },
        ..ServerConfig::default()
    }
}

/// Flips one seeded bit inside the journal's body (never the header
/// line), the way silent media corruption does. Returns whether a bit was
/// flipped (a rotated, body-less journal has nothing to rot).
fn rot_journal_body(root: &Path, name: &str, byte_frac: f64, bit: u32) -> Result<bool, Error> {
    let (journal_path, _) = study_paths(root, name);
    let describe = |what: &str, e: std::io::Error| {
        Error::Checkpoint(format!("{what} {}: {e}", journal_path.display()))
    };
    let mut bytes = std::fs::read(&journal_path).map_err(|e| describe("reading", e))?;
    let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
        return Ok(false);
    };
    let body_len = bytes.len() - (header_end + 1);
    if body_len == 0 {
        return Ok(false);
    }
    let offset = header_end + 1 + ((byte_frac * body_len as f64) as usize).min(body_len - 1);
    bytes[offset] ^= 1 << (bit & 7);
    std::fs::write(&journal_path, bytes).map_err(|e| describe("writing", e))?;
    Ok(true)
}

/// Tears the study's journal the way a `kill -9` mid-`write` does: the
/// last record loses its tail (including the newline), leaving a torn
/// final line for recovery to drop. Returns whether a tear happened.
fn tear_journal_tail(root: &Path, name: &str, keep_frac: f64) -> Result<bool, Error> {
    let (journal_path, _) = study_paths(root, name);
    let describe = |what: &str, e: std::io::Error| {
        Error::Checkpoint(format!("{what} {}: {e}", journal_path.display()))
    };
    let bytes = std::fs::read(&journal_path).map_err(|e| describe("reading", e))?;
    // The record being torn is the last line; never tear the header.
    let Some(last_nl) = bytes.iter().rposition(|&b| b == b'\n') else {
        return Ok(false);
    };
    let Some(prev_nl) = bytes[..last_nl].iter().rposition(|&b| b == b'\n') else {
        return Ok(false);
    };
    let record_len = last_nl - prev_nl; // payload + its newline
    if record_len < 2 {
        return Ok(false);
    }
    let keep = 1 + (keep_frac * (record_len - 2) as f64) as usize;
    let new_len = (prev_nl + 1 + keep) as u64;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&journal_path)
        .map_err(|e| describe("opening", e))?;
    file.set_len(new_len)
        .map_err(|e| describe("truncating", e))?;
    Ok(true)
}

/// Runs the full chaos scenario for `(seed, workers)` with durable state
/// under `root` (wiped first) and the baseline profile. See
/// [`run_chaos_with`].
///
/// # Errors
///
/// As [`run_chaos_with`].
pub fn run_chaos(seed: u64, workers: usize, root: &Path) -> Result<ChaosOutcome, ServerError> {
    run_chaos_with(seed, workers, root, ChaosProfile::Baseline)
}

/// Runs the full chaos scenario for `(seed, workers, profile)` with
/// durable state under `root` (wiped first), returning the fault counters
/// and any trace mismatches. See the module docs.
///
/// # Errors
///
/// [`ServerError`] on any *unexpected* failure — an error the contract
/// says must not happen (unknown leases, journal corruption that salvage
/// cannot repair, a wedged serving loop). Expected rejections (lease
/// expiry, overload) are absorbed into the report.
pub fn run_chaos_with(
    seed: u64,
    workers: usize,
    root: &Path,
    profile: ChaosProfile,
) -> Result<ChaosOutcome, ServerError> {
    std::fs::remove_dir_all(root).ok();
    let plan = ChaosPlan::new(seed);
    let studies = deployment();
    let objective = SyntheticObjective;
    let config = harness_config(root, profile);
    let workers = workers.max(1);
    let worker_ids: Vec<String> = (0..workers).map(|w| format!("w{w}")).collect();
    let mut server = StudyServer::new(config.clone())?;
    for st in &studies {
        server.create_study(st.name, chaos_setup(st))?;
    }

    let mut report = ChaosReport::default();
    let mut pending: Vec<Delivery> = Vec::new();
    let mut now_s = 0.0;
    let mut round: u64 = 0;
    loop {
        let mut all_done = true;
        for st in &studies {
            if !server.is_finished(st.name)? {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        round += 1;
        if round > MAX_ROUNDS {
            return Err(ServerError::Core(Error::Checkpoint(format!(
                "chaos harness wedged: {MAX_ROUNDS} rounds without finishing (seed {seed}, workers {workers})"
            ))));
        }
        now_s += ROUND_SECS;
        let tick = server.tick_hedge(now_s);
        report.reclaimed_leases += tick.reclaimed;
        // Hedged duplicates go straight to the healthiest worker on hand
        // (an eligible non-slow one, when the profile marks some slow) and
        // land this round; whichever copy of the candidate fulfils first
        // commits, the sibling resolves as a duplicate.
        for (name, candidate) in tick.hedged {
            let Some(si) = studies.iter().position(|st| st.name == name) else {
                continue;
            };
            let w = hedge_worker(&plan, &server, &worker_ids, profile);
            let result = objective.evaluate(&candidate.decoded, None, candidate.eval_seed)?;
            pending.push(Delivery {
                study: si,
                lease_id: candidate.lease_id,
                result,
                due_round: round,
                worker: w,
            });
        }

        // Workers pick up new candidates, study by study; supervision
        // gates dispatch — a quarantined worker's ask yields no lease.
        for (si, st) in studies.iter().enumerate() {
            if server.is_finished(st.name)? {
                continue;
            }
            for (w, worker_id) in worker_ids.iter().enumerate() {
                let batch = match server.ask_worker(st.name, worker_id, 1, now_s) {
                    Ok(batch) => batch,
                    Err(
                        ServerError::Overloaded { .. }
                        | ServerError::Backpressure { .. }
                        | ServerError::CircuitOpen { .. },
                    ) => {
                        report.overload_refusals += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                for candidate in batch {
                    // Evaluation is pure, so "the worker computes" is just
                    // a function call; chaos decides the delivery's fate.
                    let result =
                        objective.evaluate(&candidate.decoded, None, candidate.eval_seed)?;
                    if plan.drop_tell(si as u64, candidate.lease_id) {
                        report.dropped_tells += 1;
                        server.note_worker_failure(worker_id, now_s);
                        continue;
                    }
                    let mut delay = plan.delay_rounds(si as u64, candidate.lease_id);
                    if profile == ChaosProfile::SlowWorker && plan.slow_worker(w as u64) {
                        delay += plan.slow_delay_rounds(w as u64, candidate.lease_id);
                    }
                    if delay > 0 {
                        report.delayed_tells += 1;
                    }
                    pending.push(Delivery {
                        study: si,
                        lease_id: candidate.lease_id,
                        result,
                        due_round: round + delay,
                        worker: w,
                    });
                    if plan.duplicate_tell(si as u64, candidate.lease_id) {
                        report.duplicated_tells += 1;
                        pending.push(Delivery {
                            study: si,
                            lease_id: candidate.lease_id,
                            result,
                            due_round: round + delay + 1,
                            worker: w,
                        });
                    }
                }
            }
        }

        // Deliver everything due, in a deterministic order.
        pending.sort_by_key(|d| (d.due_round, d.study, d.lease_id));
        let mut rest = Vec::with_capacity(pending.len());
        for delivery in pending {
            if delivery.due_round > round {
                rest.push(delivery);
                continue;
            }
            let name = studies[delivery.study].name;
            let worker_id = &worker_ids[delivery.worker];
            match server.tell(name, delivery.lease_id, &delivery.result) {
                Ok(_) => server.note_worker_success(worker_id, now_s),
                Err(ServerError::Core(Error::LeaseExpired { .. })) => {
                    // Delivered after its deadline passed and the lease
                    // was reclaimed: the typed rejection, state untouched.
                    // The lateness is the worker's — its streak grows.
                    report.expired_tells += 1;
                    server.note_worker_failure(worker_id, now_s);
                }
                Err(e) => return Err(e),
            }
        }
        pending = rest;

        // kill -9 of the whole server, possibly mid-write.
        if plan.crash_after_round(round) {
            report.crashes += 1;
            drop(server);
            pending.clear(); // in-flight results die with the process
            for (si, st) in studies.iter().enumerate() {
                if plan.tear_journal(round, si as u64)
                    && tear_journal_tail(root, st.name, plan.tear_keep_frac(round, si as u64))
                        .map_err(ServerError::Core)?
                {
                    report.torn_journals += 1;
                }
                // Silent media corruption on top of the crash: flip a
                // seeded bit somewhere in the journal body.
                if profile == ChaosProfile::BitRot && plan.rot_journal(round, si as u64) {
                    let (frac, bit) = plan.rot_target(round, si as u64);
                    if rot_journal_body(root, st.name, frac, bit).map_err(ServerError::Core)? {
                        report.rotted_journals += 1;
                    }
                }
                // A crash inside an atomic snapshot write strands a stale
                // temp file; recovery must sweep, never trust, it.
                let (_, snapshot_path) = study_paths(root, st.name);
                std::fs::write(
                    snapshot_path.with_extension("tmp"),
                    "{ \"schema\": \"hyperpower-checkpoint-v1\", torn",
                )
                .ok();
            }
            server = StudyServer::new(config.clone())?;
            for st in &studies {
                match server.open_study(st.name, chaos_setup(st)) {
                    Ok(n) => report.recovered_samples += n,
                    Err(ServerError::Core(Error::Checkpoint(_) | Error::ResumeMismatch(_))) => {
                        // Damage beyond the torn-tail window (bit-rot):
                        // run exactly what an operator would — `fsck
                        // --salvage` — then reopen. Salvage only discards
                        // unverifiable suffixes, and replay reconverges to
                        // the same bytes, so this must succeed.
                        let fsck =
                            crate::fsck::fsck_store(root, true).map_err(ServerError::Core)?;
                        if !fsck.recoverable() {
                            return Err(ServerError::Core(Error::Checkpoint(format!(
                                "fsck could not salvage the store:\n{fsck}"
                            ))));
                        }
                        report.salvaged_studies += 1;
                        report.recovered_samples += server.open_study(st.name, chaos_setup(st))?;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
    report.rounds = round;
    for st in &studies {
        let (issued, superseded) = server.hedge_stats(st.name)?;
        report.hedged_leases += issued;
        report.superseded_leases += superseded;
    }
    let (_, _, quarantined, retired) = server.workers().census();
    report.unhealthy_workers = quarantined + retired;

    // The verdict: every study's bytes against the uninterrupted reference.
    let mut mismatches = Vec::new();
    for st in &studies {
        let actual = encode_trace(&server.trace(st.name)?);
        let expected = encode_trace(&reference_trace(st).map_err(ServerError::Core)?);
        let diffs = diff_text(&expected, &actual);
        if !diffs.is_empty() {
            mismatches.push(TraceMismatch {
                study: st.name.to_string(),
                diffs,
                expected,
                actual,
            });
        }
    }
    Ok(ChaosOutcome { report, mismatches })
}

/// Picks the worker to carry a hedged duplicate: the first eligible
/// worker that is not seeded-slow, falling back to the first eligible,
/// falling back to worker 0 (delivery still races the original).
fn hedge_worker(
    plan: &ChaosPlan,
    server: &StudyServer,
    worker_ids: &[String],
    profile: ChaosProfile,
) -> usize {
    let eligible: Vec<usize> = (0..worker_ids.len())
        .filter(|w| server.workers().eligible(&worker_ids[*w]))
        .collect();
    if profile == ChaosProfile::SlowWorker {
        if let Some(w) = eligible
            .iter()
            .copied()
            .find(|w| !plan.slow_worker(*w as u64))
        {
            return w;
        }
    }
    eligible.first().copied().unwrap_or(0)
}

/// Writes one diff artifact per mismatching study under `dir` (created if
/// needed), returning the paths — the CI chaos matrix uploads these on
/// failure.
///
/// # Errors
///
/// [`Error::Checkpoint`] on I/O failures.
pub fn write_mismatch_artifacts(
    outcome: &ChaosOutcome,
    dir: &Path,
    label: &str,
) -> Result<Vec<PathBuf>, Error> {
    let mut paths = Vec::new();
    if outcome.mismatches.is_empty() {
        return Ok(paths);
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::Checkpoint(format!("creating {}: {e}", dir.display())))?;
    for m in &outcome.mismatches {
        let path = dir.join(format!("{label}-{}.diff", m.study));
        let mut body = String::new();
        body.push_str(&format!("study: {}\n\n== field diffs ==\n", m.study));
        for d in &m.diffs {
            body.push_str(d);
            body.push('\n');
        }
        body.push_str("\n== expected (uninterrupted reference) ==\n");
        body.push_str(&m.expected);
        body.push_str("\n== actual (post-chaos) ==\n");
        body.push_str(&m.actual);
        std::fs::write(&path, body)
            .map_err(|e| Error::Checkpoint(format!("writing {}: {e}", path.display())))?;
        paths.push(path);
    }
    Ok(paths)
}
