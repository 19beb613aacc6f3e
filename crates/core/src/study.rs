//! The ask–tell study state machine: the repo's one optimization loop.
//!
//! [`Study`] is the optimization run as an explicit state machine with no
//! embedded objective call: [`Study::ask`] plans proposals and hands out
//! **leased** candidate batches, the caller evaluates them however it
//! likes (inline, on worker threads, on another machine), and
//! [`Study::tell`] ingests the observations and commits samples to the
//! trace. [`crate::executor`] drives a `Study` for every run, and a
//! serving layer (`hyperpower-server`) hosts many side by side — losing
//! workers, receiving duplicated or reordered tells, and crash-restarting
//! without ever perturbing a single trace byte.
//!
//! # The virtual schedule
//!
//! A study models G simulated training GPUs, each with its own virtual
//! timeline. The earliest free GPU (lowest index on ties) takes the next
//! proposal; the searcher proposes against the committed history with the
//! candidates still in flight as constant-liar pending points
//! ([`Searcher::propose_with_pending`]). When a candidate's result is
//! told, its fault schedule and measurement pass replay on its GPU's
//! timeline, which fixes its completion instant. Samples commit in
//! `(completion time, proposal index)` order, each once no GPU can still
//! finish anything earlier. This module alone holds both ordering rules.
//!
//! Screening, quarantine, the virtual-hours deadline and the rejection
//! valve are all decided at a candidate's **virtual dispatch instant**,
//! against the samples committed by then. A rejection occupies no GPU: it
//! costs one model evaluation on the dispatching GPU's timeline and
//! commits at its end.
//!
//! With G = 1 this is the paper's sequential loop: one timeline, commits
//! in proposal order, and each dispatch instant is the moment the previous
//! candidate commits. There, history-independent searchers without an
//! active drift monitor may plan a block of up to `max` proposals ahead
//! and lease them all at once; each still dispatches only when its
//! predecessor commits, so the trace is byte-identical for every `max`
//! (the executor's worker-count invariance).
//!
//! # Why leases keep the trace exact
//!
//! Evaluation is a pure function of `(decoded, eval_seed)`, and the eval
//! seed is derived from the proposal index alone
//! (`seed × SEED_MIX + query`). So *who* evaluates a candidate, *when* the
//! result arrives, and *how many times* the work is re-issued after a lost
//! worker are all unobservable in the trace. A lease records one issuance
//! of a candidate to a worker, with a deadline on the **caller's scheduler
//! clock** (never the study's virtual trace clock). One private ledger
//! issues every lease, from [`Study::ask`] and [`Study::hedge_overdue`]
//! alike, and makes every change of a lease's state:
//!
//! * expiry ([`Study::reclaim_expired`]) returns the candidate to the pool;
//!   the next [`Study::ask`] re-issues it under a fresh lease with the
//!   attempt count bumped and the deadline grown by the PR 4 retry/backoff
//!   machinery ([`RetryPolicy::backoff_secs`] with a [`seeded_unit`]
//!   jitter draw);
//! * a tell against an expired lease is rejected with the typed
//!   [`Error::LeaseExpired`] and leaves every byte of state untouched;
//! * a duplicate tell (same lease, already ingested) is absorbed as
//!   [`TellOutcome::Duplicate`];
//! * out-of-order tells are buffered on their proposal and commit at its
//!   place in the schedule.
//!
//! # Commit discipline
//!
//! Sensor reads, history updates, quarantine entries and the drift
//! healing of measured candidates happen at commit points only, in commit
//! order, so the trace is a pure function of the committed prefix — the
//! argument DESIGN.md §5a makes. The run ends when nothing is left to
//! train or commit and no GPU may take another proposal; the undispatched
//! tail of a planned block is then discarded unseen (its RNG consumption
//! is unobservable) and its leases are voided as
//! [`TellOutcome::Discarded`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hyperpower_gpu_sim::{seeded_unit, FaultPlan, FaultProfile, Gpu, TrainingCostModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{verify_sample_prefix, CheckpointHeader, CheckpointSink, RunCheckpoint};
use crate::constraints::ConstraintOracle;
use crate::drift::{DriftConfig, DriftMonitor};
use crate::driver::{Budget, Sample, SampleKind, Trace, MAX_CONSECUTIVE_REJECTIONS};
use crate::methods::{make_searcher, Conditioning, History, Searcher};
use crate::objective::EvaluationResult;
use crate::recovery::{plan_trial, RetryPolicy, TrialFailure, TrialOutcome, TrialPlan, LIAR_ERROR};
use crate::space::Decoded;
use crate::{Budgets, Config, EarlyTermination, Error, Method, Mode, Result, SearchSpace, Watts};

/// The multiplier in the per-candidate seed derivation
/// `eval_seed = seed × SEED_MIX + query_index` (golden-ratio mixing
/// constant; the same derivation the sequential driver has always used).
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt for the lease-deadline jitter stream (disjoint from the fault
/// salts `0xFA17_000x` so lease lifecycle can never collide with fault
/// draws — not that either is ever visible in the trace).
const SALT_LEASE: u64 = 0x1EA5_E001;

/// Salt for the hedge-deadline jitter stream: disjoint from
/// [`SALT_LEASE`] so the speculative re-dispatch schedule can never
/// collide with the lease-TTL draws (both are keyed by `(seed, query,
/// attempt)`).
const SALT_HEDGE: u64 = 0x1EA5_E002;

/// Everything that defines a study's run identity and schedule: the exact
/// information [`crate::driver::RunSetup`] carries minus the borrowed
/// evaluation context (space, objective, GPU), which the caller supplies
/// per call so a server can own many studies side by side.
#[derive(Debug, Clone)]
pub struct StudySpec {
    /// Search method.
    pub method: Method,
    /// Enhancement mode.
    pub mode: Mode,
    /// Stop criterion.
    pub budget: Budget,
    /// Run seed (searcher proposals, objective noise, sensor noise order).
    pub seed: u64,
    /// Hardware budgets used to judge feasibility.
    pub budgets: Budgets,
    /// Virtual-time cost model.
    pub cost: TrainingCostModel,
    /// Early-termination policy handed to evaluators; `Some` in
    /// HyperPower mode. The study itself never calls the objective — this
    /// is carried so [`Study::early_termination`] can tell workers what to
    /// run.
    pub early_termination: Option<EarlyTermination>,
    /// Fault-injection profile (semantic knob, part of run identity).
    pub fault_profile: FaultProfile,
    /// Retry/backoff policy applied when faults abort an attempt.
    pub retry: RetryPolicy,
    /// Self-healing configuration.
    pub drift: DriftConfig,
}

/// One candidate issued to a worker under a lease.
#[derive(Debug, Clone)]
pub struct LeasedCandidate {
    /// Unique (per study, monotonically increasing) lease identifier.
    pub lease_id: u64,
    /// Trace slot of the proposal the lease covers.
    pub query: u64,
    /// 1-based issuance count for this candidate (bumped on re-issue
    /// after expiry).
    pub attempt: u32,
    /// The proposed configuration.
    pub config: Config,
    /// Its decoded architecture (what the objective evaluates).
    pub decoded: Decoded,
    /// The evaluation seed — a pure function of `(run seed, query)`, so a
    /// re-issued lease computes the identical result.
    pub eval_seed: u64,
    /// Scheduler-clock deadline: past this instant the lease is eligible
    /// for [`Study::reclaim_expired`]. Never compared against the study's
    /// virtual trace clock.
    pub deadline_s: f64,
}

/// What happened to an observation handed to [`Study::tell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TellOutcome {
    /// The observation was ingested; `committed` samples (this one plus
    /// any unblocked successors, or zero if it is buffered behind an
    /// earlier pending proposal) reached the trace.
    Accepted {
        /// Samples committed by this tell's drain.
        committed: usize,
    },
    /// The lease was already fulfilled — a duplicate delivery, absorbed
    /// without touching any state.
    Duplicate,
    /// The proposal left the schedule without this observation — the run
    /// ended before it was dispatched, or it was quarantined at dispatch —
    /// so the observation is absorbed and discarded.
    Discarded,
}

/// Where a study streams its durable observations: the write-ahead
/// journal hook. [`CheckpointSink`] implements it (the executor's
/// periodic checkpoints), and `hyperpower-server` implements it with an
/// append-only journal. Calls arrive in commit order — `record_eval`
/// immediately before the commit that consumed the evaluation — so a sink
/// sees the same byte stream however the study is driven.
pub trait ObservationSink {
    /// Records one raw objective evaluation, keyed by its eval seed.
    fn record_eval(&mut self, eval_seed: u64, result: &EvaluationResult);

    /// Records one committed sample.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures; the study aborts the commit loop and
    /// surfaces the error to the caller.
    fn record_commit(&mut self, sample: &Sample) -> Result<()>;
}

impl ObservationSink for CheckpointSink {
    fn record_eval(&mut self, eval_seed: u64, result: &EvaluationResult) {
        CheckpointSink::record_eval(self, eval_seed, result);
    }

    fn record_commit(&mut self, sample: &Sample) -> Result<()> {
        CheckpointSink::record_commit(self, sample).map(|_| ())
    }
}

/// A sink that records nothing (for callers without durability).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ObservationSink for NullSink {
    fn record_eval(&mut self, _eval_seed: u64, _result: &EvaluationResult) {}

    fn record_commit(&mut self, _sample: &Sample) -> Result<()> {
        Ok(())
    }
}

/// Lifecycle state of one issued lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaseState {
    /// Issued, awaiting its tell.
    Outstanding,
    /// Its tell was ingested (further tells are duplicates).
    Fulfilled,
    /// Reclaimed after its deadline passed; tells are rejected.
    Expired,
    /// Voided because its proposal left the schedule uncommitted by it;
    /// tells are absorbed.
    Discarded,
}

/// Bookkeeping for one issued lease.
#[derive(Debug, Clone, Copy)]
struct LeaseRecord {
    query: u64,
    state: LeaseState,
    /// Scheduler-clock instant the lease was issued (hedge deadlines are
    /// measured from issuance, not from the run start).
    issued_s: f64,
    deadline_s: f64,
}

/// Every lease a study has issued, and the one place a lease is issued or
/// changes state: first and hedged issuance, fulfilment, expiry and
/// voiding all go through it, so the outstanding count it keeps always
/// equals a scan of its records.
#[derive(Debug)]
struct LeaseLedger {
    records: BTreeMap<u64, LeaseRecord>,
    /// Outstanding records, so [`Study::outstanding_leases`] scans nothing.
    outstanding: usize,
    next_id: u64,
    /// The deadline policy: `backoff_secs(attempt, jitter)` is the TTL of
    /// issuance `attempt`.
    policy: RetryPolicy,
    /// The run seed, which keys the lease and hedge jitter streams.
    seed: u64,
}

/// What one simulated GPU is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    /// Takes the next proposal at its timeline's current instant.
    Free,
    /// Training a dispatched candidate until that candidate commits.
    Busy,
    /// Past the virtual-hours deadline: takes nothing more.
    Blocked,
}

/// One simulated GPU: its virtual timeline and what it is doing.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// The timeline's current instant, in virtual seconds.
    now_s: f64,
    state: LaneState,
}

impl Lane {
    /// A free GPU at time zero.
    const IDLE: Lane = Lane {
        now_s: 0.0,
        state: LaneState::Free,
    };

    /// Advances the timeline by `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or non-finite, so every completion
    /// instant stays finite and the commit order total.
    fn advance_secs(&mut self, dt_s: f64) {
        assert!(
            dt_s.is_finite() && dt_s >= 0.0,
            "cannot advance clock by {dt_s}"
        );
        self.now_s += dt_s;
    }
}

/// Where a proposal stands on the virtual schedule.
#[derive(Debug)]
enum Stage {
    /// Planned ahead of its dispatch (a block of history-independent
    /// proposals at one GPU).
    Planned,
    /// Training on this GPU; it finishes once its result is told.
    Running(usize),
    /// Finished at virtual instant `time_s`; it commits in `(time_s,
    /// query)` order.
    Done { time_s: f64, verdict: Verdict },
}

/// What a finished proposal commits.
#[derive(Debug)]
enum Verdict {
    /// Screened out or quarantined at dispatch.
    Rejected {
        power_w: f64,
        /// `Some(Quarantined)` for circuit-breaker rejections.
        failure: Option<TrialFailure>,
        drift_events: Vec<crate::drift::DriftEvent>,
    },
    /// Trained on `lane`, through the replayed fault schedule `trial`;
    /// the sensors are read at commit.
    Trained {
        lane: usize,
        result: EvaluationResult,
        trial: TrialPlan,
        glitched: bool,
    },
}

/// One proposal, from planning until it commits.
#[derive(Debug)]
struct Planned {
    config: Config,
    decoded: Decoded,
    /// Predicted infeasible by the screening oracle: never leased.
    screened: bool,
    query: u64,
    eval_seed: u64,
    degradations: Vec<crate::drift::DegradationEvent>,
    /// The observation, once told (buffered until the schedule reaches
    /// it).
    result: Option<EvaluationResult>,
    /// Every currently outstanding lease on this item. More than one only
    /// while a hedged duplicate is in flight; the first fulfilment wins
    /// and supersedes the rest.
    leases: Vec<u64>,
    /// Leases issued for this item so far.
    attempt: u32,
    /// Speculative (hedged) duplicate leases issued for this item.
    hedged: u32,
    /// Leases on this item reclaimed (deadline expiry or shedding) before
    /// a worker delivered.
    reclaimed: u32,
    stage: Stage,
}

impl Planned {
    /// Whether a worker still owes this proposal an evaluation.
    fn awaits_result(&self) -> bool {
        !self.screened && self.result.is_none() && !matches!(self.stage, Stage::Done { .. })
    }

    /// Dispatched for training and not yet committed: a pending point for
    /// the next proposal.
    fn in_flight(&self) -> bool {
        matches!(self.stage, Stage::Running(_)) || self.trained()
    }

    /// Trained and finished, awaiting its commit.
    fn trained(&self) -> bool {
        matches!(
            self.stage,
            Stage::Done {
                verdict: Verdict::Trained { .. },
                ..
            }
        )
    }
}

impl LeaseLedger {
    /// Issues a fresh lease on `item` at scheduler instant `now_s`: the
    /// attempt count is bumped and the deadline drawn from the policy's
    /// backoff curve on the lease jitter stream.
    fn issue(&mut self, item: &mut Planned, now_s: f64) -> LeasedCandidate {
        item.attempt += 1;
        let lease_id = self.next_id;
        self.next_id += 1;
        let jitter = seeded_unit(self.seed, SALT_LEASE, item.query, u64::from(item.attempt));
        let deadline_s = now_s + self.policy.backoff_secs(item.attempt, jitter);
        let record = LeaseRecord {
            query: item.query,
            state: LeaseState::Outstanding,
            issued_s: now_s,
            deadline_s,
        };
        self.records.insert(lease_id, record);
        self.outstanding += 1;
        item.leases.push(lease_id);
        LeasedCandidate {
            lease_id,
            query: item.query,
            attempt: item.attempt,
            config: item.config.clone(),
            decoded: item.decoded.clone(),
            eval_seed: item.eval_seed,
            deadline_s,
        }
    }

    /// Whether `item`'s sole outstanding lease has outlived its hedge
    /// deadline: the policy's backoff curve on the `hedge_after_s` base and
    /// the hedge jitter stream, measured from issuance.
    fn hedge_due(&self, item: &Planned, now_s: f64, hedge_after_s: f64) -> bool {
        let sole = match item.leases[..] {
            [lease_id] => self.records.get(&lease_id),
            _ => None,
        };
        let Some(record) = sole.filter(|r| r.state == LeaseState::Outstanding) else {
            return false;
        };
        let hedge = RetryPolicy {
            backoff_base_s: hedge_after_s,
            ..self.policy
        };
        let jitter = seeded_unit(self.seed, SALT_HEDGE, item.query, u64::from(item.attempt));
        now_s - record.issued_s > hedge.backoff_secs(item.attempt, jitter)
    }

    /// Fulfils the siblings of fulfilled lease `lease_id` on its proposal's
    /// `leases` (hedged duplicates, whose tells are then absorbed as
    /// duplicates). Returns how many were still in flight.
    fn supersede(&mut self, lease_id: u64, leases: &mut Vec<u64>) -> u64 {
        let outstanding = self.outstanding;
        for sibling in leases.drain(..).filter(|&id| id != lease_id) {
            self.settle(sibling, LeaseState::Fulfilled);
        }
        (outstanding - self.outstanding) as u64
    }

    /// Expires every lease of the queued proposals whose deadline `now_s`
    /// has passed, returning its candidate to the pool; counts them.
    fn expire(&mut self, queue: &mut VecDeque<Planned>, now_s: f64) -> usize {
        let outstanding = self.outstanding;
        for item in queue {
            item.leases.retain(|&lease_id| {
                let due = matches!(self.records.get(&lease_id),
                    Some(r) if r.state == LeaseState::Outstanding && r.deadline_s < now_s);
                if due {
                    self.settle(lease_id, LeaseState::Expired);
                    item.reclaimed = item.reclaimed.saturating_add(1);
                }
                !due
            });
        }
        outstanding - self.outstanding
    }

    /// Voids `leases`: their proposal left the schedule uncommitted by
    /// them, so late tells are absorbed, not rejected.
    fn void(&mut self, leases: &mut Vec<u64>) {
        for lease_id in leases.drain(..) {
            self.settle(lease_id, LeaseState::Discarded);
        }
    }

    /// Moves lease `lease_id` to `state` if it is outstanding (a settled
    /// lease never changes again), returning its record as it was.
    fn settle(&mut self, lease_id: u64, state: LeaseState) -> Option<LeaseRecord> {
        let record = self.records.get_mut(&lease_id)?;
        let was = *record;
        if was.state == LeaseState::Outstanding {
            record.state = state;
            self.outstanding -= 1;
        }
        Some(was)
    }
}

/// The quarantine key of a configuration: its unit-cube coordinates by
/// exact bit pattern (the study re-proposes bit-identical configs, so no
/// tolerance is wanted).
fn config_key(config: &Config) -> Vec<u64> {
    config.unit().iter().map(|u| u.to_bits()).collect()
}

/// Predicted memory pressure of a candidate: the noise-free memory
/// analysis as a fraction of device capacity. Consumes no RNG — fault
/// decisions must never perturb the sensor stream.
fn memory_pressure_frac(gpu: &Gpu, decoded: &Decoded) -> f64 {
    let predicted_mib = gpu.analyze(&decoded.arch).memory.get();
    let capacity_mib = gpu.device().memory_capacity_gib * 1024.0;
    predicted_mib / capacity_mib
}

/// Selects the rejection-screening oracle: model-free methods in
/// HyperPower mode screen; BO methods carry the constraints inside their
/// acquisition instead (paper §3.4–3.5).
fn screening_oracle(
    mode: Mode,
    method: Method,
    oracle: Option<&ConstraintOracle>,
) -> Option<&ConstraintOracle> {
    match (mode, oracle) {
        (Mode::HyperPower, Some(oracle)) if method.is_model_free() => Some(oracle),
        _ => None,
    }
}

/// The self-healing outcome of one measured commit, ready to attach to
/// its [`Sample`].
struct CommitHealing {
    drift_events: Vec<crate::drift::DriftEvent>,
    drift_rmspe: Option<f64>,
    /// Penalize this observation as a liar (a measured violation of a
    /// predicted-feasible candidate while safety margins are on).
    liar: bool,
}

impl CommitHealing {
    fn inert() -> Self {
        CommitHealing {
            drift_events: Vec::new(),
            drift_rmspe: None,
            liar: false,
        }
    }
}

/// Feeds one measured commit through the drift monitor (when active) and
/// applies the outcome: on any model/margin change the live oracle is
/// rebuilt and the searcher notified. Runs at commit points only, so the
/// whole self-healing state is a pure function of the committed prefix.
#[allow(clippy::too_many_arguments)]
fn heal_on_commit(
    monitor: Option<&mut DriftMonitor>,
    live_oracle: &mut Option<ConstraintOracle>,
    searcher: &mut dyn Searcher,
    safety_margin: f64,
    structural: &[f64],
    power: Watts,
    memory: Option<crate::Mebibytes>,
    latency: crate::Seconds,
    feasible: bool,
) -> CommitHealing {
    let Some(monitor) = monitor else {
        return CommitHealing::inert();
    };
    let predicted_ok = live_oracle
        .as_ref()
        .is_some_and(|o| o.predicted_feasible(structural));
    let violation = predicted_ok && !feasible;
    let obs = monitor.observe_commit(structural, power, memory, Some(latency), violation);
    if obs.oracle_changed {
        let oracle = monitor.oracle();
        searcher.update_oracle(&oracle);
        *live_oracle = Some(oracle);
    }
    CommitHealing {
        drift_events: obs.events,
        drift_rmspe: obs.drift_rmspe,
        liar: violation && safety_margin > 0.0,
    }
}

/// Feeds one screening rejection through the drift monitor's starvation
/// valve (when active): a long unbroken run of rejections under an active
/// margin relaxes it one step, and the live oracle is swapped so the very
/// next screening decision sees the widened region.
fn heal_on_rejection(
    monitor: Option<&mut DriftMonitor>,
    live_oracle: &mut Option<ConstraintOracle>,
    searcher: &mut dyn Searcher,
) -> Vec<crate::drift::DriftEvent> {
    let Some(monitor) = monitor else {
        return Vec::new();
    };
    let obs = monitor.observe_rejection();
    if obs.oracle_changed {
        let oracle = monitor.oracle();
        searcher.update_oracle(&oracle);
        *live_oracle = Some(oracle);
    }
    obs.events
}

/// One hyper-parameter study as an explicit ask–tell state machine. See
/// the module docs for the protocol and its exactness argument.
pub struct Study {
    spec: StudySpec,
    plan: FaultPlan,
    searcher: Box<dyn Searcher>,
    rng: StdRng,
    /// One record per simulated GPU.
    lanes: Vec<Lane>,
    history: History,
    samples: Vec<Sample>,
    evaluations: usize,
    consecutive_rejections: usize,
    quarantine: BTreeSet<Vec<u64>>,
    screen_active: bool,
    live_oracle: Option<ConstraintOracle>,
    monitor: Option<DriftMonitor>,
    /// Every proposal not yet committed, in proposal order.
    queue: VecDeque<Planned>,
    ledger: LeaseLedger,
    finished: bool,
    hedges_issued: u64,
    hedges_superseded: u64,
}

// Manual impl: `searcher` is a trait object, so only its presence is
// reported.
impl std::fmt::Debug for Study {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Study")
            .field("spec", &self.spec)
            .field("gpus", &self.lanes.len())
            .field("committed", &self.samples.len())
            .field("evaluations", &self.evaluations)
            .field("pending", &self.queue.len())
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl Study {
    /// Creates a study from its spec, the profiling-time constraint oracle
    /// (cloned; `Some` in HyperPower mode) and an optional custom searcher.
    /// It models one simulated GPU.
    pub fn new(
        spec: StudySpec,
        oracle: Option<&ConstraintOracle>,
        searcher_override: Option<Box<dyn Searcher>>,
    ) -> Self {
        let searcher = searcher_override
            .unwrap_or_else(|| make_searcher(spec.method, spec.mode, oracle.cloned()));
        let screen_active = screening_oracle(spec.mode, spec.method, oracle).is_some();
        let live_oracle = oracle.cloned();
        let monitor = if spec.drift.is_inert() {
            None
        } else {
            oracle.map(|o| DriftMonitor::new(o.models().clone(), o.budgets(), spec.drift))
        };
        let plan = FaultPlan::new(spec.fault_profile.clone(), spec.seed);
        let rng = StdRng::seed_from_u64(spec.seed);
        let ledger = LeaseLedger {
            records: BTreeMap::new(),
            outstanding: 0,
            next_id: 0,
            // Lease deadlines reuse the retry/backoff machinery: deadline
            // growth per re-issue is exponential with seeded jitter. The
            // defaults give generous first deadlines; servers override via
            // `with_lease_policy`. Execution-only: never part of the trace.
            policy: RetryPolicy {
                max_retries: 0,
                backoff_base_s: 600.0,
                backoff_factor: 2.0,
                backoff_jitter_frac: 0.5,
            },
            seed: spec.seed,
        };
        Study {
            spec,
            plan,
            searcher,
            rng,
            lanes: vec![Lane::IDLE],
            history: History::new(),
            samples: Vec::new(),
            evaluations: 0,
            consecutive_rejections: 0,
            quarantine: BTreeSet::new(),
            screen_active,
            live_oracle,
            monitor,
            queue: VecDeque::new(),
            ledger,
            finished: false,
            hedges_issued: 0,
            hedges_superseded: 0,
        }
    }

    /// Models `gpus` simulated training GPUs (0 is treated as 1). A
    /// semantic knob: it changes the schedule and so the trace. Call
    /// before the first [`Study::ask`].
    pub(crate) fn with_simulated_gpus(mut self, gpus: usize) -> Self {
        self.lanes = vec![Lane::IDLE; gpus.max(1)];
        self
    }

    /// Replaces the lease-deadline policy (builder style). The policy's
    /// `backoff_secs(attempt, jitter)` gives the lease TTL for issuance
    /// `attempt`; `max_retries` is unused (re-issue is unbounded — the
    /// evaluation is pure, so it eventually lands). Trace-neutral.
    pub fn with_lease_policy(mut self, policy: RetryPolicy) -> Self {
        self.ledger.policy = policy;
        self
    }

    /// The study's defining spec.
    pub fn spec(&self) -> &StudySpec {
        &self.spec
    }

    /// The run identity this study commits under: the header its
    /// checkpoints and journal records carry, with the virtual schedule
    /// width taken from its simulated GPUs.
    pub fn identity(&self) -> CheckpointHeader {
        CheckpointHeader {
            seed: self.spec.seed,
            method: self.spec.method.to_string(),
            mode: self.spec.mode.to_string(),
            budget: self.spec.budget,
            simulated_gpus: self.lanes.len(),
            fault_profile: self.spec.fault_profile.name.clone(),
            max_retries: self.spec.retry.max_retries,
            recalibrate: self.spec.drift.recalibrate,
            drift_threshold: self.spec.drift.drift_threshold,
            safety_margin: self.spec.drift.safety_margin,
        }
    }

    /// The early-termination policy evaluators should run under.
    pub fn early_termination(&self) -> Option<EarlyTermination> {
        self.spec.early_termination
    }

    /// Whether the run is over: nothing is left to train or commit and no
    /// simulated GPU may take another proposal (budget spent, deadline
    /// passed, or rejection valve tripped).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Committed samples so far.
    pub fn committed(&self) -> usize {
        self.samples.len()
    }

    /// Function evaluations consumed so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Outstanding (issued, unfulfilled, unexpired) leases.
    pub fn outstanding_leases(&self) -> usize {
        self.ledger.outstanding
    }

    /// The trace committed so far, as a snapshot (the run may continue).
    pub fn trace(&self) -> Trace {
        Trace {
            method: self.spec.method,
            mode: self.spec.mode,
            budgets: self.spec.budgets,
            samples: self.samples.clone(),
            total_time_s: self.latest_secs(),
        }
    }

    /// Consumes the study and returns its final trace.
    pub fn into_trace(self) -> Trace {
        let total_time_s = self.latest_secs();
        Trace {
            method: self.spec.method,
            mode: self.spec.mode,
            budgets: self.spec.budgets,
            samples: self.samples,
            total_time_s,
        }
    }

    /// The latest GPU timeline: the run's elapsed virtual time once every
    /// GPU has drained.
    fn latest_secs(&self) -> f64 {
        self.lanes.iter().map(|l| l.now_s).fold(0.0, f64::max)
    }

    /// Runs the schedule forward, planning proposals as needed, and
    /// returns up to `max` leased candidates awaiting evaluation, stamping
    /// deadlines relative to the caller's scheduler clock `now_s`. Returns
    /// an empty batch when the run is finished, or when every candidate
    /// awaiting evaluation is already out on an unexpired lease.
    ///
    /// Only history-independent searchers without an active drift monitor
    /// plan more than one proposal ahead, so the trace stays
    /// byte-identical for every `max` (the executor's worker-count
    /// invariance, restated).
    ///
    /// # Errors
    ///
    /// Propagates proposal/decoding errors and sink I/O failures from the
    /// commits the schedule reaches.
    pub fn ask<S: ObservationSink>(
        &mut self,
        space: &SearchSpace,
        gpu: &mut Gpu,
        max: usize,
        now_s: f64,
        sink: Option<&mut S>,
    ) -> Result<Vec<LeasedCandidate>> {
        // A finished run has an empty queue, so it leases nothing.
        self.advance(Some(space), max, gpu, sink)?;
        let cap = max.max(1);
        let mut out = Vec::new();
        for item in &mut self.queue {
            if out.len() == cap {
                break;
            }
            if item.awaits_result() && item.leases.is_empty() {
                out.push(self.ledger.issue(item, now_s));
            }
        }
        Ok(out)
    }

    /// Ingests one observation for `lease_id` and commits every proposal
    /// the arrival lets the schedule reach.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLease`] for a lease this study never issued;
    /// [`Error::LeaseExpired`] for a reclaimed lease (state untouched);
    /// sink I/O failures from the commits.
    pub fn tell<S: ObservationSink>(
        &mut self,
        gpu: &mut Gpu,
        lease_id: u64,
        result: &EvaluationResult,
        sink: Option<&mut S>,
    ) -> Result<TellOutcome> {
        // The tell fulfils an outstanding lease; any other settles by its
        // state.
        let Some(record) = self.ledger.settle(lease_id, LeaseState::Fulfilled) else {
            return Err(Error::UnknownLease { lease_id });
        };
        match record.state {
            LeaseState::Expired => {
                return Err(Error::LeaseExpired {
                    lease_id,
                    query: record.query,
                })
            }
            LeaseState::Fulfilled => return Ok(TellOutcome::Duplicate),
            LeaseState::Discarded => return Ok(TellOutcome::Discarded),
            LeaseState::Outstanding => {}
        }
        let Some(at) = self.queue.iter().position(|i| i.query == record.query) else {
            // An outstanding lease always has its item queued: leases are
            // voided whenever their item leaves the queue uncommitted.
            unreachable!("outstanding lease without a queued item");
        };
        let item = &mut self.queue[at];
        item.result = Some(*result);
        // First fulfilment wins: hedged siblings still in flight are
        // superseded.
        self.hedges_superseded += self.ledger.supersede(lease_id, &mut item.leases);
        self.finish_training(at, gpu);
        let before = self.samples.len();
        self.advance(None, 1, gpu, sink)?;
        Ok(TellOutcome::Accepted {
            committed: self.samples.len() - before,
        })
    }

    /// Replays a recorded run back to its committed state: every resume,
    /// a checkpointed run's and a journaled study's alike, goes through
    /// here. Width-1 asks are answered from `recorded`'s evaluations, and
    /// `evaluate` runs only on a miss: a candidate that was still in
    /// flight when the record was written, which only a schedule of
    /// several GPUs leaves behind. Every commit streams to `sink`. Once
    /// the schedule has committed as many samples as the record holds,
    /// the recomputed samples are compared with the recorded ones bit for
    /// bit. A run of screening rejections commits in one ask, so the
    /// replay may commit past the record; the excess is fresh progress.
    ///
    /// # Errors
    ///
    /// Whatever `evaluate` returns, the study's own [`Study::ask`] and
    /// [`Study::tell`] errors, and [`Error::ResumeMismatch`] when a
    /// recomputed sample differs from its record (each differing field
    /// named) or the run ends short of the record.
    pub fn replay<S: ObservationSink>(
        &mut self,
        space: &SearchSpace,
        gpu: &mut Gpu,
        recorded: &RunCheckpoint,
        mut sink: Option<&mut S>,
        mut evaluate: impl FnMut(&LeasedCandidate) -> Result<EvaluationResult>,
    ) -> Result<()> {
        while self.samples.len() < recorded.samples.len() {
            let batch = self.ask(space, gpu, 1, 0.0, sink.as_deref_mut())?;
            let Some(candidate) = batch.first() else {
                break;
            };
            let result = match recorded.evals.get(&candidate.eval_seed) {
                Some(result) => *result,
                None => evaluate(candidate)?,
            };
            self.tell(gpu, candidate.lease_id, &result, sink.as_deref_mut())?;
        }
        verify_sample_prefix(&recorded.samples, &self.samples)
    }

    /// Reclaims every outstanding lease whose deadline has passed on the
    /// caller's scheduler clock, returning how many were reclaimed. The
    /// candidates return to the pool and the next [`Study::ask`] re-issues
    /// them (attempt bumped, deadline grown). Trace-neutral by
    /// construction: reclamation touches lease bookkeeping only.
    pub fn reclaim_expired(&mut self, now_s: f64) -> usize {
        self.ledger.expire(&mut self.queue, now_s)
    }

    /// Issues a speculative duplicate lease for every proposal whose single
    /// outstanding lease has outlived its seeded *hedge deadline* — the
    /// lease-policy backoff curve on the `hedge_after_s` base and a
    /// hedge-salted jitter stream, measured from issuance — and returns the
    /// duplicates for dispatch to another worker. The first fulfilment
    /// commits at the single commit point; the loser resolves as
    /// [`TellOutcome::Duplicate`]. Hedging never stacks: an item with a
    /// hedge already in flight is left alone until a tell or an expiry
    /// thins its leases.
    ///
    /// Trace-neutral by construction: the duplicate carries the same
    /// `eval_seed` (fixed at planning time), so whichever lease wins
    /// delivers bit-identical bytes.
    pub fn hedge_overdue(&mut self, now_s: f64, hedge_after_s: f64) -> Vec<LeasedCandidate> {
        let mut out = Vec::new();
        for item in &mut self.queue {
            // An outstanding lease means its proposal awaits a result.
            if self.ledger.hedge_due(item, now_s, hedge_after_s) {
                out.push(self.ledger.issue(item, now_s));
                item.hedged = item.hedged.saturating_add(1);
            }
        }
        self.hedges_issued += out.len() as u64;
        out
    }

    /// Speculative (hedged) duplicate leases issued over the study's
    /// lifetime.
    pub fn hedges_issued(&self) -> u64 {
        self.hedges_issued
    }

    /// Hedged leases superseded by a sibling's earlier fulfilment (the
    /// race's losers, eventually absorbed as duplicates).
    pub fn hedges_superseded(&self) -> u64 {
        self.hedges_superseded
    }

    /// Reclaims every outstanding lease regardless of deadline (the
    /// server's shed-lowest-priority backpressure valve). Trace-neutral,
    /// like deadline expiry.
    pub fn reclaim_all(&mut self) -> usize {
        self.reclaim_expired(f64::INFINITY)
    }

    /// Runs the schedule forward as far as it can go: commits every
    /// finished proposal no GPU can undercut, and dispatches proposals
    /// onto free GPUs — planning new ones only when `space` is given
    /// (inside [`Study::ask`]). Ends the run once nothing is left to train
    /// or commit and no GPU may take another proposal.
    fn advance<S: ObservationSink>(
        &mut self,
        space: Option<&SearchSpace>,
        max: usize,
        gpu: &mut Gpu,
        mut sink: Option<&mut S>,
    ) -> Result<()> {
        while !self.finished {
            if !self.commit_next(gpu, sink.as_deref_mut())?
                && !self.dispatch_next(space, max, gpu)?
            {
                break;
            }
        }
        let idle = self.next_done().is_none() && self.busy_lanes() == 0;
        if idle && !(self.may_dispatch() && self.earliest_free_lane().is_some()) {
            self.finish();
        }
        Ok(())
    }

    /// Ends the run: the undispatched tail of a planned block is discarded
    /// unseen and its leases are voided so late tells are absorbed, not
    /// rejected.
    fn finish(&mut self) {
        self.finished = true;
        for item in &mut self.queue {
            self.ledger.void(&mut item.leases);
        }
        self.queue.clear();
    }

    /// Whether a free GPU may take another proposal: the rejection valve
    /// has not tripped and, under an evaluation budget, dispatched
    /// trainings leave room.
    fn may_dispatch(&self) -> bool {
        if self.consecutive_rejections >= MAX_CONSECUTIVE_REJECTIONS {
            return false;
        }
        match self.spec.budget {
            Budget::Evaluations(n) => self.evaluations + self.busy_lanes() < n,
            Budget::VirtualHours(_) => true,
        }
    }

    fn busy_lanes(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.state == LaneState::Busy)
            .count()
    }

    /// The free GPU whose timeline is earliest, lowest index on ties. Free
    /// GPUs at one instant are interchangeable, so the tie-break only
    /// names the lane and never reaches the trace.
    fn earliest_free_lane(&self) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state == LaneState::Free)
            .min_by(|(_, a), (_, b)| a.now_s.total_cmp(&b.now_s))
            .map(|(w, _)| w)
    }

    /// The finished proposal that commits next, as its queue position and
    /// completion instant: the earliest instant, and on ties the lowest
    /// proposal index, which is the queue's order.
    fn next_done(&self) -> Option<(usize, f64)> {
        self.queue
            .iter()
            .enumerate()
            .filter_map(|(at, i)| match i.stage {
                Stage::Done { time_s, .. } => Some((at, time_s)),
                _ => None,
            })
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
    }

    /// Dispatches the next proposal onto the earliest free GPU, planning a
    /// block first when none is waiting and `space` allows it. Returns
    /// whether the schedule moved (a GPU past the deadline blocking counts).
    fn dispatch_next(
        &mut self,
        space: Option<&SearchSpace>,
        max: usize,
        gpu: &Gpu,
    ) -> Result<bool> {
        if !self.may_dispatch() {
            return Ok(false);
        }
        let Some(w) = self.earliest_free_lane() else {
            return Ok(false);
        };
        if let Budget::VirtualHours(h) = self.spec.budget {
            // Paper rule: the last sample queried before the deadline
            // completes; this GPU queries nothing further.
            if self.lanes[w].now_s / 3600.0 >= h {
                self.lanes[w].state = LaneState::Blocked;
                return Ok(true);
            }
        }
        let at = match self
            .queue
            .iter()
            .position(|i| matches!(i.stage, Stage::Planned))
        {
            Some(at) => at,
            None => match space {
                Some(space) => {
                    let at = self.queue.len();
                    self.plan_block(space, max)?;
                    at
                }
                None => return Ok(false),
            },
        };
        let item = &mut self.queue[at];
        let rejection = if item.screened {
            let Some(oracle) = self.live_oracle.as_ref() else {
                // Only a live screening oracle marks proposals screened.
                unreachable!("screened proposal without a screening oracle");
            };
            let power_w = oracle
                .models()
                .predict_power(&item.decoded.structural)
                .get();
            let drift_events = heal_on_rejection(
                self.monitor.as_mut(),
                &mut self.live_oracle,
                self.searcher.as_mut(),
            );
            Some(Verdict::Rejected {
                power_w,
                failure: None,
                drift_events,
            })
        } else if self.quarantine.contains(&config_key(&item.config)) {
            // Circuit breaker: this config already failed terminally.
            // Reject at model-eval cost using the noise-free analysis (no
            // sensor RNG), dropping any told result.
            Some(Verdict::Rejected {
                power_w: gpu.analyze(&item.decoded.arch).power.get(),
                failure: Some(TrialFailure::Quarantined),
                drift_events: Vec::new(),
            })
        } else {
            None
        };
        let lane = &mut self.lanes[w];
        match rejection {
            Some(verdict) => {
                lane.advance_secs(self.spec.cost.model_eval_s);
                self.ledger.void(&mut item.leases);
                item.stage = Stage::Done {
                    time_s: lane.now_s,
                    verdict,
                };
                self.consecutive_rejections += 1;
            }
            None => {
                if self.screen_active {
                    // Feasibility checks on surviving candidates are
                    // billed too.
                    lane.advance_secs(self.spec.cost.model_eval_s);
                }
                self.consecutive_rejections = 0;
                lane.state = LaneState::Busy;
                item.stage = Stage::Running(w);
                self.finish_training(at, gpu);
            }
        }
        Ok(true)
    }

    /// Plans one block of proposals: the searcher proposes with the
    /// in-flight candidates as pending points, degradations are drained,
    /// the space decodes, and the screening oracle (when active) marks
    /// predicted-infeasible candidates. Proposals never run past the
    /// evaluation budget (screened ones occupy no evaluation slot, so the
    /// block can only undershoot, never overshoot).
    fn plan_block(&mut self, space: &SearchSpace, max: usize) -> Result<()> {
        // Dependent searchers must see each result before the next
        // proposal: their lookahead is 1. An active drift monitor also
        // forces lookahead 1: a commit may swap the screening oracle, so
        // planning a wider block would make screening decisions depend on
        // the batch width. With several GPUs the candidates in flight
        // already fill the batch, so each GPU proposes when it frees.
        let lookahead = if max > 1
            && self.lanes.len() == 1
            && self.searcher.conditioning() == Conditioning::Independent
            && self.monitor.is_none()
        {
            max
        } else {
            1
        };
        let room = match self.spec.budget {
            Budget::Evaluations(n) => n.saturating_sub(self.evaluations + self.busy_lanes()),
            Budget::VirtualHours(_) => lookahead,
        };
        let block = lookahead.min(room).max(1);
        let pending: Vec<Config> = self
            .queue
            .iter()
            .filter(|i| i.in_flight())
            .map(|i| i.config.clone())
            .collect();
        let base_slot = (self.samples.len() + self.queue.len()) as u64;
        for offset in 0..block as u64 {
            let config = self.searcher.propose_with_pending(
                space,
                &self.history,
                &pending,
                &mut self.rng,
            )?;
            let degradations = self.searcher.drain_degradations();
            let decoded = space.decode(&config)?;
            let screened = match (self.screen_active, self.live_oracle.as_ref()) {
                (true, Some(oracle)) => !oracle.predicted_feasible(&decoded.structural),
                _ => false,
            };
            // Every proposal commits exactly one sample, and its
            // evaluation seed is derived from its proposal index.
            let query = base_slot + offset;
            let eval_seed = self.spec.seed.wrapping_mul(SEED_MIX).wrapping_add(query);
            self.queue.push_back(Planned {
                config,
                decoded,
                screened,
                query,
                eval_seed,
                degradations,
                result: None,
                leases: Vec::new(),
                attempt: 0,
                hedged: 0,
                reclaimed: 0,
                stage: Stage::Planned,
            });
        }
        Ok(())
    }

    /// Finishes the training of the candidate at `at` once it is both
    /// dispatched and told: its seeded fault schedule (retries, backoff)
    /// and measurement pass replay on its GPU's timeline, fixing the
    /// completion instant that keys its commit.
    fn finish_training(&mut self, at: usize, gpu: &Gpu) {
        let Some(item) = self.queue.get_mut(at) else {
            return;
        };
        let (Stage::Running(w), Some(result)) = (&item.stage, item.result) else {
            return;
        };
        let w = *w;
        let lane = &mut self.lanes[w];
        let pressure_frac = memory_pressure_frac(gpu, &item.decoded);
        let trial = plan_trial(
            &self.plan,
            &self.spec.retry,
            item.query,
            &result,
            pressure_frac,
        );
        lane.advance_secs(trial.charged_secs);
        let mut glitched = false;
        if let TrialOutcome::Completed { .. } = trial.outcome {
            glitched = self.plan.sensor_glitch(item.query);
            lane.advance_secs(self.spec.cost.measurement_s);
            if glitched {
                // The repeated measurement pass after a sensor glitch.
                lane.advance_secs(self.spec.cost.measurement_s);
            }
        }
        item.stage = Stage::Done {
            time_s: lane.now_s,
            verdict: Verdict::Trained {
                lane: w,
                result,
                trial,
                glitched,
            },
        };
    }

    /// Whether the finished proposal ending at `time_s` may commit. Every
    /// dispatched candidate trains before the next commit, so nothing
    /// commits while one still awaits its result. A free GPU dispatches at
    /// its timeline's instant, before any trained commit at or after it
    /// (the proposal must not see that result); a rejection at or before
    /// the instant goes first, since later proposals carry larger indices.
    fn may_commit(&self, time_s: f64, trained: bool) -> bool {
        if self
            .queue
            .iter()
            .any(|i| matches!(i.stage, Stage::Running(_)))
        {
            return false;
        }
        !self.may_dispatch()
            || self
                .lanes
                .iter()
                .all(|lane| lane.state != LaneState::Free || (!trained && time_s <= lane.now_s))
    }

    /// The single commit point: commits the earliest finished proposal if
    /// no GPU can undercut it, returning whether it did. Screening and
    /// quarantine rejections commit their dispatch verdict; a trained
    /// candidate's sensors are read now, on the shared stream in commit
    /// order, and its observation enters the history (a terminal failure
    /// as a worst-case liar, quarantining its config).
    fn commit_next<S: ObservationSink>(
        &mut self,
        gpu: &mut Gpu,
        mut sink: Option<&mut S>,
    ) -> Result<bool> {
        let Some((at, time_s)) = self.next_done() else {
            return Ok(false);
        };
        let trained = self.queue.get(at).is_some_and(Planned::trained);
        if !self.may_commit(time_s, trained) {
            return Ok(false);
        }
        let Some(Planned {
            config,
            decoded,
            eval_seed,
            degradations,
            hedged,
            reclaimed,
            stage: Stage::Done { verdict, .. },
            ..
        }) = self.queue.remove(at)
        else {
            // `next_done` names a finished queued proposal. analyze::allow(R15)
            unreachable!("finished proposal missing from the schedule");
        };
        let mut sample = Sample {
            index: self.samples.len(),
            timestamp_s: time_s,
            kind: SampleKind::Rejected,
            error: None,
            power_w: 0.0,
            memory_bytes: None,
            latency_s: None,
            feasible: false,
            retries: 0,
            faults: Vec::new(),
            failure: None,
            drift_events: Vec::new(),
            degradations,
            drift_rmspe: None,
            hedged,
            reclaimed,
            config,
        };
        match verdict {
            Verdict::Rejected {
                power_w,
                failure,
                drift_events,
            } => {
                sample.power_w = power_w;
                sample.failure = failure;
                sample.drift_events = drift_events;
            }
            Verdict::Trained {
                lane,
                result,
                trial,
                glitched,
            } => {
                if let Some(l) = self.lanes.get_mut(lane) {
                    l.state = LaneState::Free;
                }
                if let Some(s) = sink.as_deref_mut() {
                    s.record_eval(eval_seed, &result);
                }
                self.evaluations += 1;
                sample.retries = trial.attempts - 1;
                sample.faults = trial.faults;
                match trial.outcome {
                    TrialOutcome::Completed { secondary } => {
                        if glitched {
                            // Transient sensor glitch: the first power
                            // reading is garbage — discard it (consuming
                            // the draw).
                            let _ = gpu.measure_power(&decoded.arch);
                            sample.faults.push(TrialFailure::SensorGlitch);
                        }
                        let raw_power = gpu.measure_power(&decoded.arch);
                        let memory = gpu.measure_memory(&decoded.arch).ok();
                        let latency = gpu.measure_latency(&decoded.arch);
                        // Systematic sensor miscalibration (the
                        // `drifting-hw` profile): the recorded reading is
                        // biased by the profile's drift rate × the commit
                        // timestamp. A pure function of virtual time.
                        let power =
                            Watts(raw_power.get() + self.plan.profile().power_bias_w(time_s));
                        let feasible = self.spec.budgets.satisfied_by_measurements(
                            power,
                            memory,
                            Some(latency),
                        );
                        let healing = heal_on_commit(
                            self.monitor.as_mut(),
                            &mut self.live_oracle,
                            self.searcher.as_mut(),
                            self.spec.drift.safety_margin,
                            &decoded.structural,
                            power,
                            memory,
                            latency,
                            feasible,
                        );
                        let observed = if healing.liar {
                            LIAR_ERROR
                        } else {
                            result.error
                        };
                        self.history.push(sample.config.clone(), observed);
                        sample.kind = if result.terminated_early {
                            SampleKind::EarlyTerminated
                        } else {
                            SampleKind::Trained
                        };
                        sample.error = Some(result.error);
                        sample.power_w = power.get();
                        sample.memory_bytes = memory.map(|m| m.as_bytes() as u64);
                        sample.latency_s = Some(latency.get());
                        sample.feasible = feasible;
                        sample.failure = secondary;
                        sample.drift_events = healing.drift_events;
                        sample.drift_rmspe = healing.drift_rmspe;
                    }
                    TrialOutcome::Failed(cause) => {
                        // Graceful degradation: the searcher sees a
                        // worst-case "liar" observation instead of a
                        // silent hole, and the config is circuit-broken.
                        // No measurements exist — the job never completed.
                        self.history.push(sample.config.clone(), LIAR_ERROR);
                        self.quarantine.insert(config_key(&sample.config));
                        sample.kind = SampleKind::Failed;
                        sample.power_w = gpu.analyze(&decoded.arch).power.get();
                        sample.failure = Some(cause);
                    }
                }
            }
        }
        if let Some(s) = sink {
            s.record_commit(&sample)?;
        }
        self.samples.push(sample);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use hyperpower_gpu_sim::DeviceProfile;
    use rand::RngExt;

    use super::*;

    /// Proposes fresh configurations, except that every third proposal
    /// repeats the one before it (and configurations recur every eleven).
    /// History-independent, so a study plans blocks ahead: a crash then
    /// quarantines a configuration that may already be planned and leased
    /// again.
    #[derive(Default)]
    struct RepeatingSearcher {
        proposals: u64,
    }

    impl Searcher for RepeatingSearcher {
        fn propose(
            &mut self,
            _space: &SearchSpace,
            _history: &History,
            _rng: &mut StdRng,
        ) -> Result<Config> {
            let k = self.proposals;
            self.proposals += 1;
            let id = k - u64::from(k % 3 == 2);
            Config::new((0..6).map(|c| ((id * 7 + c) % 11) as f64 / 10.0).collect())
        }

        fn conditioning(&self) -> Conditioning {
            Conditioning::Independent
        }
    }

    fn scanned_outstanding(study: &Study) -> usize {
        study
            .ledger
            .records
            .values()
            .filter(|r| r.state == LeaseState::Outstanding)
            .count()
    }

    /// Folds words into a running FNV-1a-style 64-bit digest.
    fn fold(digest: &mut u64, words: impl IntoIterator<Item = u64>) {
        for word in words {
            *digest = (*digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds every field of the issued leases that a worker can observe.
    fn fold_leases(digest: &mut u64, batch: &[LeasedCandidate]) {
        for c in batch {
            fold(digest, [c.lease_id, c.query]);
            fold(digest, [c.attempt.into(), c.deadline_s.to_bits()]);
        }
    }

    /// Seeded sequences of every lease operation a server performs; after
    /// each step the kept count must equal a scan of the lease map. Every
    /// lease issued, every tell outcome, every reclaim and shed count and
    /// the count after each step fold into one digest, pinned so the lease
    /// path cannot change what a worker sees.
    #[test]
    fn outstanding_count_equals_a_scan_after_every_step() {
        let space = SearchSpace::mnist();
        let lease_policy = RetryPolicy {
            max_retries: 0,
            backoff_base_s: 2.0,
            backoff_factor: 2.0,
            backoff_jitter_frac: 0.5,
        };
        let events = [
            "accepted tells",
            "duplicate tells",
            "discarded tells",
            "expired tells",
            "hedges",
            "expiries",
            "sheds",
            "quarantined candidates",
        ];
        let mut seen = [0usize; 8];
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..16u64 {
            let spec = StudySpec {
                method: Method::Rand,
                mode: Mode::Default,
                budget: Budget::Evaluations(24),
                seed,
                budgets: Budgets::default(),
                cost: TrainingCostModel::default(),
                early_termination: None,
                fault_profile: FaultProfile {
                    name: "crashy".into(),
                    crash_prob: 0.3,
                    ..FaultProfile::none()
                },
                retry: RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
                drift: DriftConfig::default(),
            };
            let mut study = Study::new(spec, None, Some(Box::<RepeatingSearcher>::default()))
                .with_lease_policy(lease_policy);
            let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1EA5);
            let mut issued: Vec<u64> = Vec::new();
            let mut now_s = 0.0;
            for step in 0..400 {
                match rng.random_range(0..10u32) {
                    0..=2 => {
                        let max = rng.random_range(1..=4usize);
                        let batch = study
                            .ask(&space, &mut gpu, max, now_s, None::<&mut NullSink>)
                            .unwrap();
                        fold_leases(&mut digest, &batch);
                        issued.extend(batch.iter().map(|c| c.lease_id));
                    }
                    3..=6 if !issued.is_empty() => {
                        // Any lease ever issued: first, duplicate and late
                        // tells alike.
                        let lease_id = issued[rng.random_range(0..issued.len())];
                        let result = EvaluationResult {
                            error: rng.random_range(0.0..1.0),
                            diverged: false,
                            terminated_early: false,
                            train_secs: 300.0,
                        };
                        let outcome =
                            study.tell(&mut gpu, lease_id, &result, None::<&mut NullSink>);
                        let (kind, word) = match outcome {
                            Ok(TellOutcome::Accepted { committed }) => (1, committed as u64),
                            Ok(TellOutcome::Duplicate) => (2, 0),
                            Ok(TellOutcome::Discarded) => (3, 0),
                            Err(Error::LeaseExpired { query, .. }) => (4, query),
                            Err(e) => panic!("seed {seed} step {step}: {e}"),
                        };
                        seen[kind as usize - 1] += 1;
                        fold(&mut digest, [kind, word]);
                    }
                    7 => {
                        let batch = study.hedge_overdue(now_s, 0.5);
                        fold_leases(&mut digest, &batch);
                        seen[4] += batch.len();
                        issued.extend(batch.iter().map(|c| c.lease_id));
                    }
                    8 => {
                        let reclaimed = study.reclaim_expired(now_s);
                        fold(&mut digest, [reclaimed as u64]);
                        seen[5] += reclaimed;
                    }
                    _ if rng.random_range(0..4u32) == 0 => {
                        let shed = study.reclaim_all();
                        fold(&mut digest, [shed as u64]);
                        seen[6] += shed;
                    }
                    _ => {}
                }
                now_s += rng.random_range(0.0..1.5);
                assert_eq!(
                    study.outstanding_leases(),
                    scanned_outstanding(&study),
                    "seed {seed} step {step}"
                );
                fold(&mut digest, [study.outstanding_leases() as u64]);
            }
            seen[7] += study
                .trace()
                .samples
                .iter()
                .filter(|s| s.failure == Some(TrialFailure::Quarantined))
                .count();
        }
        // Every kind of lease state change happened.
        for (what, count) in events.iter().zip(seen) {
            assert!(count > 0, "no {what}");
        }
        assert_eq!(digest, 0x9ee3_b029_0c1d_f6df, "the lease digest moved");
    }
}
