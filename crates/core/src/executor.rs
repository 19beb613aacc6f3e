//! Deterministic parallel candidate evaluation.
//!
//! The paper's asymmetry — constraint checks cost milliseconds while
//! candidate *training* dominates wall-clock (§5 trains 50 candidates over
//! 2–5 simulated hours) — makes training the obvious thing to parallelise.
//! This module drives one [`Study`] (the ask–tell optimization loop) and
//! runs up to `workers` candidate trainings concurrently on OS threads
//! ([`std::thread::scope`]; the workspace is hermetic, so no rayon) while
//! keeping every emitted [`Trace`] **bit-for-bit reproducible**.
//!
//! Two dials, two very different meanings:
//!
//! * [`ExecutorOptions::workers`] — how many OS threads evaluate
//!   candidates. This is *semantics-neutral*: the trace is byte-identical
//!   for workers ∈ {1, 2, 4, 8} at a fixed seed (proven by
//!   `tests/parallel_determinism.rs`), only real wall-clock changes.
//! * [`ExecutorOptions::simulated_gpus`] — how many *virtual* training
//!   GPUs the study's schedule models. This is a *semantic* knob: with 1
//!   GPU the study reproduces the paper's sequential schedule exactly; with
//!   G > 1 it runs the honest batch-parallel experiment (constant-liar
//!   pending points, samples committed in completion-time order) — still
//!   deterministic given the seed and G, and still independent of
//!   `workers`. The schedule itself lives in `crate::study`.
//!
//! # Why the two dials cannot be one
//!
//! A single "K workers ⇒ K-point batches" knob would tie the *algorithm*
//! (what gets proposed) to the *machine* (how many threads run), and the
//! headline invariant — byte-identical traces across thread counts — would
//! be unsatisfiable: a K-point constant-liar batch proposes different
//! configurations than the sequential loop. Splitting the dials keeps the
//! invariant testable and makes workers=1 the semantic reference.
//!
//! # Determinism scheme
//!
//! * **Proposal RNG**: one `StdRng::seed_from_u64(seed)` stream, consumed
//!   strictly in proposal order (the earliest free simulated GPU takes the
//!   next proposal, lowest index on ties).
//! * **Per-candidate evaluation seeds**: derived as
//!   `seed × 0x9e37_79b9_7f4a_7c15 + query_index` (the golden-ratio mix the
//!   sequential driver has always used), so a candidate's training outcome
//!   depends only on *which* proposal it was — never on which thread ran
//!   it or when it finished.
//! * **Sensor measurements**: performed at *commit* time on the
//!   coordinator's single [`hyperpower_gpu_sim::Gpu`] stream, in commit
//!   order — the shared noise stream never races.
//! * **Commit order**: completion-time order with proposal-index tiebreak;
//!   with one simulated GPU this degenerates to proposal order.
//! * **Faults**: every fault decision ([`FaultPlan`]) is a pure function of
//!   `(run seed, proposal index, attempt)` on salted streams separate from
//!   the proposal and sensor RNGs, so fault schedules replay exactly, and
//!   [`FaultProfile::none`] leaves the fault-free byte-identity intact (see
//!   DESIGN.md §5b).
//!
//! # Fault recovery and resumable runs
//!
//! With a non-inert [`FaultProfile`], each evaluated candidate is run
//! through [`crate::recovery::plan_trial`]: injected faults abort attempts,
//! a bounded [`RetryPolicy`] re-runs them with seeded exponential backoff
//! (charged to *virtual* time, so `Budget::VirtualHours` stays honest), and
//! a trial whose every attempt fails commits as [`SampleKind::Failed`] — a
//! worst-case "liar" observation for the searcher — and quarantines its
//! configuration (circuit breaker: re-proposals are rejected at model-eval
//! cost without training). [`ExecutorOptions::checkpoint`] persists the
//! committed trace periodically; [`ExecutorOptions::resume_from`] replays
//! the checkpoint through [`Study::replay`], the resume path the study
//! server's journal recovery shares, which answers proposals from the
//! recorded evaluations and verifies the recorded samples bit-for-bit
//! before the loop runs.
//!
//! # One thread pool
//!
//! [`parallel_map`] is the workspace's one scoped-thread pool: the
//! executor evaluates each asked batch on it, and the experiment
//! harnesses run independent table cells on it. Work is assigned
//! round-robin and each result lands in its own slot, so thread
//! scheduling never reaches the output.
//!
//! [`FaultPlan`]: hyperpower_gpu_sim::FaultPlan
//! [`SampleKind::Failed`]: crate::SampleKind::Failed

use std::path::PathBuf;

use hyperpower_gpu_sim::FaultProfile;

use crate::checkpoint::{clean_orphaned_tmp, CheckpointConfig, CheckpointSink, RunCheckpoint};
use crate::drift::DriftConfig;
use crate::driver::{RunSetup, Trace};
use crate::objective::EvaluationResult;
use crate::recovery::RetryPolicy;
use crate::study::{LeasedCandidate, Study, StudySpec};
use crate::{EarlyTermination, Error, Objective, Result};

/// Environment variable read by [`ExecutorOptions::from_env`] for the
/// default worker-thread count (used by the CI matrix to exercise the
/// parallel paths across the whole test suite).
pub const WORKERS_ENV: &str = "HYPERPOWER_WORKERS";

/// Knobs for the parallel evaluation executor. See the module docs for why
/// `workers` (threads, semantics-neutral) and `simulated_gpus` (virtual
/// schedule, semantic) are separate dials.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorOptions {
    /// Maximum OS threads evaluating candidates concurrently. Never
    /// affects the emitted trace; 0 is treated as 1.
    pub workers: usize,
    /// Number of simulated training GPUs in the virtual schedule. 1 (the
    /// default and the semantic reference) reproduces the sequential
    /// paper experiment; G > 1 runs the batch-parallel variant. 0 is
    /// treated as 1.
    pub simulated_gpus: usize,
    /// Fault-injection profile. [`FaultProfile::none`] (the default) is
    /// inert: no fault draws happen and traces are byte-identical to the
    /// pre-fault executor. Like `simulated_gpus`, this is a *semantic*
    /// knob and part of run identity for checkpoints.
    pub fault_profile: FaultProfile,
    /// Retry/backoff policy applied when faults abort an attempt.
    pub retry: RetryPolicy,
    /// When set, the committed trace is checkpointed here periodically
    /// (and always at run end), atomically.
    pub checkpoint: Option<CheckpointConfig>,
    /// When set, the run resumes from this checkpoint: the study replays
    /// it, its recorded evaluations standing in for objective calls, and
    /// its committed samples are verified bit-exact before the run goes
    /// on.
    pub resume_from: Option<PathBuf>,
    /// Self-healing configuration (drift detection, online recalibration,
    /// adaptive safety margins). Inert by default; a semantic knob and
    /// part of run identity for checkpoints when enabled.
    pub drift: DriftConfig,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            workers: 1,
            simulated_gpus: 1,
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::default(),
            checkpoint: None,
            resume_from: None,
            drift: DriftConfig::default(),
        }
    }
}

impl ExecutorOptions {
    /// Options with the worker count taken from the `HYPERPOWER_WORKERS`
    /// environment variable (unset, unparsable or zero ⇒ 1) and one
    /// simulated GPU. Fault injection, checkpointing and resume stay at
    /// their defaults — they are semantic knobs, never ambient state.
    pub fn from_env() -> Self {
        let workers = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w > 0)
            .unwrap_or(1);
        ExecutorOptions {
            workers,
            ..ExecutorOptions::default()
        }
    }

    /// Replaces the worker-thread count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the simulated-GPU count (builder style).
    pub fn with_simulated_gpus(mut self, simulated_gpus: usize) -> Self {
        self.simulated_gpus = simulated_gpus;
        self
    }

    /// Replaces the fault profile (builder style).
    pub fn with_fault_profile(mut self, profile: FaultProfile) -> Self {
        self.fault_profile = profile;
        self
    }

    /// Enables periodic checkpointing (builder style).
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Resumes from a checkpoint file (builder style).
    pub fn with_resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Enables online recalibration (builder style).
    pub fn with_recalibrate(mut self, recalibrate: bool) -> Self {
        self.drift.recalibrate = recalibrate;
        self
    }

    /// Replaces the drift-detection threshold (builder style).
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        self.drift.drift_threshold = threshold;
        self
    }

    /// Replaces the adaptive safety-margin step (builder style).
    pub fn with_safety_margin(mut self, margin: f64) -> Self {
        self.drift.safety_margin = margin;
        self
    }
}

/// Runs one optimization with explicit executor options: a thin ask →
/// evaluate → tell loop over a [`Study`]. Each asked batch holds up to
/// `workers` candidates — those in flight on the simulated GPUs or, at one
/// GPU, a block of history-independent proposals planned ahead — and
/// trains them on [`parallel_map`]'s threads. The study owns the virtual
/// schedule, so the batch width never reaches the trace.
///
/// `options.simulated_gpus == 1` reproduces [`crate::driver::run_optimization`]'s
/// sequential schedule byte-for-byte at any worker count; larger values run
/// the deterministic batch-parallel schedule (see `crate::study`). A resumed
/// run first replays its checkpoint ([`Study::replay`]).
///
/// # Errors
///
/// Propagates space-decoding, GP-fitting and objective errors (the first
/// error in proposal order wins, so failures are deterministic too), plus
/// [`Error::WorkerPanic`] for panicking objectives, [`Error::Checkpoint`]
/// for checkpoint I/O failures and [`Error::ResumeMismatch`] when a resume
/// checkpoint belongs to a different run or its committed samples fail the
/// bit-exact check.
pub fn run_optimization_with(setup: RunSetup<'_>, options: &ExecutorOptions) -> Result<Trace> {
    let RunSetup {
        space,
        objective,
        gpu,
        budgets,
        oracle,
        early_termination,
        cost,
        method,
        mode,
        budget,
        seed,
        searcher_override,
    } = setup;
    let spec = StudySpec {
        method,
        mode,
        budget,
        seed,
        budgets,
        cost,
        early_termination,
        fault_profile: options.fault_profile.clone(),
        retry: options.retry,
        drift: options.drift,
    };
    let mut study =
        Study::new(spec, oracle, searcher_override).with_simulated_gpus(options.simulated_gpus);
    let identity = study.identity();
    // A resume writes nothing until its replay verifies.
    let new_sink = match options.resume_from {
        Some(_) => CheckpointSink::held,
        None => CheckpointSink::new,
    };
    let mut sink = options
        .checkpoint
        .clone()
        .map(|config| new_sink(config, &identity));
    let evaluate = |c: &LeasedCandidate| evaluate_caught(objective, early_termination.as_ref(), c);
    if let Some(path) = &options.resume_from {
        // Resuming opens the checkpoint to write again: sweep what a crashed
        // writer stranded beside it first.
        clean_orphaned_tmp(path);
        let checkpoint = RunCheckpoint::load(path)?;
        identity.verify("checkpoint", &checkpoint.header)?;
        study.replay(space, gpu, &checkpoint, sink.as_mut(), evaluate)?;
        if let Some(s) = sink.as_mut() {
            s.flush()?;
        }
    }

    // The loop evaluates every asked batch to completion before asking
    // again, so lease deadlines never matter here: `now_s` stays 0.
    let workers = options.workers.max(1);
    loop {
        let batch = study.ask(space, gpu, workers, 0.0, sink.as_mut())?;
        if batch.is_empty() {
            break;
        }
        let results = parallel_map(&batch, workers, |_, c| evaluate(c))
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        for (candidate, result) in batch.iter().zip(results) {
            study.tell(gpu, candidate.lease_id, &result, sink.as_mut())?;
        }
    }

    if let Some(s) = sink.as_mut() {
        s.flush()?;
    }
    Ok(study.into_trace())
}

/// Stringifies a panic payload (the `&str`/`String` payloads `panic!`
/// produces; anything else gets a fixed marker).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one evaluation with the worker boundary hardened: a panicking
/// objective becomes a typed [`Error::WorkerPanic`] carrying the proposal
/// index and payload, instead of tearing down the whole run with a raw
/// join failure.
fn evaluate_caught(
    objective: &dyn Objective,
    early: Option<&EarlyTermination>,
    candidate: &LeasedCandidate,
) -> Result<EvaluationResult> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        objective.evaluate(&candidate.decoded, early, candidate.eval_seed)
    })) {
        Ok(result) => result,
        Err(payload) => Err(Error::WorkerPanic {
            query: candidate.query,
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning the
/// results in input order (`f` receives the item index and the item).
///
/// Work is assigned round-robin and each result lands in its own slot, so
/// neither thread scheduling nor completion order can influence the
/// output. With `workers <= 1` or a single item this runs inline, which
/// keeps the output order of any progress printing intact. A panicking
/// `f` propagates the panic to the caller.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let threads = workers.min(items.len());
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                let mut i = t;
                while i < items.len() {
                    mine.push((i, f(i, &items[i]))); // bounded by the while condition
                    i += threads;
                }
                mine
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r); // in-bounds: i indexes items, slots is same length
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let Some(r) = slot else {
                // Round-robin assignment fills every slot.
                unreachable!("round-robin assignment covers every slot");
            };
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..23).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 4, 8, 32] {
            let got = parallel_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(&[] as &[u8], 4, |_, &x| x), Vec::<u8>::new());
        assert_eq!(parallel_map(&[7u8], 4, |_, &x| x + 1), vec![8]);
    }
}
