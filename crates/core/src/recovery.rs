//! Retry, backoff and failure accounting for fault-injected trials.
//!
//! The executor hands every evaluated candidate through [`plan_trial`],
//! which replays the candidate's seeded fault schedule
//! ([`FaultPlan`]) against a [`RetryPolicy`] and returns the complete,
//! virtual-time-accounted story of the trial: which faults struck, how
//! many attempts ran, how much backoff was paid, and whether the trial
//! ultimately completed or failed.
//!
//! `plan_trial` is a *pure* function — the objective is deterministic in
//! `(decoded, eval_seed)`, so every retry of an attempt reproduces the
//! same [`EvaluationResult`] and the whole attempt/backoff schedule can
//! be computed as arithmetic without re-running training. That keeps the
//! fault path on the same determinism footing as the fault-free path
//! (byte-identical traces across worker counts) and makes the
//! virtual-time accounting property-testable in isolation.
//!
//! Precedence rule (see DESIGN.md §5b): when early termination and the
//! watchdog timeout would both fire on the same attempt, **early
//! termination wins** — the trial completes as early-terminated and the
//! timeout is recorded as a secondary cause instead of last-writer-wins.

use hyperpower_gpu_sim::{FaultPlan, TrainingFault};

use crate::objective::EvaluationResult;

/// The test error recorded into the searcher history for a terminally
/// failed trial: the "constant liar" worst-case observation that steers
/// Bayesian searchers away from the failing region instead of leaving a
/// silent hole in the evidence.
pub const LIAR_ERROR: f64 = 1.0;

/// Why a trial attempt (or the whole trial) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TrialFailure {
    /// A transient sensor glitch forced one measurement to be discarded
    /// and repeated (never terminal).
    SensorGlitch,
    /// The training job aborted with an out-of-memory error.
    Oom,
    /// The training job crashed hard.
    Crash,
    /// The worker stalled; the virtual-time watchdog reaped it.
    Stall,
    /// Training ran past the watchdog timeout.
    Timeout,
    /// The configuration was circuit-broken: it already failed terminally
    /// and sits in the quarantine set.
    Quarantined,
}

impl TrialFailure {
    /// Stable wire name used by the golden codec, the CSV export and the
    /// checkpoint format.
    pub fn wire_name(self) -> &'static str {
        match self {
            TrialFailure::SensorGlitch => "sensor_glitch",
            TrialFailure::Oom => "oom",
            TrialFailure::Crash => "crash",
            TrialFailure::Stall => "stall",
            TrialFailure::Timeout => "timeout",
            TrialFailure::Quarantined => "quarantined",
        }
    }
}

impl std::fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl From<TrainingFault> for TrialFailure {
    fn from(fault: TrainingFault) -> Self {
        match fault {
            TrainingFault::Oom => TrialFailure::Oom,
            TrainingFault::Crash => TrialFailure::Crash,
            TrainingFault::Stall => TrialFailure::Stall,
        }
    }
}

/// What an integrity scan can find wrong with a study's durable store —
/// the *at-rest* counterpart of [`TrialFailure`]'s in-flight taxonomy.
/// Each defect maps to exactly one salvage rule (see the server's fsck).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StoreDefect {
    /// A record's checksum frame does not match its payload (bit-rot), its
    /// frame token is malformed, or it does not decode or fit the records
    /// before it; also an undecodable snapshot.
    CorruptFrame,
    /// The file's final record is torn — no trailing newline — from a
    /// crash mid-append. Benign: the record was never acknowledged.
    TruncatedTail,
    /// A stale temp file (`*.tmp` / `*.journal-tmp`) stranded by a crash
    /// between temp write and atomic rename. Benign garbage.
    StaleTmp,
    /// The journal header and the snapshot disagree about the run
    /// identity — the two files belong to different runs.
    HeaderMismatch,
}

impl StoreDefect {
    /// Stable wire name used by fsck reports.
    pub fn wire_name(self) -> &'static str {
        match self {
            StoreDefect::CorruptFrame => "corrupt_frame",
            StoreDefect::TruncatedTail => "truncated_tail",
            StoreDefect::StaleTmp => "stale_tmp",
            StoreDefect::HeaderMismatch => "header_mismatch",
        }
    }
}

impl std::fmt::Display for StoreDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// Bounded-retry policy with seeded exponential backoff.
///
/// A failed attempt is retried up to `max_retries` times; the wait before
/// retry `k` (1-based) is
/// `backoff_base_s × backoff_factor^(k-1) × (1 + backoff_jitter_frac × u)`
/// with `u` drawn from the candidate's seeded backoff stream — charged to
/// *virtual* time, so `Budget::VirtualHours` accounting stays honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`2` ⇒ at most 3 attempts).
    pub max_retries: u32,
    /// Base backoff before the first retry, in virtual seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff per additional retry.
    pub backoff_factor: f64,
    /// Jitter amplitude as a fraction of the deterministic backoff.
    pub backoff_jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base_s: 30.0,
            backoff_factor: 2.0,
            backoff_jitter_frac: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged after failed attempt `attempt` (1-based),
    /// given the `[0, 1)` jitter draw for that attempt.
    pub fn backoff_secs(&self, attempt: u32, jitter_unit: f64) -> f64 {
        let exp = self.backoff_factor.powi(attempt.saturating_sub(1) as i32);
        self.backoff_base_s * exp * (1.0 + self.backoff_jitter_frac * jitter_unit)
    }
}

/// How a fully-retried trial ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOutcome {
    /// An attempt ran to (possibly early-terminated) completion.
    Completed {
        /// A failure cause that also fired on the winning attempt but was
        /// outranked — today only [`TrialFailure::Timeout`] when early
        /// termination won the precedence race.
        secondary: Option<TrialFailure>,
    },
    /// Every attempt failed; this is the terminal cause.
    Failed(TrialFailure),
}

/// The complete virtual-time story of one trial under faults.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialPlan {
    /// How the trial ended.
    pub outcome: TrialOutcome,
    /// Every fault that struck an attempt, in attempt order (the terminal
    /// cause, if any, is the last entry).
    pub faults: Vec<TrialFailure>,
    /// Attempts executed (1 when no fault struck).
    pub attempts: u32,
    /// Total virtual time charged: the sum of every attempt's duration
    /// plus every backoff wait. Excludes measurement time, which the
    /// executor charges separately on success.
    pub charged_secs: f64,
}

/// Replays the seeded fault schedule of query `query` against `policy`
/// and the (deterministic) evaluation `result`, returning the trial's
/// outcome and exact virtual-time charge.
///
/// `memory_pressure_frac` is the candidate's noise-free predicted memory
/// as a fraction of device capacity; it gates the OOM injection rate.
///
/// Per attempt, in order:
/// 1. an injected fault ([`FaultPlan::training_fault`]) aborts the
///    attempt — OOM/crash strike partway through training
///    ([`FaultPlan::fault_point_frac`]), a stall is reaped at the
///    watchdog timeout;
/// 2. otherwise, if the attempt's training time exceeds the watchdog
///    timeout: early termination (if it fired) wins and the timeout is
///    recorded as a secondary cause; a full-length run times out and the
///    attempt is charged exactly the timeout;
/// 3. otherwise the attempt completes and the trial succeeds.
///
/// A failed attempt `k < max_retries + 1` charges a seeded exponential
/// backoff and retries; the last allowed attempt's failure is terminal.
pub fn plan_trial(
    plan: &FaultPlan,
    policy: &RetryPolicy,
    query: u64,
    result: &EvaluationResult,
    memory_pressure_frac: f64,
) -> TrialPlan {
    let timeout_secs = plan.profile().timeout_s;
    let max_attempts = policy.max_retries.saturating_add(1);
    let mut faults = Vec::new();
    let mut charged_secs = 0.0;
    let mut attempts = 0;

    while attempts < max_attempts {
        attempts += 1;
        let failure = match plan.training_fault(query, attempts, memory_pressure_frac) {
            Some(TrainingFault::Stall) => {
                // The worker hangs; the watchdog reaps it at the timeout.
                charged_secs += timeout_secs;
                Some(TrialFailure::Stall)
            }
            Some(fault) => {
                // OOM/crash strike partway through the attempt's training.
                charged_secs += plan.fault_point_frac(query, attempts) * result.train_secs;
                Some(TrialFailure::from(fault))
            }
            None if result.train_secs > timeout_secs => {
                if result.terminated_early {
                    // Precedence: the early-termination check fires inside
                    // the run, before the watchdog verdict is final — it
                    // wins, and the timeout is recorded as secondary.
                    charged_secs += result.train_secs;
                    faults.push(TrialFailure::Timeout);
                    return TrialPlan {
                        outcome: TrialOutcome::Completed {
                            secondary: Some(TrialFailure::Timeout),
                        },
                        faults,
                        attempts,
                        charged_secs,
                    };
                }
                charged_secs += timeout_secs;
                Some(TrialFailure::Timeout)
            }
            None => None,
        };
        let Some(failure) = failure else {
            charged_secs += result.train_secs;
            return TrialPlan {
                outcome: TrialOutcome::Completed { secondary: None },
                faults,
                attempts,
                charged_secs,
            };
        };
        faults.push(failure);
        if attempts == max_attempts {
            return TrialPlan {
                outcome: TrialOutcome::Failed(failure),
                faults,
                attempts,
                charged_secs,
            };
        }
        charged_secs += policy.backoff_secs(attempts, plan.backoff_unit(query, attempts));
    }
    // max_attempts >= 1, so the loop always returns from within.
    unreachable!("retry loop exits via completion or terminal failure");
}

#[cfg(test)]
// Exact float equality is intended: the accounting contract is exact
// arithmetic over deterministic draws.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use hyperpower_gpu_sim::FaultProfile;

    fn result(train_secs: f64, terminated_early: bool) -> EvaluationResult {
        EvaluationResult {
            error: 0.25,
            diverged: false,
            terminated_early,
            train_secs,
        }
    }

    fn crash_always() -> FaultProfile {
        FaultProfile {
            name: "crash-always".into(),
            sensor_glitch_prob: 0.0,
            oom_prob_at_full_pressure: 0.0,
            oom_onset_frac: 1.0,
            crash_prob: 1.0,
            stall_prob: 0.0,
            timeout_s: f64::INFINITY,
            sensor_drift_w_per_hour: 0.0,
        }
    }

    #[test]
    fn faultless_trial_charges_exactly_the_training_time() {
        let plan = FaultPlan::new(FaultProfile::none(), 7);
        let t = plan_trial(
            &plan,
            &RetryPolicy::default(),
            3,
            &result(500.0, false),
            0.2,
        );
        assert_eq!(t.outcome, TrialOutcome::Completed { secondary: None });
        assert_eq!(t.attempts, 1);
        assert!(t.faults.is_empty());
        assert_eq!(t.charged_secs, 500.0);
    }

    #[test]
    fn guaranteed_crash_exhausts_retries_and_charges_backoff() {
        let plan = FaultPlan::new(crash_always(), 11);
        let policy = RetryPolicy::default();
        let q = 4;
        let t = plan_trial(&plan, &policy, q, &result(1000.0, false), 0.0);
        assert_eq!(t.outcome, TrialOutcome::Failed(TrialFailure::Crash));
        assert_eq!(t.attempts, 3);
        assert_eq!(t.faults, vec![TrialFailure::Crash; 3]);
        // Exact accounting: three partial attempts + two backoffs, summed
        // in charge order so the comparison is bit-exact.
        let mut expected = 0.0f64;
        for a in 1..=3 {
            expected += plan.fault_point_frac(q, a) * 1000.0;
            if a < 3 {
                expected += policy.backoff_secs(a, plan.backoff_unit(q, a));
            }
        }
        assert_eq!(t.charged_secs, expected);
    }

    #[test]
    fn zero_retries_fails_on_the_first_fault() {
        let plan = FaultPlan::new(crash_always(), 2);
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let t = plan_trial(&plan, &policy, 0, &result(100.0, false), 0.0);
        assert_eq!(t.attempts, 1);
        assert_eq!(t.outcome, TrialOutcome::Failed(TrialFailure::Crash));
        assert_eq!(t.charged_secs, plan.fault_point_frac(0, 1) * 100.0);
    }

    #[test]
    fn timeout_charges_exactly_the_watchdog_and_retries() {
        let mut profile = FaultProfile::none();
        profile.timeout_s = 200.0;
        let plan = FaultPlan::new(profile, 5);
        let policy = RetryPolicy::default();
        // Training takes 900 s > 200 s watchdog, never early-terminated:
        // every attempt times out at exactly 200 s.
        let t = plan_trial(&plan, &policy, 9, &result(900.0, false), 0.0);
        assert_eq!(t.outcome, TrialOutcome::Failed(TrialFailure::Timeout));
        assert_eq!(t.attempts, 3);
        let backoffs = policy.backoff_secs(1, plan.backoff_unit(9, 1))
            + policy.backoff_secs(2, plan.backoff_unit(9, 2));
        assert_eq!(t.charged_secs, 3.0 * 200.0 + backoffs);
    }

    #[test]
    fn early_termination_wins_over_timeout_with_secondary_cause() {
        let mut profile = FaultProfile::none();
        profile.timeout_s = 200.0;
        let plan = FaultPlan::new(profile, 5);
        // Early-terminated at 250 s — still past the 200 s watchdog. The
        // trial completes (ET wins), charges the *full* ET duration, and
        // records the timeout as a secondary cause.
        let t = plan_trial(&plan, &RetryPolicy::default(), 9, &result(250.0, true), 0.0);
        assert_eq!(
            t.outcome,
            TrialOutcome::Completed {
                secondary: Some(TrialFailure::Timeout)
            }
        );
        assert_eq!(t.attempts, 1);
        assert_eq!(t.faults, vec![TrialFailure::Timeout]);
        assert_eq!(t.charged_secs, 250.0);
    }

    #[test]
    fn stall_charges_the_watchdog_not_the_training_time() {
        let profile = FaultProfile {
            name: "stall-always".into(),
            sensor_glitch_prob: 0.0,
            oom_prob_at_full_pressure: 0.0,
            oom_onset_frac: 1.0,
            crash_prob: 0.0,
            stall_prob: 1.0,
            timeout_s: 333.0,
            sensor_drift_w_per_hour: 0.0,
        };
        let plan = FaultPlan::new(profile, 8);
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let t = plan_trial(&plan, &policy, 2, &result(10_000.0, false), 0.0);
        assert_eq!(t.outcome, TrialOutcome::Failed(TrialFailure::Stall));
        assert_eq!(t.charged_secs, 333.0);
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let policy = RetryPolicy {
            max_retries: 5,
            backoff_base_s: 10.0,
            backoff_factor: 2.0,
            backoff_jitter_frac: 0.5,
        };
        assert_eq!(policy.backoff_secs(1, 0.0), 10.0);
        assert_eq!(policy.backoff_secs(2, 0.0), 20.0);
        assert_eq!(policy.backoff_secs(3, 0.0), 40.0);
        assert_eq!(policy.backoff_secs(1, 1.0), 15.0);
        // Jitter never exceeds the configured fraction.
        for a in 1..5 {
            for u in [0.0, 0.3, 0.999] {
                let b = policy.backoff_secs(a, u);
                let base = 10.0 * 2f64.powi(a as i32 - 1);
                assert!(b >= base && b <= base * 1.5, "backoff {b} out of band");
            }
        }
    }

    #[test]
    fn wire_names_roundtrip() {
        let all = [
            TrialFailure::SensorGlitch,
            TrialFailure::Oom,
            TrialFailure::Crash,
            TrialFailure::Stall,
            TrialFailure::Timeout,
            TrialFailure::Quarantined,
        ];
        for f in all {
            assert_eq!(f.to_string(), f.wire_name());
        }
        // Distinct names keep every failure kind readable from the trace.
        let names: std::collections::BTreeSet<&str> = all.iter().map(|f| f.wire_name()).collect();
        assert_eq!(names.len(), all.len(), "wire names collide: {names:?}");
    }
}
