//! Deterministic fault injection for the simulated GPU fleet.
//!
//! A production HPO service survives the failures real fleets produce —
//! OOM aborts near the memory capacity, driver crashes, flaky sensors,
//! stalled workers — and this module lets the *simulated* fleet produce
//! them reproducibly. A [`FaultPlan`] is a pure function of the run seed,
//! the proposal (query) index and the attempt number: it never reads the
//! wall clock, never touches the proposal RNG and never touches the
//! [`Gpu`](crate::Gpu) sensor stream, so
//!
//! * the same `(seed, profile)` always yields the same fault schedule —
//!   fault-injected runs are golden-traceable like fault-free ones, and
//! * a plan with [`FaultProfile::none`] draws nothing at all: enabling the
//!   subsystem with the empty profile is byte-identical to not having it.
//!
//! The executor (in `hyperpower-core`) decides what a fault *means* —
//! retry, backoff, quarantine; this module only decides *which* faults
//! occur and where inside an attempt they strike, each by one
//! [`seeded_unit`] draw (the workspace's one seeded jitter construction).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A fault injected into one training attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingFault {
    /// The training job aborted with an out-of-memory error. Injected with
    /// a probability that grows as the candidate's predicted memory
    /// approaches the device capacity.
    Oom,
    /// The training job crashed hard (driver reset, segfault, killed pod).
    Crash,
    /// The worker stalled and stopped making progress; the virtual-time
    /// watchdog reaps it after [`FaultProfile::timeout_s`].
    Stall,
}

/// Stream salts: each injectable decision draws from its own derived
/// stream so adding one kind of fault never shifts another kind's
/// schedule.
const SALT_TRAINING: u64 = 0xFA17_0001;
const SALT_GLITCH: u64 = 0xFA17_0002;
const SALT_POINT: u64 = 0xFA17_0003;
const SALT_BACKOFF: u64 = 0xFA17_0004;

/// Injection rates and thresholds for one run.
///
/// Probabilities are per *attempt*; `oom_prob_at_full_pressure` is scaled
/// by how far the candidate's memory pressure sits past
/// `oom_onset_frac` (below the onset, OOM never fires). A non-finite
/// `timeout_s` disables both the stall fault and the watchdog.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Profile name, used for CLI selection and checkpoint-header
    /// verification.
    pub name: String,
    /// Probability that a completed attempt's first sensor read is garbage
    /// and must be discarded and repeated.
    pub sensor_glitch_prob: f64,
    /// OOM probability when predicted memory equals the device capacity.
    pub oom_prob_at_full_pressure: f64,
    /// Memory-pressure fraction (predicted memory / capacity) below which
    /// OOM faults never fire.
    pub oom_onset_frac: f64,
    /// Probability of a hard job crash per attempt.
    pub crash_prob: f64,
    /// Probability of a worker stall per attempt (only meaningful with a
    /// finite `timeout_s`).
    pub stall_prob: f64,
    /// Virtual-time watchdog: an attempt that would run longer than this
    /// (or a stalled worker) is reaped after exactly this many seconds.
    /// `f64::INFINITY` disables the watchdog.
    pub timeout_s: f64,
    /// Systematic power-sensor miscalibration accumulating over *virtual*
    /// time: every committed power reading is biased by
    /// `sensor_drift_w_per_hour × (commit timestamp in hours)`. Unlike the
    /// glitch fault (transient, per-read) this models a sensor slowly
    /// walking away from the profiling-time calibration — the drift the
    /// self-healing constraint layer exists to detect. `0.0` disables it
    /// and draws nothing.
    pub sensor_drift_w_per_hour: f64,
}

impl FaultProfile {
    /// The empty profile: no faults, no watchdog. A [`FaultPlan`] built
    /// from it draws no randomness and changes no behavior.
    pub fn none() -> Self {
        FaultProfile {
            name: "none".into(),
            sensor_glitch_prob: 0.0,
            oom_prob_at_full_pressure: 0.0,
            oom_onset_frac: 1.0,
            crash_prob: 0.0,
            stall_prob: 0.0,
            timeout_s: f64::INFINITY,
            sensor_drift_w_per_hour: 0.0,
        }
    }

    /// Mostly sensor noise: frequent glitched reads, occasional crashes.
    pub fn flaky_sensor() -> Self {
        FaultProfile {
            name: "flaky-sensor".into(),
            sensor_glitch_prob: 0.3,
            oom_prob_at_full_pressure: 0.0,
            oom_onset_frac: 1.0,
            crash_prob: 0.05,
            stall_prob: 0.0,
            timeout_s: f64::INFINITY,
            sensor_drift_w_per_hour: 0.0,
        }
    }

    /// Memory-starved fleet: OOM aborts ramp up from 10% memory pressure,
    /// plus background crashes, stalls and a 1 h watchdog.
    pub fn oom_heavy() -> Self {
        FaultProfile {
            name: "oom-heavy".into(),
            sensor_glitch_prob: 0.05,
            oom_prob_at_full_pressure: 0.9,
            oom_onset_frac: 0.1,
            crash_prob: 0.05,
            stall_prob: 0.05,
            timeout_s: 3600.0,
            sensor_drift_w_per_hour: 0.0,
        }
    }

    /// Hardware slowly walking away from its profiling-time calibration:
    /// the power sensor accumulates +10 W of bias per virtual hour while
    /// every transient fault stays off. The profile that exercises drift
    /// detection and online recalibration.
    pub fn drifting_hw() -> Self {
        FaultProfile {
            name: "drifting-hw".into(),
            sensor_drift_w_per_hour: 10.0,
            ..FaultProfile::none()
        }
    }

    /// A fleet of stragglers: workers frequently stall mid-attempt and the
    /// 1.5 h watchdog reaps them, so leases routinely outlive optimistic
    /// deadlines. The profile that exercises hedged re-dispatch and the
    /// worker health state machine.
    pub fn slow_worker() -> Self {
        FaultProfile {
            name: "slow-worker".into(),
            sensor_glitch_prob: 0.05,
            oom_prob_at_full_pressure: 0.0,
            oom_onset_frac: 1.0,
            crash_prob: 0.05,
            stall_prob: 0.3,
            timeout_s: 5400.0,
            sensor_drift_w_per_hour: 0.0,
        }
    }

    /// Decaying storage/memory at the worker: corrupted state surfaces as
    /// garbage sensor reads and hard job crashes. The training-side
    /// companion of the store-level `bit-rot` chaos mode (which flips bits
    /// in journals and snapshots at rest).
    pub fn bit_rot() -> Self {
        FaultProfile {
            name: "bit-rot".into(),
            sensor_glitch_prob: 0.2,
            oom_prob_at_full_pressure: 0.0,
            oom_onset_frac: 1.0,
            crash_prob: 0.1,
            stall_prob: 0.0,
            timeout_s: f64::INFINITY,
            sensor_drift_w_per_hour: 0.0,
        }
    }

    /// Looks up a built-in profile by its CLI name
    /// (`none | flaky-sensor | oom-heavy | drifting-hw | slow-worker |
    /// bit-rot`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "none" => Some(FaultProfile::none()),
            "flaky-sensor" => Some(FaultProfile::flaky_sensor()),
            "oom-heavy" => Some(FaultProfile::oom_heavy()),
            "drifting-hw" => Some(FaultProfile::drifting_hw()),
            "slow-worker" => Some(FaultProfile::slow_worker()),
            "bit-rot" => Some(FaultProfile::bit_rot()),
            _ => None,
        }
    }

    /// Whether this profile can never inject anything (all rates zero, no
    /// sensor drift and the watchdog disabled).
    pub fn is_inert(&self) -> bool {
        self.sensor_glitch_prob <= 0.0
            && self.oom_prob_at_full_pressure <= 0.0
            && self.crash_prob <= 0.0
            && self.stall_prob <= 0.0
            && self.timeout_s.is_infinite()
            && self.sensor_drift_w_per_hour <= 0.0
    }

    /// The accumulated power-sensor bias (watts) at virtual time
    /// `virtual_secs`. A pure function of the timestamp — no randomness —
    /// so drift-biased readings stay worker-invariant and resumable.
    pub fn power_bias_w(&self, virtual_secs: f64) -> f64 {
        if self.sensor_drift_w_per_hour <= 0.0 {
            return 0.0;
        }
        self.sensor_drift_w_per_hour * virtual_secs / 3600.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// The seeded fault schedule of one optimization run.
///
/// Every decision is one [`seeded_unit`] draw keyed by the run seed, a
/// per-stream salt, the query index and the attempt number, so faults are
/// a pure function of *which proposal* and *which attempt* — never of
/// thread timing, commit order or how many other faults fired before.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    profile: FaultProfile,
    seed: u64,
}

impl FaultPlan {
    /// Creates the fault schedule for one run.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultPlan { profile, seed }
    }

    /// The profile this plan draws from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whether this plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.profile.is_inert()
    }

    /// The fault (if any) injected into attempt `attempt` (1-based) of
    /// query `query`, given the candidate's memory pressure (predicted
    /// memory as a fraction of device capacity).
    ///
    /// One uniform draw is partitioned over `[OOM | crash | stall | ok]`,
    /// with the OOM slice scaled by the pressure past the onset and the
    /// stall slice gated on a finite watchdog.
    pub fn training_fault(
        &self,
        query: u64,
        attempt: u32,
        memory_pressure_frac: f64,
    ) -> Option<TrainingFault> {
        if self.is_inert() {
            return None;
        }
        let p = &self.profile;
        let over_onset = ((memory_pressure_frac - p.oom_onset_frac)
            / (1.0 - p.oom_onset_frac).max(f64::MIN_POSITIVE))
        .clamp(0.0, 1.0);
        let oom_prob = p.oom_prob_at_full_pressure * over_onset;
        let stall_prob = if p.timeout_s.is_finite() {
            p.stall_prob
        } else {
            0.0
        };
        let u = seeded_unit(self.seed, SALT_TRAINING, query, u64::from(attempt));
        if u < oom_prob {
            Some(TrainingFault::Oom)
        } else if u < oom_prob + p.crash_prob {
            Some(TrainingFault::Crash)
        } else if u < oom_prob + p.crash_prob + stall_prob {
            Some(TrainingFault::Stall)
        } else {
            None
        }
    }

    /// Whether the first sensor read after query `query` completes is a
    /// transient glitch (discarded and repeated at measurement cost).
    pub fn sensor_glitch(&self, query: u64) -> bool {
        if self.is_inert() || self.profile.sensor_glitch_prob <= 0.0 {
            return false;
        }
        seeded_unit(self.seed, SALT_GLITCH, query, 1) < self.profile.sensor_glitch_prob
    }

    /// How far into attempt `attempt` of query `query` an OOM/crash fault
    /// strikes, as a fraction of the attempt's training time in
    /// `[0.05, 0.95]` (a job never dies at exactly 0 or 100%).
    pub fn fault_point_frac(&self, query: u64, attempt: u32) -> f64 {
        0.05 + 0.9 * seeded_unit(self.seed, SALT_POINT, query, u64::from(attempt))
    }

    /// The uniform `[0, 1)` jitter draw for the backoff after a failed
    /// attempt `attempt` of query `query`.
    pub fn backoff_unit(&self, query: u64, attempt: u32) -> f64 {
        seeded_unit(self.seed, SALT_BACKOFF, query, u64::from(attempt))
    }
}

/// One uniform `[0, 1)` draw from stream `salt` of `seed`, keyed by
/// `(a, b)`: a pure function of its inputs. Every seeded jitter stream in
/// the workspace draws through here under its own salt — the fault plan's
/// decisions, a study's lease and hedge deadlines, the chaos harness's
/// faults and the server's supervision thresholds.
pub fn seeded_unit(seed: u64, salt: u64, a: u64, b: u64) -> f64 {
    // Golden-ratio mixing (the workspace's standard seed derivation) keeps
    // neighbouring `(a, b)` pairs statistically independent.
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = seed ^ salt;
    h = h.wrapping_mul(MIX).wrapping_add(a);
    h = h.wrapping_mul(MIX).wrapping_add(b);
    StdRng::seed_from_u64(h).random_range(0.0..1.0)
}

#[cfg(test)]
// Exact float equality is intended: determinism asserts bit-identical draws.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn none_profile_is_inert_and_draws_nothing() {
        let plan = FaultPlan::new(FaultProfile::none(), 42);
        assert!(plan.is_inert());
        for q in 0..50 {
            assert_eq!(plan.training_fault(q, 1, 0.99), None);
            assert!(!plan.sensor_glitch(q));
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_query_attempt() {
        let a = FaultPlan::new(FaultProfile::oom_heavy(), 7);
        let b = FaultPlan::new(FaultProfile::oom_heavy(), 7);
        for q in 0..100 {
            for attempt in 1..4 {
                assert_eq!(
                    a.training_fault(q, attempt, 0.5),
                    b.training_fault(q, attempt, 0.5)
                );
                assert_eq!(
                    a.fault_point_frac(q, attempt),
                    b.fault_point_frac(q, attempt)
                );
                assert_eq!(a.backoff_unit(q, attempt), b.backoff_unit(q, attempt));
            }
            assert_eq!(a.sensor_glitch(q), b.sensor_glitch(q));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(FaultProfile::flaky_sensor(), 1);
        let b = FaultPlan::new(FaultProfile::flaky_sensor(), 2);
        let differs = (0..200).any(|q| a.sensor_glitch(q) != b.sensor_glitch(q));
        assert!(differs, "seeds 1 and 2 produced identical glitch schedules");
    }

    #[test]
    fn oom_rate_grows_with_memory_pressure() {
        let plan = FaultPlan::new(FaultProfile::oom_heavy(), 3);
        let ooms_at = |pressure: f64| {
            (0..500)
                .filter(|&q| plan.training_fault(q, 1, pressure) == Some(TrainingFault::Oom))
                .count()
        };
        // Below the onset OOM never fires; past it the rate climbs.
        assert_eq!(ooms_at(0.05), 0);
        let mid = ooms_at(0.5);
        let high = ooms_at(1.0);
        assert!(mid > 0, "no OOMs at 50% pressure");
        assert!(high > mid, "OOM rate not increasing: {mid} vs {high}");
    }

    #[test]
    fn stall_requires_finite_watchdog() {
        let mut profile = FaultProfile::oom_heavy();
        profile.stall_prob = 1.0;
        profile.timeout_s = f64::INFINITY;
        let plan = FaultPlan::new(profile, 11);
        for q in 0..100 {
            assert_ne!(plan.training_fault(q, 1, 0.0), Some(TrainingFault::Stall));
        }
    }

    #[test]
    fn flaky_sensor_glitches_at_roughly_its_rate() {
        let plan = FaultPlan::new(FaultProfile::flaky_sensor(), 9);
        let glitches = (0..1000).filter(|&q| plan.sensor_glitch(q)).count();
        assert!(
            (150..450).contains(&glitches),
            "glitch count {glitches} far from the configured 30%"
        );
    }

    #[test]
    fn fault_point_stays_inside_the_attempt() {
        let plan = FaultPlan::new(FaultProfile::oom_heavy(), 5);
        for q in 0..200 {
            let f = plan.fault_point_frac(q, 1);
            assert!((0.05..=0.95).contains(&f), "fault point {f}");
        }
    }

    #[test]
    fn attempts_draw_independent_faults() {
        let plan = FaultPlan::new(FaultProfile::oom_heavy(), 13);
        let differs =
            (0..200).any(|q| plan.training_fault(q, 1, 0.6) != plan.training_fault(q, 2, 0.6));
        assert!(differs, "attempt number never changed the outcome");
    }

    #[test]
    fn parse_knows_every_builtin() {
        for name in [
            "none",
            "flaky-sensor",
            "oom-heavy",
            "drifting-hw",
            "slow-worker",
            "bit-rot",
        ] {
            let p = FaultProfile::parse(name).expect("builtin profile");
            assert_eq!(p.name, name);
        }
        assert!(FaultProfile::parse("chaos-monkey").is_none());
        assert!(FaultProfile::parse("none").is_some_and(|p| p.is_inert()));
        assert!(FaultProfile::parse("oom-heavy").is_some_and(|p| !p.is_inert()));
        assert!(FaultProfile::parse("drifting-hw").is_some_and(|p| !p.is_inert()));
        assert!(FaultProfile::parse("slow-worker").is_some_and(|p| !p.is_inert()));
        assert!(FaultProfile::parse("bit-rot").is_some_and(|p| !p.is_inert()));
    }

    #[test]
    fn drifting_hw_biases_power_linearly_and_injects_nothing_else() {
        let profile = FaultProfile::drifting_hw();
        assert_eq!(profile.power_bias_w(0.0), 0.0);
        assert_eq!(profile.power_bias_w(3600.0), 10.0);
        assert_eq!(profile.power_bias_w(1800.0), 5.0);
        // No transient faults: the only effect is the deterministic bias.
        let plan = FaultPlan::new(profile, 42);
        for q in 0..100 {
            assert_eq!(plan.training_fault(q, 1, 0.99), None);
            assert!(!plan.sensor_glitch(q));
        }
        // The inert profile has zero bias everywhere.
        assert_eq!(FaultProfile::none().power_bias_w(7200.0), 0.0);
    }
}
