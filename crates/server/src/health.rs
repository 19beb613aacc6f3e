//! Deterministic health tracking for workers and tenants.
//!
//! A [`Fleet`] watches a set of named members — simulated workers pulling
//! leases, or studies acting as tenants — and walks each one through a
//! three-state machine:
//!
//! ```text
//! Healthy ──failure streak──▶ Quarantined ──parole──▶ Healthy
//!                                  │
//!                                  └─ too many quarantines ─▶ Retired
//! ```
//!
//! Every transition is a pure function of `(fleet seed, member name,
//! observation sequence, scheduler clock)`: the failure streak that trips
//! a quarantine and the parole duration are [`seeded_unit`] draws (one
//! salt per decision kind, keyed by an FNV-1a hash of the member name and
//! its quarantine count), so two runs with the same seed quarantine the
//! same member at the same instant.
//! Health is **execution-only** state — it gates which worker receives a
//! lease, never which candidate is proposed — so it can never change a
//! committed trace byte.

use std::collections::BTreeMap;

use hyperpower_gpu_sim::seeded_unit;

/// Salt for the quarantine (probation) threshold draw.
const SALT_PROBATION: u64 = 0x4EA7_0001;
/// Salt for the parole-duration draw.
const SALT_PAROLE: u64 = 0x4EA7_0002;

/// Where a member stands in the supervision state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Completing work, or not yet failed enough: eligible for leases.
    Healthy,
    /// Tripped its seeded failure threshold: no fresh leases until its
    /// parole instant passes on the scheduler clock.
    Quarantined,
    /// Quarantined once too often: permanently out of the rotation.
    Retired,
}

impl HealthState {
    /// Stable lower-snake name for logs and reports.
    pub fn wire_name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Quarantined => "quarantined",
            HealthState::Retired => "retired",
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// Constants of the supervision state machine. Execution-only: none of
/// these participate in trace identity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HealthPolicy {
    /// Base consecutive-failure count that trips a quarantine.
    pub(crate) probation_failures: u32,
    /// Seeded extra failures tolerated on top of the base: the effective
    /// threshold is `probation_failures + draw(0..=probation_jitter)`,
    /// re-drawn per member per quarantine so thundering herds stagger.
    pub(crate) probation_jitter: u32,
    /// Base quarantine (parole) duration in scheduler-clock seconds.
    pub(crate) parole_s: f64,
    /// Seeded multiplicative jitter on the parole duration: the effective
    /// duration is `parole_s * (1 + parole_jitter_frac * unit)`.
    pub(crate) parole_jitter_frac: f64,
    /// Quarantine count past which a member is retired for good.
    pub(crate) retire_after: u32,
}

/// Per-member supervision record.
#[derive(Debug, Clone)]
struct MemberRecord {
    state: HealthState,
    consecutive_failures: u32,
    quarantines: u32,
    parole_until_s: f64,
}

/// A deterministic supervisor over a set of named members.
///
/// Used twice by the server: once over simulated **workers** (gating
/// lease dispatch and hedge targets) and once over studies as **tenants**
/// (a tenant quarantine *is* the study's circuit breaker).
#[derive(Debug, Clone)]
pub struct Fleet {
    seed: u64,
    policy: HealthPolicy,
    members: BTreeMap<String, MemberRecord>,
}

impl Fleet {
    /// A fleet with no members yet; they register on first contact.
    pub(crate) fn new(seed: u64, policy: HealthPolicy) -> Self {
        Fleet {
            seed,
            policy,
            members: BTreeMap::new(),
        }
    }

    /// The member's record, registered on first contact; only then is the
    /// key copied, since every ask and tell reaches here.
    fn record(&mut self, key: &str) -> &mut MemberRecord {
        if !self.members.contains_key(key) {
            self.members.insert(
                key.to_string(),
                MemberRecord {
                    state: HealthState::Healthy,
                    consecutive_failures: 0,
                    quarantines: 0,
                    parole_until_s: 0.0,
                },
            );
        }
        let Some(member) = self.members.get_mut(key) else {
            unreachable!("member {key:?} was registered above");
        };
        member
    }

    /// Register a member (idempotent); new members start `Healthy`.
    pub(crate) fn register(&mut self, key: &str) {
        self.record(key);
    }

    /// A completed unit of work: the failure streak resets. Quarantined
    /// and retired members stay put — only parole (or nothing) brings
    /// them back.
    pub(crate) fn observe_success(&mut self, key: &str) {
        self.record(key).consecutive_failures = 0;
    }

    /// A failed unit of work. Extends the streak and, once the seeded
    /// probation threshold is crossed, quarantines the member (or retires
    /// it if it has been quarantined `retire_after` times already).
    /// Returns the member's state after the observation.
    pub(crate) fn observe_failure(&mut self, key: &str, now_s: f64) -> HealthState {
        let (seed, policy) = (self.seed, self.policy);
        let member = self.record(key);
        if matches!(
            member.state,
            HealthState::Quarantined | HealthState::Retired
        ) {
            return member.state;
        }
        member.consecutive_failures = member.consecutive_failures.saturating_add(1);
        let key_hash = fnv1a(key.as_bytes());
        let slack = (seeded_unit(
            seed,
            SALT_PROBATION,
            key_hash,
            u64::from(member.quarantines),
        ) * f64::from(policy.probation_jitter + 1))
        .floor() as u32;
        let threshold = policy
            .probation_failures
            .saturating_add(slack.min(policy.probation_jitter));
        if member.consecutive_failures >= threshold {
            member.quarantines = member.quarantines.saturating_add(1);
            member.consecutive_failures = 0;
            if member.quarantines > policy.retire_after {
                member.state = HealthState::Retired;
            } else {
                let unit = seeded_unit(seed, SALT_PAROLE, key_hash, u64::from(member.quarantines));
                member.state = HealthState::Quarantined;
                member.parole_until_s =
                    now_s + policy.parole_s * (1.0 + policy.parole_jitter_frac * unit);
            }
        }
        member.state
    }

    /// Advance the scheduler clock: quarantined members whose parole
    /// instant has passed return to `Healthy` with a clean streak.
    pub(crate) fn sweep(&mut self, now_s: f64) {
        for member in self.members.values_mut() {
            if member.state == HealthState::Quarantined && now_s >= member.parole_until_s {
                member.state = HealthState::Healthy;
                member.consecutive_failures = 0;
            }
        }
    }

    /// The member's current state, if it has ever been seen.
    pub fn state(&self, key: &str) -> Option<HealthState> {
        self.members.get(key).map(|m| m.state)
    }

    /// When a quarantined member's parole instant passes. `None` unless
    /// currently quarantined.
    pub fn parole_until(&self, key: &str) -> Option<f64> {
        self.members
            .get(key)
            .filter(|m| m.state == HealthState::Quarantined)
            .map(|m| m.parole_until_s)
    }

    /// Whether this member may receive fresh work. Unknown members are
    /// trusted (they register on first contact); only `Healthy` members
    /// are eligible.
    pub fn eligible(&self, key: &str) -> bool {
        matches!(self.state(key), None | Some(HealthState::Healthy))
    }

    /// Whether *any* registered member is eligible — or no member has
    /// registered at all (an empty fleet does not block dispatch).
    pub fn any_eligible(&self) -> bool {
        self.members.is_empty() || self.members.keys().any(|k| self.eligible(k))
    }

    /// `(healthy, quarantined, retired)` counts for summaries.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for member in self.members.values() {
            match member.state {
                HealthState::Healthy => counts.0 += 1,
                HealthState::Quarantined => counts.1 += 1,
                HealthState::Retired => counts.2 += 1,
            }
        }
        counts
    }
}

/// FNV-1a over the member name, so string keys feed the u64 salt idiom.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: HealthPolicy = HealthPolicy {
        probation_failures: 2,
        probation_jitter: 1,
        parole_s: 50.0,
        parole_jitter_frac: 0.5,
        retire_after: 2,
    };

    #[test]
    fn unknown_members_are_trusted_and_register_healthy() {
        let mut fleet = Fleet::new(7, POLICY);
        assert!(fleet.eligible("w0"));
        assert_eq!(fleet.state("w0"), None);
        fleet.register("w0");
        assert_eq!(fleet.state("w0"), Some(HealthState::Healthy));
    }

    #[test]
    fn failure_streaks_quarantine_and_parole_releases() {
        let mut fleet = Fleet::new(7, POLICY);
        fleet.register("w0");
        let mut state = HealthState::Healthy;
        let mut failures = 0;
        while state != HealthState::Quarantined {
            failures += 1;
            assert!(failures <= 3, "threshold is at most base + jitter = 3");
            state = fleet.observe_failure("w0", 10.0);
        }
        assert!(failures >= 2, "threshold is at least the base of 2");
        assert!(!fleet.eligible("w0"));
        let until = fleet.parole_until("w0").expect("quarantined");
        assert!(until > 10.0 + 50.0 - 1e-9 && until <= 10.0 + 75.0 + 1e-9);
        fleet.sweep(until - 1.0);
        assert_eq!(fleet.state("w0"), Some(HealthState::Quarantined));
        fleet.sweep(until);
        assert_eq!(fleet.state("w0"), Some(HealthState::Healthy));
        assert!(fleet.eligible("w0"));
    }

    #[test]
    fn repeat_offenders_are_retired() {
        let mut fleet = Fleet::new(7, POLICY);
        fleet.register("w0");
        let mut now = 0.0;
        let mut quarantines = 0;
        // retire_after = 2: the third quarantine-worthy streak retires.
        while fleet.state("w0") != Some(HealthState::Retired) {
            now += 1.0;
            let state = fleet.observe_failure("w0", now);
            if state == HealthState::Quarantined {
                quarantines += 1;
                let until = fleet.parole_until("w0").expect("quarantined");
                now = until;
                fleet.sweep(now);
            }
            assert!(now < 1e6, "must retire eventually");
        }
        assert_eq!(quarantines, 2);
        assert!(!fleet.eligible("w0"));
        // Retirement is permanent: no sweep or success resurrects it.
        fleet.sweep(now + 1e5);
        fleet.observe_success("w0");
        assert_eq!(fleet.state("w0"), Some(HealthState::Retired));
    }

    #[test]
    fn successes_reset_the_streak() {
        let mut fleet = Fleet::new(7, POLICY);
        fleet.register("w0");
        for round in 0..20 {
            let state = fleet.observe_failure("w0", f64::from(round));
            assert_eq!(state, HealthState::Healthy, "streak never completes");
            fleet.observe_success("w0");
        }
    }

    #[test]
    fn transitions_are_a_pure_function_of_seed_and_observations() {
        let run = |seed: u64| {
            let mut fleet = Fleet::new(seed, POLICY);
            let mut log = Vec::new();
            for step in 0..40u32 {
                let key = format!("w{}", step % 3);
                let state = fleet.observe_failure(&key, f64::from(step));
                log.push((key, state));
                if step % 7 == 0 {
                    fleet.sweep(f64::from(step) + 60.0);
                }
            }
            log
        };
        assert_eq!(run(11), run(11), "same seed, same trajectory");
        assert_ne!(
            run(11).iter().map(|(_, s)| *s).collect::<Vec<_>>(),
            run(4242).iter().map(|(_, s)| *s).collect::<Vec<_>>(),
            "different seeds stagger the thresholds"
        );
    }

    #[test]
    fn census_counts_every_state() {
        let mut fleet = Fleet::new(7, POLICY);
        fleet.register("a");
        fleet.register("b");
        fleet.register("c");
        assert_eq!(fleet.census(), (3, 0, 0));
        while fleet.state("c") != Some(HealthState::Retired) {
            if fleet.observe_failure("c", 0.0) == HealthState::Quarantined {
                fleet.sweep(fleet.parole_until("c").expect("quarantined"));
            }
        }
        while fleet.observe_failure("b", 0.0) != HealthState::Quarantined {}
        assert_eq!(fleet.census(), (1, 1, 1));
    }
}
