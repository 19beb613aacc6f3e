//! The multi-study ask–tell server.
//!
//! [`StudyServer`] hosts many concurrent named [`Study`]s, each with its
//! own search space, simulated GPU, and durable [`StudyJournal`]. The
//! server is a *state machine over state machines*: it adds exactly the
//! concerns a serving layer owes its callers —
//!
//! * **admission and naming** — studies are keyed by validated names
//!   (journal file stems); creating over live durable state is refused,
//!   [`StudyServer::open_study`] resumes it instead;
//! * **leases** — every ask hands out candidates under deadlines on the
//!   caller's scheduler clock; [`StudyServer::tick_hedge`] reclaims
//!   expired leases so lost workers never wedge a study;
//! * **idempotent tells** — duplicated and reordered deliveries are
//!   absorbed by the study's lease ledger; a tell on a reclaimed lease is
//!   rejected with the typed [`hyperpower::Error::LeaseExpired`] and
//!   changes nothing;
//! * **graceful degradation** — per-study and server-wide outstanding
//!   bounds; at the global bound the server sheds *all* leases of the
//!   lowest-priority study with work outstanding (trace-neutral: shed
//!   candidates are simply re-issued later) before refusing the request
//!   with the typed [`ServerError::Overloaded`];
//! * **crash safety** — every commit is journaled before it is
//!   acknowledged; [`StudyServer::open_study`] rebuilds a killed study by
//!   deterministic replay against its journaled evaluations
//!   ([`Study::replay`], the executor's resume path too) and
//!   byte-verifies the recomputed prefix against the recorded samples
//!   before it writes anything;
//! * **fleet supervision** — a deterministic [`Fleet`] health machine per
//!   worker and per study-as-tenant (`Healthy → Quarantined → Retired`);
//!   quarantined workers never receive a fresh lease
//!   ([`StudyServer::ask_worker`] returns an empty batch);
//! * **hedged re-dispatch** — [`StudyServer::tick_hedge`] re-issues any
//!   candidate whose sole lease has outlived its seeded hedge deadline as
//!   a speculative duplicate for a healthy worker; the first fulfilment
//!   commits at the single existing commit point and the loser resolves
//!   as [`TellOutcome::Duplicate`]. Hedging is trace-neutral by
//!   construction: the candidate's `eval_seed` was fixed at planning
//!   time, so *who* evaluates it cannot change the committed bytes;
//! * **tenant backpressure** — a per-study token bucket that each ask
//!   draws on against the scheduler clock ([`ServerError::Backpressure`])
//!   and a per-study circuit breaker that opens after a seeded run of
//!   consecutive journal failures ([`ServerError::CircuitOpen`]). Both
//!   refuse asks only: a tell finishes work an ask already admitted. Both
//!   are typed refusals; neither ever panics or touches study state.

use std::collections::BTreeMap;
use std::path::PathBuf;

use hyperpower::checkpoint::RunCheckpoint;
use hyperpower::{
    ConstraintOracle, Error, LeasedCandidate, RetryPolicy, SearchSpace, Study, StudySpec,
    TellOutcome, Trace,
};
use hyperpower_gpu_sim::Gpu;

use crate::health::{Fleet, HealthPolicy, HealthState};
use crate::journal::StudyJournal;
use crate::ServerError;

/// Token-bucket capacity per tenant: the asks a study may make in a burst
/// when [`ServerConfig::tenant_rate_per_s`] is set.
const TENANT_BURST: f64 = 8.0;

/// Seed of the supervision streams (probation thresholds, parole
/// durations). Execution-only, like everything else here.
const SUPERVISION_SEED: u64 = 0;

/// Workers: quarantined after 3 + (0–2 seeded) consecutive failures,
/// paroled after 1800 s × (1 + 0.5·u), retired on the fourth quarantine.
const WORKER_HEALTH: HealthPolicy = HealthPolicy {
    probation_failures: 3,
    probation_jitter: 2,
    parole_s: 1800.0,
    parole_jitter_frac: 0.5,
    retire_after: 3,
};

/// Tenants: the circuit breaker opens after 8 + (0–2 seeded) consecutive
/// journal failures and closes on the same parole. Tenants are never
/// retired — a study must always be able to come back.
const TENANT_HEALTH: HealthPolicy = HealthPolicy {
    probation_failures: 8,
    retire_after: u32::MAX,
    ..WORKER_HEALTH
};

/// Execution-level serving knobs. None of these can change a committed
/// trace byte — run identity lives entirely in each study's [`StudySpec`]
/// (journaled via its header) — so every field is free to differ across a
/// server restart.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory holding every study's journal and snapshot.
    pub root: PathBuf,
    /// Maximum hosted studies.
    pub max_studies: usize,
    /// Maximum outstanding leases per study; asks beyond it are refused
    /// with [`ServerError::Overloaded`].
    pub max_outstanding_per_study: usize,
    /// Maximum outstanding leases server-wide; at the bound the server
    /// sheds the lowest-priority study's leases before refusing.
    pub max_outstanding_total: usize,
    /// Lease-deadline policy: `backoff_secs(attempt, jitter)` is the TTL
    /// of issuance `attempt`, so re-issued leases get geometrically more
    /// time (the PR 4 retry/backoff machinery, repurposed).
    pub lease_policy: RetryPolicy,
    /// Snapshot (and journal-rotation) cadence in commits; `0` snapshots
    /// only when a study finishes.
    pub snapshot_every_commits: usize,
    /// Base of the hedge-deadline curve, in scheduler-clock seconds: a
    /// candidate whose *single* outstanding lease is older than
    /// `backoff_secs(attempt, jitter)` on this base (factor and jitter
    /// borrowed from `lease_policy`) gets a speculative duplicate lease
    /// from [`StudyServer::tick_hedge`]. `0` disables hedging.
    pub hedge_after_s: f64,
    /// Tokens per scheduler-clock second each study (tenant) accrues for
    /// `ask` admission, up to a burst of eight; `0` disables the bucket
    /// (unlimited). Tells are never charged.
    pub tenant_rate_per_s: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            root: PathBuf::from("target/study-server"),
            max_studies: 64,
            max_outstanding_per_study: 16,
            max_outstanding_total: 64,
            lease_policy: RetryPolicy {
                max_retries: 0,
                backoff_base_s: 600.0,
                backoff_factor: 2.0,
                backoff_jitter_frac: 0.5,
            },
            snapshot_every_commits: 8,
            hedge_after_s: 900.0,
            tenant_rate_per_s: 0.0,
        }
    }
}

/// Everything a hosted study needs besides its name: the evaluation
/// context the core [`Study`] deliberately does not own.
#[derive(Debug)]
pub struct StudySetup {
    /// The search space candidates are proposed from.
    pub space: SearchSpace,
    /// The study's simulated GPU (sensor streams are per-study state).
    pub gpu: Gpu,
    /// The profiling-time constraint oracle, when the method screens.
    pub oracle: Option<ConstraintOracle>,
    /// Run identity and schedule.
    pub spec: StudySpec,
    /// Shedding priority: under global overload the *lowest* priority
    /// study loses its leases first.
    pub priority: u32,
}

#[derive(Debug)]
struct StudyEntry {
    study: Study,
    space: SearchSpace,
    gpu: Gpu,
    journal: StudyJournal,
    priority: u32,
    /// Token-bucket admission state (tenant backpressure).
    tokens: f64,
    refill_s: f64,
}

/// What one [`StudyServer::tick_hedge`] pass did: expired-lease
/// reclamations and the speculative duplicate leases it issued —
/// `(study name, candidate)` pairs the caller must dispatch to an
/// eligible worker.
#[derive(Debug, Default)]
pub struct TickReport {
    /// Leases whose deadline passed and were reclaimed.
    pub reclaimed: usize,
    /// Speculative duplicate leases issued for overdue candidates.
    pub hedged: Vec<(String, LeasedCandidate)>,
}

/// A crash-safe server hosting many concurrent named studies. See the
/// module docs for the contract.
#[derive(Debug)]
pub struct StudyServer {
    config: ServerConfig,
    studies: BTreeMap<String, StudyEntry>,
    /// Supervision over simulated workers (lease dispatch gating).
    workers: Fleet,
    /// Supervision over studies as tenants: a tenant quarantine *is* the
    /// study's open circuit breaker.
    tenants: Fleet,
    /// High-water mark of every scheduler-clock instant the server has
    /// seen; a failed `tell` (which carries no clock) starts its breaker
    /// parole here.
    clock_s: f64,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl StudyServer {
    /// Creates a server over `config.root` (created if absent). Hosts no
    /// studies yet; durable state on disk is untouched until a study of
    /// that name is created or opened.
    ///
    /// # Errors
    ///
    /// [`ServerError::Core`] when the root directory cannot be created.
    pub fn new(config: ServerConfig) -> Result<Self, ServerError> {
        std::fs::create_dir_all(&config.root).map_err(|e| {
            ServerError::Core(Error::Checkpoint(format!(
                "creating {}: {e}",
                config.root.display()
            )))
        })?;
        Ok(StudyServer {
            config,
            studies: BTreeMap::new(),
            workers: Fleet::new(SUPERVISION_SEED, WORKER_HEALTH),
            tenants: Fleet::new(SUPERVISION_SEED, TENANT_HEALTH),
            clock_s: 0.0,
        })
    }

    /// Outstanding leases across all hosted studies.
    pub fn outstanding_total(&self) -> usize {
        self.studies
            .values()
            .map(|e| e.study.outstanding_leases())
            .sum()
    }

    /// Creates a brand-new study. Refuses names with live durable state on
    /// disk ([`StudyServer::open_study`] resumes those) so an admission
    /// race can never truncate a journal.
    ///
    /// # Errors
    ///
    /// [`ServerError::InvalidStudyName`], [`ServerError::StudyExists`],
    /// [`ServerError::Overloaded`] (at `max_studies`), or journal I/O
    /// failures.
    pub fn create_study(&mut self, name: &str, setup: StudySetup) -> Result<(), ServerError> {
        self.admit(name)?;
        let (journal_path, _) = crate::journal::study_paths(&self.config.root, name);
        if journal_path.exists() {
            return Err(ServerError::StudyExists(name.to_string()));
        }
        self.install(name, setup, None)?;
        Ok(())
    }

    /// Creates the study if no durable state exists, otherwise resumes it
    /// from its journal and snapshot: the study's deterministic schedule
    /// is replayed against the journaled evaluations ([`Study::replay`])
    /// and the recomputed prefix is byte-verified against every recorded
    /// sample. Nothing on disk changes until that verification passes;
    /// then the snapshot is rewritten and the journal rotated down to its
    /// header line, each atomically. Returns the number of committed
    /// samples recovered.
    ///
    /// # Errors
    ///
    /// Everything [`StudyServer::create_study`] raises, plus
    /// [`hyperpower::Error::ResumeMismatch`] (via [`ServerError::Core`])
    /// when the journal belongs to a different run identity, lacks an
    /// evaluation the replay needs, or disagrees with the replay's bytes.
    pub fn open_study(&mut self, name: &str, setup: StudySetup) -> Result<usize, ServerError> {
        self.admit(name)?;
        let recovered = StudyJournal::load(&self.config.root, name)?;
        let committed = recovered.as_ref().map_or(0, |r| r.samples.len());
        self.install(name, setup, recovered)?;
        Ok(committed)
    }

    /// Admission checks shared by create and open.
    fn admit(&self, name: &str) -> Result<(), ServerError> {
        if !valid_name(name) {
            return Err(ServerError::InvalidStudyName(name.to_string()));
        }
        if self.studies.contains_key(name) {
            return Err(ServerError::StudyExists(name.to_string()));
        }
        if self.studies.len() >= self.config.max_studies {
            return Err(ServerError::Overloaded {
                study: name.to_string(),
                outstanding: self.studies.len(),
                limit: self.config.max_studies,
            });
        }
        Ok(())
    }

    /// Builds the entry. Recovered state is checked against the study's
    /// run identity and replayed into the snapshot sink, which holds it in
    /// memory; only a replay that verified is written back.
    fn install(
        &mut self,
        name: &str,
        setup: StudySetup,
        recovered: Option<RunCheckpoint>,
    ) -> Result<(), ServerError> {
        let StudySetup {
            space,
            mut gpu,
            oracle,
            spec,
            priority,
        } = setup;
        let mut study =
            Study::new(spec, oracle.as_ref(), None).with_lease_policy(self.config.lease_policy);
        let run = study.identity();
        let (root, every) = (&self.config.root, self.config.snapshot_every_commits);
        let journal = match recovered {
            None => StudyJournal::create(root, name, &run, every)?,
            Some(recovered) => {
                run.verify(&format!("journal for study {name:?}"), &recovered.header)?;
                StudyJournal::reopen(root, name, &run, every, |snapshot| {
                    // The journal records every evaluation before the
                    // commit that consumes it, so a miss means it lost
                    // non-tail records.
                    study.replay(&space, &mut gpu, &recovered, Some(snapshot), |c| {
                        Err(Error::ResumeMismatch(format!(
                            "replaying study {name:?} reached proposal {} without its \
                             evaluation — evaluations are missing from the journal",
                            c.query
                        )))
                    })
                })?
            }
        };
        self.tenants.register(name);
        self.studies.insert(
            name.to_string(),
            StudyEntry {
                study,
                space,
                gpu,
                journal,
                priority,
                tokens: TENANT_BURST,
                refill_s: self.clock_s,
            },
        );
        Ok(())
    }

    fn entry_mut(&mut self, name: &str) -> Result<&mut StudyEntry, ServerError> {
        self.studies
            .get_mut(name)
            .ok_or_else(|| ServerError::StudyNotFound(name.to_string()))
    }

    fn entry(&self, name: &str) -> Result<&StudyEntry, ServerError> {
        self.studies
            .get(name)
            .ok_or_else(|| ServerError::StudyNotFound(name.to_string()))
    }

    /// Tenant admission of an ask: the circuit breaker first (an open
    /// breaker refuses outright until its parole instant), then the token
    /// bucket. Pure flow control — refusals change no study state (the
    /// token, once granted, is spent even if the ask later fails:
    /// failures are the breaker's concern, not the bucket's).
    fn charge_admission(&mut self, name: &str, now_s: f64) -> Result<(), ServerError> {
        self.clock_s = self.clock_s.max(now_s);
        if let Some(until_s) = self.tenants.parole_until(name) {
            if now_s < until_s {
                return Err(ServerError::CircuitOpen {
                    study: name.to_string(),
                    until_s,
                });
            }
            // Parole instant passed: release before admitting.
            self.tenants.sweep(now_s);
        }
        let rate = self.config.tenant_rate_per_s;
        if rate > 0.0 {
            let entry = self.entry_mut(name)?;
            entry.tokens =
                TENANT_BURST.min(entry.tokens + rate * (now_s - entry.refill_s).max(0.0));
            entry.refill_s = entry.refill_s.max(now_s);
            if entry.tokens < 1.0 {
                return Err(ServerError::Backpressure {
                    study: name.to_string(),
                    retry_after_s: (1.0 - entry.tokens) / rate,
                });
            }
            entry.tokens -= 1.0;
        }
        Ok(())
    }

    /// Feeds the circuit breaker a failed `ask` or `tell`: server-side
    /// failures (journal I/O, replay mismatches) extend the tenant's
    /// streak and eventually open the breaker; lease-lifecycle rejections
    /// are the *caller's* fault and count for nothing. Only a tell's
    /// success resets the streak: most asks write nothing, so an ask's
    /// success says nothing about the store.
    fn note_tenant_failure(&mut self, name: &str, error: &ServerError) {
        match error {
            ServerError::Core(Error::LeaseExpired { .. } | Error::UnknownLease { .. }) => {}
            ServerError::Core(_) => {
                self.tenants.observe_failure(name, self.clock_s);
            }
            _ => {}
        }
    }

    /// Asks study `name` for up to `max` leased candidates, deadlines
    /// stamped relative to the scheduler clock `now_s`.
    ///
    /// Backpressure: an open circuit breaker or a dry token bucket is
    /// refused first ([`ServerError::CircuitOpen`] /
    /// [`ServerError::Backpressure`]); a study at its per-study
    /// outstanding bound is refused outright; at the server-wide bound the
    /// lowest-priority study with leases outstanding is shed first (its
    /// candidates return to its pool — trace-neutral), and only if the
    /// requester itself is that lowest-priority study is the request
    /// refused.
    ///
    /// # Errors
    ///
    /// [`ServerError::StudyNotFound`], [`ServerError::CircuitOpen`],
    /// [`ServerError::Backpressure`], [`ServerError::Overloaded`], or
    /// study/journal errors.
    pub fn ask(
        &mut self,
        name: &str,
        max: usize,
        now_s: f64,
    ) -> Result<Vec<LeasedCandidate>, ServerError> {
        let per_study = self.config.max_outstanding_per_study;
        let global = self.config.max_outstanding_total;
        let outstanding = self.entry(name)?.study.outstanding_leases();
        self.charge_admission(name, now_s)?;
        if outstanding >= per_study {
            return Err(ServerError::Overloaded {
                study: name.to_string(),
                outstanding,
                limit: per_study,
            });
        }
        // Server-wide valve: shed the lowest-priority study holding
        // leases until there is room, refusing only when the requester is
        // itself the lowest priority left. Victim selection is by
        // `(priority, name)` — lowest priority first, lexicographically
        // smallest name breaking ties — comparing names by reference so
        // the scan allocates nothing.
        while self.outstanding_total() >= global {
            let victim = self
                .studies
                .iter()
                .filter(|(_, e)| e.study.outstanding_leases() > 0)
                .min_by_key(|(victim_name, e)| (e.priority, victim_name.as_str()))
                .map(|(victim_name, e)| (victim_name.clone(), e.priority));
            let requester_priority = self.entry(name)?.priority;
            match victim {
                Some((victim_name, victim_priority))
                    if victim_name != name && victim_priority < requester_priority =>
                {
                    self.entry_mut(&victim_name)?.study.reclaim_all();
                }
                _ => {
                    return Err(ServerError::Overloaded {
                        study: name.to_string(),
                        outstanding: self.outstanding_total(),
                        limit: global,
                    })
                }
            }
        }
        let cap = max.min(per_study - outstanding);
        let result: Result<Vec<LeasedCandidate>, ServerError> = (|| {
            let entry = self.entry_mut(name)?;
            let batch = entry.study.ask(
                &entry.space,
                &mut entry.gpu,
                cap,
                now_s,
                Some(&mut entry.journal),
            )?;
            if entry.study.is_finished() {
                entry.journal.flush()?;
            }
            Ok(batch)
        })();
        if let Err(e) = &result {
            self.note_tenant_failure(name, e);
        }
        result
    }

    /// [`StudyServer::ask`] on behalf of a named worker: the worker is
    /// registered on first contact, and if supervision has quarantined or
    /// retired it the batch is empty — **a quarantined worker never
    /// receives a fresh lease**. An empty batch is not an error: the
    /// scheduler just moves on to the next worker.
    ///
    /// # Errors
    ///
    /// Everything [`StudyServer::ask`] raises.
    pub fn ask_worker(
        &mut self,
        name: &str,
        worker: &str,
        max: usize,
        now_s: f64,
    ) -> Result<Vec<LeasedCandidate>, ServerError> {
        self.clock_s = self.clock_s.max(now_s);
        self.workers.register(worker);
        if !self.workers.eligible(worker) {
            return Ok(Vec::new());
        }
        self.ask(name, max, now_s)
    }

    /// Tells study `name` the result for `lease_id`. Duplicates are
    /// absorbed ([`TellOutcome::Duplicate`]); tells for proposals the run
    /// outlived are absorbed ([`TellOutcome::Discarded`]); tells on
    /// reclaimed leases are rejected with the typed
    /// [`hyperpower::Error::LeaseExpired`], state untouched.
    ///
    /// A tell finishes work its ask already admitted, so neither the
    /// breaker nor the token bucket refuses it. Its outcome feeds the
    /// breaker: a journal failure extends the tenant's streak and a
    /// success resets it, while the lease-lifecycle rejections above are
    /// caller faults and never count.
    ///
    /// # Errors
    ///
    /// [`ServerError::StudyNotFound`], or study/journal errors (including
    /// the lease-lifecycle rejections above).
    pub fn tell(
        &mut self,
        name: &str,
        lease_id: u64,
        result: &hyperpower::EvaluationResult,
    ) -> Result<TellOutcome, ServerError> {
        let outcome: Result<TellOutcome, ServerError> = (|| {
            let entry = self.entry_mut(name)?;
            let outcome =
                entry
                    .study
                    .tell(&mut entry.gpu, lease_id, result, Some(&mut entry.journal))?;
            if entry.study.is_finished() {
                entry.journal.flush()?;
            }
            Ok(outcome)
        })();
        match &outcome {
            Ok(_) => self.tenants.observe_success(name),
            Err(e) => self.note_tenant_failure(name, e),
        }
        outcome
    }

    /// The full maintenance pass: reclaims expired leases, sweeps the
    /// worker and tenant fleets, and — when hedging is enabled and at
    /// least one worker is eligible — re-issues every candidate whose
    /// sole outstanding lease has outlived its seeded hedge deadline as a
    /// speculative duplicate. The caller dispatches the returned
    /// `(study, candidate)` pairs to eligible workers; whichever lease
    /// fulfils first commits, the sibling resolves as
    /// [`TellOutcome::Duplicate`]. Trace-neutral: the duplicate carries
    /// the same planning-time `eval_seed`, so committed bytes cannot
    /// depend on which copy wins.
    pub fn tick_hedge(&mut self, now_s: f64) -> TickReport {
        self.clock_s = self.clock_s.max(now_s);
        self.workers.sweep(now_s);
        self.tenants.sweep(now_s);
        let mut report = TickReport::default();
        let hedge_after_s = self.config.hedge_after_s;
        let hedging = hedge_after_s > 0.0 && self.workers.any_eligible();
        for (name, entry) in &mut self.studies {
            report.reclaimed += entry.study.reclaim_expired(now_s);
            if hedging {
                for candidate in entry.study.hedge_overdue(now_s, hedge_after_s) {
                    report.hedged.push((name.clone(), candidate));
                }
            }
        }
        report
    }

    /// Records a unit of work a worker completed successfully.
    pub fn note_worker_success(&mut self, worker: &str, now_s: f64) {
        self.clock_s = self.clock_s.max(now_s);
        self.workers.observe_success(worker);
    }

    /// Records a worker failure (crash, stall, lost result). Returns the
    /// worker's health state after the observation — `Quarantined` or
    /// `Retired` means it gets no fresh leases.
    pub fn note_worker_failure(&mut self, worker: &str, now_s: f64) -> HealthState {
        self.clock_s = self.clock_s.max(now_s);
        self.workers.observe_failure(worker, now_s)
    }

    /// The worker's current health state, if it has ever been seen.
    pub fn worker_state(&self, worker: &str) -> Option<HealthState> {
        self.workers.state(worker)
    }

    /// The worker supervision fleet (read-only).
    pub fn workers(&self) -> &Fleet {
        &self.workers
    }

    /// The study's tenant health state (`Quarantined` means its circuit
    /// breaker is open), if the study is hosted.
    pub fn tenant_state(&self, name: &str) -> Option<HealthState> {
        self.tenants.state(name)
    }

    /// `(hedges issued, hedges superseded)` counters of study `name` —
    /// duplicates issued by [`StudyServer::tick_hedge`] and sibling
    /// leases resolved by a first fulfilment.
    ///
    /// # Errors
    ///
    /// [`ServerError::StudyNotFound`].
    pub fn hedge_stats(&self, name: &str) -> Result<(u64, u64), ServerError> {
        let entry = self.entry(name)?;
        Ok((entry.study.hedges_issued(), entry.study.hedges_superseded()))
    }

    /// Whether study `name` has finished its run.
    ///
    /// # Errors
    ///
    /// [`ServerError::StudyNotFound`].
    pub fn is_finished(&self, name: &str) -> Result<bool, ServerError> {
        Ok(self.entry(name)?.study.is_finished())
    }

    /// Committed samples of study `name`.
    ///
    /// # Errors
    ///
    /// [`ServerError::StudyNotFound`].
    pub fn committed(&self, name: &str) -> Result<usize, ServerError> {
        Ok(self.entry(name)?.study.committed())
    }

    /// A snapshot of study `name`'s committed trace.
    ///
    /// # Errors
    ///
    /// [`ServerError::StudyNotFound`].
    pub fn trace(&self, name: &str) -> Result<Trace, ServerError> {
        Ok(self.entry(name)?.study.trace())
    }
}
