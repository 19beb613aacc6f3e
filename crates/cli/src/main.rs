//! `hyperpower` — the command-line face of the reproduction.
//!
//! ```text
//! hyperpower profile --pair cifar-gtx
//! hyperpower run --pair cifar-gtx --method hw-ieci --evals 30 --csv trace.csv
//! ```
//!
//! See `hyperpower help` for the full grammar.

// A terminal program: printing results is the point, not a lint
// violation.
#![allow(clippy::print_stdout, clippy::print_stderr)]

mod args;

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::error::Error;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use args::{parse, Command, StudyArg, USAGE};

use hyperpower::{
    Budget, Budgets, ConstraintOracle, DriftConfig, EarlyTermination, Method, Mode, Objective,
    RetryPolicy, Scenario, SearchSpace, Session, StudySpec,
};
use hyperpower_gpu_sim::{DeviceProfile, FaultProfile, Gpu, TrainingCostModel};
use hyperpower_server::{
    fsck_store, ServerConfig, ServerError, StudyServer, StudySetup, SyntheticObjective,
};

/// Hosts the requested studies in one crash-safe server and drives them
/// to completion with `workers` simulated workers per study per round.
fn serve(
    studies: &[StudyArg],
    config: ServerConfig,
    workers: usize,
    resume: bool,
) -> Result<(), ServerError> {
    let mut server = StudyServer::new(config)?;
    // The BO methods screen candidates through the paper's constraint
    // oracle; profile and fit it once per distinct seed.
    let mut oracles: BTreeMap<u64, ConstraintOracle> = BTreeMap::new();
    for arg in studies {
        let oracle = match arg.method {
            Method::HwCwei | Method::HwIeci => {
                if let Entry::Vacant(slot) = oracles.entry(arg.seed) {
                    let session = Session::new(Scenario::mnist_gtx1070(), arg.seed)
                        .map_err(ServerError::Core)?;
                    println!(
                        "profiled constraint models for seed {} in {:.0} virtual seconds",
                        arg.seed,
                        session.profiling_secs()
                    );
                    slot.insert(session.oracle().clone());
                }
                oracles.get(&arg.seed).cloned()
            }
            Method::Rand | Method::RandWalk => None,
        };
        let setup = StudySetup {
            space: SearchSpace::mnist(),
            gpu: Gpu::new(DeviceProfile::gtx_1070(), arg.seed),
            oracle,
            spec: StudySpec {
                method: arg.method,
                mode: Mode::HyperPower,
                budget: Budget::Evaluations(arg.evals),
                seed: arg.seed,
                budgets: Budgets::default(),
                cost: TrainingCostModel::default(),
                early_termination: Some(EarlyTermination::default()),
                fault_profile: FaultProfile::none(),
                retry: RetryPolicy::default(),
                drift: DriftConfig::default(),
            },
            priority: arg.priority,
        };
        if resume {
            let recovered = server.open_study(&arg.name, setup)?;
            if recovered > 0 {
                println!(
                    "{}: recovered {recovered} committed sample(s) from the journal",
                    arg.name
                );
            }
        } else {
            server.create_study(&arg.name, setup)?;
        }
    }

    let objective = SyntheticObjective;
    let mut now_s = 0.0;
    let mut total_reclaimed = 0usize;
    let mut total_hedged = 0usize;
    loop {
        let mut all_finished = true;
        now_s += 60.0;
        let report = server.tick_hedge(now_s);
        total_reclaimed += report.reclaimed;
        total_hedged += report.hedged.len();
        // Hedged duplicates race the original lease; whichever tell
        // lands first commits, the other resolves as a duplicate.
        for (study, candidate) in report.hedged {
            let result = objective.evaluate(&candidate.decoded, None, candidate.eval_seed)?;
            server.tell(&study, candidate.lease_id, &result)?;
        }
        for arg in studies {
            if server.is_finished(&arg.name)? {
                continue;
            }
            all_finished = false;
            let batch = match server.ask(&arg.name, workers, now_s) {
                Ok(batch) => batch,
                // Backpressure: skip this round, retry once work drains.
                Err(ServerError::Overloaded { .. })
                | Err(ServerError::Backpressure { .. })
                | Err(ServerError::CircuitOpen { .. }) => continue,
                Err(e) => return Err(e),
            };
            for candidate in batch {
                let result = objective.evaluate(&candidate.decoded, None, candidate.eval_seed)?;
                server.tell(&arg.name, candidate.lease_id, &result)?;
            }
        }
        if all_finished {
            break;
        }
    }
    // Supervision summary, printed only when something happened: default
    // (inert) serves keep the legacy output byte-identical.
    if total_reclaimed > 0 || total_hedged > 0 {
        let mut superseded = 0u64;
        for arg in studies {
            let (_, lost) = server.hedge_stats(&arg.name)?;
            superseded += lost;
        }
        println!(
            "supervision: {total_reclaimed} lease(s) reclaimed, {total_hedged} hedged \
             re-dispatch(es), {superseded} superseded"
        );
    }

    for arg in studies {
        let trace = server.trace(&arg.name)?;
        println!(
            "{} / {} / evals {}: {} samples queried, {} evaluated, {:.2} h virtual time",
            arg.name,
            arg.method,
            arg.evals,
            trace.queried(),
            trace.evaluations(),
            trace.total_time_s / 3600.0
        );
        match trace.best_feasible() {
            Some(best) => println!(
                "  best feasible design: {:.2}% test error at {:.1} W",
                best.error * 100.0,
                best.power_w
            ),
            None => println!("  no feasible design found"),
        }
    }
    Ok(())
}

/// Runs one command. Every failure comes back for `main` to print once;
/// an unclean `fsck` exits 1 after its report.
fn execute(command: Command) -> Result<ExitCode, Box<dyn Error>> {
    match command {
        Command::Help => print!("{USAGE}"),
        Command::Serve {
            studies,
            config,
            workers,
            resume,
        } => {
            let root = config.root.display().to_string();
            serve(&studies, config, workers, resume).map_err(|e| -> Box<dyn Error> {
                match e {
                    ServerError::StudyExists(name) => format!(
                        "study {name:?} already has a journal under {root} \
                         (pass --resume to reattach, or pick a fresh --root)"
                    )
                    .into(),
                    e => e.into(),
                }
            })?;
            println!("journals and snapshots under {root}");
        }
        Command::Fsck { root, salvage } => {
            let report = fsck_store(&root, salvage)
                .map_err(|e| format!("cannot scan {}: {e}", root.display()))?;
            println!("{report}");
            // A store with defects is usable again when salvage repaired
            // every study back to a replayable prefix.
            if !(report.clean() || salvage && report.recoverable()) {
                return Ok(ExitCode::FAILURE);
            }
        }
        Command::Profile { scenario, seed } => {
            let name = scenario.name.clone();
            let samples = scenario.profiling_samples;
            let session = Session::new(scenario, seed)?;
            println!(
                "{name}: profiled {samples} configurations in {:.0} virtual seconds",
                session.profiling_secs()
            );
            let models = session.models();
            println!(
                "  power model  : RMSPE {:.2}%",
                models.power.cv_rmspe() * 100.0
            );
            match &models.memory {
                Some(m) => println!("  memory model : RMSPE {:.2}%", m.cv_rmspe() * 100.0),
                None => println!("  memory model : -- (platform has no memory API)"),
            }
            if let Some(l) = &models.latency {
                println!(
                    "  latency model: RMSPE {:.2}% (log-linear)",
                    l.cv_rmspe() * 100.0
                );
            }
        }
        Command::Run {
            scenario,
            method,
            mode,
            budget,
            seed,
            options,
            csv,
        } => {
            let name = scenario.name.clone();
            let chance = scenario.dataset.chance_error;
            let mut session = Session::new(scenario, seed)?;
            let trace = session.run_seeded_with(method, mode, budget, seed, &options)?;
            println!(
                "{name} / {method} / {mode}: {} samples queried, {} evaluated, {:.2} h virtual time",
                trace.queried(),
                trace.evaluations(),
                trace.total_time_s / 3600.0
            );
            // Self-healing summary, printed only when something happened:
            // default (inert) runs keep the legacy output byte-identical.
            let recalibrations = trace.recalibration_count();
            let degradation_events = trace.degradation_count();
            if recalibrations > 0 || degradation_events > 0 || trace.final_drift_rmspe().is_some() {
                let cv = session.models().power.cv_rmspe();
                let live = trace
                    .final_drift_rmspe()
                    .map(|r| format!("{:.2}%", r * 100.0))
                    .unwrap_or_else(|| "--".into());
                println!(
                    "self-healing: {recalibrations} recalibration(s), {degradation_events} \
                     degradation(s), live drift RMSPE {live} (profiling cv {:.2}%)",
                    cv * 100.0
                );
            }
            match trace.best_feasible() {
                Some(best) => println!(
                    "best feasible design: {:.2}% test error at {:.1} W{} (found after {:.2} h)",
                    best.error * 100.0,
                    best.power_w,
                    best.memory_bytes
                        .map(|m| format!(", {:.3} GiB", m as f64 / (1u64 << 30) as f64))
                        .unwrap_or_default(),
                    best.timestamp_s / 3600.0
                ),
                None => println!(
                    "no feasible design found (chance error level is {:.0}%)",
                    chance * 100.0
                ),
            }
            if let Some(path) = csv {
                let file = File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
                trace
                    .write_csv(BufWriter::new(file))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("trace written to {path}");
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = raw.iter().map(String::as_str).collect();
    let result = parse(&refs)
        .map_err(|e| format!("{e}\n\n{USAGE}").into())
        .and_then(execute);
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
