//! Hand-rolled argument parsing for the `hyperpower` binary.
//!
//! Deliberately dependency-free: the grammar is tiny (one subcommand, a
//! handful of `--key value` options), and keeping it in plain Rust makes
//! the whole workspace buildable from the vendored crate set. Each
//! command parses straight into the library's own values, so every
//! default comes from the library.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use hyperpower::{Budget, CheckpointConfig, ExecutorOptions, Method, Mode, Scenario};
use hyperpower_gpu_sim::FaultProfile;
use hyperpower_server::ServerConfig;

/// Parsed command line.
// `Run` holds a whole scenario and executor setup; a command is built
// once per process, so its size does not matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Command {
    /// `hyperpower profile --pair <pair>`: profile the platform and print
    /// the fitted model diagnostics.
    Profile {
        /// The pair's scenario, with `--samples` as its profiling sample
        /// count `L`.
        scenario: Scenario,
        /// RNG seed.
        seed: u64,
    },
    /// `hyperpower run --pair <pair> --method <m>`: one optimization run,
    /// printing the trace summary (and optionally a CSV dump).
    Run {
        /// The pair's scenario.
        scenario: Scenario,
        /// Search method.
        method: Method,
        /// Enhancement mode.
        mode: Mode,
        /// Stop criterion.
        budget: Budget,
        /// RNG seed.
        seed: u64,
        /// Workers, faults, checkpointing, resume and self-healing.
        /// Without `--workers` the worker count comes from the
        /// `HYPERPOWER_WORKERS` environment variable.
        options: ExecutorOptions,
        /// Write the full per-sample trace as CSV to this path.
        csv: Option<String>,
    },
    /// `hyperpower serve --study <SPEC>...`: host several named studies in
    /// one crash-safe ask–tell server and drive them to completion with
    /// simulated workers.
    Serve {
        /// The studies to host, in command-line order.
        studies: Vec<StudyArg>,
        /// Durability root, snapshot cadence, hedging and admission rate.
        config: ServerConfig,
        /// Simulated workers per study per scheduling round.
        workers: usize,
        /// Reattach to existing journals instead of requiring fresh names.
        resume: bool,
    },
    /// `hyperpower fsck --root DIR [--salvage]`: scan a study store's
    /// journals and snapshots for integrity defects (corrupt frames,
    /// truncated tails, stale temps, header mismatches), optionally
    /// salvaging by truncating to the last valid frame.
    Fsck {
        /// The store directory to scan.
        root: PathBuf,
        /// Repair what determinism makes safe to repair.
        salvage: bool,
    },
    /// `hyperpower help`: usage text.
    Help,
}

/// One `--study NAME:METHOD:EVALS[:SEED[:PRIORITY]]` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyArg {
    /// Study name (journal/snapshot file stem).
    pub name: String,
    /// Search method.
    pub method: Method,
    /// Evaluation budget.
    pub evals: usize,
    /// RNG seed (default 0).
    pub seed: u64,
    /// Shedding priority — higher wins under global backpressure
    /// (default 1).
    pub priority: u32,
}

fn parse_study_arg(s: &str) -> Result<StudyArg, ParseError> {
    let parts: Vec<&str> = s.split(':').collect();
    if !(3..=5).contains(&parts.len()) {
        return Err(ParseError(format!(
            "--study expects NAME:METHOD:EVALS[:SEED[:PRIORITY]], got '{s}'"
        )));
    }
    let name = parts[0].to_string();
    if name.is_empty() {
        return Err(ParseError("--study name must be non-empty".into()));
    }
    let method = parse_method(parts[1])?;
    let evals: usize = parts[2]
        .parse()
        .map_err(|_| ParseError(format!("--study '{s}': EVALS expects an integer")))?;
    if evals == 0 {
        return Err(ParseError(format!("--study '{s}': EVALS must be positive")));
    }
    let seed: u64 = match parts.get(3) {
        Some(raw) => raw
            .parse()
            .map_err(|_| ParseError(format!("--study '{s}': SEED expects an integer")))?,
        None => 0,
    };
    let priority: u32 = match parts.get(4) {
        Some(raw) => raw
            .parse()
            .map_err(|_| ParseError(format!("--study '{s}': PRIORITY expects an integer")))?,
        None => 1,
    };
    Ok(StudyArg {
        name,
        method,
        evals,
        seed,
        priority,
    })
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

pub const USAGE: &str = "\
hyperpower — power- and memory-constrained hyper-parameter optimization

USAGE:
  hyperpower profile --pair <PAIR> [--samples N] [--seed N]
  hyperpower run --pair <PAIR> --method <METHOD> [--mode MODE]
                 [--evals N | --hours H] [--seed N] [--workers N]
                 [--fault-profile NAME] [--checkpoint PATH]
                 [--checkpoint-every N] [--resume PATH] [--csv PATH]
                 [--recalibrate] [--drift-threshold T] [--safety-margin F]
  hyperpower serve --study NAME:METHOD:EVALS[:SEED[:PRIORITY]] ...
                   [--root DIR] [--workers N] [--snapshot-every N]
                   [--resume] [--hedge-after SECS] [--tenant-rate R]
  hyperpower fsck [--root DIR] [--salvage]
  hyperpower help

PAIRS:    mnist-gtx | cifar-gtx | mnist-tegra | cifar-tegra
METHODS:  rand | rand-walk | hw-cwei | hw-ieci
MODES:    default | hyperpower        (default: hyperpower)
BUDGETS:  --evals N (function evaluations) or --hours H (virtual wall
          clock); default: the pair's paper budget (2 h / 5 h).
WORKERS:  --workers N evaluates candidates on N threads. The result is
          bit-identical for every N; only wall-clock changes. Default:
          the HYPERPOWER_WORKERS environment variable, then 1.
FAULTS:   --fault-profile injects a deterministic, seeded fault schedule:
          none | flaky-sensor | oom-heavy | drifting-hw | slow-worker |
          bit-rot. Failed trials are
          retried with backoff charged to virtual time; configurations
          that exhaust their retries are quarantined; drifting-hw also
          biases the power sensor linearly in virtual time.
HEALING:  --recalibrate refits the constraint models online when the
          measured drift RMSPE crosses --drift-threshold (default 0.15).
          --safety-margin F tightens the predicted-feasible region by a
          fraction F of each budget per measured constraint violation
          (and relaxes it again after sustained clean commits). Both are
          deterministic: commits are the only observation points, so the
          trace stays bit-identical across --workers.
RESUME:   --checkpoint PATH persists committed results during the run
          (atomically, every --checkpoint-every commits; default 1).
          --resume PATH restarts an interrupted run from a checkpoint:
          the run replays its recorded evaluations, checks the recorded
          samples bit for bit before it goes on, and the final trace is
          bit-identical to an uninterrupted run.
SERVER:   serve hosts several named MNIST studies in one crash-safe
          ask-tell server: candidates go out under leases, tells are
          idempotent, and every study is journaled (write-ahead) and
          snapshotted (atomically, every --snapshot-every commits;
          default 8) under --root (default target/study-server). Kill the
          process at any instant and re-run with --resume: each study
          recovers and finishes with the exact bytes of an uninterrupted
          run. PRIORITY (default 1) settles who is shed first under
          global backpressure; higher wins. --hedge-after SECS re-issues
          any candidate whose lease has been silent that long (plus
          seeded jitter) as a speculative duplicate on a healthy worker —
          trace-neutral, first fulfilment wins (0 disables).
          --tenant-rate R admits at most R asks per virtual second per
          study through a token bucket (a refused ask waits for a later
          round, never a stall; tells are never refused; 0 disables).
FSCK:     fsck scans every study under --root (default
          target/study-server): journal records and snapshots are
          CRC32-framed, so bit-rot, truncated tails, stale temp files
          and snapshot/journal header mismatches are all detected and
          reported. With --salvage it repairs what determinism makes
          safe: truncate the journal to its last valid frame, sweep
          stale temps, drop a defective snapshot when the journal still
          holds the full history — replay then reconverges to the exact
          committed bytes.
";

fn parse_pair(s: &str) -> Result<Scenario, ParseError> {
    match s {
        "mnist-gtx" => Ok(Scenario::mnist_gtx1070()),
        "cifar-gtx" => Ok(Scenario::cifar10_gtx1070()),
        "mnist-tegra" => Ok(Scenario::mnist_tegra_tx1()),
        "cifar-tegra" => Ok(Scenario::cifar10_tegra_tx1()),
        other => Err(ParseError(format!(
            "unknown pair '{other}' (expected one of: mnist-gtx, cifar-gtx, mnist-tegra, \
             cifar-tegra)"
        ))),
    }
}

fn parse_method(s: &str) -> Result<Method, ParseError> {
    match s {
        "rand" => Ok(Method::Rand),
        "rand-walk" => Ok(Method::RandWalk),
        "hw-cwei" => Ok(Method::HwCwei),
        "hw-ieci" => Ok(Method::HwIeci),
        other => Err(ParseError(format!(
            "unknown method '{other}' (expected rand, rand-walk, hw-cwei or hw-ieci)"
        ))),
    }
}

fn parse_mode(s: &str) -> Result<Mode, ParseError> {
    match s {
        "default" => Ok(Mode::Default),
        "hyperpower" => Ok(Mode::HyperPower),
        other => Err(ParseError(format!(
            "unknown mode '{other}' (expected default or hyperpower)"
        ))),
    }
}

fn parse_fault_profile(s: &str) -> Result<FaultProfile, ParseError> {
    FaultProfile::parse(s).ok_or_else(|| {
        ParseError(format!(
            "unknown fault profile '{s}' (expected none, flaky-sensor, oom-heavy, drifting-hw, \
             slow-worker or bit-rot)"
        ))
    })
}

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, ParseError> {
    it.next()
        .ok_or_else(|| ParseError(format!("flag {flag} requires a value")))
}

/// The integer after `flag`.
fn integer<'a, T: FromStr>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<T, ParseError> {
    take_value(flag, it)?
        .parse()
        .map_err(|_| ParseError(format!("{flag} expects an integer")))
}

/// `n`, unless it is zero.
fn positive(flag: &str, n: usize) -> Result<usize, ParseError> {
    match n {
        0 => Err(ParseError(format!("{flag} must be positive"))),
        n => Ok(n),
    }
}

/// The positive integer after `flag`.
fn count<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<usize, ParseError> {
    positive(flag, integer(flag, it)?)
}

/// The number after `flag`, if `valid`; otherwise the error says the
/// flag must be `domain`.
fn number<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
    domain: &str,
    valid: fn(f64) -> bool,
) -> Result<f64, ParseError> {
    let x: f64 = take_value(flag, it)?
        .parse()
        .map_err(|_| ParseError(format!("{flag} expects a number")))?;
    if valid(x) {
        Ok(x)
    } else {
        Err(ParseError(format!("{flag} must be {domain}")))
    }
}

/// The positive, finite number after `flag`.
fn positive_number<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<f64, ParseError> {
    number(flag, it, "positive and finite", |x| {
        x.is_finite() && x > 0.0
    })
}

/// The non-negative, finite number after `flag`, a `quantity` such as
/// "number of seconds".
fn non_negative<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
    quantity: &str,
) -> Result<f64, ParseError> {
    number(flag, it, &format!("a non-negative {quantity}"), |x| {
        x.is_finite() && x >= 0.0
    })
}

fn unknown_flag(flag: &str) -> ParseError {
    ParseError(format!("unknown flag '{flag}'"))
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] with a user-facing message for unknown
/// subcommands, flags, values, or missing required options.
pub fn parse(args: &[&str]) -> Result<Command, ParseError> {
    let mut it = args.iter().copied();
    let sub = it.next().unwrap_or("help");
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "profile" => {
            let mut scenario = None;
            let mut samples = None;
            let mut seed = 0;
            while let Some(flag) = it.next() {
                match flag {
                    "--pair" => scenario = Some(parse_pair(take_value(flag, &mut it)?)?),
                    "--samples" => samples = Some(integer(flag, &mut it)?),
                    "--seed" => seed = integer(flag, &mut it)?,
                    other => return Err(unknown_flag(other)),
                }
            }
            let mut scenario = scenario.ok_or_else(|| ParseError("--pair is required".into()))?;
            if let Some(n) = samples {
                scenario.profiling_samples = positive("--samples", n)?;
            }
            Ok(Command::Profile { scenario, seed })
        }
        "run" => {
            let mut scenario = None;
            let mut method = None;
            let mut mode = Mode::HyperPower;
            let mut budget = None;
            let mut seed = 0;
            let mut options = ExecutorOptions::from_env();
            let mut checkpoint = None;
            let mut checkpoint_every = None;
            let mut csv = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--pair" => scenario = Some(parse_pair(take_value(flag, &mut it)?)?),
                    "--method" => method = Some(parse_method(take_value(flag, &mut it)?)?),
                    "--mode" => mode = parse_mode(take_value(flag, &mut it)?)?,
                    "--evals" => budget = Some(Budget::Evaluations(integer(flag, &mut it)?)),
                    "--hours" => {
                        budget = Some(Budget::VirtualHours(positive_number(flag, &mut it)?))
                    }
                    "--seed" => seed = integer(flag, &mut it)?,
                    "--workers" => options = options.with_workers(count(flag, &mut it)?),
                    "--fault-profile" => {
                        let profile = parse_fault_profile(take_value(flag, &mut it)?)?;
                        options = options.with_fault_profile(profile);
                    }
                    "--checkpoint" => checkpoint = Some(take_value(flag, &mut it)?),
                    "--checkpoint-every" => checkpoint_every = Some(count(flag, &mut it)?),
                    "--resume" => options = options.with_resume_from(take_value(flag, &mut it)?),
                    "--csv" => csv = Some(take_value(flag, &mut it)?.to_string()),
                    "--recalibrate" => options = options.with_recalibrate(true),
                    "--drift-threshold" => {
                        options = options.with_drift_threshold(positive_number(flag, &mut it)?)
                    }
                    "--safety-margin" => {
                        let margin = number(flag, &mut it, "a fraction in (0, 1)", |f| {
                            f > 0.0 && f < 1.0
                        })?;
                        options = options.with_safety_margin(margin);
                    }
                    other => return Err(unknown_flag(other)),
                }
            }
            let scenario = scenario.ok_or_else(|| ParseError("--pair is required".into()))?;
            let method = method.ok_or_else(|| ParseError("--method is required".into()))?;
            if let Some(path) = checkpoint {
                let mut config = CheckpointConfig::every_commit(path);
                if let Some(n) = checkpoint_every {
                    config.every_commits = n;
                }
                options = options.with_checkpoint(config);
            }
            Ok(Command::Run {
                budget: budget.unwrap_or(Budget::VirtualHours(scenario.time_budget_hours)),
                scenario,
                method,
                mode,
                seed,
                options,
                csv,
            })
        }
        "serve" => {
            let mut studies = Vec::new();
            let mut config = ServerConfig::default();
            let mut workers = 1;
            let mut resume = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--study" => studies.push(parse_study_arg(take_value(flag, &mut it)?)?),
                    "--root" => config.root = take_value(flag, &mut it)?.into(),
                    "--hedge-after" => {
                        config.hedge_after_s = non_negative(flag, &mut it, "number of seconds")?
                    }
                    "--tenant-rate" => {
                        config.tenant_rate_per_s = non_negative(flag, &mut it, "rate per second")?
                    }
                    "--workers" => workers = count(flag, &mut it)?,
                    "--snapshot-every" => config.snapshot_every_commits = count(flag, &mut it)?,
                    "--resume" => resume = true,
                    other => return Err(unknown_flag(other)),
                }
            }
            if studies.is_empty() {
                return Err(ParseError("at least one --study is required".into()));
            }
            // Refused here, before any study is admitted: the server would
            // write the first study's journal and then refuse the second.
            for (i, study) in studies.iter().enumerate() {
                if studies[..i].iter().any(|s| s.name == study.name) {
                    let name = &study.name;
                    return Err(ParseError(format!("study name \"{name}\" is given twice")));
                }
            }
            Ok(Command::Serve {
                studies,
                config,
                workers,
                resume,
            })
        }
        "fsck" => {
            let mut root = ServerConfig::default().root;
            let mut salvage = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--root" => root = take_value(flag, &mut it)?.into(),
                    "--salvage" => salvage = true,
                    other => return Err(unknown_flag(other)),
                }
            }
            Ok(Command::Fsck { root, salvage })
        }
        other => Err(ParseError(format!(
            "unknown subcommand '{other}' (expected profile, run, serve, fsck or help)"
        ))),
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fields the fuzzed `--study` values are built from: empty, every
    /// method name and near misses, integers at and just past the `u32`
    /// and `u64` limits, signed, spaced and malformed numbers, and
    /// characters of one to four UTF-8 bytes, NUL among them.
    const STUDY_FIELDS: &[&str] = &[
        "",
        "alpha",
        "é😀",
        "\u{0}",
        "rand",
        "rand-walk",
        "hw-cwei",
        "hw-ieci",
        "hw-",
        "RAND",
        "0",
        "1",
        "6",
        "+7",
        "-1",
        " 7",
        "7é",
        "1e3",
        "0x10",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
    ];

    proptest! {
        #[test]
        fn study_values_parse_or_fail_typed(
            fields in collection::vec(sample::select(STUDY_FIELDS.to_vec()), 0usize..7)
        ) {
            let value = fields.join(":");
            match parse_study_arg(&value) {
                Ok(study) => {
                    // Only 3 to 5 fields parse, led by a non-empty name.
                    prop_assert!((3..=5).contains(&fields.len()), "{value:?}");
                    prop_assert_eq!(study.name.as_str(), fields[0]);
                    prop_assert!(study.evals > 0, "{value:?}");
                }
                Err(ParseError(message)) => prop_assert!(!message.is_empty(), "{value:?}"),
            }
            // The `serve` command line reaches the same parser.
            let _ = parse(&["serve", "--study", &value]);
        }
    }

    /// `Scenario` and `ServerConfig` have no `PartialEq`; their `Debug`
    /// forms print every field, floats in round-trip form.
    fn debug(value: &impl fmt::Debug) -> String {
        format!("{value:?}")
    }

    /// The `run` command `args` parse to, taken apart.
    fn run(
        args: &[&str],
    ) -> (
        Scenario,
        Method,
        Mode,
        Budget,
        u64,
        ExecutorOptions,
        Option<String>,
    ) {
        match parse(args).unwrap() {
            Command::Run {
                scenario,
                method,
                mode,
                budget,
                seed,
                options,
                csv,
            } => (scenario, method, mode, budget, seed, options, csv),
            other => panic!("expected run, got {other:?}"),
        }
    }

    /// The executor options `run --pair mnist-gtx --method rand` plus
    /// `flags` parse to.
    fn run_options(flags: &[&str]) -> ExecutorOptions {
        run(&[&["run", "--pair", "mnist-gtx", "--method", "rand"], flags].concat()).5
    }

    /// The message `run --pair mnist-gtx --method rand` plus `flags` fails
    /// with.
    fn run_error(flags: &[&str]) -> String {
        parse(&[&["run", "--pair", "mnist-gtx", "--method", "rand"], flags].concat())
            .unwrap_err()
            .0
    }

    /// The `serve` command `args` parse to, taken apart.
    fn serve(args: &[&str]) -> (Vec<StudyArg>, ServerConfig, usize, bool) {
        match parse(args).unwrap() {
            Command::Serve {
                studies,
                config,
                workers,
                resume,
            } => (studies, config, workers, resume),
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn help_variants() {
        for args in [&[][..], &["help"][..], &["--help"][..], &["-h"][..]] {
            assert!(matches!(parse(args).unwrap(), Command::Help));
        }
    }

    #[test]
    fn profile_defaults_and_overrides() {
        // Without --samples, L is the scenario's own.
        let Command::Profile { scenario, seed } =
            parse(&["profile", "--pair", "mnist-gtx"]).unwrap()
        else {
            panic!("expected profile");
        };
        assert_eq!(debug(&scenario), debug(&Scenario::mnist_gtx1070()));
        assert_eq!(seed, 0);

        let Command::Profile { scenario, seed } = parse(&[
            "profile",
            "--pair",
            "cifar-tegra",
            "--samples",
            "50",
            "--seed",
            "7",
        ])
        .unwrap() else {
            panic!("expected profile");
        };
        let expected = Scenario {
            profiling_samples: 50,
            ..Scenario::cifar10_tegra_tx1()
        };
        assert_eq!(debug(&scenario), debug(&expected));
        assert_eq!(seed, 7);
    }

    #[test]
    fn run_full_form() {
        let (scenario, method, mode, budget, seed, options, csv) = run(&[
            "run",
            "--pair",
            "cifar-gtx",
            "--method",
            "hw-ieci",
            "--mode",
            "default",
            "--evals",
            "25",
            "--seed",
            "3",
            "--workers",
            "4",
            "--csv",
            "/tmp/t.csv",
        ]);
        assert_eq!(debug(&scenario), debug(&Scenario::cifar10_gtx1070()));
        assert_eq!(method, Method::HwIeci);
        assert_eq!(mode, Mode::Default);
        assert_eq!(budget, Budget::Evaluations(25));
        assert_eq!(seed, 3);
        assert_eq!(options, ExecutorOptions::default().with_workers(4));
        assert_eq!(csv.as_deref(), Some("/tmp/t.csv"));
    }

    #[test]
    fn self_healing_flags() {
        assert_eq!(
            run_options(&[
                "--recalibrate",
                "--drift-threshold",
                "0.2",
                "--safety-margin",
                "0.05",
            ]),
            ExecutorOptions::from_env()
                .with_recalibrate(true)
                .with_drift_threshold(0.2)
                .with_safety_margin(0.05)
        );

        // Defaults: healing fully off.
        let options = run_options(&[]);
        assert_eq!(options.drift, ExecutorOptions::default().drift);
        assert!(!options.drift.recalibrate);

        // Out-of-domain values are rejected with specific messages.
        for (flag, bad, message) in [
            ("--drift-threshold", "0", "must be positive and finite"),
            ("--drift-threshold", "nan", "must be positive and finite"),
            ("--safety-margin", "1.5", "must be a fraction in (0, 1)"),
            ("--safety-margin", "-0.1", "must be a fraction in (0, 1)"),
            ("--safety-margin", "half", "expects a number"),
        ] {
            assert_eq!(run_error(&[flag, bad]), format!("{flag} {message}"));
        }
    }

    #[test]
    fn fault_and_resume_flags() {
        assert_eq!(
            run_options(&[
                "--fault-profile",
                "flaky-sensor",
                "--checkpoint",
                "/tmp/run.ckpt",
                "--checkpoint-every",
                "5",
                "--resume",
                "/tmp/prev.ckpt",
            ]),
            ExecutorOptions::from_env()
                .with_fault_profile(FaultProfile::flaky_sensor())
                .with_checkpoint(CheckpointConfig {
                    path: "/tmp/run.ckpt".into(),
                    every_commits: 5,
                })
                .with_resume_from("/tmp/prev.ckpt")
        );
        // The cadence may come first, and defaults to every commit.
        assert_eq!(
            run_options(&["--checkpoint-every", "3", "--checkpoint", "a.ckpt"]).checkpoint,
            Some(CheckpointConfig {
                path: "a.ckpt".into(),
                every_commits: 3,
            })
        );
        assert_eq!(
            run_options(&["--checkpoint", "a.ckpt"]).checkpoint,
            Some(CheckpointConfig::every_commit("a.ckpt"))
        );

        // Defaults: no faults, no checkpointing, no resume.
        assert_eq!(run_options(&[]), ExecutorOptions::from_env());

        assert_eq!(
            run_error(&["--checkpoint-every", "0"]),
            "--checkpoint-every must be positive"
        );
        assert_eq!(
            run_error(&["--fault-profile", "bogus"]),
            "unknown fault profile 'bogus' (expected none, flaky-sensor, oom-heavy, \
             drifting-hw, slow-worker or bit-rot)"
        );
    }

    #[test]
    fn workers_default_to_the_environment_and_reject_bad_values() {
        assert_eq!(
            run_options(&[]).workers,
            ExecutorOptions::from_env().workers
        );
        assert_eq!(run_error(&["--workers", "0"]), "--workers must be positive");
        assert_eq!(
            run_error(&["--workers", "two"]),
            "--workers expects an integer"
        );
    }

    #[test]
    fn run_defaults_to_paper_budget_and_hyperpower_mode() {
        for (pair, scenario) in [
            ("mnist-gtx", Scenario::mnist_gtx1070()),
            ("cifar-gtx", Scenario::cifar10_gtx1070()),
            ("mnist-tegra", Scenario::mnist_tegra_tx1()),
            ("cifar-tegra", Scenario::cifar10_tegra_tx1()),
        ] {
            let (parsed, _, mode, budget, ..) = run(&["run", "--pair", pair, "--method", "rand"]);
            assert_eq!(debug(&parsed), debug(&scenario), "{pair}");
            assert_eq!(mode, Mode::HyperPower);
            assert_eq!(budget, Budget::VirtualHours(scenario.time_budget_hours));
        }
    }

    #[test]
    fn hours_budget() {
        let (_, method, _, budget, ..) = run(&[
            "run",
            "--pair",
            "mnist-gtx",
            "--method",
            "rand-walk",
            "--hours",
            "1.5",
        ]);
        assert_eq!(budget, Budget::VirtualHours(1.5));
        assert_eq!(method, Method::RandWalk);
    }

    #[test]
    fn hours_must_be_positive_and_finite() {
        // A non-finite deadline is never reached, and a non-positive one
        // runs nothing.
        for bad in ["nan", "inf", "-inf", "0", "-1"] {
            assert_eq!(
                run_error(&["--hours", bad]),
                "--hours must be positive and finite",
                "--hours {bad}"
            );
        }
    }

    #[test]
    fn error_messages_are_specific() {
        let error = |args: &[&str]| parse(args).unwrap_err().0;
        assert!(error(&["frobnicate"]).contains("subcommand"));
        assert_eq!(error(&["run", "--method", "rand"]), "--pair is required");
        assert_eq!(
            error(&["run", "--pair", "mnist-gtx"]),
            "--method is required"
        );
        assert!(error(&["run", "--pair", "venus", "--method", "rand"]).contains("unknown pair"));
        assert!(
            error(&["run", "--pair", "mnist-gtx", "--method", "sgd"]).contains("unknown method")
        );
        assert_eq!(
            error(&["profile", "--pair"]),
            "flag --pair requires a value"
        );
        assert_eq!(
            error(&["profile", "--pair", "mnist-gtx", "--samples", "0"]),
            "--samples must be positive"
        );
        assert_eq!(
            error(&["profile", "--pair", "mnist-gtx", "--samples", "x"]),
            "--samples expects an integer"
        );
        // A missing pair is reported before a zero sample count.
        assert_eq!(error(&["profile", "--samples", "0"]), "--pair is required");
    }

    #[test]
    fn serve_parses_studies_and_defaults() {
        let (studies, config, workers, resume) = serve(&[
            "serve",
            "--study",
            "alpha:rand:6",
            "--study",
            "beta:rand-walk:5:42:3",
            "--root",
            "/tmp/srv",
            "--workers",
            "4",
            "--snapshot-every",
            "2",
            "--resume",
        ]);
        assert_eq!(
            studies,
            vec![
                StudyArg {
                    name: "alpha".into(),
                    method: Method::Rand,
                    evals: 6,
                    seed: 0,
                    priority: 1,
                },
                StudyArg {
                    name: "beta".into(),
                    method: Method::RandWalk,
                    evals: 5,
                    seed: 42,
                    priority: 3,
                },
            ]
        );
        let expected = ServerConfig {
            root: "/tmp/srv".into(),
            snapshot_every_commits: 2,
            ..ServerConfig::default()
        };
        assert_eq!(debug(&config), debug(&expected));
        assert_eq!(workers, 4);
        assert!(resume);

        // Defaults: the server's own configuration, one worker, fresh
        // studies.
        let (_, config, workers, resume) = serve(&["serve", "--study", "solo:hw-cwei:4"]);
        assert_eq!(debug(&config), debug(&ServerConfig::default()));
        assert_eq!(workers, 1);
        assert!(!resume);
    }

    #[test]
    fn serve_supervision_flags() {
        let (_, config, ..) = serve(&[
            "serve",
            "--study",
            "a:rand:6",
            "--hedge-after",
            "300",
            "--tenant-rate",
            "0.5",
        ]);
        let expected = ServerConfig {
            hedge_after_s: 300.0,
            tenant_rate_per_s: 0.5,
            ..ServerConfig::default()
        };
        assert_eq!(debug(&config), debug(&expected));

        // Zero is the explicit off switch, not an error.
        let (_, config, ..) = serve(&["serve", "--study", "a:rand:6", "--hedge-after", "0"]);
        assert_eq!(config.hedge_after_s, 0.0);

        for (flag, bad, message) in [
            (
                "--hedge-after",
                "-1",
                "must be a non-negative number of seconds",
            ),
            (
                "--hedge-after",
                "inf",
                "must be a non-negative number of seconds",
            ),
            ("--hedge-after", "soon", "expects a number"),
            (
                "--tenant-rate",
                "-0.5",
                "must be a non-negative rate per second",
            ),
            (
                "--tenant-rate",
                "nan",
                "must be a non-negative rate per second",
            ),
        ] {
            assert_eq!(
                parse(&["serve", "--study", "a:rand:6", flag, bad])
                    .unwrap_err()
                    .0,
                format!("{flag} {message}")
            );
        }
    }

    #[test]
    fn fsck_parses_root_and_salvage() {
        let Command::Fsck { root, salvage } = parse(&["fsck"]).unwrap() else {
            panic!("expected fsck");
        };
        assert_eq!(root, ServerConfig::default().root);
        assert!(!salvage);
        let Command::Fsck { root, salvage } =
            parse(&["fsck", "--root", "/tmp/store", "--salvage"]).unwrap()
        else {
            panic!("expected fsck");
        };
        assert_eq!(root, PathBuf::from("/tmp/store"));
        assert!(salvage);
        assert!(parse(&["fsck", "--frobnicate"]).is_err());
        assert!(parse(&["fsck", "--root"]).unwrap_err().0.contains("value"));
    }

    #[test]
    fn serve_rejects_malformed_studies() {
        assert!(parse(&["serve"]).unwrap_err().0.contains("--study"));
        for bad in [
            "alpha",
            "alpha:rand",
            "alpha:sgd:6",
            "alpha:rand:0",
            "alpha:rand:x",
            ":rand:6",
            "a:rand:6:s",
            "a:rand:6:1:p",
            "a:rand:6:1:2:9",
        ] {
            assert!(
                parse(&["serve", "--study", bad]).is_err(),
                "'{bad}' must be rejected"
            );
        }
        assert_eq!(
            parse(&["serve", "--study", "a:rand:6", "--workers", "0"])
                .unwrap_err()
                .0,
            "--workers must be positive"
        );
        assert_eq!(
            parse(&["serve", "--study", "a:rand:6", "--snapshot-every", "0"])
                .unwrap_err()
                .0,
            "--snapshot-every must be positive"
        );
    }

    #[test]
    fn serve_rejects_a_repeated_study_name() {
        let err = parse(&[
            "serve",
            "--study",
            "a:rand:3",
            "--study",
            "b:rand:3",
            "--study",
            "a:rand-walk:4",
        ])
        .unwrap_err();
        assert_eq!(err.0, "study name \"a\" is given twice");
        // Distinct names that share a prefix or settings are fine.
        assert!(parse(&["serve", "--study", "a:rand:3", "--study", "ab:rand:3"]).is_ok());
    }

    #[test]
    fn usage_mentions_everything() {
        for pair in ["mnist-gtx", "cifar-gtx", "mnist-tegra", "cifar-tegra"] {
            assert!(USAGE.contains(pair));
        }
        for m in ["rand", "rand-walk", "hw-cwei", "hw-ieci"] {
            assert!(USAGE.contains(m));
        }
        for f in [
            "flaky-sensor",
            "oom-heavy",
            "drifting-hw",
            "--checkpoint",
            "--resume",
            "--recalibrate",
            "--drift-threshold",
            "--safety-margin",
            "serve",
            "--study",
            "--root",
            "--snapshot-every",
            "--resume",
            "slow-worker",
            "bit-rot",
            "--hedge-after",
            "--tenant-rate",
            "fsck",
            "--salvage",
        ] {
            assert!(USAGE.contains(f), "usage is missing {f}");
        }
    }
}
