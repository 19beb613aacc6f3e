//! Hand-rolled argument parsing for the `hyperpower` binary.
//!
//! Deliberately dependency-free: the grammar is tiny (one subcommand, a
//! handful of `--key value` options), and keeping it in plain Rust makes
//! the whole workspace buildable from the vendored crate set.

use std::fmt;

use hyperpower::{Budget, Method, Mode};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `hyperpower profile --pair <pair>`: profile the platform and print
    /// the fitted model diagnostics.
    Profile {
        /// Device–dataset pair.
        pair: Pair,
        /// Profiling sample count `L`.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// `hyperpower run --pair <pair> --method <m>`: one optimization run,
    /// printing the trace summary (and optionally a CSV dump).
    Run {
        /// Device–dataset pair.
        pair: Pair,
        /// Search method.
        method: Method,
        /// Enhancement mode.
        mode: Mode,
        /// Stop criterion.
        budget: Budget,
        /// RNG seed.
        seed: u64,
        /// Worker threads for candidate evaluation (`None` ⇒ the
        /// `HYPERPOWER_WORKERS` environment variable, then 1). Never
        /// changes the result, only the wall-clock.
        workers: Option<usize>,
        /// Fault-injection profile name (`none`, `flaky-sensor`,
        /// `oom-heavy`); `None` ⇒ no fault injection.
        fault_profile: Option<String>,
        /// Checkpoint the committed trace to this path during the run.
        checkpoint: Option<String>,
        /// Write the checkpoint every N committed samples (default 1).
        checkpoint_every: usize,
        /// Resume from a checkpoint written by an interrupted run.
        resume: Option<String>,
        /// Write the full per-sample trace as CSV to this path.
        csv: Option<String>,
        /// Refit the constraint models online when measured drift crosses
        /// the threshold.
        recalibrate: bool,
        /// Drift-detection RMSPE threshold (`None` ⇒ the library default).
        drift_threshold: Option<f64>,
        /// Adaptive safety-margin step as a fraction of each budget
        /// (`None` ⇒ disabled).
        safety_margin: Option<f64>,
    },
    /// `hyperpower serve --study <SPEC>...`: host several named studies in
    /// one crash-safe ask–tell server and drive them to completion with
    /// simulated workers.
    Serve {
        /// The studies to host, in command-line order.
        studies: Vec<StudyArg>,
        /// Durability root: every study journals and snapshots under here.
        root: String,
        /// Simulated workers per study per scheduling round.
        workers: usize,
        /// Snapshot (and journal-rotation) cadence in commits.
        snapshot_every: usize,
        /// Reattach to existing journals instead of requiring fresh names.
        resume: bool,
        /// Hedge-deadline base in scheduler-clock seconds: a candidate
        /// whose single lease is older than this (plus seeded jitter) is
        /// speculatively re-dispatched. `Some(0.0)` disables hedging;
        /// `None` keeps the server default.
        hedge_after: Option<f64>,
        /// Per-study token-bucket admission rate in requests per
        /// scheduler-clock second. `Some(0.0)` disables the bucket;
        /// `None` keeps the server default (disabled).
        tenant_rate: Option<f64>,
    },
    /// `hyperpower fsck --root DIR [--salvage]`: scan a study store's
    /// journals and snapshots for integrity defects (corrupt frames,
    /// truncated tails, stale temps, header mismatches), optionally
    /// salvaging by truncating to the last valid frame.
    Fsck {
        /// The store directory to scan.
        root: String,
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

/// The paper's device–dataset pairs, as CLI values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pair {
    /// MNIST on GTX 1070.
    MnistGtx,
    /// CIFAR-10 on GTX 1070.
    CifarGtx,
    /// MNIST on Tegra TX1.
    MnistTegra,
    /// CIFAR-10 on Tegra TX1.
    CifarTegra,
}

impl Pair {
    /// All CLI spellings.
    pub const NAMES: [&'static str; 4] = ["mnist-gtx", "cifar-gtx", "mnist-tegra", "cifar-tegra"];
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

/// Usage text printed by `help` and on parse errors.
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
          --tenant-rate R admits at most R requests per virtual second
          per study through a token bucket (refused with a typed
          backpressure error, never a stall; 0 disables).
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

fn parse_pair(s: &str) -> Result<Pair, ParseError> {
    match s {
        "mnist-gtx" => Ok(Pair::MnistGtx),
        "cifar-gtx" => Ok(Pair::CifarGtx),
        "mnist-tegra" => Ok(Pair::MnistTegra),
        "cifar-tegra" => Ok(Pair::CifarTegra),
        other => Err(ParseError(format!(
            "unknown pair '{other}' (expected one of: {})",
            Pair::NAMES.join(", ")
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

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, ParseError> {
    it.next()
        .ok_or_else(|| ParseError(format!("flag {flag} requires a value")))
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
            let mut pair = None;
            let mut samples = 100usize;
            let mut seed = 0u64;
            while let Some(flag) = it.next() {
                match flag {
                    "--pair" => pair = Some(parse_pair(take_value(flag, &mut it)?)?),
                    "--samples" => {
                        samples = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--samples expects an integer".into()))?
                    }
                    "--seed" => {
                        seed = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--seed expects an integer".into()))?
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            let pair = pair.ok_or_else(|| ParseError("--pair is required".into()))?;
            if samples == 0 {
                return Err(ParseError("--samples must be positive".into()));
            }
            Ok(Command::Profile {
                pair,
                samples,
                seed,
            })
        }
        "run" => {
            let mut pair = None;
            let mut method = None;
            let mut mode = Mode::HyperPower;
            let mut budget = None;
            let mut seed = 0u64;
            let mut workers = None;
            let mut fault_profile = None;
            let mut checkpoint = None;
            let mut checkpoint_every = 1usize;
            let mut resume = None;
            let mut csv = None;
            let mut recalibrate = false;
            let mut drift_threshold = None;
            let mut safety_margin = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--pair" => pair = Some(parse_pair(take_value(flag, &mut it)?)?),
                    "--method" => method = Some(parse_method(take_value(flag, &mut it)?)?),
                    "--mode" => mode = parse_mode(take_value(flag, &mut it)?)?,
                    "--evals" => {
                        let n: usize = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--evals expects an integer".into()))?;
                        budget = Some(Budget::Evaluations(n));
                    }
                    "--hours" => {
                        let h: f64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--hours expects a number".into()))?;
                        budget = Some(Budget::VirtualHours(h));
                    }
                    "--seed" => {
                        seed = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--seed expects an integer".into()))?
                    }
                    "--workers" => {
                        let n: usize = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--workers expects an integer".into()))?;
                        if n == 0 {
                            return Err(ParseError("--workers must be positive".into()));
                        }
                        workers = Some(n);
                    }
                    "--fault-profile" => {
                        fault_profile = Some(take_value(flag, &mut it)?.to_string())
                    }
                    "--checkpoint" => checkpoint = Some(take_value(flag, &mut it)?.to_string()),
                    "--checkpoint-every" => {
                        let n: usize = take_value(flag, &mut it)?.parse().map_err(|_| {
                            ParseError("--checkpoint-every expects an integer".into())
                        })?;
                        if n == 0 {
                            return Err(ParseError("--checkpoint-every must be positive".into()));
                        }
                        checkpoint_every = n;
                    }
                    "--resume" => resume = Some(take_value(flag, &mut it)?.to_string()),
                    "--csv" => csv = Some(take_value(flag, &mut it)?.to_string()),
                    "--recalibrate" => recalibrate = true,
                    "--drift-threshold" => {
                        let t: f64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--drift-threshold expects a number".into()))?;
                        if !(t.is_finite() && t > 0.0) {
                            return Err(ParseError(
                                "--drift-threshold must be positive and finite".into(),
                            ));
                        }
                        drift_threshold = Some(t);
                    }
                    "--safety-margin" => {
                        let f: f64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--safety-margin expects a number".into()))?;
                        if !(f.is_finite() && f > 0.0 && f < 1.0) {
                            return Err(ParseError(
                                "--safety-margin must be a fraction in (0, 1)".into(),
                            ));
                        }
                        safety_margin = Some(f);
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            let pair = pair.ok_or_else(|| ParseError("--pair is required".into()))?;
            let method = method.ok_or_else(|| ParseError("--method is required".into()))?;
            let budget = budget.unwrap_or(match pair {
                Pair::MnistGtx | Pair::MnistTegra => Budget::VirtualHours(2.0),
                Pair::CifarGtx | Pair::CifarTegra => Budget::VirtualHours(5.0),
            });
            Ok(Command::Run {
                pair,
                method,
                mode,
                budget,
                seed,
                workers,
                fault_profile,
                checkpoint,
                checkpoint_every,
                resume,
                csv,
                recalibrate,
                drift_threshold,
                safety_margin,
            })
        }
        "serve" => {
            let mut studies = Vec::new();
            let mut root = String::from("target/study-server");
            let mut workers = 1usize;
            let mut snapshot_every = 8usize;
            let mut resume = false;
            let mut hedge_after = None;
            let mut tenant_rate = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--study" => studies.push(parse_study_arg(take_value(flag, &mut it)?)?),
                    "--root" => root = take_value(flag, &mut it)?.to_string(),
                    "--hedge-after" => {
                        let s: f64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--hedge-after expects a number".into()))?;
                        if !(s.is_finite() && s >= 0.0) {
                            return Err(ParseError(
                                "--hedge-after must be a non-negative number of seconds".into(),
                            ));
                        }
                        hedge_after = Some(s);
                    }
                    "--tenant-rate" => {
                        let r: f64 = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--tenant-rate expects a number".into()))?;
                        if !(r.is_finite() && r >= 0.0) {
                            return Err(ParseError(
                                "--tenant-rate must be a non-negative rate per second".into(),
                            ));
                        }
                        tenant_rate = Some(r);
                    }
                    "--workers" => {
                        let n: usize = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ParseError("--workers expects an integer".into()))?;
                        if n == 0 {
                            return Err(ParseError("--workers must be positive".into()));
                        }
                        workers = n;
                    }
                    "--snapshot-every" => {
                        let n: usize = take_value(flag, &mut it)?.parse().map_err(|_| {
                            ParseError("--snapshot-every expects an integer".into())
                        })?;
                        if n == 0 {
                            return Err(ParseError("--snapshot-every must be positive".into()));
                        }
                        snapshot_every = n;
                    }
                    "--resume" => resume = true,
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            if studies.is_empty() {
                return Err(ParseError("at least one --study is required".into()));
            }
            Ok(Command::Serve {
                studies,
                root,
                workers,
                snapshot_every,
                resume,
                hedge_after,
                tenant_rate,
            })
        }
        "fsck" => {
            let mut root = String::from("target/study-server");
            let mut salvage = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--root" => root = take_value(flag, &mut it)?.to_string(),
                    "--salvage" => salvage = true,
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
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

    #[test]
    fn help_variants() {
        for args in [&[][..], &["help"][..], &["--help"][..], &["-h"][..]] {
            assert_eq!(parse(args).unwrap(), Command::Help);
        }
    }

    #[test]
    fn profile_defaults_and_overrides() {
        let c = parse(&["profile", "--pair", "mnist-gtx"]).unwrap();
        assert_eq!(
            c,
            Command::Profile {
                pair: Pair::MnistGtx,
                samples: 100,
                seed: 0
            }
        );
        let c = parse(&[
            "profile",
            "--pair",
            "cifar-tegra",
            "--samples",
            "50",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Profile {
                pair: Pair::CifarTegra,
                samples: 50,
                seed: 7
            }
        );
    }

    #[test]
    fn run_full_form() {
        let c = parse(&[
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
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Run {
                pair: Pair::CifarGtx,
                method: Method::HwIeci,
                mode: Mode::Default,
                budget: Budget::Evaluations(25),
                seed: 3,
                workers: Some(4),
                fault_profile: None,
                checkpoint: None,
                checkpoint_every: 1,
                resume: None,
                csv: Some("/tmp/t.csv".into()),
                recalibrate: false,
                drift_threshold: None,
                safety_margin: None,
            }
        );
    }

    #[test]
    fn self_healing_flags() {
        let c = parse(&[
            "run",
            "--pair",
            "mnist-gtx",
            "--method",
            "hw-ieci",
            "--recalibrate",
            "--drift-threshold",
            "0.2",
            "--safety-margin",
            "0.05",
        ])
        .unwrap();
        let Command::Run {
            recalibrate,
            drift_threshold,
            safety_margin,
            ..
        } = c
        else {
            panic!("expected run");
        };
        assert!(recalibrate);
        assert_eq!(drift_threshold, Some(0.2));
        assert_eq!(safety_margin, Some(0.05));

        // Defaults: healing fully off.
        let c = parse(&["run", "--pair", "mnist-gtx", "--method", "rand"]).unwrap();
        let Command::Run {
            recalibrate,
            drift_threshold,
            safety_margin,
            ..
        } = c
        else {
            panic!("expected run");
        };
        assert!(!recalibrate);
        assert_eq!(drift_threshold, None);
        assert_eq!(safety_margin, None);

        // Out-of-domain values are rejected with specific messages.
        for (flag, bad) in [
            ("--drift-threshold", "0"),
            ("--drift-threshold", "nan"),
            ("--safety-margin", "1.5"),
            ("--safety-margin", "-0.1"),
        ] {
            let err =
                parse(&["run", "--pair", "mnist-gtx", "--method", "rand", flag, bad]).unwrap_err();
            assert!(err.0.contains(flag), "message {:?} names the flag", err.0);
        }
    }

    #[test]
    fn fault_and_resume_flags() {
        let c = parse(&[
            "run",
            "--pair",
            "mnist-gtx",
            "--method",
            "rand",
            "--fault-profile",
            "flaky-sensor",
            "--checkpoint",
            "/tmp/run.ckpt",
            "--checkpoint-every",
            "5",
            "--resume",
            "/tmp/prev.ckpt",
        ])
        .unwrap();
        let Command::Run {
            fault_profile,
            checkpoint,
            checkpoint_every,
            resume,
            ..
        } = c
        else {
            panic!("expected run");
        };
        assert_eq!(fault_profile.as_deref(), Some("flaky-sensor"));
        assert_eq!(checkpoint.as_deref(), Some("/tmp/run.ckpt"));
        assert_eq!(checkpoint_every, 5);
        assert_eq!(resume.as_deref(), Some("/tmp/prev.ckpt"));

        // Defaults: no faults, no checkpointing, write-every-commit.
        let c = parse(&["run", "--pair", "mnist-gtx", "--method", "rand"]).unwrap();
        let Command::Run {
            fault_profile,
            checkpoint,
            checkpoint_every,
            resume,
            ..
        } = c
        else {
            panic!("expected run");
        };
        assert_eq!(fault_profile, None);
        assert_eq!(checkpoint, None);
        assert_eq!(checkpoint_every, 1);
        assert_eq!(resume, None);

        assert!(parse(&[
            "run",
            "--pair",
            "mnist-gtx",
            "--method",
            "rand",
            "--checkpoint-every",
            "0"
        ])
        .unwrap_err()
        .0
        .contains("positive"));
    }

    #[test]
    fn workers_defaults_to_none_and_rejects_bad_values() {
        let c = parse(&["run", "--pair", "mnist-gtx", "--method", "rand"]).unwrap();
        let Command::Run { workers, .. } = c else {
            panic!("expected run");
        };
        assert_eq!(workers, None);
        assert!(parse(&[
            "run",
            "--pair",
            "mnist-gtx",
            "--method",
            "rand",
            "--workers",
            "0"
        ])
        .unwrap_err()
        .0
        .contains("positive"));
        assert!(parse(&[
            "run",
            "--pair",
            "mnist-gtx",
            "--method",
            "rand",
            "--workers",
            "two"
        ])
        .unwrap_err()
        .0
        .contains("integer"));
    }

    #[test]
    fn run_defaults_to_paper_budget_and_hyperpower_mode() {
        let c = parse(&["run", "--pair", "mnist-tegra", "--method", "rand"]).unwrap();
        let Command::Run { mode, budget, .. } = c else {
            panic!("expected run");
        };
        assert_eq!(mode, Mode::HyperPower);
        assert_eq!(budget, Budget::VirtualHours(2.0));
        let c = parse(&["run", "--pair", "cifar-gtx", "--method", "rand"]).unwrap();
        let Command::Run { budget, .. } = c else {
            panic!("expected run");
        };
        assert_eq!(budget, Budget::VirtualHours(5.0));
    }

    #[test]
    fn hours_budget() {
        let c = parse(&[
            "run",
            "--pair",
            "mnist-gtx",
            "--method",
            "rand-walk",
            "--hours",
            "1.5",
        ])
        .unwrap();
        let Command::Run { budget, method, .. } = c else {
            panic!("expected run");
        };
        assert_eq!(budget, Budget::VirtualHours(1.5));
        assert_eq!(method, Method::RandWalk);
    }

    #[test]
    fn error_messages_are_specific() {
        assert!(parse(&["frobnicate"]).unwrap_err().0.contains("subcommand"));
        assert!(parse(&["run", "--method", "rand"])
            .unwrap_err()
            .0
            .contains("--pair is required"));
        assert!(parse(&["run", "--pair", "mnist-gtx"])
            .unwrap_err()
            .0
            .contains("--method is required"));
        assert!(parse(&["run", "--pair", "venus", "--method", "rand"])
            .unwrap_err()
            .0
            .contains("unknown pair"));
        assert!(parse(&["run", "--pair", "mnist-gtx", "--method", "sgd"])
            .unwrap_err()
            .0
            .contains("unknown method"));
        assert!(parse(&["profile", "--pair"])
            .unwrap_err()
            .0
            .contains("requires a value"));
        assert!(parse(&["profile", "--pair", "mnist-gtx", "--samples", "0"])
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&["profile", "--pair", "mnist-gtx", "--samples", "x"])
            .unwrap_err()
            .0
            .contains("integer"));
    }

    #[test]
    fn serve_parses_studies_and_defaults() {
        let c = parse(&[
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
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                studies: vec![
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
                ],
                root: "/tmp/srv".into(),
                workers: 4,
                snapshot_every: 2,
                resume: true,
                hedge_after: None,
                tenant_rate: None,
            }
        );

        let c = parse(&["serve", "--study", "solo:hw-cwei:4"]).unwrap();
        let Command::Serve {
            root,
            workers,
            snapshot_every,
            resume,
            hedge_after,
            tenant_rate,
            ..
        } = c
        else {
            panic!("expected serve");
        };
        assert_eq!(root, "target/study-server");
        assert_eq!(workers, 1);
        assert_eq!(snapshot_every, 8);
        assert!(!resume);
        assert_eq!(hedge_after, None);
        assert_eq!(tenant_rate, None);
    }

    #[test]
    fn serve_supervision_flags() {
        let c = parse(&[
            "serve",
            "--study",
            "a:rand:6",
            "--hedge-after",
            "300",
            "--tenant-rate",
            "0.5",
        ])
        .unwrap();
        let Command::Serve {
            hedge_after,
            tenant_rate,
            ..
        } = c
        else {
            panic!("expected serve");
        };
        assert_eq!(hedge_after, Some(300.0));
        assert_eq!(tenant_rate, Some(0.5));

        // Zero is the explicit off switch, not an error.
        let c = parse(&["serve", "--study", "a:rand:6", "--hedge-after", "0"]).unwrap();
        let Command::Serve { hedge_after, .. } = c else {
            panic!("expected serve");
        };
        assert_eq!(hedge_after, Some(0.0));

        for (flag, bad) in [
            ("--hedge-after", "-1"),
            ("--hedge-after", "inf"),
            ("--hedge-after", "soon"),
            ("--tenant-rate", "-0.5"),
            ("--tenant-rate", "nan"),
        ] {
            assert!(
                parse(&["serve", "--study", "a:rand:6", flag, bad]).is_err(),
                "{flag} {bad} must be rejected"
            );
        }
    }

    #[test]
    fn fsck_parses_root_and_salvage() {
        assert_eq!(
            parse(&["fsck"]).unwrap(),
            Command::Fsck {
                root: "target/study-server".into(),
                salvage: false
            }
        );
        assert_eq!(
            parse(&["fsck", "--root", "/tmp/store", "--salvage"]).unwrap(),
            Command::Fsck {
                root: "/tmp/store".into(),
                salvage: true
            }
        );
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
        assert!(parse(&["serve", "--study", "a:rand:6", "--workers", "0"])
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(
            parse(&["serve", "--study", "a:rand:6", "--snapshot-every", "0"])
                .unwrap_err()
                .0
                .contains("positive")
        );
    }

    #[test]
    fn usage_mentions_everything() {
        for name in Pair::NAMES {
            assert!(USAGE.contains(name));
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
