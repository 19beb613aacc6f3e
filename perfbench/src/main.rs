//! End-to-end benchmark of the HyperPower reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <base-dir> <head-dir>
//! ```
//!
//! A run prints a human-readable report, then, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Any wrong output makes it exit with code 1. See
//! `perfbench/README.md` for the workloads and what each metric means.

// A terminal program: printing is the point, and a panic is an acceptable
// exit for a broken internal condition.
#![allow(clippy::print_stdout, clippy::print_stderr)]

mod compare;
mod metrics;
mod probe;
mod report;
mod serve;
mod spans;
mod speed;
mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{END_TO_END, PER_LAYER};
use report::{median, percentile, result_line, valid_metric_name, Checks, Metric};

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 2] = ["paper_sweep", "serve_recover"];

/// Workloads that run by hand only, outside `BENCHMARK.json` (the README
/// says why).
pub const EXTRA_WORKLOADS: [&str; 1] = ["batch_sweep"];

/// What a workload's untraced run measured, before percentiles are taken.
/// Every timing is paced: rescaled to a fixed host speed (see [`speed`]).
#[derive(Debug, Default)]
pub struct EndToEndValues {
    pub setup_s: f64,
    pub runs_per_s: f64,
    pub tells_per_s: f64,
    /// Ask and tell latencies, one list per slice: two sweep rounds or one
    /// serving cycle, enough calls to leave ten beyond the 99th percentile.
    pub ask_ms: Vec<Vec<f64>>,
    pub tell_ms: Vec<Vec<f64>>,
    pub recover_s: f64,
    pub fsck_s: f64,
}

/// How many units of work (sweep rounds, serving cycles) a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Extent {
    /// Until the time is up, and at least two units: a percentile of one
    /// unit's calls may leave too few samples beyond it.
    For(Duration),
    /// Exactly this many: the same work as an earlier pass.
    Units(usize),
}

impl Extent {
    /// Whether a pass that started at `start` and has run `done` units
    /// runs another.
    pub fn more(self, done: usize, start: Instant) -> bool {
        match self {
            Extent::For(window) => done < 2 || start.elapsed() < window,
            Extent::Units(n) => done < n,
        }
    }
}

/// Per-layer values of a traced run; a layer the workload never enters
/// reads 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }
}

#[derive(Debug)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS
        .iter()
        .chain(&EXTRA_WORKLOADS)
        .any(|w| *w == workload)
    {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or {EXTRA_WORKLOADS:?}"
        ));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for checkpoints and the study store, next to the binary
/// (inside the build directory), removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
        let parent = exe.parent().unwrap_or(Path::new("."));
        let dir = parent.join(format!("perfbench-work-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The median and 99th percentile of each slice's latencies, and the
/// median of each over slices: a slice that stalled on a shared disk or
/// core moves neither. Prints the sample counts; a slice whose 99th
/// percentile has fewer than ten samples beyond it fails the run.
fn latency(what: &str, slices: &[Vec<f64>], checks: &mut Checks) -> (f64, f64) {
    let p50s: Vec<f64> = slices.iter().map(|s| median(s)).collect();
    let mut p99s = Vec::new();
    for slice in slices {
        if let Some(v) = checks.record(&format!("{what} p99"), percentile(slice, 99.0)) {
            p99s.push(v);
        }
    }
    let sizes: Vec<usize> = slices.iter().map(Vec::len).collect();
    let (fewest, most) = (
        sizes.iter().copied().min().unwrap_or(0),
        sizes.iter().copied().max().unwrap_or(0),
    );
    let beyond = fewest - (0.99 * fewest as f64).ceil() as usize;
    let (p50, p99) = (median(&p50s), median(&p99s));
    println!(
        "  {what}_p50 = {p50:.6} ms, {what}_p99 = {p99:.6} ms: medians over {} slices of \
         {fewest}–{most} samples ({} in all; at least {beyond} beyond each p99)",
        slices.len(),
        sizes.iter().sum::<usize>()
    );
    checks.check(!p99s.is_empty(), || format!("no {what} samples"));
    (p50, p99)
}

fn end_to_end_metrics(values: EndToEndValues, checks: &mut Checks) -> Vec<Metric> {
    let (ask_p50, ask_p99) = latency("ask_ms", &values.ask_ms, checks);
    let (tell_p50, tell_p99) = latency("tell_ms", &values.tell_ms, checks);
    let rss = checks
        .record("reading peak RSS", probe::peak_rss_mib())
        .unwrap_or(f64::NAN);
    let value_of = |name: &str| match name {
        "setup_s" => values.setup_s,
        "runs_per_s" => values.runs_per_s,
        "tells_per_s" => values.tells_per_s,
        "ask_ms_p50" => ask_p50,
        "ask_ms_p99" => ask_p99,
        "tell_ms_p50" => tell_p50,
        "tell_ms_p99" => tell_p99,
        "recover_s" => values.recover_s,
        "fsck_s" => values.fsck_s,
        "peak_rss_mb" => rss,
        other => unreachable!("no value for end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: value_of(m.name),
            unit: m.unit,
        })
        .collect()
}

fn per_layer_metrics(layers: Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: layers.0.get(m.name).copied().unwrap_or(0.0),
            unit: m.unit,
        })
        .collect()
}

fn run(args: &RunArgs) -> Result<(Checks, Vec<Metric>), String> {
    let work = WorkDir::new(&args.workload)?;
    let window = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    println!(
        "perfbench {} seed {} for {} s ({}), {} hardware thread(s)",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let metrics = match (args.workload.as_str(), args.trace) {
        ("serve_recover", trace) => {
            let serve = serve::serve_recover(args.seed, &mut checks);
            if trace {
                per_layer_metrics(serve::trace(&serve, window, &work.0, &mut checks))
            } else {
                let values = serve::measure(&serve, window, &work.0, &mut checks);
                end_to_end_metrics(values, &mut checks)
            }
        }
        (name, trace) => {
            let sweep = if name == "paper_sweep" {
                sweep::paper_sweep(args.seed)
            } else {
                sweep::batch_sweep(args.seed)
            };
            if trace {
                per_layer_metrics(sweep::trace(&sweep, window, &work.0, &mut checks))
            } else {
                let values = sweep::measure(&sweep, window, &work.0, &mut checks);
                end_to_end_metrics(values, &mut checks)
            }
        }
    };
    for m in &metrics {
        checks.check(m.value.is_finite(), || {
            format!("{} is not a finite number", m.name)
        });
        checks.check(valid_metric_name(m.name), || {
            format!("{:?} is not a valid metric name", m.name)
        });
    }
    Ok((checks, metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_main(&args[1..]),
        _ => parse_run_args(&args).and_then(|a| {
            let (checks, metrics) = run(&a)?;
            println!("metrics:");
            for m in &metrics {
                let base = PER_LAYER
                    .iter()
                    .find(|l| l.name == m.name)
                    .and_then(|l| l.base);
                let base = base.map(|b| format!("  (base: {b})")).unwrap_or_default();
                println!("  {:<28} {:>22} {}{base}", m.name, m.value, m.unit);
            }
            println!(
                "checks: {} of {} operations failed (failed_frac {})",
                checks.failed(),
                checks.attempted,
                checks.failed_frac()
            );
            for failure in checks.failures.iter().take(20) {
                println!("  FAILED: {failure}");
            }
            println!("{}", result_line(&checks, &metrics));
            if checks.failures.is_empty() {
                Ok(())
            } else {
                Err(format!("{} output check(s) failed", checks.failed()))
            }
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
