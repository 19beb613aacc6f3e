//! The two sweep workloads: the paper's Tables 2–5 grid (`paper_sweep`)
//! and the batch-parallel BO sweep on four simulated GPUs (`batch_sweep`).
//!
//! A sweep runs *rounds*: round `r` runs every cell of its grid once with
//! seed pair `r % LAP`. A measured run makes one reference round through
//! the library's own `Session::run_seeded_with`, then rounds through
//! `run_optimization_with` with the searcher `make_searcher` would build,
//! wrapped in the timing decorators of [`crate::spans`], until the window
//! is used up. Round 0 must reproduce the reference round's trace CRCs,
//! which checks the decorated copy against the library on every run, and
//! every later lap the CRCs of the first.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperpower::checkpoint::RunCheckpoint;
use hyperpower::driver::RunSetup;
use hyperpower::golden::encode_trace;
use hyperpower::integrity::crc32;
use hyperpower::methods::{BoSearcher, ConstraintWeighting, RandomSearch, RandomWalk};
use hyperpower::{
    run_optimization_with, Budget, CheckpointConfig, EarlyTermination, ExecutorOptions, Method,
    Mode, SampleKind, Scenario, Session, SimulatedObjective, Trace,
};
use hyperpower_gp::sampler::uniform_candidates;
use hyperpower_gp::{fit_gp_hyperparams_laddered, Matern52};
use hyperpower_gpu_sim::{Gpu, TrainingCostModel};
use hyperpower_linalg::Matrix;
use hyperpower_nn::sim::TrainingSimulator;
use rand::SeedableRng;

use crate::probe::{self, Io};
use crate::report::{median, slices, Checks};
use crate::spans::{covered_ns, timed, FitInput, Span, TimedObjective, TimedSearcher, Tracer};
use crate::speed::{Pace, Timing};
use crate::{Extent, Layers};

/// Evaluation budget of each durable-phase run.
const DURABLE_EVALS: usize = 64;
/// Checkpoint cadence of the durable phase: the server's default snapshot
/// cadence. Checkpoints are written once, before the measurement; only
/// their loading and decoding is timed.
const CHECKPOINT_EVERY: usize = 8;
/// `batch_sweep`'s evaluation budget per run. At the paper's full virtual
/// budget a G=4 BO run takes 10–33 s; 72 evaluations keep a round near
/// 4 s while its GP fits still reach ~75 rows, where the O(n³) Cholesky
/// dominates (`paper_sweep`'s fits average ~26 rows).
const BATCH_EVALS: usize = 72;
/// Seed pairs a run cycles through. A full lap fits in a 45 s run even
/// at half speed, so every run covers the same runs; later laps repeat
/// them and must reproduce their CRCs.
const LAP: usize = 16;
/// Rounds whose calls make one latency slice: a round of `paper_sweep`
/// alone has fewer than a thousand commit gaps.
const SLICE_ROUNDS: usize = 2;

/// One optimization run of the grid. Its run seed, like its session's
/// seed, is its offset within the seed pair (see [`Sweep::pair_seed`]).
#[derive(Debug, Clone)]
struct Cell {
    session: usize,
    method: Method,
    mode: Mode,
    budget: Budget,
    offset: u64,
}

/// A sweep workload: the sessions its cells share (each with its seed
/// offset), the grid, and the executor options every run uses (never taken
/// from the environment).
#[derive(Debug)]
pub struct Sweep {
    pub name: &'static str,
    seed: u64,
    sessions: Vec<(Scenario, u64)>,
    cells: Vec<Cell>,
    options: ExecutorOptions,
}

/// The paper's Tables 2–5 grid: 4 device–dataset pairs × 4 methods ×
/// Default/HyperPower with paired run seeds, 2 h / 5 h virtual budgets,
/// one thread and one simulated GPU (as `tab2to5_main_results` runs it).
pub fn paper_sweep(seed: u64) -> Sweep {
    let mut sessions = Vec::new();
    let mut cells = Vec::new();
    for (si, scenario) in Scenario::all_pairs().into_iter().enumerate() {
        for (mi, method) in Method::ALL.into_iter().enumerate() {
            // One session per (pair, method) cell, seeded like the table
            // harness (`si * 10 + mi + 1`); Default and HyperPower runs
            // share their run seed.
            let offset = (si * 10 + mi + 1) as u64;
            for mode in [Mode::Default, Mode::HyperPower] {
                cells.push(Cell {
                    session: sessions.len(),
                    method,
                    mode,
                    budget: Budget::VirtualHours(scenario.time_budget_hours),
                    offset,
                });
            }
            sessions.push((scenario.clone(), offset));
        }
    }
    Sweep {
        name: "paper_sweep",
        seed,
        sessions,
        cells,
        options: ExecutorOptions::default()
            .with_workers(1)
            .with_simulated_gpus(1),
    }
}

/// All four methods in HyperPower mode on MNIST and CIFAR-10 on the GTX
/// 1070, four simulated GPUs, two evaluation threads.
pub fn batch_sweep(seed: u64) -> Sweep {
    let mut sessions = Vec::new();
    let mut cells = Vec::new();
    for (si, scenario) in [Scenario::mnist_gtx1070(), Scenario::cifar10_gtx1070()]
        .into_iter()
        .enumerate()
    {
        for (mi, method) in Method::ALL.into_iter().enumerate() {
            cells.push(Cell {
                session: si,
                method,
                mode: Mode::HyperPower,
                budget: Budget::Evaluations(BATCH_EVALS),
                offset: (si * 10 + mi + 1) as u64,
            });
        }
        sessions.push((scenario, si as u64 + 1));
    }
    Sweep {
        name: "batch_sweep",
        seed,
        sessions,
        cells,
        options: ExecutorOptions::default()
            .with_workers(2)
            .with_simulated_gpus(4),
    }
}

fn trace_crc(trace: &Trace) -> u32 {
    crc32(encode_trace(trace).as_bytes())
}

/// What the runs of a window did, summed.
#[derive(Debug, Default)]
struct RunTotals {
    runs: u64,
    evaluations: u64,
    queried: u64,
    rejections: u64,
}

impl RunTotals {
    fn add(&mut self, trace: &Trace) {
        self.runs += 1;
        self.evaluations += trace.evaluations() as u64;
        self.queried += trace.queried() as u64;
        self.rejections += trace
            .samples
            .iter()
            .filter(|s| s.kind == SampleKind::Rejected)
            .count() as u64;
    }
}

/// How the runs of a round are executed.
#[derive(Clone, Copy)]
enum Route<'t> {
    /// Straight through `Session::run_seeded_with`.
    Library,
    /// Through `run_optimization_with` with the timing decorators.
    Timed(&'t Arc<Tracer>),
}

impl Sweep {
    /// The seed every session and run of seed pair `pair` derives from.
    /// Sessions differ between pairs too: a session's profiling and model
    /// shape every run on it, so a run averages over `LAP` sets of them.
    fn pair_seed(&self, pair: u64) -> u64 {
        self.seed * LAP as u64 + pair
    }

    fn run_seed(&self, cell: &Cell, pair: u64) -> u64 {
        self.pair_seed(pair) * 1000 + cell.offset
    }

    /// Every session of seed pair `pair`.
    fn build_sessions(
        &self,
        pair: u64,
        tracer: Option<&Tracer>,
    ) -> hyperpower::Result<Vec<Session>> {
        let seed = self.pair_seed(pair) * 100;
        self.sessions
            .iter()
            .map(|(scenario, offset)| {
                timed(tracer, "session", || {
                    Session::new(scenario.clone(), seed + offset)
                })
                .0
            })
            .collect()
    }

    /// One run of `cell`, exactly as `Session::run_seeded_with` performs it.
    fn run_cell(
        &self,
        sessions: &mut [Session],
        cell: &Cell,
        pair: u64,
        route: Route<'_>,
        run_id: u32,
        options: &ExecutorOptions,
    ) -> hyperpower::Result<Trace> {
        let session = &mut sessions[cell.session];
        let run_seed = self.run_seed(cell, pair);
        let Route::Timed(tracer) = route else {
            return session.run_seeded_with(cell.method, cell.mode, cell.budget, run_seed, options);
        };
        let scenario = session.scenario();
        let cost = TrainingCostModel::default();
        let objective = SimulatedObjective::new(
            TrainingSimulator::new(scenario.dataset.clone()),
            cost,
            scenario.train_examples,
        );
        let timed_objective = TimedObjective {
            inner: &objective,
            tracer,
            run: run_id,
        };
        let mut gpu = Gpu::new(scenario.device.clone(), run_seed ^ 0xDEAD_BEEF);
        let hyperpower = cell.mode == Mode::HyperPower;
        let oracle = hyperpower.then_some(session.oracle());
        // The searcher `make_searcher` builds for (method, mode).
        let searcher = match (cell.method, oracle) {
            (Method::Rand, _) => TimedSearcher::new(Box::new(RandomSearch), tracer.clone(), run_id),
            (Method::RandWalk, _) => {
                TimedSearcher::new(Box::new(RandomWalk::default()), tracer.clone(), run_id)
            }
            (Method::HwCwei | Method::HwIeci, None) => TimedSearcher::bo(
                BoSearcher::new(ConstraintWeighting::None, None),
                tracer.clone(),
                run_id,
            ),
            (method, Some(oracle)) => {
                let weighting = if method == Method::HwCwei {
                    ConstraintWeighting::Probability
                } else {
                    ConstraintWeighting::Indicator
                };
                TimedSearcher::bo(
                    BoSearcher::new(weighting, Some(oracle.clone())),
                    tracer.clone(),
                    run_id,
                )
            }
        };
        let setup = RunSetup {
            space: &scenario.space,
            objective: &timed_objective,
            gpu: &mut gpu,
            budgets: scenario.budgets,
            oracle,
            early_termination: hyperpower.then(EarlyTermination::default),
            cost,
            method: cell.method,
            mode: cell.mode,
            budget: cell.budget,
            seed: run_seed,
            searcher_override: Some(Box::new(searcher)),
        };
        tracer
            .time("run", run_id, || run_optimization_with(setup, options))
            .0
    }

    /// One pass of rounds; round `r` runs every cell of the grid with seed
    /// pair `r % LAP`. Before each round every session is built afresh (one
    /// `setup_s` sample) and after it the durable phase makes one pass over
    /// `store` (one `recover_s` and one `fsck_s` sample). Round `r` must
    /// reproduce `expected[r]`'s trace CRCs where given, and round
    /// `r - LAP`'s when `r >= LAP`.
    ///
    /// A `measured` pass probes the host's speed between pieces of work and
    /// reduces each round's spans to its runs' call latencies as soon as it
    /// ends; otherwise the spans are kept for the trace.
    #[allow(clippy::too_many_arguments)]
    fn run_pass(
        &self,
        route: Route<'_>,
        measured: bool,
        extent: Extent,
        expected: Option<&[Vec<u32>]>,
        mut store: Option<&mut Durable>,
        checks: &mut Checks,
        label: &str,
    ) -> Pass {
        let start = Instant::now();
        let tracer = match route {
            Route::Timed(t) => Some(t.as_ref()),
            Route::Library => None,
        };
        let mut p = Pass {
            pace: Pace::new(measured),
            ..Pass::default()
        };
        while extent.more(p.crcs.len(), start) {
            let r = p.crcs.len();
            let pair = (r % LAP) as u64;
            let t = Instant::now();
            let built = self.build_sessions(pair, tracer);
            p.setup_s.push(p.pace.timing(t.elapsed().as_secs_f64()));
            let Some(mut sessions) = checks.record("building sessions", built) else {
                break;
            };

            let mut round = Vec::with_capacity(self.cells.len());
            let mut runs = Vec::with_capacity(self.cells.len());
            let mut round_s = 0.0;
            for (ci, cell) in self.cells.iter().enumerate() {
                p.pace.probe();
                let run_id = (r * self.cells.len() + ci) as u32 + 1;
                let t = Instant::now();
                let result = self.run_cell(&mut sessions, cell, pair, route, run_id, &self.options);
                let run = p.pace.timing(t.elapsed().as_secs_f64());
                round_s += run.secs;
                p.run_s.push(run);
                runs.push(run);
                let what = format!(
                    "{} run {}/{}/{} seed {}",
                    self.name,
                    self.sessions[cell.session].0.name,
                    cell.method,
                    cell.mode,
                    self.run_seed(cell, pair)
                );
                match checks.record(&what, result) {
                    Some(trace) => {
                        p.totals.add(&trace);
                        round.push(trace_crc(&trace));
                    }
                    None => round.push(0),
                }
            }
            p.pace.probe();
            let earlier = r.checked_sub(LAP).map(|e| &p.crcs[e]);
            if let Some(reference) = expected.and_then(|e| e.get(r)).or(earlier) {
                checks.check(round == *reference, || {
                    format!(
                        "{}: {label} round {r} did not reproduce the trace CRCs of seed pair {pair}",
                        self.name
                    )
                });
            }
            p.crcs.push(round);
            if let (Some(tracer), true) = (tracer, measured) {
                let (asks, tells) = call_latencies(&tracer.take_spans(), r, self.cells.len());
                let (mut round_asks, mut round_tells) = (Vec::new(), Vec::new());
                for (run, (asks, tells)) in runs.iter().zip(asks.into_iter().zip(tells)) {
                    // A call is paced like the run it belongs to.
                    round_asks.extend(asks.into_iter().map(|ms| run.part(ms)));
                    round_tells.extend(tells.into_iter().map(|ms| run.part(ms)));
                }
                p.ask_ms.push(round_asks);
                p.tell_ms.push(round_tells);
            }
            if let Some(store) = store.as_deref_mut() {
                self.durable_pass(store, tracer, &mut p, checks);
            }
            let last = |v: &[Timing]| v.last().map_or(0.0, |t| t.secs);
            let recovered: f64 = p
                .recover_s
                .last()
                .map_or(0.0, |v| v.iter().map(|t| t.secs).sum());
            let listed: Vec<String> = p.crcs[r].iter().map(|c| format!("{c:08x}")).collect();
            println!(
                "{label} round {r}: setup {:.6} s, runs {round_s:.4} s, recover {:.5} s, \
                 fsck {:.5} s (host seconds); crc32 {}",
                last(&p.setup_s),
                recovered,
                last(&p.fsck_s),
                listed.join(" ")
            );
        }
        p.wall_s = start.elapsed().as_secs_f64();
        p
    }

    /// The durable phase's runs: Rand and Rand-Walk on each of the
    /// workload's sessions, unscreened and with a fixed evaluation budget.
    /// Screening rejections would make a checkpoint's size, and with it
    /// the (size-quadratic) decode time, swing with the seed; model-free
    /// methods keep the GP out of recovery, as `serve_recover`'s studies do.
    fn durable_cells(&self) -> Vec<Cell> {
        let mut cells: Vec<Cell> = Vec::new();
        for cell in self.cells.iter().filter(|c| c.method.is_model_free()) {
            if !cells
                .iter()
                .any(|c| c.session == cell.session && c.method == cell.method)
            {
                cells.push(Cell {
                    mode: Mode::Default,
                    budget: Budget::Evaluations(DURABLE_EVALS),
                    ..cell.clone()
                });
            }
        }
        cells
    }

    /// Writes the durable phase's checkpoints: each of
    /// [`Sweep::durable_cells`] runs once plainly and once checkpointing
    /// every [`CHECKPOINT_EVERY`] commits, on the sessions of seed pair 0,
    /// and the two must agree.
    fn durable_store(&self, dir: &Path, checks: &mut Checks) -> Option<Durable> {
        std::fs::create_dir_all(dir).ok();
        let mut sessions = checks.record("building sessions", self.build_sessions(0, None))?;
        let mut store = Vec::new();
        for (ci, cell) in self.durable_cells().into_iter().enumerate() {
            let path = dir.join(format!("{ci}.ckpt"));
            let options = self.options.clone().with_checkpoint(CheckpointConfig {
                path: path.clone(),
                every_commits: CHECKPOINT_EVERY,
            });
            let plain = self.run_cell(&mut sessions, &cell, 0, Route::Library, 0, &self.options);
            let checkpointed = self.run_cell(&mut sessions, &cell, 0, Route::Library, 0, &options);
            let plain = checks.record("durable-phase run", plain);
            if let (Some(plain), Some(trace)) =
                (plain, checks.record("checkpointed run", checkpointed))
            {
                let crc = trace_crc(&trace);
                checks.check(crc == trace_crc(&plain), || {
                    format!("{}: checkpointing changed durable run {ci}", self.name)
                });
                store.push(DurableRun {
                    cell,
                    path,
                    samples: trace.queried(),
                    crc,
                });
            }
        }
        let bytes: u64 = store
            .iter()
            .map(|d| std::fs::metadata(&d.path).map(|m| m.len()).unwrap_or(0))
            .sum();
        println!(
            "{} durable phase: {} checkpoints, {} samples, {bytes} bytes",
            self.name,
            store.len(),
            store.iter().map(|d| d.samples).sum::<usize>(),
        );
        Some(Durable {
            sessions,
            runs: store,
        })
    }

    /// One pass of the durable phase: every checkpoint is loaded and
    /// checked, the run is resumed from it (`recover_s`: load,
    /// deterministic re-run against the cached evaluations, prefix
    /// verification) and then every checkpoint is integrity-scanned
    /// (`fsck_s`: CRC frame and decode).
    fn durable_pass(
        &self,
        durable: &mut Durable,
        tracer: Option<&Tracer>,
        p: &mut Pass,
        checks: &mut Checks,
    ) {
        let Durable {
            sessions,
            runs: store,
        } = durable;
        let mut recover_s = Vec::with_capacity(store.len());
        for (ci, run) in store.iter().enumerate() {
            // A resume loads the checkpoint itself; this separate load
            // checks its contents and splits recovery into load and replay.
            let (loaded, _) = timed(tracer, "load", || RunCheckpoint::load(&run.path));
            if let Some(ckpt) = checks.record("loading a checkpoint", loaded) {
                checks.check(ckpt.samples.len() == run.samples, || {
                    format!(
                        "{}: checkpoint {ci} holds the wrong sample count",
                        self.name
                    )
                });
            }
            let options = self.options.clone().with_resume_from(run.path.clone());
            p.pace.probe();
            let io = Io::now().unwrap_or_default();
            let (resumed, secs) = timed(tracer, "recover", || {
                self.run_cell(sessions, &run.cell, 0, Route::Library, 0, &options)
            });
            recover_s.push(p.pace.timing(secs));
            p.recover_read += Io::now().unwrap_or_default().since(io).read;
            if let Some(trace) = checks.record("resuming a checkpointed run", resumed) {
                checks.check(trace_crc(&trace) == run.crc, || {
                    format!(
                        "{}: resumed durable run {ci} differs from its original",
                        self.name
                    )
                });
            }
        }
        p.recover_s.push(recover_s);
        p.samples += store.iter().map(|d| d.samples as u64).sum::<u64>();

        p.pace.probe();
        let io = Io::now().unwrap_or_default();
        let (ok, fsck_s) = timed(tracer, "fsck", || {
            store
                .iter()
                .all(|run| RunCheckpoint::load(&run.path).is_ok())
        });
        p.fsck_s.push(p.pace.timing(fsck_s));
        p.pace.probe();
        p.fsck_read += Io::now().unwrap_or_default().since(io).read;
        checks.check(ok, || {
            format!("{}: a checkpoint failed its integrity scan", self.name)
        });
        p.store_bytes = store
            .iter()
            .map(|d| std::fs::metadata(&d.path).map(|m| m.len()).unwrap_or(0))
            .sum();
    }
}

/// The durable phase: its checkpointed runs and the sessions they ran on.
struct Durable {
    sessions: Vec<Session>,
    runs: Vec<DurableRun>,
}

/// One checkpointed run of the durable phase.
#[derive(Debug)]
struct DurableRun {
    cell: Cell,
    path: std::path::PathBuf,
    samples: usize,
    crc: u32,
}

/// Everything one pass of rounds measured, in host seconds with the
/// pacing segment of each timing.
#[derive(Debug, Default)]
struct Pass {
    pace: Pace,
    /// Per round: each cell's trace CRC.
    crcs: Vec<Vec<u32>>,
    totals: RunTotals,
    /// Per round: building every session.
    setup_s: Vec<Timing>,
    /// Every run of every round.
    run_s: Vec<Timing>,
    /// Per round: every proposal latency and commit gap (see
    /// [`tell_gaps`]), in ms.
    ask_ms: Vec<Vec<Timing>>,
    tell_ms: Vec<Vec<Timing>>,
    /// Per round: each resume of the durable pass after it.
    recover_s: Vec<Vec<Timing>>,
    /// Per round: the durable pass's integrity scan.
    fsck_s: Vec<Timing>,
    samples: u64,
    recover_read: u64,
    fsck_read: u64,
    store_bytes: u64,
    wall_s: f64,
}

/// Per cell of round `round`, in call order: every proposal's latency and
/// every commit gap, in milliseconds.
#[allow(clippy::type_complexity)]
fn call_latencies(spans: &[Span], round: usize, cells: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut by_cell: Vec<Vec<Span>> = vec![Vec::new(); cells];
    for s in spans
        .iter()
        .filter(|s| matches!(s.layer, "propose" | "eval"))
    {
        let cell = (s.run as usize).wrapping_sub(round * cells + 1);
        if let Some(run) = by_cell.get_mut(cell) {
            run.push(*s);
        }
    }
    by_cell
        .iter_mut()
        .map(|run| {
            run.sort_by_key(|s| s.start_ns);
            let asks = run
                .iter()
                .filter(|s| s.layer == "propose")
                .map(|s| s.secs() * 1e3)
                .collect();
            (asks, tell_gaps(run))
        })
        .unzip()
}

/// Host time from an evaluation's end to the executor's next proposal in
/// one run's spans (sorted by start): the commit of that observation
/// (sensor reads, history, ledger) plus the loop's bookkeeping up to the
/// next ask. Only an evaluation dispatched alone right after its proposal
/// counts: after a concurrent batch the gap would also hold thread joins
/// and the other commits.
fn tell_gaps(run: &[Span]) -> Vec<f64> {
    let mut gaps = Vec::new();
    for (i, e) in run.iter().enumerate() {
        if e.layer != "eval" || i == 0 || run[i - 1].layer != "propose" {
            continue;
        }
        let alone = run
            .iter()
            .enumerate()
            .all(|(j, s)| j == i || s.end_ns <= e.start_ns || s.start_ns >= e.end_ns);
        let next = run.iter().find(|s| s.start_ns >= e.end_ns);
        if let (true, Some(next)) = (alone, next) {
            if next.layer == "propose" {
                gaps.push((next.start_ns - e.end_ns) as f64 / 1e6);
            }
        }
    }
    gaps
}

/// The untraced measurement: every end-to-end metric, paced (see
/// [`crate::speed`]).
///
/// A reference round through the library itself comes first; then rounds
/// through the timing decorators for the whole window.
pub fn measure(
    sweep: &Sweep,
    window: Duration,
    dir: &Path,
    checks: &mut Checks,
) -> crate::EndToEndValues {
    let reference = sweep.run_pass(
        Route::Library,
        false,
        Extent::Units(1),
        None,
        None,
        checks,
        "reference",
    );
    let mut store = sweep.durable_store(dir, checks);
    let tracer = Tracer::new(false);
    let p = sweep.run_pass(
        Route::Timed(&tracer),
        true,
        Extent::For(window),
        Some(&reference.crcs),
        store.as_mut(),
        checks,
        "measured",
    );
    let (probes, reference_s) = p.pace.summary();
    println!(
        "{}: {} rounds; host speed probed {probes} times, reference median {:.3} µs",
        sweep.name,
        p.crcs.len(),
        reference_s * 1e6
    );
    let recover_s: Vec<f64> = p
        .recover_s
        .iter()
        .map(|round| p.pace.all(round).iter().sum())
        .collect();
    let run_s: f64 = p.pace.all(&p.run_s).iter().sum();
    let per_slice = |rounds: &[Vec<Timing>]| {
        let paced = rounds.iter().map(|round| p.pace.all(round)).collect();
        slices(paced, SLICE_ROUNDS)
    };
    crate::EndToEndValues {
        setup_s: median(&p.pace.all(&p.setup_s)),
        runs_per_s: p.totals.runs as f64 / run_s,
        tells_per_s: p.totals.evaluations as f64 / run_s,
        ask_ms: per_slice(&p.ask_ms),
        tell_ms: per_slice(&p.tell_ms),
        recover_s: median(&recover_s),
        fsck_s: median(&p.pace.all(&p.fsck_s)),
    }
}

/// The traced run: an untraced pass through the library for half the
/// window, then a traced pass over the same rounds, then the GP fit
/// replay. Returns the per-layer metrics.
pub fn trace(sweep: &Sweep, window: Duration, dir: &Path, checks: &mut Checks) -> Layers {
    let mut layers = Layers::default();
    let mut store = sweep.durable_store(dir, checks);
    let untraced = sweep.run_pass(
        Route::Library,
        false,
        Extent::For(window / 2),
        None,
        store.as_mut(),
        checks,
        "untraced",
    );

    let tracer = Tracer::new(true);
    let cpu_before = probe::cpu_seconds().unwrap_or_default();
    let w = sweep.run_pass(
        Route::Timed(&tracer),
        false,
        Extent::Units(untraced.crcs.len()),
        Some(&untraced.crcs),
        store.as_mut(),
        checks,
        "traced",
    );
    let cpu_after = probe::cpu_seconds().unwrap_or_default();

    let spans = tracer.take_spans();
    let total = |layer: &str| -> (f64, f64) {
        let matching = spans.iter().filter(|s| s.layer == layer);
        (
            matching.clone().map(Span::secs).sum(),
            matching.count() as f64,
        )
    };
    let (session_s, sessions) = total("session");
    let (propose_s, proposals) = total("propose");
    let (eval_s, evals) = total("eval");
    let mut executor_self_ns = 0u64;
    for run in spans.iter().filter(|s| s.layer == "run") {
        let mut children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.run == run.run && s.layer != "run")
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let covered = covered_ns(&mut children, run.start_ns, run.end_ns);
        executor_self_ns += (run.end_ns - run.start_ns) - covered;
    }
    // Every top-level span: child spans (propose, eval) sit inside runs.
    let attributed: f64 = ["session", "run", "load", "recover", "fsck"]
        .iter()
        .map(|layer| total(layer).0)
        .sum();
    let (load_s, _) = total("load");
    let (recover_s, _) = total("recover");
    layers.set("scenario.session_s", session_s);
    layers.set("scenario.sessions", sessions);
    layers.set("methods.propose_s", propose_s);
    layers.set("methods.proposals", proposals);
    layers.set("objective.eval_s", eval_s);
    layers.set("objective.evals", evals);
    layers.set("executor.self_s", executor_self_ns as f64 * 1e-9);
    layers.set("study.commits", w.totals.queried as f64);
    layers.set("study.rejections", w.totals.rejections as f64);
    layers.set(
        "study.accept_ratio",
        w.totals.evaluations as f64 / w.totals.queried.max(1) as f64,
    );
    layers.set("recover.load_s", load_s);
    // Each resume repeats the load the separate load span timed.
    layers.set("recover.replay_s", (recover_s - load_s).max(0.0));
    layers.set("recover.samples", w.samples as f64);
    layers.set("recover.bytes_read", w.recover_read as f64);
    layers.set("fsck.bytes_scanned", w.fsck_read as f64);
    layers.set("store.bytes", w.store_bytes as f64);
    layers.set("proc.user_s", cpu_after.0 - cpu_before.0);
    layers.set("proc.sys_s", cpu_after.1 - cpu_before.1);
    layers.set("trace.overhead_frac", w.wall_s / untraced.wall_s - 1.0);
    layers.set(
        "trace.unattributed_frac",
        ((w.wall_s - attributed) / w.wall_s).max(0.0),
    );
    replay_fits(&tracer.take_fits(), &mut layers, checks);
    layers
}

/// Replays every captured surrogate fit through the library's laddered
/// fit, then scores a candidate grid of the searcher's size through the
/// batched posterior in the searcher's block size. The totals estimate
/// how much of `methods.propose_s` the GP accounts for.
fn replay_fits(fits: &[FitInput], layers: &mut Layers, checks: &mut Checks) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5C0E);
    let (mut fit_s, mut score_s, mut scored) = (0.0, 0.0, 0.0);
    let mut rows_max = 0usize;
    let mut rows_sum = 0usize;
    for fit in fits {
        rows_max = rows_max.max(fit.rows);
        rows_sum += fit.rows;
        let Some(x) = checks.record(
            "building fit inputs",
            Matrix::from_vec(fit.rows, fit.dim, fit.x.clone()),
        ) else {
            continue;
        };
        let t = Instant::now();
        let fitted = fit_gp_hyperparams_laddered(
            Matern52::new(0.5).into_kernel(),
            &x,
            &fit.y,
            fit.fit_options,
            hyperpower::methods::MAX_JITTER_RUNGS,
        );
        fit_s += t.elapsed().as_secs_f64();
        // A fit that fails every rung degrades the proposal to a random
        // walk in the searcher too; there is nothing to score.
        let Ok(laddered) = fitted else { continue };
        let grid = uniform_candidates(&mut rng, fit.candidates, fit.dim);
        let t = Instant::now();
        for start in (0..grid.rows()).step_by(BoSearcher::GP_SCORE_BLOCK) {
            let end = (start + BoSearcher::GP_SCORE_BLOCK).min(grid.rows());
            let mut units = Vec::with_capacity((end - start) * fit.dim);
            for i in start..end {
                units.extend_from_slice(grid.row(i));
            }
            let Ok(queries) = Matrix::from_vec(end - start, fit.dim, units) else {
                continue;
            };
            let scores = laddered.fitted.gp.posterior_batch(&queries);
            checks.check(scores.is_ok(), || "scoring a candidate block failed".into());
        }
        score_s += t.elapsed().as_secs_f64();
        scored += grid.rows() as f64;
    }
    layers.set("gp.fit_s", fit_s);
    layers.set("gp.fits", fits.len() as f64);
    layers.set(
        "gp.fit_rows_mean",
        rows_sum as f64 / fits.len().max(1) as f64,
    );
    layers.set("gp.fit_rows_max", rows_max as f64);
    layers.set("gp.score_s", score_s);
    layers.set("gp.scored", scored);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, run: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            run,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn tell_gaps_count_lone_evaluations_followed_by_a_proposal() {
        let spans = [
            span("propose", 1, 0, 10),
            span("eval", 1, 12, 20),
            span("propose", 1, 25, 30), // gap 5 ns after the first eval
            span("eval", 1, 31, 40),    // a concurrent batch: neither counts
            span("eval", 1, 32, 45),
            span("propose", 1, 50, 60),
            span("propose", 1, 61, 62),
            span("eval", 1, 63, 70),
            span("eval", 1, 71, 72), // batch member after the first: skipped
            span("propose", 1, 80, 90),
            span("eval", 1, 91, 99), // trailing: no next proposal
        ];
        assert_eq!(tell_gaps(&spans), vec![5e-6]);
    }

    #[test]
    fn same_seed_same_grid_and_checksums() {
        let a = batch_sweep(3);
        let b = batch_sweep(3);
        let seeds = |s: &Sweep| -> Vec<u64> { s.cells.iter().map(|c| s.run_seed(c, 0)).collect() };
        assert_eq!(seeds(&a), seeds(&b));
        assert_ne!(seeds(&a), seeds(&batch_sweep(4)));
        assert_eq!(paper_sweep(3).cells.len(), 32);

        // One model-free cell, run twice through each path: all four
        // checksums agree.
        let mut sessions = a.build_sessions(0, None).expect("sessions");
        let cell = a
            .cells
            .iter()
            .find(|c| c.method == Method::Rand)
            .expect("a Rand cell")
            .clone();
        let short = Cell {
            budget: Budget::Evaluations(6),
            ..cell
        };
        let tracer = Tracer::new(true);
        let mut crcs = Vec::new();
        for route in [
            Route::Library,
            Route::Timed(&tracer),
            Route::Library,
            Route::Timed(&tracer),
        ] {
            let trace = a
                .run_cell(&mut sessions, &short, 0, route, 1, &a.options)
                .expect("run");
            crcs.push(trace_crc(&trace));
        }
        assert!(crcs.iter().all(|c| *c == crcs[0]), "{crcs:08x?}");
        assert!(tracer.take_spans().iter().any(|s| s.layer == "propose"));
    }
}
