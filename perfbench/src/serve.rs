//! `serve_recover`: the crash-safe study server under a closed loop.
//!
//! One client thread serves several long model-free studies the way
//! `hyperpower serve` does: each round it runs `tick_hedge`, then asks
//! every unfinished study for [`LEASES_PER_ROUND`] leases, evaluates them
//! with the synthetic objective and tells each result. Model-free
//! proposals cost microseconds, so the study ledger, the journal, the
//! snapshot codec and replay do the work; the GP does none. The server
//! snapshots at the crash point and the finish only ([`SNAPSHOT_EVERY`]).
//!
//! A *cycle* builds a fresh store, serves until half of every study has
//! committed, crashes the server by dropping it, reopens every study
//! (load + replay + byte-verify), serves to the end and runs `fsck_store`
//! over the finished store. Every study's final trace must byte-equal an
//! uninterrupted `run_optimization_with` reference, as the chaos harness
//! checks. Every cycle does identical work; a measured run serves cycles
//! until the window is used up, probing the host's speed between pieces
//! of work (see [`crate::speed`]).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hyperpower::driver::RunSetup;
use hyperpower::golden::encode_trace;
use hyperpower::integrity::crc32;
use hyperpower::{
    run_optimization_with, Budget, Budgets, DriftConfig, EarlyTermination, ExecutorOptions, Method,
    Mode, Objective, RetryPolicy, SearchSpace, StudySpec, TellOutcome,
};
use hyperpower_gpu_sim::{DeviceProfile, FaultProfile, Gpu, TrainingCostModel};
use hyperpower_server::{
    fsck_store, ServerConfig, ServerError, StudyJournal, StudyServer, StudySetup,
    SyntheticObjective,
};

use crate::probe::{self, Io};
use crate::report::{mean, median, Checks};
use crate::spans::{timed, Tracer};
use crate::speed::{Pace, Timing};
use crate::{Extent, Layers};

/// Studies hosted per cycle (two Rand, two Rand-Walk).
const STUDIES: usize = 4;
/// Evaluations per study.
const STUDY_EVALS: usize = 400;
/// Leases each study is asked for per round (the closed loop's workers).
/// One lease per ask gives a cycle 1,600 asks and 1,600 tells, enough for
/// a 99th percentile per cycle.
const LEASES_PER_ROUND: usize = 1;
/// Snapshot (and journal-rotation) cadence in commits: once at the crash
/// point and once at the finish, so recovery loads and decodes a snapshot
/// and the scan decodes the final ones. The default cadence (8) sends
/// every eighth tell through a create, a rename and a truncate. On a
/// shared disk those took 2–5× longer for minutes at a time: between two
/// ten-seed rounds the 99th-percentile tell went from 0.8 ms to 4.2 ms and
/// serving throughput fell 57%, while appends held. No bound holds that.
const SNAPSHOT_EVERY: usize = STUDY_EVALS / 2;
/// Scheduler-clock seconds per round, as `hyperpower serve` advances it.
const ROUND_SECS: f64 = 60.0;
/// Rounds served before the crash: half of every study commits first.
const CRASH_ROUND: u64 = (STUDY_EVALS / 2).div_ceil(LEASES_PER_ROUND) as u64;
/// Rounds served between two host-speed probes of a measured run (a few
/// milliseconds of serving).
const PROBE_ROUNDS: u64 = 20;

#[derive(Debug, Clone)]
struct StudyDef {
    name: String,
    method: Method,
    seed: u64,
}

/// The workload's studies for `seed`.
#[derive(Debug)]
pub struct Serve {
    studies: Vec<StudyDef>,
    /// Trace CRC of each study's uninterrupted reference run.
    references: Vec<u32>,
}

fn spec(st: &StudyDef) -> StudySpec {
    StudySpec {
        method: st.method,
        mode: Mode::HyperPower,
        budget: Budget::Evaluations(STUDY_EVALS),
        seed: st.seed,
        budgets: Budgets::default(),
        cost: TrainingCostModel::default(),
        early_termination: Some(EarlyTermination::default()),
        fault_profile: FaultProfile::none(),
        retry: RetryPolicy::default(),
        drift: DriftConfig::default(),
    }
}

fn setup(st: &StudyDef, priority: usize) -> StudySetup {
    StudySetup {
        space: SearchSpace::mnist(),
        gpu: Gpu::new(DeviceProfile::gtx_1070(), st.seed),
        oracle: None,
        spec: spec(st),
        priority: priority as u32 + 1,
    }
}

/// Builds the studies and their uninterrupted reference checksums.
pub fn serve_recover(seed: u64, checks: &mut Checks) -> Serve {
    let studies: Vec<StudyDef> = (0..STUDIES)
        .map(|i| StudyDef {
            name: format!("study{i}"),
            method: if i % 2 == 0 {
                Method::Rand
            } else {
                Method::RandWalk
            },
            seed: seed * 1000 + i as u64 + 1,
        })
        .collect();
    let references = studies
        .iter()
        .map(|st| {
            let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), st.seed);
            let reference = run_optimization_with(
                RunSetup {
                    space: &SearchSpace::mnist(),
                    objective: &SyntheticObjective,
                    gpu: &mut gpu,
                    budgets: Budgets::default(),
                    oracle: None,
                    early_termination: Some(EarlyTermination::default()),
                    cost: TrainingCostModel::default(),
                    method: st.method,
                    mode: Mode::HyperPower,
                    budget: Budget::Evaluations(STUDY_EVALS),
                    seed: st.seed,
                    searcher_override: None,
                },
                &ExecutorOptions::default()
                    .with_workers(1)
                    .with_simulated_gpus(1),
            );
            checks
                .record("reference run", reference)
                .map_or(0, |t| crc32(encode_trace(&t).as_bytes()))
        })
        .collect();
    Serve {
        studies,
        references,
    }
}

/// Everything the cycles measured. Timings are host seconds (ask and
/// tell latencies milliseconds) with their pacing segment.
#[derive(Debug, Default)]
struct Stats {
    pace: Pace,
    setup_s: Vec<Timing>,
    /// Per cycle: each `open_study` after the crash, and the restart.
    recover_s: Vec<Vec<Timing>>,
    fsck_s: Vec<Timing>,
    /// Per cycle: every round served.
    serving_s: Vec<Vec<Timing>>,
    accepted_tells: u64,
    finished_studies: u64,
    /// Per cycle: every ask's and every tell's latency.
    ask_ms: Vec<Vec<Timing>>,
    tell_ms: Vec<Vec<Timing>>,
    /// Per study and cycle: ask and tell latencies in call order.
    ask_seq: Vec<Vec<f64>>,
    tell_seq: Vec<Vec<f64>>,
    tick_s: f64,
    ticks: u64,
    eval_s: f64,
    evals: u64,
    refusals: u64,
    commits: u64,
    /// Samples queried and evaluated across every finished study.
    queried: u64,
    evaluated: u64,
    recovered: u64,
    load_s: f64,
    open_s: f64,
    recover_read: u64,
    fsck_read: u64,
    store_bytes: u64,
    /// Per tell (io-probe cycle only): bytes written and latency.
    tell_io: Vec<(u64, f64)>,
    serving_written: u64,
    cycles: u64,
}

fn is_refusal(e: &ServerError) -> bool {
    matches!(
        e,
        ServerError::Overloaded { .. }
            | ServerError::Backpressure { .. }
            | ServerError::CircuitOpen { .. }
    )
}

impl Serve {
    fn config(root: &Path) -> ServerConfig {
        ServerConfig {
            root: root.to_path_buf(),
            snapshot_every_commits: SNAPSHOT_EVERY,
            ..ServerConfig::default()
        }
    }

    /// Serves rounds until every study finished or `until` rounds ran.
    #[allow(clippy::too_many_arguments)]
    fn serve_rounds(
        &self,
        server: &mut StudyServer,
        until: Option<u64>,
        tracer: Option<&Tracer>,
        probe_io: bool,
        seq_base: usize,
        stats: &mut Stats,
        checks: &mut Checks,
    ) {
        let mut now_s = 0.0;
        let mut round = 0;
        loop {
            let unfinished: Vec<usize> = (0..self.studies.len())
                .filter(|&i| !server.is_finished(&self.studies[i].name).unwrap_or(true))
                .collect();
            if unfinished.is_empty() || until.is_some_and(|n| round >= n) {
                break;
            }
            if round % PROBE_ROUNDS == 0 {
                stats.pace.probe();
            }
            let start = Instant::now();
            round += 1;
            now_s += ROUND_SECS;
            let (report, tick_s) = timed(tracer, "tick", || server.tick_hedge(now_s));
            stats.tick_s += tick_s;
            stats.ticks += 1;
            // Every lease is told within its round, so nothing expires and
            // nothing is hedged; either would mean the loop lost a result.
            checks.check(report.reclaimed == 0 && report.hedged.is_empty(), || {
                format!("round {round}: leases expired or were hedged in a closed loop")
            });
            for i in unfinished {
                let name = &self.studies[i].name;
                let io_before = probe_io.then(|| Io::now().unwrap_or_default());
                let (asked, ask_s) =
                    timed(tracer, "ask", || server.ask(name, LEASES_PER_ROUND, now_s));
                if let Some(before) = io_before {
                    stats.serving_written += Io::now().unwrap_or_default().since(before).written;
                }
                let ask = stats.pace.timing(ask_s * 1e3);
                if let Some(cycle) = stats.ask_ms.last_mut() {
                    cycle.push(ask);
                }
                stats.ask_seq[seq_base + i].push(ask_s * 1e3);
                let batch = match asked {
                    Ok(batch) => batch,
                    Err(e) => {
                        stats.refusals += u64::from(is_refusal(&e));
                        checks.fail(format!("ask {name}: {e}"));
                        continue;
                    }
                };
                checks.attempted += 1;
                for candidate in batch {
                    let (result, eval_s) = timed(tracer, "eval", || {
                        SyntheticObjective.evaluate(&candidate.decoded, None, candidate.eval_seed)
                    });
                    stats.eval_s += eval_s;
                    stats.evals += 1;
                    let Some(result) = checks.record("evaluating a lease", result) else {
                        continue;
                    };
                    let io_before = probe_io.then(|| Io::now().unwrap_or_default());
                    let (told, tell_s) = timed(tracer, "tell", || {
                        server.tell(name, candidate.lease_id, &result)
                    });
                    if let Some(before) = io_before {
                        let written = Io::now().unwrap_or_default().since(before).written;
                        stats.serving_written += written;
                        stats.tell_io.push((written, tell_s * 1e3));
                    }
                    let tell = stats.pace.timing(tell_s * 1e3);
                    if let Some(cycle) = stats.tell_ms.last_mut() {
                        cycle.push(tell);
                    }
                    stats.tell_seq[seq_base + i].push(tell_s * 1e3);
                    match told {
                        Ok(TellOutcome::Accepted { committed }) => {
                            stats.accepted_tells += 1;
                            stats.commits += committed as u64;
                            checks.attempted += 1;
                        }
                        Ok(other) => checks.fail(format!(
                            "tell {name} lease {}: {other:?} in a closed loop",
                            candidate.lease_id
                        )),
                        Err(e) => {
                            stats.refusals += u64::from(is_refusal(&e));
                            checks.fail(format!("tell {name}: {e}"));
                        }
                    }
                }
            }
            let served = stats.pace.timing(start.elapsed().as_secs_f64());
            if let Some(cycle) = stats.serving_s.last_mut() {
                cycle.push(served);
            }
        }
        stats.pace.probe();
    }

    /// One full cycle on a fresh store under `root`.
    fn cycle(
        &self,
        root: &Path,
        tracer: Option<&Tracer>,
        probe_io: bool,
        stats: &mut Stats,
        checks: &mut Checks,
    ) {
        std::fs::remove_dir_all(root).ok();
        let seq_base = stats.ask_seq.len();
        stats
            .ask_seq
            .extend((0..self.studies.len()).map(|_| Vec::new()));
        stats
            .tell_seq
            .extend((0..self.studies.len()).map(|_| Vec::new()));
        stats.ask_ms.push(Vec::new());
        stats.tell_ms.push(Vec::new());
        stats.serving_s.push(Vec::new());

        stats.pace.probe();
        let (server, setup_s) = timed(tracer, "setup", || -> Result<StudyServer, ServerError> {
            let mut server = StudyServer::new(Self::config(root))?;
            for (i, st) in self.studies.iter().enumerate() {
                server.create_study(&st.name, setup(st, i))?;
            }
            Ok(server)
        });
        stats.setup_s.push(stats.pace.timing(setup_s));
        let Some(mut server) = checks.record("creating the server and its studies", server) else {
            return;
        };
        self.serve_rounds(
            &mut server,
            Some(CRASH_ROUND),
            tracer,
            probe_io,
            seq_base,
            stats,
            checks,
        );
        let committed: Vec<usize> = self
            .studies
            .iter()
            .map(|st| server.committed(&st.name).unwrap_or(0))
            .collect();
        // The crash: no flush, no snapshot, the process state is gone.
        drop(server);

        let mut recover_s = Vec::with_capacity(self.studies.len() + 1);
        let (restarted, restart_s) =
            timed(tracer, "setup", || StudyServer::new(Self::config(root)));
        recover_s.push(stats.pace.timing(restart_s));
        let Some(mut server) = checks.record("restarting the server", restarted) else {
            return;
        };
        for (i, st) in self.studies.iter().enumerate() {
            if tracer.is_some() {
                // Timed on its own to split recovery into load and replay;
                // `open_study` loads the journal again itself.
                let (loaded, load_s) = timed(tracer, "load", || StudyJournal::load(root, &st.name));
                stats.load_s += load_s;
                checks.record("loading a journal", loaded);
            }
            stats.pace.probe();
            let io = Io::now().unwrap_or_default();
            let (opened, open_s) =
                timed(tracer, "open", || server.open_study(&st.name, setup(st, i)));
            recover_s.push(stats.pace.timing(open_s));
            stats.recover_read += Io::now().unwrap_or_default().since(io).read;
            stats.open_s += open_s;
            if let Some(n) = checks.record(&format!("reopening {}", st.name), opened) {
                stats.recovered += n as u64;
                checks.check(n == committed[i], || {
                    format!(
                        "{}: recovered {n} samples, {} were committed",
                        st.name, committed[i]
                    )
                });
            }
        }
        let recover_host_s: f64 = recover_s.iter().map(|t| t.secs).sum();
        stats.recover_s.push(recover_s);

        self.serve_rounds(&mut server, None, tracer, probe_io, seq_base, stats, checks);
        let finished = self
            .studies
            .iter()
            .filter(|st| server.is_finished(&st.name).unwrap_or(false))
            .count() as u64;
        stats.finished_studies += finished;
        stats.store_bytes = store_bytes(root);

        let io = Io::now().unwrap_or_default();
        let (report, fsck_s) = timed(tracer, "fsck", || fsck_store(root, false));
        stats.fsck_s.push(stats.pace.timing(fsck_s));
        stats.pace.probe();
        stats.fsck_read += Io::now().unwrap_or_default().since(io).read;
        if let Some(report) = checks.record("fsck_store", report) {
            checks.check(
                report.clean() && report.studies.len() == self.studies.len(),
                || format!("fsck found defects in a finished store:\n{report}"),
            );
        }
        for (st, reference) in self.studies.iter().zip(&self.references) {
            let crc = server.trace(&st.name).map(|t| {
                stats.queried += t.queried() as u64;
                stats.evaluated += t.evaluations() as u64;
                crc32(encode_trace(&t).as_bytes())
            });
            checks.check(matches!(crc, Ok(c) if c == *reference), || {
                format!(
                    "{}: served trace differs from the uninterrupted reference",
                    st.name
                )
            });
        }
        let host_s = |ts: Option<&Vec<Timing>>| -> Vec<f64> {
            ts.map_or(Vec::new(), |ts| ts.iter().map(|t| t.secs).collect())
        };
        println!(
            "serve_recover cycle {}: setup {:.6} s, serving {:.4} s (median tell {:.6} ms), \
             recover {recover_host_s:.4} s, fsck {fsck_s:.4} s (host seconds)",
            stats.cycles,
            setup_s,
            host_s(stats.serving_s.last()).iter().sum::<f64>(),
            median(&host_s(stats.tell_ms.last())),
        );
        stats.cycles += 1;
    }

    /// Runs cycles over `extent`, stopping early at the first failure; a
    /// `paced` run probes the host's speed between pieces of work.
    fn run_cycles(
        &self,
        root: &Path,
        extent: Extent,
        paced: bool,
        tracer: Option<&Tracer>,
        checks: &mut Checks,
    ) -> Stats {
        let mut stats = Stats {
            pace: Pace::new(paced),
            ..Stats::default()
        };
        let start = Instant::now();
        while extent.more(stats.cycles as usize, start) && checks.failures.is_empty() {
            self.cycle(root, tracer, false, &mut stats, checks);
        }
        std::fs::remove_dir_all(root).ok();
        stats
    }
}

fn store_bytes(root: &Path) -> u64 {
    std::fs::read_dir(root)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn store_dir(dir: &Path) -> PathBuf {
    dir.join("store")
}

/// The untraced measurement: every end-to-end metric, paced (see
/// [`crate::speed`]), over as many cycles as the window holds.
pub fn measure(
    serve: &Serve,
    window: Duration,
    dir: &Path,
    checks: &mut Checks,
) -> crate::EndToEndValues {
    let root = store_dir(dir);
    let stats = serve.run_cycles(&root, Extent::For(window), true, None, checks);
    let (probes, reference_s) = stats.pace.summary();
    println!(
        "serve_recover: {} cycle(s), {} accepted tells, {} studies finished; every study \
         matched its reference trace crc32 {}; host speed probed {probes} times, reference \
         median {:.3} µs",
        stats.cycles,
        stats.accepted_tells,
        stats.finished_studies,
        serve
            .references
            .iter()
            .map(|c| format!("{c:08x}"))
            .collect::<Vec<_>>()
            .join(" "),
        reference_s * 1e6
    );
    let pace = &stats.pace;
    let per_cycle_sum = |cycles: &[Vec<Timing>]| -> Vec<f64> {
        cycles.iter().map(|c| pace.all(c).iter().sum()).collect()
    };
    // Each cycle's calls are a latency slice: a cycle that stalled on the
    // shared disk moves no median.
    let per_slice =
        |cycles: &[Vec<Timing>]| -> Vec<Vec<f64>> { cycles.iter().map(|c| pace.all(c)).collect() };
    // Every cycle serves the same studies and tells: throughput is that
    // work over the median cycle's serving time.
    let cycles = stats.cycles.max(1) as f64;
    let serving_s = median(&per_cycle_sum(&stats.serving_s));
    crate::EndToEndValues {
        setup_s: median(&pace.all(&stats.setup_s)),
        runs_per_s: stats.finished_studies as f64 / cycles / serving_s,
        tells_per_s: stats.accepted_tells as f64 / cycles / serving_s,
        ask_ms: per_slice(&stats.ask_ms),
        tell_ms: per_slice(&stats.tell_ms),
        recover_s: median(&per_cycle_sum(&stats.recover_s)),
        fsck_s: median(&pace.all(&stats.fsck_s)),
    }
}

/// Mean of the last tenth of `seq` over the mean of its first tenth.
fn growth(seq: &[f64]) -> Option<f64> {
    let tenth = seq.len() / 10;
    if tenth == 0 {
        return None;
    }
    let first = mean(&seq[..tenth]);
    let last = mean(&seq[seq.len() - tenth..]);
    (first > 0.0).then(|| last / first)
}

fn mean_growth(seqs: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = seqs.iter().filter_map(|s| growth(s)).collect();
    mean(&ratios)
}

/// The traced run: an untraced pass, a traced pass over the same number
/// of cycles, and one more cycle that reads `/proc/self/io` around every
/// call to attribute bytes written to each tell.
pub fn trace(serve: &Serve, window: Duration, dir: &Path, checks: &mut Checks) -> Layers {
    let root = store_dir(dir);
    let mut layers = Layers::default();
    let untraced_start = Instant::now();
    let untraced = serve.run_cycles(&root, Extent::For(window / 2), false, None, checks);
    let untraced_wall = untraced_start.elapsed().as_secs_f64();

    let tracer = Tracer::new(false);
    let cpu_before = probe::cpu_seconds().unwrap_or_default();
    let traced_start = Instant::now();
    let extent = Extent::Units(untraced.cycles as usize);
    let stats = serve.run_cycles(&root, extent, false, Some(&tracer), checks);
    let traced_wall = traced_start.elapsed().as_secs_f64();
    let cpu_after = probe::cpu_seconds().unwrap_or_default();
    let attributed: f64 = tracer.take_spans().iter().map(|s| s.secs()).sum();

    let mut io_stats = Stats::default();
    serve.cycle(&root, None, true, &mut io_stats, checks);
    std::fs::remove_dir_all(&root).ok();
    // A snapshot-and-rotate tell rewrites the whole trace; an append-only
    // tell writes one or two short journal records. Anything over four
    // times the median tell is a snapshot turn.
    let written: Vec<f64> = io_stats.tell_io.iter().map(|(w, _)| *w as f64).collect();
    let threshold = 4.0 * median(&written);
    let (snapshot, append): (Vec<_>, Vec<_>) = io_stats
        .tell_io
        .iter()
        .partition(|(w, _)| *w as f64 > threshold);
    let ms = |v: &[&(u64, f64)]| mean(&v.iter().map(|(_, ms)| *ms).collect::<Vec<_>>());

    let total_s =
        |cycles: &[Vec<Timing>]| cycles.iter().flatten().map(|t| t.secs).sum::<f64>() * 1e-3;
    layers.set("server.ask_s", total_s(&stats.ask_ms));
    layers.set(
        "server.asks",
        stats.ask_ms.iter().map(Vec::len).sum::<usize>() as f64,
    );
    layers.set("server.tell_s", total_s(&stats.tell_ms));
    layers.set(
        "server.tells",
        stats.tell_ms.iter().map(Vec::len).sum::<usize>() as f64,
    );
    layers.set("server.tick_s", stats.tick_s);
    layers.set("server.ticks", stats.ticks as f64);
    layers.set("server.refusals", stats.refusals as f64);
    layers.set("server.ask_growth", mean_growth(&stats.ask_seq));
    layers.set("server.tell_growth", mean_growth(&stats.tell_seq));
    layers.set("objective.eval_s", stats.eval_s);
    layers.set("objective.evals", stats.evals as f64);
    layers.set("study.commits", stats.commits as f64);
    layers.set(
        "study.accept_ratio",
        stats.evaluated as f64 / stats.queried.max(1) as f64,
    );
    layers.set("journal.bytes_written", io_stats.serving_written as f64);
    layers.set(
        "journal.bytes_per_commit",
        io_stats.serving_written as f64 / io_stats.commits.max(1) as f64,
    );
    layers.set(
        "journal.write_amplification",
        io_stats.serving_written as f64 / io_stats.store_bytes.max(1) as f64,
    );
    layers.set("journal.snapshot_tells", snapshot.len() as f64);
    layers.set("journal.snapshot_ms_mean", ms(&snapshot));
    layers.set("journal.append_ms_mean", ms(&append));
    layers.set("store.bytes", io_stats.store_bytes as f64);
    layers.set("recover.load_s", stats.load_s);
    layers.set("recover.replay_s", (stats.open_s - stats.load_s).max(0.0));
    layers.set("recover.samples", stats.recovered as f64);
    layers.set("recover.bytes_read", stats.recover_read as f64);
    layers.set("fsck.bytes_scanned", stats.fsck_read as f64);
    layers.set("proc.user_s", cpu_after.0 - cpu_before.0);
    layers.set("proc.sys_s", cpu_after.1 - cpu_before.1);
    layers.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    layers.set(
        "trace.unattributed_frac",
        ((traced_wall - attributed) / traced_wall).max(0.0),
    );
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_compares_last_tenth_to_first_tenth() {
        let seq: Vec<f64> = (0..20)
            .map(|i| {
                if i < 2 {
                    1.0
                } else if i >= 18 {
                    3.0
                } else {
                    2.0
                }
            })
            .collect();
        assert_eq!(growth(&seq), Some(3.0));
        assert_eq!(growth(&[1.0; 9]), None);
    }

    #[test]
    fn same_seed_same_studies_and_references() {
        let mut checks = Checks::default();
        let a = serve_recover(5, &mut checks);
        let b = serve_recover(5, &mut checks);
        let c = serve_recover(6, &mut checks);
        assert!(checks.failures.is_empty(), "{:?}", checks.failures);
        let seeds = |s: &Serve| s.studies.iter().map(|st| st.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
        assert_eq!(a.references, b.references);
        assert_ne!(a.references, c.references);
    }
}
