//! The optimization loop: budgets, traces and the sample-by-sample record.
//!
//! [`run_optimization`] executes one full hyper-parameter search under
//! either a fixed evaluation count (paper §5, "fixed number of function
//! evaluations": 50 iterations, 30 for MNIST) or a virtual wall-clock
//! budget (2 h MNIST / 5 h CIFAR-10). The resulting [`Trace`] records every
//! *queried sample* — model-rejected, early-terminated or fully trained —
//! with its timestamp, measured hardware metrics and feasibility, which is
//! exactly the information the paper's Figures 4 and 6 and Tables 2–5 are
//! built from.

use hyperpower_gpu_sim::{Gpu, TrainingCostModel};

use crate::executor::{run_optimization_with, ExecutorOptions};
use crate::methods::Searcher;
use crate::{
    Budgets, Config, ConstraintOracle, EarlyTermination, Method, Mode, Objective, Result,
    SearchSpace,
};

/// Stop criterion for one optimization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Stop after this many *function evaluations* (trained candidates;
    /// model-rejected samples do not count).
    Evaluations(usize),
    /// Stop once the virtual clock passes this many hours. The sample in
    /// flight at the deadline completes (as in the paper: "we allow the
    /// last sample queried right before the maximum time limit to
    /// complete").
    VirtualHours(f64),
}

/// How a queried sample was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Predicted constraint-violating by the models and discarded without
    /// training (HyperPower-mode model-free methods only).
    Rejected,
    /// Training started but was aborted by early termination.
    EarlyTerminated,
    /// Trained to completion.
    Trained,
    /// Every attempt failed (fault injection or watchdog timeout); the
    /// sample is recorded as a worst-case "liar" observation.
    Failed,
}

/// One queried sample in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// 0-based query index.
    pub index: usize,
    /// Virtual timestamp (seconds) at which processing of this sample
    /// finished.
    pub timestamp_s: f64,
    /// How the sample was handled.
    pub kind: SampleKind,
    /// Observed test error (`None` for rejected samples).
    pub error: Option<f64>,
    /// Power in watts: measured for evaluated samples, model-predicted for
    /// rejected ones.
    pub power_w: f64,
    /// Measured memory in bytes, where the platform supports it.
    pub memory_bytes: Option<u64>,
    /// Measured inference latency in seconds per example (`None` for
    /// rejected samples).
    pub latency_s: Option<f64>,
    /// Whether the sample satisfies the budgets (by measurement for
    /// evaluated samples; rejected samples are infeasible by prediction).
    pub feasible: bool,
    /// Retries consumed by this sample (0 when the first attempt stood).
    pub retries: u32,
    /// Every fault that struck this sample's attempts, in attempt order.
    pub faults: Vec<crate::recovery::TrialFailure>,
    /// Terminal failure cause for [`SampleKind::Failed`] samples, the
    /// quarantine marker for circuit-broken rejections, or the secondary
    /// cause on a completed sample (e.g. a timeout outranked by early
    /// termination).
    pub failure: Option<crate::recovery::TrialFailure>,
    /// Self-healing state transitions caused by committing this sample
    /// (drift detections, recalibrations, margin moves); empty unless the
    /// drift monitor is active.
    pub drift_events: Vec<crate::drift::DriftEvent>,
    /// Numerical degradation-ladder events hit while *proposing* this
    /// sample (GP jitter escalations, Rand-Walk fallbacks).
    pub degradations: Vec<crate::drift::DegradationEvent>,
    /// Worst live model RMSPE after this commit, when the drift monitor is
    /// active and has measurements.
    pub drift_rmspe: Option<f64>,
    /// Speculative (hedged) duplicate leases issued for this proposal
    /// while a straggler held the original. Operational lease telemetry:
    /// hedging is trace-neutral, so this field is deliberately *excluded*
    /// from the golden codec and the journal/checkpoint record.
    pub hedged: u32,
    /// Leases on this proposal reclaimed after their deadline passed (or
    /// shed under overload) before a worker delivered. Operational lease
    /// telemetry, excluded from the golden codec like [`Sample::hedged`].
    pub reclaimed: u32,
    /// The queried configuration.
    pub config: Config,
}

/// The best feasible design found by a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Best {
    /// Test error of the best feasible design.
    pub error: f64,
    /// Its measured power in watts.
    pub power_w: f64,
    /// Its measured memory in bytes, if available.
    pub memory_bytes: Option<u64>,
    /// Virtual time at which it was found, in seconds.
    pub timestamp_s: f64,
    /// The configuration itself.
    pub config: Config,
}

/// The complete record of one optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Method that produced the trace.
    pub method: Method,
    /// Mode (Default vs HyperPower).
    pub mode: Mode,
    /// Budgets in force.
    pub budgets: Budgets,
    /// Every queried sample, in order.
    pub samples: Vec<Sample>,
    /// Virtual time when the run finished, in seconds.
    pub total_time_s: f64,
}

/// Alias kept for API clarity: a finished run *is* its trace.
pub type Outcome = Trace;

impl Trace {
    /// Total queried samples (the paper's Table 4 metric): rejected +
    /// early-terminated + trained.
    pub fn queried(&self) -> usize {
        self.samples.len()
    }

    /// Function evaluations: samples whose objective was actually run
    /// (early-terminated or trained).
    pub fn evaluations(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.kind != SampleKind::Rejected)
            .count()
    }

    /// Evaluated samples that violated the budgets by *measurement* (the
    /// paper's Figure 4 center metric). Failed samples carry no
    /// measurements and are not counted.
    pub fn measured_violations(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| {
                matches!(s.kind, SampleKind::EarlyTerminated | SampleKind::Trained) && !s.feasible
            })
            .count()
    }

    /// The best feasible design, if any run sample was feasible with an
    /// observed error.
    pub fn best_feasible(&self) -> Option<Best> {
        let mut best: Option<Best> = None;
        for s in &self.samples {
            let (Some(error), true) = (s.error, s.feasible) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| error < b.error) {
                best = Some(Best {
                    error,
                    power_w: s.power_w,
                    memory_bytes: s.memory_bytes,
                    timestamp_s: s.timestamp_s,
                    config: s.config.clone(),
                });
            }
        }
        best
    }

    /// Best feasible error as a function of evaluations: one point per
    /// evaluated sample `(evaluation index, best error so far)`. Feeds the
    /// paper's Figure 4 (left).
    pub fn best_error_by_evaluation(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut best = f64::INFINITY;
        let mut evals = 0;
        for s in &self.samples {
            if s.kind == SampleKind::Rejected {
                continue;
            }
            evals += 1;
            if let (Some(e), true) = (s.error, s.feasible) {
                if e < best {
                    best = e;
                }
            }
            if best.is_finite() {
                out.push((evals, best));
            }
        }
        out
    }

    /// Best feasible error as a function of virtual time `(seconds, best
    /// error so far)`. Feeds the paper's Figure 6.
    pub fn best_error_by_time(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut best = f64::INFINITY;
        for s in &self.samples {
            if let (Some(e), true) = (s.error, s.feasible) {
                if e < best {
                    best = e;
                    out.push((s.timestamp_s, best));
                }
            }
        }
        out
    }

    /// Virtual time (seconds) at which the run had processed `n` queried
    /// samples, or `None` if it never did (feeds Table 3).
    pub fn time_to_reach_queried(&self, n: usize) -> Option<f64> {
        if n == 0 {
            return Some(0.0);
        }
        self.samples.get(n - 1).map(|s| s.timestamp_s)
    }

    /// Virtual time (seconds) at which a feasible design with error ≤
    /// `target` was first found, or `None` (feeds Table 5).
    pub fn time_to_reach_error(&self, target: f64) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.feasible && s.error.is_some_and(|e| e <= target))
            .map(|s| s.timestamp_s)
    }

    /// Worst live model RMSPE at the end of the run, if the drift monitor
    /// was active and produced estimates.
    pub fn final_drift_rmspe(&self) -> Option<f64> {
        self.samples.iter().rev().find_map(|s| s.drift_rmspe)
    }

    /// Number of samples whose commit recalibrated the hardware models.
    pub fn recalibration_count(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| {
                s.drift_events
                    .contains(&crate::drift::DriftEvent::Recalibrated)
            })
            .count()
    }

    /// Total numerical degradation-ladder events across the run.
    pub fn degradation_count(&self) -> usize {
        self.samples.iter().map(|s| s.degradations.len()).sum()
    }

    /// Writes the trace as CSV (one row per queried sample) for external
    /// analysis/plotting. Columns: `index,timestamp_s,kind,error,power_w,
    /// memory_bytes,latency_s,feasible,retries,failure,config...` (the
    /// config's unit-cube coordinates, one column per dimension). When any
    /// sample carries self-healing data, three extra columns
    /// `drift_rmspe,drift_events,degradations` appear before the config
    /// coordinates (event lists joined with `+`); default runs keep the
    /// historical column set. When any sample carries lease telemetry
    /// (hedged duplicates or reclaimed leases), two further columns
    /// `hedged,reclaimed` appear before the config coordinates.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer, the final flush's included.
    /// Pass `&mut writer` to keep using the writer afterwards.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let dim = self.samples.first().map(|s| s.config.dim()).unwrap_or(0);
        let has_drift = self.samples.iter().any(|s| {
            s.drift_rmspe.is_some() || !s.drift_events.is_empty() || !s.degradations.is_empty()
        });
        write!(
            w,
            "index,timestamp_s,kind,error,power_w,memory_bytes,latency_s,feasible,retries,failure"
        )?;
        if has_drift {
            write!(w, ",drift_rmspe,drift_events,degradations")?;
        }
        let has_lease_ops = self.samples.iter().any(|s| s.hedged > 0 || s.reclaimed > 0);
        if has_lease_ops {
            write!(w, ",hedged,reclaimed")?;
        }
        for d in 0..dim {
            write!(w, ",u{d}")?;
        }
        writeln!(w)?;
        for s in &self.samples {
            let kind = match s.kind {
                SampleKind::Rejected => "rejected",
                SampleKind::EarlyTerminated => "early_terminated",
                SampleKind::Trained => "trained",
                SampleKind::Failed => "failed",
            };
            write!(
                w,
                "{},{},{},{},{},{},{},{},{},{}",
                s.index,
                s.timestamp_s,
                kind,
                s.error.map(|e| e.to_string()).unwrap_or_default(),
                s.power_w,
                s.memory_bytes.map(|m| m.to_string()).unwrap_or_default(),
                s.latency_s.map(|l| l.to_string()).unwrap_or_default(),
                s.feasible,
                s.retries,
                s.failure.map(|c| c.wire_name()).unwrap_or_default()
            )?;
            if has_drift {
                let events: Vec<&str> = s.drift_events.iter().map(|e| e.wire_name()).collect();
                let degradations: Vec<String> =
                    s.degradations.iter().map(|d| d.wire_name()).collect();
                write!(
                    w,
                    ",{},{},{}",
                    s.drift_rmspe.map(|r| r.to_string()).unwrap_or_default(),
                    events.join("+"),
                    degradations.join("+")
                )?;
            }
            if has_lease_ops {
                write!(w, ",{},{}", s.hedged, s.reclaimed)?;
            }
            for u in s.config.unit() {
                write!(w, ",{u}")?;
            }
            writeln!(w)?;
        }
        // A buffered writer would otherwise report its last write's error
        // nowhere: dropping it flushes and discards the result.
        w.flush()
    }
}

/// Everything one optimization run needs.
pub struct RunSetup<'a> {
    /// The search space.
    pub space: &'a SearchSpace,
    /// The expensive objective. Shared (`&dyn`) because the executor may
    /// evaluate several candidates on concurrent threads; implementations
    /// are `Sync` and deterministic in `(decoded, eval_seed)`.
    pub objective: &'a dyn Objective,
    /// The target platform (measures power/memory of evaluated samples).
    pub gpu: &'a mut Gpu,
    /// Hardware budgets used to judge feasibility.
    pub budgets: Budgets,
    /// Fitted constraint oracle; `Some` in HyperPower mode.
    pub oracle: Option<&'a ConstraintOracle>,
    /// Early-termination policy; `Some` in HyperPower mode.
    pub early_termination: Option<EarlyTermination>,
    /// Virtual-time cost model.
    pub cost: TrainingCostModel,
    /// Search method.
    pub method: Method,
    /// Enhancement mode.
    pub mode: Mode,
    /// Stop criterion.
    pub budget: Budget,
    /// Run seed (searcher proposals, objective noise, sensor noise order).
    pub seed: u64,
    /// Optional custom proposal strategy. When `Some`, it replaces the
    /// searcher `method`/`mode` would normally build — used by the
    /// acquisition and grid-search ablations; `method`/`mode` then only
    /// label the trace.
    pub searcher_override: Option<Box<dyn Searcher>>,
}

// Manual impl: `objective` and `searcher_override` are trait objects, so
// only their presence is reported.
impl std::fmt::Debug for RunSetup<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSetup")
            .field("budgets", &self.budgets)
            .field("oracle", &self.oracle.is_some())
            .field("early_termination", &self.early_termination)
            .field("cost", &self.cost)
            .field("method", &self.method)
            .field("mode", &self.mode)
            .field("budget", &self.budget)
            .field("seed", &self.seed)
            .field("searcher_override", &self.searcher_override.is_some())
            .finish_non_exhaustive()
    }
}

/// Safety valve: a HyperPower-mode run whose models reject this many
/// candidates *in a row* concludes the predicted-feasible region is
/// (effectively) empty and stops proposing.
pub(crate) const MAX_CONSECUTIVE_REJECTIONS: usize = 20_000;

/// Runs one optimization to completion and returns its [`Trace`].
///
/// The loop itself lives in [`crate::executor`]; this entry point runs it
/// with [`ExecutorOptions::from_env`] — one simulated GPU (the paper's
/// sequential schedule) and the thread count from `HYPERPOWER_WORKERS`.
/// The trace is identical for every worker count.
///
/// # Errors
///
/// Propagates space-decoding, GP-fitting and objective errors.
pub fn run_optimization(setup: RunSetup<'_>) -> Result<Trace> {
    run_optimization_with(setup, &ExecutorOptions::from_env())
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sample(
        index: usize,
        t: f64,
        kind: SampleKind,
        error: Option<f64>,
        feasible: bool,
    ) -> Sample {
        Sample {
            index,
            timestamp_s: t,
            kind,
            error,
            power_w: 80.0,
            memory_bytes: None,
            latency_s: error.map(|_| 0.001),
            feasible,
            retries: 0,
            faults: Vec::new(),
            failure: None,
            drift_events: Vec::new(),
            degradations: Vec::new(),
            drift_rmspe: None,
            hedged: 0,
            reclaimed: 0,
            config: Config::new(vec![0.5]).unwrap(),
        }
    }

    fn toy_trace() -> Trace {
        Trace {
            method: Method::Rand,
            mode: Mode::HyperPower,
            budgets: Budgets::power(crate::Watts(90.0)),
            samples: vec![
                sample(0, 1.0, SampleKind::Rejected, None, false),
                sample(1, 100.0, SampleKind::Trained, Some(0.5), true),
                sample(2, 200.0, SampleKind::Trained, Some(0.3), false),
                sample(3, 300.0, SampleKind::EarlyTerminated, Some(0.9), true),
                sample(4, 400.0, SampleKind::Trained, Some(0.2), true),
            ],
            total_time_s: 400.0,
        }
    }

    #[test]
    fn counting_metrics() {
        let t = toy_trace();
        assert_eq!(t.queried(), 5);
        assert_eq!(t.evaluations(), 4);
        assert_eq!(t.measured_violations(), 1);
    }

    #[test]
    fn failed_samples_consume_evaluations_but_not_measured_violations() {
        let mut t = toy_trace();
        let mut s = sample(5, 500.0, SampleKind::Failed, None, false);
        s.retries = 2;
        s.faults = vec![crate::recovery::TrialFailure::Crash; 3];
        s.failure = Some(crate::recovery::TrialFailure::Crash);
        t.samples.push(s);
        // A failed trial spent its evaluation budget…
        assert_eq!(t.evaluations(), 5);
        // …but carries no measurements, so it is not a *measured* violation.
        assert_eq!(t.measured_violations(), 1);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.contains("failed"));
        assert!(last.contains(",2,crash"));
    }

    #[test]
    fn best_feasible_ignores_infeasible_and_rejected() {
        let t = toy_trace();
        let best = t.best_feasible().unwrap();
        // 0.3 was infeasible; best feasible is 0.2.
        assert_eq!(best.error, 0.2);
        assert_eq!(best.timestamp_s, 400.0);
    }

    #[test]
    fn best_error_curves() {
        let t = toy_trace();
        let by_eval = t.best_error_by_evaluation();
        // Evaluations: idx1 (0.5 feasible), idx2 (infeasible), idx3 (0.9), idx4 (0.2).
        assert_eq!(by_eval, vec![(1, 0.5), (2, 0.5), (3, 0.5), (4, 0.2)]);
        let by_time = t.best_error_by_time();
        assert_eq!(by_time, vec![(100.0, 0.5), (400.0, 0.2)]);
    }

    #[test]
    fn time_metrics() {
        let t = toy_trace();
        assert_eq!(t.time_to_reach_queried(0), Some(0.0));
        assert_eq!(t.time_to_reach_queried(2), Some(100.0));
        assert_eq!(t.time_to_reach_queried(99), None);
        assert_eq!(t.time_to_reach_error(0.5), Some(100.0));
        assert_eq!(t.time_to_reach_error(0.25), Some(400.0));
        assert_eq!(t.time_to_reach_error(0.1), None);
    }

    #[test]
    fn csv_export_lists_all_samples() {
        let t = toy_trace();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + t.queried());
        assert!(lines[0].starts_with("index,timestamp_s,kind"));
        assert!(lines[0].ends_with(",u0"));
        assert!(lines[1].contains("rejected"));
        assert!(lines[2].contains("trained"));
        assert!(lines[4].contains("early_terminated"));
        // Rejected samples have an empty error field.
        assert!(lines[1].contains(",,"));
    }

    #[test]
    fn csv_export_reports_a_failed_flush() {
        /// Takes every write, then fails to flush, as a buffered file on a
        /// full disk does.
        struct FullDisk(usize);
        impl std::io::Write for FullDisk {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "disk full",
                ))
            }
        }
        let mut w = FullDisk(0);
        let err = toy_trace().write_csv(&mut w).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert!(w.0 > 0, "every row was written before the flush");
    }

    #[test]
    fn csv_gains_drift_columns_only_when_present() {
        use crate::drift::{DegradationEvent, DriftEvent, DriftTarget};
        let mut t = toy_trace();
        // Default traces keep the historical column set.
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        assert!(!clean.contains("drift_rmspe"));
        // A recalibrating run grows the three drift columns.
        t.samples[2].drift_rmspe = Some(0.25);
        t.samples[2].drift_events = vec![
            DriftEvent::DriftDetected(DriftTarget::Power),
            DriftEvent::Recalibrated,
        ];
        t.samples[4].degradations = vec![DegradationEvent::RandWalkFallback];
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains(",drift_rmspe,drift_events,degradations,u0"));
        assert!(lines[3].contains(",0.25,drift:power+recalibrated,,"));
        assert!(lines[5].contains(",,,rand-walk-fallback,"));
        assert_eq!(t.final_drift_rmspe(), Some(0.25));
        assert_eq!(t.recalibration_count(), 1);
        assert_eq!(t.degradation_count(), 1);
    }

    #[test]
    fn empty_trace_has_no_best() {
        let t = Trace {
            method: Method::HwIeci,
            mode: Mode::Default,
            budgets: Budgets::default(),
            samples: vec![],
            total_time_s: 0.0,
        };
        assert!(t.best_feasible().is_none());
        assert!(t.best_error_by_time().is_empty());
        assert_eq!(t.evaluations(), 0);
    }
}
