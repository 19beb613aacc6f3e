//! Aggregation of run traces into the paper's Tables 2–5.
//!
//! Each table compares, per method, the constraint-unaware **Default**
//! baseline against the **HyperPower** variant over a set of paired runs
//! (same run index → same seed family). Cells that the paper prints as
//! "–" (a method that never found a feasible design) are represented as
//! `None`.
//!
//! Aggregation conventions follow the paper: means (and standard
//! deviations) across runs for the value columns, and the **geometric
//! mean across paired runs** for speedup/increase columns.

use hyperpower_linalg::stats;

use crate::driver::Trace;

/// Mean and standard deviation of a per-run statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Mean across runs.
    pub mean: f64,
    /// Sample standard deviation across runs (0 for a single run).
    pub std: f64,
}

fn mean_std(values: &[f64]) -> Option<MeanStd> {
    let mean = stats::mean(values)?;
    let std = stats::std_dev(values).unwrap_or(0.0);
    Some(MeanStd { mean, std })
}

/// A set of paired Default/HyperPower runs for one method on one
/// device–dataset pair.
#[derive(Debug, Clone)]
pub struct PairedRuns {
    /// Default-mode traces, one per run.
    pub default_runs: Vec<Trace>,
    /// HyperPower-mode traces, one per run (paired by index).
    pub hyperpower_runs: Vec<Trace>,
}

/// Table 2 cell pair: mean (std) best test error per mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestErrorRow {
    /// Default-mode best error, or `None` if *no* run found a feasible
    /// design (the paper's "–").
    pub default: Option<MeanStd>,
    /// HyperPower-mode best error.
    pub hyperpower: Option<MeanStd>,
}

/// Table 3 row: runtime for HyperPower to reach the sample count the
/// default queried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeToSamplesRow {
    /// Mean default total runtime in hours.
    pub default_hours: Option<f64>,
    /// Mean HyperPower time (hours) to process as many queried samples as
    /// its paired default run did.
    pub hyperpower_hours: Option<f64>,
    /// Geometric-mean speedup across paired runs.
    pub speedup: Option<f64>,
}

/// Table 4 row: queried-sample counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleCountRow {
    /// Mean samples queried by the default runs.
    pub default_samples: Option<f64>,
    /// Mean samples queried by the HyperPower runs.
    pub hyperpower_samples: Option<f64>,
    /// Geometric-mean per-run increase.
    pub increase: Option<f64>,
}

/// Table 5 row: time to reach the best accuracy the default achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeToAccuracyRow {
    /// Mean time (hours) at which default runs hit their own best error.
    pub default_hours: Option<f64>,
    /// Mean time (hours) at which HyperPower runs matched it.
    pub hyperpower_hours: Option<f64>,
    /// Geometric-mean speedup across paired runs where both sides are
    /// defined.
    pub speedup: Option<f64>,
}

impl PairedRuns {
    /// Per-run best *feasible* errors for one mode; `None` entries are
    /// runs that never found a feasible design. `fallback_error` (the
    /// dataset's chance error) is substituted so failed runs still count
    /// toward the mean, as the paper's large Default means/stds reflect.
    fn best_errors(runs: &[Trace], fallback_error: f64) -> (Vec<f64>, usize) {
        let mut found = 0;
        let values = runs
            .iter()
            .map(|t| match t.best_feasible() {
                Some(b) => {
                    found += 1;
                    b.error
                }
                None => fallback_error,
            })
            .collect();
        (values, found)
    }

    /// Table 2: mean (std) best feasible test error per mode. A mode where
    /// *no* run found a feasible design reports `None` (paper's "–").
    pub fn best_error_row(&self, fallback_error: f64) -> BestErrorRow {
        let (d, d_found) = Self::best_errors(&self.default_runs, fallback_error);
        let (h, h_found) = Self::best_errors(&self.hyperpower_runs, fallback_error);
        BestErrorRow {
            default: if d_found == 0 { None } else { mean_std(&d) },
            hyperpower: if h_found == 0 { None } else { mean_std(&h) },
        }
    }

    /// Table 3: how fast HyperPower reaches the default's queried-sample
    /// count.
    pub fn runtime_to_samples_row(&self) -> RuntimeToSamplesRow {
        let default_hours: Vec<f64> = self
            .default_runs
            .iter()
            .map(|t| t.total_time_s / 3600.0)
            .collect();
        let mut hp_hours = Vec::new();
        let mut ratios = Vec::new();
        for (d, h) in self.default_runs.iter().zip(&self.hyperpower_runs) {
            if let Some(t) = h.time_to_reach_queried(d.queried()) {
                let hours = t / 3600.0;
                hp_hours.push(hours);
                if hours > 0.0 {
                    ratios.push((d.total_time_s / 3600.0) / hours);
                }
            }
        }
        RuntimeToSamplesRow {
            default_hours: stats::mean(&default_hours),
            hyperpower_hours: stats::mean(&hp_hours),
            speedup: stats::geometric_mean(&ratios),
        }
    }

    /// Table 4: queried-sample counts and their increase.
    pub fn sample_count_row(&self) -> SampleCountRow {
        let d: Vec<f64> = self
            .default_runs
            .iter()
            .map(|t| t.queried() as f64)
            .collect();
        let h: Vec<f64> = self
            .hyperpower_runs
            .iter()
            .map(|t| t.queried() as f64)
            .collect();
        let ratios: Vec<f64> = d
            .iter()
            .zip(&h)
            .filter(|(d, _)| **d > 0.0)
            .map(|(d, h)| h / d)
            .collect();
        SampleCountRow {
            default_samples: stats::mean(&d),
            hyperpower_samples: stats::mean(&h),
            increase: stats::geometric_mean(&ratios),
        }
    }

    /// Table 5: time to reach the best accuracy the default achieved.
    /// `None` throughout when the default never found a feasible design
    /// (the paper's "–" rows for Rand-Walk on CIFAR-10).
    pub fn time_to_accuracy_row(&self) -> TimeToAccuracyRow {
        let mut d_hours = Vec::new();
        let mut h_hours = Vec::new();
        let mut ratios = Vec::new();
        for (d, h) in self.default_runs.iter().zip(&self.hyperpower_runs) {
            let Some(best) = d.best_feasible() else {
                continue;
            };
            let d_t = best.timestamp_s / 3600.0;
            d_hours.push(d_t);
            if let Some(h_t) = h.time_to_reach_error(best.error) {
                let h_t = h_t / 3600.0;
                h_hours.push(h_t);
                if h_t > 0.0 {
                    ratios.push(d_t / h_t);
                }
            }
        }
        TimeToAccuracyRow {
            default_hours: stats::mean(&d_hours),
            hyperpower_hours: stats::mean(&h_hours),
            speedup: stats::geometric_mean(&ratios),
        }
    }
}

/// Formats an optional mean (std) cell the way the paper prints it:
/// `"24.39% (3.08%)"`, or `"--"` when undefined.
pub fn format_error_cell(cell: Option<MeanStd>) -> String {
    match cell {
        Some(MeanStd { mean, std }) => format!("{:.2}% ({:.2}%)", mean * 100.0, std * 100.0),
        None => "--".into(),
    }
}

/// Formats an optional scalar cell with the given suffix (e.g. `"x"` for
/// speedups, `""` for hours), or `"--"`.
pub fn format_scalar_cell(value: Option<f64>, suffix: &str) -> String {
    match value {
        Some(v) => format!("{v:.2}{suffix}"),
        None => "--".into(),
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::driver::{Sample, SampleKind};
    use crate::{Budgets, Config, Method, Mode};

    /// A trace with evaluated samples at the given (time, error, feasible).
    fn trace(points: &[(f64, f64, bool)]) -> Trace {
        let samples = points
            .iter()
            .enumerate()
            .map(|(i, (t, e, feasible))| Sample {
                index: i,
                timestamp_s: *t,
                kind: SampleKind::Trained,
                error: Some(*e),
                power_w: 50.0,
                memory_bytes: None,
                latency_s: Some(0.001),
                feasible: *feasible,
                retries: 0,
                faults: Vec::new(),
                failure: None,
                drift_events: Vec::new(),
                degradations: Vec::new(),
                drift_rmspe: None,
                hedged: 0,
                reclaimed: 0,
                config: Config::new(vec![0.5]).unwrap(),
            })
            .collect::<Vec<_>>();
        let total = points.last().map(|(t, _, _)| *t).unwrap_or(0.0);
        Trace {
            method: Method::Rand,
            mode: Mode::Default,
            budgets: Budgets::default(),
            samples,
            total_time_s: total,
        }
    }

    fn paired() -> PairedRuns {
        PairedRuns {
            default_runs: vec![
                trace(&[(3600.0, 0.5, true), (7200.0, 0.4, true)]),
                trace(&[(3600.0, 0.9, false), (7200.0, 0.8, false)]), // never feasible
            ],
            hyperpower_runs: vec![
                trace(&[(100.0, 0.45, true), (200.0, 0.3, true), (300.0, 0.2, true)]),
                trace(&[(100.0, 0.35, true), (200.0, 0.25, true)]),
            ],
        }
    }

    #[test]
    fn table2_uses_fallback_for_failed_runs() {
        let row = paired().best_error_row(0.9);
        let d = row.default.unwrap();
        // Run 1 best 0.4, run 2 fallback 0.9 => mean 0.65.
        assert!((d.mean - 0.65).abs() < 1e-12);
        assert!(d.std > 0.0);
        let h = row.hyperpower.unwrap();
        assert!((h.mean - 0.225).abs() < 1e-12);
    }

    #[test]
    fn table2_all_failed_is_dash() {
        let p = PairedRuns {
            default_runs: vec![trace(&[(100.0, 0.9, false)])],
            hyperpower_runs: vec![trace(&[(100.0, 0.2, true)])],
        };
        let row = p.best_error_row(0.9);
        assert!(row.default.is_none());
        assert!(row.hyperpower.is_some());
    }

    #[test]
    fn table3_speedup_reflects_faster_sampling() {
        let row = paired().runtime_to_samples_row();
        // Defaults each took 2h total over 2 samples; HyperPower reached 2
        // samples at 200s.
        assert!((row.default_hours.unwrap() - 2.0).abs() < 1e-12);
        assert!((row.hyperpower_hours.unwrap() - 200.0 / 3600.0).abs() < 1e-12);
        assert!(row.speedup.unwrap() > 30.0);
    }

    #[test]
    fn table4_increase() {
        let row = paired().sample_count_row();
        assert_eq!(row.default_samples, Some(2.0));
        assert_eq!(row.hyperpower_samples, Some(2.5));
        // Geometric mean of 3/2 and 2/2.
        assert!((row.increase.unwrap() - (1.5f64 * 1.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn table5_skips_pairs_without_feasible_default() {
        let row = paired().time_to_accuracy_row();
        // Only pair 0 counts: default best (0.4) at 2h; HyperPower reached
        // <= 0.4 at 200s (error 0.3).
        assert!((row.default_hours.unwrap() - 2.0).abs() < 1e-12);
        assert!((row.hyperpower_hours.unwrap() - 200.0 / 3600.0).abs() < 1e-12);
        assert!(row.speedup.unwrap() > 30.0);
    }

    #[test]
    fn table5_all_defaults_failed_is_dash() {
        let p = PairedRuns {
            default_runs: vec![trace(&[(100.0, 0.9, false)])],
            hyperpower_runs: vec![trace(&[(50.0, 0.3, true)])],
        };
        let row = p.time_to_accuracy_row();
        assert!(row.default_hours.is_none());
        assert!(row.hyperpower_hours.is_none());
        assert!(row.speedup.is_none());
    }

    #[test]
    fn formatting() {
        assert_eq!(
            format_error_cell(Some(MeanStd {
                mean: 0.2439,
                std: 0.0308
            })),
            "24.39% (3.08%)"
        );
        assert_eq!(format_error_cell(None), "--");
        assert_eq!(format_scalar_cell(Some(57.2), "x"), "57.20x");
        assert_eq!(format_scalar_cell(None, "x"), "--");
    }
}
