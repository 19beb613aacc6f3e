//! Metric values, output checks, percentiles and the result line.
//!
//! The last line a run prints is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything printed
//! before it is the human-readable report.

use std::fmt::Write as _;

/// One reported metric: a name from [`crate::metrics`], its value as
/// measured and its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Counts operations attempted and failed, and remembers why each failure
/// happened. A failed output check counts exactly like a failed call.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation, recording `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts one operation that failed.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }

    /// Counts one fallible operation, recording its error.
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed operations divided by operations attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Groups per-unit samples into slices of `units` consecutive units each;
/// a shorter remainder joins the last full slice.
pub fn slices(per_unit: Vec<Vec<f64>>, units: usize) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    let whole = per_unit.len() / units.max(1);
    for (i, unit) in per_unit.into_iter().enumerate() {
        match out.last_mut() {
            Some(slice) if i % units != 0 || i / units >= whole => slice.extend(unit),
            _ => out.push(unit),
        }
    }
    out
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Samples a percentile must leave beyond it to be reported: with fewer,
/// the tail is a handful of outliers, not a percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`.
///
/// # Errors
///
/// When fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond the percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || n - rank.min(n) < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it; at least {MIN_TAIL_SAMPLES} are needed",
            n - rank.min(n)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank.max(1) - 1])
}

/// Quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match the ones an outside check computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut cut = [0.0; 3];
    for (i, slot) in (1..n).zip(cut.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *slot = (data[j - 1] * (n - delta) as f64 + data[j] * delta as f64) / n as f64;
    }
    Some((cut[0], cut[1], cut[2]))
}

/// Renders the result line. Values keep every digit Rust prints for an
/// `f64` (the shortest representation that reads back exactly).
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Ok(990.0));
        assert_eq!(percentile(&samples, 50.0), Ok(500.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = percentile(&short, 99.0).expect_err("9 samples beyond p99 must fail");
        assert!(err.contains("at least 10"), "{err}");
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn slices_join_a_short_remainder_to_the_last_slice() {
        let units = |n: usize| (0..n).map(|i| vec![i as f64]).collect::<Vec<_>>();
        assert_eq!(slices(units(4), 2), [vec![0.0, 1.0], vec![2.0, 3.0]]);
        assert_eq!(slices(units(5), 2), [vec![0.0, 1.0], vec![2.0, 3.0, 4.0]]);
        assert_eq!(slices(units(1), 2), [vec![0.0]]);
        assert!(slices(Vec::new(), 2).is_empty());
    }

    #[test]
    fn metric_names_are_validated() {
        assert!(valid_metric_name("gp.fit_rows_max"));
        assert!(valid_metric_name("ask_ms_p99"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".leading_dot"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/name"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        checks.check(false, || "bad".into());
        let line = result_line(
            &checks,
            &[Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = hyperpower::golden::parse(&line).expect("the result line is JSON");
        let hyperpower::golden::Value::Object(members) = parsed else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
