//! `compare` sets two result sets side by side against the benchmark's
//! bounds.
//!
//! A result set is a directory holding `<workload>.jsonl`: one result line
//! (the last line a run prints) per run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use hyperpower::golden::{parse, Value};

use crate::metrics::{EndToEnd, END_TO_END};
use crate::report::quartiles;
use crate::{EXTRA_WORKLOADS, WORKLOADS};

fn member<'a>(members: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Every metric value per name across the result lines of one file.
fn load_results(path: &Path) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{}:{}", path.display(), i + 1);
        let Ok(Value::Object(root)) = parse(line) else {
            return Err(format!("{}: not a result line", at()));
        };
        let Some(Value::Object(metrics)) = member(&root, "metrics") else {
            return Err(format!("{}: no metrics object", at()));
        };
        for (name, metric) in metrics {
            let Value::Object(fields) = metric else {
                continue;
            };
            if let Some(Value::Number(v)) = member(fields, "value") {
                values.entry(name.clone()).or_default().push(*v);
            }
        }
    }
    Ok(values)
}

/// One side's summary: median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Option<Summary> {
        let (q1, median, q3) = quartiles(values)?;
        Some(Summary { q1, median, q3 })
    }

    /// The distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The verdict on one (workload, metric) pair, by the rule the benchmark's
/// bounds define: worse by more than the bound is a regression; a spread
/// wider than the bound on either side leaves it unresolved unless every
/// head run beats every base run; a gain needs the medians to differ by
/// more than the base's own spread.
fn verdict(metric: &EndToEnd, base: &[f64], head: &[f64]) -> (String, Option<(Summary, Summary)>) {
    let (Some(b), Some(h)) = (Summary::of(base), Summary::of(head)) else {
        return ("too few runs".into(), None);
    };
    let lower = metric.better == "lower";
    // Positive when head is worse, as a share of the base median.
    let worse = if lower {
        h.median - b.median
    } else {
        b.median - h.median
    } / b.median.abs();
    let all_better = head
        .iter()
        .all(|&x| base.iter().all(|&y| if lower { x < y } else { x > y }));
    let verdict = if worse > metric.bound {
        "WORSE"
    } else if (b.spread() > metric.bound || h.spread() > metric.bound) && !all_better {
        "unresolved"
    } else if -worse > b.spread() {
        "better"
    } else {
        "flat"
    };
    (verdict.into(), Some((b, h)))
}

/// Prints one row per workload and end-to-end metric: each side's median
/// and quartiles, the change, and the verdict. Fails when any row reads
/// WORSE.
pub fn compare_main(args: &[String]) -> Result<(), String> {
    let [base_dir, head_dir] = args else {
        return Err("usage: perfbench compare <base-dir> <head-dir>".into());
    };
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<14} {:<13} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6} verdict",
        "workload",
        "metric",
        "base median",
        "base [q1, q3] (spread)",
        "head median",
        "head [q1, q3] (spread)",
        "change",
        "bound"
    );
    let mut worse = 0;
    for workload in WORKLOADS.iter().chain(&EXTRA_WORKLOADS) {
        let file = format!("{workload}.jsonl");
        let (base_path, head_path) = (
            Path::new(base_dir).join(&file),
            Path::new(head_dir).join(&file),
        );
        if !base_path.exists() || !head_path.exists() {
            continue;
        }
        let base = load_results(&base_path)?;
        let head = load_results(&head_path)?;
        for metric in END_TO_END {
            let empty = Vec::new();
            let b = base.get(metric.name).unwrap_or(&empty);
            let h = head.get(metric.name).unwrap_or(&empty);
            let (verdict, summaries) = verdict(metric, b, h);
            worse += usize::from(verdict == "WORSE");
            let Some((bs, hs)) = summaries else {
                let _ = writeln!(table, "{workload:<14} {:<13} {verdict}", metric.name);
                continue;
            };
            let side = |s: &Summary| format!("[{:.4e}, {:.4e}] ({:.3})", s.q1, s.q3, s.spread());
            let _ = writeln!(
                table,
                "{workload:<14} {:<13} {:>12.5e} {:>25} {:>12.5e} {:>25} {:>+7.1}% {:>6} {verdict}",
                metric.name,
                bs.median,
                side(&bs),
                hs.median,
                side(&hs),
                100.0 * (hs.median - bs.median) / bs.median.abs(),
                metric.bound,
            );
        }
    }
    print!("{table}");
    if worse > 0 {
        return Err(format!(
            "{worse} (workload, metric) pair(s) worse than their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &'static str) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
        let same = base;
        let slower: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0];
        assert_eq!(verdict(&metric("lower"), &base, &same).0, "flat");
        assert_eq!(verdict(&metric("lower"), &base, &slower).0, "WORSE");
        assert_eq!(verdict(&metric("lower"), &base, &faster).0, "better");
        assert_eq!(verdict(&metric("higher"), &base, &faster).0, "WORSE");
        assert_eq!(verdict(&metric("higher"), &base, &slower).0, "better");
        assert_eq!(verdict(&metric("lower"), &base, &noisy).0, "unresolved");
        assert_eq!(verdict(&metric("lower"), &base, &[1.0]).0, "too few runs");
    }
}
