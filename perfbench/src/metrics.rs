//! Every metric the benchmark reports, with its unit and definition.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! bounds; a test keeps the two in step. The definitions of the
//! end-to-end metrics per workload are spelled out in `perfbench/README.md`.

/// An end-to-end metric: what a user of the system waits on or pays.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "runs_per_s",
        unit: "runs/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "tells_per_s",
        unit: "tells/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "ask_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ask_ms_p99",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tell_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tell_ms_p99",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "fsck_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric from the traced run. `base` names the denominator
/// of every ratio, so no ratio is reported without what it is a share of.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub base: Option<&'static str>,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        base: None,
    }
}

const fn ratio(name: &'static str, base: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        base: Some(base),
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    layer("gp.fit_s", "s"),
    layer("gp.fits", "count"),
    layer("gp.fit_rows_mean", "rows"),
    layer("gp.fit_rows_max", "rows"),
    layer("gp.score_s", "s"),
    layer("gp.scored", "count"),
    layer("methods.propose_s", "s"),
    layer("methods.proposals", "count"),
    layer("objective.eval_s", "s"),
    layer("objective.evals", "count"),
    layer("executor.self_s", "s"),
    layer("study.commits", "count"),
    layer("study.rejections", "count"),
    ratio("study.accept_ratio", "samples queried (evaluated / queried)"),
    layer("scenario.session_s", "s"),
    layer("scenario.sessions", "count"),
    layer("server.ask_s", "s"),
    layer("server.asks", "count"),
    layer("server.tell_s", "s"),
    layer("server.tells", "count"),
    layer("server.tick_s", "s"),
    layer("server.ticks", "count"),
    layer("server.refusals", "count"),
    ratio(
        "server.ask_growth",
        "mean ask latency over the first tenth of a study's asks (last tenth / first tenth, averaged over studies)",
    ),
    ratio(
        "server.tell_growth",
        "mean tell latency over the first tenth of a study's tells (last tenth / first tenth, averaged over studies)",
    ),
    layer("journal.bytes_written", "B"),
    layer("journal.bytes_per_commit", "B/commit"),
    ratio(
        "journal.write_amplification",
        "store.bytes, the finished store's size on disk (journal.bytes_written / store.bytes)",
    ),
    layer("journal.snapshot_tells", "count"),
    layer("journal.snapshot_ms_mean", "ms"),
    layer("journal.append_ms_mean", "ms"),
    layer("store.bytes", "B"),
    layer("recover.load_s", "s"),
    layer("recover.replay_s", "s"),
    layer("recover.samples", "count"),
    layer("recover.bytes_read", "B"),
    layer("fsck.bytes_scanned", "B"),
    layer("proc.user_s", "s"),
    layer("proc.sys_s", "s"),
    ratio(
        "trace.overhead_frac",
        "the untraced pass's wall time over the same work ((traced - untraced) / untraced)",
    ),
    ratio(
        "trace.unattributed_frac",
        "the traced pass's wall time (time outside every named layer span / wall time)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_metric_name;
    use hyperpower::golden::{parse, Value};

    fn field<'a>(members: &'a [(String, Value)], key: &str) -> &'a Value {
        &members
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing key {key}"))
            .1
    }

    fn string(v: &Value) -> &str {
        match v {
            Value::String(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(valid_metric_name(name), "bad metric name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
    }

    #[test]
    fn every_ratio_states_its_base() {
        for m in PER_LAYER {
            let is_ratio = m.unit == "ratio";
            assert_eq!(
                is_ratio,
                m.base.is_some(),
                "{}: a ratio needs a base",
                m.name
            );
            if m.name.ends_with("_growth") || m.name.ends_with("write_amplification") {
                assert!(
                    m.base.is_some_and(|b| b.contains('/')),
                    "{} must state its base as a quotient",
                    m.name
                );
            }
        }
        let bounded_max = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(
            setup.bound >= bounded_max,
            "setup_s carries the largest bound"
        );
        assert!(bounded_max <= 0.25);
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let Value::Object(root) = parse(&text).expect("BENCHMARK.json parses") else {
            panic!("BENCHMARK.json is not an object");
        };
        let Value::Array(e2e) = field(&root, "end_to_end") else {
            panic!("end_to_end is not an array");
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (value, expected) in e2e.iter().zip(END_TO_END) {
            let Value::Object(m) = value else {
                panic!("metric is not an object")
            };
            assert_eq!(string(field(m, "name")), expected.name);
            assert_eq!(string(field(m, "unit")), expected.unit);
            assert_eq!(string(field(m, "better")), expected.better);
            assert_eq!(field(m, "bound"), &Value::Number(expected.bound));
        }
        let Value::Array(layers) = field(&root, "per_layer") else {
            panic!("per_layer is not an array");
        };
        assert_eq!(layers.len(), PER_LAYER.len());
        for (value, expected) in layers.iter().zip(PER_LAYER) {
            let Value::Object(m) = value else {
                panic!("metric is not an object")
            };
            assert_eq!(string(field(m, "name")), expected.name);
            assert_eq!(string(field(m, "unit")), expected.unit);
        }
        let Value::Array(workloads) = field(&root, "workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| match w {
                Value::Object(m) => string(field(m, "name")),
                _ => panic!("workload is not an object"),
            })
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
