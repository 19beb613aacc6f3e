//! R13 — checkpoint-header completeness: every semantic executor knob is
//! part of the checkpoint run identity.
//!
//! Resume safety (PR 4) rests on the `CheckpointHeader` capturing *all*
//! state that changes what a run commits: a knob that alters the trace
//! but is missing from the header lets a stale checkpoint resume into a
//! differently-configured run and silently corrupt the golden-prefix
//! guarantee. That contract lives across two files (`ExecutorOptions` in
//! `executor.rs`, `CheckpointHeader` in `checkpoint.rs`) and two
//! declared lists below, so it rots exactly when someone adds a knob —
//! this rule makes the analyzer, not a human reviewer, fail in that
//! moment:
//!
//! * every `ExecutorOptions` field must be declared either
//!   execution-only (cannot change the trace) or mapped to one or more
//!   header fields;
//! * every mapped header field must exist in `CheckpointHeader` and be
//!   mentioned at least twice in `checkpoint.rs` live code (declaration
//!   plus encode/decode use — a field that is declared but never
//!   serialised is not identity);
//! * stale map entries (naming fields that no longer exist) are findings
//!   too, so the declarations cannot drift from the code.
//!
//! The check is parameterised by a [`Spec`] so the fixture corpus and the
//! mutation test can run it against synthetic struct pairs.

use std::collections::BTreeMap;

use crate::index::ItemIndex;
use crate::scan::SourceFile;
use crate::{Finding, Rule};

/// What R13 verifies: the two structs and the semantic-knob declarations.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// File declaring the options struct.
    pub options_file: &'static str,
    /// The options struct name.
    pub options_struct: &'static str,
    /// File declaring the header struct (and its codec).
    pub header_file: &'static str,
    /// The header struct name.
    pub header_struct: &'static str,
    /// Options fields that can never change the committed trace.
    pub execution_only: &'static [&'static str],
    /// Semantic options fields → the header fields recording them. The
    /// pseudo-field `"__run"` maps the run-intrinsic identity (seed,
    /// method, …) that exists independently of any options knob.
    pub identity_map: &'static [(&'static str, &'static [&'static str])],
}

/// The workspace's real contract.
pub const DEFAULT_SPEC: Spec = Spec {
    options_file: "crates/core/src/executor.rs",
    options_struct: "ExecutorOptions",
    header_file: "crates/core/src/checkpoint.rs",
    header_struct: "CheckpointHeader",
    // `workers` is thread count (trace-neutral by the executor's core
    // guarantee); `checkpoint`/`resume_from` configure when/where
    // checkpoints are written, not what the run computes.
    execution_only: &["workers", "checkpoint", "resume_from"],
    identity_map: &[
        ("__run", &["seed", "method", "mode", "budget"]),
        ("simulated_gpus", &["simulated_gpus"]),
        ("fault_profile", &["fault_profile"]),
        ("retry", &["max_retries"]),
        (
            "drift",
            &["recalibrate", "drift_threshold", "safety_margin"],
        ),
    ],
};

/// The serving layer's contract: every `ServerConfig` knob is
/// execution-only (leases, bounds, admission rate and snapshot cadence
/// may never change a committed byte), and a study journal's run identity
/// is the checkpoint header it records under the study's name.
pub const SERVER_SPEC: Spec = Spec {
    options_file: "crates/server/src/server.rs",
    options_struct: "ServerConfig",
    header_file: "crates/core/src/checkpoint.rs",
    header_struct: "CheckpointHeader",
    execution_only: &[
        "root",
        "max_studies",
        "max_outstanding_per_study",
        "max_outstanding_total",
        "lease_policy",
        "snapshot_every_commits",
        "hedge_after_s",
        "tenant_rate_per_s",
    ],
    identity_map: &[("__run", &["seed", "method", "mode", "budget"])],
};

/// R13 against the workspace's real contracts.
pub fn check(files: &[SourceFile], index: &ItemIndex, findings: &mut Vec<Finding>) {
    check_spec(&DEFAULT_SPEC, files, index, findings);
    check_spec(&SERVER_SPEC, files, index, findings);
}

/// R13 against an explicit spec (exposed for fixtures and the mutation
/// test).
pub fn check_spec(
    spec: &Spec,
    files: &[SourceFile],
    index: &ItemIndex,
    findings: &mut Vec<Finding>,
) {
    let rule = Rule::R13CheckpointHeader;
    let by_path: BTreeMap<String, &SourceFile> = files
        .iter()
        .map(|f| (f.rel_path.to_string_lossy().replace('\\', "/"), f))
        .collect();

    // Scratch workspaces without the executor are simply out of scope.
    let Some(options_src) = by_path.get(spec.options_file) else {
        return;
    };
    let Some(options) = index.struct_in(spec.options_file, spec.options_struct) else {
        findings.push(super::finding_at(
            rule,
            options_src,
            1,
            format!(
                "`{}` not found in {} — the checkpoint-identity contract cannot be verified (renamed? update rules::header::DEFAULT_SPEC)",
                spec.options_struct, spec.options_file
            ),
        ));
        return;
    };

    // 1. Every options field is declared execution-only or mapped.
    for field in &options.fields {
        let declared = spec.execution_only.contains(&field.name.as_str())
            || spec
                .identity_map
                .iter()
                .any(|(knob, _)| *knob == field.name);
        if declared || options_src.line_allowed(field.line, rule.id()) {
            continue;
        }
        findings.push(super::finding_at(
            rule,
            options_src,
            field.line,
            format!(
                "`{}.{}` is not declared in the checkpoint-identity contract: map it to header field(s) in rules::header::DEFAULT_SPEC (semantic knob) or list it execution-only (provably trace-neutral)",
                spec.options_struct, field.name
            ),
        ));
    }

    // 2. Stale map entries: knobs that no longer exist on the struct.
    for (knob, _) in spec.identity_map {
        if *knob != "__run" && !options.fields.iter().any(|f| f.name == *knob) {
            findings.push(super::finding_at(
                rule,
                options_src,
                options.line,
                format!(
                    "identity map declares knob `{knob}` but `{}` has no such field — remove the stale entry",
                    spec.options_struct
                ),
            ));
        }
    }

    // 3. The header struct exists and carries every mapped field.
    let Some(header_src) = by_path.get(spec.header_file) else {
        findings.push(super::finding_at(
            rule,
            options_src,
            options.line,
            format!(
                "{} is missing from the scan: `{}` has no run identity to bind to",
                spec.header_file, spec.header_struct
            ),
        ));
        return;
    };
    let Some(header) = index.struct_in(spec.header_file, spec.header_struct) else {
        findings.push(super::finding_at(
            rule,
            header_src,
            1,
            format!(
                "`{}` not found in {} — run identity lost (renamed? update rules::header::DEFAULT_SPEC)",
                spec.header_struct, spec.header_file
            ),
        ));
        return;
    };
    for (knob, targets) in spec.identity_map {
        for target in *targets {
            if header.fields.iter().any(|f| f.name == *target) {
                continue;
            }
            if header_src.line_allowed(header.line, rule.id()) {
                continue;
            }
            findings.push(super::finding_at(
                rule,
                header_src,
                header.line,
                format!(
                    "`{}` lacks field `{target}` recording knob `{knob}`: a resumed run cannot detect a mismatched `{knob}` setting",
                    spec.header_struct
                ),
            ));
        }
    }

    // 4. Each header field is mentioned ≥ 2× in the header file's live
    // code: its declaration plus at least one encode/decode use.
    for field in &header.fields {
        let mentions = header_src
            .tokens
            .iter()
            .filter(|t| t.is_ident(&field.name) && !header_src.line_in_test(t.line))
            .count();
        if mentions >= 2 || header_src.line_allowed(field.line, rule.id()) {
            continue;
        }
        findings.push(super::finding_at(
            rule,
            header_src,
            field.line,
            format!(
                "`{}.{}` is declared but never encoded/decoded in {}: a header field that is not serialised is not run identity",
                spec.header_struct, field.name, spec.header_file
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const TEST_SPEC: Spec = Spec {
        options_file: "crates/core/src/executor.rs",
        options_struct: "Opts",
        header_file: "crates/core/src/checkpoint.rs",
        header_struct: "Header",
        execution_only: &["workers"],
        identity_map: &[("__run", &["seed"]), ("gpus", &["gpus"])],
    };

    fn run(spec: &Spec, files: &[(&str, &str)]) -> Vec<Finding> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(p, s)| SourceFile::from_source(PathBuf::from(p), s))
            .collect();
        let index = ItemIndex::build(&sources);
        let mut findings = Vec::new();
        check_spec(spec, &sources, &index, &mut findings);
        findings
    }

    const GOOD_OPTIONS: &str =
        "pub struct Opts {\n    pub workers: usize,\n    pub gpus: usize,\n}\n";
    const GOOD_HEADER: &str = "pub struct Header {\n    pub seed: u64,\n    pub gpus: usize,\n}\n\
         fn encode(h: &Header) -> String { format!(\"{} {}\", h.seed, h.gpus) }\n";

    #[test]
    fn consistent_pair_is_clean() {
        let f = run(
            &TEST_SPEC,
            &[
                ("crates/core/src/executor.rs", GOOD_OPTIONS),
                ("crates/core/src/checkpoint.rs", GOOD_HEADER),
            ],
        );
        assert!(f.is_empty(), "unexpected: {f:?}");
    }

    #[test]
    fn undeclared_options_knob_fires() {
        let opts = "pub struct Opts {\n    pub workers: usize,\n    pub gpus: usize,\n    pub voltage_v: f64,\n}\n";
        let f = run(
            &TEST_SPEC,
            &[
                ("crates/core/src/executor.rs", opts),
                ("crates/core/src/checkpoint.rs", GOOD_HEADER),
            ],
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("voltage_v"));
    }

    #[test]
    fn missing_header_field_fires() {
        let header = "pub struct Header {\n    pub seed: u64,\n}\n\
             fn encode(h: &Header) -> String { h.seed.to_string() }\n";
        let f = run(
            &TEST_SPEC,
            &[
                ("crates/core/src/executor.rs", GOOD_OPTIONS),
                ("crates/core/src/checkpoint.rs", header),
            ],
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("lacks field `gpus`"));
    }

    #[test]
    fn unencoded_header_field_fires() {
        let header = "pub struct Header {\n    pub seed: u64,\n    pub gpus: usize,\n}\n\
             fn encode(h: &Header) -> String { h.seed.to_string() }\n";
        let f = run(
            &TEST_SPEC,
            &[
                ("crates/core/src/executor.rs", GOOD_OPTIONS),
                ("crates/core/src/checkpoint.rs", header),
            ],
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("never encoded"));
    }

    #[test]
    fn stale_map_entry_fires() {
        let opts = "pub struct Opts {\n    pub workers: usize,\n}\n";
        let f = run(
            &TEST_SPEC,
            &[
                ("crates/core/src/executor.rs", opts),
                ("crates/core/src/checkpoint.rs", GOOD_HEADER),
            ],
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("stale"));
    }

    #[test]
    fn missing_structs_fire() {
        let f = run(
            &TEST_SPEC,
            &[("crates/core/src/executor.rs", "pub struct Other;\n")],
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("cannot be verified"));

        let f2 = run(
            &TEST_SPEC,
            &[
                ("crates/core/src/executor.rs", GOOD_OPTIONS),
                ("crates/core/src/checkpoint.rs", "pub struct Other;\n"),
            ],
        );
        assert!(f2.iter().any(|x| x.message.contains("run identity lost")));
    }

    #[test]
    fn absent_workspace_is_out_of_scope() {
        let f = run(&TEST_SPEC, &[("crates/gp/src/lib.rs", "pub fn f() {}\n")]);
        assert!(f.is_empty());
    }

    #[test]
    fn real_contract_spec_is_self_consistent() {
        // In each real contract every execution-only + mapped knob name is
        // distinct, and the pseudo-knob is present exactly once.
        for spec in [DEFAULT_SPEC, SERVER_SPEC] {
            let mut knobs: Vec<&str> = spec
                .identity_map
                .iter()
                .map(|(k, _)| *k)
                .chain(spec.execution_only.iter().copied())
                .collect();
            knobs.sort_unstable();
            let n = knobs.len();
            knobs.dedup();
            assert_eq!(
                n,
                knobs.len(),
                "duplicate knob declarations in {}",
                spec.options_struct
            );
            assert_eq!(
                spec.identity_map
                    .iter()
                    .filter(|(k, _)| *k == "__run")
                    .count(),
                1,
                "{}",
                spec.options_struct
            );
        }
    }
}
