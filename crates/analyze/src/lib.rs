//! `hyperpower-analyze`: a dependency-light static-analysis pass enforcing
//! the workspace's numerics and determinism invariants.
//!
//! Clippy's lint gate (see the root `Cargo.toml`) covers the generic
//! hygiene rules — no unwraps in library code, no raw float equality the
//! compiler can see, and so on. This crate covers the *project-specific*
//! invariants clippy cannot express:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `R1` | no ambient entropy (`thread_rng`, `SystemTime`, …) in deterministic search paths |
//! | `R2` | no raw `==`/`!=` against non-zero float literals, no `partial_cmp().unwrap()` on objectives |
//! | `R3` | every public error enum is `#[non_exhaustive]` |
//! | `R4` | no `println!`/`eprintln!`/`dbg!` in library crates (stdout is the cli's) |
//! | `R5` | `debug_assert_finite!` guards present at declared numerical boundaries |
//! | `R6` | `f64` physical quantities carry unit suffixes (`_w`, `_mb`, `_s`, `_j`) or typed newtypes; no mixed-unit arithmetic |
//! | `R7` | acquisition paths evaluate the cheap hardware-constraint indicator before the expensive objective (HW-IECI/HW-CWEI) |
//! | `R8` | RNGs are constructed only at declared seeded roots and threaded `&mut` elsewhere |
//! | `R9` | no unordered collections (`HashMap`/`HashSet`) in trace-affecting crates |
//! | `R10` | wall-clock reads unreachable from non-sink files (R1, interprocedurally) |
//! | `R11` | RNG minting unreachable from non-root files (R8, interprocedurally) |
//! | `R12` | concurrency primitives confined to the executor boundary; trace writes confined to the commit path |
//! | `R13` | every semantic `ExecutorOptions` knob appears in the `CheckpointHeader` run identity |
//! | `R14` | order-sensitive float reductions only in blessed helpers |
//! | `R15` | no panicking construct (unchecked index, non-literal div/rem, `unreachable!`) reachable from the executor commit path |
//! | `R16` | no stale `analyze::allow` markers (an allow that suppresses nothing is itself a finding) |
//! | `R17` | no discarded workspace `Result`s, no unit newtypes dropped into bare mixed arithmetic |
//! | `R18` | branch arms in trace-affecting code draw from the RNG equally often |
//! | `R19` | the committed determinism certificate matches the proved facts |
//!
//! The pass tokenizes each file after blanking comments and string/char
//! literals (see [`token`]), so matching is token-exact rather than
//! substring-based, `#[cfg(test)]` regions are exempt, and no
//! syn/rustc dependency is needed (this workspace builds hermetically, so
//! the analyzer must stay dependency-free). On top of the per-file token
//! rules, a workspace layer builds an item index ([`index`]: functions,
//! impl owners, struct fields, `use` leaves) and a conservative call
//! graph ([`graph`]) that power the cross-file rules R10/R11/R13, and a
//! flow-sensitive layer lowers function bodies into per-function CFGs
//! ([`cfg`](mod@cfg)) solved by a reaching-definitions worklist engine
//! ([`dataflow`]) that powers R15/R17/R18. R19 compares the committed
//! determinism certificate ([`certificate`]) against the proved facts,
//! and R16 closes the loop by flagging allow markers nothing consumed.
//! Intentional exceptions are annotated in the source with
//! `// analyze::allow(<rule>)`, which silences the named rule on that
//! line and the next.
//!
//! Run it as `cargo run -p hyperpower-analyze` (human-readable), with
//! `--format json` or `--format sarif` for machine-readable reports, with
//! `--fix` to apply mechanical rewrites, or with `--write-baseline` to
//! accept the current findings into `analyze-baseline.json`. Tier-1
//! enforcement lives in the root `tests/static_analysis.rs`: any finding
//! beyond the committed baseline fails the build, and so does a stale
//! baseline entry (the ratchet only tightens).

pub mod baseline;
pub mod certificate;
pub mod cfg;
pub mod corpus;
pub mod dataflow;
pub mod fix;
pub mod graph;
pub mod index;
pub mod rules;
pub mod sarif;
mod scan;
pub mod token;

pub use scan::{rust_files, AllowMarker, Line, SourceFile};

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose `src/` trees the pass scans. The `cli` and `bench`
/// crates are intentionally absent: they own stdout, and their wiring
/// code may panic on startup errors.
pub const LIBRARY_CRATES: &[&str] = &["core", "data", "gp", "gpu-sim", "linalg", "nn", "server"];

/// Analyzer errors (I/O only — scanning itself is total).
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Reading a source file or directory failed.
    Io {
        /// The path that could not be read.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { path, source } => write!(f, "io error at {}: {source}", path.display()),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
        }
    }
}

/// Analyzer result type.
pub type Result<T> = std::result::Result<T, Error>;

/// The severity a rule's findings carry in SARIF output and the v2
/// baseline. Severity is *metadata* — the ratchet treats warnings and
/// errors identically (any drift fails) — but review UIs render them
/// differently and future policy can key off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Severity {
    /// Suspicious pattern; the fix may legitimately be an allow marker.
    Warning,
    /// Invariant violation; the fix is a code change.
    Error,
}

impl Severity {
    /// The wire form used in SARIF `level` and baseline v2 entries.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses the wire form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// The rule kinds the pass checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// R1: ambient entropy / wall-clock time in deterministic search paths.
    R1NondeterministicEntropy,
    /// R2: raw float equality or `partial_cmp().unwrap()` on objectives.
    R2RawFloatEq,
    /// R3: public error enum without `#[non_exhaustive]`.
    R3ErrorEnumExhaustive,
    /// R4: print-family macro in a library crate.
    R4PrintInLibrary,
    /// R5: declared numerical boundary missing its finiteness guard.
    R5MissingFiniteGuard,
    /// R6: `f64` physical quantity without a unit suffix, or arithmetic
    /// mixing different declared units.
    R6UnitDiscipline,
    /// R7: expensive objective evaluated before the cheap hardware
    /// constraint in an acquisition path.
    R7ConstraintOrder,
    /// R8: RNG constructed or owned outside a declared seeded root.
    R8RngThreading,
    /// R9: unordered collection (`HashMap`/`HashSet`) in a
    /// trace-affecting crate.
    R9UnorderedCollections,
    /// R10: call path from a non-sink file into a wall-clock read.
    R10WallClockFlow,
    /// R11: call path from a non-root file into an RNG-minting function.
    R11RngFlow,
    /// R12: concurrency primitive outside the executor boundary, or
    /// trace write outside the commit path.
    R12ConcurrencyBoundary,
    /// R13: semantic executor knob missing from the checkpoint-header
    /// run identity (or vice versa).
    R13CheckpointHeader,
    /// R14: order-sensitive float reduction outside blessed helpers.
    R14OrderSensitiveReduction,
    /// R15: panicking construct (unchecked index, non-literal integer
    /// div/rem, `unreachable!`) reachable from the executor commit path.
    R15PanicPath,
    /// R16: an `analyze::allow` marker whose rule no longer fires in its
    /// scope (or that names an unknown rule).
    R16StaleAllow,
    /// R17: discarded `Result` (`let _ =`) from a workspace call, or a
    /// unit newtype flowing into unit-dropping arithmetic.
    R17DiscardedResult,
    /// R18: match/if arms in trace-affecting code whose RNG-draw counts
    /// differ, misaligning the seeded stream across replays.
    R18BranchDivergentRng,
    /// R19: the committed determinism certificate diverges from what the
    /// analysis proves.
    R19DeterminismCertificate,
}

impl Rule {
    /// All rule kinds, in id order.
    pub const ALL: [Rule; 19] = [
        Rule::R1NondeterministicEntropy,
        Rule::R2RawFloatEq,
        Rule::R3ErrorEnumExhaustive,
        Rule::R4PrintInLibrary,
        Rule::R5MissingFiniteGuard,
        Rule::R6UnitDiscipline,
        Rule::R7ConstraintOrder,
        Rule::R8RngThreading,
        Rule::R9UnorderedCollections,
        Rule::R10WallClockFlow,
        Rule::R11RngFlow,
        Rule::R12ConcurrencyBoundary,
        Rule::R13CheckpointHeader,
        Rule::R14OrderSensitiveReduction,
        Rule::R15PanicPath,
        Rule::R16StaleAllow,
        Rule::R17DiscardedResult,
        Rule::R18BranchDivergentRng,
        Rule::R19DeterminismCertificate,
    ];

    /// Short id used in reports and `analyze::allow(..)` markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::R1NondeterministicEntropy => "R1",
            Rule::R2RawFloatEq => "R2",
            Rule::R3ErrorEnumExhaustive => "R3",
            Rule::R4PrintInLibrary => "R4",
            Rule::R5MissingFiniteGuard => "R5",
            Rule::R6UnitDiscipline => "R6",
            Rule::R7ConstraintOrder => "R7",
            Rule::R8RngThreading => "R8",
            Rule::R9UnorderedCollections => "R9",
            Rule::R10WallClockFlow => "R10",
            Rule::R11RngFlow => "R11",
            Rule::R12ConcurrencyBoundary => "R12",
            Rule::R13CheckpointHeader => "R13",
            Rule::R14OrderSensitiveReduction => "R14",
            Rule::R15PanicPath => "R15",
            Rule::R16StaleAllow => "R16",
            Rule::R17DiscardedResult => "R17",
            Rule::R18BranchDivergentRng => "R18",
            Rule::R19DeterminismCertificate => "R19",
        }
    }

    /// The rule with this id, if any.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }

    /// Human-readable slug.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::R1NondeterministicEntropy => "nondeterministic-entropy",
            Rule::R2RawFloatEq => "raw-float-eq",
            Rule::R3ErrorEnumExhaustive => "error-enum-exhaustive",
            Rule::R4PrintInLibrary => "print-in-library",
            Rule::R5MissingFiniteGuard => "missing-finite-guard",
            Rule::R6UnitDiscipline => "unit-of-measure",
            Rule::R7ConstraintOrder => "constraint-before-objective",
            Rule::R8RngThreading => "rng-threading",
            Rule::R9UnorderedCollections => "unordered-collections",
            Rule::R10WallClockFlow => "wall-clock-flow",
            Rule::R11RngFlow => "rng-flow",
            Rule::R12ConcurrencyBoundary => "concurrency-boundary",
            Rule::R13CheckpointHeader => "checkpoint-header-completeness",
            Rule::R14OrderSensitiveReduction => "order-sensitive-reduction",
            Rule::R15PanicPath => "panic-path",
            Rule::R16StaleAllow => "stale-allow",
            Rule::R17DiscardedResult => "discarded-result",
            Rule::R18BranchDivergentRng => "branch-divergent-rng",
            Rule::R19DeterminismCertificate => "determinism-certificate",
        }
    }

    /// The default severity of the rule's findings. R14's narrow
    /// detector can flag sequential loops that are deterministic *today*
    /// (the hazard is the future refactor), R16 flags dead escape hatches
    /// (hygiene, not breakage), and R18's draw-count comparison cannot
    /// see through helper calls — those three report as warnings; every
    /// other rule flags a present violation.
    pub fn severity(self) -> Severity {
        match self {
            Rule::R14OrderSensitiveReduction
            | Rule::R16StaleAllow
            | Rule::R18BranchDivergentRng => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description of the invariant the rule protects.
    pub fn description(self) -> &'static str {
        match self {
            Rule::R1NondeterministicEntropy => {
                "search paths must draw randomness only from explicitly seeded RNGs"
            }
            Rule::R2RawFloatEq => {
                "objective/constraint floats are ordered with total_cmp, never raw == or panicking partial_cmp"
            }
            Rule::R3ErrorEnumExhaustive => "public error enums stay extensible via #[non_exhaustive]",
            Rule::R4PrintInLibrary => "library crates never write to stdout/stderr",
            Rule::R5MissingFiniteGuard => {
                "numerical boundaries carry debug_assert_finite! guards against NaN/Inf"
            }
            Rule::R6UnitDiscipline => {
                "f64 physical quantities carry unit suffixes or typed newtypes, and arithmetic never mixes units"
            }
            Rule::R7ConstraintOrder => {
                "acquisition paths evaluate the cheap hardware-constraint indicator before the expensive objective"
            }
            Rule::R8RngThreading => {
                "RNGs are constructed only at declared seeded roots and passed &mut everywhere else"
            }
            Rule::R9UnorderedCollections => {
                "trace-affecting crates use ordered collections (BTreeMap/BTreeSet), never randomized-iteration hash types"
            }
            Rule::R10WallClockFlow => {
                "no call path from deterministic code into wall-clock reads outside declared timing sinks"
            }
            Rule::R11RngFlow => {
                "no call path from non-root files into RNG-constructing functions; streams are threaded from seeded roots"
            }
            Rule::R12ConcurrencyBoundary => {
                "concurrency primitives live only in the executor boundary, and trace writes only in the commit path"
            }
            Rule::R13CheckpointHeader => {
                "every semantic executor knob is recorded in the checkpoint-header run identity"
            }
            Rule::R14OrderSensitiveReduction => {
                "loop float accumulation goes through blessed ordered-reduction helpers"
            }
            Rule::R15PanicPath => {
                "code reachable from the executor commit path uses checked indexing/arithmetic and never unreachable!"
            }
            Rule::R16StaleAllow => {
                "every analyze::allow marker still suppresses a live finding; dead escape hatches are removed"
            }
            Rule::R17DiscardedResult => {
                "trace-affecting code never discards workspace Results or drops units via bare newtype arithmetic"
            }
            Rule::R18BranchDivergentRng => {
                "branch arms in trace-affecting code draw from the RNG the same number of times"
            }
            Rule::R19DeterminismCertificate => {
                "the committed determinism certificate matches the facts the analysis proves, byte for byte"
            }
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (1 for file-level findings).
    pub line: usize,
    /// Trimmed source excerpt (empty for file-level findings).
    pub excerpt: String,
    /// Explanation of the violation.
    pub message: String,
}

/// The result of an analysis run.
#[derive(Debug, Clone)]
pub struct Report {
    /// All findings, sorted by (file, line, rule id).
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one rule.
    pub fn findings_for(&self, rule: Rule) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.rule == rule)
    }

    /// Machine-readable JSON report (hand-rolled: the analyzer is
    /// dependency-free by design). Deterministic: findings are already
    /// sorted by (file, line, rule id) and rules are emitted in id order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"rules\": [\n");
        for (i, rule) in Rule::ALL.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"slug\": \"{}\", \"findings\": {}}}{}\n",
                rule.id(),
                rule.slug(),
                self.findings_for(*rule).count(),
                if i + 1 < Rule::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"excerpt\": \"{}\", \"message\": \"{}\"}}{}\n",
                f.rule.id(),
                json_escape(&f.file),
                f.line,
                json_escape(&f.excerpt),
                json_escape(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Analyzes the library crates of the workspace rooted at `root`.
///
/// Scans `crates/<name>/src/**/*.rs` for each name in [`LIBRARY_CRATES`]
/// (crates absent from the tree are skipped, so the pass also works on
/// the scratch workspaces the unit tests build), then runs both analysis
/// phases over them.
pub fn analyze_workspace(root: &Path) -> Result<Report> {
    analyze_workspace_with(root, false)
}

/// Like [`analyze_workspace`], with `include_self` additionally scanning
/// the analyzer's own sources (`crates/analyze/src`, minus `main.rs`,
/// which owns stdout) — the CI self-analysis job.
pub fn analyze_workspace_with(root: &Path, include_self: bool) -> Result<Report> {
    let files = load_workspace_files(root, include_self)?;
    let committed = std::fs::read_to_string(root.join(certificate::CERTIFICATE_FILE)).ok();
    Ok(analyze_files(&files, committed.as_deref()))
}

/// Generates the determinism certificate for the workspace at `root`
/// (the bytes `--write-certificate` commits), or `None` when no
/// trace-affecting crate exists.
pub fn generate_certificate(root: &Path) -> Result<Option<String>> {
    let files = load_workspace_files(root, false)?;
    let findings = pre_certificate_findings(&files);
    Ok(certificate::generate(&files, &findings))
}

fn load_workspace_files(root: &Path, include_self: bool) -> Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut crates: Vec<&str> = LIBRARY_CRATES.to_vec();
    if include_self {
        crates.push("analyze");
    }
    for krate in crates {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        for path in scan::rust_files(&src)? {
            if krate == "analyze" && path.file_name().is_some_and(|n| n == "main.rs") {
                continue;
            }
            files.push(SourceFile::load(root, &path)?);
        }
    }
    Ok(files)
}

/// Analyzes in-memory sources: `(workspace-relative path, text)` pairs.
/// This is the disk-free twin of [`analyze_workspace`], used by the
/// fixture corpus and the throughput ratchet; paths still determine rule
/// scope (trace crates, roots, boundaries), so fixtures choose them
/// deliberately. A source whose path is `determinism-certificate.json`
/// is not scanned as code — it plays the committed certificate, enabling
/// R19 (without one, R19 stays off so corpora need no certificate).
pub fn analyze_sources(sources: &[(&str, &str)]) -> Report {
    let committed = sources
        .iter()
        .find(|(path, _)| *path == certificate::CERTIFICATE_FILE)
        .map(|(_, text)| *text);
    let files: Vec<SourceFile> = sources
        .iter()
        .filter(|(path, _)| *path != certificate::CERTIFICATE_FILE)
        .map(|(path, text)| SourceFile::from_source(PathBuf::from(path), text))
        .collect();
    analyze_files_inner(&files, committed, committed.is_some())
}

/// Every rule that runs before the certificate layer (R1–R15, R17, R18):
/// the per-file rules, R5 guard sites, the symbol-graph rules, and the
/// flow-sensitive rules.
fn pre_certificate_findings(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        rules::apply_rules(file, &mut findings);
    }
    for (rel, what) in rules::GUARD_SITES {
        if let Some(file) = files
            .iter()
            .find(|f| f.rel_path.to_string_lossy().replace('\\', "/") == *rel)
        {
            rules::check_finite_guard(file, what, &mut findings);
        }
    }

    let index = index::ItemIndex::build(files);
    let graph = graph::CallGraph::build(&index);
    rules::apply_workspace_rules(files, &index, &graph, &mut findings);
    findings
}

/// All analysis phases over already-scanned files. `committed_cert` is
/// the committed determinism certificate, if one exists on disk.
fn analyze_files(files: &[SourceFile], committed_cert: Option<&str>) -> Report {
    analyze_files_inner(files, committed_cert, true)
}

fn analyze_files_inner(
    files: &[SourceFile],
    committed_cert: Option<&str>,
    check_cert: bool,
) -> Report {
    let mut findings = pre_certificate_findings(files);

    // R19 after every fact-backing rule; R16 last, once every rule that
    // can consume an allow marker has run.
    if check_cert {
        let so_far = findings.clone();
        certificate::check(committed_cert, files, &so_far, &mut findings);
    }
    for file in files {
        rules::stale_allow::check(file, &mut findings);
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.id()).cmp(&(b.file.as_str(), b.line, b.rule.id()))
    });
    Report {
        findings,
        files_scanned: files.len(),
    }
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`. Used by the binary so it works from any subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A scratch workspace on disk, deleted on drop. Unique names come
    /// from the pid plus a process-wide counter (no clock needed).
    struct Scratch {
        root: PathBuf,
    }

    impl Scratch {
        fn new() -> Self {
            static COUNTER: AtomicU32 = AtomicU32::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let root = std::env::temp_dir().join(format!(
                "hyperpower-analyze-test-{}-{n}",
                std::process::id()
            ));
            std::fs::create_dir_all(&root).unwrap();
            Scratch { root }
        }

        fn write(&self, rel: &str, text: &str) {
            let path = self.root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn clean_scratch_workspace_is_clean() {
        let ws = Scratch::new();
        ws.write(
            "crates/gp/src/lib.rs",
            "pub fn posterior(x: f64) -> f64 { x + 1.0 }\n",
        );
        let report = analyze_workspace(&ws.root).unwrap();
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.findings
        );
        assert_eq!(report.files_scanned, 1);
    }

    #[test]
    fn seeded_violations_are_all_detected() {
        // A scratch workspace seeded with one violation per rule kind; the
        // analyzer must find every one of them.
        let ws = Scratch::new();
        ws.write(
            "crates/core/src/methods.rs",
            concat!(
                "use std::time::SystemTime;\n",     // R1
                "use std::collections::HashMap;\n", // R9
                "use std::sync::Mutex;\n",          // R12
                "pub fn pick(xs: &[f64]) -> usize {\n",
                "    xs.iter().enumerate()\n",
                "        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())\n", // R2
                "        .map(|(i, _)| i).unwrap_or(0)\n",
                "}\n",
                "pub fn warn() { eprintln!(\"slow convergence\"); }\n", // R4
                "#[derive(Debug)]\n",
                "pub enum SearchError { Budget }\n",   // R3
                "pub struct Row { pub power: f64 }\n", // R6
                "fn score(&self) -> f64 {\n",
                "    let e = expected_improvement_at(m, s, best);\n", // R7
                "    e * self.acquisition_weight(z)\n",
                "}\n",
                "fn fork() { let r = StdRng::seed_from_u64(1); }\n", // R8
                "fn refork() { fork(); }\n",                         // R11
                "fn tick() -> u64 { let _t = SystemTime::now(); 0 }\n",
                "fn tock() -> u64 { tick() }\n", // R10
                "fn accumulate(xs: &[f64]) -> f64 {\n",
                "    let mut acc = 0.0;\n",
                "    for x in xs { acc += x; }\n", // R14
                "    acc\n",
                "}\n",
                // R16: a grant that suppresses nothing.
                "// analyze::allow(R1)\n",
                "pub fn quiet_tick() {}\n",
                // R17: a workspace Result discarded with `let _ =`.
                "pub fn persist_trace() -> Result<(), u8> { Ok(()) }\n",
                "pub fn on_exit() { let _ = persist_trace(); }\n",
                // R18: arms drawing 1 vs 0 values from the shared stream.
                "fn jitter(&mut self, hot: bool) -> f64 {\n",
                "    if hot { self.rng.random_range(0.0..1.0) } else { 0.0 }\n",
                "}\n",
            ),
        );
        // R5: a declared guard site present but without the marker.
        ws.write("crates/core/src/model.rs", "pub fn fit() {}\n");
        // R13: an options struct with an undeclared knob (and no header
        // file at all). R15: a commit root with an unprovable index.
        ws.write(
            "crates/core/src/executor.rs",
            concat!(
                "pub struct ExecutorOptions {\n    pub workers: usize,\n    pub mystery_knob: u64,\n}\n",
                "pub fn commit(&mut self) {\n",
                "    self.samples.push(self.tasks[self.cursor]);\n",
                "}\n",
            ),
        );
        // R19 fires on the missing determinism certificate (trace crates
        // are analyzed but no determinism-certificate.json is committed).

        let report = analyze_workspace(&ws.root).unwrap();
        for rule in Rule::ALL {
            assert!(
                report.findings_for(rule).count() >= 1,
                "rule {} did not fire on its seeded violation; findings: {:?}",
                rule.id(),
                report.findings
            );
        }
    }

    #[test]
    fn allow_marker_suppresses_seeded_violation() {
        let ws = Scratch::new();
        ws.write(
            "crates/nn/src/lib.rs",
            "// analyze::allow(R4)\npub fn log() { eprintln!(\"x\"); }\n",
        );
        let report = analyze_workspace(&ws.root).unwrap();
        assert!(report.is_clean(), "findings: {:?}", report.findings);
    }

    #[test]
    fn findings_are_sorted_and_json_is_wellformed() {
        let ws = Scratch::new();
        ws.write(
            "crates/linalg/src/b.rs",
            "pub fn f() { println!(\"b\"); }\n",
        );
        ws.write(
            "crates/linalg/src/a.rs",
            "pub fn g() { println!(\"a\"); }\npub fn h() { dbg!(1); }\n",
        );
        let report = analyze_workspace(&ws.root).unwrap();
        let files: Vec<_> = report.findings.iter().map(|f| f.file.clone()).collect();
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);

        let json = report.to_json();
        assert!(json.contains("\"rule\": \"R4\""));
        assert!(json.contains("\"files_scanned\": 2"));
        // Balanced braces is a cheap well-formedness smoke check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        // Determinism regression: two full analyses of the same tree must
        // serialise identically in every format.
        let ws = Scratch::new();
        ws.write(
            "crates/core/src/lib.rs",
            "pub struct R { pub power: f64 }\npub fn f() { println!(\"x\"); }\n",
        );
        ws.write(
            "crates/nn/src/lib.rs",
            "fn g() { let r = StdRng::seed_from_u64(1); }\n",
        );
        let a = analyze_workspace(&ws.root).unwrap();
        let b = analyze_workspace(&ws.root).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(sarif::to_sarif(&a), sarif::to_sarif(&b));
        assert_eq!(
            baseline::Baseline::from_report(&a).to_json(),
            baseline::Baseline::from_report(&b).to_json()
        );
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn workspace_root_discovery() {
        let ws = Scratch::new();
        ws.write("Cargo.toml", "[workspace]\nmembers = []\n");
        ws.write("crates/gp/src/lib.rs", "pub fn f() {}\n");
        let nested = ws.root.join("crates/gp/src");
        assert_eq!(find_workspace_root(&nested), Some(ws.root.clone()));
    }

    #[test]
    fn real_workspace_matches_baseline() {
        // The tier-1 gate: the actual repository must match its committed
        // findings baseline exactly — no new findings, no stale grants.
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = match find_workspace_root(&here) {
            Some(r) => r,
            None => panic!("workspace root not found above {}", here.display()),
        };
        let report = analyze_workspace(&root).unwrap();
        let base = baseline::Baseline::load(&root.join(baseline::BASELINE_FILE)).unwrap();
        let drift = base.diff(&report);
        assert!(
            drift.is_empty(),
            "static-analysis drift against {}:\n{}\ncurrent findings:\n{}",
            baseline::BASELINE_FILE,
            drift.describe(),
            report
                .findings
                .iter()
                .map(|f| format!("  [{}] {}:{} {}", f.rule.id(), f.file, f.line, f.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.files_scanned >= 10, "scanned too few files");
    }
}
