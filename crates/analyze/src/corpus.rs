//! Deterministic synthetic corpus for the analyzer throughput ratchet.
//!
//! The ratchet test (`tests/bench_ratchet.rs`, `BENCH_analyze.json` at
//! the workspace root) must measure the *same*
//! workload forever, independent of how the real workspace grows —
//! otherwise the committed throughput number silently changes meaning.
//! This module generates that workload: a fixed, seedless, purely
//! counter-driven pseudo-workspace exercising every analysis layer
//! (comment/string stripping, tokenization, per-file rules, the item
//! index and the call graph).

/// Generates `n` synthetic source files as `(workspace-relative path,
/// text)` pairs. Deterministic: same `n`, same bytes, on every platform.
pub fn synthetic_files(n: usize) -> Vec<(String, String)> {
    let crates = ["core", "gp", "gpu-sim", "linalg", "nn", "data"];
    (0..n)
        .map(|i| {
            let krate = crates[i % crates.len()];
            let path = format!("crates/{krate}/src/gen_{i:03}.rs");
            (path, file_text(i))
        })
        .collect()
}

/// Total byte size of a generated corpus (committed alongside the
/// throughput number so the two cannot drift apart).
pub fn corpus_bytes(files: &[(String, String)]) -> usize {
    files.iter().map(|(_, text)| text.len()).sum()
}

fn file_text(i: usize) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "//! Synthetic module {i}: exercises strip/tokenize/index layers.\n\
         //! Not real code — generated by hyperpower_analyze::corpus.\n\n"
    ));
    out.push_str(&format!(
        "pub struct Record{i} {{\n    pub key: u64,\n    pub power_w: f64,\n    pub latency_s: f64,\n}}\n\n"
    ));
    out.push_str(&format!(
        "impl Record{i} {{\n    pub fn new(key: u64) -> Self {{\n        Record{i} {{ key, power_w: 0.0, latency_s: 0.0 }}\n    }}\n\n\
             pub fn score(&self, weight: f64) -> f64 {{\n        let s = \"not a token: thread_rng HashMap\";\n        let _ = s;\n        self.power_w * weight + self.latency_s\n    }}\n}}\n\n"
    ));
    // A small call chain so the graph layer has edges to resolve.
    out.push_str(&format!(
        "fn helper_{i}(x: f64) -> f64 {{ x + {}.0 }}\n\n\
         pub fn entry_{i}(xs: &[f64]) -> f64 {{\n    let mut best = f64::NEG_INFINITY;\n    for x in xs {{\n        let v = helper_{i}(*x);\n        if v > best {{\n            best = v;\n        }}\n    }}\n    best\n}}\n\n",
        i % 7
    ));
    // Comment- and string-heavy tail: the strip pass dominates wall time
    // on prose-dense files, so the corpus includes some.
    for j in 0..10 {
        out.push_str(&format!(
            "/// Doc line {j} for module {i}: lorem determinism dolor sit amet,\n\
             /// consectetur adipiscing elit, sed do eiusmod tempor incididunt.\n\
             pub const LABEL_{i}_{j}: &str = \"record-{i}-{j}\";\n"
        ));
    }
    out.push_str(&format!(
        "\n#[cfg(test)]\nmod tests {{\n    use super::*;\n\n    #[test]\n    fn roundtrip() {{\n        let r = Record{i}::new({i});\n        assert_eq!(r.key, {i});\n    }}\n}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = synthetic_files(8);
        let b = synthetic_files(8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(
            corpus_bytes(&a) > 8 * 1000,
            "corpus files should be nontrivial"
        );
    }

    #[test]
    fn corpus_is_clean_under_analysis() {
        // The bench must measure scan throughput, not finding churn: the
        // synthetic workspace is constructed violation-free.
        let files = synthetic_files(12);
        let refs: Vec<(&str, &str)> = files
            .iter()
            .map(|(p, t)| (p.as_str(), t.as_str()))
            .collect();
        let report = crate::analyze_sources(&refs);
        assert_eq!(report.files_scanned, 12);
        assert!(
            report.is_clean(),
            "synthetic corpus has findings: {:?}",
            report.findings
        );
    }
}
