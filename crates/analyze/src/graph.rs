//! Approximate workspace call graph over the [`crate::index`] item index.
//!
//! Edges are materialised only when a call site resolves *confidently*:
//!
//! * `Type::name(…)` path calls resolve through `impl` ownership — the
//!   callee must be a workspace `fn name` defined in an `impl Type` (or
//!   `impl Trait for Type`) block, and unique among those.
//! * Plain `name(…)` calls and `.name(…)` method calls resolve only when
//!   exactly one workspace function carries that name at all — a unique
//!   name cannot be confused with a std/vendored method.
//!
//! Anything ambiguous (two candidates, or a name that also exists outside
//! the workspace) produces **no** edge. The cross-file rules built on top
//! (R10 wall-clock flow, R11 RNG flow) therefore under-approximate rather
//! than hallucinate: a missing edge can hide a finding, never invent one.

use crate::index::ItemIndex;

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the calling function in [`ItemIndex::functions`].
    pub caller: usize,
    /// Index of the called function in [`ItemIndex::functions`].
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
}

/// The resolved call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Confident edges, in caller order.
    pub edges: Vec<Edge>,
}

impl CallGraph {
    /// Resolves every call site in the index into confident edges.
    pub fn build(index: &ItemIndex) -> Self {
        let mut edges = Vec::new();
        for (caller, f) in index.functions.iter().enumerate() {
            for call in &f.calls {
                let candidates: Vec<usize> = match &call.qualifier {
                    Some(ty) => index
                        .functions_named(&call.name)
                        .filter(|(_, g)| g.owner.as_deref() == Some(ty.as_str()))
                        .map(|(i, _)| i)
                        .collect(),
                    None => {
                        let all: Vec<usize> =
                            index.functions_named(&call.name).map(|(i, _)| i).collect();
                        // Unique-name rule: with several same-named fns (or a
                        // method call that might target a std type) we cannot
                        // tell which one is meant — drop the edge.
                        if all.len() == 1 {
                            all
                        } else {
                            Vec::new()
                        }
                    }
                };
                if candidates.len() == 1 && candidates[0] != caller {
                    edges.push(Edge {
                        caller,
                        callee: candidates[0],
                        line: call.line,
                    });
                }
            }
        }
        CallGraph { edges }
    }

    /// Propagates a seed predicate backwards: returns, for every function,
    /// whether it is a seed or (transitively) calls one. Used to taint
    /// wall-clock readers through helper chains.
    pub fn taint_callers(&self, n_functions: usize, seeds: &[bool]) -> Vec<bool> {
        let mut tainted = seeds.to_vec();
        tainted.resize(n_functions, false);
        loop {
            let mut changed = false;
            for e in &self.edges {
                if tainted[e.callee] && !tainted[e.caller] {
                    tainted[e.caller] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        tainted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ItemIndex;
    use crate::scan::SourceFile;
    use std::path::PathBuf;

    fn graph_of(files: &[(&str, &str)]) -> (ItemIndex, CallGraph) {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(p, s)| SourceFile::from_source(PathBuf::from(p), s))
            .collect();
        let index = ItemIndex::build(&sources);
        let graph = CallGraph::build(&index);
        (index, graph)
    }

    fn edge_names(index: &ItemIndex, graph: &CallGraph) -> Vec<(String, String)> {
        graph
            .edges
            .iter()
            .map(|e| {
                (
                    index.functions[e.caller].name.clone(),
                    index.functions[e.callee].name.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn unique_plain_call_resolves_across_files() {
        let (ix, g) = graph_of(&[
            ("crates/core/src/a.rs", "pub fn caller() { helper(1); }\n"),
            (
                "crates/core/src/b.rs",
                "pub fn helper(x: u64) -> u64 { x }\n",
            ),
        ]);
        assert_eq!(edge_names(&ix, &g), [("caller".into(), "helper".into())]);
    }

    #[test]
    fn qualified_call_resolves_through_impl_owner() {
        let (ix, g) = graph_of(&[
            (
                "crates/gpu-sim/src/sensor.rs",
                "pub struct Gpu;\nimpl Gpu {\n    pub fn new(seed: u64) -> Self { Gpu }\n}\n",
            ),
            (
                "crates/core/src/profiler.rs",
                "struct Probe;\nimpl Probe {\n    fn new() -> Self { Probe }\n}\n\
                 fn boot() { let g = Gpu::new(7); }\n",
            ),
        ]);
        // Two fns named `new`, but the qualifier picks the Gpu one.
        assert_eq!(edge_names(&ix, &g), [("boot".into(), "new".into())]);
        let e = g.edges[0];
        assert_eq!(ix.functions[e.callee].owner.as_deref(), Some("Gpu"));
    }

    #[test]
    fn ambiguous_plain_name_produces_no_edge() {
        let (_, g) = graph_of(&[
            (
                "crates/core/src/a.rs",
                "fn reset() {}\nfn go() { reset(); }\n",
            ),
            ("crates/gp/src/b.rs", "fn reset() {}\n"),
        ]);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn unique_method_call_resolves() {
        let (ix, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "impl Probe {\n    fn measure_once(&mut self) {}\n}\n\
                 fn run(p: &mut Probe) { p.measure_once(); }\n",
        )]);
        assert_eq!(edge_names(&ix, &g), [("run".into(), "measure_once".into())]);
    }

    #[test]
    fn self_recursion_is_not_an_edge() {
        let (_, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "fn fact(n: u64) -> u64 { if n == 0 { 1 } else { fact(n - 1) } }\n",
        )]);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn taint_propagates_transitively_to_callers() {
        let (ix, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "fn leaf() {}\nfn mid() { leaf(); }\nfn top() { mid(); }\nfn other() {}\n",
        )]);
        let leaf = ix.functions.iter().position(|f| f.name == "leaf").unwrap();
        let mut seeds = vec![false; ix.functions.len()];
        seeds[leaf] = true;
        let tainted = g.taint_callers(ix.functions.len(), &seeds);
        let by_name = |n: &str| ix.functions.iter().position(|f| f.name == n).unwrap();
        assert!(tainted[by_name("mid")]);
        assert!(tainted[by_name("top")]);
        assert!(!tainted[by_name("other")]);
    }
}
