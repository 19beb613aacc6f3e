//! Every path the analyzer's rule tables name must exist in the workspace.
//!
//! The analyzer skips a table entry whose file or crate is missing, on
//! purpose, so that the scratch workspaces its unit tests build still
//! analyze. The same tolerance means that deleting or renaming a file a
//! table names silently turns a rule off there: R5 for a guard site, R8
//! for an RNG root, R12 and R15 for the commit paths and the executor
//! boundary, R13 for a header contract. This test resolves every entry
//! against the real workspace, so such a change fails here until the
//! table moves with the file.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;

use hyperpower_analyze::rules::{collections, concurrency, header, reductions, rng, GUARD_SITES};
use hyperpower_analyze::{certificate, find_workspace_root, LIBRARY_CRATES};

#[test]
fn every_table_entry_names_a_real_path() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");

    let mut files: Vec<(&str, &str)> = Vec::new();
    files.extend(
        GUARD_SITES
            .iter()
            .map(|(path, _)| ("rules::GUARD_SITES", *path)),
    );
    files.extend(rng::RNG_ROOTS.iter().map(|p| ("rules::rng::RNG_ROOTS", *p)));
    files.extend(
        concurrency::COMMIT_PATHS
            .iter()
            .map(|p| ("rules::concurrency::COMMIT_PATHS", *p)),
    );
    files.extend(
        concurrency::EXECUTOR_BOUNDARY
            .iter()
            .map(|p| ("rules::concurrency::EXECUTOR_BOUNDARY", *p)),
    );
    for spec in [header::DEFAULT_SPEC, header::SERVER_SPEC] {
        files.push(("rules::header spec", spec.options_file));
        files.push(("rules::header spec", spec.header_file));
    }

    let library_srcs: Vec<String> = LIBRARY_CRATES
        .iter()
        .map(|name| format!("crates/{name}/src"))
        .collect();
    let mut dirs: Vec<(&str, &str)> = Vec::new();
    dirs.extend(
        collections::TRACE_CRATES
            .iter()
            .map(|p| ("rules::collections::TRACE_CRATES", *p)),
    );
    dirs.extend(
        reductions::TRACE_CRATES
            .iter()
            .map(|p| ("rules::reductions::TRACE_CRATES", *p)),
    );
    dirs.extend(
        certificate::CERT_CRATES
            .iter()
            .map(|p| ("certificate::CERT_CRATES", *p)),
    );
    dirs.extend(library_srcs.iter().map(|p| ("LIBRARY_CRATES", p.as_str())));

    let missing: Vec<String> = files
        .iter()
        .filter(|(_, path)| !root.join(path).is_file())
        .chain(dirs.iter().filter(|(_, path)| !root.join(path).is_dir()))
        .map(|(table, path)| format!("{table}: {path}"))
        .collect();
    assert!(
        missing.is_empty(),
        "analyzer tables name paths that do not exist: {missing:#?}"
    );
}
