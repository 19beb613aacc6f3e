//! Chaos matrix: runs the deterministic chaos harness across an
//! env-selected {seed} × {workers} × {profile} cell and fails loudly —
//! with per-study trace-diff artifacts under `target/chaos-diff/` — if
//! any study's post-chaos trace drifts from its uninterrupted reference
//! by a single byte. After every cell, `fsck` scans the surviving store
//! and must find it clean.
//!
//! CI fans this out as a job matrix:
//!
//! ```sh
//! HYPERPOWER_CHAOS_SEED=3 HYPERPOWER_WORKERS=4 \
//! HYPERPOWER_CHAOS_PROFILE=bit-rot \
//!     cargo test -q -p hyperpower-server --test chaos_matrix
//! ```
//!
//! Locally (no env vars) it sweeps a small default grid over all three
//! profiles so `cargo test` alone still exercises kills, torn journals,
//! duplicated and delayed tells, crash/recovery cycles, bit-rot salvage
//! and hedged re-dispatch.
//!
//! The counters must show the chaos happened: every `baseline` cell,
//! served without hedging, reclaims an expired lease and rejects a late
//! tell, and the full default grid hedges and quarantines a worker at
//! least once, its `slow-worker` cells included.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::path::PathBuf;

use hyperpower_server::{fsck_store, run_chaos_with, write_mismatch_artifacts, ChaosProfile};

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().map(|raw| {
        raw.trim()
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("{name}={raw:?} is not a u64: {e}"))
    })
}

fn env_profile() -> Option<ChaosProfile> {
    std::env::var("HYPERPOWER_CHAOS_PROFILE").ok().map(|raw| {
        ChaosProfile::parse(raw.trim())
            .unwrap_or_else(|| panic!("HYPERPOWER_CHAOS_PROFILE={raw:?} is not a profile"))
    })
}

fn scratch_root(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/chaos-scratch")
        .join(label)
}

#[test]
fn chaos_matrix_traces_are_byte_identical() {
    let seeds: Vec<u64> = match env_u64("HYPERPOWER_CHAOS_SEED") {
        Some(seed) => vec![seed],
        None => vec![1, 2, 3],
    };
    let workers_grid: Vec<usize> = match env_u64("HYPERPOWER_WORKERS") {
        Some(w) => vec![w.max(1) as usize],
        None => vec![1, 4],
    };
    let full_grid = [
        "HYPERPOWER_CHAOS_SEED",
        "HYPERPOWER_WORKERS",
        "HYPERPOWER_CHAOS_PROFILE",
    ]
    .iter()
    .all(|name| std::env::var_os(name).is_none());
    let profiles: Vec<ChaosProfile> = match env_profile() {
        Some(profile) => vec![profile],
        None => vec![
            ChaosProfile::Baseline,
            ChaosProfile::BitRot,
            ChaosProfile::SlowWorker,
        ],
    };

    let artifact_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-diff");
    let fsck_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-fsck");
    let mut failures = Vec::new();
    let (mut hedged, mut unhealthy, mut slow_unhealthy) = (0, 0, 0);
    for &profile in &profiles {
        for &seed in &seeds {
            for &workers in &workers_grid {
                let label = format!("{}-seed{seed}-w{workers}", profile.name());
                let root = scratch_root(&label);
                let outcome = run_chaos_with(seed, workers, &root, profile)
                    .unwrap_or_else(|e| panic!("chaos {label}: {e}"));
                let r = outcome.report;
                eprintln!(
                    "chaos {label}: rounds={} crashes={} torn_journals={} recovered_samples={} \
                     dropped={} duplicated={} delayed={} expired={} reclaimed={} refusals={} \
                     hedged={} superseded={} rotted={} salvaged={} unhealthy_workers={}",
                    r.rounds,
                    r.crashes,
                    r.torn_journals,
                    r.recovered_samples,
                    r.dropped_tells,
                    r.duplicated_tells,
                    r.delayed_tells,
                    r.expired_tells,
                    r.reclaimed_leases,
                    r.overload_refusals,
                    r.hedged_leases,
                    r.superseded_leases,
                    r.rotted_journals,
                    r.salvaged_studies,
                    r.unhealthy_workers,
                );
                hedged += r.hedged_leases;
                unhealthy += r.unhealthy_workers;
                if profile == ChaosProfile::SlowWorker {
                    slow_unhealthy += r.unhealthy_workers;
                }
                if profile == ChaosProfile::Baseline
                    && (r.reclaimed_leases == 0 || r.expired_tells == 0)
                {
                    failures.push(format!(
                        "{label}: no lease expired ({} reclaimed, {} late tells rejected)",
                        r.reclaimed_leases, r.expired_tells
                    ));
                }
                // The surviving store must scan clean: every frame
                // checksum-valid, no stale temps left behind.
                let fsck = fsck_store(&root, false).expect("fsck scan");
                if !fsck.clean() {
                    std::fs::create_dir_all(&fsck_dir).expect("fsck artifact dir");
                    let path = fsck_dir.join(format!("{label}.fsck"));
                    std::fs::write(&path, format!("{fsck}\n")).expect("write fsck report");
                    failures.push(format!("{label}: post-chaos store is not clean:\n{fsck}"));
                }
                if !outcome.mismatches.is_empty() {
                    let paths = write_mismatch_artifacts(&outcome, &artifact_dir, &label)
                        .expect("write chaos diff artifacts");
                    for m in &outcome.mismatches {
                        failures.push(format!(
                            "{label}: study {:?} diverged ({} field diffs)",
                            m.study,
                            m.diffs.len()
                        ));
                    }
                    eprintln!("chaos {label}: wrote {} diff artifact(s)", paths.len());
                }
                std::fs::remove_dir_all(&root).ok();
            }
        }
    }
    if full_grid && hedged == 0 {
        failures.push("the default grid never hedged".to_string());
    }
    if full_grid && unhealthy == 0 {
        failures.push("the default grid never quarantined a worker".to_string());
    }
    if full_grid && slow_unhealthy == 0 {
        failures
            .push("the default grid's slow-worker cells never quarantined a worker".to_string());
    }
    assert!(
        failures.is_empty(),
        "chaos cells failed (diff artifacts under target/chaos-diff/, \
         fsck reports under target/chaos-fsck/):\n{}",
        failures.join("\n")
    );
}

/// The harness itself must be deterministic: the same cell run twice
/// yields the identical report, not merely identical traces. Exercised
/// on the bit-rot profile so the salvage path is covered too.
#[test]
fn chaos_harness_is_deterministic() {
    let a = run_chaos_with(7, 2, &scratch_root("det-a"), ChaosProfile::BitRot).expect("first run");
    let b = run_chaos_with(7, 2, &scratch_root("det-b"), ChaosProfile::BitRot).expect("second run");
    assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    assert!(a.mismatches.is_empty(), "seed 7 must pass");
    assert!(b.mismatches.is_empty(), "seed 7 must pass");
    std::fs::remove_dir_all(scratch_root("det-a")).ok();
    std::fs::remove_dir_all(scratch_root("det-b")).ok();
}
