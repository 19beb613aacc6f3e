//! Speedup ratchets for the blocked linalg kernels.
//!
//! `BENCH_linalg.json` at the workspace root commits the facts about the
//! `benches/linalg_hotpath.rs` workload: the corpus checksums (so the
//! measured bits can never silently change), the reference timings on the
//! machine that recorded them, and a *relative* floor — the blocked
//! `matmul` must stay at least `matmul_speedup_floor`× faster than the
//! frozen naive oracle in `tests/common/mod.rs`, measured side by side on
//! whatever machine runs the test. A ratio ratchet cannot flake on slow CI
//! hardware the way an absolute-throughput floor can, and it pins exactly
//! the claim the blocked kernels exist to make.
//!
//! Its `factor` entry does the same for the column-order Cholesky, run
//! into a reused `CholeskyWorkspace` as the GP hyper-parameter search runs
//! it, against the frozen `naive_cholesky`, at a GP-fit size (32) and at
//! 256, asserting bit-identical factors before any timing. Its speedup is
//! the median ratio of adjacent naive and column samples, each at least
//! about 1 ms long, so one slow moment of the host cannot fail it.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

mod common;

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use common::{assert_bits_eq, naive_cholesky, naive_matmul};
use hyperpower_linalg::{corpus, Cholesky, CholeskyWorkspace};

const BENCH_FILE: &str = "BENCH_linalg.json";

/// Held while a test times anything, so the ratchets in this file never
/// measure each other.
static TIMING: Mutex<()> = Mutex::new(());

fn timing_lock() -> MutexGuard<'static, ()> {
    // A ratchet that failed while holding the lock poisons it; the
    // others still measure.
    TIMING.lock().unwrap_or_else(|e| e.into_inner())
}

fn bench_text() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(BENCH_FILE);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()))
}

fn committed(key: &str, text: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    let start = text
        .find(&pat)
        .unwrap_or_else(|| panic!("{BENCH_FILE} missing key {key}"))
        + pat.len();
    let digits: String = text[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{BENCH_FILE}: key {key} is not a number"))
}

/// Best-of-`reps` wall time of `f`, after one warm-up call.
fn best_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let _ = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let _ = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

#[test]
fn corpus_checksums_match_committed_reference() {
    let text = bench_text();
    let n = committed("n", &text) as usize;
    for (key, m) in [
        ("checksum_a", corpus::dense(1, n, n)),
        ("checksum_b", corpus::dense(2, n, n)),
        ("checksum_spd", corpus::spd(5, n)),
    ] {
        assert_eq!(
            f64::from(corpus::checksum(&m)),
            committed(key, &text),
            "seeded corpus changed bits ({key}): the committed timings no \
             longer describe this workload — refresh {BENCH_FILE}"
        );
    }
}

#[test]
fn blocked_matmul_keeps_committed_speedup_over_naive() {
    let text = bench_text();
    let n = committed("n", &text) as usize;
    let floor = committed("matmul_speedup_floor", &text);

    let a = corpus::dense(1, n, n);
    let b = corpus::dense(2, n, n);

    let timing = timing_lock();
    let naive_secs = best_secs(3, || naive_matmul(&a, &b));
    let blocked_secs = best_secs(3, || a.matmul(&b).expect("square product"));
    drop(timing);

    // The speedup only counts because the result is identical: the blocked
    // product must match the oracle bit-for-bit while being faster.
    let reference = naive_matmul(&a, &b);
    let blocked = a.matmul(&b).expect("square product");
    assert_eq!(
        reference.as_slice().len(),
        blocked.as_slice().len(),
        "shape drifted"
    );
    for (i, (r, v)) in reference
        .as_slice()
        .iter()
        .zip(blocked.as_slice())
        .enumerate()
    {
        assert_eq!(
            r.to_bits(),
            v.to_bits(),
            "matmul element {i} diverged from the naive oracle"
        );
    }

    let speedup = naive_secs / blocked_secs;
    eprintln!(
        "matmul {n}x{n}: naive {naive_secs:.4}s, blocked {blocked_secs:.4}s, \
         speedup {speedup:.2}x (floor {floor}x)"
    );
    assert!(
        speedup >= floor,
        "blocked matmul speedup regressed: {speedup:.2}x < committed floor \
         {floor}x ({BENCH_FILE})"
    );
}

/// The blocked product recorded in `BENCH_linalg.json` is pinned by bits,
/// not just by speed: the committed checksum of `A·B` guards against a
/// kernel change that is fast but wrong (or right but re-associated).
#[test]
fn matmul_product_checksum_matches_committed_reference() {
    let text = bench_text();
    let n = committed("n", &text) as usize;
    let a = corpus::dense(1, n, n);
    let b = corpus::dense(2, n, n);
    let prod = a.matmul(&b).expect("square product");
    assert_eq!(
        f64::from(corpus::checksum(&prod)),
        committed("checksum_product", &text),
        "matmul result bits changed: the accumulation-order contract \
         (DESIGN.md §2a) forbids this without a golden re-bless"
    );
    // And the SPD factor, which exercises the column-order Cholesky.
    let spd = corpus::spd(5, n);
    let chol = Cholesky::factor(&spd).expect("SPD by construction");
    assert_eq!(
        f64::from(corpus::checksum(&chol.factor_l())),
        committed("checksum_factor", &text),
        "cholesky factor bits changed: the accumulation-order contract \
         (DESIGN.md §2a) forbids this without a golden re-bless"
    );
}

#[test]
fn column_factor_keeps_committed_speedup_over_naive() {
    let text = bench_text();
    let floor = committed("factor_speedup_floor", &text);
    for size in ["small", "large"] {
        let n = committed(&format!("factor_{size}_n"), &text) as usize;
        let a = corpus::spd(5, n);
        assert_eq!(
            f64::from(corpus::checksum(&a)),
            committed(&format!("factor_{size}_checksum"), &text),
            "seeded {size} factor corpus changed bits: refresh {BENCH_FILE}"
        );

        // Bit-equality first: the speedup only counts for identical factors.
        let mut ws = CholeskyWorkspace::default();
        let (chol, _) = ws.factor_jittered(&a, 0.0, 0).expect("SPD by construction");
        assert_eq!(chol, &Cholesky::factor(&a).expect("SPD by construction"));
        let l = chol.factor_l();
        let reference = naive_cholesky(&a).expect("SPD by construction");
        assert_bits_eq("column factor", &reference, &l);
        assert_eq!(
            f64::from(corpus::checksum(&l)),
            committed(&format!("factor_{size}_checksum_l"), &text),
            "{size} factor bits changed: the accumulation-order contract \
             (DESIGN.md §2a) forbids this without a golden re-bless"
        );

        // The column factor as a search trial runs it: into a reused
        // workspace. Each sample is a batch of factorizations, doubled
        // until a column sample lasts at least 1 ms, and the speedup is the
        // median of the naive/column ratios of 15 adjacent pairs of
        // samples, so a host stall or speed switch skews a pair or two,
        // never the figure.
        let secs = |f: &mut dyn FnMut(), batch: usize| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() / batch as f64
        };
        let mut naive = || {
            std::hint::black_box(naive_cholesky(std::hint::black_box(&a)).is_ok());
        };
        let mut column = || {
            let factored = ws.factor_jittered(std::hint::black_box(&a), 0.0, 0);
            std::hint::black_box(factored.is_ok());
        };
        let timing = timing_lock();
        let mut batch = 1;
        while secs(&mut column, batch) * (batch as f64) < 1e-3 {
            batch *= 2;
        }
        let mut pairs: Vec<[f64; 2]> = (0..15)
            .map(|_| [secs(&mut naive, batch), secs(&mut column, batch)])
            .collect();
        drop(timing);
        let median = |pairs: &mut [[f64; 2]], key: fn(&[f64; 2]) -> f64| {
            pairs.sort_by(|p, q| key(p).total_cmp(&key(q)));
            key(&pairs[pairs.len() / 2])
        };
        let naive_secs = median(&mut pairs, |p| p[0]);
        let column_secs = median(&mut pairs, |p| p[1]);
        let speedup = median(&mut pairs, |p| p[0] / p[1]);
        eprintln!(
            "cholesky {n}x{n} ({batch} per sample): median naive {naive_secs:.3e}s, \
             median column {column_secs:.3e}s, median pair speedup {speedup:.2}x \
             (floor {floor}x)"
        );
        assert!(
            speedup >= floor,
            "{size} column factor speedup regressed: {speedup:.2}x < committed \
             floor {floor}x ({BENCH_FILE})"
        );
    }
}
