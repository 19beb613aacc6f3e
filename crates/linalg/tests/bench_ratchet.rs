//! The speedup ratchet for the column-order Cholesky.
//!
//! `BENCH_linalg.json` at the workspace root commits the facts about the
//! factor's workload: the corpus and factor checksums (so the measured
//! bits can never silently change), the reference timings on the machine
//! that recorded them, and a *relative* floor — the column-order factor,
//! re-factored in place by `Cholesky::refactor` as the GP hyper-parameter
//! search runs it, must stay at least `factor_speedup_floor`× faster than
//! the frozen `naive_cholesky` of `tests/common/mod.rs`, measured side by
//! side on whatever machine runs the test, at a GP-fit size (32) and at
//! 256. A ratio ratchet cannot flake on slow CI hardware the way an
//! absolute-throughput floor can, and it pins exactly the claim the
//! column-order factor exists to make. Bit-identical factors are asserted
//! before any timing. The speedup is the median ratio of adjacent naive
//! and column samples, each at least about 1 ms long, so one slow moment
//! of the host cannot fail it.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

mod common;

use std::time::Instant;

use common::{assert_bits_eq, naive_cholesky};
use hyperpower_linalg::{corpus, Cholesky};

const BENCH_FILE: &str = "BENCH_linalg.json";

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
    // The whole number token: sign, digits, point and exponent.
    let token: String = text[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    token
        .parse()
        .unwrap_or_else(|_| panic!("{BENCH_FILE}: key {key} is not a number"))
}

#[test]
fn committed_values_are_read_whole() {
    // An exponent is part of the value, not a suffix after it.
    assert_eq!(
        committed("factor_reference_small_naive_secs", &bench_text()),
        5.53e-6
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
        let mut chol = Cholesky::default();
        chol.refactor(&a, 0.0, 0).expect("SPD by construction");
        assert_eq!(chol, Cholesky::factor(&a).expect("SPD by construction"));
        let l = chol.factor_l();
        let reference = naive_cholesky(&a).expect("SPD by construction");
        assert_bits_eq("column factor", &reference, &l);
        assert_eq!(
            f64::from(corpus::checksum(&l)),
            committed(&format!("factor_{size}_checksum_l"), &text),
            "{size} factor bits changed: the accumulation-order contract \
             (DESIGN.md §2a) forbids this without a golden re-bless"
        );

        // The column factor as a search trial runs it: re-factored in
        // place. Each sample is a batch of factorizations, doubled
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
            let factored = chol.refactor(std::hint::black_box(&a), 0.0, 0);
            std::hint::black_box(factored.is_ok());
        };
        let mut batch = 1;
        while secs(&mut column, batch) * (batch as f64) < 1e-3 {
            batch *= 2;
        }
        let mut pairs: Vec<[f64; 2]> = (0..15)
            .map(|_| [secs(&mut naive, batch), secs(&mut column, batch)])
            .collect();
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
