//! Deterministic seeded corpus for the linalg and GP speedup ratchets.
//!
//! The ratchets (`tests/bench_ratchet.rs` of this crate and of
//! `hyperpower-gp`, `BENCH_linalg.json` and `BENCH_gp.json` at the
//! workspace root) must measure the *same* workload forever — otherwise
//! the committed timings silently change meaning. This module generates that
//! workload from fixed seeds via the workspace's seeded-`StdRng`-only rand
//! stand-in (registered as an analyzer R8 RNG root), and exposes a
//! [`checksum`] so the ratchet can pin the corpus bits alongside the
//! numbers.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::Matrix;

/// Seed for every corpus matrix; the per-matrix `tag` offsets it so the
/// operands of one benchmark are not bit-correlated.
pub const CORPUS_SEED: u64 = 0x4C41_4C47; // "LALG"

/// Dense `rows`×`cols` matrix with entries uniform in [-1, 1).
pub fn dense(tag: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED ^ tag);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    // Shape is consistent by construction.
    Matrix::from_vec(rows, cols, data).unwrap_or_else(|_| Matrix::zeros(rows, cols))
}

/// Symmetric positive-definite `n`×`n` matrix: uniform off-diagonal noise
/// in [-1, 1) made diagonally dominant by adding `n` to the diagonal.
pub fn spd(tag: u64, n: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED ^ tag);
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = rng.random_range(-1.0..1.0);
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
        m[(i, i)] += n as f64;
    }
    m
}

/// Dense vector with entries uniform in [-1, 1).
pub fn vector(tag: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED ^ tag);
    (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
}

/// Order-sensitive 32-bit checksum over the exact f64 bit patterns of a
/// matrix. Committed in `BENCH_linalg.json` next to the throughput floors
/// so the measured workload can never drift without the ratchet noticing.
pub fn checksum(m: &Matrix) -> u32 {
    let mut acc: u32 = 0x811C_9DC5;
    for v in m.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            acc = (acc ^ u32::from(b)).wrapping_mul(0x0100_0193);
        }
    }
    acc
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(checksum(&dense(1, 16, 16)), checksum(&dense(1, 16, 16)));
        assert_eq!(checksum(&spd(2, 16)), checksum(&spd(2, 16)));
        assert_ne!(checksum(&dense(1, 16, 16)), checksum(&dense(2, 16, 16)));
    }

    #[test]
    fn spd_factors_cleanly() {
        let a = spd(7, 48);
        assert!(a.cholesky().is_ok());
    }
}
