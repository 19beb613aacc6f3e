//! Batched vs per-point GP acquisition scoring.
//!
//! The BO searcher scores its candidate grid through
//! `GpRegressor::posterior_batch` — one multi-RHS triangular solve per
//! candidate block instead of one per candidate. This bench measures both
//! live paths on the same fitted surrogate and the same seeded candidate
//! grid (from [`hyperpower_linalg::corpus`], so `BENCH_gp.json` at the
//! workspace root always describes the same bits). Both run the same
//! forward-solve kernel. `tests/bench_ratchet.rs` times the batched path
//! against a frozen copy of the per-point loop that solved row by row
//! against `L`, and fails the build if it loses its recorded speedup.
//!
//! Workload matches the ratchet: 256 training points, 6 dimensions,
//! 512 candidates scored in blocks of 64.

// Bench-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hyperpower_gp::{GpRegressor, Matern52};
use hyperpower_linalg::corpus;

/// Must match `train_n` / `dims` / `candidates` / `block` in `BENCH_gp.json`.
const TRAIN_N: usize = 256;
const DIMS: usize = 6;
const CANDIDATES: usize = 512;
const BLOCK: usize = 64;

fn fitted() -> GpRegressor {
    let x = corpus::dense(0x6701, TRAIN_N, DIMS);
    let y = corpus::vector(0x6702, TRAIN_N);
    GpRegressor::fit(Matern52::new(0.5).into_kernel(), 1.0, 1e-6, &x, &y)
        .expect("corpus surrogate fit")
}

fn pointwise_scoring(c: &mut Criterion) {
    let gp = fitted();
    let grid = corpus::dense(0x6703, CANDIDATES, DIMS);
    c.bench_function(&format!("predict_pointwise/{CANDIDATES}x{DIMS}"), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for i in 0..grid.rows() {
                let p = black_box(&gp)
                    .predict(grid.row(i))
                    .expect("in-domain query");
                acc += p.mean + p.variance;
            }
            acc
        })
    });
}

fn batched_scoring(c: &mut Criterion) {
    let gp = fitted();
    let grid = corpus::dense(0x6703, CANDIDATES, DIMS);
    let blocks: Vec<_> = (0..CANDIDATES / BLOCK)
        .map(|i| {
            let data: Vec<f64> = (i * BLOCK..(i + 1) * BLOCK)
                .flat_map(|r| grid.row(r).iter().copied())
                .collect();
            hyperpower_linalg::Matrix::from_vec(BLOCK, DIMS, data).expect("sized to shape")
        })
        .collect();
    c.bench_function(
        &format!("posterior_batch/{CANDIDATES}x{DIMS}/block{BLOCK}"),
        |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for q in &blocks {
                    let (means, variances) =
                        black_box(&gp).posterior_batch(q).expect("in-domain block");
                    acc += means.iter().sum::<f64>() + variances.iter().sum::<f64>();
                }
                acc
            })
        },
    );
}

criterion_group!(benches, pointwise_scoring, batched_scoring);
criterion_main!(benches);
