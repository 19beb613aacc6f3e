//! Speedup ratchets for batched GP acquisition scoring and for the GP
//! hyper-parameter fit.
//!
//! `BENCH_gp.json` at the workspace root commits the facts about the
//! batched scoring workload — the corpus checksums (so the committed
//! numbers always describe the same bits), the reference timings, and a
//! *relative* floor: scoring the
//! candidate grid through `posterior_batch` in blocks must stay at least
//! `batch_speedup_floor`× faster than the per-point `predict` loop it
//! replaced, measured side by side on whatever machine runs the test. That
//! loop is the frozen copy in `common` (`FrozenScorer::predict`, which
//! solves row by row against `L`), so the floor keeps describing the
//! change batching made however fast the live `predict` becomes. The
//! speedup only counts because the outputs are bit-identical — to the
//! frozen loop and to the live `predict`, asserted here on the full grid.
//!
//! Its `fit` entry does the same for `fit_gp_hyperparams_laddered`, which
//! searches the length scale and the noise ratio with the signal variance
//! in closed form, builds every trial's covariance from a per-fit distance
//! table and re-factors one reused `Cholesky`, against the frozen
//! three-parameter search with its per-trial `GpRegressor::fit` objective
//! in `common` — at the shapes of `paper_sweep` (21 rows, 6 dimensions)
//! and `batch_sweep` (72 rows, 13 dimensions), each with the searchers'
//! fit options of its time. Before any timing, each fit must climb the
//! frozen fit's rung and land no more than `FIT_GAP` nats of log marginal
//! likelihood below it.
//!
//! Its `score` entry times `posterior_batch`, which builds the
//! cross-covariances a training row at a time, against the frozen scorer
//! in `common` (one k* vector per candidate, then a transpose), at the
//! `paper_sweep` shape: a Matérn surrogate on 21 rows × 6 dimensions
//! scoring 512 candidates in blocks of 64. Bit-identical scores are
//! asserted before any timing.

// Test-support code: panicking on a broken invariant is the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

mod common;

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use common::{frozen_fit_gp_hyperparams_laddered, frozen_options, FrozenScorer, BO_FIT, MAX_RUNGS};
use hyperpower_gp::{fit_gp_hyperparams_laddered, GpRegressor, LadderedFit, Matern52, Prediction};
use hyperpower_linalg::{corpus, Matrix};

const BENCH_FILE: &str = "BENCH_gp.json";

/// How many nats of log marginal likelihood the timed fit may land below
/// the frozen fit.
const FIT_GAP: f64 = 0.001;

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
    // A sign and an exponent are part of the value, not a suffix after it.
    let text = "\"a\": -1.25e-6,\n\"b\": 4E+2\n";
    assert_eq!(committed("a", text).to_bits(), (-1.25e-6f64).to_bits());
    assert_eq!(committed("b", text).to_bits(), 400.0f64.to_bits());
}

/// Each block's posterior means and variances.
type Scores = Vec<(Vec<f64>, Vec<f64>)>;

struct Workload {
    gp: GpRegressor,
    frozen: FrozenScorer,
    grid: Matrix,
    blocks: Vec<Matrix>,
}

fn workload(text: &str) -> Workload {
    let train_n = committed("train_n", text) as usize;
    let dims = committed("dims", text) as usize;
    let candidates = committed("candidates", text) as usize;
    let block = committed("block", text) as usize;

    let x = corpus::dense(0x6701, train_n, dims);
    let y = corpus::vector(0x6702, train_n);
    let grid = corpus::dense(0x6703, candidates, dims);
    assert_eq!(
        f64::from(corpus::checksum(&x)),
        committed("checksum_train", text),
        "seeded training corpus changed bits: refresh {BENCH_FILE}"
    );
    assert_eq!(
        f64::from(corpus::checksum(&grid)),
        committed("checksum_grid", text),
        "seeded candidate grid changed bits: refresh {BENCH_FILE}"
    );

    let kernel = Matern52::new(0.5).into_kernel();
    let gp = GpRegressor::fit(kernel.clone(), 1.0, 1e-6, &x, &y).expect("corpus surrogate fit");
    let frozen = FrozenScorer::fit(kernel, 1.0, 1e-6, &x, &y);
    let blocks = tile(&grid, block);
    Workload {
        gp,
        frozen,
        grid,
        blocks,
    }
}

/// The rows of `grid` in consecutive blocks of `block` rows.
fn tile(grid: &Matrix, block: usize) -> Vec<Matrix> {
    (0..grid.rows() / block)
        .map(|i| {
            let data: Vec<f64> = (i * block..(i + 1) * block)
                .flat_map(|r| grid.row(r).iter().copied())
                .collect();
            Matrix::from_vec(block, grid.cols(), data).expect("sized to shape")
        })
        .collect()
}

/// Each candidate's posterior mean and variance, in grid order.
type Posteriors = Vec<(f64, f64)>;

fn assert_same_posteriors(label: &str, expected: &Posteriors, actual: &Posteriors) {
    assert_eq!(expected.len(), actual.len(), "{label}: candidate count");
    for (q, ((em, ev), (am, av))) in expected.iter().zip(actual).enumerate() {
        assert_eq!(
            em.to_bits(),
            am.to_bits(),
            "{label}: mean bits diverged at candidate {q}"
        );
        assert_eq!(
            ev.to_bits(),
            av.to_bits(),
            "{label}: variance bits diverged at candidate {q}"
        );
    }
}

#[test]
fn batched_scoring_keeps_committed_speedup_over_pointwise() {
    let text = bench_text();
    let floor = committed("batch_speedup_floor", &text);
    let w = workload(&text);
    let pointwise = |predict: &dyn Fn(&[f64]) -> Prediction| -> Posteriors {
        (0..w.grid.rows())
            .map(|i| predict(w.grid.row(i)))
            .map(|p| (p.mean, p.variance))
            .collect()
    };
    let frozen = || pointwise(&|q| w.frozen.predict(q).expect("in-domain query"));
    let live = || pointwise(&|q| w.gp.predict(q).expect("in-domain query"));
    let batched = || -> Posteriors {
        let mut scores = Vec::with_capacity(w.grid.rows());
        for b in &w.blocks {
            let (means, variances) = w.gp.posterior_batch(b).expect("in-domain block");
            scores.extend(means.into_iter().zip(variances));
        }
        scores
    };

    // Bit-equality first: the speedup only counts for identical numbers.
    let reference = frozen();
    assert_same_posteriors("live predict", &reference, &live());
    assert_same_posteriors("posterior_batch", &reference, &batched());

    // Best of interleaved calls (the checks above warmed both up), so
    // drift in the host's speed hits both sides alike.
    let _timing = timing_lock();
    let secs = |f: &dyn Fn() -> Posteriors| {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64()
    };
    let (mut point_secs, mut batch_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        point_secs = point_secs.min(secs(&frozen));
        batch_secs = batch_secs.min(secs(&batched));
    }

    let speedup = point_secs / batch_secs;
    eprintln!(
        "gp scoring {} candidates: frozen pointwise {point_secs:.4}s, batched \
         {batch_secs:.4}s, speedup {speedup:.2}x (floor {floor}x)",
        w.grid.rows()
    );
    assert!(
        speedup >= floor,
        "batched acquisition speedup regressed: {speedup:.2}x < committed \
         floor {floor}x ({BENCH_FILE})"
    );
}

#[test]
fn table_fit_keeps_committed_speedup_over_frozen_fit() {
    let text = bench_text();
    let floor = committed("fit_speedup_floor", &text);
    for shape in ["paper", "batch"] {
        let n = committed(&format!("fit_{shape}_n"), &text) as usize;
        let dims = committed(&format!("fit_{shape}_dims"), &text) as usize;
        let x = corpus::dense(0x6711, n, dims);
        let y = corpus::vector(0x6712, n);
        assert_eq!(
            f64::from(corpus::checksum(&x)),
            committed(&format!("fit_{shape}_checksum"), &text),
            "seeded {shape} fit corpus changed bits: refresh {BENCH_FILE}"
        );
        let fit = || {
            fit_gp_hyperparams_laddered(Matern52::new(0.5).into_kernel(), &x, &y, BO_FIT, MAX_RUNGS)
                .expect("corpus fit")
        };
        let frozen = || {
            frozen_fit_gp_hyperparams_laddered(
                Matern52::new(0.5).into_kernel(),
                &x,
                &y,
                frozen_options(BO_FIT),
                MAX_RUNGS,
            )
            .expect("corpus fit")
        };

        // Quality first: the speedup only counts for a fit no worse.
        let (new, old) = (fit(), frozen());
        assert_eq!(new.rungs, old.rungs, "{shape}: ladder rung");
        let gap = new.fitted.gp.log_marginal_likelihood() - old.fitted.gp.log_marginal_likelihood();
        assert!(
            gap >= -FIT_GAP,
            "{shape}: fit {gap} nats below the frozen fit"
        );

        // Best of interleaved calls (the check above warmed both up), so
        // drift in the host's speed hits both sides alike.
        let _timing = timing_lock();
        let secs = |f: &dyn Fn() -> LadderedFit| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        };
        let (mut frozen_secs, mut table_secs) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..15 {
            frozen_secs = frozen_secs.min(secs(&frozen));
            table_secs = table_secs.min(secs(&fit));
        }
        let speedup = frozen_secs / table_secs;
        eprintln!(
            "gp fit {shape} ({n}x{dims}): frozen {frozen_secs:.5}s, table \
             {table_secs:.5}s, speedup {speedup:.2}x (floor {floor}x), gap {gap:+.1e}"
        );
        assert!(
            speedup >= floor,
            "{shape} fit speedup regressed: {speedup:.2}x < committed floor \
             {floor}x ({BENCH_FILE})"
        );
    }
}

#[test]
fn row_wise_scoring_keeps_committed_speedup_over_frozen_scorer() {
    let text = bench_text();
    let floor = committed("score_speedup_floor", &text);
    let n = committed("score_train_n", &text) as usize;
    let dims = committed("score_dims", &text) as usize;
    let candidates = committed("score_candidates", &text) as usize;
    let block = committed("score_block", &text) as usize;
    let x = corpus::dense(0x6721, n, dims);
    let y = corpus::vector(0x6722, n);
    let grid = corpus::dense(0x6723, candidates, dims);
    assert_eq!(
        f64::from(corpus::checksum(&x)),
        committed("score_checksum_train", &text),
        "seeded scoring corpus changed bits: refresh {BENCH_FILE}"
    );
    assert_eq!(
        f64::from(corpus::checksum(&grid)),
        committed("score_checksum_grid", &text),
        "seeded scoring grid changed bits: refresh {BENCH_FILE}"
    );
    let kernel = Matern52::new(0.5).into_kernel();
    let gp = GpRegressor::fit(kernel.clone(), 1.0, 1e-6, &x, &y).expect("corpus surrogate fit");
    let frozen = FrozenScorer::fit(kernel, 1.0, 1e-6, &x, &y);
    let blocks = tile(&grid, block);
    assert_eq!(
        blocks.len() * block,
        candidates,
        "blocks must tile the grid"
    );
    let live = || -> Scores {
        let scores = blocks.iter().map(|b| gp.posterior_batch(b));
        scores.collect::<Result<_, _>>().expect("in-domain blocks")
    };
    let old = || -> Scores {
        let scores = blocks.iter().map(|b| frozen.posterior_batch(b));
        scores.collect::<Result<_, _>>().expect("in-domain blocks")
    };

    // Bit-equality first: the speedup only counts for identical scores.
    let bits = |scores: Scores| -> Vec<u64> {
        scores
            .into_iter()
            .flat_map(|(means, variances)| means.into_iter().chain(variances))
            .map(f64::to_bits)
            .collect()
    };
    assert_eq!(bits(live()), bits(old()), "scores diverged");

    // Best of interleaved calls (the check above warmed both up), so drift
    // in the host's speed hits both sides alike.
    let _timing = timing_lock();
    let secs = |f: &dyn Fn() -> Scores| {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64()
    };
    let (mut frozen_secs, mut row_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..40 {
        frozen_secs = frozen_secs.min(secs(&old));
        row_secs = row_secs.min(secs(&live));
    }
    let speedup = frozen_secs / row_secs;
    eprintln!(
        "gp scoring {candidates} candidates on {n}x{dims}: frozen {frozen_secs:.6}s, \
         row-wise {row_secs:.6}s, speedup {speedup:.2}x (floor {floor}x)"
    );
    assert!(
        speedup >= floor,
        "row-wise scoring speedup regressed: {speedup:.2}x < committed floor \
         {floor}x ({BENCH_FILE})"
    );
}
