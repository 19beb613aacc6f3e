//! Bit-exactness proof: blocked kernels vs frozen naive oracles.
//!
//! The blocked, register-tiled kernels behind `Matrix::matmul`/`gram`/
//! `matvec` and `Cholesky` promise the accumulation-order contract of
//! DESIGN.md §2a: same per-output-element operation sequence as the naive
//! loops they replaced, hence bit-for-bit identical results. This suite
//! holds them to it with property tests against the frozen oracles in
//! `tests/common/mod.rs`, across adversarial shapes — dimensions of 1,
//! dimensions straddling the register-tile (4×8) boundaries and 32, and
//! reaching the GP fit's sizes (up to 77), zero right-hand sides,
//! matrices salted with exact zeros (the `== 0.0` skip is observable:
//! `0.0·∞` is NaN and `-0.0 + 0.0` flips sign), ill-conditioned SPD
//! matrices, and indefinite matrices where even the *failure* must be
//! bit-identical (same pivot index, same pivot value bits).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

mod common;

use common::{
    assert_bits_eq, assert_slice_bits_eq, naive_cholesky, naive_gram, naive_matmul, naive_matvec,
    naive_solve_lower, naive_solve_lower_transpose,
};
use hyperpower_linalg::{Cholesky, CholeskyWorkspace, Error, Matrix};
use proptest::prelude::*;
use proptest::sample::select;

/// Entries for adversarial matrices: mostly smooth values, salted with
/// exact zeros (to exercise the skip path), exact negative zeros, and huge
/// or tiny magnitudes (to exercise rounding-order sensitivity).
fn entry_strategy() -> impl Strategy<Value = f64> {
    (select(vec![0u8, 0, 0, 0, 0, 1, 2, 3, 4]), -3.0f64..3.0).prop_map(|(kind, v)| match kind {
        0 => v,
        1 => 0.0,
        2 => -0.0,
        3 => v * 1e16,
        _ => v * 1e-16,
    })
}

/// Dimensions chosen to straddle the register tile (MR=4, NR=8)
/// boundaries — 1, tile-exact, tile±1 — and 32±1 (a power of two, where a
/// blocked kernel would put a block edge), plus the sizes that carry the
/// GP fit's factor time: 48, 64, and 77, the largest fit of the
/// batch-parallel benchmark workload.
fn dim_strategy() -> impl Strategy<Value = usize> {
    select(vec![
        1usize, 2, 3, 4, 5, 7, 8, 9, 16, 31, 32, 33, 40, 48, 64, 77,
    ])
}

/// Right-hand-side counts for the multi-RHS forward solve: 1–9, and 63–65
/// around the 64-candidate blocks `posterior_batch` scores.
fn rhs_width_strategy() -> impl Strategy<Value = usize> {
    select(vec![1usize, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65])
}

fn matrix_of(r: usize, c: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(entry_strategy(), r * c)
        .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized to shape"))
}

/// SPD-ish strategy spanning well-conditioned to numerically indefinite:
/// `B·Bᵀ + d·I` where `d` ranges from a dominant diagonal down to exactly
/// zero (rank-deficient for most draws, so the factorization *fails* — and
/// the failure must match the oracle bit-for-bit too).
fn spd_spectrum_strategy() -> impl Strategy<Value = Matrix> {
    (
        dim_strategy(),
        select(vec![8.0f64, 8.0, 1.0, 1.0, 1e-9, 1e-15, 0.0]),
    )
        .prop_flat_map(|(n, diag)| {
            proptest::collection::vec(-2.0f64..2.0, n * n).prop_map(move |data| {
                let b = Matrix::from_vec(n, n, data).expect("sized to shape");
                let mut a = b.matmul(&b.transpose()).expect("square product");
                a.add_diagonal(diag);
                a
            })
        })
}

/// Indefinite matrices whose first bad pivot lies deep in the factor:
/// `B·Bᵀ + s·I` for an n×r `B` of rank r < n. In exact arithmetic the
/// Schur complement after pivot r − 1 is `s·I`, so with `s < 0` pivot r
/// fails, and with `s = 0` some pivot from r on is left to rounding noise
/// — and may fail or pass.
fn deep_indefinite_strategy() -> impl Strategy<Value = (Matrix, f64)> {
    (
        select(vec![2usize, 9, 33, 48, 64, 77]),
        select(vec![1usize, 2, 4]),
        select(vec![0.0f64, -1e-12, -1e-3]),
    )
        .prop_flat_map(|(n, quarters, shift)| {
            let r = (n * quarters / 4).clamp(1, n - 1);
            proptest::collection::vec(-2.0f64..2.0, n * r).prop_map(move |data| {
                let b = Matrix::from_vec(n, r, data).expect("sized to shape");
                let mut a = b.matmul(&b.transpose()).expect("square product");
                a.add_diagonal(shift);
                (a, shift)
            })
        })
}

/// The column-order factor must end like the naive loop: the same factor
/// bits, or the same first bad pivot with the same pivot value bits.
fn assert_factor_matches_naive(a: &Matrix) {
    match (naive_cholesky(a), Cholesky::factor(a)) {
        (Ok(l_ref), Ok(chol)) => {
            assert_bits_eq("cholesky L", &l_ref, &chol.factor_l());
        }
        (Err((pivot_ref, value_ref)), Err(Error::NotPositiveDefinite { pivot, value })) => {
            prop_assert_eq!(pivot_ref, pivot, "first bad pivot index differs");
            prop_assert_eq!(
                value_ref.to_bits(),
                value.to_bits(),
                "pivot value bits differ: naive {:?} vs blocked {:?}",
                value_ref,
                value
            );
        }
        (naive, blocked) => {
            panic!(
                "factorization outcomes diverged: naive ok={} vs blocked {:?}",
                naive.is_ok(),
                blocked.err()
            );
        }
    }
}

proptest! {
    #[test]
    fn matmul_bit_equals_naive(
        (a, b) in (dim_strategy(), dim_strategy(), dim_strategy()).prop_flat_map(|(m, k, n)| {
            (matrix_of(m, k), matrix_of(k, n))
        })
    ) {
        let blocked = a.matmul(&b).expect("shapes agree");
        assert_bits_eq("matmul", &naive_matmul(&a, &b), &blocked);
    }

    #[test]
    fn gram_bit_equals_naive(
        x in (dim_strategy(), dim_strategy()).prop_flat_map(|(r, c)| matrix_of(r, c))
    ) {
        assert_bits_eq("gram", &naive_gram(&x), &x.gram());
    }

    #[test]
    fn matvec_bit_equals_naive(
        (a, v) in (dim_strategy(), dim_strategy()).prop_flat_map(|(m, k)| {
            (matrix_of(m, k), proptest::collection::vec(entry_strategy(), k))
        })
    ) {
        let blocked = a.matvec(&v).expect("shapes agree");
        assert_slice_bits_eq("matvec", &naive_matvec(&a, &v), &blocked);
    }

    #[test]
    fn cholesky_bit_equals_naive_across_conditioning(a in spd_spectrum_strategy()) {
        assert_factor_matches_naive(&a);
    }

    #[test]
    fn cholesky_failure_bit_equals_naive_deep_in_the_factor(
        (a, shift) in deep_indefinite_strategy()
    ) {
        assert_factor_matches_naive(&a);
        if shift < 0.0 {
            prop_assert!(naive_cholesky(&a).is_err(), "a negative shift must fail");
        }
    }

    #[test]
    fn triangular_solves_bit_equal_naive(
        (a, rhs) in spd_spectrum_strategy().prop_flat_map(|a| {
            let n = a.rows();
            (Just(a), proptest::collection::vec(entry_strategy(), n))
        })
    ) {
        // Indefinite draws are covered by the factorization property.
        if let Ok(chol) = Cholesky::factor(&a) {
            let l = &chol.factor_l();

            let fwd = chol.solve_lower(&rhs).expect("length matches");
            assert_slice_bits_eq("solve_lower", &naive_solve_lower(l, &rhs), &fwd);

            let bwd = chol.solve_lower_transpose(&fwd).expect("length matches");
            assert_slice_bits_eq(
                "solve_lower_transpose",
                &naive_solve_lower_transpose(l, &naive_solve_lower(l, &rhs)),
                &bwd,
            );

            let full = chol.solve(&rhs).expect("length matches");
            assert_slice_bits_eq("solve", &bwd, &full);

            // A factor borrowed from a workspace solves in place.
            let mut ws = CholeskyWorkspace::default();
            let (lent, _) = ws.factor_jittered(&a, 0.0, 0).expect("factored above");
            let mut in_place = rhs.clone();
            lent.solve_in_place(&mut in_place).expect("length matches");
            assert_slice_bits_eq("workspace solve", &bwd, &in_place);
        }
    }

    #[test]
    fn solve_matrix_bit_equals_per_column_solves(
        (a, b) in spd_spectrum_strategy().prop_flat_map(|a| {
            let n = a.rows();
            (Just(a), (1usize..=9).prop_flat_map(move |c| matrix_of(n, c)))
        })
    ) {
        if let Ok(chol) = Cholesky::factor(&a) {
            let l = &chol.factor_l();
            let solved = chol.solve_matrix(&b).expect("shapes agree");
            for j in 0..b.cols() {
                let col_ref =
                    naive_solve_lower_transpose(l, &naive_solve_lower(l, &b.col(j)));
                let col_blocked: Vec<f64> = solved.col_iter(j).collect();
                assert_slice_bits_eq("solve_matrix column", &col_ref, &col_blocked);
            }
        }
    }

    #[test]
    fn solve_lower_columns_bit_equals_per_column(
        (a, b) in spd_spectrum_strategy().prop_flat_map(|a| {
            let n = a.rows();
            (Just(a), rhs_width_strategy().prop_flat_map(move |c| matrix_of(n, c)))
        })
    ) {
        if let Ok(chol) = Cholesky::factor(&a) {
            let l = &chol.factor_l();
            let solved = chol.solve_lower_columns(b.clone()).expect("shapes agree");
            for j in 0..b.cols() {
                let col_ref = naive_solve_lower(l, &b.col(j));
                let col_blocked: Vec<f64> = solved.col_iter(j).collect();
                assert_slice_bits_eq("solve_lower_columns column", &col_ref, &col_blocked);
            }
        }
    }
}

// Degenerate shapes the strategies cannot reach (proptest dims start at 1,
// and `Matrix::from_rows` rejects empties — but `zeros`/`from_vec` allow
// zero-sized matrices and the kernels must not panic on them).

#[test]
fn empty_matmul_is_empty() {
    let a = Matrix::zeros(0, 3);
    let b = Matrix::zeros(3, 0);
    let prod = a.matmul(&b).unwrap();
    assert_eq!(prod.shape(), (0, 0));
    // And a k-dimension of zero yields an all-zero (never garbage) result.
    let a = Matrix::zeros(2, 0);
    let b = Matrix::zeros(0, 2);
    let prod = a.matmul(&b).unwrap();
    assert_eq!(prod, Matrix::zeros(2, 2));
}

#[test]
fn empty_cholesky_factors() {
    let chol = Cholesky::factor(&Matrix::zeros(0, 0)).unwrap();
    assert_eq!(chol.dim(), 0);
    assert_eq!(chol.solve(&[]).unwrap(), Vec::<f64>::new());
}

#[test]
fn zero_right_hand_sides_solve_to_empty() {
    // A non-empty factor against n×0 right-hand sides: both kernels must
    // return at once (`chunks_exact(0)` would panic) with an n×0 result.
    for n in [1, 3, 33] {
        let mut a = Matrix::identity(n);
        a.add_diagonal(1.0);
        let chol = Cholesky::factor(&a).unwrap();
        let empty = Matrix::zeros(n, 0);
        assert_eq!(
            chol.solve_lower_columns(empty.clone()).unwrap().shape(),
            (n, 0)
        );
        assert_eq!(chol.solve_matrix(&empty).unwrap().shape(), (n, 0));
    }
}

#[test]
fn one_by_one_matches_naive() {
    let a = Matrix::from_vec(1, 1, vec![4.0]).unwrap();
    let chol = Cholesky::factor(&a).unwrap();
    assert_eq!(chol.factor_l()[(0, 0)].to_bits(), 2.0f64.to_bits());
    let prod = a.matmul(&a).unwrap();
    assert_eq!(
        prod[(0, 0)].to_bits(),
        naive_matmul(&a, &a)[(0, 0)].to_bits()
    );
}

#[test]
fn zero_skip_is_semantically_observable_and_preserved() {
    // a has an exact 0.0 where b holds ∞: the naive kernel skips the
    // product (0·∞ = NaN would otherwise poison the row). The blocked
    // kernel must skip identically — this pins the skip, not just speed.
    let a = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 3.0]]).unwrap();
    let b = Matrix::from_rows(&[&[f64::INFINITY, 1.0], &[1.0, 1.0]]).unwrap();
    let blocked = a.matmul(&b).unwrap();
    assert_bits_eq("matmul with inf", &naive_matmul(&a, &b), &blocked);
    assert!(blocked[(0, 0)].is_finite(), "skip must prevent 0·∞ = NaN");
    assert!(blocked[(1, 0)].is_infinite());
}
