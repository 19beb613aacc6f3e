//! The column-order factorization and the triangular solves behind
//! [`Cholesky`](crate::Cholesky). The factorization reads the upper
//! triangle of its input a row at a time. The factor is stored once, as
//! `Lᵀ`, and read by exactly two solve kernels: `solve_lower_lt` for every
//! forward solve and `solve_lower_transpose_lt` for every backward one.
//! The factorization's column update and the forward solve's update are
//! both k-blocked by four.
//!
//! # The accumulation-order contract
//!
//! Every kernel in this module is a *layout* optimization, never a
//! *reassociation*: for each output element, the sequence of floating-point
//! operations that produces it — the order of the k-loop, the placement of
//! the final divide or square root — is exactly the sequence of the naive
//! element-at-a-time loops, which live on as frozen test oracles in
//! `tests/common/mod.rs`. Blocking only changes *which output elements are
//! in flight at once* (a whole column of the factor, every right-hand side
//! of a forward solve), which is invisible to IEEE-754 arithmetic.
//! `tests/reference_kernels.rs` property-tests bit-exactness of every
//! kernel here against the oracles; the 19 golden traces at the workspace
//! root pin the same contract end-to-end.
//!
//! Legal moves when extending this module (see DESIGN.md §2a):
//! * hoist loads; walk rows and columns through zipped iterators instead
//!   of index arithmetic;
//! * k-block a column update: subtract several earlier rows in one pass
//!   over the output, each element taking them one after another in
//!   increasing k (`((w − a₀·l₀) − a₁·l₁) − …`, never the block's products
//!   summed first);
//! * specialise a kernel per call site (`#[inline(always)]`, so a constant
//!   argument such as `nrhs = 1` folds away a loop): that changes the loop
//!   structure, never an element's operations.
//!
//! Illegal moves:
//! * reordering or splitting a reduction into independent partial sums;
//! * dividing before the accumulation finishes, multiplying by a
//!   reciprocal, or fusing multiply-add (Rust never contracts `a*b + c` on
//!   its own; keep it that way).

/// Earlier rows of `Lᵀ` the factor's column update subtracts per pass over
/// the column.
const KB: usize = 4;

/// One k-block of the factor's column update: `col[i] −= r[i]·r[0]` for
/// each of the `KB` rows `r` (each `lt[k][j..n]`, so `r[0]` is `l[j,k]`),
/// in row order. Every element subtracts the four products one after
/// another in increasing k, the sequence of four single-row passes; one
/// pass just loads and stores each column entry once instead of four times.
fn column_update_kb(col: &mut [f64], rows: &[&[f64]; KB]) {
    let [r0, r1, r2, r3] = *rows;
    let (Some(&l0), Some(&l1), Some(&l2), Some(&l3)) =
        (r0.first(), r1.first(), r2.first(), r3.first())
    else {
        return;
    };
    for ((((w, &a0), &a1), &a2), &a3) in col.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
        *w = *w - a0 * l0 - a1 * l1 - a2 * l2 - a3 * l3;
    }
}

/// Column-order Cholesky into `Lᵀ`: factors the upper triangle of `a`
/// (n×n, row-major) and writes column j of `L` as row j of `lt` (n×n,
/// row-major), from its diagonal on. The strictly lower triangles of `a`
/// and `lt` are never read or written, so storage that starts zeroed holds
/// exactly `Lᵀ`.
///
/// `shift` is the jitter of a retry: `Some(s)` reads every diagonal entry
/// as `a[j,j] + s`, the sum `a + s·I` would hold, while `None` reads `a`
/// as it is (adding `0.0` would turn a `-0.0` diagonal into `+0.0`).
///
/// Column j starts as a copy of row j of `a` from its diagonal on, one
/// contiguous slice: for the symmetric matrices the library factors, that
/// is column j of the lower triangle, bit for bit. It then subtracts
/// `lt[k][j..n] · lt[k][j]` for k = 0..j, `KB` rows of `Lᵀ` per pass
/// ([`column_update_kb`]) and the last `j mod KB` one at a time; its
/// first entry is the pivot, which is tested, replaced by its `sqrt` and
/// divides the rest. So element (i, j) takes the naive left-looking
/// sequence — `a[i,j] − l[i,k]·l[j,k]` for k strictly increasing, then the
/// `sqrt` or the divide — and a failure reports the first bad pivot and its
/// bit-identical value as `Err((pivot, value))`: pivot j depends only on
/// columns before j, which are complete when it is tested.
pub(crate) fn cholesky_factor_lt(
    n: usize,
    a: &[f64],
    shift: Option<f64>,
    lt: &mut [f64],
) -> Result<(), (usize, f64)> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(lt.len(), n * n);
    for j in 0..n {
        let (done, rest) = lt.split_at_mut(j * n);
        let (row, _) = rest.split_at_mut(n);
        let (_, col) = row.split_at_mut(j);
        let (_, a_row) = a.split_at(j * n + j);
        for (w, &v) in col.iter_mut().zip(a_row) {
            *w = v;
        }
        if let (Some(s), Some(w)) = (shift, col.first_mut()) {
            *w += s;
        }
        let mut blocks = done.chunks_exact(KB * n);
        for block in &mut blocks {
            let rows: [&[f64]; KB] = core::array::from_fn(|r| &block[r * n + j..(r + 1) * n]);
            column_update_kb(col, &rows);
        }
        for row in blocks.remainder().chunks_exact(n) {
            let (_, row) = row.split_at(j);
            if let Some(&ljk) = row.first() {
                for (w, &lik) in col.iter_mut().zip(row) {
                    *w -= lik * ljk;
                }
            }
        }
        // `col` holds the n − j ≥ 1 entries of column j from the diagonal.
        let Some((diagonal, below)) = col.split_first_mut() else {
            continue;
        };
        let pivot = *diagonal;
        if pivot <= 0.0 || !pivot.is_finite() {
            return Err((j, pivot));
        }
        let d = pivot.sqrt();
        *diagonal = d;
        for w in below {
            *w /= d;
        }
    }
    Ok(())
}

/// One k-block of the forward solve's update: `y[i] −= l[i,k]·y[k]` for
/// each of the `KB` solved rows `ys` (rows k₀..k₀+`KB` of the solution,
/// `nrhs` wide), against every later row i of `below`, whose `l[i,k]` are
/// the columns `cols` (each `lt[k][k₀+KB..n]`). Every element subtracts
/// the four products one after another in increasing k, the sequence of
/// four single-step passes; one pass just loads and stores each element
/// once instead of four times.
#[inline(always)]
fn forward_update_kb(below: &mut [f64], nrhs: usize, cols: &[&[f64]; KB], ys: &[&[f64]; KB]) {
    let [c0, c1, c2, c3] = *cols;
    let [y0, y1, y2, y3] = *ys;
    for ((((yi, &a0), &a1), &a2), &a3) in
        below.chunks_exact_mut(nrhs).zip(c0).zip(c1).zip(c2).zip(c3)
    {
        for ((((w, &v0), &v1), &v2), &v3) in yi.iter_mut().zip(y0).zip(y1).zip(y2).zip(y3) {
            *w = *w - a0 * v0 - a1 * v1 - a2 * v2 - a3 * v3;
        }
    }
}

/// A row of `lt` from column `k0` on, split after its first `KB`
/// entries; `None` if fewer remain.
#[inline(always)]
fn block_row(row: &[f64], k0: usize) -> Option<(&[f64; KB], &[f64])> {
    row.get(k0..)?.split_first_chunk::<KB>()
}

/// Forward substitution `L·Y = B` for `nrhs` right-hand sides stored
/// column-wise (`y[i * nrhs + r]` is component i of RHS r), reading `L`
/// through its transpose `lt` (`lt[k * n + i] = l[i * n + k]`): the one
/// forward-solve kernel, behind every forward solve of a
/// [`Cholesky`](crate::Cholesky).
///
/// On entry `y` holds `B`; on exit it holds `Y`. Column-oriented and
/// k-blocked like the factor's column update: for each block of `KB` rows
/// k₀..k₀+`KB` of `lt`, it first finishes rows k₀..k₀+`KB` of `y` in
/// order (row k₀+r subtracts `l[k₀+r,k]·y[k]` for the block's earlier
/// rows k, then divides by `l[k₀+r,k₀+r]`), then subtracts all `KB` rows
/// from every later row in one pass ([`forward_update_kb`]). The last
/// `n mod KB` rows run one step k at a time: divide row k, subtract it
/// from every later row. Per (element, RHS) that is the naive
/// `solve_lower` sequence: subtract `l[i,k]·y[k]` for k = 0..i in
/// increasing order, then divide by `l[i,i]`.
///
/// Rows of `lt` and the rows of `y` below a block are walked by zipped
/// iterators, with no index arithmetic per row. `#[inline(always)]` lets
/// each of its two call sites specialise the kernel: where `nrhs` is the
/// constant 1 the RHS loops disappear and a block's update runs as one
/// pass over four columns of `L`.
#[inline(always)]
pub(crate) fn solve_lower_lt(n: usize, lt: &[f64], nrhs: usize, y: &mut [f64]) {
    debug_assert_eq!(lt.len(), n * n);
    debug_assert_eq!(y.len(), n * nrhs);
    if n == 0 || nrhs == 0 {
        // Nothing to solve, and `chunks_exact` rejects a zero width.
        return;
    }
    let mut blocks = lt.chunks_exact(KB * n);
    let mut k0 = 0;
    for block in &mut blocks {
        // Rows k₀..k₀+KB of `lt` from column k₀ on, each split after its
        // first KB entries: row k₀+k heads with `l[k₀+r, k₀+k]` for
        // r = 0..KB, then holds column k₀+k of `L` below the block.
        let (r0, rest) = block.split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        let (Some((h0, c0)), Some((h1, c1)), Some((h2, c2)), Some((h3, c3))) = (
            block_row(r0, k0),
            block_row(r1, k0),
            block_row(r2, k0),
            block_row(r3, k0),
        ) else {
            break;
        };
        let [l00, l10, l20, l30] = *h0;
        let [_, l11, l21, l31] = *h1;
        let [_, _, l22, l32] = *h2;
        let [_, _, _, l33] = *h3;
        let (_, tail) = y.split_at_mut(k0 * nrhs);
        let (solved, below) = tail.split_at_mut(KB * nrhs);
        let (y0, rest) = solved.split_at_mut(nrhs);
        let (y1, rest) = rest.split_at_mut(nrhs);
        let (y2, y3) = rest.split_at_mut(nrhs);
        // Finish the block's rows in order: each subtracts the block's
        // earlier rows in increasing k, then divides by its pivot.
        for (((w0, w1), w2), w3) in y0
            .iter_mut()
            .zip(y1.iter_mut())
            .zip(y2.iter_mut())
            .zip(y3.iter_mut())
        {
            *w0 /= l00;
            *w1 = (*w1 - l10 * *w0) / l11;
            *w2 = (*w2 - l20 * *w0 - l21 * *w1) / l22;
            *w3 = (*w3 - l30 * *w0 - l31 * *w1 - l32 * *w2) / l33;
        }
        forward_update_kb(below, nrhs, &[c0, c1, c2, c3], &[y0, y1, y2, y3]);
        k0 += KB;
    }
    for (k, row) in (k0..).zip(blocks.remainder().chunks_exact(n)) {
        let (_, tail) = y.split_at_mut(k * nrhs);
        let (yk, below) = tail.split_at_mut(nrhs);
        let (_, from_diagonal) = row.split_at(k);
        // Row k holds n − k ≥ 1 entries from its diagonal on.
        let Some((&d, column)) = from_diagonal.split_first() else {
            continue;
        };
        for yv in yk.iter_mut() {
            *yv /= d;
        }
        for (&lik, yi) in column.iter().zip(below.chunks_exact_mut(nrhs)) {
            for (yv, &kv) in yi.iter_mut().zip(yk.iter()) {
                *yv -= lik * kv;
            }
        }
    }
}

/// Backward substitution `Lᵀ·x = y` for one right-hand side, reading `L`
/// through its transpose `lt` (`lt[i * n + k] = l[k * n + i]`), the stored
/// factor.
///
/// Backward substitution cannot be block-reordered without changing the
/// per-element k order (element i needs x[k] for *all* k > i before it can
/// finish), so the only layout move is the transposed factor, which makes
/// the k-loop a contiguous read. Per element: subtract `l[k,i]·x[k]` for
/// k = i+1..n in increasing order, then divide — the naive
/// `solve_lower_transpose` sequence. Row i of `lt` and the solved elements
/// below it are walked by zipped iterators, with no index arithmetic per k.
pub(crate) fn solve_lower_transpose_lt(n: usize, lt: &[f64], x: &mut [f64]) {
    debug_assert_eq!(lt.len(), n * n);
    debug_assert_eq!(x.len(), n);
    if n == 0 {
        // Nothing to solve, and `chunks_exact` rejects a zero width.
        return;
    }
    for (i, row) in lt.chunks_exact(n).enumerate().rev() {
        let (_, tail) = x.split_at_mut(i);
        let (_, from_diagonal) = row.split_at(i);
        // Row i holds n − i ≥ 1 entries from its diagonal on, and so does
        // the tail of `x`.
        let (Some((xi, solved)), Some((&d, below))) =
            (tail.split_first_mut(), from_diagonal.split_first())
        else {
            continue;
        };
        let mut acc = *xi;
        for (&lki, &xk) in below.iter().zip(solved.iter()) {
            acc -= lki * xk;
        }
        *xi = acc / d;
    }
}
