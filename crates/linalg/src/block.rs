//! Cache-blocked, register-tiled kernels behind [`Matrix`](crate::Matrix),
//! and the column-order factorization and triangular solves behind
//! [`Cholesky`](crate::Cholesky). The factorization reads the upper
//! triangle of its input a row at a time. The factor is stored once, as
//! `Lᵀ`, and read by exactly two solve kernels: `solve_lower_lt` for every
//! forward solve and `solve_lower_transpose_multi` for every backward one.
//! The factorization's column update and the forward solve's update are
//! both k-blocked by four.
//!
//! # The accumulation-order contract
//!
//! Every kernel in this module is a *layout* optimization, never a
//! *reassociation*: for each output element, the sequence of floating-point
//! operations that produces it — the order of the k-loop, the placement of
//! the final divide, the `== 0.0` skip in `matmul`/`gram` — is exactly the
//! sequence the naive element-at-a-time loops in `matrix.rs`/`cholesky.rs`
//! used before this module existed. Blocking only changes *which output
//! elements are in flight at once* (register tiles over output rows and
//! columns, a whole column of the factor, every right-hand side of a
//! solve), which is
//! invisible to IEEE-754 arithmetic. The frozen naive kernels live on as
//! test oracles in `tests/reference_kernels.rs`, which property-tests
//! bit-exactness of every kernel here against them; the 19 golden traces at
//! the workspace root pin the same contract end-to-end.
//!
//! Legal moves when extending this module (see DESIGN.md §2a):
//! * tile output rows/columns; hoist loads; pack panels into contiguous
//!   scratch (an f64 copied through memory is the same f64);
//! * split a reduction loop into sequential chunks executed in increasing
//!   order with the running value carried between chunks (in a register or
//!   in memory — both are exact);
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
//! * dropping or widening a `== 0.0` skip (`0.0 * inf` is NaN, and adding
//!   `±0.0` can flip the sign of a `-0.0` accumulator);
//! * dividing before the accumulation finishes, or fusing multiply-add
//!   (Rust never contracts `a*b + c` on its own; keep it that way).

/// Rows per register tile: each micro-kernel keeps `MR` output rows of
/// accumulators live so a loaded `rhs` element is reused `MR` times.
pub const MR: usize = 4;

/// Columns per register tile: `MR * NR` f64 accumulators fit in the vector
/// register file, so the k-loop runs without touching the output in memory.
pub const NR: usize = 8;

/// Rows of the `matmul` micro-tile. 4×8 keeps the accumulator tile (8 YMM
/// registers at the x86-64-v3 target the workspace builds for — see
/// `.cargo/config.toml`) plus a `b`-row vector and an `a` broadcast inside
/// the 16-register vector file; the crate forbids `unsafe`, so the kernels
/// rely on auto-vectorization for their SIMD.
const MM_R: usize = 4;

/// Columns of the `matmul` micro-tile (see [`MM_R`]).
const MM_N: usize = 8;

/// Full-tile `matmul` micro-kernel for rows with no exact-`0.0` operand:
/// `acc[r] += arows[r][k] · bp[k·MM_N..]` for every k, in increasing k.
///
/// `bp` is the packed `kdim`×`MM_N` column panel of `b`. Everything here is
/// zipped iterators on purpose: with no slice indexing there is no panic
/// path, so LLVM keeps the whole 4×8 accumulator tile in registers across
/// the k-loop and vectorizes the column dimension (a bounds check inside
/// the loop forces the tile back to the stack every iteration, because the
/// caller's `acc` must be consistent if the check ever unwound).
/// `#[inline(never)]` keeps that property: compiled in isolation the
/// optimizer sees only noalias parameters, while inlined into the tile
/// loops of [`matmul_into`] the surrounding state defeats the register
/// promotion. The call overhead is amortized over `kdim · MM_R · MM_N`
/// multiply-adds.
#[inline(never)]
fn tile_kernel_clean(arows: &[&[f64]; MM_R], bp: &[f64], acc: &mut [[f64; MM_N]; MM_R]) {
    let [a0s, a1s, a2s, a3s] = *arows;
    let [acc0, acc1, acc2, acc3] = acc;
    for ((((brow, &a0), &a1), &a2), &a3) in
        bp.chunks_exact(MM_N).zip(a0s).zip(a1s).zip(a2s).zip(a3s)
    {
        for (s, &bv) in acc0.iter_mut().zip(brow) {
            *s += a0 * bv;
        }
        for (s, &bv) in acc1.iter_mut().zip(brow) {
            *s += a1 * bv;
        }
        for (s, &bv) in acc2.iter_mut().zip(brow) {
            *s += a2 * bv;
        }
        for (s, &bv) in acc3.iter_mut().zip(brow) {
            *s += a3 * bv;
        }
    }
}

/// Full-tile `matmul` micro-kernel with the naive `== 0.0` skip.
///
/// Same shape as [`tile_kernel_clean`] — zipped, panic-free, isolated — but
/// each row's update is guarded exactly as the naive loop guards it. Per
/// output element the sequence is identical either way; the clean variant
/// exists because a per-k compare costs as much as the arithmetic it gates.
#[inline(never)]
fn tile_kernel_skip(arows: &[&[f64]; MM_R], bp: &[f64], acc: &mut [[f64; MM_N]; MM_R]) {
    let [a0s, a1s, a2s, a3s] = *arows;
    let [acc0, acc1, acc2, acc3] = acc;
    for ((((brow, &a0), &a1), &a2), &a3) in
        bp.chunks_exact(MM_N).zip(a0s).zip(a1s).zip(a2s).zip(a3s)
    {
        if a0 != 0.0 {
            for (s, &bv) in acc0.iter_mut().zip(brow) {
                *s += a0 * bv;
            }
        }
        if a1 != 0.0 {
            for (s, &bv) in acc1.iter_mut().zip(brow) {
                *s += a1 * bv;
            }
        }
        if a2 != 0.0 {
            for (s, &bv) in acc2.iter_mut().zip(brow) {
                *s += a2 * bv;
            }
        }
        if a3 != 0.0 {
            for (s, &bv) in acc3.iter_mut().zip(brow) {
                *s += a3 * bv;
            }
        }
    }
}

/// `out = a · b` for row-major `a` (m×k), `b` (k×n), `out` (m×n, zeroed).
///
/// Register-tiled over `MM_R`×`MM_N` output blocks; per output element the
/// k-loop is sequential in increasing k with the naive kernel's exact
/// `a[(i,k)] == 0.0` skip, so every element is bit-identical to
/// `for i { for k { if a != 0 { for j { out += a * b } } } }`.
pub(crate) fn matmul_into(m: usize, kdim: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(out.len(), m * n);
    // One pass over `a` up front: rows with no exact zero never take the
    // `== 0.0` skip, so tiles made of clean rows can run a branch-free
    // k-loop — the identical operation sequence, minus a per-k check that
    // would otherwise cost as much as the arithmetic.
    let row_clean: Vec<bool> = (0..m)
        .map(|i| !a[i * kdim..(i + 1) * kdim].contains(&0.0))
        .collect();
    // j0 outer: the kdim×MM_N panel of `b` a tile column reads stays
    // cache-resident while every row tile sweeps over it; with i0 outer
    // each row tile would re-stream all of `b` instead. Loop order over
    // *tiles* is free under the contract — it never changes the
    // per-element operation sequence.
    let mut j0 = 0;
    let mut bp = vec![0.0f64; 0];
    while j0 < n {
        let jw = (n - j0).min(MM_N);
        // Pack the b panel contiguously (bit-exact copy): the k-loop then
        // streams 64-byte lines instead of stride-n rows.
        bp.resize(kdim * jw, 0.0);
        for k in 0..kdim {
            bp[k * jw..(k + 1) * jw].copy_from_slice(&b[k * n + j0..k * n + j0 + jw]);
        }
        let mut i0 = 0;
        while i0 < m {
            let ih = (m - i0).min(MM_R);
            // The accumulator tile lives in registers for the whole k-loop.
            let mut acc = [[0.0f64; MM_N]; MM_R];
            if ih == MM_R && jw == MM_N {
                let arows: [&[f64]; MM_R] =
                    core::array::from_fn(|r| &a[(i0 + r) * kdim..(i0 + r + 1) * kdim]);
                if row_clean[i0..i0 + MM_R].iter().all(|&c| c) {
                    // No operand in these rows hits the `== 0.0` skip, so
                    // running every row unconditionally is the identical
                    // sequence. (NaN rows land here too: NaN is not
                    // `== 0.0`, so the naive loop does not skip it either.)
                    tile_kernel_clean(&arows, &bp, &mut acc);
                } else {
                    tile_kernel_skip(&arows, &bp, &mut acc);
                }
            } else {
                // Edge tiles (ih < MM_R or jw < MM_N) run the same
                // operation sequence on a partial tile.
                for k in 0..kdim {
                    let brow = &bp[k * jw..k * jw + jw];
                    for (r, accr) in acc.iter_mut().enumerate().take(ih) {
                        let av = a[(i0 + r) * kdim + k];
                        if av == 0.0 {
                            continue;
                        }
                        for (c, bv) in brow.iter().enumerate() {
                            accr[c] += av * bv;
                        }
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(ih) {
                out[(i0 + r) * n + j0..(i0 + r) * n + j0 + jw].copy_from_slice(&accr[..jw]);
            }
            i0 += MM_R;
        }
        j0 += MM_N;
    }
}

/// `out[i] = dot(a.row(i), x)` for row-major `a` (m×k).
///
/// Processes `MR` rows per pass so each `x[k]` load is amortized. Per row
/// the accumulation is `-0.0 + a[i,0]·x[0] + a[i,1]·x[1] + …` — the exact
/// fold of [`crate::vector::dot`], whose `Iterator::sum` starts from the
/// IEEE additive identity `-0.0` (observable: a dot product whose only
/// nonzero-free products are `-0.0` sums to `-0.0`, not `+0.0`).
pub(crate) fn matvec_into(m: usize, kdim: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(x.len(), kdim);
    debug_assert_eq!(out.len(), m);
    let mut i0 = 0;
    while i0 < m {
        let ih = (m - i0).min(MR);
        let mut acc = [-0.0f64; MR];
        for (k, &xv) in x.iter().enumerate() {
            for (r, accr) in acc.iter_mut().enumerate().take(ih) {
                *accr += a[(i0 + r) * kdim + k] * xv;
            }
        }
        out[i0..i0 + ih].copy_from_slice(&acc[..ih]);
        i0 += MR;
    }
}

/// Upper triangle of `out = xᵀ·x` for row-major `x` (rows×cols), then a
/// mirror copy into the lower triangle — the naive `gram` contract.
///
/// The reduction runs over the rows of `x` in increasing order with the
/// naive kernel's `row[a] == 0.0` skip; register tiles cover `MR`×`NR`
/// output blocks. Tiles strictly below the diagonal are skipped; tiles
/// crossing it compute a few sub-diagonal lanes and discard them (the
/// stores are guarded to `b >= a`), which never touches observable state.
pub(crate) fn gram_into(rows: usize, cols: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(out.len(), cols * cols);
    let mut a0 = 0;
    while a0 < cols {
        let ah = (cols - a0).min(MR);
        // First tile column that intersects the upper triangle b >= a0.
        let mut b0 = (a0 / NR) * NR;
        while b0 < cols {
            let bw = (cols - b0).min(NR);
            let mut acc = [[0.0f64; NR]; MR];
            for i in 0..rows {
                let row = &x[i * cols..(i + 1) * cols];
                for (r, accr) in acc.iter_mut().enumerate().take(ah) {
                    let ra = row[a0 + r];
                    if ra == 0.0 {
                        continue;
                    }
                    for (c, rb) in row[b0..b0 + bw].iter().enumerate() {
                        accr[c] += ra * rb;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(ah) {
                let arow = a0 + r;
                for (c, &v) in accr.iter().enumerate().take(bw) {
                    let bcol = b0 + c;
                    if bcol >= arow {
                        out[arow * cols + bcol] = v;
                    }
                }
            }
            b0 += NR;
        }
        a0 += MR;
    }
    for a in 0..cols {
        for b in 0..a {
            out[a * cols + b] = out[b * cols + a];
        }
    }
}

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
/// each call site specialise the kernel, as the backward solve's do: where
/// `nrhs` is the constant 1 the RHS loops disappear and a block's update
/// runs as one pass over four columns of `L`.
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

/// Backward substitution `Lᵀ·X = Y` for `nrhs` right-hand sides stored
/// column-wise (`y[i * nrhs + r]`), reading `L` through its transpose
/// `lt` (`lt[i * n + k] = l[k * n + i]`), the stored factor.
///
/// Backward substitution cannot be block-reordered without changing the
/// per-element k order (element i needs x[k] for *all* k > i before it can
/// finish), so the blocking here is layout-only: the transposed factor
/// makes the k-loop a contiguous read, and the RHS dimension vectorizes.
/// Per (element, RHS): subtract `l[k,i]·x[k]` for k = i+1..n in increasing
/// order, then divide — the naive `solve_lower_transpose` sequence.
///
/// Row i of `lt` and the solved rows below it are walked by zipped
/// iterators, with no index arithmetic per k. `#[inline(always)]` lets each
/// call site specialise the kernel: where `nrhs` is the constant 1 (every
/// single right-hand-side solve) the RHS loop disappears and row i runs as
/// one accumulator over `l[k,i]·x[k]`.
#[inline(always)]
pub(crate) fn solve_lower_transpose_multi(n: usize, lt: &[f64], nrhs: usize, y: &mut [f64]) {
    debug_assert_eq!(lt.len(), n * n);
    debug_assert_eq!(y.len(), n * nrhs);
    if n == 0 || nrhs == 0 {
        // Nothing to solve, and `chunks_exact` rejects a zero width.
        return;
    }
    for (i, row) in lt.chunks_exact(n).enumerate().rev() {
        let (_, tail) = y.split_at_mut(i * nrhs);
        let (yi, xs) = tail.split_at_mut(nrhs);
        let (_, from_diagonal) = row.split_at(i);
        // Row i holds n − i ≥ 1 entries from its diagonal on.
        let Some((&d, below)) = from_diagonal.split_first() else {
            continue;
        };
        for (&lki, xk) in below.iter().zip(xs.chunks_exact(nrhs)) {
            for (yv, &kv) in yi.iter_mut().zip(xk) {
                *yv -= lki * kv;
            }
        }
        for yv in yi.iter_mut() {
            *yv /= d;
        }
    }
}
