//! BLAS-like kernels on slices and [`Matrix`].
//!
//! The TRSVD step of HOOI is dominated by dense products with the matricized
//! TTMc result `Y_(n)` (paper §III-A2): matrix-vector (`MxV`) and
//! matrix-transpose-vector (`MTxV`) products when it iterates, the normal
//! matrix `Y_(n)ᵀ Y_(n)` ([`par_gram`]) when that is small enough to form,
//! and the block product that recovers the left vectors either way
//! ([`par_gemm_nt_into`]) — so those have rayon-parallel variants.  The
//! small dense products (projected problems, core-tensor contractions) use
//! the sequential `gemm`.
//!
//! The element-wise kernels ([`axpy`], [`scal`]) and the row-wise products
//! built on them ([`gemv`], [`gemm`], [`gemm_tn`], the `par_*` variants)
//! run on the runtime-dispatched SIMD layer ([`crate::simd`]) at the
//! process-wide [`KernelIsa::resolved_default`] tier, which is
//! **bit-identical** to the scalar reference by construction (separate
//! mul+add lanes, no reassociation).  [`dot`] and [`nrm2`] are horizontal
//! reductions and deliberately keep the scalar summation order.

use crate::matrix::Matrix;
use crate::simd::{self, KernelIsa};
use rayon::prelude::*;

/// Dot product of two equally sized slices.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
}

/// `y += alpha * x`, SIMD-dispatched at the process-default ISA
/// (bit-identical to the scalar loop).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    simd::axpy(KernelIsa::resolved_default(), alpha, x, y);
}

/// `x *= alpha`, SIMD-dispatched (a pure multiply rounds once however it is
/// issued, so every ISA produces identical bits).
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    simd::scal(KernelIsa::resolved_default(), alpha, x);
}

/// Euclidean norm of a slice.
#[inline]
pub fn nrm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Normalizes `x` to unit Euclidean norm and returns the original norm.
/// Leaves `x` untouched (and returns 0) if its norm is zero.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = nrm2(x);
    if n > 0.0 {
        scal(1.0 / n, x);
    }
    n
}

/// Dense matrix-vector product `y = A x` (sequential).
///
/// SIMD-dispatched with four *rows* per vector — each lane accumulates one
/// row's dot product in exact scalar order (no horizontal reduction), so
/// the result is bit-identical to `y[i] = dot(a.row(i), x)`.
pub fn gemv(a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    simd::gemv(
        KernelIsa::resolved_default(),
        a.as_slice(),
        a.nrows(),
        a.ncols(),
        x,
        y,
    );
}

/// Dense matrix-vector product `y = A x` using rayon over rows.
pub fn par_gemv(a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    y.par_iter_mut()
        .enumerate()
        .for_each(|(i, yi)| *yi = dot(a.row(i), x));
}

/// Dense transposed matrix-vector product `y = Aᵀ x` (sequential).
///
/// Accumulates row-wise so that `A` is only traversed in row-major order.
pub fn gemv_t(a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.nrows());
    assert_eq!(y.len(), a.ncols());
    y.iter_mut().for_each(|v| *v = 0.0);
    for i in 0..a.nrows() {
        axpy(x[i], a.row(i), y);
    }
}

/// Rows per partial result of the chunked kernels ([`par_gemv_t`],
/// [`par_gemv_normal`], [`par_gemm_nt_into`], [`par_cholesky_qr`]).  A
/// constant rather than a share of the pool: the chunk borders fix the
/// floating-point sum order, so they must depend on `nrows` alone for the
/// result to be the same bits at every thread count.
const ROWS_PER_CHUNK: usize = 256;

/// Rows [`par_gemv_normal`] multiplies before accumulating them: 16 rows of
/// a `Π R_t ≈ 100`-column `Y_(n)` are 13 KB, so the second use of each row
/// finds it in L1.  Affects speed only — the sum order is row order either
/// way.
const ROWS_PER_L1_BLOCK: usize = 16;

/// Rows [`par_gram`] holds under one pass of its register tiles: 32 rows of
/// a 100–125-column `Y_(n)` are 26–32 KB, inside L1 with the tile's two
/// column strips of `G`.  Affects speed only, as above.
const GRAM_ROWS_PER_L1_BLOCK: usize = 32;

/// `y = Σ_c slots[c][..y.len()]`, added in chunk order; `slots` holds one
/// `stride`-long slot per chunk.
fn sum_in_chunk_order(slots: &[f64], stride: usize, y: &mut [f64]) {
    y.fill(0.0);
    for slot in slots.chunks(stride) {
        axpy(1.0, &slot[..y.len()], y);
    }
}

/// Dense transposed matrix-vector product `y = Aᵀ x` with rayon.
///
/// Every 256 rows (`ROWS_PER_CHUNK`) accumulate a private `ncols`-length
/// partial in parallel; the partials are then summed sequentially in chunk
/// order, so the result does not depend on the pool width.  This mirrors
/// how the paper's distributed `MTxV` computes local partial results
/// followed by an all-to-all reduction.
pub fn par_gemv_t(a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.nrows());
    assert_eq!(y.len(), a.ncols());
    let (nrows, ncols) = a.shape();
    if ncols == 0 {
        return;
    }
    let mut partials = vec![0.0; nrows.div_ceil(ROWS_PER_CHUNK) * ncols];
    partials
        .par_chunks_mut(ncols)
        .enumerate()
        .for_each(|(c, partial)| {
            let lo = c * ROWS_PER_CHUNK;
            for i in lo..(lo + ROWS_PER_CHUNK).min(nrows) {
                axpy(x[i], a.row(i), partial);
            }
        });
    sum_in_chunk_order(&partials, ncols, y);
}

/// The normal-equations product in one sweep of `A`: `t = A x` and
/// `y = Aᵀ t`, bit for bit what [`par_gemv`] followed by [`par_gemv_t`]
/// return at any pool width and ISA tier, but each row is read from memory
/// once — it is multiplied into `t` and, still in cache, accumulated into
/// its chunk's private partial of `y`.  This is one step of the Lanczos
/// TRSVD ([`crate::lanczos`]) on a tall `Y_(n)`.
pub fn par_gemv_normal(a: &Matrix, x: &[f64], t: &mut [f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(t.len(), a.nrows());
    assert_eq!(y.len(), a.ncols());
    let (nrows, ncols) = a.shape();
    if ncols == 0 {
        t.fill(0.0);
        return;
    }
    let isa = KernelIsa::resolved_default();
    // One slot per chunk: its partial of `y`, then its rows of `t` (the
    // pool hands out disjoint slots, so both are written without sharing).
    let stride = ncols + ROWS_PER_CHUNK;
    let mut slots = vec![0.0; nrows.div_ceil(ROWS_PER_CHUNK) * stride];
    slots
        .par_chunks_mut(stride)
        .enumerate()
        .for_each(|(c, slot)| {
            let first = c * ROWS_PER_CHUNK;
            let rows = ROWS_PER_CHUNK.min(nrows - first);
            let (partial, t_chunk) = slot.split_at_mut(ncols);
            let chunk = &a.as_slice()[first * ncols..(first + rows) * ncols];
            for lo in (0..rows).step_by(ROWS_PER_L1_BLOCK) {
                let hi = (lo + ROWS_PER_L1_BLOCK).min(rows);
                let block = &chunk[lo * ncols..hi * ncols];
                let t_block = &mut t_chunk[lo..hi];
                simd::gemv(isa, block, hi - lo, ncols, x, t_block);
                for (row, &ti) in block.chunks(ncols).zip(t_block.iter()) {
                    simd::axpy(isa, ti, row, partial);
                }
            }
        });
    sum_in_chunk_order(&slots, stride, y);
    for (slot, t_chunk) in slots.chunks(stride).zip(t.chunks_mut(ROWS_PER_CHUNK)) {
        t_chunk.copy_from_slice(&slot[ncols..ncols + t_chunk.len()]);
    }
}

/// Dense matrix-matrix product `C = A B` (sequential, ikj loop order).
///
/// The inner body is the SIMD-dispatched [`axpy`], so the whole product
/// vectorizes while keeping scalar accumulation order per element.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.ncols(), b.nrows(), "gemm: inner dimensions must agree");
    let mut c = Matrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        for (k, &aik) in arow.iter().enumerate() {
            if aik != 0.0 {
                axpy(aik, b.row(k), crow);
            }
        }
    }
    c
}

/// `C = Aᵀ B` without materializing `Aᵀ`.
///
/// Row-major streaming with the SIMD-dispatched [`axpy`] as the inner body.
pub fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.nrows(), b.nrows(), "gemm_tn: row counts must agree");
    let mut c = Matrix::zeros(a.ncols(), b.ncols());
    for i in 0..a.nrows() {
        let arow = a.row(i);
        let brow = b.row(i);
        for (p, &apv) in arow.iter().enumerate() {
            if apv != 0.0 {
                axpy(apv, brow, c.row_mut(p));
            }
        }
    }
    c
}

/// `C = A Bᵀ` without materializing `Bᵀ`.
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.ncols(), b.ncols(), "gemm_nt: column counts must agree");
    let mut c = Matrix::zeros(a.nrows(), b.nrows());
    for i in 0..a.nrows() {
        let arow = a.row(i);
        for j in 0..b.nrows() {
            c[(i, j)] = dot(arow, b.row(j));
        }
    }
    c
}

/// `C = A Bᵀ` into a preallocated `C`, parallel over 256-row chunks of `A`
/// and `C`: entry `(i, j)` is `dot(a.row(i), b.row(j))` in scalar order, the
/// same bits as [`gemm_nt`] — or as one [`par_gemv`] per row of `B` — at any
/// pool width and ISA tier, while `A` is swept once, gemm-shaped: the rows
/// of `B` sit in the vector lanes ([`simd::gemm_nt_rows`]).  With the `R_n`
/// short-side vectors as the rows of `B` this recovers the left singular
/// vectors of a tall `Y_(n)` ([`crate::lanczos`]).
pub fn par_gemm_nt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.ncols(), b.ncols(), "gemm_nt: column counts must agree");
    assert_eq!(c.shape(), (a.nrows(), b.nrows()));
    let (ncols, k) = (a.ncols(), b.nrows());
    if k == 0 || ncols == 0 {
        c.as_mut_slice().fill(0.0);
        return;
    }
    let isa = KernelIsa::resolved_default();
    c.as_mut_slice()
        .par_chunks_mut(ROWS_PER_CHUNK * k)
        .enumerate()
        .for_each(|(chunk, c_rows)| {
            let first = chunk * ROWS_PER_CHUNK * ncols;
            let a_rows = &a.as_slice()[first..first + c_rows.len() / k * ncols];
            simd::gemm_nt_rows(isa, a_rows, ncols, b.as_slice(), k, c_rows);
        });
}

/// Most partials [`par_gram`] sums, whatever the row count: its scratch is
/// `O(ncols²)`.
const GRAM_MAX_PARTIALS: usize = 32;

/// Rows per partial of [`par_gram`]: the fewest 256-row chunks that keep the
/// partials within [`GRAM_MAX_PARTIALS`] — a function of `nrows` alone.
fn gram_rows_per_partial(nrows: usize) -> usize {
    let chunks = nrows.div_ceil(ROWS_PER_CHUNK);
    ROWS_PER_CHUNK * chunks.div_ceil(GRAM_MAX_PARTIALS).max(1)
}

/// The normal matrix `G = AᵀA` of a tall `A` in one syrk-shaped sweep: each
/// span of rows (at most 32 of them, whole 256-row chunks, their borders a
/// function of the row count alone) accumulates a private upper
/// triangle, L1-sized row blocks at a time under 4 × 8 register tiles
/// ([`simd::gram_accumulate`]); the partials are summed in span order and
/// the triangle mirrored.  Every entry is one add chain in row order within
/// its span, so the bits depend on neither the pool width nor the tier
/// `isa` (pass a [resolved](KernelIsa::resolve) one).
/// With `A = Y_(n)` this is the `Π R_t`-square matrix whose leading
/// eigenvectors are the right singular vectors the TRSVD needs
/// ([`crate::lanczos`]).
pub fn par_gram(isa: KernelIsa, a: &Matrix) -> Matrix {
    let (nrows, n) = a.shape();
    let mut g = Matrix::zeros(n, n);
    if nrows == 0 || n == 0 {
        return g;
    }
    let span = gram_rows_per_partial(nrows);
    let mut partials = vec![0.0; nrows.div_ceil(span) * n * n];
    partials
        .par_chunks_mut(n * n)
        .enumerate()
        .for_each(|(c, partial)| {
            let rows = &a.as_slice()[c * span * n..((c + 1) * span).min(nrows) * n];
            for block in rows.chunks(GRAM_ROWS_PER_L1_BLOCK * n) {
                simd::gram_accumulate(isa, block, n, partial);
            }
        });
    sum_in_chunk_order(&partials, n * n, g.as_mut_slice());
    for p in 0..n {
        for q in (p + 1)..n {
            g[(q, p)] = g[(p, q)];
        }
    }
    g
}

/// Orthonormalizes the columns of a tall `a` in place by two rounds of
/// Cholesky-QR and returns the diagonal of `R` in `A = Q R`: the length each
/// column had once orthogonal to the columns before it.
///
/// Each round forms the Gram matrix `G = AᵀA` from per-256-row partials
/// summed in chunk order, factors `G = RᵀR`, and solves `A ← A R⁻¹` row by
/// row — two sweeps of `A` per round, both row-block parallel, no
/// column-strided access, and the same bits at any pool width and ISA tier
/// (the Gram partials are [`simd::gram_accumulate`]'s one add chain per
/// entry; the substitution is plain scalar code).  A column that is
/// numerically zero (norm below `1e-12` of the largest) or numerically in
/// the span of the columns before it becomes a zero column of length `0`,
/// as [`crate::qr::orthonormalize_columns`] does.
///
/// Cholesky-QR squares the condition number, so this is for columns that
/// are already close to orthogonal — here `Y·v_i` for eigenvectors or Ritz
/// vectors `v_i` of `YᵀY`, whose Gram matrix is `diag(σ_i²)` up to their
/// residual.
pub fn par_cholesky_qr(a: &mut Matrix) -> Vec<f64> {
    let (nrows, k) = a.shape();
    let mut lengths = vec![1.0; k];
    if k == 0 {
        return lengths;
    }
    let isa = KernelIsa::resolved_default();
    let mut partials = vec![0.0; nrows.div_ceil(ROWS_PER_CHUNK) * k * k];
    let mut gram = vec![0.0; k * k];
    for _round in 0..2 {
        // Upper triangle of G, one private partial per chunk of rows.
        partials
            .par_chunks_mut(k * k)
            .enumerate()
            .for_each(|(c, partial)| {
                partial.fill(0.0);
                let lo = c * ROWS_PER_CHUNK * k;
                let rows = &a.as_slice()[lo..(lo + ROWS_PER_CHUNK * k).min(nrows * k)];
                simd::gram_accumulate(isa, rows, k, partial);
            });
        sum_in_chunk_order(&partials, k * k, &mut gram);

        // G = RᵀR in place (R upper triangular), dropping dependent columns:
        // row j of R and 1/R[j][j] are zeroed, which zeroes column j of A R⁻¹.
        let largest = (0..k).map(|j| gram[j * k + j]).fold(0.0, f64::max);
        let mut inv_diag = vec![0.0; k];
        for j in 0..k {
            let norm_sq = gram[j * k + j];
            let mut d = norm_sq;
            for p in 0..j {
                d -= gram[p * k + j] * gram[p * k + j];
            }
            let dependent = d <= 64.0 * f64::EPSILON * norm_sq;
            if dependent || norm_sq <= 1e-24 * largest {
                gram[j * k..(j + 1) * k].fill(0.0);
                lengths[j] = 0.0;
                continue;
            }
            let r_jj = d.sqrt();
            inv_diag[j] = 1.0 / r_jj;
            lengths[j] *= r_jj;
            gram[j * k + j] = r_jj;
            for q in (j + 1)..k {
                let mut v = gram[j * k + q];
                for p in 0..j {
                    v -= gram[p * k + j] * gram[p * k + q];
                }
                gram[j * k + q] = v / r_jj;
            }
        }

        // A ← A R⁻¹ by forward substitution on every row.
        let r = &gram;
        a.as_mut_slice()
            .par_chunks_mut(ROWS_PER_CHUNK * k)
            .for_each(|rows| {
                let mut groups = rows.chunks_exact_mut(4 * k);
                for group in groups.by_ref() {
                    forward_substitute::<4>(group, k, r, &inv_diag);
                }
                for row in groups.into_remainder().chunks_exact_mut(k) {
                    forward_substitute::<1>(row, k, r, &inv_diag);
                }
            });
    }
    lengths
}

/// `rows ← rows·R⁻¹` on `N` consecutive `k`-long rows by forward
/// substitution (`r` is the upper triangular `R`, `inv_diag[j] = 1/R[j][j]`).
/// Within a row every step waits for the one before it, so `N` independent
/// rows advance together; the operations on each entry are those of one row
/// alone.
fn forward_substitute<const N: usize>(rows: &mut [f64], k: usize, r: &[f64], inv_diag: &[f64]) {
    let mut rows = rows.chunks_exact_mut(k);
    let mut rows: [&mut [f64]; N] = std::array::from_fn(|_| rows.next().expect("N rows"));
    for (j, r_j) in r.chunks_exact(k).enumerate() {
        let y: [f64; N] = std::array::from_fn(|l| rows[l][j] * inv_diag[j]);
        for (row, y) in rows.iter_mut().zip(y) {
            row[j] = y;
        }
        for q in j + 1..k {
            for (row, y) in rows.iter_mut().zip(y) {
                row[q] -= y * r_j[q];
            }
        }
    }
}

/// Symmetric rank-k update: returns the Gram matrix `G = Aᵀ A`.
pub fn gram(a: &Matrix) -> Matrix {
    gemm_tn(a, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn assert_mat_eq(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*x, *y, tol), "{x} vs {y}");
        }
    }

    #[test]
    fn dot_axpy_nrm2() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        let mut z = y;
        axpy(2.0, &x, &mut z);
        assert_eq!(z, [6.0, 9.0, 12.0]);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-14);
    }

    #[test]
    fn normalize_unit() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-14);
        assert!((nrm2(&x) - 1.0).abs() < 1e-14);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
    }

    #[test]
    fn gemv_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let x = [1.0, -1.0];
        let mut y = vec![0.0; 3];
        gemv(&a, &x, &mut y);
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn gemv_t_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let x = [1.0, 1.0];
        let mut y = vec![0.0; 2];
        gemv_t(&a, &x, &mut y);
        assert_eq!(y, vec![4.0, 6.0]);
    }

    #[test]
    fn parallel_matches_sequential_gemv() {
        let a = Matrix::random(200, 37, 3);
        let x: Vec<f64> = (0..37).map(|i| i as f64 * 0.1).collect();
        let mut y1 = vec![0.0; 200];
        let mut y2 = vec![0.0; 200];
        gemv(&a, &x, &mut y1);
        par_gemv(&a, &x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!(approx_eq(*u, *v, 1e-12));
        }
    }

    #[test]
    fn parallel_matches_sequential_gemv_t() {
        let a = Matrix::random(211, 17, 5);
        let x: Vec<f64> = (0..211).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut y1 = vec![0.0; 17];
        let mut y2 = vec![0.0; 17];
        gemv_t(&a, &x, &mut y1);
        par_gemv_t(&a, &x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!(approx_eq(*u, *v, 1e-10));
        }
    }

    #[test]
    fn par_gemv_t_empty_rows() {
        let a = Matrix::zeros(0, 4);
        let x: Vec<f64> = vec![];
        let mut y = vec![1.0; 4];
        par_gemv_t(&a, &x, &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }

    /// The shapes every chunked kernel is checked on: row counts around the
    /// 256-row chunk border and well past it, column counts below, off and
    /// on the SIMD width and at the solver's `Π R_t`.
    const NROWS: [usize; 7] = [0, 1, 255, 256, 257, 1000, 10_007];
    const NCOLS: [usize; 3] = [1, 13, 100];

    fn grid_matrix(nrows: usize, ncols: usize) -> Matrix {
        Matrix::random_signed(nrows, ncols, (nrows * 131 + ncols) as u64)
    }

    /// `kernel`'s output bits on every shape at pool width 1, after
    /// asserting that widths 2, 3, 4 and 8 return the same bits.  The ISA
    /// tier is the process default; CI runs this module once under
    /// `TUCKER_KERNEL=scalar` and once under `=avx2`.
    fn width_independent_bits(
        kernel: impl Fn(&Matrix) -> Vec<f64> + Sync,
    ) -> Vec<((usize, usize), Vec<u64>)> {
        width_independent_bits_at(&NCOLS, kernel)
    }

    fn width_independent_bits_at(
        column_counts: &[usize],
        kernel: impl Fn(&Matrix) -> Vec<f64> + Sync,
    ) -> Vec<((usize, usize), Vec<u64>)> {
        let mut out = Vec::new();
        for nrows in NROWS {
            for &ncols in column_counts {
                let a = grid_matrix(nrows, ncols);
                let bits_at = |threads: usize| {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let values = pool.install(|| kernel(&a));
                    values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
                };
                let reference = bits_at(1);
                for threads in [2, 3, 4, 8] {
                    assert_eq!(
                        bits_at(threads),
                        reference,
                        "{nrows}x{ncols} at {threads} threads"
                    );
                }
                out.push(((nrows, ncols), reference));
            }
        }
        out
    }

    fn test_vector(len: usize) -> Vec<f64> {
        (0..len).map(|i| (i % 11) as f64 * 0.37 - 1.9).collect()
    }

    #[test]
    fn par_gemv_t_bits_do_not_depend_on_pool_width() {
        width_independent_bits(|a| {
            let mut y = vec![f64::NAN; a.ncols()];
            par_gemv_t(a, &test_vector(a.nrows()), &mut y);
            y
        });
    }

    #[test]
    fn fused_normal_product_equals_the_two_products_bit_for_bit() {
        use crate::operator::{DenseOperator, LinearOperator};
        let both = |t: Vec<f64>, y: Vec<f64>| [t, y].concat();
        let fused = width_independent_bits(|a| {
            let (mut t, mut y) = (vec![f64::NAN; a.nrows()], vec![f64::NAN; a.ncols()]);
            DenseOperator::parallel(a).apply_normal(&test_vector(a.ncols()), &mut t, &mut y);
            both(t, y)
        });
        // The trait's default body: `apply`, then `apply_transpose`.
        let composed = width_independent_bits(|a| {
            let (mut t, mut y) = (vec![f64::NAN; a.nrows()], vec![f64::NAN; a.ncols()]);
            par_gemv(a, &test_vector(a.ncols()), &mut t);
            par_gemv_t(a, &t, &mut y);
            both(t, y)
        });
        assert_eq!(fused, composed);
    }

    #[test]
    fn block_product_equals_the_column_loop_bit_for_bit() {
        use crate::operator::{DenseOperator, LinearOperator};
        for k in [1usize, 3, 5, 10] {
            let vectors = |a: &Matrix| Matrix::random_signed(k, a.ncols(), 77);
            let block = width_independent_bits(|a| {
                let mut c = Matrix::from_fn(a.nrows(), k, |_, _| f64::NAN);
                DenseOperator::parallel(a).apply_many(&vectors(a), &mut c);
                c.into_vec()
            });
            // The trait's default body: one `apply` per vector.
            let columns = width_independent_bits(|a| {
                let b = vectors(a);
                let mut c = Matrix::zeros(a.nrows(), k);
                let mut column = vec![0.0; a.nrows()];
                for j in 0..k {
                    par_gemv(a, b.row(j), &mut column);
                    c.set_col(j, &column);
                }
                c.into_vec()
            });
            assert_eq!(block, columns, "k={k}");
            let sequential = width_independent_bits(|a| gemm_nt(a, &vectors(a)).into_vec());
            assert_eq!(block, sequential, "k={k}");
        }
    }

    #[test]
    fn par_gram_equals_the_triple_loop_over_its_spans_bit_for_bit() {
        let default_tier = KernelIsa::resolved_default();
        // The grid, and the order-4 rank-5 `Π R_t`: one column past a tile.
        for ((nrows, n), bits) in
            width_independent_bits_at(&[1, 13, 100, 125], |a| par_gram(default_tier, a).into_vec())
        {
            let a = grid_matrix(nrows, n);
            let mut reference = Matrix::zeros(n, n);
            for span in a.as_slice().chunks(gram_rows_per_partial(nrows) * n) {
                let mut partial = Matrix::zeros(n, n);
                for row in span.chunks(n) {
                    for p in 0..n {
                        for q in p..n {
                            partial[(p, q)] += row[p] * row[q];
                        }
                    }
                }
                for p in 0..n {
                    for q in p..n {
                        reference[(p, q)] += partial[(p, q)];
                        reference[(q, p)] = reference[(p, q)];
                    }
                }
            }
            let bits_of = |g: &Matrix| {
                g.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>()
            };
            assert_eq!(bits, bits_of(&reference), "{nrows}x{n}");
            for tier in [KernelIsa::Scalar, KernelIsa::Avx2] {
                assert_eq!(bits, bits_of(&par_gram(tier, &a)), "{nrows}x{n} {tier}");
            }
            let scale = reference
                .as_slice()
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(gemm_tn(&a, &a).frobenius_distance(&reference) <= 1e-12 * scale * n as f64);
        }
        // The scratch is bounded: no more than 32 partials at any height.
        for nrows in [1, 256, 8192, 8193, 54_563, 10_000_000] {
            let span = gram_rows_per_partial(nrows);
            assert!(
                span.is_multiple_of(ROWS_PER_CHUNK) && nrows.div_ceil(span) <= GRAM_MAX_PARTIALS
            );
        }
    }

    #[test]
    fn cholesky_qr_bits_do_not_depend_on_pool_width_and_columns_are_orthonormal() {
        let results = width_independent_bits(|a| {
            let mut q = a.clone();
            let lengths = par_cholesky_qr(&mut q);
            [q.into_vec(), lengths].concat()
        });
        for ((nrows, ncols), bits) in results {
            if nrows < 1000 {
                continue; // fewer rows than columns somewhere: nothing to assert
            }
            let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let q = Matrix::from_vec(nrows, ncols, values[..nrows * ncols].to_vec());
            assert!(
                crate::qr::orthogonality_error(&q) < 1e-12,
                "{nrows}x{ncols}: {}",
                crate::qr::orthogonality_error(&q)
            );
            assert!(values[nrows * ncols..].iter().all(|&l| l > 0.0));
        }
    }

    #[test]
    fn cholesky_qr_zeroes_dependent_and_negligible_columns() {
        // Column 2 repeats column 0, column 4 is rounding noise, column 5 zero.
        let base = Matrix::random_signed(2000, 6, 5);
        let mut a = Matrix::from_fn(2000, 6, |i, j| match j {
            2 => 3.0 * base[(i, 0)],
            4 => 1e-14 * base[(i, 4)],
            5 => 0.0,
            _ => base[(i, j)],
        });
        let original = a.clone();
        let lengths = par_cholesky_qr(&mut a);
        for j in [2, 4, 5] {
            assert_eq!(lengths[j], 0.0, "column {j}");
            assert!(a.col(j).iter().all(|&v| v == 0.0), "column {j}");
        }
        let kept = Matrix::from_fn(2000, 3, |i, j| a[(i, [0, 1, 3][j])]);
        assert!(crate::qr::orthogonality_error(&kept) < 1e-12);
        // Q R reproduces the first column: its length times its direction.
        for i in 0..2000 {
            assert!(approx_eq(lengths[0] * a[(i, 0)], original[(i, 0)], 1e-12));
        }
        // Graded columns survive: lengths six orders apart stay orthonormal.
        let mut graded = Matrix::from_fn(2000, 4, |i, j| base[(i, j)] * 10f64.powi(-2 * j as i32));
        let lengths = par_cholesky_qr(&mut graded);
        assert!(crate::qr::orthogonality_error(&graded) < 1e-12);
        assert!(lengths[3] > 0.0 && lengths[3] < 1e-5 * lengths[0]);
    }

    #[test]
    fn gemm_identity() {
        let a = Matrix::random(4, 4, 11);
        let i = Matrix::identity(4);
        assert_mat_eq(&gemm(&a, &i), &a, 1e-14);
        assert_mat_eq(&gemm(&i, &a), &a, 1e-14);
    }

    #[test]
    fn gemm_known_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = gemm(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = Matrix::random(10, 6, 3);
        let b = Matrix::random(10, 4, 4);
        assert_mat_eq(&gemm_tn(&a, &b), &gemm(&a.transpose(), &b), 1e-12);
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let a = Matrix::random(7, 5, 8);
        let b = Matrix::random(9, 5, 9);
        assert_mat_eq(&gemm_nt(&a, &b), &gemm(&a, &b.transpose()), 1e-12);
    }

    #[test]
    fn gram_is_symmetric() {
        let a = Matrix::random(20, 6, 77);
        let g = gram(&a);
        assert_eq!(g.shape(), (6, 6));
        for i in 0..6 {
            for j in 0..6 {
                assert!(approx_eq(g[(i, j)], g[(j, i)], 1e-12));
            }
        }
    }
}
