//! BLAS-like kernels on slices and [`Matrix`].
//!
//! The TRSVD step of HOOI is dominated by dense matrix-vector (`MxV`) and
//! matrix-transpose-vector (`MTxV`) products with the matricized TTMc result
//! `Y_(n)` (paper §III-A2), so those two kernels have rayon-parallel
//! variants.  The small dense products (Gram matrices, projected problems,
//! core-tensor contractions) use the sequential `gemm`.
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

/// Rows per partial sum of [`par_gemv_t`].  A constant rather than a share
/// of the pool: the chunk borders fix the floating-point sum order, so they
/// must depend on `nrows` alone for the product to be the same bits at
/// every thread count.
const GEMV_T_ROWS_PER_CHUNK: usize = 256;

/// Dense transposed matrix-vector product `y = Aᵀ x` with rayon.
///
/// Every 256 rows (`GEMV_T_ROWS_PER_CHUNK`) accumulate a private
/// `ncols`-length partial in parallel; the partials are then summed
/// sequentially in chunk order, so the result does not depend on the pool
/// width.  This mirrors how the paper's distributed `MTxV` computes local
/// partial results followed by an all-to-all reduction.
pub fn par_gemv_t(a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.nrows());
    assert_eq!(y.len(), a.ncols());
    let nrows = a.nrows();
    let partials: Vec<Vec<f64>> = (0..nrows.div_ceil(GEMV_T_ROWS_PER_CHUNK))
        .into_par_iter()
        .map(|c| {
            let lo = c * GEMV_T_ROWS_PER_CHUNK;
            let hi = (lo + GEMV_T_ROWS_PER_CHUNK).min(nrows);
            let mut local = vec![0.0; a.ncols()];
            for i in lo..hi {
                axpy(x[i], a.row(i), &mut local);
            }
            local
        })
        .collect();
    y.iter_mut().for_each(|v| *v = 0.0);
    for partial in &partials {
        axpy(1.0, partial, y);
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

/// Dense matrix-matrix product `C = A B` parallelized over the rows of `A`.
pub fn par_gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.ncols(), b.nrows(), "gemm: inner dimensions must agree");
    let n = b.ncols();
    let rows: Vec<Vec<f64>> = (0..a.nrows())
        .into_par_iter()
        .map(|i| {
            let mut crow = vec![0.0; n];
            for (k, &aik) in a.row(i).iter().enumerate() {
                if aik != 0.0 {
                    axpy(aik, b.row(k), &mut crow);
                }
            }
            crow
        })
        .collect();
    Matrix::from_rows(&rows)
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

/// Symmetric rank-k update: returns the Gram matrix `G = Aᵀ A`.
pub fn gram(a: &Matrix) -> Matrix {
    gemm_tn(a, a)
}

/// Column-wise Euclidean norms of a matrix.
pub fn column_norms(a: &Matrix) -> Vec<f64> {
    let mut norms = vec![0.0; a.ncols()];
    for i in 0..a.nrows() {
        for (j, &v) in a.row(i).iter().enumerate() {
            norms[j] += v * v;
        }
    }
    norms.iter_mut().for_each(|n| *n = n.sqrt());
    norms
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

    #[test]
    fn par_gemv_t_bits_do_not_depend_on_pool_width() {
        for nrows in [0usize, 1, 63, 64, 65, 1000, 10_007] {
            let a = Matrix::random(nrows, 13, nrows as u64 + 1);
            let x: Vec<f64> = (0..nrows).map(|i| (i % 11) as f64 * 0.37 - 1.9).collect();
            let product_at = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut y = vec![f64::NAN; 13];
                pool.install(|| par_gemv_t(&a, &x, &mut y));
                y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            };
            let reference = product_at(1);
            for threads in [2, 3, 4, 8] {
                assert_eq!(
                    product_at(threads),
                    reference,
                    "nrows={nrows} threads={threads}"
                );
            }
        }
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
    fn par_gemm_matches_gemm() {
        let a = Matrix::random(33, 21, 1);
        let b = Matrix::random(21, 17, 2);
        assert_mat_eq(&gemm(&a, &b), &par_gemm(&a, &b), 1e-12);
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

    #[test]
    fn column_norms_match_cols() {
        let a = Matrix::random(15, 3, 21);
        let norms = column_norms(&a);
        for j in 0..3 {
            let col = a.col(j);
            assert!(approx_eq(norms[j], nrm2(&col), 1e-12));
        }
    }
}
