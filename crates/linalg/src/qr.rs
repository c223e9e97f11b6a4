//! Thin QR factorization via Householder reflections, plus a modified
//! Gram-Schmidt orthonormalization helper.
//!
//! HOOI needs orthonormal factor matrices: the columns of each `U_n` are the
//! leading left singular vectors of the matricized TTMc result.  The
//! randomized TRSVD solver in this crate re-orthonormalizes its range basis
//! with these routines (the Lanczos solver's tall result goes through the
//! row-block-parallel [`crate::blas::par_cholesky_qr`] instead), and
//! HOSVD-style initialization orthonormalizes random factor matrices before
//! the first iteration.

use crate::blas::{axpy, dot, nrm2};
use crate::matrix::Matrix;

/// Result of a thin QR factorization `A = Q R` with
/// `Q ∈ R^{m×k}`, `R ∈ R^{k×k}`, `k = min(m, n)`.
#[derive(Debug, Clone)]
pub struct ThinQr {
    /// Orthonormal columns.
    pub q: Matrix,
    /// Upper-triangular factor.
    pub r: Matrix,
}

/// Computes the thin QR factorization of `a` using Householder reflections.
///
/// Works for any shape; for the tall-and-skinny matrices used in HOOI
/// (`m ≫ n`) the cost is `O(m n²)`.
pub fn qr_thin(a: &Matrix) -> ThinQr {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    // Working copy that will be reduced to R in its upper triangle, with the
    // Householder vectors stored below the diagonal.
    let mut work = a.clone();
    // Householder scalars tau_j.
    let mut betas = vec![0.0; k];

    for j in 0..k {
        // Build the Householder vector for column j, rows j..m.
        let mut norm_x = 0.0;
        for i in j..m {
            norm_x += work[(i, j)] * work[(i, j)];
        }
        norm_x = norm_x.sqrt();
        if norm_x == 0.0 {
            betas[j] = 0.0;
            continue;
        }
        let alpha = if work[(j, j)] >= 0.0 { -norm_x } else { norm_x };
        let v0 = work[(j, j)] - alpha;
        // v = [v0, work[j+1..m, j]]; normalize so v[0] = 1.
        let mut vnorm_sq = v0 * v0;
        for i in (j + 1)..m {
            vnorm_sq += work[(i, j)] * work[(i, j)];
        }
        if vnorm_sq == 0.0 {
            betas[j] = 0.0;
            work[(j, j)] = alpha;
            continue;
        }
        let beta = 2.0 * v0 * v0 / vnorm_sq;
        betas[j] = beta;
        // Store normalized v (v/v0) below the diagonal; diagonal gets alpha.
        for i in (j + 1)..m {
            work[(i, j)] /= v0;
        }
        work[(j, j)] = alpha;

        // Apply the reflector to the trailing columns: for each col c > j,
        // w = v^T a_c ; a_c -= beta * w * v   (with v[0] = 1).
        for c in (j + 1)..n {
            let mut w = work[(j, c)];
            for i in (j + 1)..m {
                w += work[(i, j)] * work[(i, c)];
            }
            w *= beta;
            work[(j, c)] -= w;
            for i in (j + 1)..m {
                let vij = work[(i, j)];
                work[(i, c)] -= w * vij;
            }
        }
    }

    // Extract R (k x n upper triangle), then truncate to k x k for thin QR
    // when n >= k; when m < n we keep k x n.
    let rcols = if m < n { n } else { k };
    let mut r = Matrix::zeros(k, rcols);
    for i in 0..k {
        for j in i..rcols.min(n) {
            r[(i, j)] = work[(i, j)];
        }
    }

    // Form Q explicitly by applying the reflectors to the first k columns of
    // the identity, in reverse order.
    let mut q = Matrix::zeros(m, k);
    for j in 0..k {
        q[(j, j)] = 1.0;
    }
    for j in (0..k).rev() {
        let beta = betas[j];
        if beta == 0.0 {
            continue;
        }
        for c in 0..k {
            // w = v^T q_c with v = [1, work[j+1.., j]]
            let mut w = q[(j, c)];
            for i in (j + 1)..m {
                w += work[(i, j)] * q[(i, c)];
            }
            w *= beta;
            q[(j, c)] -= w;
            for i in (j + 1)..m {
                let vij = work[(i, j)];
                q[(i, c)] -= w * vij;
            }
        }
    }

    ThinQr {
        q,
        r: if m < n { r } else { r.take_columns(k) },
    }
}

/// Orthonormalizes the columns of `a` in place using modified Gram-Schmidt
/// with one reorthogonalization pass, returning the numerical rank found
/// (columns that become numerically zero are replaced by zero vectors).
pub fn orthonormalize_columns(a: &mut Matrix) -> usize {
    let n = a.ncols();
    let m = a.nrows();
    let mut rank = 0;
    let mut cols: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
    for j in 0..n {
        // Two passes of MGS against all previously accepted columns.
        for _ in 0..2 {
            for p in 0..j {
                let cj = std::mem::take(&mut cols[j]);
                let proj = dot(&cols[p], &cj);
                let mut cj = cj;
                axpy(-proj, &cols[p], &mut cj);
                cols[j] = cj;
            }
        }
        let norm = nrm2(&cols[j]);
        if norm > 1e-12 * (m as f64).sqrt().max(1.0) {
            cols[j].iter_mut().for_each(|x| *x /= norm);
            rank += 1;
        } else {
            cols[j].iter_mut().for_each(|x| *x = 0.0);
        }
    }
    for (j, col) in cols.iter().enumerate() {
        a.set_col(j, col);
    }
    rank
}

/// Measures the departure from orthonormality `‖QᵀQ - I‖_F` of the columns of
/// `q`; useful in tests and convergence diagnostics.
pub fn orthogonality_error(q: &Matrix) -> f64 {
    let g = crate::blas::gram(q);
    let mut err = 0.0;
    for i in 0..g.nrows() {
        for j in 0..g.ncols() {
            let target = if i == j { 1.0 } else { 0.0 };
            let d = g[(i, j)] - target;
            err += d * d;
        }
    }
    err.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemm;

    #[test]
    fn qr_reconstructs_tall() {
        let a = Matrix::random(30, 5, 42);
        let ThinQr { q, r } = qr_thin(&a);
        assert_eq!(q.shape(), (30, 5));
        assert_eq!(r.shape(), (5, 5));
        let qr = gemm(&q, &r);
        assert!(a.frobenius_distance(&qr) < 1e-10 * a.frobenius_norm());
    }

    #[test]
    fn qr_q_is_orthonormal() {
        let a = Matrix::random(50, 8, 7);
        let ThinQr { q, .. } = qr_thin(&a);
        assert!(orthogonality_error(&q) < 1e-10);
    }

    #[test]
    fn qr_r_is_upper_triangular() {
        let a = Matrix::random(20, 6, 3);
        let ThinQr { r, .. } = qr_thin(&a);
        for i in 0..r.nrows() {
            for j in 0..i {
                assert!(r[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qr_wide_matrix() {
        let a = Matrix::random(4, 9, 5);
        let ThinQr { q, r } = qr_thin(&a);
        assert_eq!(q.shape(), (4, 4));
        assert_eq!(r.shape(), (4, 9));
        let qr = gemm(&q, &r);
        assert!(a.frobenius_distance(&qr) < 1e-10 * a.frobenius_norm());
    }

    #[test]
    fn qr_square_identity() {
        let a = Matrix::identity(5);
        let ThinQr { q, r } = qr_thin(&a);
        let qr = gemm(&q, &r);
        assert!(a.frobenius_distance(&qr) < 1e-12);
    }

    #[test]
    fn qr_handles_zero_column() {
        let mut a = Matrix::random(10, 3, 9);
        a.set_col(1, &[0.0; 10]);
        let ThinQr { q, r } = qr_thin(&a);
        let qr = gemm(&q, &r);
        assert!(a.frobenius_distance(&qr) < 1e-10);
    }

    #[test]
    fn mgs_orthonormalizes() {
        let mut a = Matrix::random(40, 6, 11);
        let rank = orthonormalize_columns(&mut a);
        assert_eq!(rank, 6);
        assert!(orthogonality_error(&a) < 1e-10);
    }

    #[test]
    fn mgs_detects_rank_deficiency() {
        // Third column is the sum of the first two.
        let mut a = Matrix::random(20, 3, 13);
        let c0 = a.col(0);
        let c1 = a.col(1);
        let sum: Vec<f64> = c0.iter().zip(&c1).map(|(x, y)| x + y).collect();
        a.set_col(2, &sum);
        let rank = orthonormalize_columns(&mut a);
        assert_eq!(rank, 2);
    }

    #[test]
    fn orthogonality_error_of_identity_is_zero() {
        let q = Matrix::identity(4);
        assert!(orthogonality_error(&q) < 1e-15);
    }
}
