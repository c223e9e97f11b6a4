//! Dense singular value decomposition for small matrices.
//!
//! The matrix-free TRSVD solver ([`crate::lanczos`]) hands genuinely small
//! operators over whole, and the `Dense` backend is the reference the other
//! paths are tested against; this module provides the dense SVD behind
//! both.  The algorithm is the
//! Gram-matrix eigenvalue approach on the smaller side, which is perfectly
//! adequate for the `O(R)`-sized problems that arise (R ≤ a few tens in the
//! paper's experiments).

use crate::blas::{gemm, gemm_nt, gemm_tn, normalize};
use crate::eig::symmetric_eig;
use crate::matrix::Matrix;

/// Result of a (possibly truncated) dense SVD `A ≈ U diag(σ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct DenseSvd {
    /// Left singular vectors as columns.
    pub u: Matrix,
    /// Singular values in descending order.
    pub singular_values: Vec<f64>,
    /// Right singular vectors as columns.
    pub v: Matrix,
}

/// Computes the full SVD of a small dense matrix.
///
/// The Gram matrix of the smaller dimension is formed and eigendecomposed;
/// the other side's singular vectors are recovered by multiplication.  Tiny
/// singular values (below `1e-13 * σ_max`) get zero vectors on the recovered
/// side rather than amplified noise.
pub fn dense_svd(a: &Matrix) -> DenseSvd {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return DenseSvd {
            u: Matrix::zeros(m, 0),
            singular_values: vec![],
            v: Matrix::zeros(n, 0),
        };
    }
    if n <= m {
        // Eigendecompose AᵀA (n × n).
        let gram = gemm_tn(a, a);
        let eig = symmetric_eig(&gram);
        let singular_values: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let v = eig.vectors;
        // U = A V Σ^{-1}, with degenerate directions completed to an
        // orthonormal basis.
        let av = gemm(a, &v);
        let u = recover_side(&av, &singular_values);
        DenseSvd {
            u,
            singular_values,
            v,
        }
    } else {
        // Eigendecompose AAᵀ (m × m).
        let gram = gemm_nt(a, a);
        let eig = symmetric_eig(&gram);
        let singular_values: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let u = eig.vectors;
        // V = Aᵀ U Σ^{-1}
        let atu = gemm_tn(a, &u);
        let v = recover_side(&atu, &singular_values);
        DenseSvd {
            u,
            singular_values,
            v,
        }
    }
}

/// Recovers the singular vectors of the "other" side from the product
/// `A·V` (or `Aᵀ·U`), dividing by the singular values and completing the
/// directions whose singular value is numerically zero to an orthonormal
/// basis.  HOOI relies on the factor matrices having orthonormal columns
/// even when the matricized TTMc result is rank deficient, so degenerate
/// columns are filled by orthogonalizing canonical basis vectors against the
/// columns recovered so far.
fn recover_side(product: &Matrix, singular_values: &[f64]) -> Matrix {
    let m = product.nrows();
    let k = product.ncols();
    let smax = singular_values.first().copied().unwrap_or(0.0);
    let tol = 1e-12 * smax.max(1.0);
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(k);
    for j in 0..k {
        let mut col = product.col(j);
        if singular_values[j] > tol {
            let inv = 1.0 / singular_values[j];
            col.iter_mut().for_each(|x| *x *= inv);
            // Guard against loss of orthogonality in clustered spectra.
            for prev in &cols {
                let proj = crate::blas::dot(prev, &col);
                crate::blas::axpy(-proj, prev, &mut col);
            }
            if normalize(&mut col) == 0.0 {
                fill_orthogonal_complement(&mut col, &cols, j, m);
            }
        } else {
            fill_orthogonal_complement(&mut col, &cols, j, m);
        }
        cols.push(col);
    }
    let mut u = Matrix::zeros(m, k);
    for (j, col) in cols.iter().enumerate() {
        u.set_col(j, col);
    }
    u
}

/// Overwrites `col` with a unit vector orthogonal to every vector in `basis`
/// by orthogonalizing canonical basis vectors (starting near `hint`) until
/// one survives.  Leaves `col` zero only if the basis already spans `R^m`.
fn fill_orthogonal_complement(col: &mut [f64], basis: &[Vec<f64>], hint: usize, m: usize) {
    for attempt in 0..m {
        let e = (hint + attempt) % m;
        col.iter_mut().for_each(|x| *x = 0.0);
        col[e] = 1.0;
        for _ in 0..2 {
            for prev in basis {
                let proj = crate::blas::dot(prev, col);
                crate::blas::axpy(-proj, prev, col);
            }
        }
        if normalize(col) > 1e-8 {
            return;
        }
    }
    col.iter_mut().for_each(|x| *x = 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::qr::orthogonality_error;

    fn reconstruct(svd: &DenseSvd) -> Matrix {
        let k = svd.singular_values.len();
        let mut s = Matrix::zeros(k, k);
        for i in 0..k {
            s[(i, i)] = svd.singular_values[i];
        }
        let us = gemm(&svd.u, &s);
        gemm(&us, &svd.v.transpose())
    }

    #[test]
    fn svd_reconstructs_tall() {
        let a = Matrix::random(20, 5, 42);
        let svd = dense_svd(&a);
        let rec = reconstruct(&svd);
        assert!(a.frobenius_distance(&rec) < 1e-8 * a.frobenius_norm());
    }

    #[test]
    fn svd_reconstructs_wide() {
        let a = Matrix::random(4, 17, 9);
        let svd = dense_svd(&a);
        let rec = reconstruct(&svd);
        assert!(a.frobenius_distance(&rec) < 1e-8 * a.frobenius_norm());
    }

    #[test]
    fn svd_singular_values_descending_nonnegative() {
        let a = Matrix::random(12, 7, 3);
        let svd = dense_svd(&a);
        for w in svd.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        for &s in &svd.singular_values {
            assert!(s >= 0.0);
        }
    }

    #[test]
    fn svd_u_v_orthonormal() {
        let a = Matrix::random(15, 6, 8);
        let svd = dense_svd(&a);
        assert!(orthogonality_error(&svd.u) < 1e-8);
        assert!(orthogonality_error(&svd.v) < 1e-8);
    }

    #[test]
    fn svd_of_identity() {
        let a = Matrix::identity(4);
        let svd = dense_svd(&a);
        for &s in &svd.singular_values {
            assert!(approx_eq(s, 1.0, 1e-10));
        }
    }

    #[test]
    fn svd_rank_one() {
        // a = u v^T has exactly one nonzero singular value = |u||v|.
        let u = [1.0, 2.0, 3.0];
        let v = [4.0, 5.0];
        let a = Matrix::from_fn(3, 2, |i, j| u[i] * v[j]);
        let svd = dense_svd(&a);
        let expected = (14.0_f64).sqrt() * (41.0_f64).sqrt();
        assert!(approx_eq(svd.singular_values[0], expected, 1e-10));
        assert!(svd.singular_values[1] < 1e-8);
    }

    #[test]
    fn svd_frobenius_identity() {
        // sum of squared singular values equals squared Frobenius norm.
        let a = Matrix::random(9, 11, 55);
        let svd = dense_svd(&a);
        let ssq: f64 = svd.singular_values.iter().map(|s| s * s).sum();
        assert!(approx_eq(ssq, a.frobenius_norm().powi(2), 1e-8));
    }

    #[test]
    fn svd_empty() {
        let svd = dense_svd(&Matrix::zeros(0, 3));
        assert!(svd.singular_values.is_empty());
    }
}
