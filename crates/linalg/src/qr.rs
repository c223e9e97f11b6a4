//! Modified Gram-Schmidt orthonormalization.
//!
//! HOOI needs orthonormal factor matrices: the columns of each `U_n` are the
//! leading left singular vectors of the matricized TTMc result.
//! The random initial factors are orthonormalized with these routines before
//! the first iteration (the TRSVD solver's tall result goes through the
//! row-block-parallel [`crate::blas::par_cholesky_qr`] instead).

use crate::blas::{axpy, dot, nrm2};
use crate::matrix::Matrix;

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
