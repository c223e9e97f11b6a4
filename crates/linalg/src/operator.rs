//! Matrix-free linear operator abstraction.
//!
//! The TRSVD step of HOOI (paper §III-A2, §III-B) never needs the matricized
//! TTMc result `Y_(n)` as an explicit assembled matrix — only the products
//! `y ← Y_(n) x` (MxV) and `xᵀ ← yᵀ Y_(n)` (MTxV).  The solver applies them
//! on the dense compact `Y_(n)` ([`DenseOperator`]); the Krylov solver in
//! [`crate::lanczos`] sees only this trait, so any other implementation
//! (the tests substitute a counting fake) plugs in unchanged.  The solver
//! asks for the two products back to back ([`LinearOperator::apply_normal`]),
//! for a block of forward products ([`LinearOperator::apply_many`]) and,
//! when the short side is small, for the normal matrix itself
//! ([`LinearOperator::normal_matrix`]); the first two default to the
//! single-vector calls and the last to "not available", and an operator that
//! can do better in one sweep of its data overrides them.

use crate::blas::{
    gemv, gemv_t, par_gemm_nt_into, par_gemv, par_gemv_normal, par_gemv_t, par_gram,
};
use crate::matrix::Matrix;
use crate::simd::KernelIsa;

/// A real linear operator `A : R^ncols → R^nrows` exposed only through
/// matrix-vector products.
pub trait LinearOperator: Sync {
    /// Number of rows of the (implicit) matrix.
    fn nrows(&self) -> usize;
    /// Number of columns of the (implicit) matrix.
    fn ncols(&self) -> usize;
    /// `y = A x`.  `x.len() == ncols()`, `y.len() == nrows()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// `y = Aᵀ x`.  `x.len() == nrows()`, `y.len() == ncols()`.
    fn apply_transpose(&self, x: &[f64], y: &mut [f64]);

    /// One application of the normal operator `AᵀA`, which is never formed:
    /// `t = A x`, then `y = Aᵀ t`.  `x.len() == y.len() == ncols()`,
    /// `t.len() == nrows()`.  An override must return the same `t` and `y`
    /// as this composition.
    fn apply_normal(&self, x: &[f64], t: &mut [f64], y: &mut [f64]) {
        self.apply(x, t);
        self.apply_transpose(t, y);
    }

    /// `y = A xsᵀ`: column `c` of `y` (`nrows() × k`) is `A` applied to row
    /// `c` of `xs` (`k × ncols()`).
    fn apply_many(&self, xs: &Matrix, y: &mut Matrix) {
        apply_columnwise(|x, col| self.apply(x, col), xs, y);
    }

    /// The normal matrix `AᵀA` (`ncols() × ncols()`), formed — for an
    /// operator that holds its entries and can do so in about the time of a
    /// few products.  `None` (the default) keeps the Krylov solver on
    /// [`apply_normal`](LinearOperator::apply_normal).
    fn normal_matrix(&self) -> Option<Matrix> {
        None
    }

    /// Materializes the operator as a dense matrix by applying it to the
    /// canonical basis.  Intended for tests and tiny operators only.
    fn to_dense(&self) -> Matrix {
        let m = self.nrows();
        let n = self.ncols();
        let mut out = Matrix::zeros(m, n);
        let mut e = vec![0.0; n];
        let mut col = vec![0.0; m];
        for j in 0..n {
            e[j] = 1.0;
            self.apply(&e, &mut col);
            for i in 0..m {
                out[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        out
    }
}

/// Column `c` of `y` becomes `product(row c of xs)`, one product at a time.
pub(crate) fn apply_columnwise(product: impl Fn(&[f64], &mut [f64]), xs: &Matrix, y: &mut Matrix) {
    assert_eq!(xs.nrows(), y.ncols());
    let mut column = vec![0.0; y.nrows()];
    for c in 0..xs.nrows() {
        product(xs.row(c), &mut column);
        y.set_col(c, &column);
    }
}

/// A [`LinearOperator`] backed by an explicit dense matrix, with optional
/// rayon parallelism over rows.
#[derive(Debug, Clone)]
pub struct DenseOperator<'a> {
    matrix: &'a Matrix,
    parallel: bool,
}

impl<'a> DenseOperator<'a> {
    /// Wraps a matrix as a sequential operator.
    pub fn new(matrix: &'a Matrix) -> Self {
        DenseOperator {
            matrix,
            parallel: false,
        }
    }

    /// Wraps a matrix as a rayon-parallel operator (parallel over rows, the
    /// shared-memory scheme of the paper's TRSVD).
    pub fn parallel(matrix: &'a Matrix) -> Self {
        DenseOperator {
            matrix,
            parallel: true,
        }
    }
}

impl LinearOperator for DenseOperator<'_> {
    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        if self.parallel {
            par_gemv(self.matrix, x, y);
        } else {
            gemv(self.matrix, x, y);
        }
    }

    fn apply_transpose(&self, x: &[f64], y: &mut [f64]) {
        if self.parallel {
            par_gemv_t(self.matrix, x, y);
        } else {
            gemv_t(self.matrix, x, y);
        }
    }

    /// One fused sweep of the matrix when parallel
    /// ([`par_gemv_normal`]), the default composition otherwise.
    fn apply_normal(&self, x: &[f64], t: &mut [f64], y: &mut [f64]) {
        if self.parallel {
            par_gemv_normal(self.matrix, x, t, y);
        } else {
            self.apply(x, t);
            self.apply_transpose(t, y);
        }
    }

    /// One sweep of the matrix for all `k` products when parallel
    /// ([`par_gemm_nt_into`]), the default column loop otherwise.
    fn apply_many(&self, xs: &Matrix, y: &mut Matrix) {
        if self.parallel {
            par_gemm_nt_into(self.matrix, xs, y);
        } else {
            apply_columnwise(|x, col| self.apply(x, col), xs, y);
        }
    }

    /// One syrk-shaped sweep of the matrix when parallel ([`par_gram`]).
    fn normal_matrix(&self) -> Option<Matrix> {
        self.parallel
            .then(|| par_gram(KernelIsa::resolved_default(), self.matrix))
    }

    /// A copy of the wrapped matrix — no products.
    fn to_dense(&self) -> Matrix {
        self.matrix.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn dense_operator_matches_matrix() {
        let a = Matrix::random(8, 5, 1);
        let op = DenseOperator::new(&a);
        assert_eq!(op.nrows(), 8);
        assert_eq!(op.ncols(), 5);
        let dense = op.to_dense();
        assert!(a.frobenius_distance(&dense) < 1e-14);
    }

    #[test]
    fn parallel_operator_matches_sequential() {
        let a = Matrix::random(64, 9, 2);
        let seq = DenseOperator::new(&a);
        let par = DenseOperator::parallel(&a);
        let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let mut y1 = vec![0.0; 64];
        let mut y2 = vec![0.0; 64];
        seq.apply(&x, &mut y1);
        par.apply(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!(approx_eq(*u, *v, 1e-12));
        }
        let z: Vec<f64> = (0..64).map(|i| (i % 5) as f64).collect();
        let mut w1 = vec![0.0; 9];
        let mut w2 = vec![0.0; 9];
        seq.apply_transpose(&z, &mut w1);
        par.apply_transpose(&z, &mut w2);
        for (u, v) in w1.iter().zip(&w2) {
            assert!(approx_eq(*u, *v, 1e-10));
        }
    }
}
