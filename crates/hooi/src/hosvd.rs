//! Factor matrix initialization: random orthonormal factors (default) and
//! HOSVD-style initialization for small tensors.
//!
//! Algorithm 1 of the paper initializes the factor matrices "randomly or
//! using the higher-order SVD".  The scalability experiments use random
//! initialization (per-iteration cost is independent of the starting point);
//! HOSVD initialization generally improves the fit reached within a fixed
//! number of iterations, so it is provided here for small tensors where the
//! mode unfoldings can be assembled.
//!
//! Each initializer is built per mode ([`random_factor`], [`hosvd_factor`]);
//! [`initial_factors`] builds only the modes whose initial value HOOI reads.

use crate::config::{Initialization, TuckerConfig};
use linalg::lanczos::{lanczos_svd, LanczosOptions};
use linalg::operator::LinearOperator;
use linalg::qr::orthonormalize_columns;
use linalg::Matrix;
use sptensor::SparseTensor;

/// Default cap on a mode unfolding's column count for HOSVD-style
/// initialization; wider modes fall back to random factors.  The solver
/// and the distributed executor must use the same cap — a divergence
/// would make them take the fallback branch for different modes and break
/// the executor's bit-identity contract.
pub const DEFAULT_HOSVD_MAX_COLS: usize = 2_000_000;

/// The random orthonormal initial factor of mode `mode`: `dim × rank`,
/// drawn from [`Matrix::random_signed`] under a per-mode seed derived from
/// `seed`, with orthonormalized columns.  When `rank > dim` the `dim`
/// orthonormal columns are padded with zero columns up to `rank`.
pub fn random_factor(dim: usize, rank: usize, seed: u64, mode: usize) -> Matrix {
    let mut u = Matrix::random_signed(dim, rank.min(dim), seed ^ ((mode as u64 + 1) * 0x9e37_79b9));
    orthonormalize_columns(&mut u);
    if rank > dim {
        // Pad with zero columns if the rank was clamped (degenerate
        // configuration kept consistent for the caller).
        let mut padded = Matrix::zeros(dim, rank);
        for j in 0..dim {
            padded.set_col(j, &u.col(j));
        }
        padded
    } else {
        u
    }
}

/// Generates random orthonormal factor matrices, one per mode: the
/// [`random_factor`] of every mode.  A solve starts from these with mode 0
/// left out (see [`initial_factors`]); every other mode's factor is the
/// same bits.
pub fn random_factors(dims: &[usize], ranks: &[usize], seed: u64) -> Vec<Matrix> {
    assert_eq!(dims.len(), ranks.len());
    dims.iter()
        .zip(ranks.iter())
        .enumerate()
        .map(|(mode, (&d, &r))| random_factor(d, r, seed, mode))
        .collect()
}

/// The factors a solve of `config` starts from: the initial factor of
/// every mode whose initial value HOOI reads, under
/// [`TuckerConfig::initialization`].
///
/// HOOI updates mode 0 first, from the other modes' factors alone, and
/// overwrites it with its TRSVD before anything reads it.  So when
/// `config.max_iterations ≥ 1`, mode 0 gets a `0 × R_0` placeholder
/// instead of an initial factor: its width is all the first TTMc reads,
/// and any row read of it panics.  Every other mode's factor is the bits
/// of [`random_factors`] / [`hosvd_factors`].  A zero-iteration solve
/// returns its factors untouched, so then every mode is built.
pub fn initial_factors(
    tensor: &SparseTensor,
    ranks: &[usize],
    config: &TuckerConfig,
) -> Vec<Matrix> {
    assert_eq!(tensor.order(), ranks.len());
    (0..tensor.order())
        .map(|mode| {
            if mode == 0 && config.max_iterations > 0 {
                return Matrix::zeros(0, ranks[0]);
            }
            match config.initialization {
                Initialization::Random => {
                    random_factor(tensor.dims()[mode], ranks[mode], config.seed, mode)
                }
                Initialization::Hosvd => hosvd_factor(
                    tensor,
                    ranks[mode],
                    DEFAULT_HOSVD_MAX_COLS,
                    config.seed,
                    mode,
                ),
            }
        })
        .collect()
}

/// A matrix-free view of the mode-`n` unfolding of a sparse tensor.
///
/// `X_(n)` has `I_n` rows and `Π_{t≠n} I_t` columns; the operator never
/// materializes it and applies MxV / MTxV in `O(nnz)` time.  Note that the
/// *column dimension* can be astronomically large, so the right-hand vectors
/// themselves can be too big to allocate; [`hosvd_factor`] therefore guards
/// on the column count before using this operator.
pub struct SparseUnfoldingOperator<'a> {
    tensor: &'a SparseTensor,
    mode: usize,
    ncols: usize,
    /// Precomputed column index of every nonzero.
    col_of_nonzero: Vec<usize>,
}

impl<'a> SparseUnfoldingOperator<'a> {
    /// Builds the operator for one mode.
    ///
    /// # Panics
    /// Panics if the column count `Π_{t≠mode} I_t` overflows `usize`.
    pub fn new(tensor: &'a SparseTensor, mode: usize) -> Self {
        assert!(mode < tensor.order());
        let mut ncols: usize = 1;
        for (t, &d) in tensor.dims().iter().enumerate() {
            if t != mode {
                ncols = ncols
                    .checked_mul(d)
                    .expect("unfolding column count overflows usize");
            }
        }
        let col_of_nonzero = (0..tensor.nnz())
            .map(|k| {
                let idx = tensor.index(k);
                let mut col = 0usize;
                for (t, (&i, &d)) in idx.iter().zip(tensor.dims().iter()).enumerate() {
                    if t == mode {
                        continue;
                    }
                    col = col * d + i;
                }
                col
            })
            .collect();
        SparseUnfoldingOperator {
            tensor,
            mode,
            ncols,
            col_of_nonzero,
        }
    }
}

impl LinearOperator for SparseUnfoldingOperator<'_> {
    fn nrows(&self) -> usize {
        self.tensor.dims()[self.mode]
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        y.iter_mut().for_each(|v| *v = 0.0);
        for k in 0..self.tensor.nnz() {
            let row = self.tensor.index(k)[self.mode];
            y[row] += self.tensor.value(k) * x[self.col_of_nonzero[k]];
        }
    }

    fn apply_transpose(&self, x: &[f64], y: &mut [f64]) {
        y.iter_mut().for_each(|v| *v = 0.0);
        for k in 0..self.tensor.nnz() {
            let row = self.tensor.index(k)[self.mode];
            y[self.col_of_nonzero[k]] += self.tensor.value(k) * x[row];
        }
    }
}

/// The HOSVD-style initial factor of mode `mode`: the leading `rank` left
/// singular vectors of the sparse mode unfolding, computed matrix-free and
/// zero-padded to `rank` columns.
///
/// When the unfolding has more than `max_cols` columns (so even a single
/// right-hand Krylov vector would be too large), or the tensor has no
/// nonzeros, the mode falls back to its [`random_factor`].
pub fn hosvd_factor(
    tensor: &SparseTensor,
    rank: usize,
    max_cols: usize,
    seed: u64,
    mode: usize,
) -> Matrix {
    let cols: u128 = tensor
        .dims()
        .iter()
        .enumerate()
        .filter(|&(t, _)| t != mode)
        .map(|(_, &d)| d as u128)
        .product();
    if cols > max_cols as u128 || tensor.nnz() == 0 {
        return random_factor(tensor.dims()[mode], rank, seed, mode);
    }
    let op = SparseUnfoldingOperator::new(tensor, mode);
    let svd = lanczos_svd(
        &op,
        rank.min(op.nrows()).min(op.ncols()).max(1),
        &LanczosOptions {
            seed: seed ^ (mode as u64),
            ..LanczosOptions::default()
        },
    );
    // Pad to the requested rank if necessary.
    let mut u = Matrix::zeros(op.nrows(), rank);
    for j in 0..svd.u.ncols().min(rank) {
        u.set_col(j, &svd.u.col(j));
    }
    u
}

/// HOSVD-style initialization: the [`hosvd_factor`] of every mode, each
/// falling back to its random factor when its unfolding is wider than
/// `max_cols` columns.  Returns one factor per mode.
pub fn hosvd_factors(
    tensor: &SparseTensor,
    ranks: &[usize],
    max_cols: usize,
    seed: u64,
) -> Vec<Matrix> {
    assert_eq!(tensor.order(), ranks.len());
    (0..tensor.order())
        .map(|mode| hosvd_factor(tensor, ranks[mode], max_cols, seed, mode))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{lowrank_tensor, random_tensor, LowRankSpec};
    use linalg::qr::orthogonality_error;

    #[test]
    fn random_factors_are_orthonormal() {
        let factors = random_factors(&[20, 15, 10], &[4, 3, 2], 7);
        assert_eq!(factors.len(), 3);
        for (u, (&d, &r)) in factors
            .iter()
            .zip([20usize, 15, 10].iter().zip([4usize, 3, 2].iter()))
        {
            assert_eq!(u.shape(), (d, r));
            assert!(orthogonality_error(u) < 1e-10);
        }
    }

    #[test]
    fn random_factors_deterministic() {
        let a = random_factors(&[10, 10], &[3, 3], 5);
        let b = random_factors(&[10, 10], &[3, 3], 5);
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
    }

    #[test]
    fn initial_factors_leave_out_only_the_first_updated_mode() {
        let t = random_tensor(&[12, 10, 8], 200, 4);
        let ranks = [3, 2, 4];
        for (init, full) in [
            (Initialization::Random, random_factors(t.dims(), &ranks, 6)),
            (
                Initialization::Hosvd,
                hosvd_factors(&t, &ranks, DEFAULT_HOSVD_MAX_COLS, 6),
            ),
        ] {
            let config = TuckerConfig::new(ranks.to_vec())
                .seed(6)
                .initialization(init);
            let solving = initial_factors(&t, &ranks, &config.clone().max_iterations(1));
            assert_eq!(solving[0].shape(), (0, 3), "{init:?}");
            assert_eq!(&solving[1..], &full[1..], "{init:?}");
            let idle = initial_factors(&t, &ranks, &config.max_iterations(0));
            assert_eq!(idle, full, "{init:?}");
        }
    }

    #[test]
    fn unfolding_operator_matches_dense() {
        let t = random_tensor(&[6, 5, 4], 50, 3);
        for mode in 0..3 {
            let op = SparseUnfoldingOperator::new(&t, mode);
            let dense_op = op.to_dense();
            // Build the dense unfolding directly for comparison.
            let mut dense = sptensor::DenseTensor::zeros(t.dims().to_vec());
            for (idx, v) in t.iter() {
                let lin = dense.linear_index(idx);
                dense.as_mut_slice()[lin] += v;
            }
            let reference = dense.unfold(mode);
            assert!(dense_op.frobenius_distance(&reference) < 1e-12);
        }
    }

    #[test]
    fn hosvd_factors_orthonormal_for_small_tensor() {
        let t = random_tensor(&[12, 10, 8], 300, 5);
        let factors = hosvd_factors(&t, &[3, 3, 3], 1_000_000, 1);
        for u in &factors {
            assert!(orthogonality_error(u) < 1e-6);
        }
    }

    /// Residual of the planted factor columns after projection onto the
    /// column space of `basis` (0 = planted subspace fully captured).
    fn subspace_residual(basis: &Matrix, planted: &Matrix) -> f64 {
        let proj = linalg::blas::gemm_tn(basis, planted);
        let reconstructed = linalg::blas::gemm(basis, &proj);
        planted.frobenius_distance(&reconstructed)
    }

    #[test]
    fn hosvd_recovers_planted_subspace_better_than_random() {
        // On a fully observed low-rank tensor the HOSVD factors capture the
        // planted column space exactly; on a partially sampled one they
        // capture it substantially better than random orthonormal factors.
        let dims = vec![20, 18, 16];
        let total: usize = dims.iter().product();
        let lr = lowrank_tensor(&LowRankSpec {
            dims: dims.clone(),
            ranks: vec![3, 3, 3],
            nnz: total,
            noise: 0.0,
            seed: 13,
        });
        let hosvd = hosvd_factors(&lr.tensor, &[3, 3, 3], 10_000_000, 2);
        let random = random_factors(lr.tensor.dims(), &[3, 3, 3], 2);
        for (mode, planted) in lr.factors.iter().enumerate() {
            let err_hosvd = subspace_residual(&hosvd[mode], planted);
            let err_random = subspace_residual(&random[mode], planted);
            assert!(
                err_hosvd < 1e-6 * planted.frobenius_norm().max(1.0),
                "mode {mode}: HOSVD subspace error {err_hosvd} on a fully observed tensor"
            );
            assert!(
                err_hosvd < err_random,
                "mode {mode}: HOSVD ({err_hosvd}) not better than random ({err_random})"
            );
        }
    }

    #[test]
    fn hosvd_falls_back_to_random_when_too_wide() {
        let t = random_tensor(&[10, 10, 10], 100, 9);
        // max_cols = 1 forces the fallback for every mode.
        let factors = hosvd_factors(&t, &[2, 2, 2], 1, 3);
        let reference = random_factors(t.dims(), &[2, 2, 2], 3);
        for (a, b) in factors.iter().zip(reference.iter()) {
            assert_eq!(a, b);
        }
    }
}
