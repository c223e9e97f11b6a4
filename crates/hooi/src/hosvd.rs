//! Factor matrix initialization: random orthonormal factors.
//!
//! Algorithm 1 of the paper initializes the factor matrices "randomly or
//! using the higher-order SVD"; its experiments start randomly (the
//! per-iteration cost does not depend on the starting point), and so does
//! every solve here.  The module keeps its `hosvd` name because the repo
//! benchmark's traced replay imports [`random_factors`] from this path.
//!
//! The initializer is built per mode ([`random_factor`]);
//! [`initial_factors`] builds only the modes whose initial value HOOI reads.

use crate::config::TuckerConfig;
use linalg::qr::orthonormalize_columns;
use linalg::Matrix;
use sptensor::SparseTensor;

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

/// The factors a solve of `config` starts from: the [`random_factor`] of
/// every mode whose initial value HOOI reads.
///
/// HOOI updates mode 0 first, from the other modes' factors alone, and
/// overwrites it with its TRSVD before anything reads it.  So when
/// `config.max_iterations ≥ 1`, mode 0 gets a `0 × R_0` placeholder
/// instead of an initial factor: its width is all the first TTMc reads,
/// and any row read of it panics.  Every other mode's factor is the bits
/// of [`random_factors`].  A zero-iteration solve returns its factors
/// untouched, so then every mode is built.
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
            random_factor(tensor.dims()[mode], ranks[mode], config.seed, mode)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::random_tensor;
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
        let full = random_factors(t.dims(), &ranks, 6);
        let config = TuckerConfig::new(ranks.to_vec()).seed(6);
        let solving = initial_factors(&t, &ranks, &config.clone().max_iterations(1));
        assert_eq!(solving[0].shape(), (0, 3));
        assert_eq!(&solving[1..], &full[1..]);
        let idle = initial_factors(&t, &ranks, &config.max_iterations(0));
        assert_eq!(idle, full);
    }
}
