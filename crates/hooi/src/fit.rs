//! Fit and reconstruction-error metrics.
//!
//! With orthonormal factor matrices, the Tucker approximation error obeys
//! `‖X − [[G; U₁,…,U_N]]‖² = ‖X‖² − ‖G‖²`, so HOOI can monitor convergence
//! from the core norm alone (the `(|X| − |G|)/|X|` measure the paper checks
//! at the end of each iteration) without ever reconstructing the tensor.

use linalg::Matrix;
use sptensor::dense::reconstruct_at;
use sptensor::{DenseTensor, SparseTensor};

/// The fit of a Tucker approximation computed from norms:
/// `fit = 1 − sqrt(max(0, ‖X‖² − ‖G‖²)) / ‖X‖` (1 = perfect).
///
/// Valid when the factor matrices are orthonormal.  Returns 1 for a zero
/// tensor.
pub fn fit_from_norms(tensor_norm: f64, core_norm: f64) -> f64 {
    if tensor_norm == 0.0 {
        return 1.0;
    }
    let residual_sq = (tensor_norm * tensor_norm - core_norm * core_norm).max(0.0);
    1.0 - residual_sq.sqrt() / tensor_norm
}

/// Root-mean-square error of the model evaluated at the stored nonzeros
/// only: `sqrt(Σ (x − x̂)² / nnz)`.  This is the metric recommender-system
/// applications of Tucker actually care about, and it does not require the
/// factors to be orthonormal.
pub fn rmse_at_nonzeros(tensor: &SparseTensor, core: &DenseTensor, factors: &[Matrix]) -> f64 {
    if tensor.nnz() == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for e in 0..tensor.nnz() {
        let diff = tensor.value(e) - reconstruct_at(core, factors, &tensor.index(e));
        sum += diff * diff;
    }
    (sum / tensor.nnz() as f64).sqrt()
}

/// Exact relative Frobenius error `‖X − X̂‖_F / ‖X‖_F` computed by
/// materializing both tensors densely.  Exponential in memory — use only on
/// small tensors (tests, examples).
///
/// # Panics
/// Panics if the dense tensor would exceed `max_entries` entries.
pub fn full_relative_error(
    tensor: &SparseTensor,
    core: &DenseTensor,
    factors: &[Matrix],
    max_entries: usize,
) -> f64 {
    let total: usize = tensor.dims().iter().product();
    assert!(
        total <= max_entries,
        "refusing to materialize a dense tensor with {total} entries (limit {max_entries})"
    );
    let mut dense = DenseTensor::zeros(tensor.dims().to_vec());
    for e in 0..tensor.nnz() {
        let lin = dense.linear_index(&tensor.index(e));
        dense.as_mut_slice()[lin] += tensor.value(e);
    }
    let factor_refs: Vec<&Matrix> = factors.iter().collect();
    let approx = core.ttm_chain(&factor_refs, false);
    let norm = dense.frobenius_norm();
    if norm == 0.0 {
        return 0.0;
    }
    dense.frobenius_distance(&approx) / norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_tensor::core_from_scratch;
    use datagen::{lowrank_tensor, LowRankSpec};

    #[test]
    fn fit_bounds() {
        assert_eq!(fit_from_norms(10.0, 10.0), 1.0);
        assert!((fit_from_norms(10.0, 0.0) - 0.0).abs() < 1e-12);
        // Core norm slightly above tensor norm from rounding: clamped.
        assert_eq!(fit_from_norms(10.0, 10.0 + 1e-9), 1.0);
        assert_eq!(fit_from_norms(0.0, 0.0), 1.0);
    }

    #[test]
    fn exact_lowrank_model_has_zero_rmse() {
        let lr = lowrank_tensor(&LowRankSpec {
            dims: vec![15, 12, 10],
            ranks: vec![2, 2, 2],
            nnz: 400,
            noise: 0.0,
            seed: 3,
        });
        let rmse = rmse_at_nonzeros(&lr.tensor, &lr.core, &lr.factors);
        assert!(rmse < 1e-10, "rmse {rmse}");
    }

    #[test]
    fn noisy_model_has_positive_rmse() {
        let lr = lowrank_tensor(&LowRankSpec {
            dims: vec![15, 12, 10],
            ranks: vec![2, 2, 2],
            nnz: 400,
            noise: 0.05,
            seed: 3,
        });
        let rmse = rmse_at_nonzeros(&lr.tensor, &lr.core, &lr.factors);
        assert!(rmse > 1e-4);
    }

    #[test]
    fn norm_identity_holds_for_orthonormal_factors() {
        // ‖X − X̂‖² = ‖X‖² − ‖G‖² when factors are orthonormal and G is the
        // exact projection; verify through the dense path.
        let lr = lowrank_tensor(&LowRankSpec {
            dims: vec![8, 7, 6],
            ranks: vec![2, 2, 2],
            nnz: 150,
            noise: 0.2,
            seed: 9,
        });
        let core = core_from_scratch(&lr.tensor, &lr.factors);
        let full_err = full_relative_error(&lr.tensor, &core, &lr.factors, 1_000_000);
        let norm_err = 1.0 - fit_from_norms(lr.tensor.frobenius_norm(), core.frobenius_norm());
        assert!(
            (full_err - norm_err).abs() < 1e-8,
            "{full_err} vs {norm_err}"
        );
    }

    #[test]
    #[should_panic]
    fn full_error_refuses_huge_tensors() {
        let t = SparseTensor::new(vec![1000, 1000, 1000]);
        let core = DenseTensor::zeros(vec![1, 1, 1]);
        let factors = vec![
            Matrix::zeros(1000, 1),
            Matrix::zeros(1000, 1),
            Matrix::zeros(1000, 1),
        ];
        let _ = full_relative_error(&t, &core, &factors, 1_000_000);
    }

    #[test]
    fn rmse_of_empty_tensor_is_zero() {
        let t = SparseTensor::new(vec![3, 3]);
        let core = DenseTensor::zeros(vec![1, 1]);
        let factors = vec![Matrix::zeros(3, 1), Matrix::zeros(3, 1)];
        assert_eq!(rmse_at_nonzeros(&t, &core, &factors), 0.0);
    }
}
