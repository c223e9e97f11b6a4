//! Core tensor formation.
//!
//! After the factor matrices of all modes are updated, HOOI forms the core
//! `G = X ×₁ U₁ᵀ ×₂ … ×_N U_Nᵀ` to evaluate the fit (Algorithm 1, line 6).
//! The paper observes that at the last mode the TTMc result `Y` already
//! holds `X ×₁ U₁ᵀ … ×_{N−1} U_{N−1}ᵀ` in matricized form, so the core is a
//! single small dense multiplication `G_(N) = U_Nᵀ Y_(N)` — negligible cost
//! compared to the sparse TTMc (Table IV reports 0.7 – 5.2 %).

use crate::symbolic::SymbolicMode;
use linalg::blas::gemm_tn;
use linalg::Matrix;
use sptensor::kron::accumulate_scaled_kron;
use sptensor::simd::KernelIsa;
use sptensor::{DenseTensor, SparseTensor};

/// Forms the core tensor from the *last mode's* TTMc result, writing into
/// an existing `R_1 × … × R_N` tensor and overwriting every entry — the HOOI
/// loop passes the workspace's core buffer every iteration.
///
/// * `compact` — the compact TTMc result of the last mode
///   (`|J_{N-1}| × Π_{t≠N-1} R_t`),
/// * `sym` — symbolic data of the last mode (row mapping),
/// * `factor_last` — the just-updated factor matrix `U_{N-1}` (`I_{N-1} × R_{N-1}`),
/// * `ranks` — the rank of every mode, used to shape the core,
/// * `out` — the core buffer, shaped `ranks`.
pub fn core_from_last_ttmc_into(
    compact: &Matrix,
    sym: &SymbolicMode,
    factor_last: &Matrix,
    ranks: &[usize],
    out: &mut DenseTensor,
) {
    let last = ranks.len() - 1;
    let width: usize = ranks[..last].iter().product();
    assert_eq!(compact.ncols(), width, "TTMc width does not match ranks");
    assert_eq!(compact.nrows(), sym.num_rows());
    assert_eq!(factor_last.ncols(), ranks[last]);
    assert_eq!(out.dims(), ranks, "core buffer shape does not match ranks");

    // G_(last) = U_lastᵀ (restricted to the nonempty rows) · Y_compact.
    let u_rows = factor_last.select_rows(&sym.rows);
    let g_unfolded = gemm_tn(&u_rows, compact); // R_last × Π_{t≠last} R_t
    DenseTensor::fold_into(&g_unfolded, last, out);
}

/// Forms the core tensor directly from the sparse tensor and all factor
/// matrices: `g(r₁,…,r_N) = Σ_{x ∈ X} x · Π_n U_n(i_n, r_n)`.
///
/// Cost `O(nnz · Π R_n)`; used for verification and by callers that do not
/// run the full HOOI loop.
pub fn core_from_scratch(tensor: &SparseTensor, factors: &[Matrix]) -> DenseTensor {
    assert_eq!(factors.len(), tensor.order());
    let ranks: Vec<usize> = factors.iter().map(|u| u.ncols()).collect();
    let len: usize = ranks.iter().product();
    let mut data = vec![0.0; len];
    let mut scratch = vec![0.0; len];
    let mut rows: Vec<&[f64]> = Vec::with_capacity(tensor.order());
    for (idx, value) in tensor.iter() {
        rows.clear();
        for (t, &i) in idx.iter().enumerate() {
            rows.push(factors[t].row(i as usize));
        }
        accumulate_scaled_kron(
            KernelIsa::resolved_default(),
            value,
            &rows,
            &mut data,
            &mut scratch,
        );
    }
    DenseTensor::from_vec(ranks, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::SymbolicTtmc;
    use crate::ttmc::ttmc_mode;
    use datagen::random_tensor;

    fn orthonormal_factors(dims: &[usize], ranks: &[usize], seed: u64) -> Vec<Matrix> {
        dims.iter()
            .zip(ranks.iter())
            .enumerate()
            .map(|(m, (&d, &r))| {
                let mut u = Matrix::random_signed(d, r, seed + m as u64);
                linalg::qr::orthonormalize_columns(&mut u);
                u
            })
            .collect()
    }

    #[test]
    fn core_from_last_ttmc_matches_scratch() {
        let t = random_tensor(&[12, 10, 8], 300, 4);
        let ranks = [3, 3, 2];
        let factors = orthonormal_factors(t.dims(), &ranks, 7);
        let sym = SymbolicTtmc::build(&t);
        let last = 2;
        let compact = ttmc_mode(&t, sym.mode(last), &factors, last);
        let mut g1 = DenseTensor::zeros(ranks.to_vec());
        core_from_last_ttmc_into(&compact, sym.mode(last), &factors[last], &ranks, &mut g1);
        let g2 = core_from_scratch(&t, &factors);
        assert_eq!(g1.dims(), &ranks);
        assert!(g1.frobenius_distance(&g2) < 1e-9 * g2.frobenius_norm().max(1.0));
    }

    #[test]
    fn core_from_last_ttmc_matches_scratch_4mode() {
        let t = random_tensor(&[6, 7, 5, 8], 200, 9);
        let ranks = [2, 2, 2, 3];
        let factors = orthonormal_factors(t.dims(), &ranks, 3);
        let sym = SymbolicTtmc::build(&t);
        let last = 3;
        let compact = ttmc_mode(&t, sym.mode(last), &factors, last);
        let mut g1 = DenseTensor::zeros(ranks.to_vec());
        core_from_last_ttmc_into(&compact, sym.mode(last), &factors[last], &ranks, &mut g1);
        let g2 = core_from_scratch(&t, &factors);
        assert!(g1.frobenius_distance(&g2) < 1e-9 * g2.frobenius_norm().max(1.0));
    }

    #[test]
    fn core_from_scratch_matches_dense_ttm_chain() {
        let t = random_tensor(&[5, 6, 7], 80, 2);
        let ranks = [2, 3, 2];
        let factors = orthonormal_factors(t.dims(), &ranks, 5);
        // Dense reference: materialize X, apply Uᵀ along every mode.
        let mut dense = DenseTensor::zeros(t.dims().to_vec());
        for e in 0..t.nnz() {
            let lin = dense.linear_index(&t.index(e));
            dense.as_mut_slice()[lin] += t.value(e);
        }
        let mut reference = dense;
        for (m, u) in factors.iter().enumerate() {
            reference = reference.ttm(m, u, true);
        }
        let g = core_from_scratch(&t, &factors);
        assert!(g.frobenius_distance(&reference) < 1e-9 * reference.frobenius_norm().max(1.0));
    }

    #[test]
    fn core_of_empty_tensor_is_zero() {
        let t = SparseTensor::new(vec![4, 4, 4]);
        let factors = orthonormal_factors(&[4, 4, 4], &[2, 2, 2], 1);
        let g = core_from_scratch(&t, &factors);
        assert_eq!(g.frobenius_norm(), 0.0);
    }
}
