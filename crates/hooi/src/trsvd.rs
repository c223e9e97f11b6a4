//! The TRSVD step: leading left singular vectors of the matricized TTMc
//! result (paper §III-A2).
//!
//! The matricized result `Y_(n)` is `I_n × Π_{t≠n} R_t`; `I_n` can be in the
//! millions, so forming the Gram matrix `Y_(n) Y_(n)ᵀ` (`I_n × I_n`, the
//! dense-Tucker approach of Austin et al.) is infeasible, and direct SVD
//! methods compute all singular values when only `R_n` are needed.  The
//! paper therefore uses a matrix-free iterative solver (SLEPc); here the
//! [`linalg::lanczos`] solver plays that role, with the dense backend kept
//! as the reference it is verified against.
//!
//! What the paper rejects is the *large* Gram matrix.  The other normal
//! matrix, `Y_(n)ᵀ Y_(n)`, is only `Π_{t≠n} R_t` square — 100 at rank 10 and
//! order 3, 125 at rank 5 and order 4 — and the solver works on it in one of
//! three regimes, chosen from the shape of `Y_(n)` alone:
//!
//! 1. **small** (the Krylov subspace `2 R_n + 10` would span the short
//!    side): `Y_(n)` is solved densely, as it always was;
//! 2. **tall, at most 8 subspaces wide** (`Π R_t ≤ 8·(2 R_n + 10)`: 240 at
//!    rank 10, 160 at rank 5 — every large solve of the repo benchmark):
//!    `Y_(n)ᵀ Y_(n)` is *formed* in one syrk-shaped sweep of `Y_(n)`
//!    ([`linalg::blas::par_gram`], the time of 9–15 Lanczos steps)
//!    and its eigenvectors taken directly — no seed, no restart schedule,
//!    no convergence test;
//! 3. **wider, or not tall**: symmetric Lanczos on the same matrix as an
//!    operator, `x ↦ Y_(n)ᵀ(Y_(n) x)`, one fused sweep of `Y_(n)` per step
//!    ([`linalg::blas::par_gemv_normal`]) — the eigensolve of regime 2 grows
//!    with the cube of the width and no row count amortizes it.
//!
//! Regimes 2 and 3 end the same way: the `R_n` left singular vectors come
//! out of one more gemm-shaped sweep, `Y_(n)·V`, orthonormalized in row
//! blocks, and the singular values are the lengths measured on those
//! vectors.  That is why the accuracy class does not change with the regime:
//! the Krylov path squares the spectrum just as much (it iterates on
//! `Y_(n)ᵀ Y_(n)`), neither reads a singular value off the squared
//! spectrum, and HOOI needs the dominant subspace, which both resolve to
//! working precision — the fits agree with the dense backend's to `1e-9` on
//! every generated profile (tested below), and with each other to the last
//! printed digit on the benchmark workloads.
//!
//! The solver sees only the *compact* TTMc result (non-empty rows); the
//! recovered left singular vectors are scattered back into the full factor
//! matrix, with rows of empty slices left at zero (those rows never
//! participate in any TTMc).

use crate::config::TrsvdBackend;
use crate::symbolic::SymbolicMode;
use linalg::lanczos::{lanczos_svd_with, LanczosWorkspace};
use linalg::operator::DenseOperator;
use linalg::svd::dense_svd;
use linalg::Matrix;

/// Outcome of a TRSVD step.
#[derive(Debug, Clone)]
pub struct TrsvdResult {
    /// The updated factor matrix `U_n` (`I_n × R_n`), rows of empty slices
    /// are zero.
    pub factor: Matrix,
    /// The leading singular values of the matricized TTMc result.
    pub singular_values: Vec<f64>,
    /// Number of operator applications (MxV + MTxV) used by the iterative
    /// solver (0 for the dense backend); see
    /// [`linalg::TruncatedSvd::operator_applications`] for what the Lanczos
    /// backend counts.
    pub operator_applications: usize,
}

/// Computes the `rank` leading left singular vectors of the compact TTMc
/// result and scatters them into a full `dim × rank` factor matrix.
///
/// * `compact` — `|J_n| × Π_{t≠n} R_t` TTMc result,
/// * `sym` — the symbolic data of the mode (provides the row mapping),
/// * `dim` — the full mode size `I_n`,
/// * `scratch` — TRSVD scratch: a Lanczos solve that iterates draws its
///   Krylov basis and product vector from it instead of allocating per
///   call — the HOOI loop passes the workspace buffers here (see
///   [`crate::workspace::HooiWorkspace`]).  The direct regimes and the
///   dense backend ignore it.
pub fn trsvd_factor_with(
    compact: &Matrix,
    sym: &SymbolicMode,
    dim: usize,
    rank: usize,
    backend: TrsvdBackend,
    seed: u64,
    scratch: &mut LanczosWorkspace,
) -> TrsvdResult {
    assert_eq!(compact.nrows(), sym.num_rows());
    let effective_rank = rank.min(compact.nrows().max(1)).min(compact.ncols().max(1));
    let (u_compact, singular_values, applications) = if compact.nrows() == 0 {
        (Matrix::zeros(0, rank), vec![0.0; rank], 0)
    } else {
        match backend {
            TrsvdBackend::Lanczos => {
                let op = DenseOperator::parallel(compact);
                let svd = lanczos_svd_with(&op, effective_rank, seed, scratch);
                (svd.u, svd.singular_values, svd.operator_applications)
            }
            TrsvdBackend::Dense => {
                let svd = dense_svd(compact);
                let take = effective_rank.min(svd.singular_values.len());
                let mut u = Matrix::zeros(compact.nrows(), take);
                for j in 0..take {
                    u.set_col(j, &svd.u.col(j));
                }
                (u, svd.singular_values[..take].to_vec(), 0)
            }
        }
    };

    // Scatter compact rows into the full factor matrix.
    let mut factor = Matrix::zeros(dim, rank);
    let copy_cols = u_compact.ncols().min(rank);
    for (p, &i) in sym.rows.iter().enumerate() {
        factor.row_mut(i)[..copy_cols].copy_from_slice(&u_compact.row(p)[..copy_cols]);
    }
    let mut singular_values = singular_values;
    singular_values.resize(rank, 0.0);

    TrsvdResult {
        factor,
        singular_values,
        operator_applications: applications,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::SymbolicTtmc;
    use crate::ttmc::ttmc_mode;
    use datagen::random_tensor;
    use linalg::qr::orthogonality_error;

    fn setup() -> (sptensor::SparseTensor, Vec<Matrix>, SymbolicTtmc) {
        let t = random_tensor(&[40, 30, 20], 2000, 9);
        let factors = vec![
            Matrix::random(40, 4, 1),
            Matrix::random(30, 4, 2),
            Matrix::random(20, 4, 3),
        ];
        let sym = SymbolicTtmc::build(&t);
        (t, factors, sym)
    }

    #[test]
    fn factor_has_orthonormal_nonzero_rows() {
        let (t, factors, sym) = setup();
        let compact = ttmc_mode(&t, sym.mode(0), &factors, 0);
        let ws = &mut LanczosWorkspace::new();
        let result = trsvd_factor_with(&compact, sym.mode(0), 40, 4, TrsvdBackend::Lanczos, 5, ws);
        assert_eq!(result.factor.shape(), (40, 4));
        // All 40 slices are nonempty with 2000 nonzeros, so the factor's
        // columns should be orthonormal.
        assert!(orthogonality_error(&result.factor) < 1e-6);
    }

    #[test]
    fn backends_agree_on_singular_values() {
        let (t, factors, sym) = setup();
        let compact = ttmc_mode(&t, sym.mode(1), &factors, 1);
        let ws = &mut LanczosWorkspace::new();
        let lanczos = trsvd_factor_with(&compact, sym.mode(1), 30, 3, TrsvdBackend::Lanczos, 5, ws);
        let dense = trsvd_factor_with(&compact, sym.mode(1), 30, 3, TrsvdBackend::Dense, 5, ws);
        for i in 0..3 {
            assert!(
                (lanczos.singular_values[i] - dense.singular_values[i]).abs()
                    < 1e-5 * dense.singular_values[0],
                "lanczos σ_{i}"
            );
        }
    }

    /// The matrix-free backend must land HOOI where the exact one does: on
    /// every generated profile, three iterations end at the same fit — at
    /// uniform ranks, where the tall modes form the normal matrix, and (on
    /// one profile) at ranks lopsided against the longest mode, whose
    /// `Y_(n)` is then too wide for that and iterates.
    #[test]
    fn lanczos_and_dense_backends_reach_the_same_fit_on_all_profiles() {
        use crate::config::TuckerConfig;
        use crate::hooi::tucker_hooi;
        use datagen::{DatasetProfile, ProfileName};
        for name in ProfileName::all() {
            let tensor = DatasetProfile::new(name).generate(8_000, 21);
            let sym = SymbolicTtmc::build(&tensor);
            let order = tensor.order();
            let clamped = |rank: usize| -> Vec<usize> {
                tensor.dims().iter().map(|&d| d.min(rank)).collect()
            };
            let uniform = clamped(if order == 3 { 6 } else { 4 });
            let longest = (0..order).max_by_key(|&n| sym.mode(n).num_rows()).unwrap();
            let mut cases = vec![(uniform, true)];
            if name == ProfileName::Nell {
                // Rank 2 against 8 × 15: Π R_t = 120 > 8·(2·2 + 10).
                let mut lopsided = clamped(15);
                lopsided[longest] = 2;
                cases.push((lopsided, false));
            }
            for (ranks, longest_forms) in cases {
                let config = TuckerConfig::new(ranks.clone()).max_iterations(3).seed(3);
                let solve = |backend| tucker_hooi(&tensor, &config.clone().trsvd(backend)).unwrap();
                let (lanczos, dense) = (solve(TrsvdBackend::Lanczos), solve(TrsvdBackend::Dense));
                assert!(
                    (lanczos.final_fit() - dense.final_fit()).abs() < 1e-9,
                    "{name:?} {ranks:?}: Lanczos fit {} vs dense {}",
                    lanczos.final_fit(),
                    dense.final_fit()
                );
                // Which regime answers mode n: a formed normal matrix stands
                // for `width + rank` applications, and is taken exactly when
                // Y_(n) is tall, past the dense fallback and within the gate.
                let forms = |n: usize| {
                    let y = ttmc_mode(&tensor, sym.mode(n), &lanczos.factors, n);
                    let (rows, width) = y.shape();
                    let subspace = 2 * ranks[n] + 10;
                    let dim = tensor.dims()[n];
                    let applications = trsvd_factor_with(
                        &y,
                        sym.mode(n),
                        dim,
                        ranks[n],
                        TrsvdBackend::Lanczos,
                        3,
                        &mut LanczosWorkspace::new(),
                    )
                    .operator_applications;
                    let formed = applications == width + ranks[n];
                    let tall_and_large = rows >= width && width > subspace;
                    assert_eq!(
                        formed,
                        tall_and_large && width <= 8 * subspace,
                        "{name:?} {n}"
                    );
                    (formed, tall_and_large)
                };
                assert_eq!(forms(longest), (longest_forms, true), "{name:?} {ranks:?}");
            }
        }
    }

    /// Degenerate `Y_(n)` through the formed normal matrix, end to end: an
    /// all-zero tensor and a rank-1 one (30 × 30 × 30 nonzeros, so every
    /// `Y_(n)` is 30 × 25 at rank 5: tall, past the dense fallback, within
    /// the gate) give `rank` triplets with zero columns beyond the numerical
    /// rank and a finite fit.
    #[test]
    fn zero_and_rank_deficient_tensors_solve_to_a_finite_fit_on_the_formed_path() {
        use crate::config::TuckerConfig;
        use crate::hooi::tucker_hooi;
        let weight = |i: usize| 1.0 + (i as f64 * 0.7).sin();
        for (scale, numerical_rank) in [(0.0, 0usize), (1.0, 1)] {
            let mut tensor = sptensor::SparseTensor::new(vec![40, 40, 40]);
            for i in 0..30 {
                for j in 0..30 {
                    for k in 0..30 {
                        tensor.push(
                            &[i, j, k],
                            scale * weight(i) * weight(j + 3) * weight(k + 5),
                        );
                    }
                }
            }
            let config = TuckerConfig::new(vec![5, 5, 5]).max_iterations(2).seed(4);
            let result = tucker_hooi(&tensor, &config).unwrap();
            let fit = result.final_fit();
            assert!(fit.is_finite() && (fit - 1.0).abs() < 1e-9, "fit {fit}");
            assert!(result
                .factors
                .iter()
                .all(|u| u.as_slice().iter().all(|x| x.is_finite())));
            let sym = SymbolicTtmc::build(&tensor);
            let y = ttmc_mode(&tensor, sym.mode(0), &result.factors, 0);
            assert_eq!(y.shape(), (30, 25));
            let ws = &mut LanczosWorkspace::new();
            let step = trsvd_factor_with(&y, sym.mode(0), 40, 5, TrsvdBackend::Lanczos, 4, ws);
            assert_eq!(step.operator_applications, 25 + 5, "formed path");
            assert_eq!(step.singular_values.len(), 5);
            for (j, &sigma) in step.singular_values.iter().enumerate() {
                assert_eq!(sigma > 0.0, j < numerical_rank, "σ_{j} = {sigma:e}");
                let zero_column = step.factor.col(j).iter().all(|&x| x == 0.0);
                assert_eq!(zero_column, j >= numerical_rank, "column {j}");
            }
        }
    }

    #[test]
    fn empty_rows_stay_zero() {
        // Mode 0 has size 10 but only rows 2 and 7 carry nonzeros.
        let t = sptensor::SparseTensor::from_entries(
            vec![10, 4, 4],
            &[
                (vec![2, 1, 1], 1.0),
                (vec![7, 2, 3], 2.0),
                (vec![2, 0, 3], 3.0),
            ],
        );
        let factors = vec![
            Matrix::random(10, 2, 1),
            Matrix::random(4, 2, 2),
            Matrix::random(4, 2, 3),
        ];
        let sym = SymbolicTtmc::build(&t);
        let compact = ttmc_mode(&t, sym.mode(0), &factors, 0);
        let ws = &mut LanczosWorkspace::new();
        let result = trsvd_factor_with(&compact, sym.mode(0), 10, 2, TrsvdBackend::Dense, 1, ws);
        for i in 0..10 {
            let row_norm: f64 = result.factor.row(i).iter().map(|x| x * x).sum();
            if i == 2 || i == 7 {
                assert!(row_norm > 0.0);
            } else {
                assert_eq!(row_norm, 0.0, "row {i} should be zero");
            }
        }
    }

    #[test]
    fn rank_larger_than_rows_is_padded() {
        let t = sptensor::SparseTensor::from_entries(
            vec![5, 3, 3],
            &[(vec![0, 0, 0], 1.0), (vec![1, 1, 1], 2.0)],
        );
        let factors = vec![
            Matrix::random(5, 2, 1),
            Matrix::random(3, 2, 2),
            Matrix::random(3, 2, 3),
        ];
        let sym = SymbolicTtmc::build(&t);
        let compact = ttmc_mode(&t, sym.mode(0), &factors, 0);
        // Only 2 nonempty rows but rank 4 requested.
        let ws = &mut LanczosWorkspace::new();
        let result = trsvd_factor_with(&compact, sym.mode(0), 5, 4, TrsvdBackend::Lanczos, 1, ws);
        assert_eq!(result.factor.shape(), (5, 4));
        assert_eq!(result.singular_values.len(), 4);
    }

    #[test]
    fn singular_values_descending() {
        let (t, factors, sym) = setup();
        let compact = ttmc_mode(&t, sym.mode(2), &factors, 2);
        let ws = &mut LanczosWorkspace::new();
        let result = trsvd_factor_with(&compact, sym.mode(2), 20, 4, TrsvdBackend::Lanczos, 2, ws);
        for w in result.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }
}
