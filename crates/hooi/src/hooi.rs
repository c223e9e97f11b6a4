//! The one-shot HOOI entry point and result types (paper Algorithm 3).
//!
//! Per iteration, for every mode `n`:
//!
//! 1. numeric TTMc (`Y_(n) ← X ×_{-n} U_tᵀ`, parallel over the rows of
//!    `J_n` using the precomputed symbolic update lists),
//! 2. TRSVD (`U_n ←` leading `R_n` left singular vectors of `Y_(n)`).
//!
//! After the last mode, the core tensor is extracted from the already
//! available TTMc result and the fit is monitored.  Wall-clock time is
//! accounted per phase (symbolic, init, TTMc, TRSVD, core) because the
//! paper's Tables IV and V report exactly those breakdowns.
//!
//! The driver itself lives in [`crate::solver`]: [`tucker_hooi`] is a thin
//! convenience wrapper over a one-shot [`TuckerSolver`] session.  Callers
//! that decompose the same tensor more than once should plan a session
//! instead and amortize the symbolic analysis, thread pool and scratch
//! buffers across solves.

use crate::config::TuckerConfig;
use crate::core_tensor::reconstruct_at;
use crate::error::TuckerError;
use crate::solver::{PlanOptions, TuckerSolver};
use linalg::Matrix;
use sptensor::{DenseTensor, SparseTensor};
use std::time::Duration;

/// Wall-clock time spent in each phase of a HOOI run.
#[derive(Debug, Clone, Default)]
pub struct TimingBreakdown {
    /// Symbolic TTMc preprocessing (once per plan; a session's later solves
    /// report zero here because the analysis is reused, not redone).
    pub symbolic: Duration,
    /// Worker-pool startup (once per plan; a session's later solves report
    /// zero here because the persistent workers are reused, not respawned —
    /// a nonzero value marks the one solve that paid for pool bring-up).
    pub pool: Duration,
    /// Factor initialization (random or HOSVD), once per solve.  Only the
    /// factors HOOI reads are built ([`initial_factors`](crate::initial_factors)):
    /// mode 0 is overwritten by its first TRSVD before anything reads it, so
    /// a solve of at least one iteration builds no initial mode-0 factor.
    pub init: Duration,
    /// Numeric TTMc across all iterations and modes.
    pub ttmc: Duration,
    /// TRSVD across all iterations and modes.
    pub trsvd: Duration,
    /// Core tensor formation across all iterations.
    pub core: Duration,
}

impl TimingBreakdown {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.symbolic + self.pool + self.init + self.ttmc + self.trsvd + self.core
    }

    /// Time spent inside the iteration loop (everything but the one-time
    /// plan costs — symbolic analysis and pool startup — and the factor
    /// initialization).
    pub fn iteration_time(&self) -> Duration {
        self.ttmc + self.trsvd + self.core
    }

    /// Relative share (in percent) of TTMc, TRSVD and core within the
    /// iteration time — the rows of the paper's Table IV.
    pub fn relative_shares(&self) -> (f64, f64, f64) {
        let total = self.iteration_time().as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.ttmc.as_secs_f64() / total,
            100.0 * self.trsvd.as_secs_f64() / total,
            100.0 * self.core.as_secs_f64() / total,
        )
    }
}

/// The result of a Tucker-HOOI run.
#[derive(Debug, Clone)]
pub struct TuckerDecomposition {
    /// The core tensor `G` (`R_1 × … × R_N`).
    pub core: DenseTensor,
    /// The factor matrices `U_n` (`I_n × R_n`), orthonormal columns.
    pub factors: Vec<Matrix>,
    /// The fit after each completed iteration (1 = exact).
    pub fits: Vec<f64>,
    /// Number of ALS iterations performed.
    pub iterations: usize,
    /// Leading singular values of the final TRSVD per mode.
    pub singular_values: Vec<Vec<f64>>,
    /// Wall-clock breakdown.
    pub timings: TimingBreakdown,
}

impl TuckerDecomposition {
    /// The fit reached at the end of the run (1 = exact reconstruction).
    pub fn final_fit(&self) -> f64 {
        self.fits.last().copied().unwrap_or(0.0)
    }

    /// The ranks of the decomposition.
    pub fn ranks(&self) -> Vec<usize> {
        self.factors.iter().map(|u| u.ncols()).collect()
    }

    /// Reconstructs the model value `[[G; U₁,…,U_N]]` at one coordinate —
    /// the prediction a recommender reads off the decomposition for a
    /// (user, item, …) index.
    ///
    /// # Panics
    /// Panics if `index` has the wrong arity or an entry exceeds its mode
    /// size.
    pub fn predict(&self, index: &[usize]) -> f64 {
        assert_eq!(
            index.len(),
            self.factors.len(),
            "index arity does not match the decomposition order"
        );
        reconstruct_at(&self.core, &self.factors, index)
    }

    /// Batch prediction: the model values at many coordinates — the shape a
    /// served recommender reads scores in (one user slice per request).
    ///
    /// A per-index [`predict`](Self::predict) loop re-walks the dense core
    /// and re-unlinearizes every position for every coordinate; this variant
    /// enumerates the nonzero core entries and their multi-indices exactly
    /// once and streams every query through that flat term list.  Each value
    /// is bit-identical to the corresponding [`predict`](Self::predict)
    /// call (same terms, same order, same arithmetic).
    ///
    /// # Panics
    /// Panics if any index has the wrong arity or an entry exceeds its mode
    /// size.
    pub fn predict_many(&self, indices: &[Vec<usize>]) -> Vec<f64> {
        let order = self.factors.len();
        // Enumerate the nonzero core terms once: their values and flattened
        // multi-indices, in ascending core position (the order `predict`
        // walks them in).
        let mut term_values: Vec<f64> = Vec::new();
        let mut term_ridx: Vec<usize> = Vec::new();
        let mut ridx = vec![0usize; order];
        for pos in 0..self.core.len() {
            let g = self.core.as_slice()[pos];
            if g == 0.0 {
                continue;
            }
            self.core.unlinearize(pos, &mut ridx);
            term_values.push(g);
            term_ridx.extend_from_slice(&ridx);
        }
        indices
            .iter()
            .map(|index| {
                assert_eq!(
                    index.len(),
                    order,
                    "index arity does not match the decomposition order"
                );
                let mut sum = 0.0;
                for (t, &g) in term_values.iter().enumerate() {
                    let ridx = &term_ridx[t * order..(t + 1) * order];
                    let mut prod = g;
                    for (n, &r) in ridx.iter().enumerate() {
                        prod *= self.factors[n][(index[n], r)];
                        if prod == 0.0 {
                            break;
                        }
                    }
                    sum += prod;
                }
                sum
            })
            .collect()
    }
}

/// Runs shared-memory parallel HOOI on a sparse tensor, one-shot.
///
/// This is a thin convenience wrapper over a single-use [`TuckerSolver`]
/// session: it plans with the default [`PlanOptions`] (symbolic TTMc + a
/// persistent worker pool of every hardware thread), solves once, and
/// discards the plan (joining the pool's workers).  Anything fixed at plan
/// time — pool width, TTMc strategy, index layout, kernel tier — is set on
/// a planned session's [`PlanOptions`], not here.
/// Callers decomposing the same tensor repeatedly — rank sweeps, seed
/// restarts, services — should call [`TuckerSolver::plan`] once and
/// [`TuckerSolver::solve`] per request instead.
///
/// Invalid input (empty tensor, rank/order mismatch, zero rank) is reported
/// as a [`TuckerError`], never a panic.
pub fn tucker_hooi(
    tensor: &SparseTensor,
    config: &TuckerConfig,
) -> Result<TuckerDecomposition, TuckerError> {
    TuckerSolver::plan(tensor, PlanOptions::new())?.solve(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Initialization, TrsvdBackend};
    use crate::fit::{full_relative_error, rmse_at_nonzeros};
    use datagen::{lowrank_tensor, random_tensor, LowRankSpec};
    use linalg::qr::orthogonality_error;

    #[test]
    fn hooi_fit_at_least_matches_planted_model() {
        // A partially sampled low-rank tensor (zeros at the unsampled
        // positions) is no longer exactly low rank, so HOOI cannot recover
        // the planted model exactly; it must however reach a fit at least as
        // good as the planted factors evaluated on the *sampled* tensor,
        // since ALS monotonically improves the fit from any starting point
        // and the planted factors are one admissible candidate.
        let lr = lowrank_tensor(&LowRankSpec {
            dims: vec![25, 20, 15],
            ranks: vec![3, 3, 2],
            nnz: 25 * 20 * 15 / 3,
            noise: 0.0,
            seed: 42,
        });
        let config = TuckerConfig::new(vec![3, 3, 2]).max_iterations(10).seed(7);
        let result = tucker_hooi(&lr.tensor, &config).unwrap();
        let planted_core = crate::core_tensor::core_from_scratch(&lr.tensor, &lr.factors);
        let planted_fit =
            crate::fit::fit_from_norms(lr.tensor.frobenius_norm(), planted_core.frobenius_norm());
        assert!(
            result.final_fit() >= planted_fit - 0.02,
            "HOOI fit {} vs planted fit {planted_fit}",
            result.final_fit()
        );
        // The model should still explain the observed entries far better
        // than predicting zero everywhere.
        let rmse = rmse_at_nonzeros(&lr.tensor, &result.core, &result.factors);
        let scale = lr.tensor.frobenius_norm() / (lr.tensor.nnz() as f64).sqrt();
        assert!(rmse < scale, "rmse {rmse} vs scale {scale}");
    }

    #[test]
    fn recovers_fully_observed_lowrank_tensor_exactly() {
        // Fully sampled low-rank tensor: HOOI with the planted ranks must
        // reach fit ≈ 1.
        let dims = vec![12, 10, 8];
        let total: usize = dims.iter().product();
        let lr = lowrank_tensor(&LowRankSpec {
            dims: dims.clone(),
            ranks: vec![2, 2, 2],
            nnz: total,
            noise: 0.0,
            seed: 5,
        });
        assert_eq!(lr.tensor.nnz(), total);
        let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(15).seed(3);
        let result = tucker_hooi(&lr.tensor, &config).unwrap();
        assert!(
            result.final_fit() > 0.999,
            "fit {} should be ~1",
            result.final_fit()
        );
        let err = full_relative_error(&lr.tensor, &result.core, &result.factors, 1_000_000);
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    fn factors_are_orthonormal() {
        let t = random_tensor(&[30, 25, 20], 2000, 11);
        let config = TuckerConfig::new(vec![4, 4, 4]).max_iterations(3);
        let result = tucker_hooi(&t, &config).unwrap();
        for u in &result.factors {
            assert!(orthogonality_error(u) < 1e-6);
        }
        assert_eq!(result.core.dims(), &[4, 4, 4]);
    }

    #[test]
    fn fit_is_monotone_nondecreasing() {
        let t = random_tensor(&[20, 20, 20], 1500, 3);
        let config = TuckerConfig::new(vec![3, 3, 3])
            .max_iterations(6)
            .fit_tolerance(-1.0); // never early-stop
        let result = tucker_hooi(&t, &config).unwrap();
        for w in result.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-8, "fit decreased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn early_stopping_respects_tolerance() {
        let t = random_tensor(&[15, 15, 15], 800, 9);
        let config = TuckerConfig::new(vec![2, 2, 2])
            .max_iterations(50)
            .fit_tolerance(0.5); // huge tolerance: stop after 2 iterations
        let result = tucker_hooi(&t, &config).unwrap();
        assert!(result.iterations <= 3);
    }

    #[test]
    fn works_on_4mode_tensor() {
        let t = random_tensor(&[10, 12, 8, 6], 600, 17);
        let config = TuckerConfig::new(vec![2, 2, 2, 2]).max_iterations(3);
        let result = tucker_hooi(&t, &config).unwrap();
        assert_eq!(result.core.dims(), &[2, 2, 2, 2]);
        assert_eq!(result.factors.len(), 4);
        assert!(result.final_fit() > 0.0);
    }

    #[test]
    fn ranks_clamped_to_dims() {
        let t = random_tensor(&[5, 30, 30], 400, 2);
        let config = TuckerConfig::new(vec![10, 4, 4]).max_iterations(2);
        let result = tucker_hooi(&t, &config).unwrap();
        assert_eq!(result.ranks(), vec![5, 4, 4]);
    }

    #[test]
    fn invalid_input_is_an_error_not_a_panic() {
        let t = random_tensor(&[10, 10, 10], 200, 1);
        let config = TuckerConfig::new(vec![2, 2]);
        assert!(matches!(
            tucker_hooi(&t, &config),
            Err(TuckerError::OrderMismatch { .. })
        ));
        let config = TuckerConfig::new(vec![2, 0, 2]);
        assert_eq!(
            tucker_hooi(&t, &config).unwrap_err(),
            TuckerError::ZeroRank { mode: 1 }
        );
        let empty = SparseTensor::new(vec![4, 4, 4]);
        assert_eq!(
            tucker_hooi(&empty, &TuckerConfig::new(vec![2, 2, 2])).unwrap_err(),
            TuckerError::EmptyTensor
        );
    }

    #[test]
    fn backends_reach_similar_fit() {
        let t = random_tensor(&[25, 20, 15], 1200, 5);
        let base = TuckerConfig::new(vec![3, 3, 3]).max_iterations(4).seed(1);
        let lanczos = tucker_hooi(&t, &base.clone().trsvd(TrsvdBackend::Lanczos)).unwrap();
        let dense = tucker_hooi(&t, &base.clone().trsvd(TrsvdBackend::Dense)).unwrap();
        assert!((lanczos.final_fit() - dense.final_fit()).abs() < 1e-3);
    }

    #[test]
    fn hosvd_init_at_least_as_good_as_random_on_lowrank() {
        let lr = lowrank_tensor(&LowRankSpec {
            dims: vec![15, 12, 10],
            ranks: vec![2, 2, 2],
            nnz: 15 * 12 * 10,
            noise: 0.01,
            seed: 21,
        });
        let base = TuckerConfig::new(vec![2, 2, 2]).max_iterations(1).seed(4);
        let random = tucker_hooi(&lr.tensor, &base.clone()).unwrap();
        let hosvd = tucker_hooi(
            &lr.tensor,
            &base.clone().initialization(Initialization::Hosvd),
        )
        .unwrap();
        // After a single iteration the HOSVD start should not be worse by
        // more than a small margin (it is usually better).
        assert!(hosvd.final_fit() >= random.final_fit() - 0.05);
    }

    #[test]
    fn timing_breakdown_is_populated() {
        let t = random_tensor(&[40, 40, 40], 4000, 7);
        let config = TuckerConfig::new(vec![4, 4, 4]).max_iterations(2);
        let result = tucker_hooi(&t, &config).unwrap();
        assert!(result.timings.ttmc > Duration::ZERO);
        assert!(result.timings.trsvd > Duration::ZERO);
        assert!(result.timings.init > Duration::ZERO);
        assert!(result.timings.total() >= result.timings.iteration_time() + result.timings.init);
        let (a, b, c) = result.timings.relative_shares();
        assert!((a + b + c - 100.0).abs() < 1e-6);
    }

    #[test]
    fn singular_values_recorded_per_mode() {
        let t = random_tensor(&[20, 20, 20], 1000, 13);
        let config = TuckerConfig::new(vec![3, 3, 3]).max_iterations(2);
        let result = tucker_hooi(&t, &config).unwrap();
        assert_eq!(result.singular_values.len(), 3);
        for sv in &result.singular_values {
            assert_eq!(sv.len(), 3);
            assert!(sv[0] >= sv[1]);
        }
    }

    #[test]
    fn predict_matches_reconstruct_at() {
        let t = random_tensor(&[12, 10, 8], 300, 19);
        let config = TuckerConfig::new(vec![3, 3, 3]).max_iterations(2);
        let result = tucker_hooi(&t, &config).unwrap();
        for (idx, _) in t.iter().take(10) {
            let direct = crate::core_tensor::reconstruct_at(&result.core, &result.factors, idx);
            assert_eq!(result.predict(idx), direct);
        }
    }

    #[test]
    fn predict_many_matches_per_index_predict_bitwise() {
        let t = random_tensor(&[14, 11, 9], 350, 29);
        let config = TuckerConfig::new(vec![3, 2, 3]).max_iterations(2);
        let result = tucker_hooi(&t, &config).unwrap();
        let indices: Vec<Vec<usize>> = t.iter().take(25).map(|(idx, _)| idx.to_vec()).collect();
        let batch = result.predict_many(&indices);
        assert_eq!(batch.len(), indices.len());
        for (idx, &value) in indices.iter().zip(batch.iter()) {
            assert_eq!(value, result.predict(idx), "diverged at {idx:?}");
        }
        assert!(result.predict_many(&[]).is_empty());
    }
}
