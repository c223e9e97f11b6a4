//! Configuration of the HOOI solver.

use crate::error::TuckerError;

/// How the factor matrices are initialized before the first HOOI iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Initialization {
    /// Random orthonormal columns (the default; cheap and what the paper's
    /// scalability experiments effectively measure, since the per-iteration
    /// cost does not depend on the starting point).
    Random,
    /// HOSVD-style initialization: leading left singular vectors of each
    /// mode unfolding.  Only sensible for small tensors; falls back to
    /// random when the unfolding is too large to handle (see
    /// [`crate::hosvd`]).
    Hosvd,
}

/// How the per-iteration TTMc sweep is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TtmcStrategy {
    /// One independent nonzero-based TTMc per mode (paper Algorithm 2) —
    /// the baseline the distributed executor's bit-identity contract is
    /// pinned to.
    PerMode,
    /// Flop-sharing dimension-tree TTMc ([`crate::dimtree`]): partial
    /// contractions are materialized once per iteration at the internal
    /// nodes of a binary mode tree and every leaf serves its mode's compact
    /// result from them.  Strictly fewer flops for order ≥ 4; tensors with
    /// a single mode silently fall back to [`PerMode`](Self::PerMode).
    DimensionTree,
    /// Pick the cheaper of [`PerMode`](Self::PerMode) and
    /// [`DimensionTree`](Self::DimensionTree) per tensor at plan time by
    /// comparing the strategies' modeled per-iteration flops
    /// ([`crate::dimtree::DimTree::costs`] vs
    /// [`crate::dimtree::per_mode_costs`]) at a fixed rank hint.  The
    /// default: order ≥ 4 profiles resolve to the tree, while tensors whose
    /// projections never collide (where sharing cannot pay for the extra
    /// partial-value traffic) resolve to the per-mode sweep.  Ties resolve
    /// to [`PerMode`](Self::PerMode), the simpler kernel.
    #[default]
    Auto,
}

/// Which per-mode index structure a planned session holds — reported by
/// [`crate::TuckerSession::index_layout`], not chosen by the caller.
///
/// Every per-mode plan streams one CSF hierarchy per mode; dimension-tree
/// plans serve TTMc from their own node structures and hold none.  The
/// per-mode kernel's COO gather (used when no hierarchy is attached)
/// accumulates every output row in the same order with the same arithmetic
/// as the CSF walk, so the two are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexLayout {
    /// No per-mode structure (dimension-tree plans): the per-mode kernel
    /// would gather each nonzero through its COO id.
    Coo,
    /// Compressed sparse fiber hierarchies per mode, with `u32` ids where
    /// the dimensions permit (every per-mode plan).
    Csf,
}

/// Which truncated-SVD backend updates the factor matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrsvdBackend {
    /// The matrix-free solver of [`linalg::lanczos`] on the normal operator
    /// `Y_(n)ᵀ Y_(n)` (the SLEPc stand-in; default): formed and solved
    /// directly while it is a few Krylov subspaces wide, otherwise symmetric
    /// Lanczos with full reorthogonalization.
    Lanczos,
    /// Dense SVD of the explicitly assembled matricized result (only for
    /// small problems / verification).
    Dense,
}

/// Options controlling a Tucker-HOOI run.
#[derive(Debug, Clone)]
pub struct TuckerConfig {
    /// Requested rank per mode (`R_1, …, R_N`).
    pub ranks: Vec<usize>,
    /// Maximum number of ALS iterations.
    pub max_iterations: usize,
    /// Stop when the fit improves by less than this between iterations.
    pub fit_tolerance: f64,
    /// Factor initialization scheme.
    pub initialization: Initialization,
    /// TRSVD backend.
    pub trsvd: TrsvdBackend,
    /// RNG seed (initialization and iterative TRSVD starting vectors).
    pub seed: u64,
}

impl TuckerConfig {
    /// Creates a configuration with the given ranks and the defaults used in
    /// the paper's experiments: 5 HOOI iterations, Lanczos TRSVD, random
    /// initialization.
    ///
    /// Construction never fails: the ranks are validated against a concrete
    /// tensor when the configuration is used (see
    /// [`validated_ranks`](Self::validated_ranks)), so an invalid
    /// configuration surfaces as a [`TuckerError`] instead of a panic.
    pub fn new(ranks: Vec<usize>) -> Self {
        TuckerConfig {
            ranks,
            max_iterations: 5,
            fit_tolerance: 1e-5,
            initialization: Initialization::Random,
            trsvd: TrsvdBackend::Lanczos,
            seed: 0x7c4a_u64 ^ 0x00c0_ffee,
        }
    }

    /// Builder-style setter for the iteration count.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Builder-style setter for the fit tolerance.
    pub fn fit_tolerance(mut self, tol: f64) -> Self {
        self.fit_tolerance = tol;
        self
    }

    /// Builder-style setter for the initialization scheme.
    pub fn initialization(mut self, init: Initialization) -> Self {
        self.initialization = init;
        self
    }

    /// Builder-style setter for the TRSVD backend.
    pub fn trsvd(mut self, backend: TrsvdBackend) -> Self {
        self.trsvd = backend;
        self
    }

    /// Builder-style setter for the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration against a tensor's mode sizes and returns
    /// the effective per-mode ranks, clamping requests that exceed their
    /// mode size (the decomposition rank can never exceed the dimension).
    ///
    /// This is the non-panicking validation every public solver entry point
    /// runs before touching the tensor:
    ///
    /// ```
    /// use hooi::{TuckerConfig, TuckerError};
    ///
    /// let config = TuckerConfig::new(vec![10, 10, 0]);
    /// assert_eq!(
    ///     config.validated_ranks(&[50, 5, 50]),
    ///     Err(TuckerError::ZeroRank { mode: 2 })
    /// );
    /// let config = TuckerConfig::new(vec![10, 10]);
    /// assert_eq!(
    ///     config.validated_ranks(&[50, 5]),
    ///     Ok(vec![10, 5]) // clamped to the mode size
    /// );
    /// ```
    pub fn validated_ranks(&self, dims: &[usize]) -> Result<Vec<usize>, TuckerError> {
        if self.ranks.len() != dims.len() {
            return Err(TuckerError::OrderMismatch {
                config_modes: self.ranks.len(),
                tensor_modes: dims.len(),
            });
        }
        if let Some(mode) = self.ranks.iter().position(|&r| r == 0) {
            return Err(TuckerError::ZeroRank { mode });
        }
        Ok(self
            .ranks
            .iter()
            .zip(dims.iter())
            .map(|(&r, &d)| r.min(d))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = TuckerConfig::new(vec![10, 10, 10]);
        assert_eq!(c.max_iterations, 5);
        assert_eq!(c.trsvd, TrsvdBackend::Lanczos);
        assert_eq!(c.initialization, Initialization::Random);
    }

    #[test]
    fn builder_setters() {
        let c = TuckerConfig::new(vec![3, 3])
            .max_iterations(12)
            .fit_tolerance(1e-9)
            .initialization(Initialization::Hosvd)
            .trsvd(TrsvdBackend::Dense)
            .seed(99);
        assert_eq!(c.max_iterations, 12);
        assert_eq!(c.fit_tolerance, 1e-9);
        assert_eq!(c.initialization, Initialization::Hosvd);
        assert_eq!(c.trsvd, TrsvdBackend::Dense);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn validated_ranks_reject_order_mismatch() {
        let c = TuckerConfig::new(vec![10, 10]);
        assert_eq!(
            c.validated_ranks(&[100, 100, 100]),
            Err(TuckerError::OrderMismatch {
                config_modes: 2,
                tensor_modes: 3,
            })
        );
    }

    #[test]
    fn validated_ranks_reject_zero_rank() {
        let c = TuckerConfig::new(vec![2, 0, 3]);
        assert_eq!(
            c.validated_ranks(&[10, 10, 10]),
            Err(TuckerError::ZeroRank { mode: 1 })
        );
        // Empty ranks are an order mismatch against any non-empty tensor.
        let c = TuckerConfig::new(vec![]);
        assert_eq!(
            c.validated_ranks(&[10, 10]),
            Err(TuckerError::OrderMismatch {
                config_modes: 0,
                tensor_modes: 2,
            })
        );
    }

    #[test]
    fn validated_ranks_clamp_to_dims() {
        let c = TuckerConfig::new(vec![10, 10, 10]);
        assert_eq!(c.validated_ranks(&[100, 5, 50]).unwrap(), vec![10, 5, 10]);
    }
}
